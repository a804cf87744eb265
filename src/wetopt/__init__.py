"""Training-energy optimization for multi-antenna multi-band wireless energy transfer.

A transmitter with many antennas delivers RF energy to a single-antenna
receiver over many flat-fading sub-bands.  Channel knowledge buys two
gains (picking the strongest bands, beamforming on them) but costs pilot
energy at the receiver.  This package evaluates that trade-off exactly:

* :mod:`wetopt.order_stats`     expected ordered channel gains,
* :mod:`wetopt.training_model`  closed-form energy accounting,
* :mod:`wetopt.optimizer`       the exact net-energy maximizer,
* :mod:`wetopt.channel_sim`     Monte Carlo protocol simulation,
* :mod:`wetopt.asymptotics`     large-array / wideband limits and bounds,
* :mod:`wetopt.cli`             config-driven experiment runner (CSV out).
"""

from .asymptotics import (
    BoundReport,
    LargeArrayLimit,
    lambert_w0,
    large_antenna_limit,
    perfect_csi_average,
    saturation_bound,
)
from .channel_sim import (
    BruteForce,
    EnergyReport,
    NoCsi,
    PerfectCsi,
    Phase1Only,
    Phase2Only,
    Scheme,
    TwoPhase,
    ranked_power_moments,
    run_benchmark,
    run_two_phase,
    tune_brute_force_energy,
)
from .optimizer import (
    CaseLabel,
    CaseSolution,
    Solution,
    classify_esnr_case,
    min_phase2_penalty,
    net_energy_given_phase1,
    optimal_phase2_energy,
    optimize_training,
    poly_real_roots,
    solve_for_n1,
    solve_phase1_only,
    solve_phase2_only,
)
from .order_stats import (
    erlang_cdf,
    gain,
    gain_closed_form,
    gain_monte_carlo,
    gain_quadrature,
    gains_up_to,
    ordered_cdf,
)
from .training_model import (
    SystemParams,
    TrainingPlan,
    average_harvested_energy,
    esnr,
    expected_selected_power,
    net_harvested_energy,
    refinement_threshold,
)

__version__ = "0.1.0"
