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

``channel_sim`` and ``asymptotics`` load on first use: importing the
package puts each into ``sys.modules`` unexecuted, and the first read of
one of its names (or of a name re-exported here from it) runs its code,
so a process that only optimizes never pays for them.
"""

import importlib.util
import sys
import threading
import types

from .optimizer import (
    CaseLabel,
    CaseSolution,
    Solution,
    classify_esnr_case,
    net_energy_given_phase1,
    optimal_phase2_energy,
    optimize_training,
    poly_real_roots,
    solve_for_n1,
    solve_phase1_only,
    solve_phase2_only,
)
from .order_stats import (
    gain,
    gain_closed_form,
    gain_monte_carlo,
    gain_quadrature,
    gains_up_to,
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

# One lock for every deferred load: a thread that reads a module another
# thread is still running waits here until its names are all bound.
_LOAD_LOCK = threading.RLock()
# the names importing reads from a module in sys.modules, which must not load it
_IMPORT_READS = frozenset(("__dict__", "__spec__", "__name__"))


class _Running(types.ModuleType):
    """A deferred module whose code is running: a read waits for the load
    to finish, except in the loading thread, which sees the partial module
    as a circular import would."""

    def __getattribute__(self, name):
        if name not in _IMPORT_READS:
            with _LOAD_LOCK:
                pass
        return types.ModuleType.__getattribute__(self, name)


class _Deferred(types.ModuleType):
    """A submodule in ``sys.modules`` whose code runs on the first read of
    any name but those importing reads.

    The class changes to the plain module type only after the code has
    run, so no thread sees the module half bound (the stdlib
    ``importlib.util.LazyLoader`` changes it first).
    """

    def __getattribute__(self, name):
        if name not in _IMPORT_READS:
            with _LOAD_LOCK:
                if type(self) is _Deferred:
                    self.__class__ = _Running
                    try:
                        self.__spec__.loader.exec_module(self)
                    except BaseException:
                        self.__class__ = _Deferred
                        raise
                    self.__class__ = types.ModuleType
        return types.ModuleType.__getattribute__(self, name)


def _defer(name: str) -> types.ModuleType:
    """Submodule ``name``, in ``sys.modules`` with its code not yet run."""
    module = importlib.util.module_from_spec(importlib.util.find_spec(f"{__name__}.{name}"))
    module.__class__ = _Deferred
    sys.modules[module.__name__] = module
    return module


asymptotics = _defer("asymptotics")
channel_sim = _defer("channel_sim")

# name -> the deferred submodule it is re-exported from
_DEFERRED_NAMES = {
    **dict.fromkeys(
        ("BoundReport", "LargeArrayLimit", "lambert_w0", "large_antenna_limit",
         "perfect_csi_average", "saturation_bound"),
        asymptotics,
    ),
    **dict.fromkeys(
        ("BruteForce", "EnergyReport", "NoCsi", "PerfectCsi", "Phase1Only", "Phase2Only",
         "Scheme", "TwoPhase", "ranked_power_moments", "run_benchmark", "run_schemes",
         "run_two_phase", "tune_brute_force_energy"),
        channel_sim,
    ),
}


def __getattr__(name: str):
    """The names re-exported from a deferred submodule (PEP 562): each read
    goes to the submodule, so it loads on the first and a rebinding there
    shows here."""
    try:
        module = _DEFERRED_NAMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *_DEFERRED_NAMES})
