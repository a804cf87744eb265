"""Monte Carlo protocol simulation against the closed-form expressions."""

import math

import numpy as np
import pytest

from wetopt import order_stats
from wetopt.channel_sim import (
    BruteForce,
    NoCsi,
    PerfectCsi,
    Phase1Only,
    Phase2Only,
    ranked_power_moments,
    run_benchmark,
    run_two_phase,
    tune_brute_force_energy,
)
from wetopt.optimizer import (
    optimize_training,
    solve_brute_force,
    solve_phase1_only,
    solve_phase2_only,
)
from wetopt.training_model import (
    SystemParams,
    TrainingPlan,
    average_harvested_energy,
    esnr,
    expected_selected_power,
)


def params(**overrides) -> SystemParams:
    base = dict(m=4, n=12, n2=3, ps=0.06, eta=0.8, t=1e-3, beta=1e-6, n0=1e-19)
    base.update(overrides)
    return SystemParams(**base)


def brute_force_net(energy: float, p: SystemParams) -> float:
    """Mean net energy of the brute-force scheme at one per-band energy:
    eta*t*ps*beta*[G - (G - n2)/(x + 1)] - n*e, x = beta*e/n0, G the top-n2
    gain sum."""
    top = float(np.sum(order_stats.gains_up_to(p.n2, p.n, p.m)))
    x = p.beta * energy / p.n0
    return p.eta_t_ps * p.beta * (top - (top - p.n2) / (x + 1.0)) - p.n * energy


class TestTwoPhase:
    def test_zero_plan_is_no_csi(self):
        p = params()
        plan = TrainingPlan(n1=p.n2, e1=0.0, e2=(0.0,) * p.n2)
        report = run_two_phase(plan, p, 40_000, seed=5)
        expected = p.eta_t_ps * p.beta * p.n2
        assert abs(report.mean_qbar - expected) <= 3.0 * report.stderr

    def test_matches_analytic_at_optimum(self):
        p = params()
        sol = optimize_training(p)
        report = run_two_phase(sol.plan, p, 40_000, seed=8)
        qbar = average_harvested_energy(sol.plan, p)
        assert abs(report.mean_qbar - qbar) <= 3.0 * report.stderr
        assert abs(report.mean_qnet - sol.qnet_star) <= 3.0 * report.stderr

    def test_single_antenna_wastes_refinement_energy(self):
        # with one antenna the harvest ignores the estimate, so adding
        # phase-2 pilots changes nothing but the bill (same seed, same draws)
        p = params(m=1)
        base = TrainingPlan(n1=6, e1=2e-13, e2=(0.0,) * p.n2)
        spent = TrainingPlan(n1=6, e1=2e-13, e2=(3e-13, 2e-13, 1e-13))
        a = run_two_phase(base, p, 3000, seed=2)
        b = run_two_phase(spent, p, 3000, seed=2)
        assert a.mean_qbar == pytest.approx(b.mean_qbar, rel=1e-12)
        assert a.mean_qnet - b.mean_qnet == pytest.approx(
            sum(spent.e2), rel=1e-9
        )

    def test_accounting_identity_and_determinism(self):
        p = params()
        plan = TrainingPlan(n1=8, e1=1e-13, e2=(2e-12, 1e-12, 0.0))
        a = run_two_phase(plan, p, 5000, seed=13)
        b = run_two_phase(plan, p, 5000, seed=13)
        assert a == b
        assert a.mean_qnet == a.mean_qbar - a.training_cost
        assert a.training_cost == pytest.approx(plan.cost)

    def test_validates_plan(self):
        p = params()
        with pytest.raises(ValueError):
            run_two_phase(TrainingPlan(n1=2, e1=0.0, e2=(0.0,) * 3), p, 10, 0)
        with pytest.raises(ValueError):
            run_two_phase(TrainingPlan(n1=5, e1=0.0, e2=(0.0,) * 3), p, 0, 0)


class TestBenchmarks:
    def test_perfect_csi_mean(self):
        p = params(m=2, n=8, n2=2)
        report = run_benchmark(PerfectCsi(), p, 100_000, seed=21)
        expected = p.eta_t_ps * p.beta * float(
            np.sum(order_stats.gains_up_to(p.n2, p.n, p.m))
        )
        assert abs(report.mean_qbar - expected) <= 3.0 * report.stderr
        assert report.training_cost == 0.0

    def test_no_csi_mean(self):
        p = params()
        report = run_benchmark(NoCsi(), p, 100_000, seed=22)
        expected = p.eta_t_ps * p.beta * p.n2
        assert abs(report.mean_qbar - expected) <= 3.0 * report.stderr

    def test_phase1_only_equals_zero_refinement_plan(self):
        p = params()
        direct = run_benchmark(Phase1Only(n1=8, e1=3e-13), p, 2000, seed=4)
        plan = TrainingPlan(n1=8, e1=3e-13, e2=(0.0,) * p.n2)
        via_plan = run_two_phase(plan, p, 2000, seed=4)
        assert direct == via_plan

    def test_phase2_only_matches_prior_power_formula(self):
        p = params()
        plan, value = solve_phase2_only(p)
        report = run_benchmark(Phase2Only(e2=plan.e2), p, 60_000, seed=6)
        assert abs(report.mean_qnet - value) <= 3.0 * report.stderr

    def test_brute_force_cost_and_selection(self):
        p = params()
        report = run_benchmark(BruteForce(energy_per_band=1e-13), p, 4000, seed=31)
        assert report.training_cost == pytest.approx(1e-13 * p.n)
        # with estimation on every band the harvest beats blind selection
        blind = run_benchmark(NoCsi(), p, 4000, seed=31)
        assert report.mean_qbar > blind.mean_qbar

    def test_information_ordering(self):
        p = params(m=8, n=24, n2=4, t=5e-3)
        trials, seed = 30_000, 41
        sol = optimize_training(p)
        two = run_two_phase(sol.plan, p, trials, seed)
        perfect = run_benchmark(PerfectCsi(), p, trials, seed)
        nocsi = run_benchmark(NoCsi(), p, trials, seed)
        p1, _ = solve_phase1_only(p)
        phase1 = run_benchmark(Phase1Only(n1=p1.n1, e1=p1.e1), p, trials, seed)
        p2, _ = solve_phase2_only(p)
        phase2 = run_benchmark(Phase2Only(e2=p2.e2), p, trials, seed)
        se = lambda a, b: 3.0 * math.hypot(a.stderr, b.stderr)
        assert perfect.mean_qbar - two.mean_qbar > -se(perfect, two)
        assert perfect.mean_qnet > two.mean_qnet
        assert two.mean_qnet - max(phase1.mean_qnet, phase2.mean_qnet) > se(two, phase2)
        assert two.mean_qnet - nocsi.mean_qnet > se(two, nocsi)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(TypeError):
            run_benchmark(object(), params(), 10, 0)


class TestRankedPowerMoments:
    def test_matches_analytic_selected_powers(self):
        p = params()
        e1 = 5e-13
        means, stderrs = ranked_power_moments(8, e1, p, 40_000, seed=15)
        for rank in range(1, p.n2 + 1):
            expected = expected_selected_power(rank, 8, e1, p)
            assert abs(means[rank - 1] - expected) <= 3.0 * stderrs[rank - 1]

    def test_noise_only_ranking_is_uniform(self):
        p = params()
        means, stderrs = ranked_power_moments(6, 0.0, p, 40_000, seed=16)
        for rank in range(6):
            assert abs(means[rank] - p.beta * p.m) <= 3.0 * stderrs[rank]

    def test_clean_ranking_reaches_ordered_gain(self):
        p = params()
        means, stderrs = ranked_power_moments(6, 1.0, p, 40_000, seed=18)
        expected = p.beta * order_stats.gain(1, 6, p.m)
        assert abs(means[0] - expected) <= 3.0 * stderrs[0]


class TestBruteForceTuning:
    def test_energy_within_bracket_and_deterministic(self):
        p = params()
        a = tune_brute_force_energy(p, seed=9, pilot_trials=400)
        b = tune_brute_force_energy(p, seed=9, pilot_trials=400)
        assert a == b
        hi = p.eta_t_ps * p.beta * float(
            np.sum(order_stats.gains_up_to(p.n2, p.n, p.m))
        ) / p.n
        assert 0.0 <= a <= hi


VALIDATE_SHAPE = dict(m=10, n=50, n2=16, t=5e-5)


class TestBruteForceClosedForm:
    @pytest.mark.parametrize(
        "shape, seed",
        [(dict(), 610), (VALIDATE_SHAPE, 620), (dict(m=1, n=20, n2=2), 630)],
    )
    def test_matches_simulation(self, shape, seed):
        p = params(**shape)
        energy, value = solve_brute_force(p)
        assert energy > 0.0
        assert value == pytest.approx(brute_force_net(energy, p), rel=1e-12)
        assert value > max(brute_force_net(energy * s, p) for s in (0.99, 1.01))
        for k, scale in enumerate((0.5, 1.0, 2.0)):
            e = energy * scale
            report = run_benchmark(BruteForce(energy_per_band=e), p, 20_000, seed + k)
            assert abs(report.mean_qnet - brute_force_net(e, p)) <= 3.0 * report.stderr

    def test_clamps_at_zero_energy(self):
        p = params(t=1e-6)
        top = float(np.sum(order_stats.gains_up_to(p.n2, p.n, p.m)))
        unclamped = math.sqrt(esnr(p) * (top - p.n2) / p.n) - 1.0
        assert unclamped < 0.0
        energy, value = solve_brute_force(p)
        assert energy == 0.0
        assert value == pytest.approx(p.eta_t_ps * p.beta * p.n2, rel=1e-15)

    @pytest.mark.parametrize("shape", [dict(), VALIDATE_SHAPE, dict(t=1e-6)])
    def test_monte_carlo_tuning_agrees(self, shape):
        p = params(**shape)
        _, value = solve_brute_force(p)
        tuned = tune_brute_force_energy(p, seed=9, pilot_trials=400)
        assert abs(brute_force_net(tuned, p) - value) <= 1e-3 * abs(value)
