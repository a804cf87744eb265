"""Monte Carlo protocol simulation against the closed-form expressions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_instance
from wetopt import asymptotics, channel_sim, order_stats
from wetopt.channel_sim import (
    BruteForce,
    NoCsi,
    PerfectCsi,
    Phase1Only,
    Phase2Only,
    TwoPhase,
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

    @pytest.mark.parametrize(
        "e2",
        [(1e-12,) * 2, (1e-12, -1e-12, 0.0), (1e-12, math.nan, 0.0), (math.inf, 0.0, 0.0)],
        ids=["short", "negative", "nan", "inf"],
    )
    def test_phase2_only_rejects_bad_energies(self, e2):
        # as a plan's: one finite, non-negative energy per active band
        with pytest.raises(ValueError):
            run_benchmark(Phase2Only(e2=e2), params(), 10, 0)

    @pytest.mark.parametrize(
        "scheme",
        [
            TwoPhase(TrainingPlan(n1=5, e1=1e-13, e2=(1e-12,) * 3)),
            PerfectCsi(),
            NoCsi(),
            Phase1Only(n1=5, e1=1e-13),
            Phase2Only(e2=(1e-12,) * 3),
            BruteForce(energy_per_band=1e-13),
        ],
        ids=lambda scheme: type(scheme).__name__,
    )
    def test_rejects_zero_trials(self, scheme):
        with pytest.raises(ValueError, match=r"^trials must be >= 1, got 0$"):
            run_benchmark(scheme, params(), 0, 0)


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


def complex_normal(rng, shape, var):
    return math.sqrt(var / 2.0) * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )


def full_vector_harvest(rng, h, e2, prior, p):
    """Per-band harvest from whole m-antenna channels ``h`` (trials, n2, m):
    draw z2, form the LMMSE estimate of h from y2 = sqrt(e2) h + z2 under
    the per-band prior power ``prior``, and beamform along it; untrained
    bands transmit isotropically (||h||^2 / m)."""
    z2 = complex_normal(rng, h.shape, p.n0)
    coeff = np.sqrt(e2) * prior / (e2 * prior + p.n0 * p.m)
    hhat = coeff[None, :, None] * (np.sqrt(e2)[None, :, None] * h + z2)
    out = (np.abs(h) ** 2).sum(axis=2) / p.m
    trained = e2 > 0.0
    inner = np.abs((h.conj() * hhat).sum(axis=2)[:, trained]) ** 2
    out[:, trained] = inner / (np.abs(hhat[:, trained]) ** 2).sum(axis=2)
    return out


def full_vector_two_phase(rng, trials, n1, e1, e2, p):
    """The kept bands' posterior channels as whole m-vectors, their pilot
    observations on the first axis, ranked by Gamma pilot energies."""
    s2 = p.beta * e1 + p.n0
    h = complex_normal(rng, (trials, p.n2, p.m), p.beta * p.n0 / s2)
    energy = rng.gamma(p.m, s2, (trials, n1))
    top = np.sort(energy, axis=1)[:, ::-1][:, : p.n2]
    h[:, :, 0] += (math.sqrt(e1) * p.beta / s2) * np.sqrt(top)
    prior = np.array(
        [expected_selected_power(r, n1, e1, p) for r in range(1, p.n2 + 1)]
    )
    return full_vector_harvest(rng, h, e2, prior, p)


def full_vector_phase2_only(rng, trials, e2, p):
    h = complex_normal(rng, (trials, p.n2, p.m), p.beta)
    return full_vector_harvest(rng, h, e2, np.full(p.n2, p.beta * p.m), p)


def captured_harvests(monkeypatch, run) -> np.ndarray:
    """Per-band harvests (trials, n2) that ``run()`` draws through
    ``channel_sim._phase2_harvest``."""
    chunks = []
    harvest = channel_sim._phase2_harvest

    def recording(*args):
        out = harvest(*args)
        chunks.append(out)
        return out

    monkeypatch.setattr(channel_sim, "_phase2_harvest", recording)
    run()
    return np.concatenate(chunks)


class TestPhase2Law:
    """The per-band statistics draw the same harvest law as whole m-vector
    channels with an LMMSE beam, on two trained bands and one untrained."""

    E2 = np.array([2e-12, 1e-12, 0.0])
    TRIALS = 40_000

    @staticmethod
    def assert_same_moments(a, b):
        for moment in (1, 2):
            x, y = a**moment, b**moment
            se = np.hypot(x.std(axis=0, ddof=1), y.std(axis=0, ddof=1))
            z = np.abs(x.mean(axis=0) - y.mean(axis=0)) / (se / math.sqrt(len(x)))
            assert np.all(z <= 3.0), (moment, z)

    def test_two_phase(self, monkeypatch):
        p = params(m=3)
        plan = TrainingPlan(n1=6, e1=5e-13, e2=tuple(self.E2))
        new = captured_harvests(
            monkeypatch, lambda: run_two_phase(plan, p, self.TRIALS, seed=701)
        )
        oracle = full_vector_two_phase(
            np.random.default_rng(702), self.TRIALS, plan.n1, plan.e1, self.E2, p
        )
        self.assert_same_moments(new, oracle)

    def test_phase2_only(self, monkeypatch):
        p = params(m=3)
        scheme = Phase2Only(e2=tuple(self.E2))
        new = captured_harvests(
            monkeypatch, lambda: run_benchmark(scheme, p, self.TRIALS, seed=703)
        )
        oracle = full_vector_phase2_only(
            np.random.default_rng(704), self.TRIALS, self.E2, p
        )
        self.assert_same_moments(new, oracle)


class TestLargeArray:
    def test_monte_carlo_reaches_the_limit(self, monkeypatch):
        # the paper's many-antenna regime: the simulation costs the same at
        # m = 4096 as at m = 4, since no draw has an antenna axis
        p = params(m=4096)
        limit = asymptotics.large_antenna_limit(p)
        shapes = []
        draw = channel_sim._complex_normal

        def recording(rng, shape, var):
            shapes.append(shape)
            return draw(rng, shape, var)

        monkeypatch.setattr(channel_sim, "_complex_normal", recording)
        report = run_two_phase(limit.plan, p, 20_000, seed=71)
        qbar = average_harvested_energy(limit.plan, p)
        assert abs(report.mean_qbar - qbar) <= 3.0 * report.stderr
        assert 0.99 <= report.mean_qnet / limit.qnet_limit <= 1.0
        assert shapes and all(p.m not in shape for shape in shapes)


class TestReportProperties:
    SCHEMES = ["two_phase", "perfect", "no_csi", "phase1", "phase2", "brute"]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scheme_kind=st.sampled_from(SCHEMES),
    )
    def test_accounting_and_rerun(self, seed, scheme_kind):
        # a random small system, plan and trial count per example; a third
        # of the energies are zero, the rest span 1e-3..1e3 times unit SNR
        rng = np.random.default_rng(seed)
        p = random_instance(rng, str(rng.choice(["low", "medium", "high"])))
        unit = p.n0 / p.beta

        def energy():
            return 0.0 if rng.random() < 1 / 3 else unit * 10.0 ** rng.uniform(-3, 3)

        n1 = int(rng.integers(p.n2, p.n + 1))
        e1 = energy()
        e2 = tuple(energy() for _ in range(p.n2))
        scheme = {
            "two_phase": lambda: TwoPhase(TrainingPlan(n1=n1, e1=e1, e2=e2)),
            "perfect": PerfectCsi,
            "no_csi": NoCsi,
            "phase1": lambda: Phase1Only(n1=n1, e1=e1),
            "phase2": lambda: Phase2Only(e2=e2),
            "brute": lambda: BruteForce(energy_per_band=e1),
        }[scheme_kind]()
        trials = int(rng.integers(1, 301))
        report = run_benchmark(scheme, p, trials, seed)
        assert report.mean_qnet == report.mean_qbar - report.training_cost
        assert run_benchmark(scheme, p, trials, seed) == report
