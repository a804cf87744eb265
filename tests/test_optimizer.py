"""The exact training optimizer against independent brute-force oracles."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from conftest import grid_oracle_best, random_instance
from wetopt import optimizer, order_stats
from wetopt.optimizer import (
    HIGH_ESNR,
    LOW_ESNR,
    MEDIUM_ESNR,
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
from wetopt.training_model import (
    SystemParams,
    TrainingPlan,
    esnr,
    expected_selected_power,
    net_harvested_energy,
    refinement_threshold,
)


def params(**overrides) -> SystemParams:
    base = dict(m=4, n=12, n2=3, ps=0.06, eta=0.8, t=1e-3, beta=1e-6, n0=1e-19)
    base.update(overrides)
    return SystemParams(**base)


def params_with_threshold(alpha: float, **overrides) -> SystemParams:
    """Back-solve the noise energy so the refinement threshold equals alpha."""
    base = dict(m=4, n=12, n2=3, ps=0.06, eta=0.8, t=1e-3, beta=1e-6)
    base.update(overrides)
    m, eta, t, ps = base["m"], base["eta"], base["t"], base["ps"]
    n0 = alpha**2 * eta * t * ps * (m - 1) / m**2
    return SystemParams(n0=n0, **base)


def ism_link(**shape) -> SystemParams:
    """The ISM link's radio constants with the given shape and block length."""
    return SystemParams(ps=0.06, eta=0.8, beta=1e-6, n0=1e-19, **shape)


def golden_max(fn, lo: float, hi: float, iters: int = 200) -> float:
    """Independent 1-D maximizer (golden-section search)."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return max(fn(mid), fc, fd)


class TestPhase2Energy:
    def test_zero_below_threshold(self):
        p = params()
        alpha = refinement_threshold(p)
        # e1 = 0 pins every rank at beta*m; force that below alpha
        weak = params_with_threshold(p.beta * p.m * 2.0)
        assert optimal_phase2_energy(1, 6, 0.0, weak) == 0.0

    def test_single_antenna_never_refines(self):
        p = params(m=1)
        assert optimal_phase2_energy(1, 6, 1e-12, p) == 0.0

    def test_approaches_water_level(self):
        p = params(beta=1e-2)  # enormous channel power
        level = math.sqrt(p.eta_t_ps * (p.m - 1) * p.n0)
        value = optimal_phase2_energy(1, 6, 1.0, p)
        assert value == pytest.approx(level, rel=1e-4)


class TestPhase2Penalty:
    def test_continuous_at_threshold(self):
        p = params()
        alpha = refinement_threshold(p)
        low = (p.m - 1) / p.m * p.eta_t_ps * alpha
        high = 2.0 * math.sqrt((p.m - 1) * p.n0 * p.eta_t_ps) - p.n0 * p.m / alpha
        assert low == pytest.approx(high, rel=1e-12)

    def test_single_antenna_zero(self):
        assert min_phase2_penalty(1, 6, 1e-12, params(m=1)) == 0.0

    def test_below_threshold_value(self):
        p = params_with_threshold(8e-6)  # above beta*g1, low regime
        rn = expected_selected_power(1, 6, 3e-13, p)
        assert min_phase2_penalty(1, 6, 3e-13, p) == pytest.approx(
            (p.m - 1) / p.m * p.eta_t_ps * rn, rel=1e-12
        )


class TestReducedObjective:
    def test_zero_energy_low_regime(self):
        p = params_with_threshold(1e-4)  # way above every gain: low ESNR
        assert net_energy_given_phase1(6, 0.0, p) == pytest.approx(
            p.eta_t_ps * p.beta * p.n2, rel=1e-12
        )

    def test_consistent_with_full_accounting(self):
        p = params()
        rng = np.random.default_rng(4)
        for _ in range(20):
            n1 = int(rng.integers(p.n2, p.n + 1))
            e1 = float(10.0 ** rng.uniform(-16, -10))
            e2 = tuple(
                optimal_phase2_energy(r, n1, e1, p) for r in range(1, p.n2 + 1)
            )
            plan = TrainingPlan(n1=n1, e1=e1, e2=e2)
            assert net_energy_given_phase1(n1, e1, p) == pytest.approx(
                net_harvested_energy(plan, p), rel=1e-12
            )

    def test_eventually_decreasing(self):
        p = params()
        grid = np.geomspace(1e-10, 1e-4, 30)
        vals = [net_energy_given_phase1(8, float(e1), p) for e1 in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestClassification:
    def test_single_antenna_always_low(self):
        p = params(m=1, n0=1e-25)
        assert classify_esnr_case(6, p).kind == LOW_ESNR

    def test_hardening_floor_condition(self):
        # threshold below beta*m is exactly esnr > 1/(m-1)
        p = params()
        assert esnr(p) > 1.0 / (p.m - 1)
        assert classify_esnr_case(6, p).kind == HIGH_ESNR

    def test_boundary_assigned_to_low(self):
        g1 = order_stats.gain(1, 6, 4)
        p = params_with_threshold(1e-6 * g1)
        alpha = refinement_threshold(p)
        while alpha < p.beta * g1:  # ulp nudge onto the closed side
            p = SystemParams(
                m=p.m, n=p.n, n2=p.n2, ps=p.ps, eta=p.eta, t=p.t, beta=p.beta,
                n0=float(np.nextafter(p.n0, np.inf)),
            )
            alpha = refinement_threshold(p)
        assert alpha == pytest.approx(p.beta * g1, rel=1e-12)
        assert classify_esnr_case(6, p).kind == LOW_ESNR

    def test_medium_rank_count(self):
        gains = order_stats.gains_up_to(3, 12, 4)
        alpha = 1e-6 * 0.5 * (gains[0] + gains[1])  # between ranks 1 and 2
        p = params_with_threshold(alpha)
        label = classify_esnr_case(12, p)
        assert label.kind == MEDIUM_ESNR
        assert label.j == 1


class TestLowEsnr:
    def test_no_training_when_surplus_small(self):
        p = params_with_threshold(1e-3)  # microscopic ESNR
        sol = solve_for_n1(p.n2, p)
        assert sol.label.kind == LOW_ESNR
        assert sol.e1 == 0.0
        assert sol.value == pytest.approx(p.eta_t_ps * p.beta * p.n2, rel=1e-12)

    def test_degenerate_single_band(self):
        p = SystemParams(m=1, n=1, n2=1, ps=0.06, eta=0.8, t=1e-3, beta=1e-6, n0=1e-19)
        sol = solve_for_n1(1, p)
        assert sol.label.kind == LOW_ESNR
        assert sol.e1 == 0.0

    def test_matches_golden_section(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            p = random_instance(rng, "low")
            n1 = p.n
            sol = solve_for_n1(n1, p)
            assert sol.label.kind == LOW_ESNR
            hi = p.eta_t_ps * p.beta * float(
                np.sum(order_stats.gains_up_to(p.n2, p.n, p.m))
            ) / n1
            oracle = golden_max(
                lambda e1: net_energy_given_phase1(n1, e1, p), 0.0, hi
            )
            oracle = max(oracle, net_energy_given_phase1(n1, 0.0, p))
            assert sol.value >= oracle - 1e-6 * abs(oracle)
            assert sol.value == pytest.approx(
                net_energy_given_phase1(n1, sol.e1, p), rel=1e-10
            )


class TestHighEsnr:
    def test_candidate_count_single_band(self):
        p = params(n2=1)
        sol = solve_for_n1(8, p)
        assert sol.label.kind == HIGH_ESNR
        assert len(sol.candidates) <= 2  # {0} plus at most one stationary point

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            p = random_instance(rng, "high")
            n1 = p.n
            sol = solve_for_n1(n1, p)
            assert sol.label.kind == HIGH_ESNR
            hi = p.eta_t_ps * p.beta * float(
                np.sum(order_stats.gains_up_to(p.n2, p.n, p.m))
            ) / n1
            grid = np.concatenate([[0.0], np.geomspace(hi * 1e-9, hi, 100_000)])
            vals = [net_energy_given_phase1(n1, float(e1), p) for e1 in grid]
            oracle = max(vals)
            assert sol.value >= oracle - 1e-6 * abs(oracle)

    def test_weak_rank_crossing_handled(self):
        # n1 == n2 makes the weakest rank's gain fall below the dimension,
        # so its power sinks through the threshold as e1 grows
        gains = order_stats.gains_up_to(3, 3, 2)
        assert gains[-1] < 2.0
        alpha = 1e-6 * 0.5 * (gains[-1] + 2.0)
        p = params_with_threshold(alpha, m=2, n=6, n2=3)
        assert classify_esnr_case(3, p).kind == HIGH_ESNR
        sol = solve_for_n1(3, p)
        assert sol.label.kind == HIGH_ESNR
        hi = p.eta_t_ps * p.beta * 6.0 / 3.0
        grid = np.concatenate([[0.0], np.geomspace(hi * 1e-9, hi * 3, 100_000)])
        oracle = max(net_energy_given_phase1(3, float(e1), p) for e1 in grid)
        assert sol.value >= oracle - 1e-6 * abs(oracle)


class TestMediumEsnr:
    def _medium_instance(self):
        gains = order_stats.gains_up_to(3, 12, 4)
        alpha = 1e-6 * 0.5 * (gains[1] + gains[2])  # two ranks above
        return params_with_threshold(alpha, t=1.0)  # long block: training pays

    def test_boundaries_increase(self):
        p = self._medium_instance()
        label = classify_esnr_case(12, p)
        assert label.kind == MEDIUM_ESNR and label.j == 2
        sol = solve_for_n1(12, p)
        assert sol.label.kind == MEDIUM_ESNR and sol.label.j == 2
        assert sol.value == pytest.approx(
            net_energy_given_phase1(12, sol.e1, p), rel=1e-10
        )

    def test_objective_continuous_at_boundaries(self):
        p = self._medium_instance()
        gains = order_stats.gains_up_to(3, 12, 4)
        alpha = refinement_threshold(p)
        for k in (1, 2):
            edge = p.n0 * (alpha - p.beta * p.m) / (
                p.beta * (p.beta * gains[k - 1] - alpha)
            )
            left = net_energy_given_phase1(12, edge * (1 - 1e-9), p)
            right = net_energy_given_phase1(12, edge * (1 + 1e-9), p)
            assert left == pytest.approx(right, rel=1e-9)

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(37)
        hits = 0
        for _ in range(12):
            p = random_instance(rng, "medium")
            n1 = p.n
            label = classify_esnr_case(n1, p)
            if label.kind != MEDIUM_ESNR:
                continue
            hits += 1
            sol = solve_for_n1(n1, p)
            assert sol.label.kind == MEDIUM_ESNR and sol.label.j == label.j
            hi = p.eta_t_ps * p.beta * float(
                np.sum(order_stats.gains_up_to(p.n2, p.n, p.m))
            ) / n1
            grid = np.concatenate([[0.0], np.geomspace(hi * 1e-9, hi, 100_000)])
            oracle = max(net_energy_given_phase1(n1, float(e1), p) for e1 in grid)
            assert sol.value >= oracle - 1e-6 * abs(oracle)
        assert hits >= 6


class TestPolyRealRoots:
    def test_quadratic(self):
        roots = poly_real_roots([2.0, -3.0, 1.0])  # (x-1)(x-2)
        assert roots == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_no_real_roots(self):
        assert poly_real_roots([1.0, 0.0, 1.0]).size == 0

    def test_planted_degree_six(self):
        rng = np.random.default_rng(2)
        planted = np.sort(rng.uniform(-4.0, 4.0, 6))
        coeffs = np.array([1.0])
        for r in planted:
            coeffs = np.polynomial.polynomial.polymul(coeffs, [-r, 1.0])
        found = poly_real_roots(coeffs)
        assert found == pytest.approx(planted, abs=1e-8)

    def test_trims_leading_zeros(self):
        roots = poly_real_roots([2.0, -3.0, 1.0, 0.0, 0.0])
        assert roots == pytest.approx([1.0, 2.0], abs=1e-10)

    def test_rejects_empty_and_zero(self):
        with pytest.raises(ValueError):
            poly_real_roots([])
        with pytest.raises(ValueError):
            poly_real_roots([0.0, 0.0])


def piece_polynomial(gains: np.ndarray, branch2: int, n1: int, p: SystemParams) -> np.ndarray:
    """Ascending coefficients of (x+1)^2 (P + S) - d0 P, the piece's
    stationarity condition cleared of denominators: P = prod (x+g_k)^2 and
    S = sum b_i prod_{k!=i} (x+g_k)^2, built one q_k = (x+g_k)^2 at a time
    by P_k = P_{k-1} q_k and S_k = S_{k-1} q_k + b_k P_{k-1}."""
    m = p.m
    above, below = gains[:branch2], gains[branch2:]
    d0 = esnr(p) * (math.fsum(above - m) + math.fsum(below / m - 1.0)) / n1
    b = m * (1.0 - m / above) / (n1 * above)
    prod, part = np.ones(1), np.zeros(1)  # S is padded to the length of P
    for g, bk in zip((m / above).tolist(), b.tolist()):
        q = np.array([g * g, 2.0 * g, 1.0])
        part = np.convolve(part, q)
        part[:-2] += bk * prod
        prod = np.convolve(prod, q)
    poly = np.convolve(prod + part, [1.0, 2.0, 1.0])
    poly[:-2] -= d0 * prod
    return poly


class TestStationaryPolynomial:
    """The scalar stationary point of a piece against the companion roots of
    its polynomial (x+1)^2 (P + S) - d0 P, and both against the rational
    stationarity condition 1 - d0/(x+1)^2 + sum b_i/(x+g_i)^2 they solve."""

    N1 = 200

    @staticmethod
    def _terms(x: float, gains: np.ndarray, branch2: int, p: SystemParams):
        # the summands of 1 - d0/(x+1)^2 + sum b_i/(x+g_i)^2
        m, n1 = p.m, TestStationaryPolynomial.N1
        above, below = gains[:branch2], gains[branch2:]
        d0 = esnr(p) * (np.sum(above - m) + np.sum(below / m - 1.0)) / n1
        b = m * (1.0 - m / above) / (n1 * above)
        g = m / above
        return np.concatenate(([1.0, -d0 / (x + 1.0) ** 2], b / (x + g) ** 2))

    @pytest.mark.parametrize("t", [5e-5, 1e-1])
    @pytest.mark.parametrize("branch2", [0, 1, 16, 64, 100])
    def test_matches_rational_form(self, branch2, t):
        p = ism_link(m=4, n=self.N1, n2=100, t=t)
        gains = order_stats.gains_up_to(100, self.N1, 4)
        poly = piece_polynomial(gains, branch2, self.N1, p)
        assert poly.size == 2 * branch2 + 3
        # relative to the summed magnitudes: the polynomial has roots
        for x in (0.05, 0.5, 2.0, 9.0, 25.0):
            terms = self._terms(x, gains, branch2, p)
            clear = (x + 1.0) ** 2 * np.prod((x + p.m / gains[:branch2]) ** 2)
            exact = clear * math.fsum(terms)
            assert abs(npoly.polyval(x, poly) - exact) <= 1e-12 * clear * np.abs(terms).sum()
        roots = poly_real_roots(poly)
        (positive,) = roots[roots > 0.0]
        x = optimizer._stationary_snrs(gains, branch2, self.N1, p)
        assert type(x) is float
        assert x == pytest.approx(positive, rel=1e-9)
        terms = self._terms(x, gains, branch2, p)
        assert abs(math.fsum(terms)) <= 1e-10 * np.abs(terms).sum()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n1=st.integers(min_value=1, max_value=60),
        m=st.integers(min_value=2, max_value=16),
        data=st.data(),
    )
    def test_slope_certificate(self, n1, m, data):
        # h'(0)/2 = 1 - (1/n1) sum_{r<=branch2} (g_r/m - 1)^2 >= 1 - 1/m for
        # any branch2 <= n1: the bound that makes each piece's h increasing
        branch2 = data.draw(st.integers(min_value=0, max_value=min(n1, 64)))
        gains = order_stats.gains_up_to(n1, n1, m)[:branch2]
        assert 1.0 - math.fsum((gains / m - 1.0) ** 2) / n1 >= 1.0 - 1.0 / m

    def test_no_root_when_increasing_from_above_zero(self):
        # a piece whose h(0) >= 0 has no stationary point on x > 0
        p = ism_link(m=4, n=self.N1, n2=100, t=1e-9)
        gains = order_stats.gains_up_to(100, self.N1, 4)
        poly = piece_polynomial(gains, 100, self.N1, p)
        roots = poly_real_roots(poly)
        assert not np.any(roots > 0.0)
        assert optimizer._stationary_snrs(gains, 100, self.N1, p) is None

    def test_newton_step_beyond_overflow(self):
        # t=1e-1, branch2=100: degree 202 with roots near x = -193 and 191,
        # where x^202 passes 1e308; one step from 1e-7 off lands on each
        p = ism_link(m=4, n=self.N1, n2=100, t=1e-1)
        gains = order_stats.gains_up_to(100, self.N1, 4)
        poly = piece_polynomial(gains, 100, self.N1, p)
        roots = poly_real_roots(poly)
        large = roots[np.abs(roots) > 100.0]
        assert large.size == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in large:
                start = x * (1.0 + 1e-7)
                landed = start - optimizer._newton_step(start, poly)
                assert landed == pytest.approx(x, rel=1e-10)

    def test_polishes_large_root_without_overflow(self, monkeypatch):
        # x^201 (x + 193): companion roots nudged 1e-7 off miss the
        # acceptance test, and polishing -193 steps where x^202 overflows
        poly = np.zeros(203)
        poly[201:] = 193.0, 1.0
        real_polyroots = npoly.polyroots
        monkeypatch.setattr(npoly, "polyroots", lambda c: real_polyroots(c) * (1.0 + 1e-7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = poly_real_roots(poly)
        assert roots.size == 2
        assert roots[0] == pytest.approx(-193.0, rel=1e-10)
        assert roots[1] == 0.0

    def test_polishes_large_roots_moved_one_percent(self, monkeypatch):
        # t=1e-1, branch2=100: the tolerance is the rounding scale at each
        # root, not one set by the largest coefficient, so companion roots
        # moved 1% are polished back rather than accepted where they land
        p = ism_link(m=4, n=self.N1, n2=100, t=1e-1)
        gains = order_stats.gains_up_to(100, self.N1, 4)
        poly = piece_polynomial(gains, 100, self.N1, p)
        roots = poly_real_roots(poly)
        large = roots[np.abs(roots) > 100.0]
        assert large.size == 2
        real_polyroots = npoly.polyroots
        monkeypatch.setattr(npoly, "polyroots", lambda c: real_polyroots(c) * 1.01)
        moved = poly_real_roots(poly)
        assert moved[np.abs(moved) > 100.0] == pytest.approx(large, rel=1e-12)

    @pytest.mark.usefixtures("empty_memo")
    def test_optimizer_builds_no_polynomial(self, monkeypatch):
        # a cold solve of the ten-crossing wide design finds every stationary
        # point without a polynomial: no product, no companion roots
        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np, "convolve", counting(np.convolve))
        monkeypatch.setattr(npoly, "polyroots", counting(npoly.polyroots))
        monkeypatch.setattr(optimizer, "poly_real_roots", counting(optimizer.poly_real_roots))
        optimize_training(ism_link(m=4, n=80, n2=64, t=5e-6))
        assert calls == []


class TestWideDesign:
    """m=4, n=80, n2=64: every regime, threshold crossings, up to 64 ranks per piece."""

    def test_ten_crossings_vs_dense_grid(self):
        # t=5e-6 is high ESNR with ten threshold crossings over n1 = 64..67
        p = ism_link(m=4, n=80, n2=64, t=5e-6)
        sol = optimize_training(p)
        top = float(np.sum(order_stats.gains_up_to(p.n2, p.n, p.m)))
        oracle = -math.inf
        for n1 in range(p.n2, p.n + 1):
            hi = p.eta_t_ps * p.beta * top / n1  # the pilot bill alone exceeds any harvest
            grid = np.concatenate([[0.0], np.geomspace(hi * 1e-9, hi, 1000)])
            oracle = max(oracle, *(net_energy_given_phase1(n1, float(e1), p) for e1 in grid))
        assert sol.qnet_star >= oracle - 1e-9 * abs(oracle)

    def test_long_block_no_overflow(self):
        # t=1e-1 puts stationary points near x=135, where the degree-130
        # piece polynomials the optimizer once solved overflowed
        p = ism_link(m=4, n=80, n2=64, t=1e-1)
        order_stats.gains_up_to(p.n2, p.n, p.m)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sol = optimize_training(p)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert sol.qnet_star == pytest.approx(1.3988403631307118e-06, rel=1e-9)


class TestOptimizeTraining:
    def test_beats_zero_budget(self, small_params):
        p = small_params
        sol = optimize_training(p)
        assert sol.qnet_star >= p.eta_t_ps * p.beta * p.n2 - 1e-30

    def test_plan_value_consistency(self, small_params):
        sol = optimize_training(small_params)
        assert sol.qnet_star == pytest.approx(
            net_harvested_energy(sol.plan, small_params), rel=1e-10
        )

    def test_phase2_energies_rederivable(self, small_params):
        sol = optimize_training(small_params)
        rederived = tuple(
            optimal_phase2_energy(r, sol.plan.n1, sol.plan.e1, small_params)
            for r in range(1, small_params.n2 + 1)
        )
        assert rederived == sol.plan.e2

    def test_small_instance_vs_triple_grid(self):
        p = SystemParams(m=2, n=6, n2=2, ps=0.1, eta=0.7, t=1e-3, beta=1e-6, n0=2e-19)
        sol = optimize_training(p)
        oracle = grid_oracle_best(p)
        assert sol.qnet_star >= oracle - 1e-4 * abs(oracle)

    def test_oracle_sweep_with_case_coverage(self):
        rng = np.random.default_rng(101)
        seen = set()
        for i in range(18):
            kind = ("low", "high", "medium")[i % 3]
            p = random_instance(rng, kind)
            sol = optimize_training(p)
            oracle = grid_oracle_best(p)
            assert sol.qnet_star >= oracle - 1e-4 * abs(oracle), (kind, p)
            assert {type(sol.qnet_star), type(sol.plan.e1)} == {float}
            ceiling = p.eta_t_ps * p.beta * float(
                np.sum(order_stats.gains_up_to(p.n2, p.n, p.m))
            )
            assert sol.qnet_star <= ceiling + 1e-12 * ceiling
            assert sol.qnet_star >= p.eta_t_ps * p.beta * p.n2 * (1 - 1e-12)
            seen |= {label.kind for label in sol.case_used_per_n1.values()}
        assert seen == {LOW_ESNR, HIGH_ESNR, MEDIUM_ESNR}

    def test_reads_each_n1_gains_once(self, small_params, monkeypatch):
        # classification and solve share one read of each n1's gains: a warm
        # solve makes one gains_up_to call per n1, after the one fill
        p = small_params
        optimize_training(p)
        pops = []
        real = order_stats.gains_up_to

        def counting(rank_max, pop, dim):
            pops.append(pop)
            return real(rank_max, pop, dim)

        monkeypatch.setattr(order_stats, "gains_up_to", counting)
        optimize_training(p)
        assert pops == [p.n, *range(p.n2, p.n + 1)]

    def test_candidate_log_covers_range(self, small_params):
        sol = optimize_training(small_params)
        assert [n1 for n1, _ in sol.candidate_log] == list(
            range(small_params.n2, small_params.n + 1)
        )


class TestMonotoneInResources:
    """A longer block or a stronger channel never lowers the optimum.

    For any fixed design the gross harvest rises in ``t`` and the selected
    power ``(beta^2 e1 g + beta n0 m) / (beta e1 + n0)`` rises in ``beta``,
    while the pilot bill stays put; so the maximum over designs rises too.
    """

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=st.sampled_from(["low", "medium", "high"]),
        field=st.sampled_from(["t", "beta"]),
        factor=st.floats(min_value=1.0, max_value=10.0, exclude_min=True),
    )
    def test_qnet_star_never_falls(self, seed, kind, field, factor):
        p = random_instance(np.random.default_rng(seed), kind)
        base = optimize_training(p).qnet_star
        grown = replace(p, **{field: getattr(p, field) * factor})
        assert optimize_training(grown).qnet_star >= base - 1e-12 * abs(base)


@st.composite
def oracle_systems(draw) -> SystemParams:
    """Small systems with n2 = n drawn often, in every ESNR regime.

    The noise energy places the refinement threshold log-uniformly from a
    tenth of the hardening floor beta*m (high) past beta*gain(1, n, m)
    (medium below it) to ten times that (low).  The continuous draws come
    from a drawn seed, since Hypothesis floats crowd their bounds.
    """
    m = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=1, max_value=12))
    n2 = draw(st.one_of(st.just(n), st.integers(min_value=1, max_value=n)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    link = dict(ps=0.06, eta=0.8, t=10.0 ** rng.uniform(-6.0, -1.0))
    beta = 10.0 ** rng.uniform(-7.0, -5.0)
    if m == 1:  # no threshold: the noise alone sets the ESNR
        n0 = 10.0 ** rng.uniform(-21.0, -15.0)
    else:
        top = order_stats.gain(1, n, m) / m
        alpha = beta * m * 10.0 ** rng.uniform(-1.0, 1.0 + math.log10(top))
        n0 = alpha**2 * link["eta"] * link["t"] * link["ps"] * (m - 1) / m**2
    return SystemParams(m=m, n=n, n2=n2, beta=beta, n0=n0, **link)


class TestAgainstGridOracle:
    """``optimize_training`` reaches the dense-grid maximum of
    :func:`conftest.grid_oracle_best`, which shares no code with it."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(p=oracle_systems())
    def test_at_least_the_grid_maximum(self, p):
        oracle = grid_oracle_best(p)
        assert optimize_training(p).qnet_star >= oracle - 1e-4 * abs(oracle)

    @pytest.mark.parametrize("t", [1e-7, 5e-6, 1e-1])
    @pytest.mark.parametrize("m, n, n2", [(4, 68, 64), (1, 40, 40)])
    def test_wide_and_single_antenna_corners(self, m, n, n2, t):
        p = ism_link(m=m, n=n, n2=n2, t=t)
        oracle = grid_oracle_best(p)
        assert optimize_training(p).qnet_star >= oracle - 1e-4 * abs(oracle)


class TestRestrictedSchemes:
    def test_phase1_only_never_beats_joint(self, small_params):
        _, v1 = solve_phase1_only(small_params)
        sol = optimize_training(small_params)
        assert v1 <= sol.qnet_star + 1e-18

    def test_phase1_only_plan_value(self, small_params):
        plan, value = solve_phase1_only(small_params)
        assert value == pytest.approx(
            net_harvested_energy(plan, small_params), rel=1e-10
        )

    def test_phase2_only_plan_value(self, small_params):
        plan, value = solve_phase2_only(small_params)
        assert plan.e1 == 0.0
        assert value == pytest.approx(
            net_harvested_energy(plan, small_params), rel=1e-10
        )
        assert value <= optimize_training(small_params).qnet_star + 1e-18
