"""The exact training optimizer against independent brute-force oracles."""

import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from conftest import grid_oracle_best, random_instance
from wetopt import channel_sim, optimizer, order_stats
from wetopt.optimizer import (
    HIGH_ESNR,
    CaseLabel,
    LOW_ESNR,
    MEDIUM_ESNR,
    Solution,
    classify_esnr_case,
    net_energy_given_phase1,
    optimal_phase2_energy,
    optimize_training,
    poly_real_roots,
    solve_brute_force,
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


def min_phase2_penalty(rank: int, n1: int, e1: float, p: SystemParams) -> float:
    """Estimation loss plus pilot cost of one ranked band at the optimal
    phase-2 energy, in joules."""
    rho = expected_selected_power(rank, n1, e1, p) / p.beta
    return float(optimizer._penalty(rho, p)) * (p.eta_t_ps * p.beta)


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

    def test_array_of_energies_is_the_scalar_calls(self):
        # low, medium and high, and both sides of every threshold crossing
        for p in (params_with_threshold(1e-4), TestMediumEsnr()._medium_instance(), params()):
            grid = np.concatenate([[0.0], np.geomspace(1e-18, 1e-8, 999)]).reshape(20, 50)
            for n1 in (p.n2, p.n):
                values = net_energy_given_phase1(n1, grid, p)
                assert values.shape == grid.shape
                scalar = [net_energy_given_phase1(n1, e1, p) for e1 in grid.ravel().tolist()]
                assert {type(v) for v in scalar} == {float}
                assert values.ravel().tolist() == scalar
        assert type(net_energy_given_phase1(8, np.float64(1e-13), params())) is float

    def test_array_names_its_first_bad_energy(self):
        with pytest.raises(ValueError, match=r"^phase-1 energy must be finite and >= 0, got nan$"):
            net_energy_given_phase1(8, np.array([0.0, 1e-13, math.nan, -1.0]), params())
        with pytest.raises(ValueError, match=r"^phase-1 energy must be finite and >= 0, got -1.0$"):
            net_energy_given_phase1(8, [[0.0], [-1.0]], params())


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
            oracle = float(net_energy_given_phase1(n1, grid, p).max())
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
            oracle = float(net_energy_given_phase1(n1, grid, p).max())
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
        x = stationary_snrs(gains, branch2, self.N1, p)
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
        assert stationary_snrs(gains, 100, self.N1, p) is None

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
        # classification and solve share one read of every n1's gains: a
        # warm solve reads the stacked view once and makes no gains_up_to call
        p = small_params
        optimize_training(p)
        pops, stacks = [], []
        real, stacked = order_stats.gains_up_to, order_stats.stacked_gains

        def counting(rank_max, pop, dim):
            pops.append(pop)
            return real(rank_max, pop, dim)

        def counting_stacks(*args):
            stacks.append(args)
            return stacked(*args)

        monkeypatch.setattr(order_stats, "gains_up_to", counting)
        monkeypatch.setattr(order_stats, "stacked_gains", counting_stacks)
        optimize_training(p)
        assert (pops, stacks) == ([], [(p.n2, p.n, p.m)])

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


def reduced_answers(p: SystemParams) -> tuple:
    """Every answer for ``p`` in reduced units: energies as pilot SNRs
    beta e / n0 and net energies in units of eta t ps beta, with the
    labels and six simulated schemes at one seed."""
    unit, scale = p.n0 / p.beta, p.eta_t_ps * p.beta
    sol = optimize_training(p)
    plan = sol.plan
    p1, v1 = solve_phase1_only(p)
    schemes = [
        channel_sim.TwoPhase(plan),
        channel_sim.PerfectCsi(),
        channel_sim.NoCsi(),
        channel_sim.Phase1Only(p1.n1, p1.e1),
        channel_sim.Phase2Only(solve_phase2_only(p)[0].e2),
        channel_sim.BruteForce(solve_brute_force(p)[0]),
    ]
    reports = [channel_sim.run_benchmark(s, p, 64, seed=41) for s in schemes]
    return (
        plan.n1,
        sorted(sol.case_used_per_n1.items()),
        plan.e1 / unit,
        [e2 / unit for e2 in plan.e2],
        sol.qnet_star / scale,
        net_harvested_energy(plan, p) / scale,
        (p1.n1, p1.e1 / unit, [e2 / unit for e2 in p1.e2], v1 / scale),
        [(r.mean_qnet / scale, r.stderr / scale) for r in reports],
    )


class TestUnitScaling:
    """The design depends on the link only through the ESNR: scaling
    beta by c and n0 by c^2 leaves every answer in reduced units.  With
    c = 2^k every SI value scales exactly, so reduced answers must agree
    bit for bit, far past where beta^2 or beta n0 under- or overflow."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=oracle_systems(), k=st.integers(-450, 450) | st.sampled_from([-450, -350, 350, 450]))
    @example(p=ism_link(m=10, n=120, n2=16, t=5e-5), k=-450)
    @example(p=ism_link(m=10, n=120, n2=16, t=5e-5), k=450)
    def test_reduced_answers_bit_identical(self, p, k):
        scaled = replace(p, beta=math.ldexp(p.beta, k), n0=math.ldexp(p.n0, 2 * k))
        assert esnr(scaled) == esnr(p)
        assert reduced_answers(scaled) == reduced_answers(p)

    def test_extreme_esnr_raises_no_warning(self):
        # the Newton step divides by x + g three times, not by its cube,
        # which overflowed past an ESNR of about 1e210; from 1e100 up the
        # optimum trains every band and its reduced value is settled
        base = ism_link(m=10, n=120, n2=16, t=5e-5)
        for k in range(210, 307, 8):
            p = replace(base, beta=1e100, n0=base.eta_t_ps * 1e200 / 10.0**k)
            assert esnr(p) == pytest.approx(10.0**k, rel=1e-12)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sol = optimize_training(p)
            assert sol.plan.n1 == 120
            assert sol.qnet_star / (p.eta_t_ps * p.beta) == pytest.approx(249.313369, abs=5e-7)


def rows_inside_optimize(p: SystemParams):
    """``optimize_training(p)`` and the per-n1 rows of its lockstep blocks,
    ``{n1: (label, e1, value, candidates)}``, with the block count."""
    rows: dict = {}
    blocks = []
    real = optimizer._solve_rows

    def recording(gains, n1, q):
        codes, e1, value, tried = out = real(gains, n1, q)
        blocks.append(n1.tolist())
        for i, n in enumerate(n1.tolist()):
            label = optimizer._label(int(codes[i]))
            rows[n] = (label, float(e1[i]), float(value[i]), optimizer._tried(tried.tolist()[i]))
        return out

    optimizer._solve_rows = recording  # not monkeypatch: Hypothesis reruns the body
    try:
        sol = optimize_training(p)
    finally:
        optimizer._solve_rows = real
    return sol, rows, len(blocks)


def assert_row_is_solve_for_n1(row, n1: int, p: SystemParams) -> None:
    one = solve_for_n1(n1, p)
    assert (one.label, one.e1, one.value, one.candidates) == row, n1
    assert {type(one.e1), type(one.value)} == {float}
    assert all(type(e) is float for e in one.candidates)


class TestLockstepSweep:
    """The sweep solves every n1 in blocks of rows; ``solve_for_n1`` is the
    same code on one row and must reproduce each row bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=oracle_systems())
    def test_solve_for_n1_is_its_row(self, p):
        sol, rows, _ = rows_inside_optimize(p)
        assert sorted(rows) == list(range(p.n2, p.n + 1))
        for n1, row in rows.items():
            assert_row_is_solve_for_n1(row, n1, p)
        assert sol.case_used_per_n1 == {n1: row[0] for n1, row in rows.items()}
        assert sol.candidate_log == [(n1, rows[n1][3]) for n1 in sorted(rows)]
        best = max(rows.values(), key=lambda row: row[2])
        assert (sol.qnet_star, sol.plan.e1) == (best[2], best[1])
        # ties go to the smaller n1
        assert sol.plan.n1 == min(n1 for n1, row in rows.items() if row[2] == best[2])

    def test_wide_medium_spans_blocks(self):
        # m=4, n=1100, n2=400 at t=5e-7: medium at every n1, up to 338
        # crossings, 655 n1 rows per block, so 701 rows take two blocks
        p = ism_link(m=4, n=1100, n2=400, t=5e-7)
        sol, rows, blocks = rows_inside_optimize(p)
        assert blocks == math.ceil(701 / (optimizer._BLOCK_TARGET // 400)) > 1
        assert {label.kind for label, *_ in rows.values()} == {MEDIUM_ESNR}
        # over 100 crossings per n1, yet h(0) >= 0 on every row: no row
        # reaches Newton and only e1 = 0 is scored
        assert max(len(crossings(n1, p)) for n1 in rows) > 100
        _, solved = newton_inside_optimize(p)
        assert solved == []
        assert {row[3] for row in rows.values()} == {(0.0,)}
        for n1 in (400, 401, 700, 1053, 1054, 1055, 1099, 1100):
            assert_row_is_solve_for_n1(rows[n1], n1, p)
        assert sol.qnet_star == max(row[2] for row in rows.values())

    def test_tie_across_blocks_goes_to_smallest_n1(self):
        # a block too short for training to pay: every n1 nets the no-CSI
        # value exactly, in each of the two blocks
        p = ism_link(m=4, n=1100, n2=400, t=1e-9)
        sol, rows, blocks = rows_inside_optimize(p)
        assert blocks > 1
        assert {row[1:3] for row in rows.values()} == {(0.0, p.eta_t_ps * p.beta * p.n2)}
        assert (sol.plan.n1, sol.plan.e1) == (400, 0.0)

    @pytest.mark.parametrize(
        "gains, holds",
        [([5.7, 5.7], (False, False)), ([3.0] * 4, (False, True)), ([5.9, 0.1, 0.1, 0.1], (True, False))],
        ids=["both", "s_plus", "s2"],
    )
    def test_gains_past_the_bounds_raise_naming_n1(self, gains, holds, monkeypatch):
        # gains stronger than order statistics allow can break S+ < n1 (m-1)
        # or S2 < n1 m^2, which put every root of h on piece 0.  With
        # [5.7, 5.7] at ESNR 0.7 the bisection the bounds replaced returned
        # e1 = 0 where a dense scan found 3.6% more net at x = 0.29
        gains = np.array(gains)
        n2 = gains.size
        p = params(m=2, n=n2 + 2, n2=n2, n0=params().eta_t_ps * 1e-12 / 0.7)  # ESNR 0.7
        assert esnr(p) == pytest.approx(0.7, rel=1e-15)
        e = gains - p.m
        assert (np.maximum(e, 0.0).sum() < n2 * (p.m - 1), (e * e).sum() < n2 * p.m**2) == holds
        monkeypatch.setattr(order_stats, "gains_up_to", lambda rank_max, pop, dim: gains)
        monkeypatch.setattr(  # optimize_training reads the stacked view; its first row is n1 = n2
            order_stats, "stacked_gains", lambda rank_max, pop, dim: np.tile(gains, (pop - rank_max + 1, 1)).copy()
        )
        for solve in (solve_for_n1, classify_esnr_case, lambda n1, q: optimize_training(q)):
            with pytest.raises(ArithmeticError, match=rf"^gains of n1={n2} break S\+ < n1 \(m-1\) or S2 < n1 m\^2"):
                solve(n2, p)

    def test_newton_step_cap_raises_naming_n1(self, monkeypatch):
        # high ESNR: n1 = 3 has no stationary point, n1 = 4 the first one
        p = params()
        assert solve_for_n1(3, p).candidates == (0.0,)
        monkeypatch.setattr(optimizer, "_ROOT_STEPS", 1)
        message = r"not bracketed to adjacent floats in 1 steps at n1={}: \["
        with pytest.raises(ArithmeticError, match=message.format(12)):
            solve_for_n1(12, p)
        with pytest.raises(ArithmeticError, match=message.format(4)):
            optimize_training(p)

    def test_phase1_only_matches_scalar_sweep(self):
        # the per-n1 loop of the low-ESNR closed form, as a reference
        for p in (ism_link(m=10, n=120, n2=16, t=1e-5), params(), params(m=1)):
            gamma, scale = esnr(p), p.eta_t_ps * p.beta
            best = (-math.inf, 0, 0.0)
            for n1 in range(p.n2, p.n + 1):
                surplus = math.fsum(order_stats.gains_up_to(p.n2, n1, p.m) / p.m - 1.0)
                if surplus < n1 / gamma:
                    value, e1 = scale * p.n2, 0.0
                else:
                    e1 = math.sqrt(p.eta_t_ps * p.n0) * (
                        math.sqrt(surplus / n1) - 1.0 / math.sqrt(gamma)
                    )
                    value = scale * (p.n2 + (math.sqrt(surplus) - math.sqrt(n1 / gamma)) ** 2)
                if value > best[0]:
                    best = (value, n1, e1)
            plan, value = solve_phase1_only(p)
            assert plan.n1 == best[1]
            assert value == pytest.approx(best[0], rel=1e-13)
            assert plan.e1 == pytest.approx(best[2], rel=1e-12, abs=1e-300)


class TestSolutionCurve:
    """``Solution`` keeps the per-n1 curve as arrays; its mapping of labels
    and its candidate log are derived from them and equal the per-n1 solves."""

    @pytest.mark.parametrize("t", [1e-7, 3e-7, 5e-6, 1e-1])
    def test_derived_fields_equal_the_per_n1_solves(self, t):
        p = ism_link(m=4, n=80, n2=64, t=t)
        sol = optimize_training(p)
        rows = {n1: solve_for_n1(n1, p) for n1 in range(p.n2, p.n + 1)}
        labels = {n1: row.label for n1, row in rows.items()}
        assert sol.case_used_per_n1 == labels and labels == sol.case_used_per_n1
        assert sol.case_used_per_n1 != {**labels, p.n: CaseLabel(MEDIUM_ESNR, j=99)}
        assert sol.candidate_log == [(n1, row.candidates) for n1, row in rows.items()]
        assert list(sol.case_used_per_n1.items()) == list(labels.items())
        assert list(sol.case_used_per_n1.values()) == list(labels.values())
        assert sol.case_used_per_n1[sol.plan.n1] == rows[sol.plan.n1].label
        assert sol.curve.n1.tolist() == list(rows)
        assert sol.curve.e1.tolist() == [row.e1 for row in rows.values()]
        assert sol.curve.value.tolist() == [row.value for row in rows.values()]

    def test_no_n1_gives_an_empty_curve(self):
        p = ism_link(m=4, n=30, n2=4, t=5e-5)
        curve = optimizer.solve_curve([], p)
        assert [a.shape for a in curve] == [(0,)] * 5 + [(0, p.n2)]
        assert curve.n1.dtype == curve.code.dtype == int

    @pytest.mark.parametrize(
        "shape",
        [dict(m=4, n=80, n2=64, t=t) for t in (3e-7, 5e-6, 1e-1)] + [dict(m=4, n=400, n2=200, t=5e-7)],
    )
    def test_zero_energy_value_is_the_net_there(self, shape):
        # rows that score e1 = 0 alone take one value, formed without _net;
        # it must equal _net at e1 = 0 bit for bit
        p = ism_link(**shape)
        curve = optimize_training(p).curve
        zero = np.isnan(curve.tried).nonzero()[0]
        assert zero.size
        for i in zero.tolist():
            assert curve.value[i] == net_energy_given_phase1(int(curve.n1[i]), 0.0, p), i

    def test_mapping_is_read_only(self, small_params):
        sol = optimize_training(small_params)
        with pytest.raises(TypeError):
            sol.case_used_per_n1[small_params.n] = CaseLabel(LOW_ESNR)
        assert sol.case_used_per_n1 is sol.case_used_per_n1

    def test_repr_shows_plan_and_value_only(self, small_params):
        sol = optimize_training(small_params)
        assert repr(sol) == f"Solution(plan={sol.plan!r}, qnet_star={sol.qnet_star!r})"

    def test_equality_compares_the_derived_fields(self, small_params):
        # as when the mapping and the log were fields: equal solves compare
        # equal, a curve that changes either does not, and none is hashable
        sol, again = optimize_training(small_params), optimize_training(small_params)
        assert sol == again and sol.curve is not again.curve
        assert sol != optimize_training(replace(small_params, t=small_params.t * 2))
        last = sol.curve.code.size - 1
        code = sol.curve.code.copy()
        code[last] = 99 if code[last] != 99 else 98
        assert sol != Solution(sol.plan, sol.qnet_star, sol.curve._replace(code=code))
        tried = sol.curve.tried.copy()
        tried[last] = 1.5 if tried[last] != 1.5 else 2.5
        assert sol != Solution(sol.plan, sol.qnet_star, sol.curve._replace(tried=tried))
        assert Solution(sol.plan, sol.qnet_star, sol.curve._replace(gains=None)) == sol
        with pytest.raises(TypeError):
            hash(sol)


def piece_arrays(gains: np.ndarray, branch2: np.ndarray, n1: np.ndarray, p: SystemParams):
    """The oracle's (g, b, d0) of h on pieces: the strongest branch2[i]
    ranks of row i above the threshold, the rest below (g = 1 gives them
    b = 0)."""
    above = np.arange(gains.shape[1]) < branch2[:, None]
    d0 = esnr(p) * np.where(above, gains - p.m, gains / p.m - 1.0).sum(axis=1) / n1
    g = np.where(above, p.m / gains, 1.0)
    b = g * (1.0 - g) / n1[:, None]
    return g, b, d0


def h_on(x: np.ndarray, g: np.ndarray, b: np.ndarray, d0: np.ndarray) -> np.ndarray:
    """h per row at x, on the pieces of :func:`piece_arrays`, with the
    solver's arithmetic."""
    return optimizer._h_given(x + 1.0, x[:, None] + g, b, d0)


def stationary_snrs(gains: np.ndarray, branch2: int, n1: int, p: SystemParams) -> float | None:
    """The solver's Newton iteration on one piece: its x = beta*e1/n0, or
    None where h(0) >= 0."""
    n1 = np.array([n1])
    piece = piece_arrays(gains[None, :], np.array([branch2]), n1, p)
    if not h_on(np.zeros(1), *piece)[0] < 0.0:
        return None
    return float(optimizer._stationary_rows(piece, n1)[0])


def crossings(n1: int, p: SystemParams) -> np.ndarray:
    """The pilot SNRs x = beta e1 / n0 where ranks cross the refinement
    threshold, ascending: a rank's power over beta, (x g + m)/(x + 1),
    moves from m toward g."""
    rho, gains = refinement_threshold(p) / p.beta, order_stats.gains_up_to(p.n2, n1, p.m)
    crosses = ((p.m < rho) & (rho < gains)) | ((gains < rho) & (rho < p.m))
    return np.sort((rho - p.m) / (gains[crosses] - rho))


def h_at(n1: int, p: SystemParams, x, inside=None) -> np.ndarray:
    """The solver's h of one n1 at pilot SNRs x, each on the piece that
    holds ``inside`` (default x): that piece's ranks above the threshold
    are counted from their powers, not from the solver's piece index."""
    x = np.asarray(x, dtype=float)
    inside = x if inside is None else np.asarray(inside, dtype=float)
    gains = order_stats.gains_up_to(p.n2, n1, p.m)
    above = np.sum(
        (inside[:, None] * gains + p.m) / (inside[:, None] + 1.0) > refinement_threshold(p) / p.beta,
        axis=1,
    )
    rows = np.broadcast_to(gains, (x.size, gains.size))
    return h_on(x, *piece_arrays(rows, above, np.full(x.size, n1), p))


def h_scale(n1: int, p: SystemParams, x) -> np.ndarray:
    """A bound on the magnitude of the terms of h at x, the scale of its
    rounding: (x + 1)^2, |d0| and |b_i| ((x + 1)/(x + g_i))^2 all lie below
    (x + 1)^2 (1 + sum (gain + m) / n1) (1 + gamma)."""
    gains = order_stats.gains_up_to(p.n2, n1, p.m)
    return (np.asarray(x) + 1.0) ** 2 * (1.0 + np.sum(gains + p.m) / n1) * (1.0 + esnr(p))


def newton_inside_optimize(p: SystemParams):
    """``optimize_training(p)`` and the n1 of the rows that reach
    :func:`optimizer._stationary_rows`."""
    solved = []
    real = optimizer._stationary_rows

    def stationary(piece, n1):
        solved.extend(n1.tolist())
        return real(piece, n1)

    optimizer._stationary_rows = stationary  # not monkeypatch: Hypothesis reruns the body
    try:
        sol = optimize_training(p)
    finally:
        optimizer._stationary_rows = real
    return sol, solved


class TestPieceScreen:
    """A row's optimum is e1 = 0 where h(0) >= 0, and otherwise the one
    root of h: only rows with h(0) < 0 reach Newton, once each."""

    @pytest.mark.parametrize(
        "shape, rows, live",
        [
            (dict(m=4, n=400, n2=200, t=5e-7), 201, 0),  # medium everywhere
            (dict(m=4, n=80, n2=64, t=3e-7), 17, 0),  # design-sweep-wide, medium
            (dict(m=10, n=866, n2=16, t=5e-5), 851, 850),  # ISM, high
            (dict(m=4, n=80, n2=64, t=1e-1), 17, 16),  # design-sweep-wide, high
        ],
    )
    def test_newton_sees_only_live_pieces(self, shape, rows, live, monkeypatch):
        p = ism_link(**shape)
        blocks = []  # per block: Newton calls
        solve, newton = optimizer._solve_rows, optimizer._stationary_rows

        def counting(*args):
            blocks[-1] += 1
            return newton(*args)

        def block(*args):
            blocks.append(0)
            return solve(*args)

        monkeypatch.setattr(optimizer, "_solve_rows", block)
        monkeypatch.setattr(optimizer, "_stationary_rows", counting)
        sol, solved = newton_inside_optimize(p)
        # h(0) comes from a sum over the gains, and every live root lies on
        # piece 0 of the high regime, read from the row data, for Newton; a
        # block without a live row never enters Newton
        assert blocks == [int(live > 0)]
        screened = [n1 for n1, label in sol.case_used_per_n1.items() if label.kind != LOW_ESNR]
        assert len(screened) == rows
        assert len(solved) == live
        # each live row once, and only rows with h(0) < 0
        assert len(set(solved)) == live
        assert all(h_at(n1, p, [0.0], [1e-12])[0] < 0.0 for n1 in solved)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=oracle_systems())
    @example(p=ism_link(m=4, n=80, n2=64, t=1e-7))
    @example(p=ism_link(m=4, n=80, n2=64, t=3e-7))
    @example(p=ism_link(m=4, n=80, n2=64, t=5e-6))
    @example(p=ism_link(m=4, n=80, n2=64, t=1e-1))
    def test_h_is_one_increasing_function(self, p):
        # h is -(gamma/n1)(x+1)^2 times the slope of the piecewise objective,
        # which is C1: the pieces' h agree at each crossing, h increases on
        # all of [0, inf), and the solve sits where it changes sign
        eps = np.finfo(float).eps
        for n1 in range(p.n2, p.n + 1):
            sol = solve_for_n1(n1, p)
            if sol.label.kind == LOW_ESNR:
                continue
            cut = crossings(n1, p)
            bounds = np.concatenate([[0.0], cut, [2.0 * cut[-1] + 1.0 if cut.size else 1.0]])
            mids = 0.5 * (bounds[:-1] + bounds[1:])
            if cut.size:
                left, right = h_at(n1, p, cut, mids[:-1]), h_at(n1, p, cut, mids[1:])
                assert np.all(np.abs(left - right) <= 4 * eps * h_scale(n1, p, cut)), n1
            root = sol.candidates[1] * p.beta / p.n0 if len(sol.candidates) > 1 else 0.0
            top = 4.0 * max(bounds[-1], root)
            grid = np.concatenate([[0.0], np.geomspace(1e-9 * top, top, 2000)])
            h = h_at(n1, p, grid, np.maximum(grid, 1e-3 * bounds[1]))
            assert np.all(np.diff(h) >= -4 * eps * h_scale(n1, p, grid[1:])), n1
            h0 = h_at(n1, p, [0.0], [0.5 * bounds[1]])[0]
            if len(sol.candidates) == 1:
                assert h0 >= 0.0 and sol.e1 == 0.0, n1
            else:
                assert h0 < 0.0, n1
                step = 1e-9 * (1.0 + root)
                below, above = h_at(n1, p, [max(root - step, 0.0), root + step])
                assert below < 0.0 < above, n1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=oracle_systems())
    def test_unscored_piece_ends_never_win(self, p):
        # every energy where a rank crosses the threshold ends a piece; the
        # sweep scores none of them, since the objective rises up to the
        # root of h and falls after it
        alpha, bm = refinement_threshold(p), p.beta * p.m
        for n1 in range(p.n2, p.n + 1):
            sol = solve_for_n1(n1, p)
            rn = p.beta * order_stats.gains_up_to(p.n2, n1, p.m)
            crosses = ((bm < alpha) & (alpha < rn)) | ((rn < alpha) & (alpha < bm))
            x = np.divide(alpha - bm, rn - alpha, out=np.zeros_like(rn), where=crosses)
            ends = x[crosses] * p.n0 / p.beta
            if ends.size:
                net = net_energy_given_phase1(n1, ends, p)
                assert np.all(net <= sol.value + 1e-12 * abs(sol.value)), n1

    def test_all_low_block_skips_the_pieces(self, monkeypatch):
        # the threshold sits between the strongest gains of n1 = 6 and 7, so
        # n1 = 3..6 are low and 12 medium: the low rows' results alone equal
        # those rows of a block that takes the piece path
        top = [order_stats.gain(1, n1, 4) for n1 in (6, 7)]
        p = params_with_threshold(1e-6 * 0.5 * sum(top), t=1.0)
        n1s = np.array([3, 4, 5, 6, 12])
        gains = np.array([order_stats.gains_up_to(p.n2, n1, p.m) for n1 in n1s.tolist()])
        codes, e1, value, tried = optimizer._solve_rows(optimizer._row_data(gains, n1s, p.m), n1s, p)
        candidates = [optimizer._tried(e) for e in tried.tolist()]
        assert [optimizer._label(c).kind for c in codes.tolist()] == [LOW_ESNR] * 4 + [MEDIUM_ESNR]

        def unreachable(*args):
            raise AssertionError("an all-low block reached the piece path")

        for name in ("_roots_of_h", "_h0", "_stationary_rows"):
            monkeypatch.setattr(optimizer, name, unreachable)
        low = optimizer._solve_rows(optimizer._row_data(gains[:4], n1s[:4], p.m), n1s[:4], p)
        assert low[0].tolist() == codes[:4].tolist()
        assert (low[1].tolist(), low[2].tolist()) == (e1[:4].tolist(), value[:4].tolist())
        low_candidates = [optimizer._tried(e) for e in low[3].tolist()]
        assert low_candidates == candidates[:4]
        for n1, c in zip(n1s[:4].tolist(), low_candidates):
            assert solve_for_n1(n1, p).candidates == c
        monkeypatch.undo()
        assert candidates[4] == solve_for_n1(12, p).candidates


def certified(x: np.ndarray, piece) -> np.ndarray:
    """Per row, whether x is the solver's answer on its piece: h(x) = 0, or
    x is the end with the smaller |h| (the lower end on a tie) of two
    adjacent floats where h changes sign."""
    hx, up, down = (h_on(v, *piece) for v in (x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)))
    lower = (hx < 0.0) & (up >= 0.0) & (np.abs(hx) <= np.abs(up))
    upper = (down < 0.0) & (hx > 0.0) & (np.abs(hx) < np.abs(down))
    return (hx == 0.0) | lower | upper


def newton_rows(p: SystemParams, spy=None):
    """``optimize_training(p)``'s calls of :func:`optimizer._stationary_rows`:
    ``(pieces, roots)`` per call; ``spy``, if given, is swapped in for
    ``optimizer._h_given`` during the calls."""
    calls = []
    real, real_h = optimizer._stationary_rows, optimizer._h_given

    def stationary(piece, n1):
        optimizer._h_given = spy or real_h
        try:
            calls.append(([a.copy() for a in piece], real(piece, n1)))
        finally:
            optimizer._h_given = real_h
        return calls[-1][1]

    optimizer._stationary_rows = stationary  # not monkeypatch: Hypothesis reruns the body
    try:
        optimize_training(p)
    finally:
        optimizer._stationary_rows = real
    return calls


class TestCertifiedNewton:
    """Newton starts at the bound sqrt(d0 - sum b_i) - 1 on the root, and a
    row leaves in the pass that finds h = 0, or a sign change of h between
    adjacent floats, beside the iterate."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=oracle_systems())
    @example(p=ism_link(m=4, n=80, n2=64, t=1e-1))
    @example(p=ism_link(m=10, n=866, n2=16, t=5e-5))
    @example(p=ism_link(m=4, n=80, n2=64, t=5e-6))
    def test_every_root_is_certified(self, p):
        for piece, root in newton_rows(p):
            ok = certified(root, piece)
            assert ok.all(), root[~ok]

    @pytest.mark.parametrize(
        "shape, live", [(dict(m=4, n=80, n2=64, t=1e-1), 16), (dict(m=10, n=866, n2=16, t=5e-5), 850)]
    )
    def test_start_is_an_upper_bound(self, shape, live):
        # b_i ((x+1)/(x+g_i))^2 >= b_i for either sign of b_i, so
        # h(x) >= (x+1)^2 + sum b_i - d0, which is 0 at the first iterate
        first = []

        def recording(x1, t, b, d0):
            if not first:
                first.append(x1 - 1.0)
            return real(x1, t, b, d0)

        real = optimizer._h_given
        [(piece, root)] = newton_rows(ism_link(**shape), recording)
        g, b, d0 = piece
        start = first[0]
        assert np.array_equal(start, np.sqrt(d0 - b.sum(axis=1)) - 1.0) and root.size == live
        assert np.all(root <= start) and np.all(h_on(start, *piece) >= 0.0)
        assert np.all(start - root <= 1e-2 * root)

    def test_high_esnr_block_in_three_passes(self):
        # t = 1e-1 starts about 1e-7 relative above each root: two Newton
        # passes, then h at the predicted root and its neighbours certifies
        # every row, within the pin of at most 5 passes
        sizes = []

        def counting(x1, t, b, d0):
            sizes.append(x1.shape)
            return real(x1, t, b, d0)

        real = optimizer._h_given
        [(piece, root)] = newton_rows(ism_link(m=4, n=80, n2=64, t=1e-1), counting)
        assert root.size == 16 and certified(root, piece).all()
        assert sizes == [(16,), (16,), (3, 16)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=oracle_systems())
    @example(p=ism_link(m=4, n=80, n2=64, t=1e-1))
    @example(p=ism_link(m=10, n=866, n2=16, t=5e-5))
    @example(p=ism_link(m=4, n=80, n2=64, t=3e-7))
    @example(p=ism_link(m=4, n=80, n2=64, t=5e-6))
    def test_h0_from_sums_is_h_at_zero(self, p):
        # the live test reads h(0) on piece 0 of the high regime from the row
        # surplus, a sum over the gains; it must have the sign of h(0) on the
        # oracle's piece arrays, and be within a few rounding units of it
        # (medium rows, which never reach it, are in TestPieceZeroBounds)
        seen = []
        real = optimizer._h0

        def checking(surplus, n1, q):
            gains = np.array([order_stats.gains_up_to(q.n2, n, q.m) for n in n1.tolist()])
            sums = real(surplus, n1, q)
            piece = piece_arrays(gains, np.full(n1.shape, q.n2), n1, q)  # every rank above the threshold
            seen.append((sums, h_on(np.zeros(n1.size), *piece),
                         1.0 + (1.0 + esnr(q) * q.m) * np.abs(gains / q.m - 1.0).sum(axis=1) / n1))
            return sums

        optimizer._h0 = checking  # not monkeypatch: Hypothesis reruns the body
        try:
            optimize_training(p)
        finally:
            optimizer._h0 = real
        for sums, direct, scale in seen:
            assert np.array_equal(sums < 0.0, direct < 0.0)
            assert np.all(np.abs(sums - direct) <= 16 * np.finfo(float).eps * scale)

    @pytest.mark.parametrize("ranks", [0, 3])
    def test_zero_rows_solve_to_nothing(self, ranks):
        # with no row, every row counts as near, and the first pass once read
        # h beside the iterates before evaluating it (UnboundLocalError)
        piece = (np.zeros((0, ranks)), np.zeros((0, ranks)), np.zeros(0))
        out = optimizer._stationary_rows(piece, np.zeros(0, dtype=int))
        assert out.shape == (0,) and out.dtype == float


def piece_zero_bounds(p: SystemParams) -> tuple[int, int]:
    """Asserts the optimizer's bounds on every row of ``p``'s ordered gains,
    with room, and what they give on the oracle's h: h(0) >= 0 on every
    medium row, and h(x_c) >= gamma [(m-1) - S+/n1] at the first crossing
    x_c of every live high row that has one.  Returns the counts of the
    medium rows and of the live high rows with a crossing."""
    if p.m == 1:  # no threshold: every row is low
        return 0, 0
    gamma, rho, counts = esnr(p), optimizer._threshold(esnr(p), p.m), [0, 0]
    for n1, gains in enumerate(order_stats.stacked_gains(p.n2, p.n, p.m), start=p.n2):  # every n1 in one read
        e = gains - p.m
        s_plus = np.maximum(e, 0.0).sum()
        assert s_plus / (n1 * (p.m - 1)) < 0.55 and (e * e).sum() / (n1 * p.m**2) < 0.5, n1
        label = classify_esnr_case(n1, p)
        if label.kind == LOW_ESNR:
            continue
        # piece 0: every rank above the threshold, none, or where rho* = m the j above it
        above = p.n2 if rho < p.m else label.j if rho == p.m else 0
        piece = piece_arrays(gains[None, :], np.array([above]), np.array([n1]), p)
        h0 = h_on(np.zeros(1), *piece)[0]
        if label.kind == MEDIUM_ESNR:
            assert h0 >= 0.0, n1
            counts[0] += 1
        elif h0 < 0.0 and gains[-1] < rho:
            x_c = (p.m - rho) / (rho - gains[-1])
            assert h_on(np.array([x_c]), *piece)[0] >= gamma * ((p.m - 1) - s_plus / n1), n1
            counts[1] += 1
    return counts[0], counts[1]


class TestPieceZeroBounds:
    """Ordered gains meet S+ < n1 (m-1) and S2 < n1 m^2 with room, so no
    medium row is live and every live high row's root lies on piece 0."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(p=oracle_systems())
    @example(p=ism_link(m=10, n=866, n2=16, t=5e-5))
    def test_bounds_hold_on_ordered_gains(self, p):
        piece_zero_bounds(p)

    def test_threshold_at_m(self):
        # ESNR 1 puts rho* at m = 2: the medium rows' h(0) is the same with
        # or without the j ranks above m on piece 0
        p = params(m=2, n0=0.06 * 0.8 * 1e-3 * 1e-12)
        assert optimizer._threshold(esnr(p), p.m) == p.m
        medium, _ = piece_zero_bounds(p)
        assert medium == p.n - p.n2 + 1
        j = [classify_esnr_case(n1, p).j for n1 in range(p.n2, p.n + 1)]  # the rows' own counts above, 1 to 3
        assert min(j) >= 1 and max(j) == p.n2

    @pytest.mark.parametrize("n1, gamma", [(17, 12.0), (18, 7.0), (19, 5.0), (20, 4.3)])
    def test_live_high_row_with_a_crossing(self, n1, gamma):
        # n1 just above n2 = 16 at m = 2 leaves the weakest gain below rho*
        # at these ESNRs while h(0) < 0: its root lies before the crossing
        p = params(m=2, n=n1, n2=16, n0=params().eta_t_ps * 1e-12 / gamma)
        assert piece_zero_bounds(p)[1] == 1
        root = solve_for_n1(n1, p).candidates[1] * p.beta / p.n0
        assert 0.0 < root < crossings(n1, p)[0]


WIDE_T = (1e-7, 3e-7, 5e-6, 1e-1)  # design-sweep-wide: low, medium, ten crossings, high


def counting_row_data(monkeypatch) -> list:
    """The gains arrays that :func:`optimizer._row_data` builds row data for."""
    built, real = [], optimizer._row_data

    def counting(gains, n1, m):
        built.append(gains)
        return real(gains, n1, m)

    monkeypatch.setattr(optimizer, "_row_data", counting)
    return built


def curve_bytes(curve) -> list[bytes]:
    return [a.tobytes() for a in (curve.n1, curve.code, curve.e1, curve.value, curve.tried, curve.gains)]


class TestRowData:
    """Each stacked gain view keeps its t-independent row data: built on
    the view's first solve, read by every later one, and dropped with it."""

    def test_built_once_per_stacked_view(self, empty_memo, monkeypatch):
        built = counting_row_data(monkeypatch)
        for t in WIDE_T:
            optimize_training(ism_link(m=4, n=80, n2=64, t=t))
            solve_phase1_only(ism_link(m=4, n=80, n2=64, t=t))
        optimize_training(ism_link(m=4, n=70, n2=64, t=1e-1))  # a prefix of the same view
        assert len(built) == 1 and built[0] is order_stats.stacked_gains(64, 80, 4).base

    def test_solve_curve_reads_the_stacked_rows(self, monkeypatch):
        p = ism_link(m=4, n=80, n2=64, t=1e-1)
        optimize_training(p)
        built = counting_row_data(monkeypatch)
        curve = optimizer.solve_curve([70, 64, 80], p)
        assert not built
        assert curve.gains.tolist() == [
            order_stats.gains_up_to(64, n1, 4).tolist() for n1 in (70, 64, 80)]
        optimizer.solve_curve([70, 64, 80], p)
        assert not built

    @pytest.mark.parametrize(
        "shape",
        [dict(m=4, n=80, n2=64, t=t) for t in WIDE_T]
        + [dict(m=1, n=60, n2=1, t=5e-2), dict(m=8, n=30, n2=4, t=1e-3), dict(m=2, n=30, n2=3, t=1e-5),
           dict(m=10, n=866, n2=16, t=5e-5)],
    )
    def test_warm_rows_are_the_solve_rows(self, shape, monkeypatch):
        # solve_curve on the n1 in any order, and each n1's label, read rows
        # n1 - n2 of the row data optimize_training solved: the same bits
        p = ism_link(**shape)
        sol = optimize_training(p)
        built = counting_row_data(monkeypatch)
        n1s = np.random.default_rng(p.n).permutation(np.arange(p.n2, p.n + 1)).tolist()
        curve = optimizer.solve_curve(n1s, p)
        rows = np.array(n1s) - p.n2
        assert curve.n1.tolist() == n1s
        for got, solved in zip(curve[1:], sol.curve[1:]):
            assert got.tobytes() == solved[rows].tobytes()
        assert [classify_esnr_case(n1, p) for n1 in n1s] == [sol.case_used_per_n1[n1] for n1 in n1s]
        assert not built

    def test_emptied_memo_drops_it(self, empty_memo, monkeypatch):
        p = ism_link(m=4, n=80, n2=64, t=1e-1)
        before = optimize_training(p)
        held = optimizer._held_rows[(64, 4)]
        assert held.gains is order_stats.stacked_gains(64, 80, 4).base
        # row data with no usable surplus beside the old view: with it no row
        # would reach Newton, so the new view must not read it
        stale = SimpleNamespace(**{**vars(held), "surplus": held.surplus * np.nan})
        monkeypatch.setitem(optimizer._held_rows, (64, 4), stale)
        monkeypatch.setattr(order_stats, "_memo", {})
        monkeypatch.setattr(order_stats, "_stacks", {})
        built = counting_row_data(monkeypatch)
        after = optimize_training(p)
        assert len(built) == 1 and built[0] is order_stats.stacked_gains(64, 80, 4).base
        assert not np.isnan(before.curve.tried).all()
        assert after == before and curve_bytes(after.curve) == curve_bytes(before.curve)

    @pytest.mark.parametrize(
        "shape",
        [dict(m=4, n=80, n2=64, t=t) for t in WIDE_T]
        + [dict(m=10, n=866, n2=16, t=5e-5), dict(m=4, n=400, n2=200, t=5e-7), dict(m=2, n=30, n2=3, t=1e-3)],
    )
    def test_warm_solve_is_a_fresh_one(self, shape):
        # the held row data against row data built afresh for a copy of the
        # gains, through the same lockstep entry
        p = ism_link(**shape)
        optimize_training(p)
        warm = optimize_training(p)
        gains = np.array(order_stats.stacked_gains(p.n2, p.n, p.m))
        n1 = np.arange(p.n2, p.n + 1)
        curve = optimizer._curve(optimizer._row_data(gains, n1, p.m), n1, p)
        i = int(curve.value.argmax())
        assert warm == Solution(curve.plan(i, p), float(curve.value[i]), curve)
        assert curve_bytes(warm.curve) == curve_bytes(curve)
        assert solve_phase1_only(p) == solve_phase1_only(replace(p, t=p.t))

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
