"""Ordered-gain computations: the three routes must agree and obey the
exact structural identities (sum rule, rank monotonicity, bounds)."""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, quad_vec
from scipy.special import gammainc, gammaincc, gammaln, xlogy

from wetopt import order_stats
from wetopt.order_stats import (
    GainTable,
    QuadratureError,
    erlang_cdf,
    gain,
    gain_closed_form,
    gain_monte_carlo,
    gain_quadrature,
    gains_up_to,
    ordered_cdf,
)

# Analytic rank-1 gain for two draws of dimension 2: integrating the
# survival 1 - (1 - e^-v (1+v))^2 term by term gives 4 - 5/4.
G1_2_2 = 2.75


def count_quadratures(monkeypatch) -> list:
    """Record every call of the adaptive integrator from here on."""
    calls = []
    real = order_stats._quadrature_gains

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(order_stats, "_quadrature_gains", counting)
    return calls


def exact_tails(dim: int, v: float) -> tuple[float, float]:
    """Erlang(dim, 1) CDF and survival at v from the Poisson sums, to 60 digits.

    ``Q = e^-v sum_{k<dim} v^k/k!`` and ``P = e^-v sum_{k>=dim} v^k/k!``,
    summed in decimal arithmetic (exact input, no cancellation), the
    second until its terms are past their peak and below 1e-60 of the sum.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        ctx.Emin, ctx.Emax = -(10**7), 10**7
        x = Decimal(v)
        term, below = Decimal(1), Decimal(0)
        for k in range(1, dim + 1):
            below += term
            term = term * x / k
        above, k = Decimal(0), dim
        while k <= x or term > above * Decimal("1e-60"):
            above += term
            k += 1
            term = term * x / k
        scale = (-x).exp()
        return float(above * scale), float(below * scale)


def scipy_survivals(v: float, rank_max: int, pop: int, dim: int) -> np.ndarray:
    """The survival integrand as scipy's special functions give it (oracle)."""
    k = np.arange(0, pop + 1)
    logb = (
        gammaln(pop + 1)
        - gammaln(k + 1)
        - gammaln(pop - k + 1)
        + xlogy(pop - k, gammainc(dim, v))
        + xlogy(k, gammaincc(dim, v))
    )
    suffix = np.cumsum(np.exp(logb)[::-1])[::-1]
    return np.minimum(suffix[1 : rank_max + 1], 1.0)


class TestErlangCdf:
    def test_zero_at_origin(self):
        for m in (1, 2, 7):
            assert erlang_cdf(0.0, m) == 0.0

    def test_exponential_special_case(self):
        for v in (0.1, 1.0, 3.5):
            assert erlang_cdf(v, 1, 1.0) == pytest.approx(1.0 - math.exp(-v), abs=1e-14)

    def test_two_term_value(self):
        # shape 2, rate 1 at v=2: 1 - e^-2 (1 + 2)
        assert erlang_cdf(2.0, 2, 1.0) == pytest.approx(1.0 - 3.0 * math.exp(-2.0), abs=1e-14)

    def test_matches_density_integral(self):
        # independent oracle: integrate the Erlang density directly
        for m, rate, v in [(2, 1.0, 2.0), (3, 0.7, 4.0), (5, 2.0, 1.3)]:
            pdf = lambda x: rate**m * x ** (m - 1) * math.exp(-rate * x) / math.factorial(m - 1)
            expected, _ = quad(pdf, 0.0, v)
            assert erlang_cdf(v, m, rate) == pytest.approx(expected, abs=1e-12)

    def test_limit_and_rate_scaling(self):
        assert erlang_cdf(1e4, 3) == pytest.approx(1.0, abs=1e-15)
        assert erlang_cdf(2.0, 2, 3.0) == pytest.approx(erlang_cdf(6.0, 2, 1.0), abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            erlang_cdf(-0.1, 2)
        with pytest.raises(ValueError):
            erlang_cdf(1.0, 0)
        with pytest.raises(ValueError):
            erlang_cdf(1.0, 2, 0.0)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        dim=st.integers(min_value=1, max_value=4096),
        log10_v=st.floats(min_value=-300.0, max_value=4.0),
        log_ratio=st.floats(min_value=-0.8, max_value=0.8),
        near_dim=st.booleans(),
    )
    def test_tails_match_scipy_and_exact_sums(self, dim, log10_v, log_ratio, near_dim):
        # v log-uniform on [1e-300, 1e4], or within a factor 2.2 of dim,
        # where neither tail is near 0 or 1.  Each tail is within 1e-12 of
        # the 60-digit Poisson sum, and within 1e-12 of scipy unless scipy
        # is the further of the two from that sum (at shapes in the
        # thousands, scipy's far tails are off by up to ~1e-11)
        v = dim * math.exp(log_ratio) if near_dim else 10.0**log10_v
        logp, logq = order_stats._erlang_log_tails(np.array([v]), dim)
        tiny = np.finfo(float).tiny
        for ours, ref, exact in zip(
            np.exp([logp[0], logq[0]]),
            (gammainc(dim, v), gammaincc(dim, v)),
            exact_tails(dim, v),
        ):
            assert abs(ours - exact) <= 1e-12 * exact + tiny
            assert abs(ours - ref) <= 1e-12 * ref + tiny or abs(ours - exact) < abs(
                ref - exact
            )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        v1=st.floats(min_value=0.0, max_value=50.0),
        v2=st.floats(min_value=0.0, max_value=50.0),
        m=st.integers(min_value=1, max_value=32),
    )
    def test_monotone_in_v(self, v1, v2, m):
        lo, hi = sorted((v1, v2))
        assert erlang_cdf(lo, m) <= erlang_cdf(hi, m) + 1e-15


class TestOrderedCdf:
    def test_rank_one_is_power_of_cdf(self):
        for pop, m, v in [(3, 1, 0.8), (5, 2, 3.0), (10, 4, 6.0)]:
            f = erlang_cdf(v, m)
            assert ordered_cdf(1, pop, m, v) == pytest.approx(f**pop, rel=1e-12)

    def test_weakest_rank_tends_to_one(self):
        assert ordered_cdf(4, 4, 2, 200.0) == pytest.approx(1.0, abs=1e-12)

    def test_two_of_two_expansion(self):
        # second largest of two exponentials: F^2 + 2 F (1-F) = 1 - (1-F)^2
        f = 1.0 - math.exp(-1.0)
        expected = f**2 + 2.0 * f * (1.0 - f)
        assert expected == pytest.approx(1.0 - math.exp(-2.0), abs=1e-15)
        assert ordered_cdf(2, 2, 1, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_large_population_no_overflow(self):
        v = ordered_cdf(3, 2000, 2, 4.0)
        assert 0.0 <= v <= 1.0

    def test_rank_ordering(self):
        # deeper ranks are stochastically smaller: larger CDF at fixed v
        vals = [ordered_cdf(n, 6, 2, 3.0) for n in range(1, 7)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            ordered_cdf(0, 3, 1, 1.0)
        with pytest.raises(ValueError):
            ordered_cdf(4, 3, 1, 1.0)


class TestClosedForm:
    def test_harmonic_series(self):
        for pop in (1, 2, 3, 7, 30, 500):
            expected = math.fsum(1.0 / i for i in range(1, pop + 1))
            assert gain_closed_form(1, pop, 1) == pytest.approx(expected, rel=1e-14)

    def test_single_draw_is_dimension(self):
        for m in (1, 3, 8):
            assert gain_closed_form(1, 1, m) == float(m)

    def test_two_of_two_dim_two(self):
        assert gain_closed_form(1, 2, 2) == pytest.approx(G1_2_2, abs=1e-12)

    def test_exponential_ranks_are_harmonic_tails(self):
        for rank in (1, 2, 3):
            expected = math.fsum(1.0 / i for i in range(rank, 4))
            assert gain_closed_form(rank, 3, 1) == pytest.approx(expected, rel=1e-14)

    def test_sum_rule_exact(self):
        for pop, m in [(5, 3), (12, 2), (8, 8)]:
            total = math.fsum(gain_closed_form(n, pop, m) for n in range(1, pop + 1))
            assert total == pytest.approx(pop * m, rel=1e-13)

    def test_refuses_above_caps(self):
        with pytest.raises(ValueError, match="gain_quadrature"):
            gain_closed_form(1, 31, 2)
        with pytest.raises(ValueError, match="gain_quadrature"):
            gain_closed_form(1, 5, 9)


class TestQuadrature:
    def test_harmonic_small(self):
        assert gain_quadrature(1, 3, 1) == pytest.approx(11.0 / 6.0, abs=1e-10)

    def test_two_of_two_dim_two(self):
        assert gain_quadrature(1, 2, 2) == pytest.approx(G1_2_2, abs=1e-9)

    def test_sum_rule(self):
        for pop, m in [(4, 2), (7, 3)]:
            total = math.fsum(gain_quadrature(n, pop, m) for n in range(1, pop + 1))
            assert total == pytest.approx(pop * m, rel=1e-9)

    def test_large_query(self):
        value = gain_quadrature(1, 2000, 256)
        assert value > 256.0

    def test_reports_non_convergence(self, monkeypatch):
        # a budget of one interval: the first G10K21 estimate misses the
        # tolerance, and the integrator must say so rather than return it
        monkeypatch.setattr(order_stats, "_QUAD_LIMIT", 1)
        with pytest.raises(QuadratureError, match="1 subintervals used"):
            gain_quadrature(1, 40, 2)

    @pytest.mark.parametrize(
        "rank_max, pop, dim",
        [(120, 120, 10), (80, 80, 4), (866, 866, 10), (64, 866, 64),
         (2000, 2000, 2), (1, 10000, 1), (1, 2000, 256)],
    )
    def test_matches_quad_vec(self, rank_max, pop, dim):
        # the numpy integrator against scipy's quad_vec on the scipy-built
        # integrand, at the tolerances the package uses
        expected, _err, info = quad_vec(
            lambda v: scipy_survivals(v, rank_max, pop, dim),
            0.0,
            order_stats._upper_cutoff(pop, dim),
            epsabs=order_stats._QUAD_EPSABS,
            epsrel=order_stats._QUAD_EPSREL,
            limit=order_stats._QUAD_LIMIT,
            full_output=True,
        )
        assert info.success
        gains = order_stats._quadrature_gains(rank_max, pop, dim)
        np.testing.assert_allclose(gains, expected, rtol=1e-11, atol=0.0)


class TestDispatcher:
    def test_routes_and_agreement(self):
        table = GainTable()
        value = gain(1, 10, 2, table)
        assert table.lookup(1, 10, 2).method == "closed_form"
        assert value == pytest.approx(gain_quadrature(1, 10, 2), rel=1e-6)

    def test_large_population_uses_quadrature(self):
        table = GainTable()
        gain(1, 866, 4, table)
        assert table.lookup(1, 866, 4).method == "quadrature"

    def test_single_draw_exact(self):
        for m in (1, 5, 200):
            assert gain(1, 1, m, GainTable()) == float(m)

    def test_memoization(self):
        table = GainTable()
        first = gain(2, 9, 3, table)
        assert len(table) == 1
        assert gain(2, 9, 3, table) == first
        assert len(table) == 1

    def test_bulk_matches_scalar(self):
        table = GainTable()
        bulk = gains_up_to(4, 40, 6, table)
        for n in range(1, 5):
            assert bulk[n - 1] == pytest.approx(gain_quadrature(n, 40, 6), rel=1e-9)

    def test_table_rows(self):
        table = GainTable()
        gains_up_to(2, 3, 1, table)
        rows = table.rows()
        assert rows[0][:3] == (1, 3, 1)
        assert rows[0][4] == "closed_form"


class TestTriangle:
    """gains_up_to on the quadrature route: one quadrature at the largest
    population, every smaller one by the order-statistics triangle rule."""

    @pytest.mark.parametrize(
        "pop, dim, rank_max, samples",
        [(120, 10, 16, None), (80, 4, 64, None), (866, 64, 64, 9)],
    )
    def test_matches_direct_quadrature(self, pop, dim, rank_max, samples):
        table = GainTable()
        gains_up_to(rank_max, pop, dim, table)
        pops = range(rank_max, pop + 1)
        if samples:
            pops = np.unique(np.linspace(rank_max, pop, samples).astype(int))
        for n in pops:
            n = int(n)
            tri = np.array([table.lookup(r, n, dim).value for r in range(1, rank_max + 1)])
            direct = order_stats._quadrature_gains(rank_max, n, dim)
            np.testing.assert_allclose(tri, direct, rtol=1e-11, atol=0.0)
            assert table.lookup(1, n, dim).method == "quadrature"

    def test_optimizer_integrates_once(self, monkeypatch):
        from wetopt.optimizer import optimize_training
        from wetopt.training_model import SystemParams

        calls = count_quadratures(monkeypatch)
        monkeypatch.setattr(order_stats, "_shared_table", GainTable())
        p = SystemParams(m=10, n=120, n2=16, ps=0.06, eta=0.8, t=1e-5, beta=1e-6, n0=1e-19)
        optimize_training(p)
        assert len(calls) == 1

    def test_gain_ranks_share_one_quadrature(self, monkeypatch):
        # gain() walks ranks one at a time (as cli.emit_gtable does); the
        # first miss keeps every rank of the population it integrated
        calls = count_quadratures(monkeypatch)
        table = GainTable()
        values = [gain(r, 50, 4, table) for r in range(1, 4)]
        assert len(calls) == 1
        assert values == gains_up_to(3, 50, 4, GainTable()).tolist()

    def test_smaller_population_walks_down_from_whole_one(self, monkeypatch):
        # population 49 below a population 50 held whole: its ranks come from
        # 50's triangle, not from a second quadrature mixed in with it
        calls = count_quadratures(monkeypatch)
        table = GainTable()
        for pop in (50, 49):
            for r in range(1, 4):
                gain(r, pop, 4, table)
        assert len(calls) == 1
        monkeypatch.undo()
        walked = order_stats._triangle_gains(3, order_stats._quadrature_gains(50, 50, 4), 4)
        assert [table.lookup(r, 49, 4).value for r in range(1, 4)] == [
            walked[(r, 49, 4)] for r in range(1, 4)
        ]

    def test_keeps_closed_form_and_existing_entries(self):
        table = GainTable()
        closed = gains_up_to(4, 20, 4, table)
        direct = gain(1, 50, 4, table)
        gains_up_to(4, 60, 4, table)
        for r in range(1, 5):
            entry = table.lookup(r, 20, 4)
            assert entry.method == "closed_form"
            assert entry.value == closed[r - 1]
        assert table.lookup(1, 50, 4).value == direct
        # below the closed-form cap the triangle stops writing
        assert table.lookup(1, 30, 4) is None
        assert table.lookup(4, 31, 4).method == "quadrature"
        assert gains_up_to(4, 30, 4, table)[0] == gain_closed_form(1, 30, 4)

    def test_gain_miss_served_by_triangle(self):
        # a quadrature-route miss in gain() walks the triangle from its own
        # population: the same bits as gains_up_to there, and every smaller
        # population on the quadrature route is memoized along the way
        table = GainTable()
        value = gain(1, 50, 4, table)
        assert value == gains_up_to(1, 50, 4, GainTable())[0]
        assert table.lookup(1, 40, 4).method == "quadrature"
        assert gains_up_to(4, 60, 4, table)[0] == gains_up_to(4, 60, 4, GainTable())[0]
        assert table.lookup(1, 50, 4).value == value
        assert value == pytest.approx(gain_quadrature(1, 50, 4), rel=1e-12)


class TestMonteCarlo:
    def test_harmonic_within_three_sigma(self):
        mean, stderr = gain_monte_carlo(1, 3, 1, 200_000, seed=5)
        assert abs(mean - 11.0 / 6.0) <= 3.0 * stderr

    def test_sum_rule_within_three_sigma(self):
        total, spread = 0.0, 0.0
        for n in (1, 2, 3):
            mean, stderr = gain_monte_carlo(n, 3, 2, 100_000, seed=9)
            total += mean
            spread += stderr**2
        assert abs(total - 6.0) <= 3.0 * math.sqrt(spread)

    def test_analytic_value_within_three_sigma(self):
        mean, stderr = gain_monte_carlo(1, 2, 2, 200_000, seed=3)
        assert abs(mean - G1_2_2) <= 3.0 * stderr

    def test_deterministic(self):
        a = gain_monte_carlo(2, 5, 3, 50_000, seed=42)
        b = gain_monte_carlo(2, 5, 3, 50_000, seed=42)
        assert a == b

    def test_validates_trials(self):
        with pytest.raises(ValueError):
            gain_monte_carlo(1, 2, 2, 0, seed=1)


class TestStructuralProperties:
    def test_sum_rule_grid(self):
        for m in (1, 2, 5):
            for pop in (1, 3, 6, 9):
                total = float(np.sum(order_stats._quadrature_gains(pop, pop, m)))
                assert total == pytest.approx(pop * m, rel=1e-8)

    def test_monotone_in_rank(self):
        vals = gains_up_to(6, 6, 3, GainTable())
        assert np.all(np.diff(vals) < 0)

    def test_monotone_in_population_and_dimension(self):
        pops = [gain(1, pop, 2, GainTable()) for pop in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(pops, pops[1:]))
        dims = [gain(1, 5, m, GainTable()) for m in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(dims, dims[1:]))

    def test_record_gain_bound(self):
        # every rank is bounded by the dimension times the scalar record gain
        for pop, m in [(6, 3), (10, 2), (4, 4)]:
            cap = m * gain(1, pop, 1, GainTable())
            vals = gains_up_to(pop, pop, m, GainTable())
            assert np.all(vals <= cap + 1e-12)

    def test_channel_hardening_ratio(self):
        # at very large dimension the record gain collapses to the mean
        ratio = gain(1, 16, 4096, GainTable()) / 4096.0
        assert 1.0 <= ratio <= 1.1

    def test_triple_agreement(self):
        for pop in (1, 2, 3, 5, 8):
            for m in (1, 2, 4):
                quad_vals = gains_up_to(pop, pop, m, GainTable())
                for rank in (1, pop):
                    closed = gain_closed_form(rank, pop, m)
                    assert closed == pytest.approx(quad_vals[rank - 1], rel=1e-6)
                mc, stderr = gain_monte_carlo(1, pop, m, 60_000, seed=17)
                assert abs(mc - quad_vals[0]) <= 3.0 * stderr + 1e-12
