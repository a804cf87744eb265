"""Ordered-gain computations: the three routes must agree and obey the
exact structural identities (sum rule, rank monotonicity, bounds)."""

import decimal
import math
import re
import sys
import threading
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, quad_vec
from scipy.special import gammainc, gammaincc, gammaln, xlogy

from wetopt import order_stats
from wetopt.order_stats import (
    QuadratureError,
    closed_form_domain,
    gain,
    gain_closed_form,
    gain_monte_carlo,
    gain_quadrature,
    gains_up_to,
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


def on_empty_memo(fn, *args):
    """``fn(*args)`` served from a memo of its own, dropped afterwards."""
    with mock.patch.object(order_stats, "_memo", {}):
        return fn(*args)


def walk_triangle(level: np.ndarray) -> dict[int, np.ndarray]:
    """Every rank of each population from ``len(level)`` down to 1.

    The triangle rule ``g(r, n-1) = ((n - r) g(r, n) + r g(r + 1, n)) / n``
    in the operation order of ``order_stats``, so a memo entry derived from
    ``level`` matches it bit for bit.
    """
    walked = {level.size: level}
    for n in range(level.size, 1, -1):
        r = np.arange(1.0, n)
        level = ((n - r) * level[:-1] + r * level[1:]) / n
        walked[n - 1] = level
    return walked


# The two CDFs below are the quadrature integrand's building blocks, read
# through the module's private tails: no library path evaluates a CDF alone.


def erlang_cdf(v: float, dim: int, rate: float = 1.0) -> float:
    """CDF of the squared norm of a CN(0, I/rate) vector of dimension ``dim``.

    The squared norm is Erlang with shape ``dim`` and the given rate.  The
    CDF is the Poisson tail ``P(dim, rate*v)`` summed in positive terms
    (see ``order_stats._erlang_log_tails``), never as one minus the finite
    exponential sum, which keeps it accurate to ~3e-13 relative from
    ``1e-300`` up, at shapes in the thousands.
    """
    if dim < 1:
        raise ValueError(f"vector dimension must be >= 1, got {dim}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if v < 0:
        raise ValueError(f"squared norm must be non-negative, got {v}")
    x = rate * v
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    return float(np.exp(order_stats._erlang_log_tails(np.array([x]), dim)[0][0]))


def ordered_cdf(rank: int, pop: int, dim: int, v: float) -> float:
    """CDF of the rank-th largest of ``pop`` i.i.d. Erlang(dim, 1) draws.

    Evaluated as the binomial tail sum with all binomial weights formed
    from logarithms, so no term overflows even for populations in the
    thousands; every summand is non-negative.
    """
    order_stats._validate_query(rank, pop, dim)
    if v < 0:
        raise ValueError(f"squared norm must be non-negative, got {v}")
    if v == 0.0:
        return 0.0
    if math.isinf(v):
        return 1.0
    return float(1.0 - order_stats._survivals(np.array([v]), rank, pop, dim)[0, rank - 1])


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

    @pytest.mark.parametrize(
        "pop, dim", [(120, 10), (80, 4), (50, 10), (866, 10), (866, 64), (2000, 2), (10000, 1)]
    )
    def test_cutoff_is_the_rank1_survival_crossing(self, pop, dim):
        # the cutoff reads 1 - P^pop; the binomial row's rank-1 survival
        # crosses the cutoff there too, up to the two sums' rounding
        cutoff = order_stats._upper_cutoff(pop, dim)
        row = order_stats._survivals(np.array([cutoff, cutoff * (1 - 1e-9)]), 1, pop, dim)[:, 0]
        assert row[0] < order_stats._SURVIVAL_CUTOFF * (1 + 1e-10)
        assert row[1] >= order_stats._SURVIVAL_CUTOFF

    @pytest.mark.parametrize(
        "pop, dim, cells",
        [(120, 10, None), (80, 4, None), (866, 10, None), (2000, 256, None), (10000, 1, None),
          (120, 10, 2 * 21 * 121), (300, 2, 5 * 21 * 301)],  # G10K21: 21 nodes per interval
    )
    def test_first_round_runs_on_the_ladder(self, monkeypatch, pop, dim, cells):
        # the first round's intervals run from 0 through the rungs dim 2^j
        # below the crossing to the cutoff, at most 2 * per_round of them
        # (a smaller cap drops the lowest rungs), and no round's call
        # evaluates more than _ROUND_CELLS binomial weights
        if cells is not None:
            monkeypatch.setattr(order_stats, "_ROUND_CELLS", cells)
        calls = []
        real = order_stats._gauss_kronrod

        def recording(f, lo, hi):
            calls.append((lo.copy(), hi.copy()))
            return real(f, lo, hi)

        monkeypatch.setattr(order_stats, "_gauss_kronrod", recording)
        order_stats._quadrature_gains(1, pop, dim)
        cutoff = order_stats._upper_cutoff(pop, dim)
        rungs = dim * 2.0 ** np.arange(64)
        rungs = rungs[rungs < cutoff]
        assert cutoff <= 2.0 * rungs[-1]
        assert np.all(order_stats._survivals(rungs, 1, pop, dim)[:, 0] >= order_stats._SURVIVAL_CUTOFF)
        per_round = max(1, order_stats._ROUND_CELLS // (2 * 21 * (pop + 1)))
        kept = rungs[max(0, rungs.size + 1 - 2 * per_round) :]
        assert (kept.size < rungs.size) == (cells is not None)
        edges = np.array([0.0, *kept, cutoff])
        assert np.all(np.diff(edges) > 0)
        assert calls[0][0].tolist() == edges[:-1].tolist() and calls[0][1].tolist() == edges[1:].tolist()
        assert max(lo.size * 21 * (pop + 1) for lo, _ in calls) <= order_stats._ROUND_CELLS

    def test_tail_calls_and_rounds_at_the_cold_shape(self, monkeypatch):
        # the optimize-ism-cold population: the cutoff takes at most seven
        # Erlang tail calls, and the integrator at most four rounds of one
        # G10K21 call each
        counts = {"_erlang_log_tails": 0, "_gauss_kronrod": 0}
        for name in counts:

            def counted(*args, name=name, real=getattr(order_stats, name)):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(order_stats, name, counted)
        order_stats._upper_cutoff(120, 10)
        assert counts["_erlang_log_tails"] <= 7
        order_stats._quadrature_gains(120, 120, 10)
        assert counts["_gauss_kronrod"] <= 4

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        dim=st.integers(min_value=1, max_value=4096),
        log_ratios=st.lists(st.floats(min_value=-3.0, max_value=60.0), min_size=2, max_size=40),
    )
    def test_batched_tails_have_the_one_point_bits(self, dim, log_ratios):
        # points on both sides of dim, as the ladder and the grids pass them
        v = dim * np.exp(np.array(log_ratios))
        batch = order_stats._erlang_log_tails(v, dim)
        for i, x in enumerate(v.tolist()):
            one = order_stats._erlang_log_tails(np.array([x]), dim)
            assert (batch[0][i], batch[1][i]) == (one[0][0], one[1][0]), x

    def test_reports_non_convergence(self, monkeypatch):
        # a budget of one interval: the first round's four intervals, between
        # 0, the rungs 10, 20 and 40 and the cutoff, miss the tolerance, and
        # the integrator must say so rather than return their sum
        monkeypatch.setattr(order_stats, "_QUAD_LIMIT", 1)
        message = "adaptive quadrature did not converge for pop=120 dim=10 (ranks 1..1, 4 subintervals used)"
        with pytest.raises(QuadratureError, match=f"^{re.escape(message)}$"):
            gain_quadrature(1, 120, 10)

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
    def test_routes_and_agreement(self, empty_memo):
        value = gain(1, 10, 2)
        assert empty_memo[(10, 2)][0] == value
        assert not closed_form_domain(10, 2)
        assert value == pytest.approx(gain_closed_form(1, 10, 2), rel=1e-13)
        assert value == pytest.approx(gain_quadrature(1, 10, 2), rel=1e-6)

    def test_large_population_uses_quadrature(self, empty_memo):
        value = gain(1, 866, 4)
        assert empty_memo[(866, 4)][0] == value
        assert not closed_form_domain(866, 4)

    @pytest.mark.usefixtures("empty_memo")
    def test_single_draw_exact(self):
        for m in (1, 5, 200):
            assert gain(1, 1, m) == float(m)

    def test_memoization(self, empty_memo):
        first = gain(2, 9, 3)
        filled = dict(empty_memo)
        assert gain(2, 9, 3) == first
        assert empty_memo.keys() == filled.keys()
        assert all(empty_memo[key] is held for key, held in filled.items())

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_quadrature_route_matches_the_rationals(self, dim, monkeypatch, empty_memo):
        # populations 2..30 at dim <= 8, once exact in the memo: every rank,
        # filled by a direct miss and by a walk down from population 30.  The
        # exact gains of population 30 walk down the triangle in rationals,
        # which is an identity; three populations are checked against
        # their own closed form besides
        exact = {30: order_stats._closed_gain_fractions(30, dim)}
        for n in range(30, 2, -1):
            g = exact[n]
            exact[n - 1] = [((n - r) * g[r - 1] + r * g[r]) / n for r in range(1, n)]
        for n in (2, 7, 19):
            assert exact[n] == list(order_stats._closed_gain_fractions(n, dim))

        def unreachable(*args):
            raise AssertionError("the memo took the rationals")

        monkeypatch.setattr(order_stats, "_closed_gain_fractions", unreachable)
        calls = count_quadratures(monkeypatch)
        for walk in (False, True):
            empty_memo.clear()
            for n in range(30, 1, -1):
                if not walk:
                    empty_memo.clear()
                held = gains_up_to(n, n, dim)
                want = np.array([float(g) for g in exact[n]])
                np.testing.assert_allclose(held, want, rtol=1e-13, atol=0.0)
        assert [args[1] for args in calls] == [*range(30, 1, -1), 30]

    @pytest.mark.usefixtures("empty_memo")
    def test_bulk_matches_scalar(self):
        bulk = gains_up_to(4, 40, 6)
        for n in range(1, 5):
            assert bulk[n - 1] == pytest.approx(gain_quadrature(n, 40, 6), rel=1e-9)

    @pytest.mark.usefixtures("empty_memo")
    def test_table_rows(self, tmp_path):
        from wetopt.cli import main

        out, conf = tmp_path / "g.csv", tmp_path / "g.conf"
        conf.write_text(
            "experiment = gtable\nm = 1\nn = 3\nn2 = 1\neta = 0.8\nt_s = 1e-3\n"
            "ps_w = 0.06\nbeta = 1e-6\nn0_j = 1e-19\n"
            f"gtable_ranks = 1, 2\ngtable_n1 = 3\ngtable_m = 1\nout = {out}\n"
        )
        assert main(["gtable", "--config", str(conf)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = [l.split(",") for l in lines[1:]]
        assert rows[0][:3] == ["1", "3", "1"]
        assert rows[0][4] == "closed_form"


class TestTriangle:
    """gains_up_to on the quadrature route: one quadrature at the largest
    population, every smaller one by the order-statistics triangle rule."""

    @pytest.mark.parametrize(
        "pop, dim, rank_max, samples",
        [(120, 10, 16, None), (80, 4, 64, None), (866, 64, 64, 9)],
    )
    def test_matches_direct_quadrature(self, pop, dim, rank_max, samples, empty_memo):
        gains_up_to(rank_max, pop, dim)
        pops = range(rank_max, pop + 1)
        if samples:
            pops = np.unique(np.linspace(rank_max, pop, samples).astype(int))
        for n in pops:
            n = int(n)
            tri = empty_memo[(n, dim)][:rank_max]
            direct = order_stats._quadrature_gains(rank_max, n, dim)
            np.testing.assert_allclose(tri, direct, rtol=1e-11, atol=0.0)
            assert not closed_form_domain(n, dim)

    @pytest.mark.usefixtures("empty_memo")
    def test_optimizer_integrates_once(self, monkeypatch):
        from wetopt.optimizer import optimize_training
        from wetopt.training_model import SystemParams

        calls = count_quadratures(monkeypatch)
        p = SystemParams(m=10, n=120, n2=16, ps=0.06, eta=0.8, t=1e-5, beta=1e-6, n0=1e-19)
        optimize_training(p)
        assert len(calls) == 1

    @pytest.mark.usefixtures("empty_memo")
    def test_gain_ranks_share_one_quadrature(self, monkeypatch):
        # gain() walks ranks one at a time (as cli.emit_gtable does); the
        # first miss keeps every rank of the population it integrated
        calls = count_quadratures(monkeypatch)
        values = [gain(r, 50, 4) for r in range(1, 4)]
        assert len(calls) == 1
        assert values == on_empty_memo(gains_up_to, 3, 50, 4).tolist()

    def test_smaller_population_walks_down_from_whole_one(self, monkeypatch, empty_memo):
        # population 49 below a population 50 held whole: its ranks come from
        # 50's triangle, not from a second quadrature mixed in with it
        calls = count_quadratures(monkeypatch)
        for pop in (50, 49):
            for r in range(1, 4):
                gain(r, pop, 4)
        assert len(calls) == 1
        monkeypatch.undo()
        walked = walk_triangle(order_stats._quadrature_gains(50, 50, 4))
        assert empty_memo[(49, 4)][:3].tolist() == walked[49][:3].tolist()

    def test_miss_below_a_gap_walks_from_whole_one(self, monkeypatch, empty_memo):
        # populations 41..49 are not in the memo, and 50 is held whole
        # (60's walk stopped there): 40 walks down from 50, past the gap
        calls = count_quadratures(monkeypatch)
        gains_up_to(50, 60, 4)
        assert (45, 4) not in empty_memo and empty_memo[(50, 4)].size == 50
        value = gain(1, 40, 4)
        assert [args[1] for args in calls] == [60]
        walked = walk_triangle(empty_memo[(50, 4)])
        for n in range(31, 50):
            assert empty_memo[(n, 4)].tolist() == walked[n][:1].tolist(), n
        assert value == walked[40][0]
        monkeypatch.undo()
        assert value == pytest.approx(gain_quadrature(1, 40, 4), rel=1e-13)

    def test_keeps_closed_form_and_existing_entries(self, empty_memo):
        single = gain(1, 1, 4)
        gains_up_to(20, 20, 4)
        whole = empty_memo[(20, 4)]
        direct = gain(1, 50, 4)
        rank1 = empty_memo[(40, 4)]
        gains_up_to(4, 60, 4)
        assert closed_form_domain(1, 4) and single == 4.0
        assert empty_memo[(20, 4)] is whole and not closed_form_domain(20, 4)
        assert empty_memo[(50, 4)][0] == direct
        # a longer entry replaces a shorter one, keeping its ranks' bits
        assert empty_memo[(40, 4)].size == 4 and empty_memo[(40, 4)][0] == rank1[0]
        # rank 1's walk stops above a single band, whose gain is the dimension
        assert empty_memo[(2, 4)].size == 1 and empty_memo[(1, 4)].tolist() == [4.0]
        assert gains_up_to(4, 30, 4)[0] == pytest.approx(gain_closed_form(1, 30, 4), rel=1e-13)

    def test_gain_miss_served_by_triangle(self, empty_memo):
        # a quadrature-route miss in gain() walks the triangle from its own
        # population: the same bits as gains_up_to there, and every smaller
        # population on the quadrature route is memoized along the way
        value = gain(1, 50, 4)
        assert value == on_empty_memo(gains_up_to, 1, 50, 4)[0]
        assert (40, 4) in empty_memo and not closed_form_domain(40, 4)
        assert gains_up_to(4, 60, 4)[0] == on_empty_memo(gains_up_to, 4, 60, 4)[0]
        assert empty_memo[(50, 4)][0] == value
        assert value == pytest.approx(gain_quadrature(1, 50, 4), rel=1e-12)

    def test_one_source_per_population(self, monkeypatch, empty_memo):
        # rank 1 of populations 31..49 comes from gain(1, 50, 4); ranks 2..4
        # asked for later by gains_up_to(4, 60, 4) must come from 50's
        # triangle too, not from 60's, so no returned value ever changes
        calls = count_quadratures(monkeypatch)
        gain(1, 50, 4)
        gains_up_to(4, 60, 4)
        assert [args[1] for args in calls] == [50, 60]
        monkeypatch.undo()
        for top, pops in ((50, range(31, 50)), (60, range(51, 60))):
            walked = walk_triangle(order_stats._quadrature_gains(top, top, 4))
            for n in pops:
                assert empty_memo[(n, 4)][:4].tolist() == walked[n][:4].tolist(), n

    def test_concurrent_misses_integrate_once(self, monkeypatch, empty_memo):
        # threads missing on the same populations at once: the fill lock lets
        # one of them integrate and walk while the others wait, then read
        calls = count_quadratures(monkeypatch)
        workers = 8
        start = threading.Barrier(workers)
        results: list = [None] * workers

        def work(i):
            start.wait(timeout=30)
            results[i] = (gains_up_to(4, 60, 4).tolist(), gain(1 + i % 4, 45, 4))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert None not in results
        assert len(calls) == 1
        for i, (top, value) in enumerate(results):
            assert top == results[0][0]
            assert value == empty_memo[(45, 4)][i % 4]


def stack_by_rows(rank_max: int, pop: int, dim: int) -> np.ndarray:
    """The stacked view as the optimizer once built it: one fill at ``pop``,
    then one ``gains_up_to`` call per population, ascending."""
    gains_up_to(rank_max, pop, dim)
    return np.array([gains_up_to(rank_max, n, dim) for n in range(rank_max, pop + 1)])


class TestStackedGains:
    """``stacked_gains``: the memo's rows of a range of populations, copied
    once per (rank_max, dim) into one read-only array; a smaller population
    range is a view of its first rows."""

    # a small population, walked down to rank 3; a large one; populations 8..40
    KEYS = [(3, 12, 4), (16, 120, 10), (8, 40, 4)]

    @pytest.mark.parametrize("rank_max, pop, dim", KEYS)
    def test_bits_equal_the_rows(self, rank_max, pop, dim, empty_memo):
        stack = order_stats.stacked_gains(rank_max, pop, dim)
        rows = on_empty_memo(stack_by_rows, rank_max, pop, dim)
        assert stack.shape == (pop - rank_max + 1, rank_max)
        assert stack.tobytes() == rows.tobytes()
        here = np.array([gains_up_to(rank_max, n, dim) for n in range(rank_max, pop + 1)])
        assert stack.tobytes() == here.tobytes()

    @pytest.mark.usefixtures("empty_memo")
    def test_read_only_and_served_again(self, monkeypatch):
        stack = order_stats.stacked_gains(8, 40, 4)
        assert not stack.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0] = 1.0

        def unreachable(*args):
            raise AssertionError("a served range read the gains again")

        monkeypatch.setattr(order_stats, "gains_up_to", unreachable)
        for pop in (40, 20, 8):
            view = order_stats.stacked_gains(8, pop, 4)
            assert not view.flags.writeable
            assert np.shares_memory(view, stack)
            assert view.tobytes() == stack[: pop - 7].tobytes()
        assert list(order_stats._stacks) == [(8, 4)]

    @pytest.mark.usefixtures("empty_memo")
    def test_a_larger_range_replaces_the_smaller(self):
        small = order_stats.stacked_gains(8, 20, 4)
        large = order_stats.stacked_gains(8, 40, 4)
        assert list(order_stats._stacks) == [(8, 4)]
        assert order_stats._stacks[(8, 4)].shape == (33, 8)
        assert large[:13].tobytes() == small.tobytes()
        # rows 8..20 come from population 20's quadrature, 21..40 from 40's
        here = np.array([gains_up_to(8, n, 4) for n in range(8, 41)])
        assert large.tobytes() == here.tobytes()

    @pytest.mark.usefixtures("empty_memo")
    def test_bad_queries_raise_and_keep_the_stack(self):
        stack = order_stats.stacked_gains(8, 40, 4)
        for rank_max, pop, dim in [(8, 7, 4), (8, 0, 4), (0, 40, 4), (8, 40, 0)]:
            with pytest.raises(ValueError):
                order_stats.stacked_gains(rank_max, pop, dim)
        assert order_stats.stacked_gains(8, 40, 4).tobytes() == stack.tobytes()

    @pytest.mark.parametrize("rank_max, pop, dim", KEYS + [(4, 60, 4)])
    def test_cold_build_integrates_as_the_rows_did(self, rank_max, pop, dim, monkeypatch, empty_memo):
        # a population 50 held whole beforehand: the rows read past it
        calls = count_quadratures(monkeypatch)
        gain(1, 50, 4)
        order_stats.stacked_gains(rank_max, pop, dim)
        built = len(calls)
        with mock.patch.object(order_stats, "_memo", {}):
            gain(1, 50, 4)
            stack_by_rows(rank_max, pop, dim)
        assert built == len(calls) - built

    @pytest.mark.usefixtures("empty_memo")
    def test_warm_solve_reads_no_gains(self, monkeypatch):
        from wetopt.optimizer import optimize_training
        from wetopt.training_model import SystemParams

        link = dict(m=4, n=80, n2=64, ps=0.06, eta=0.8, beta=1e-6, n0=1e-19)
        optimize_training(SystemParams(t=1e-7, **link))

        def unreachable(*args):
            raise AssertionError("a warm solve read the gains again")

        stack = order_stats._stacks[(64, 4)]
        for name in ("gains_up_to", "gain", "_held_gains", "_fill"):
            monkeypatch.setattr(order_stats, name, unreachable)
        optimize_training(SystemParams(t=1e-1, **link))
        assert order_stats._stacks[(64, 4)] is stack

    def test_concurrent_builds_integrate_once(self, monkeypatch, empty_memo):
        calls = count_quadratures(monkeypatch)
        workers = 8
        start = threading.Barrier(workers)
        results: list = [None] * workers

        def work(i):
            start.wait(timeout=30)
            results[i] = order_stats.stacked_gains(4, 60, 4).tobytes()

        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 1
        assert set(results) == {on_empty_memo(stack_by_rows, 4, 60, 4).tobytes()}


class TestMemoProperty:
    """Random query orders against one memo: stable bits, one source each."""

    DIM = 4

    def whole_above(self, memo: dict, pop: int) -> int | None:
        # the population a miss walks down from: the smallest above pop that
        # the memo holds whole, past any populations it lacks
        whole = [n for (n, d), held in memo.items() if d == self.DIM and n > pop and held.size == n]
        return min(whole, default=None)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        queries=st.lists(
            st.tuples(
                st.booleans(),
                st.integers(min_value=25, max_value=70).flatmap(
                    lambda pop: st.tuples(st.just(pop), st.integers(1, pop))
                ),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_stable_bits_and_one_source(self, queries):
        dim = self.DIM
        memo: dict = {}
        integrated: list[tuple[int, np.ndarray]] = []
        real = order_stats._quadrature_gains

        def recording(rank_max, pop, dim):
            gains = real(rank_max, pop, dim)
            integrated.append((pop, gains.copy()))
            return gains

        returned: dict[tuple[int, int], float] = {}
        expected_quadratures = 0
        with mock.patch.object(order_stats, "_memo", memo), mock.patch.object(
            order_stats, "_quadrature_gains", recording
        ):
            for bulk, (pop, rank) in queries:
                held = memo.get((pop, dim))
                miss = held is None or held.size < rank
                if miss and not closed_form_domain(pop, dim):
                    expected_quadratures += self.whole_above(memo, pop) is None
                if bulk:
                    pairs = enumerate(gains_up_to(rank, pop, dim).tolist(), start=1)
                else:
                    pairs = [(rank, gain(rank, pop, dim))]
                for r, value in pairs:
                    assert returned.setdefault((r, pop), value) == value, (r, pop)
            # every value returned once is returned again after all the fills
            for (r, pop), value in returned.items():
                assert gain(r, pop, dim) == value, (r, pop)
        assert len(integrated) == expected_quadratures
        walks = [(top, walk_triangle(level)) for top, level in integrated]
        for (n, _), held in memo.items():
            if closed_form_domain(n, dim):
                exact = order_stats._closed_gain_fractions(n, dim)
                assert held.tolist() == [float(g) for g in exact]
            else:
                assert any(
                    walked[n][: held.size].tolist() == held.tolist()
                    for top, walked in walks
                    if top >= n
                ), n


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

    @pytest.mark.usefixtures("empty_memo")
    def test_monotone_in_rank(self):
        vals = gains_up_to(6, 6, 3)
        assert np.all(np.diff(vals) < 0)

    @pytest.mark.usefixtures("empty_memo")
    def test_monotone_in_population_and_dimension(self):
        pops = [gain(1, pop, 2) for pop in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(pops, pops[1:]))
        dims = [gain(1, 5, m) for m in (1, 2, 4, 8)]
        assert all(a < b for a, b in zip(dims, dims[1:]))

    @pytest.mark.usefixtures("empty_memo")
    def test_record_gain_bound(self):
        # every rank is bounded by the dimension times the scalar record gain
        for pop, m in [(6, 3), (10, 2), (4, 4)]:
            cap = m * gain(1, pop, 1)
            vals = gains_up_to(pop, pop, m)
            assert np.all(vals <= cap + 1e-12)

    @pytest.mark.usefixtures("empty_memo")
    def test_channel_hardening_ratio(self):
        # at very large dimension the record gain collapses to the mean
        ratio = gain(1, 16, 4096) / 4096.0
        assert 1.0 <= ratio <= 1.1

    @pytest.mark.usefixtures("empty_memo")
    def test_triple_agreement(self):
        for pop in (1, 2, 3, 5, 8):
            for m in (1, 2, 4):
                quad_vals = gains_up_to(pop, pop, m)
                for rank in (1, pop):
                    closed = gain_closed_form(rank, pop, m)
                    assert closed == pytest.approx(quad_vals[rank - 1], rel=1e-6)
                mc, stderr = gain_monte_carlo(1, pop, m, 60_000, seed=17)
                assert abs(mc - quad_vals[0]) <= 3.0 * stderr + 1e-12
