"""Ordered-gain computations: the three routes must agree and obey the
exact structural identities (sum rule, rank monotonicity, bounds)."""

import decimal
import math
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
    def test_routes_and_agreement(self, empty_memo):
        value = gain(1, 10, 2)
        assert empty_memo[(10, 2)][0] == value
        assert closed_form_domain(10, 2)
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
        assert len(empty_memo) == 1
        assert gain(2, 9, 3) == first
        assert len(empty_memo) == 1

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

    def test_keeps_closed_form_and_existing_entries(self, empty_memo):
        closed = gains_up_to(4, 20, 4)
        direct = gain(1, 50, 4)
        gains_up_to(4, 60, 4)
        assert closed_form_domain(20, 4)
        for r in range(1, 5):
            assert empty_memo[(20, 4)][r - 1] == closed[r - 1]
        assert empty_memo[(50, 4)][0] == direct
        # below the closed-form cap the triangle stops writing
        assert (30, 4) not in empty_memo
        assert empty_memo[(31, 4)].size >= 4 and not closed_form_domain(31, 4)
        assert gains_up_to(4, 30, 4)[0] == gain_closed_form(1, 30, 4)

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


class TestMemoProperty:
    """Random query orders against one memo: stable bits, one source each."""

    DIM = 4

    def whole_above(self, memo: dict, pop: int) -> int | None:
        # the population a miss walks down from: the first held whole when
        # stepping up from pop + 1 through the populations the memo holds
        top = pop + 1
        while (top, self.DIM) in memo:
            if memo[(top, self.DIM)].size == top:
                return top
            top += 1
        return None

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
