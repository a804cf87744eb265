"""Large-array and wideband limits, the Lambert W evaluator, and bounds."""

import math

import pytest
from scipy.special import lambertw as scipy_lambertw

from wetopt.asymptotics import (
    lambert_w0,
    large_antenna_limit,
    perfect_csi_average,
    saturation_bound,
)
from wetopt.optimizer import optimize_training
from wetopt.order_stats import gain
from wetopt.training_model import SystemParams, esnr


def params(**overrides) -> SystemParams:
    base = dict(m=4, n=12, n2=3, ps=0.06, eta=0.8, t=1e-3, beta=1e-6, n0=1e-19)
    base.update(overrides)
    return SystemParams(**base)


def bisect_w(z: float) -> float:
    """Independent oracle: bisection on w*exp(w) - z."""
    lo, hi = -1.0, max(1.0, math.log(z + 1.0) + 1.0) if z > 0 else 0.0
    if z < 0:
        lo, hi = -1.0, 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)
        assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-9)

    def test_against_bisection(self):
        for z in (-0.3, -0.05, 0.2, 3.7, 42.0):
            assert lambert_w0(z) == pytest.approx(bisect_w(z), abs=1e-10)

    def test_against_scipy(self):
        for k in range(-3, 7):
            z = 10.0**k
            assert lambert_w0(z) == pytest.approx(
                float(scipy_lambertw(z).real), rel=1e-12
            )

    def test_residual_invariant(self):
        for k in range(-3, 7):
            z = 10.0**k
            w = lambert_w0(z)
            assert abs(w * math.exp(w) - z) <= 1e-12 * max(1.0, z)

    def test_branch_point(self):
        assert lambert_w0(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.4)
        with pytest.raises(ValueError):
            lambert_w0(float("nan"))


class TestLargeArrayLimit:
    def test_limit_plan_shape(self):
        p = params()
        limit = large_antenna_limit(p)
        assert limit.plan.e1 == 0.0
        assert limit.plan.e2 == (math.sqrt(p.eta_t_ps * p.n0 * p.m),) * p.n2
        assert limit.qnet_limit == pytest.approx(p.eta_t_ps * p.n2 * p.beta * p.m)

    def test_probing_share_decays_with_antennas(self):
        # channel hardening makes probing relatively pointless; its budget
        # share decays like the fourth root of the array size
        shares = []
        for m in (100, 1000, 10000):
            p = params(m=m, n=16, n2=4, t=1e-2)
            sol = optimize_training(p)
            refine = sum(sol.plan.e2)
            assert refine > 0
            shares.append(sol.plan.e1 * sol.plan.n1 / refine)
        assert shares[0] > shares[1] > shares[2]
        assert shares[2] < 0.3

    def test_value_ratio_converges_with_antennas(self):
        gaps = []
        for m in (100, 1000):
            p = params(m=m, n=16, n2=4, t=1e-2)
            sol = optimize_training(p)
            gaps.append(abs(sol.qnet_star / large_antenna_limit(p).qnet_limit - 1.0))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 0.1

    def test_refinement_energy_converges_with_antennas(self):
        p = params(m=1000, n=16, n2=4, t=1e-2)
        sol = optimize_training(p)
        limit = large_antenna_limit(p)
        assert sol.plan.e2[0] / limit.plan.e2[0] == pytest.approx(1.0, abs=0.1)


class TestPerfectCsiAverage:
    def test_degenerate_single_everything(self):
        p = SystemParams(m=1, n=1, n2=1, ps=0.06, eta=0.8, t=1e-3, beta=1e-6, n0=1e-19)
        assert perfect_csi_average(p) == pytest.approx(p.eta_t_ps * p.beta, rel=1e-12)

    def test_logarithmic_window(self):
        p = SystemParams(m=1, n=100, n2=1, ps=0.06, eta=0.8, t=1e-3, beta=1e-6, n0=1e-19)
        scale = p.eta_t_ps * p.beta
        for n in (100, 1000, 2000):
            ratio = perfect_csi_average(p, n) / (scale * math.log(n))
            assert 0.9 <= ratio <= 1.5

    def test_record_gain_ceiling(self):
        p = params()
        cap = p.eta_t_ps * p.beta * p.n2 * p.m * gain(1, p.n, 1)
        assert perfect_csi_average(p) <= cap

    def test_band_count_validation(self):
        with pytest.raises(ValueError):
            perfect_csi_average(params(), 2)


class TestSaturationBound:
    def test_trivial_branch_at_tiny_esnr(self):
        p = params(n0=1e-3)
        report = saturation_bound(p)
        assert report.trivial_branch
        assert report.bound == pytest.approx(
            p.eta_t_ps * p.n2 * p.m * p.beta, rel=1e-12
        )

    def test_dominates_exact_optimum_siso(self):
        for n in (20, 100, 500):
            p = SystemParams(
                m=1, n=n, n2=1, ps=0.06, eta=0.8, t=0.05, beta=1e-6, n0=1e-19
            )
            sol = optimize_training(p)
            report = saturation_bound(p)
            assert report.bound >= sol.qnet_star

    def test_lambert_form_tracks_exact_sweep(self):
        # wide band, strong ESNR: the closed form's harmonic-to-log
        # approximation settles to within a few percent of the exact sweep
        p = params(m=4, n2=4, n=200_000, t=2e-2, beta=3e-6)
        assert esnr(p) * p.n2 * p.m > 1e6
        report = saturation_bound(p)
        assert not report.trivial_branch
        assert report.lambert_bound == pytest.approx(report.bound, rel=0.05)
