"""Closed-form expected powers and energy accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wetopt import channel_sim, optimizer, order_stats
from wetopt.training_model import (
    SystemParams,
    TrainingPlan,
    average_harvested_energy,
    esnr,
    expected_selected_power,
    net_harvested_energy,
    refinement_threshold,
)


def params(**overrides) -> SystemParams:
    base = dict(m=4, n=12, n2=3, ps=0.06, eta=0.8, t=1e-3, beta=1e-6, n0=1e-19)
    base.update(overrides)
    return SystemParams(**base)


class TestSystemParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            params(m=0)
        with pytest.raises(ValueError):
            params(n2=13)
        with pytest.raises(ValueError):
            params(eta=1.5)
        with pytest.raises(ValueError):
            params(beta=0.0)

    def test_plan_validation(self):
        p = params()
        with pytest.raises(ValueError):
            TrainingPlan(n1=5, e1=-1.0, e2=(0.0,) * 3)
        with pytest.raises(ValueError):
            TrainingPlan(n1=2, e1=0.0, e2=(0.0,) * 3).validate_against(p)
        with pytest.raises(ValueError):
            TrainingPlan(n1=5, e1=0.0, e2=(0.0,) * 2).validate_against(p)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("ps", math.nan),
            ("eta", math.nan),
            ("t", math.inf),
            ("beta", math.inf),
            ("n0", math.inf),
            ("m", 2.5),
            ("m", True),
            ("n", 12.0),
            ("n2", False),
        ],
    )
    def test_rejects_non_finite_and_non_integer(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            params(**{field: value})

    def test_accepts_numpy_integers(self):
        p = params(m=np.int64(4), n=np.int32(12))
        assert p.m == 4 and p.n == 12

    @pytest.mark.parametrize(
        "e1, e2",
        [
            (math.nan, (0.0,) * 3),
            (math.inf, (0.0,) * 3),
            (0.0, (0.0, math.nan, 0.0)),
            (0.0, (math.inf, 0.0, 0.0)),
        ],
    )
    def test_plan_rejects_non_finite_energies(self, e1, e2):
        with pytest.raises(ValueError, match="finite"):
            TrainingPlan(n1=5, e1=e1, e2=e2)

    def test_plan_cost(self):
        plan = TrainingPlan(n1=5, e1=2.0, e2=(1.0, 0.5, 0.25))
        assert plan.cost == pytest.approx(10.0 + 1.75)


class TestExpectedSelectedPower:
    def test_no_training_gives_prior(self):
        p = params()
        for rank in (1, 2, 3):
            assert expected_selected_power(rank, 8, 0.0, p) == pytest.approx(
                p.beta * p.m, rel=1e-14
            )

    def test_large_energy_reaches_ordered_gain(self):
        p = params()
        g1 = order_stats.gain(1, 8, p.m)
        value = expected_selected_power(1, 8, 1.0, p)  # e1/n0 ~ 1e19
        assert value == pytest.approx(p.beta * g1, rel=1e-9)

    def test_single_band_has_no_selection_gain(self):
        p = params(n2=1)
        for e1 in (0.0, 1e-15, 1e-3):
            assert expected_selected_power(1, 1, e1, p) == pytest.approx(
                p.beta * p.m, rel=1e-12
            )

    def test_bounds_and_monotonicity(self):
        p = params()
        g2 = order_stats.gain(2, 10, p.m)
        grid = [0.0] + list(np.geomspace(1e-16, 1e-6, 40))
        vals = [expected_selected_power(2, 10, e1, p) for e1 in grid]
        assert all(p.beta * p.m - 1e-20 <= v <= p.beta * g2 + 1e-20 for v in vals)
        assert all(a <= b + 1e-20 for a, b in zip(vals, vals[1:]))

    def test_rank_ordering(self):
        p = params()
        e1 = 3e-13
        vals = [expected_selected_power(r, 9, e1, p) for r in (1, 2, 3)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            expected_selected_power(4, 3, 0.0, params())


class TestTrainedBandRange:
    """One n2 <= n1 <= n check behind every entry point that takes an n1."""

    ENTRY_POINTS = {
        "solve_for_n1": lambda n1, p: optimizer.solve_for_n1(n1, p),
        "classify_esnr_case": lambda n1, p: optimizer.classify_esnr_case(n1, p),
        "net_energy_given_phase1": lambda n1, p: optimizer.net_energy_given_phase1(
            n1, 1e-13, p
        ),
        "ranked_power_moments": lambda n1, p: channel_sim.ranked_power_moments(
            n1, 1e-13, p, 10, 0
        ),
        "validate_against": lambda n1, p: TrainingPlan(
            n1=n1, e1=1e-13, e2=(0.0,) * p.n2
        ).validate_against(p),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_rejects_outside_range(self, entry):
        p = params()
        call = self.ENTRY_POINTS[entry]
        for n1 in (p.n2 - 1, p.n + 1):
            message = rf"^trained bands must satisfy 3 <= n1 <= 12, got {n1}$"
            with pytest.raises(ValueError, match=message):
                call(n1, p)
        call(p.n2, p)
        call(p.n, p)


class TestHarvestedEnergy:
    def test_single_antenna_ignores_phase2(self):
        p = params(m=1)
        base = TrainingPlan(n1=6, e1=1e-13, e2=(0.0,) * 3)
        spent = TrainingPlan(n1=6, e1=1e-13, e2=(1e-12, 2e-12, 3e-12))
        assert average_harvested_energy(base, p) == pytest.approx(
            average_harvested_energy(spent, p), rel=1e-14
        )

    def test_infinite_pilots_reach_selection_harvest(self):
        p = params()
        plan = TrainingPlan(n1=8, e1=2e-13, e2=(1.0,) * 3)
        expected = p.eta_t_ps * math.fsum(
            expected_selected_power(r, 8, 2e-13, p) for r in (1, 2, 3)
        )
        assert average_harvested_energy(plan, p) == pytest.approx(expected, rel=1e-9)

    def test_zero_plan_value(self):
        p = params()
        plan = TrainingPlan(n1=p.n2, e1=0.0, e2=(0.0,) * p.n2)
        expected = p.eta_t_ps * p.beta * p.n2
        assert average_harvested_energy(plan, p) == pytest.approx(expected, rel=1e-14)
        assert net_harvested_energy(plan, p) == pytest.approx(expected, rel=1e-14)

    def test_monotone_in_phase2_energy(self):
        p = params()
        values = [
            average_harvested_energy(TrainingPlan(n1=8, e1=1e-13, e2=(e2, 0.0, 0.0)), p)
            for e2 in (0.0, 1e-13, 1e-12, 1e-11)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_harvest_ceiling(self):
        p = params()
        plan = TrainingPlan(n1=8, e1=1e-9, e2=(1e-9,) * 3)
        ceiling = p.eta_t_ps * p.beta * float(
            np.sum(order_stats.gains_up_to(3, 8, p.m))
        )
        assert average_harvested_energy(plan, p) <= ceiling

    def test_net_can_go_negative(self):
        p = params()
        plan = TrainingPlan(n1=12, e1=1.0, e2=(0.0,) * 3)
        assert net_harvested_energy(plan, p) < 0.0


class TestScalars:
    def test_esnr_quadratic_in_path_gain(self):
        p = params()
        assert esnr(params(beta=2e-6)) == pytest.approx(4.0 * esnr(p), rel=1e-12)

    def test_esnr_ism_value(self):
        p = params(m=10, n=866, n2=16, t=5e-5)
        assert esnr(p) == pytest.approx(24.0, rel=1e-12)

    def test_single_antenna_threshold_is_infinite(self):
        assert refinement_threshold(params(m=1)) == math.inf

    def test_threshold_grows_like_sqrt_dimension(self):
        # alpha = sqrt(n0) m / sqrt(eta t ps (m-1)) ~ sqrt(n0 m / (eta t ps))
        a64 = refinement_threshold(params(m=64))
        a16 = refinement_threshold(params(m=16))
        assert a64 / a16 == pytest.approx(4.0 * math.sqrt(15.0 / 63.0), rel=1e-12)
        assert a64 / a16 == pytest.approx(math.sqrt(64.0 / 16.0), rel=0.03)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        m=st.integers(min_value=2, max_value=128),
        scale=st.floats(min_value=1e-22, max_value=1e-10),
    )
    def test_threshold_identity(self, m, scale):
        p = params(m=m, n0=scale)
        alpha = refinement_threshold(p)
        assert alpha**2 * (m - 1) / m**2 * p.eta_t_ps / p.n0 == pytest.approx(
            1.0, rel=1e-12
        )
