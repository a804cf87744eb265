"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from wetopt import SystemParams, order_stats
from wetopt.training_model import refinement_threshold


def ism_params(m: int, t: float) -> SystemParams:
    """The 902-928 MHz ISM-band scenario used for figure-scale runs.

    866 sub-bands of 30 kHz, 16 active under the 1 W total / 60 mW
    per-band caps, 60 dB path loss, -160 dBm/Hz receiver noise density
    (equal to the per-observation noise energy for unit-energy pilots).
    """
    return SystemParams(
        m=m, n=866, n2=16, ps=0.06, eta=0.8, t=t, beta=1e-6, n0=1e-19
    )


@pytest.fixture
def empty_memo(monkeypatch) -> dict:
    """An empty gain memo, with no stacked views of it, for one test; the
    process-wide ones return after."""
    memo: dict = {}
    monkeypatch.setattr(order_stats, "_memo", memo)
    monkeypatch.setattr(order_stats, "_stacks", {})
    return memo


@pytest.fixture
def small_params() -> SystemParams:
    return SystemParams(
        m=4, n=12, n2=3, ps=0.06, eta=0.8, t=1e-3, beta=1e-6, n0=1e-19
    )


def random_instance(rng: np.random.Generator, kind: str) -> SystemParams:
    """Random small system whose ESNR regime is steered to ``kind``.

    The noise energy is back-solved from a target refinement threshold
    placed in the interval that forces the requested regime (at least for
    the largest trained-band count; smaller counts may classify
    differently, which is exactly the behavior the optimizer must handle).
    """
    n = int(rng.integers(2, 9))
    n2 = int(rng.integers(1, min(3, n) + 1))
    m = 1 if (kind == "low" and rng.random() < 0.3) else int(rng.integers(2, 5))
    eta = float(rng.uniform(0.3, 1.0))
    t = 10.0 ** rng.uniform(-4.0, -2.0)
    ps = 10.0 ** rng.uniform(-2.0, 0.0)
    beta = 10.0 ** rng.uniform(-7.0, -5.0)
    if m == 1:
        n0 = 10.0 ** rng.uniform(-20.0, -14.0)
        return SystemParams(m=m, n=n, n2=n2, ps=ps, eta=eta, t=t, beta=beta, n0=n0)
    top = order_stats.gain(1, n, m)
    if kind == "low":
        alpha = beta * top * float(rng.uniform(1.05, 3.0))
    elif kind == "high":
        alpha = beta * m * float(rng.uniform(0.05, 0.95))
    elif kind == "medium":
        alpha = beta * float(rng.uniform(m * 1.001, top * 0.999))
    else:
        raise ValueError(kind)
    n0 = alpha**2 * eta * t * ps * (m - 1) / m**2
    p = SystemParams(m=m, n=n, n2=n2, ps=ps, eta=eta, t=t, beta=beta, n0=n0)
    assert math.isclose(refinement_threshold(p), alpha, rel_tol=1e-9)
    return p


def grid_oracle_best(p: SystemParams, n_e1: int = 400, n_e2: int = 240) -> float:
    """Brute-force maximum of the net energy over a dense design grid.

    Independent of the optimizer: sweeps every trained-band count, a log
    grid in phase-1 energy (capped where the linear cost alone exceeds
    the gross harvest ceiling) and, per band, a log grid in phase-2
    energy (capped above the water level, beyond which more pilot energy
    is pure loss).
    """
    scale = p.eta_t_ps
    ceiling = scale * p.beta * float(
        np.sum(order_stats.gains_up_to(p.n2, p.n, p.m))
    )
    if p.m > 1:
        level = math.sqrt(scale * (p.m - 1) * p.n0)
        e2s = np.concatenate([[0.0], np.geomspace(level * 1e-6, level * 1.5, n_e2)])
    else:
        e2s = np.array([0.0])
    best = -math.inf
    for n1 in range(p.n2, p.n + 1):
        gains = order_stats.gains_up_to(p.n2, n1, p.m)
        emax = ceiling / n1
        e1s = np.concatenate([[0.0], np.geomspace(emax * 1e-9, emax, n_e1)])
        powers = (
            p.beta**2 * e1s[:, None] * gains[None, :] + p.beta * p.n0 * p.m
        ) / (p.beta * e1s[:, None] + p.n0)
        harvested = scale * powers[:, :, None] * (
            1.0
            - (p.m - 1) * p.n0 / (e2s[None, None, :] * powers[:, :, None] + p.n0 * p.m)
        ) - e2s[None, None, :]
        value = harvested.max(axis=2).sum(axis=1) - n1 * e1s
        best = max(best, float(value.max()))
    return best
