"""Limits and bounds for many antennas or many sub-bands.

Two regimes admit sharp statements: with many transmit antennas the net
harvested energy grows linearly in the array size and probing becomes
pointless (channel hardening kills frequency diversity); with many
sub-bands the net energy saturates at a constant set by the effective
SNR, because probing cost grows linearly while the diversity gain grows
only logarithmically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import order_stats
from .training_model import SystemParams, TrainingPlan, esnr

__all__ = [
    "BoundReport",
    "LargeArrayLimit",
    "lambert_w0",
    "large_antenna_limit",
    "perfect_csi_average",
    "saturation_bound",
]

_W_RESIDUAL = 1e-12


def lambert_w0(z: float) -> float:
    """Principal branch of w * exp(w) = z, for z >= -1/e.

    Halley iteration from a regime-appropriate starting point; the result
    satisfies |w*exp(w) - z| <= 1e-12 * max(1, |z|).
    """
    if not math.isfinite(z):
        raise ValueError(f"argument must be finite, got {z}")
    branch_point = -1.0 / math.e
    if z < branch_point - 1e-15 * abs(branch_point):
        raise ValueError(f"argument must be >= -1/e, got {z}")
    z = max(z, branch_point)
    if z >= math.e:
        w = math.log(z) - math.log(math.log(z))
    elif z > -0.25:
        w = z / (1.0 + z) if z > -0.9 else z
    else:
        # near the branch point: expansion in sqrt(2 (e z + 1))
        q = math.sqrt(max(2.0 * (math.e * z + 1.0), 0.0))
        w = -1.0 + q - q * q / 3.0
    tol = _W_RESIDUAL * max(1.0, abs(z))
    for _ in range(100):
        ew = math.exp(w)
        resid = w * ew - z
        if abs(resid) <= 0.1 * tol:
            return w
        d1 = ew * (w + 1.0)
        step = resid / (d1 - (w + 2.0) * resid / (2.0 * w + 2.0))
        w -= step
    if abs(w * math.exp(w) - z) <= tol:
        return w
    raise ArithmeticError(f"Lambert W iteration did not converge for z={z}")


@dataclass(frozen=True)
class LargeArrayLimit:
    """Asymptotic design and value for a large antenna array.

    Probing is off, every selected band gets the same pilot energy
    sqrt(eta*t*ps*n0*m), and the net energy approaches
    eta*t*n2*ps*beta*m (linear in the array size).
    """

    plan: TrainingPlan
    qnet_limit: float


def large_antenna_limit(p: SystemParams) -> LargeArrayLimit:
    e2 = math.sqrt(p.eta_t_ps * p.n0 * p.m)
    plan = TrainingPlan(n1=p.n2, e1=0.0, e2=(e2,) * p.n2)
    return LargeArrayLimit(plan=plan, qnet_limit=p.eta_t_ps * p.n2 * p.beta * p.m)


def perfect_csi_average(p: SystemParams, n_bands: int | None = None) -> float:
    """Average harvested energy with free, perfect channel knowledge.

    The selection picks the n2 strongest of ``n_bands`` i.i.d. bands and
    beamforms exactly, so the average is the harvest scale times the sum
    of the top ordered gains.
    """
    n_bands = p.n if n_bands is None else n_bands
    if n_bands < p.n2:
        raise ValueError(f"need at least {p.n2} bands, got {n_bands}")
    gains = order_stats.gains_up_to(p.n2, n_bands, p.m)
    return p.eta_t_ps * p.beta * float(np.sum(gains))


@dataclass(frozen=True)
class BoundReport:
    """Upper bound on the optimized net energy.

    ``bound`` is the exact optimum of the relaxed problem (single-antenna
    diversity bound swept over n1 with exact harmonic sums);
    ``lambert_bound`` is its closed-form approximation through the
    Lambert W function.  ``trivial_branch`` marks the low-ESNR regime in
    which the relaxation already forbids any training gain.
    """

    bound: float
    lambert_bound: float
    n1_star: int
    trivial_branch: bool


def saturation_bound(p: SystemParams) -> BoundReport:
    """Net-energy ceiling for a wideband link.

    Maximizes the relaxed objective over the number of probed bands.  The
    relaxation replaces each ranked gain by the single-antenna record
    gain scaled by the antenna count, which decouples the bound from
    everything but harmonic sums; the exact sweep is returned, the
    Lambert W closed form is attached for reference.
    """
    gamma = esnr(p)
    scale = p.eta_t_ps * p.n2 * p.m * p.beta
    n1 = np.arange(p.n2, p.n + 1, dtype=float)
    if p.m == 1 and p.n2 == 1:
        # The relaxation is tight here, so the bound must consume the same
        # memoized gains as the optimizer or it can dip below the optimum
        # by a rounding ulp.
        harmonic = np.array([order_stats.gain(1, k, 1) for k in range(1, p.n + 1)])
    else:
        harmonic = np.cumsum(1.0 / np.arange(1, p.n + 1))
    surplus = harmonic[p.n2 - 1 :] - 1.0
    cost = n1 / (gamma * p.n2 * p.m)
    gains = np.where(
        surplus < cost,
        0.0,
        (np.sqrt(np.maximum(surplus, 0.0)) - np.sqrt(cost)) ** 2,
    )
    values = scale * (1.0 + gains)
    best = int(np.argmax(values))
    w = lambert_w0(gamma * p.n2 * p.m)
    lam = scale * (1.0 + (math.sqrt(w) - 1.0 / math.sqrt(w)) ** 2) if w > 0 else scale
    return BoundReport(
        bound=float(values[best]),
        lambert_bound=lam,
        n1_star=p.n2 + best,
        trivial_branch=bool(np.all(surplus < cost)),
    )
