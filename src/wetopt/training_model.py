"""Link parameters and closed-form energy accounting for two-phase training.

The protocol: the receiver sends pilots on ``n1`` sub-bands (energy ``e1``
each); the transmitter ranks the bands by received pilot energy, reports
the strongest ``n2``, and those are trained again (per-rank energies
``e2``) to support transmit beamforming.  This module provides the exact
expected channel powers of the ranked bands and the average / net
harvested-energy expressions that the optimizer and the simulator both
rely on.

Units are strict SI throughout: energies in joules, powers in watts,
times in seconds.  Channel entries have variance ``beta`` (dimensionless
amplitude-squared path gain); ``n0`` is the noise energy per pilot
observation entry after matched filtering.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from . import order_stats

__all__ = [
    "SystemParams",
    "TrainingPlan",
    "average_harvested_energy",
    "check_n1",
    "esnr",
    "expected_selected_power",
    "net_harvested_energy",
    "refinement_threshold",
    "selected_powers",
]


@dataclass(frozen=True)
class SystemParams:
    """Physical constants of one energy-transfer link.

    m:    transmit antennas (>= 1)
    n:    available sub-bands
    n2:   sub-bands active for transfer (power budget / per-band cap)
    ps:   transmit power per active sub-band, watts
    eta:  RF-to-DC conversion efficiency, 0 < eta <= 1
    t:    block length, seconds
    beta: average two-way amplitude-squared path gain
    n0:   noise energy per pilot observation entry, joules
    """

    m: int
    n: int
    n2: int
    ps: float
    eta: float
    t: float
    beta: float
    n0: float

    def __post_init__(self) -> None:
        for name in ("m", "n", "n2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.m < 1:
            raise ValueError(f"antenna count must be >= 1, got {self.m}")
        if self.n < 1:
            raise ValueError(f"sub-band count must be >= 1, got {self.n}")
        if not 1 <= self.n2 <= self.n:
            raise ValueError(f"active bands must be in [1, {self.n}], got {self.n2}")
        for name in ("ps", "eta", "t", "beta", "n0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.eta > 1:
            raise ValueError(f"conversion efficiency must be <= 1, got {self.eta}")

    @property
    def eta_t_ps(self) -> float:
        """Harvest scale eta * t * ps, joules per unit channel power."""
        return self.eta * self.t * self.ps


@dataclass(frozen=True)
class TrainingPlan:
    """One candidate training design: (n1, e1, per-rank e2)."""

    n1: int
    e1: float
    e2: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.e1) and self.e1 >= 0):
            raise ValueError(f"phase-1 energy must be finite and >= 0, got {self.e1}")
        if not all(math.isfinite(x) and x >= 0 for x in self.e2):
            raise ValueError("phase-2 energies must be finite and >= 0")
        object.__setattr__(self, "e2", tuple(float(x) for x in self.e2))

    def validate_against(self, p: SystemParams) -> None:
        check_n1(self.n1, p)
        if len(self.e2) != p.n2:
            raise ValueError(
                f"need one phase-2 energy per active band ({p.n2}), got {len(self.e2)}"
            )

    @property
    def cost(self) -> float:
        """Total pilot energy spent by the receiver, joules."""
        return self.e1 * self.n1 + math.fsum(self.e2)


def check_n1(n1: int, p: SystemParams) -> None:
    """Raise unless n1 probed bands can feed the n2 active ones: n2 <= n1 <= n."""
    if not p.n2 <= n1 <= p.n:
        raise ValueError(f"trained bands must satisfy {p.n2} <= n1 <= {p.n}, got {n1}")


def selected_powers(gains, e1: float, p: SystemParams):
    """(beta^2 e1 g + beta n0 m) / (beta e1 + n0) for noise-free gains g, a
    float or an array: expected selected powers, unchecked (a hot path)."""
    return (p.beta**2 * e1 * gains + p.beta * p.n0 * p.m) / (p.beta * e1 + p.n0)


def expected_selected_power(rank: int, n1: int, e1: float, p: SystemParams) -> float:
    """Expected squared channel norm of the rank-th band after noisy selection.

    Interpolates between ``beta*m`` (selection by pure noise at e1 = 0) and
    ``beta * gain(rank, n1, m)`` (noise-free ranking as e1 grows), with the
    blend set by the training-energy-to-noise ratio.
    """
    if not 1 <= rank <= n1:
        raise ValueError(f"rank must be in [1, {n1}], got {rank}")
    if e1 < 0:
        raise ValueError(f"phase-1 energy must be >= 0, got {e1}")
    return selected_powers(order_stats.gain(rank, n1, p.m), e1, p)


def average_harvested_energy(plan: TrainingPlan, p: SystemParams) -> float:
    """Mean energy harvested per block under the plan, joules.

    Per selected band: the perfect-beamforming harvest on its expected
    power, minus the loss from beamforming on an imperfect estimate.  The
    loss term vanishes for a single transmit antenna (nothing to align)
    and as the phase-2 pilot energy grows.
    """
    plan.validate_against(p)
    gains = order_stats.gains_up_to(p.n2, plan.n1, p.m)
    terms = []
    for e2, rn in zip(plan.e2, selected_powers(gains, plan.e1, p)):
        loss = (p.m - 1) * p.n0 / (e2 * rn + p.n0 * p.m)
        terms.append(rn * (1.0 - loss))
    return p.eta_t_ps * math.fsum(terms)


def net_harvested_energy(plan: TrainingPlan, p: SystemParams) -> float:
    """Average harvested energy minus total pilot energy spent, joules."""
    return average_harvested_energy(plan, p) - plan.cost


def esnr(p: SystemParams) -> float:
    """Two-way effective SNR: pilot energy scale times beta^2 over noise.

    The squared path gain reflects attenuation on both the reverse pilot
    link and the forward transfer link.
    """
    return p.eta_t_ps * p.beta**2 / p.n0


def refinement_threshold(p: SystemParams) -> float:
    """Channel power above which phase-2 training pays for itself.

    Bands whose expected power falls below this threshold receive zero
    phase-2 energy at the optimum.  With a single antenna beamforming
    buys nothing, so the threshold is +inf.
    """
    if p.m == 1:
        return math.inf
    return math.sqrt(p.n0) * p.m / math.sqrt(p.eta_t_ps * (p.m - 1))
