"""Exact maximization of the net harvested energy over training designs.

The search space is (n1, e1, {e2 per rank}).  With (n1, e1) fixed, the
optimal per-rank phase-2 energy is a closed-form water-filling rule, so
the problem collapses to a one-dimensional search over e1 for each n1,
followed by an argmax over n1.

The reduced objective in e1 is a sum of linear fractional terms minus a
linear cost.  Its shape depends on where the per-rank expected powers sit
relative to the refinement threshold, which splits the parameter space
into three ESNR regimes:

* low:    no band ever clears the threshold; phase 2 is off and the
  optimum is closed form,
* high:   the channel-hardening floor clears the threshold,
* medium: bands rise through the threshold as e1 grows.

Both split the e1 axis where ranks cross the threshold.  Each piece has
at most one stationary point, certified and found by a bracketed Newton
iteration in the phase-1 pilot SNR x = beta * e1 / n0 (``_stationary_snrs``).
:func:`poly_real_roots` is the tests' root oracle for the same points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import order_stats
from .training_model import (
    SystemParams,
    TrainingPlan,
    esnr,
    expected_selected_power,
    refinement_threshold,
)

__all__ = [
    "CaseLabel",
    "CaseSolution",
    "RootFindingError",
    "Solution",
    "classify_esnr_case",
    "min_phase2_penalty",
    "net_energy_given_phase1",
    "optimal_phase2_energy",
    "optimize_training",
    "poly_real_roots",
    "solve_brute_force",
    "solve_for_n1",
    "solve_high_esnr",
    "solve_low_esnr",
    "solve_medium_esnr",
    "solve_phase1_only",
    "solve_phase2_only",
]

LOW_ESNR = "low_esnr"
HIGH_ESNR = "high_esnr"
MEDIUM_ESNR = "medium_esnr"

# Newton-or-bisection steps per piece before raising; pieces have taken at
# most ten, bisection alone would take about 52 + log2(bracket / root)
_ROOT_STEPS = 200


class RootFindingError(RuntimeError):
    """Polynomial root extraction failed to converge."""

    def __init__(self, message: str, coeffs: np.ndarray):
        super().__init__(f"{message}; coefficients (low to high): {coeffs.tolist()}")
        self.coeffs = coeffs


@dataclass(frozen=True)
class CaseLabel:
    """ESNR regime of one (n1, params) instance.

    ``j`` is set only in the medium regime: the number of ranks whose
    noise-free expected power sits strictly above the refinement
    threshold.
    """

    kind: str
    j: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (LOW_ESNR, HIGH_ESNR, MEDIUM_ESNR):
            raise ValueError(f"unknown case kind {self.kind!r}")
        if self.kind == MEDIUM_ESNR and (self.j is None or self.j < 1):
            raise ValueError("medium case requires j >= 1")


@dataclass(frozen=True)
class CaseSolution:
    """Optimal phase-1 energy for one fixed n1, with the candidates tried."""

    label: CaseLabel
    e1: float
    value: float
    candidates: tuple[float, ...]


@dataclass(frozen=True)
class Solution:
    """Global optimum: winning plan plus the per-n1 search trace."""

    plan: TrainingPlan
    qnet_star: float
    case_used_per_n1: dict[int, CaseLabel] = field(repr=False)
    candidate_log: list[tuple[int, tuple[float, ...]]] = field(repr=False)


# ---------------------------------------------------------------------------
# closed-form inner pieces


def optimal_phase2_energy(rank: int, n1: int, e1: float, p: SystemParams) -> float:
    """Water-filling phase-2 pilot energy for one ranked band.

    Fixed water level sqrt(eta*t*ps*(m-1)*n0); base level rises as the
    band's expected power falls, and bands below the refinement threshold
    get nothing.  With one antenna the water level is zero.
    """
    if p.m == 1:
        return 0.0
    rn = expected_selected_power(rank, n1, e1, p)
    level = math.sqrt(p.eta_t_ps * (p.m - 1) * p.n0)
    return max(level - p.n0 * p.m / rn, 0.0)


def _penalty_of_power(rn: float, p: SystemParams) -> float:
    # Minimum of (beamforming loss + e2) over e2 >= 0 for prior power rn.
    if p.m == 1:
        return 0.0
    alpha = refinement_threshold(p)
    if rn <= alpha:
        return (p.m - 1) / p.m * p.eta_t_ps * rn
    return 2.0 * math.sqrt((p.m - 1) * p.n0 * p.eta_t_ps) - p.n0 * p.m / rn


def min_phase2_penalty(rank: int, n1: int, e1: float, p: SystemParams) -> float:
    """Estimation loss plus pilot cost at the optimal phase-2 energy.

    Piecewise in the band's expected power and continuous at the
    refinement threshold.
    """
    return _penalty_of_power(expected_selected_power(rank, n1, e1, p), p)


def _powers(gains: np.ndarray, e1: float, p: SystemParams) -> np.ndarray:
    return (p.beta**2 * e1 * gains + p.beta * p.n0 * p.m) / (p.beta * e1 + p.n0)


def _reduced_net(gains: np.ndarray, n1: int, e1: float, p: SystemParams) -> float:
    powers = _powers(gains, e1, p)
    total = math.fsum(
        p.eta_t_ps * rn - _penalty_of_power(rn, p) for rn in powers
    )
    return total - n1 * e1


def _check_n1(n1: int, p: SystemParams) -> None:
    if not p.n2 <= n1 <= p.n:
        raise ValueError(f"trained bands must satisfy {p.n2} <= n1 <= {p.n}, got {n1}")


def net_energy_given_phase1(n1: int, e1: float, p: SystemParams) -> float:
    """Net harvested energy at (n1, e1) with phase-2 energies optimized out."""
    _check_n1(n1, p)
    if e1 < 0:
        raise ValueError(f"phase-1 energy must be >= 0, got {e1}")
    gains = order_stats.gains_up_to(p.n2, n1, p.m)
    return _reduced_net(gains, n1, e1, p)


# ---------------------------------------------------------------------------
# case classification


def classify_esnr_case(n1: int, p: SystemParams) -> CaseLabel:
    """Which regime the reduced objective is in for this n1.

    Compares the refinement threshold with the noise-free expected powers
    beta*g_n.  Threshold at or above the strongest rank: low.  Below the
    channel-hardening floor beta*m: high.  Otherwise medium, with j the
    count of ranks strictly above the threshold (located by binary search
    on the sorted gain sequence; ties go to the lower-j reading, where
    both neighboring branch formulas coincide).
    """
    _check_n1(n1, p)
    return _classify(order_stats.gains_up_to(p.n2, n1, p.m), p)


def _classify(gains: np.ndarray, p: SystemParams) -> CaseLabel:
    # classify_esnr_case on the gains of its n1, already read
    alpha = refinement_threshold(p)
    if alpha >= p.beta * gains[0]:
        return CaseLabel(LOW_ESNR)
    if alpha < p.beta * p.m:
        return CaseLabel(HIGH_ESNR)
    # gains are sorted decreasing; count entries with beta*g > alpha
    ascending = np.ascontiguousarray((p.beta * gains)[::-1])
    j = p.n2 - int(np.searchsorted(ascending, alpha, side="right"))
    return CaseLabel(MEDIUM_ESNR, j=max(j, 1))


# ---------------------------------------------------------------------------
# stationary points, and the polynomial root oracle


def _scaled_residual(x: float, c: np.ndarray) -> float:
    # |p(x)| / max(1, |x|)^deg; beyond the unit interval it is the reversed
    # polynomial at 1/x, which cannot overflow where x^deg would
    if abs(x) <= 1.0:
        return abs(npoly.polyval(x, c))
    return abs(npoly.polyval(1.0 / x, c[::-1]))


def _newton_step(x: float, c: np.ndarray) -> float | None:
    # p(x)/p'(x), or None where p' vanishes; beyond the unit interval it is
    # x r(u) / (deg r(u) - u r'(u)) for the reversed polynomial r at u = 1/x,
    # which cannot overflow where x^deg would
    if abs(x) <= 1.0:
        num, den = npoly.polyval(x, c), npoly.polyval(x, npoly.polyder(c))
    else:
        u, rev = 1.0 / x, c[::-1]
        r = npoly.polyval(u, rev)
        num, den = x * r, (c.size - 1) * r - u * npoly.polyval(u, npoly.polyder(rev))
    return None if den == 0.0 else num / den


def poly_real_roots(coeffs) -> np.ndarray:
    """All real roots of a polynomial given by ascending coefficients.

    Roots come from the companion-matrix eigenvalues and are then polished
    by Newton iteration until the residual falls below
    1e-10 * ||coeffs|| * max(1, |x|)^degree; raises
    :class:`RootFindingError` if polishing stalls above that.  The test
    divides the residual by max(1, |x|)^degree rather than multiplying
    the tolerance, which overflows for large roots of high-degree
    polynomials; for the same reason a Newton step at |x| > 1 is taken
    from the reversed polynomial at 1/x.  Near-coincident roots are merged.
    """
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0:
        raise ValueError("empty coefficient vector")
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        raise ValueError("zero polynomial has no well-defined root set")
    c = c[: nz[-1] + 1]
    deg = c.size - 1
    if deg == 0:
        return np.array([])
    tol = 1e-10 * float(np.linalg.norm(c))
    raw = npoly.polyroots(c)
    near_real = raw[np.abs(raw.imag) <= 1e-8 * np.maximum(1.0, np.abs(raw.real))]
    if near_real.size == 0:
        return np.array([])
    polished = []
    for x in np.sort(near_real.real):
        best_x, best_r = x, _scaled_residual(x, c)
        for _ in range(60):
            if best_r <= tol:
                break
            step = _newton_step(best_x, c)
            if step is None:
                break
            nxt = best_x - step
            r = _scaled_residual(nxt, c)
            if not np.isfinite(r) or r >= best_r:
                break
            best_x, best_r = nxt, r
        if best_r > tol:
            raise RootFindingError(
                f"Newton polishing stalled at x={best_x!r} (residual {best_r:.3e} "
                f"> tolerance {tol:.3e}, both per max(1, |x|)^{deg})",
                c,
            )
        polished.append(best_x)
    merged: list[float] = []
    for x in sorted(polished):
        if not merged or abs(x - merged[-1]) > 1e-9 * max(1.0, abs(x)):
            merged.append(x)
    return np.array(merged)


def _stationary_snrs(
    gains: np.ndarray, branch2: int, n1: int, p: SystemParams
) -> float | None:
    """Stationary point of the reduced objective on one piece, in x = beta*e1/n0.

    ``branch2`` ranks (the strongest) are assumed above the refinement
    threshold, the rest below.  With g_i = m/gain_i and b_i = g_i (1-g_i)/n1
    the piece's objective is d0/(x+1) + x - sum b_i/(x+g_i) up to constants,
    stationary where h(x) = (x+1)^2 + sum b_i ((x+1)/(x+g_i))^2 - d0 = 0.
    Ordered gains have sum_{r<=n1} (gain_r - m)^2 <= n1 m (Jensen), so
    h'(x) = 2(x+1) [1 - (1/n1) sum g_i (1-g_i)^2/(x+g_i)^3] >= 2(x+1)(1-1/m)
    on x >= 0, with m >= 2 wherever phase 2 is on: h increases, and its
    one root, if h(0) < 0, lies in [0, sqrt(d0 + sum_{b_i<0} |b_i|)].
    Newton steps from the right end that leave the bracket fall back to
    bisection, and one below half an ulp moves one ulp, until h is 0 or the
    bracket ends are adjacent floats (then the end with the smaller |h|).
    Returns None when h(0) >= 0.
    """
    m = p.m
    above, below = gains[:branch2], gains[branch2:]
    d0 = esnr(p) * (math.fsum(above - m) + math.fsum(below / m - 1.0)) / n1
    g = m / above
    b = g * (1.0 - g) / n1
    curve = b * (1.0 - g)  # g_i (1-g_i)^2 / n1, the terms of h'

    def h(x: float) -> float:
        return (x + 1.0) ** 2 + float(b @ ((x + 1.0) / (x + g)) ** 2) - d0

    if h(0.0) >= 0.0:
        return None
    lo, hi = 0.0, math.sqrt(d0 - float(b[b < 0.0].sum()))
    x = hi
    for _ in range(_ROOT_STEPS):
        hx = h(x)
        if hx == 0.0:
            return x
        if hx < 0.0:
            lo = x
        else:
            hi = x
        nxt = x - hx / (2.0 * (x + 1.0) * (1.0 - float(curve @ (x + g) ** -3)))
        if nxt == x:
            nxt = math.nextafter(x, hi if hx < 0.0 else lo)
        if not lo < nxt < hi:
            nxt = lo + 0.5 * (hi - lo)
            if not lo < nxt < hi:
                return min(lo, hi, key=lambda e: abs(h(e)))
        x = nxt
    raise ArithmeticError(
        f"stationary point not bracketed to adjacent floats in {_ROOT_STEPS} "
        f"steps at n1={n1}, branch2={branch2}: [{lo!r}, {hi!r}]"
    )


def _threshold_crossing_snr(g: float, alpha: float, p: SystemParams) -> float | None:
    """x at which rank gain ``g`` has expected power exactly alpha, if any.

    In x the expected power is beta*(x*g + m)/(x + 1); it moves
    monotonically from beta*m toward beta*g, so a positive crossing exists
    only when alpha lies strictly between the two.
    """
    bg, bm = p.beta * g, p.beta * p.m
    if bg == alpha or (alpha - bm) * (bg - alpha) <= 0.0:
        return None
    return (alpha - bm) / (p.beta * (g - alpha / p.beta))


def _best_over_pieces(
    n1: int, gains: np.ndarray, breakpoints: list[float], p: SystemParams
) -> tuple[float, float, tuple[float, ...]]:
    """Maximize the reduced objective piecewise; returns (e1, value, tried).

    ``breakpoints`` are the e1 values (ascending) where some rank crosses
    the refinement threshold; between consecutive breakpoints the branch
    pattern is frozen, so each piece contributes its stationary point, if
    any, plus its endpoints as candidates.  Every candidate is scored
    with the exact piecewise objective.
    """
    alpha = refinement_threshold(p)
    x_scale = p.n0 / p.beta
    edges = [0.0] + breakpoints + [math.inf]
    candidates: list[float] = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi <= lo:
            continue
        probe = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * lo + x_scale
        powers = _powers(gains, probe, p)
        branch2 = int(np.sum(powers > alpha))
        x = _stationary_snrs(gains, branch2, n1, p)
        if x is not None and lo <= x * x_scale <= hi:
            candidates.append(x * x_scale)
        candidates.append(lo)
        if math.isfinite(hi):
            candidates.append(hi)
    tried = sorted(set(candidates))
    values = [_reduced_net(gains, n1, e1, p) for e1 in tried]
    best = int(np.argmax(values))
    return tried[best], values[best], tuple(tried)


# ---------------------------------------------------------------------------
# the three regime solvers


def _require_case(n1: int, p: SystemParams, kind: str) -> CaseLabel:
    label = classify_esnr_case(n1, p)
    if label.kind != kind:
        raise ValueError(f"(n1={n1}) classifies as {label.kind}, not {kind}")
    return label


def solve_low_esnr(n1: int, p: SystemParams) -> CaseSolution:
    """Closed-form optimum when phase 2 is never worthwhile.

    The objective is concave in e1; training pays only when the diversity
    surplus per trained band beats 1/ESNR.
    """
    _require_case(n1, p, LOW_ESNR)
    return solve_for_n1(n1, p)


def _phase1_closed_form(
    n1: int, gains: np.ndarray, p: SystemParams
) -> tuple[float, float]:
    # (e1, value) with phase 2 off: the low-ESNR optimum for this n1
    surplus = math.fsum(gains / p.m - 1.0)
    gamma = esnr(p)
    scale = p.eta_t_ps * p.beta
    if surplus < n1 / gamma:
        return 0.0, scale * p.n2
    e1 = math.sqrt(p.eta_t_ps * p.n0) * (
        math.sqrt(surplus / n1) - 1.0 / math.sqrt(gamma)
    )
    value = scale * (p.n2 + (math.sqrt(surplus) - math.sqrt(n1 / gamma)) ** 2)
    return e1, value


def solve_high_esnr(n1: int, p: SystemParams) -> CaseSolution:
    """Optimum when the channel-hardening floor clears the threshold.

    Ranks whose noise-free gain sits below average can sink through the
    threshold as e1 grows (possible when n1 is barely above n2); those
    crossings split the axis into pieces.
    """
    _require_case(n1, p, HIGH_ESNR)
    return solve_for_n1(n1, p)


def solve_medium_esnr(n1: int, j: int, p: SystemParams) -> CaseSolution:
    """Optimum when the threshold cuts through the ranked gain sequence.

    Ranks 1..j can rise through the threshold as e1 grows; the crossing
    energies split the axis into j+1 intervals solved independently.
    """
    label = _require_case(n1, p, MEDIUM_ESNR)
    if label.j != j:
        raise ValueError(f"(n1={n1}) has {label.j} ranks above threshold, not {j}")
    return solve_for_n1(n1, p)


def solve_for_n1(n1: int, p: SystemParams) -> CaseSolution:
    """Best phase-1 energy and value for one fixed number of trained bands."""
    _check_n1(n1, p)
    gains = order_stats.gains_up_to(p.n2, n1, p.m)
    label = _classify(gains, p)
    if label.kind == LOW_ESNR:
        e1, value = _phase1_closed_form(n1, gains, p)
        return CaseSolution(label, e1, value, (0.0, e1))
    alpha = refinement_threshold(p)
    crossings = sorted(
        x * p.n0 / p.beta
        for g in gains.tolist()
        if (x := _threshold_crossing_snr(g, alpha, p)) is not None
    )
    if not all(a < b for a, b in zip(crossings, crossings[1:])):
        raise ArithmeticError(
            f"distinct gains crossed the threshold at equal energies at n1={n1}: "
            f"{crossings}"
        )
    e1, value, tried = _best_over_pieces(n1, gains, crossings, p)
    return CaseSolution(label, e1, value, tried)


# ---------------------------------------------------------------------------
# outer search


def optimize_training(p: SystemParams) -> Solution:
    """Globally optimal training design.

    Sweeps n1 over its full range, solves each regime exactly, and keeps
    the best; ties in value go to the smaller n1 (fewer trained bands at
    equal net energy).  The returned plan re-derives the per-rank phase-2
    energies from the winning (n1, e1).
    """
    best: CaseSolution | None = None
    best_n1 = -1
    cases: dict[int, CaseLabel] = {}
    log: list[tuple[int, tuple[float, ...]]] = []
    # one quadrature fills the gains of every n1 below (the gain triangle)
    order_stats.gains_up_to(p.n2, p.n, p.m)
    for n1 in range(p.n2, p.n + 1):
        try:
            sol = solve_for_n1(n1, p)
        except Exception as exc:
            raise RuntimeError(f"sub-solver failed at n1={n1}: {exc}") from exc
        cases[n1] = sol.label
        log.append((n1, sol.candidates))
        if best is None or sol.value > best.value:
            best, best_n1 = sol, n1
    assert best is not None
    e2 = tuple(
        optimal_phase2_energy(rank, best_n1, best.e1, p)
        for rank in range(1, p.n2 + 1)
    )
    plan = TrainingPlan(n1=best_n1, e1=best.e1, e2=e2)
    return Solution(
        plan=plan,
        qnet_star=best.value,
        case_used_per_n1=cases,
        candidate_log=log,
    )


# ---------------------------------------------------------------------------
# restricted designs used as benchmarks


def solve_phase1_only(p: SystemParams) -> tuple[TrainingPlan, float]:
    """Best design with phase 2 disabled (diversity gain only).

    With all e2 pinned at zero the objective matches the low-ESNR closed
    form for every regime, so the same formula is swept over n1.
    """
    best_plan: TrainingPlan | None = None
    best_value = -math.inf
    order_stats.gains_up_to(p.n2, p.n, p.m)  # fills every n1's gains at once
    for n1 in range(p.n2, p.n + 1):
        gains = order_stats.gains_up_to(p.n2, n1, p.m)
        e1, value = _phase1_closed_form(n1, gains, p)
        if value > best_value:
            best_value = value
            best_plan = TrainingPlan(n1=n1, e1=e1, e2=(0.0,) * p.n2)
    assert best_plan is not None
    return best_plan, best_value


def solve_phase2_only(p: SystemParams) -> tuple[TrainingPlan, float]:
    """Best design with phase 1 disabled (beamforming gain only).

    Without ranking every band has prior power beta*m, so one water-filling
    energy is shared by all selected bands.
    """
    bm = p.beta * p.m
    e2 = optimal_phase2_energy(1, p.n2, 0.0, p) if p.m > 1 else 0.0
    value = p.n2 * (p.eta_t_ps * bm - _penalty_of_power(bm, p))
    plan = TrainingPlan(n1=p.n2, e1=0.0, e2=(e2,) * p.n2)
    return plan, value


def solve_brute_force(p: SystemParams) -> tuple[float, float]:
    """Best per-band pilot energy for training every band, and its net energy.

    Estimating all n bands with energy e, keeping the n2 largest estimates
    and beamforming on them harvests eta*t*ps*beta*[G - (G - n2)/(x + 1)] on
    average, with G the sum of the top-n2 gains g(r, n, m) and x = beta*e/n0;
    the bill is n*e.  The net is concave in x and peaks at
    x + 1 = sqrt(esnr*(G - n2)/n), clamped at e = 0, where it is the no-CSI
    value eta*t*ps*beta*n2.  Returns ``(energy_per_band, value)``.
    """
    top = math.fsum(order_stats.gains_up_to(p.n2, p.n, p.m))
    x = math.sqrt(esnr(p) * (top - p.n2) / p.n) - 1.0
    if x <= 0.0:
        return 0.0, p.eta_t_ps * p.beta * p.n2
    energy = x * p.n0 / p.beta
    value = p.eta_t_ps * p.beta * (top - (top - p.n2) / (x + 1.0)) - p.n * energy
    return energy, value
