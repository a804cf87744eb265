"""Exact maximization of the net harvested energy over training designs.

The search space is (n1, e1, {e2 per rank}).  With (n1, e1) fixed, the
optimal per-rank phase-2 energy is a closed-form water-filling rule, so
the problem collapses to a one-dimensional search over e1 for each n1,
followed by an argmax over n1, in the reduced units of
:mod:`wetopt.training_model`; joules are applied once, on return.

The reduced objective in e1 is a sum of linear fractional terms minus a
linear cost.  Its shape depends on where the per-rank expected powers sit
relative to the refinement threshold, which splits the parameter space
into three ESNR regimes, labels of one problem:

* low:    no band ever clears the threshold; phase 2 is off and the
  optimum is closed form,
* high:   the channel-hardening floor clears the threshold; weak ranks
  may sink through it as e1 grows (when n1 is barely above n2),
* medium: ranks 1..j rise through the threshold as e1 grows.

The last two split the e1 axis where ranks cross the threshold, but the
objective stays C1 across the crossings: its slope is a negative multiple
of one function h of the phase-1 pilot SNR x = beta * e1 / n0.  With
e_i = gain_i - m, S+ = sum max(e_i, 0) and S2 = sum e_i^2 over a row's
ranks, S2 < n1 m^2 and S+ < n1 (m-1), which each row-data build checks
(raising ArithmeticError naming the n1 of a row that breaks one), put
every root of h on piece 0:
(a) h' >= 2 (x+1) (1 - S2 / (n1 m^2)), so h increases;
(b) medium means gamma (m-1) <= 1, so h(0) >= 1 - S+ / (m (m-1) n1) > 0;
(c) high crossings only sink, the weakest gain's first, at x_c + 1 =
    (m - g_w) / (rho* - g_w) >= sqrt(gamma (m-1)); on [0, x_c] each rank's
    net rho + m / (gamma rho) has slope in [1/m, 1] in rho, so
    h(x_c) >= gamma [(m-1) - S+ / n1] > 0;
(d) sum_{r<=n1} e_r = 0 and Jensen give S+ <= n1 m^m e^-m / (m-1)!, at most
    0.541 n1 (m-1), and S2 <= n1 m, so ordered gains meet both with room.
So each n1's optimum is e1 = 0 where h(0) >= 0, and otherwise the one
root of h, found on piece 0 by a Newton iteration from an upper bound on
it.  :func:`poly_real_roots` is the tests' root oracle.

The n1 sweep runs in lockstep on the (n1 count, n2) gain array of
:func:`order_stats.stacked_gains` and its t-independent row data, built on
the array's first solve and kept until the array is replaced; a solve at a
new t makes only t-dependent numpy passes over blocks of rows, filling a
:class:`Curve`.  :func:`solve_curve` runs the same code on the rows of any n1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType, SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import order_stats
from .training_model import (
    SystemParams,
    TrainingPlan,
    _threshold,
    check_e1,
    check_n1,
    esnr,
    expected_selected_power,
    selected_powers,
)

__all__ = [
    "CaseLabel",
    "CaseSolution",
    "Curve",
    "RootFindingError",
    "Solution",
    "classify_esnr_case",
    "net_energy_given_phase1",
    "optimal_phase2_energy",
    "optimize_training",
    "poly_real_roots",
    "solve_brute_force",
    "solve_curve",
    "solve_for_n1",
    "solve_phase1_only",
    "solve_phase2_only",
]

LOW_ESNR = "low_esnr"
HIGH_ESNR = "high_esnr"
MEDIUM_ESNR = "medium_esnr"

# passes per block before raising; blocks have taken at most 17, and
# bisection alone would take about 52 + log2(bracket / root)
_ROOT_STEPS = 200

# a lockstep block holds _BLOCK_TARGET // n2 n1 rows, at least one, so each
# of its (rows x n2) arrays holds at most _BLOCK_TARGET elements, or n2
_BLOCK_TARGET = 1 << 18

_held_rows: dict[tuple[int, int], SimpleNamespace] = {}  # (n2, m) -> row data of stacked_gains' array


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


class Curve(NamedTuple):
    """The per-n1 solve as arrays, one entry per n1: case code (-1 low, 0
    high, j medium), best e1 and value in joules, the e1 tried besides 0
    (NaN if none) and the row of gains."""

    n1: np.ndarray
    code: np.ndarray
    e1: np.ndarray
    value: np.ndarray
    tried: np.ndarray
    gains: np.ndarray

    def plan(self, i: int, p: SystemParams) -> TrainingPlan:
        """Entry i's n1 and e1, with the water-filling e2 of each rank."""
        e1 = float(self.e1[i])
        if e1 == 0.0:  # every rank's power is m: one energy, in math by the same operations
            e2 = (max(math.sqrt(esnr(p) * (p.m - 1)) - 1.0, 0.0) * (p.n0 / p.beta),) * p.n2
        else:
            rho = selected_powers(self.gains[i], e1 * (p.beta / p.n0), p.m)
            e2 = tuple((_phase2_energies(rho, p) * (p.n0 / p.beta)).tolist())
        return TrainingPlan(int(self.n1[i]), e1, e2)


def _tried(e1: float) -> tuple[float, ...]:
    return (0.0,) if e1 != e1 else (0.0, e1)


@dataclass(frozen=True, eq=False)
class Solution:
    """Global optimum: winning plan plus the curve over every n1.

    ``case_used_per_n1`` (read-only, n1 -> :class:`CaseLabel`) and
    ``candidate_log`` (``[(n1, e1 tried), ...]``) derive from the curve
    when read; equality compares them with the plan and ``qnet_star``.
    """

    plan: TrainingPlan
    qnet_star: float
    curve: Curve = field(repr=False)

    def __eq__(self, other):
        if type(other) is not Solution:
            return NotImplemented
        return (self.plan, self.qnet_star, self.case_used_per_n1, self.candidate_log) == (
            other.plan, other.qnet_star, other.case_used_per_n1, other.candidate_log)

    @cached_property
    def case_used_per_n1(self) -> MappingProxyType[int, CaseLabel]:
        return MappingProxyType(dict(zip(self.curve.n1.tolist(), map(_label, self.curve.code.tolist()))))

    @cached_property
    def candidate_log(self) -> list[tuple[int, tuple[float, ...]]]:
        return list(zip(self.curve.n1.tolist(), map(_tried, self.curve.tried.tolist())))


# ---------------------------------------------------------------------------
# closed-form inner pieces


def optimal_phase2_energy(rank: int, n1: int, e1: float, p: SystemParams) -> float:
    """Water-filling phase-2 pilot energy for one ranked band.

    Fixed water level sqrt(eta*t*ps*(m-1)*n0); base level rises as the
    band's expected power falls, and bands below the refinement threshold
    get nothing.  With one antenna the water level is zero.
    """
    rho = expected_selected_power(rank, n1, e1, p) / p.beta
    return float(_phase2_energies(rho, p)) * (p.n0 / p.beta)


def _phase2_energies(rho, p: SystemParams):
    # optimal_phase2_energy over n0 / beta for each prior power rho over beta
    return np.maximum(math.sqrt(esnr(p) * (p.m - 1)) - p.m / rho, 0.0)


def _penalty(rho, p: SystemParams):
    # estimation loss plus pilot cost at the optimal phase-2 energy, over
    # eta t ps beta, per prior power rho over beta: the beamforming loss at
    # the optimal y plus its bill y / gamma; continuous at the threshold
    y = _phase2_energies(rho, p)
    return (p.m - 1) * rho / (y * rho + p.m) + y / esnr(p)


def _net(gains: np.ndarray, x: np.ndarray, n1, p: SystemParams):
    # net energy over eta t ps beta at pilot SNRs x: gross less n1 x / gamma
    rho = selected_powers(gains, x[..., None], p.m)
    return (rho - _penalty(rho, p)).sum(axis=-1) - n1 * x / esnr(p)


def net_energy_given_phase1(n1: int, e1: float | np.ndarray, p: SystemParams) -> float | np.ndarray:
    """Net harvested energy at (n1, e1) with phase-2 energies optimized out.

    ``e1`` is one energy, which gives a float, or an array of them, which
    gives an array of the same shape in one pass, each entry the float one
    energy gives.
    """
    check_n1(n1, p)
    e = np.asarray(e1, dtype=float)
    ok = np.isfinite(e) & (e >= 0)
    if not ok.all():
        check_e1(float(e[~ok].flat[0]))  # raises, naming the first bad energy
    gains = order_stats.gains_up_to(p.n2, n1, p.m)
    net = _net(gains, e * (p.beta / p.n0), n1, p) * (p.eta_t_ps * p.beta)
    return float(net) if net.ndim == 0 else net


def _phase1_closed_form(surplus: np.ndarray, n1: np.ndarray, p: SystemParams):
    # (x, value) per row with phase 2 off, the low-ESNR optimum, from its surplus sum(gain/m - 1),
    # which does not pay below n1/gamma (x = 0) and is raised to it for sqrt
    gamma, floor = esnr(p), n1 / esnr(p)
    s = np.maximum(surplus, floor)
    value = p.n2 + (np.sqrt(s) - np.sqrt(floor)) ** 2
    return np.where(surplus < floor, 0.0, np.sqrt(gamma * s / n1) - 1.0), value


def _row_data(gains: np.ndarray, n1: np.ndarray, m: int) -> SimpleNamespace:
    # each row's t-independent data: gains, surplus sum(gain/m - 1), strongest gain, excess sum(gain - m),
    # g = m/gain and g (1 - g) on the high piece 0; raises if a row breaks a bound (module docstring)
    e, g = gains - m, m / gains
    if m > 1:
        s_plus, s2 = np.maximum(e, 0.0).sum(axis=1), (e * e).sum(axis=1)
        bad = (~((s_plus < n1 * (m - 1)) & (s2 < n1 * m * m))).nonzero()[0]
        if bad.size:
            raise ArithmeticError(f"gains of n1={n1[bad[0]]} break S+ < n1 (m-1) or S2 < n1 m^2 at m={m}: "
                                  f"S+ = {s_plus[bad[0]]!r}, S2 = {s2[bad[0]]!r}")
    return SimpleNamespace(gains=gains, surplus=(gains / m - 1.0).sum(axis=1), top=gains[:, 0].copy(),
                           excess=e.sum(axis=1), g=g, gg=g * (1.0 - g))


def _stacked_rows(p: SystemParams) -> SimpleNamespace:
    # row data of the array behind stacked_gains(n2, n, m), n1 = n2..n first; rebuilt if replaced
    view = order_stats.stacked_gains(p.n2, p.n, p.m)
    stack, held = view if view.base is None else view.base, _held_rows.get((p.n2, p.m))
    if held is None or held.gains is not stack:
        held = _held_rows[(p.n2, p.m)] = _row_data(stack, np.arange(p.n2, p.n2 + len(stack)), p.m)
    return held


def classify_esnr_case(n1: int, p: SystemParams) -> CaseLabel:
    """Which regime the reduced objective is in for this n1.

    Compares the refinement threshold with the noise-free expected powers
    beta*g_n.  Threshold at or above the strongest rank: low.  Below the
    channel-hardening floor beta*m: high.  Otherwise medium, with j the
    count of ranks strictly above the threshold.  Reads the row of
    :func:`solve_curve`, so a cold query fills the stacked view up to ``n``.
    """
    check_n1(n1, p)
    row = slice(n1 - p.n2, n1 - p.n2 + 1)
    return _label(int(_case_codes(SimpleNamespace(**{k: a[row] for k, a in vars(_stacked_rows(p)).items()}), p)[0]))


def _case_codes(data: SimpleNamespace, p: SystemParams) -> np.ndarray:
    # classify_esnr_case per row of row data: -1 low, 0 high, j medium; ranks above rho*
    # are counted only where some row is medium
    rho = _threshold(esnr(p), p.m)
    medium = 0 if rho < p.m or rho >= data.top.max() else (data.gains > rho).sum(axis=1)
    return np.where(rho >= data.top, -1, medium)


@lru_cache(maxsize=None)
def _label(code: int) -> CaseLabel:
    # CaseLabel of a code; the labels are immutable and few
    if code < 0:
        return CaseLabel(LOW_ESNR)
    return CaseLabel(MEDIUM_ESNR, j=code) if code else CaseLabel(HIGH_ESNR)


# ---------------------------------------------------------------------------
# stationary points, and the polynomial root oracle


def _scaled_residual(x: float, c: np.ndarray) -> float:
    # |p(x)| / max(1, |x|)^deg; beyond the unit interval it is the reversed
    # polynomial at 1/x, which cannot overflow where x^deg would
    from numpy.polynomial import polynomial as npoly

    if abs(x) <= 1.0:
        return abs(npoly.polyval(x, c))
    return abs(npoly.polyval(1.0 / x, c[::-1]))


def _newton_step(x: float, c: np.ndarray) -> float | None:
    # p(x)/p'(x), or None where p' vanishes; beyond the unit interval it is
    # x r(u) / (deg r(u) - u r'(u)) for the reversed polynomial r at u = 1/x,
    # which cannot overflow where x^deg would
    from numpy.polynomial import polynomial as npoly

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
    by Newton iteration until |p(x)| <= 1e-12 * sum |c_i| |x|^i, the
    rounding scale of evaluating p at x; raises :class:`RootFindingError`
    if polishing stalls above that.  Both sides are divided by
    max(1, |x|)^degree, since x^degree overflows for large roots of
    high-degree polynomials; for the same reason a Newton step at |x| > 1
    is taken from the reversed polynomial at 1/x.  Near-coincident roots
    are merged.  Polishing resolves a root only as far as the monomial
    basis' rounding scale allows (on the ``m=4, n1=200, t=1e-1`` piece the
    small roots stay ~1% off), so this is the tests' oracle for large roots.
    """
    # imported on first use, as in the two helpers above: nothing on the
    # solve path needs numpy.polynomial, and importing it costs start-up
    from numpy.polynomial import polynomial as npoly

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
    mags = np.abs(c)

    def tol(x: float) -> float:
        return 1e-12 * _scaled_residual(abs(x), mags)

    raw = npoly.polyroots(c)
    near_real = raw[np.abs(raw.imag) <= 1e-8 * np.maximum(1.0, np.abs(raw.real))]
    if near_real.size == 0:
        return np.array([])
    polished = []
    for x in np.sort(near_real.real):
        best_x, best_r = x, _scaled_residual(x, c)
        for _ in range(60):
            if best_r <= tol(best_x):
                break
            step = _newton_step(best_x, c)
            if step is None:
                break
            nxt = best_x - step
            r = _scaled_residual(nxt, c)
            if not np.isfinite(r) or r >= best_r:
                break
            best_x, best_r = nxt, r
        if best_r > tol(best_x):
            raise RootFindingError(
                f"Newton polishing stalled at x={best_x!r} (residual {best_r:.3e} "
                f"> tolerance {tol(best_x):.3e}, both per max(1, |x|)^{deg})",
                c,
            )
        polished.append(best_x)
    merged: list[float] = []
    for x in sorted(polished):
        if not merged or abs(x - merged[-1]) > 1e-9 * max(1.0, abs(x)):
            merged.append(x)
    return np.array(merged)


def _h_given(x1: np.ndarray, t: np.ndarray, b: np.ndarray, d0: np.ndarray):
    # h per row (per point, with a points axis) from x1 = x + 1 and t = x + g
    u = x1[..., None] / t
    return x1**2 + (b * u * u).sum(axis=-1) - d0


def _h0(surplus: np.ndarray, n1: np.ndarray, p: SystemParams):
    # h(0) per row on piece 0 of the high regime, every rank above the threshold, from the row
    # surplus, the sum of e = gain/m - 1: at x = 0, b_i/g_i^2 = e_i/n1 and d0 = gamma m e_i/n1
    return 1.0 + surplus * (1.0 - esnr(p) * p.m) / n1


def _stationary_rows(piece, n1: np.ndarray):
    """Root of h on one piece per row where h(0) < 0, in x = beta*e1/n0.

    ``piece`` is the (g, b, d0) of h on row i's piece: with g_i = m/gain_i
    and b_i = g_i (1-g_i)/n1 over the ranks above the refinement threshold,
    h(x) = (x+1)^2 + sum b_i ((x+1)/(x+g_i))^2 - d0 = -(gamma/n1) (x+1)^2 Q'(x)
    for the piece's objective Q, convex on [0, inf) (README).  As
    b_i ((x+1)/(x+g_i))^2 >= b_i for either sign of b_i, the root lies
    below sqrt(d0 - sum b_i) - 1, where Newton starts; from there its
    iterates fall to the root.  A pass forms x + 1 and x + g_i once, for h
    and h', and divides h''s terms by x + g_i three times, as the cube
    overflows past x = 5e102.  A row is near its root once its
    steps shrink so fast (s_k^3 <= ulp s_k-1^2) that the next iterate
    should lie within an ulp of it, or a step is not positive (rounding
    has carried x to or past it), and stays near; each pass also evaluates
    h at the floats beside a near row's x.  A sign change beside x certifies
    the answer: the float where h = 0, else the end with the smaller |h|
    of two adjacent floats where h changes sign.  Otherwise the root lies
    past the neighbour toward it, which becomes an end of the row's
    bracket (at first [0, 2 sqrt(d0 - sum b_i) - 1]); its next point is its
    Newton step, at least one float past that neighbour, or the bracket's
    midpoint if it leaves the bracket.  Rows step in lockstep and leave once
    certified; a row's arithmetic does not depend on the others.
    ``n1`` names a row in the error raised.
    """
    g, b, d0 = piece
    curve = b * (1.0 - g)  # g_i (1-g_i)^2 / n1, the terms of h'
    out, live = np.full(d0.size, np.nan), np.arange(d0.size)
    if not d0.size:
        return out
    x = np.sqrt(d0 - b.sum(axis=1)) - 1.0
    lo, hi, last, near = np.zeros(x.size), 2.0 * x + 1.0, np.nan, np.zeros(x.size, dtype=bool)
    for _ in range(_ROOT_STEPS):
        n = near.nonzero()[0]
        r = n if n.size < x.size else slice(None)  # the near rows; views of all once every row is near
        if n.size:  # h also at the floats beside a near row's x, in one call once every row is near
            w = np.stack([np.nextafter(x[r], -np.inf), x[r], np.nextafter(x[r], np.inf)])
            hw = _h_given(w + 1.0, w[..., None] + g[r], b[r], d0[r])
            up = hw[1] <= 0.0  # the pair beside x toward the sign change
            (w_lo, w_hi), (h_lo, h_hi) = np.where(up, w[1:], w[:-1]), np.where(up, hw[1:], hw[:-1])
            ends = (h_lo <= 0.0) & (h_hi >= 0.0) | (hw[1] == 0.0)
            out[live[r][ends]] = np.where(np.abs(h_hi) < np.abs(h_lo), w_hi, w_lo)[ends]
            if ends.all() and n.size == x.size:
                return out
            lo[r], hi[r] = low, high = np.where(up, w[2], lo[r]), np.where(up, hi[r], w[0])
        x1, t = x + 1.0, x[:, None] + g
        hx = hw[1] if n.size == x.size else _h_given(x1, t, b, d0)
        step = hx / (2.0 * x1 * (1.0 - (curve / t / t / t).sum(axis=1)))
        nxt, q = x - step, step / last
        last, near = np.fmax(np.abs(step), 1e-300), (step * q * q <= np.spacing(x)) | near  # no 0/0 at h = 0
        if n.size:  # at least one float past the neighbour, then inside the bracket
            s = np.where(up, np.fmax(nxt[r], np.nextafter(low, np.inf)), np.fmin(nxt[r], np.nextafter(high, -np.inf)))
            nxt[r] = np.where((low < s) & (s < high), s, low + 0.5 * (high - low))
            keep = np.bincount(n[ends], minlength=x.size) == 0  # the rows not certified
            live, nxt, lo, hi, last, near = live[keep], nxt[keep], lo[keep], hi[keep], last[keep], near[keep]
            g, b, curve, d0 = g[keep], b[keep], curve[keep], d0[keep]
        x = nxt
    raise ArithmeticError(f"stationary point not bracketed to adjacent floats in {_ROOT_STEPS} steps at "
                          f"n1={n1[live[0]]}: [{float(lo[0])!r}, {float(hi[0])!r}]")


def _roots_of_h(data: SimpleNamespace, n1: np.ndarray, p: SystemParams):
    """(rows, x) for a block's row data: the rows where h has a root
    x > 0, and that root.  By (a)-(c) of the module docstring, which the
    row data's bounds make hold, only a high row (rho* < m) with h(0) < 0
    has one, and it lies on piece 0, every rank above the threshold, before
    the first crossing x_c, as h(x_c) >= gamma [(m-1) - S+/n1] > 0; Newton
    runs once per such row on the piece the row data holds.  A low row
    beside high ones has every gain below m, so h(0) > 1 there.
    """
    rho = _threshold(esnr(p), p.m)
    live = (_h0(data.surplus, n1, p) < 0.0).nonzero()[0] if rho < p.m else np.zeros(0, dtype=int)
    if not live.size:
        return live, np.zeros(0)
    n1 = n1[live]
    root = _stationary_rows((data.g[live], data.gg[live] / n1[:, None], esnr(p) * data.excess[live] / n1), n1)
    found = root > 0.0
    return live[found], root[found]


def _solve_rows(data: SimpleNamespace, n1: np.ndarray, p: SystemParams):
    """(case codes, e1, value, tried) for each row of the row data, one n1
    per row: the best phase-1 energy, its value and the e1 tried besides
    e1 = 0, NaN where there is none.

    Low rows take the phase-1 closed form.  Every other row scores x = 0,
    its optimum where h(0) >= 0; :func:`_roots_of_h` finds the rows where
    h(0) < 0 and the one root of h on each.  A root is kept only if it
    scores strictly above x = 0 (compared in reduced units), so a tie goes
    to the smaller e1.  A block of low rows skips all of this, a block with
    no low row skips the closed form, and a block with no root scores
    nothing more.  Energies and values are formed in joules.
    """
    codes = _case_codes(data, p)
    unit, scale, rows = p.n0 / p.beta, p.eta_t_ps * p.beta, (codes >= 0).nonzero()[0]
    if rows.size < codes.size:  # the low rows' closed form; the other rows are set below
        x, value = _phase1_closed_form(data.surplus, n1, p)
        x, value, tried = x * unit, value * scale, x * unit
    if rows.size:
        m, gamma = float(p.m), esnr(p)  # x = 0 puts every rank at m: _net is n2 equal terms
        y = max(math.sqrt(gamma * (p.m - 1)) - 1.0, 0.0)  # _phase2_energies(m), in math
        zero = np.full(p.n2, m - ((m - 1.0) * m / (y * m + m) + y / gamma)).sum()  # summed as _net sums
        if rows.size == codes.size:
            x, value, tried = np.zeros(rows.size), np.full(rows.size, zero * scale), np.full(rows.size, np.nan)
        else:
            x[rows], value[rows], tried[rows] = 0.0, zero * scale, np.nan
        at, root = _roots_of_h(data, n1, p)
        if at.size:
            score = _net(data.gains[at], root, n1[at], p)
            better = score > zero
            x[at[better]], value[at[better]] = root[better] * unit, score[better] * scale
            tried[at] = root * unit
    return codes, x, value, tried


def _curve(data: SimpleNamespace, n1: np.ndarray, p: SystemParams) -> Curve:
    # the lockstep entry: _solve_rows over blocks of _BLOCK_TARGET // n2 of the first n1.size
    # rows of the row data; one block is not joined (the copies cost about 2% of a warm solve)
    step = max(1, _BLOCK_TARGET // p.n2)
    blocks = [slice(i, min(i + step, n1.size)) for i in range(0, n1.size, step)]
    if not blocks:  # no rows: empty arrays, the gains (0, n2)
        return Curve(n1, np.empty(0, dtype=int), *np.empty((3, 0)), data.gains)
    whole = blocks == [slice(0, len(data.gains))]  # one block of all the rows: no copies
    parts = [_solve_rows(data if whole else SimpleNamespace(**{k: a[rows] for k, a in vars(data).items()}),
                         n1[rows], p) for rows in blocks]
    return Curve(n1, *(parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))), data.gains[: n1.size])


# ---------------------------------------------------------------------------
# the per-n1 solver and the outer search


def solve_curve(n1s, p: SystemParams) -> Curve:
    """Best phase-1 energy and value for each n1 in ``n1s``, in the order
    given, from rows ``n1 - n2`` of the row data :func:`optimize_training` reads,
    so each keeps its bits there; the price is that a cold query of any n1
    fills the stacked view up to ``n`` (the whole quadrature at ``n``)."""
    for n1 in n1s:
        check_n1(n1, p)
    n1 = np.array(n1s, dtype=int)
    return _curve(SimpleNamespace(**{k: a[n1 - p.n2] for k, a in vars(_stacked_rows(p)).items()}), n1, p)


def solve_for_n1(n1: int, p: SystemParams) -> CaseSolution:
    """Best phase-1 energy and value for one fixed number of trained bands:
    :func:`solve_curve` on ``[n1]``, so a cold query fills the view up to ``n``."""
    c = solve_curve([n1], p)
    return CaseSolution(_label(int(c.code[0])), float(c.e1[0]), float(c.value[0]), _tried(float(c.tried[0])))


def optimize_training(p: SystemParams) -> Solution:
    """Globally optimal training design.

    Sweeps n1 over its full range in lockstep blocks of rows, solves each
    regime exactly, and keeps the best; ties in value go to the smaller n1
    (fewer trained bands at equal net energy).  The returned plan
    re-derives the per-rank phase-2 energies from the winning (n1, e1).
    """
    curve = _curve(_stacked_rows(p), np.arange(p.n2, p.n + 1), p)
    i = int(curve.value.argmax())
    return Solution(curve.plan(i, p), float(curve.value[i]), curve)


# ---------------------------------------------------------------------------
# restricted designs used as benchmarks


def solve_phase1_only(p: SystemParams) -> tuple[TrainingPlan, float]:
    """Best design with phase 2 disabled (diversity gain only).

    With all e2 pinned at zero the objective matches the low-ESNR closed
    form for every regime, so the same formula is swept over n1, as one
    array expression over the stacked gains.
    """
    x, value = _phase1_closed_form(_stacked_rows(p).surplus[: p.n - p.n2 + 1], np.arange(p.n2, p.n + 1), p)
    i = int(np.argmax(value))
    plan = TrainingPlan(n1=p.n2 + i, e1=float(x[i]) * (p.n0 / p.beta), e2=(0.0,) * p.n2)
    return plan, float(value[i]) * (p.eta_t_ps * p.beta)


def solve_phase2_only(p: SystemParams) -> tuple[TrainingPlan, float]:
    """Best design with phase 1 disabled (beamforming gain only).

    Without ranking every band has prior power beta*m, so one water-filling
    energy is shared by all selected bands.
    """
    e2 = optimal_phase2_energy(1, p.n2, 0.0, p)
    value = p.n2 * (p.m - float(_penalty(p.m, p))) * (p.eta_t_ps * p.beta)
    return TrainingPlan(n1=p.n2, e1=0.0, e2=(e2,) * p.n2), value


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
    x = max(math.sqrt(esnr(p) * (top - p.n2) / p.n) - 1.0, 0.0)
    value = p.n2 + (top - p.n2) * x / (x + 1.0) - p.n * x / esnr(p)
    return x * (p.n0 / p.beta), value * (p.eta_t_ps * p.beta)
