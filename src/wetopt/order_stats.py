"""Expected ordered squared norms of i.i.d. complex Gaussian vectors.

If v_1, ..., v_N1 are independent CN(0, I_M) vectors and their squared
norms are sorted in decreasing order, the mean of the rank-n squared norm
is a dimensionless gain that depends only on (n, N1, M).  These gains
drive every frequency-diversity quantity in this package: rank 1 is the
expected power of the best of N1 sub-bands, rank N2 the weakest band
still selected for transmission.

Three mutually checking evaluation routes are provided:

* ``gain_closed_form``   exact rational arithmetic on the alternating
  binomial/multinomial sums (small populations only),
* ``gain_quadrature``    adaptive quadrature of the order-statistic
  survival function (any size),
* ``gain_monte_carlo``   direct simulation (independent oracle).

``gain`` dispatches between the closed form and the gain triangle below
and memoizes results in a :class:`GainTable`; ``gain_quadrature`` serves
as the triangle's oracle.

``gains_up_to`` on the quadrature route builds a whole gain triangle at
once.  One adaptive pass integrates every rank of the largest population
``N``; the triangle rule for i.i.d. order statistics (Arnold, Balakrishnan
& Nagaraja, *A First Course in Order Statistics*, ch. 5), in descending
rank,

    g(r, n-1) = ((n - r) * g(r, n) + r * g(r + 1, n)) / n,

then gives every smaller population exactly, one vectorised step per
population.  Each step is a convex combination, so the absolute error of
every derived gain is at most the largest absolute error of the
population-``N`` quadrature values, which the integrator bounds by
``max(epsabs, epsrel * ||g(., N)||_2)``, plus about one rounding per step
(``(N - n) * 2**-53`` relative at population ``n``).  Errors do not grow
down the triangle.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad_vec
from scipy.special import gammainc, gammaincc, gammaln, xlogy

__all__ = [
    "GainTable",
    "QuadratureError",
    "erlang_cdf",
    "gain",
    "gain_closed_form",
    "gain_monte_carlo",
    "gain_quadrature",
    "gains_up_to",
    "ordered_cdf",
    "shared_table",
]

# The alternating closed-form sums are evaluated exactly (rationals), so the
# caps below bound cost, not accuracy: composition/convolution work explodes
# combinatorially beyond them.
CLOSED_FORM_MAX_POP = 30
CLOSED_FORM_MAX_DIM = 8

# Upper integration endpoint is pushed out until the rank-1 survival drops
# below this; beyond it the integrand contributes < 1e-16 * range.
_SURVIVAL_CUTOFF = 1e-16

_QUAD_EPSABS = 1e-13
_QUAD_EPSREL = 1e-12
_QUAD_LIMIT = 400

_MC_CHUNK = 1 << 15


class QuadratureError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


def _validate_query(rank: int, pop: int, dim: int) -> None:
    if pop < 1:
        raise ValueError(f"population must be >= 1, got {pop}")
    if dim < 1:
        raise ValueError(f"vector dimension must be >= 1, got {dim}")
    if not 1 <= rank <= pop:
        raise ValueError(f"rank must be in [1, {pop}], got {rank}")


def erlang_cdf(v: float, dim: int, rate: float = 1.0) -> float:
    """CDF of the squared norm of a CN(0, I/rate) vector of dimension ``dim``.

    The squared norm is Erlang with shape ``dim`` and the given rate;
    the CDF is evaluated through the regularized lower incomplete gamma
    function rather than the finite exponential sum, which keeps it
    monotone and accurate for large shapes.
    """
    if dim < 1:
        raise ValueError(f"vector dimension must be >= 1, got {dim}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if v < 0:
        raise ValueError(f"squared norm must be non-negative, got {v}")
    return float(gammainc(dim, rate * v))


def ordered_cdf(rank: int, pop: int, dim: int, v: float) -> float:
    """CDF of the rank-th largest of ``pop`` i.i.d. Erlang(dim, 1) draws.

    Evaluated as the binomial tail sum with all logarithms of binomial
    weights taken through ``gammaln``, so no term overflows even for
    populations in the thousands; every summand is non-negative.
    """
    _validate_query(rank, pop, dim)
    if v < 0:
        raise ValueError(f"squared norm must be non-negative, got {v}")
    if v == 0.0:
        return 0.0
    return float(1.0 - _survivals(v, rank, pop, dim)[rank - 1])


def _survivals(v: float, rank_max: int, pop: int, dim: int) -> np.ndarray:
    """P(rank-n largest > v) for n = 1..rank_max, as one vector.

    Uses the complementary binomial sum, whose terms are all non-negative,
    so the survival probability is computed without cancellation even deep
    in the upper tail.
    """
    if v <= 0.0:
        return np.ones(rank_max)
    lower = gammainc(dim, v)
    upper = gammaincc(dim, v)
    k = np.arange(0, pop + 1)
    logb = (
        gammaln(pop + 1)
        - gammaln(k + 1)
        - gammaln(pop - k + 1)
        + xlogy(pop - k, lower)
        + xlogy(k, upper)
    )
    b = np.exp(logb)
    suffix = np.cumsum(b[::-1])[::-1]
    return np.minimum(suffix[1 : rank_max + 1], 1.0)


def _upper_cutoff(pop: int, dim: int) -> float:
    """Point beyond which the rank-1 survival is below the cutoff.

    Doubling from the Erlang mean, then bisection onto the crossing.
    """
    v = float(dim)
    for _ in range(200):
        if _survivals(v, 1, pop, dim)[0] < _SURVIVAL_CUTOFF:
            break
        v *= 2.0
    else:  # pragma: no cover - survival always reaches the cutoff
        raise QuadratureError(f"survival cutoff not reached for pop={pop} dim={dim}")
    lo, hi = v / 2.0, v
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if _survivals(mid, 1, pop, dim)[0] < _SURVIVAL_CUTOFF:
            hi = mid
        else:
            lo = mid
    return hi


def _quadrature_gains(rank_max: int, pop: int, dim: int) -> np.ndarray:
    vmax = _upper_cutoff(pop, dim)
    res, _err, info = quad_vec(
        lambda v: _survivals(v, rank_max, pop, dim),
        0.0,
        vmax,
        epsabs=_QUAD_EPSABS,
        epsrel=_QUAD_EPSREL,
        limit=_QUAD_LIMIT,
        full_output=True,
    )
    if not info.success:
        raise QuadratureError(
            f"adaptive quadrature did not converge for pop={pop} dim={dim} "
            f"(ranks 1..{rank_max}, {info.intervals.shape[0]} subintervals used)"
        )
    return np.asarray(res, dtype=float)


def gain_quadrature(rank: int, pop: int, dim: int) -> float:
    """Rank-n expected ordered squared norm by integrating the survival.

    The mean of a non-negative variate is the integral of its survival
    function; the integrand here is smooth and monotone, so adaptive
    Gauss-Kronrod reaches ~1e-12 relative error.  Works at any size
    (exercised to pop=2000, dim=256 and beyond).
    """
    _validate_query(rank, pop, dim)
    return float(_quadrature_gains(rank, pop, dim)[rank - 1])


@lru_cache(maxsize=512)
def _closed_gain_fractions(pop: int, dim: int) -> tuple[Fraction, ...]:
    """All ranks of the exact gains for one (pop, dim), as rationals.

    The rank-1 gain is an alternating binomial sum over integrals of
    powers of the Erlang survival polynomial; later ranks follow by
    subtracting one correction per rank.  Both sums alternate in sign
    with large binomial weights, so they are evaluated in exact rational
    arithmetic and rounded only on output; there is no cancellation loss.
    """
    # poly[s] = coefficient of v^s in (sum_{j<dim} v^j/j!)^p, built by
    # incremental convolution; integrating term by term against e^{-p v}
    # gives the p-th survival-power integral c_p = sum_s poly[s] s! / p^(s+1).
    base = [Fraction(1, math.factorial(j)) for j in range(dim)]
    factorial = [math.factorial(s) for s in range(pop * (dim - 1) + 1)]
    c = [Fraction(0)]  # c[0] unused; its net weight cancels identically
    power = [Fraction(1)]
    for p in range(1, pop + 1):
        new = [Fraction(0)] * (len(power) + dim - 1)
        for i, a in enumerate(power):
            if a:
                for j, b in enumerate(base):
                    new[i + j] += a * b
        power = new
        inv_p = Fraction(1, p)
        total = Fraction(0)
        scale = inv_p
        for s, a in enumerate(power):
            if a:
                total += a * factorial[s] * scale
            scale *= inv_p
        c.append(total)

    top = sum(
        (-1) ** (p + 1) * math.comb(pop, p) * c[p] for p in range(1, pop + 1)
    )
    gains = [top]
    for n in range(1, pop):
        step = math.comb(pop, n) * sum(
            (-1) ** q * math.comb(pop - n, q) * c[n + q]
            for q in range(0, pop - n + 1)
        )
        gains.append(gains[-1] - step)
    return tuple(gains)


def _harmonic_tail(rank: int, pop: int) -> float:
    # dim == 1: ordered exponentials, rank-n mean is sum_{i=n}^{pop} 1/i.
    # Summed small-to-large for accuracy.
    return math.fsum(1.0 / i for i in range(pop, rank - 1, -1))


def gain_closed_form(rank: int, pop: int, dim: int) -> float:
    """Exact rank-n gain from the finite alternating sums.

    Restricted to ``pop <= CLOSED_FORM_MAX_POP`` and
    ``dim <= CLOSED_FORM_MAX_DIM`` (cost, not stability: arithmetic is
    exact rational).  ``dim == 1`` reduces to partial harmonic sums and is
    accepted at any population.  Larger queries raise ``ValueError``
    directing the caller to :func:`gain_quadrature`.
    """
    _validate_query(rank, pop, dim)
    if dim == 1:
        return _harmonic_tail(rank, pop)
    if pop == 1:
        return float(dim)
    if pop > CLOSED_FORM_MAX_POP or dim > CLOSED_FORM_MAX_DIM:
        raise ValueError(
            f"closed form capped at pop<={CLOSED_FORM_MAX_POP}, "
            f"dim<={CLOSED_FORM_MAX_DIM} (got pop={pop}, dim={dim}); "
            "use gain_quadrature"
        )
    return float(_closed_gain_fractions(pop, dim)[rank - 1])


def gain_monte_carlo(
    rank: int, pop: int, dim: int, trials: int, seed: int
) -> tuple[float, float]:
    """Simulated rank-n gain; returns ``(mean, stderr)``.

    Draws ``trials`` independent sets of ``pop`` standard complex Gaussian
    ``dim``-vectors, sorts their squared norms and averages the rank-th
    largest.  Randomness for each fixed-size chunk of trials derives only
    from ``(seed, chunk index)``, so the result is reproducible and
    independent of evaluation order.
    """
    _validate_query(rank, pop, dim)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    values = np.empty(trials)
    pos = 0
    chunk_index = 0
    while pos < trials:
        count = min(_MC_CHUNK, trials - pos)
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
        re = rng.standard_normal((count, pop, dim))
        im = rng.standard_normal((count, pop, dim))
        norms = 0.5 * ((re * re).sum(axis=2) + (im * im).sum(axis=2))
        values[pos : pos + count] = np.partition(norms, pop - rank, axis=1)[
            :, pop - rank
        ]
        pos += count
        chunk_index += 1
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


@dataclass(frozen=True)
class GainEntry:
    value: float
    method: str  # closed_form | quadrature | monte_carlo


class GainTable:
    """Thread-safe memo of computed gains, serializable to CSV rows."""

    def __init__(self) -> None:
        self._entries: dict[tuple[int, int, int], GainEntry] = {}
        self._lock = threading.Lock()

    def lookup(self, rank: int, pop: int, dim: int) -> GainEntry | None:
        with self._lock:
            return self._entries.get((rank, pop, dim))

    def store(self, rank: int, pop: int, dim: int, value: float, method: str) -> None:
        with self._lock:
            self._entries[(rank, pop, dim)] = GainEntry(value, method)

    def store_missing(
        self, values: dict[tuple[int, int, int], float], method: str
    ) -> None:
        """Store each ``(rank, pop, dim) -> value`` whose key is still absent."""
        with self._lock:
            for key, value in values.items():
                self._entries.setdefault(key, GainEntry(value, method))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def rows(self) -> list[tuple[int, int, int, float, str]]:
        """(rank, pop, dim, value, method) rows sorted by key."""
        with self._lock:
            items = sorted(self._entries.items())
        return [(k[0], k[1], k[2], e.value, e.method) for k, e in items]


_shared_table = GainTable()


def shared_table() -> GainTable:
    """Process-wide gain memo used by :func:`gain` and :func:`gains_up_to`."""
    return _shared_table


def _route(pop: int, dim: int) -> str:
    if dim == 1 or pop == 1:
        return "closed_form"
    if pop <= CLOSED_FORM_MAX_POP and dim <= CLOSED_FORM_MAX_DIM:
        return "closed_form"
    return "quadrature"


def gain(rank: int, pop: int, dim: int, table: GainTable | None = None) -> float:
    """Rank-n expected ordered squared norm, via the cheapest exact route.

    Routes to the closed form where it is affordable (including the exact
    harmonic tails for dim == 1 at any population) and to quadrature
    elsewhere; results are memoized in ``table`` (the shared table by
    default).  A quadrature-route miss is served by :func:`gains_up_to`,
    so the memo holds the gain triangle's values only.
    """
    _validate_query(rank, pop, dim)
    table = table if table is not None else _shared_table
    hit = table.lookup(rank, pop, dim)
    if hit is not None:
        return hit.value
    method = _route(pop, dim)
    if method != "closed_form":
        return float(gains_up_to(rank, pop, dim, table)[rank - 1])
    value = gain_closed_form(rank, pop, dim)
    table.store(rank, pop, dim, value, method)
    return value


def _triangle_gains(
    rank_max: int, level: np.ndarray, dim: int
) -> dict[tuple[int, int, int], float]:
    """Quadrature-route gains for populations rank_max..pop.

    ``level`` holds every rank of population ``pop = len(level)``.  The
    triangle rule (module docstring) steps down one population at a time,
    to ``rank_max`` or to the first population on the closed-form route,
    below which every population is on it too.  Every rank of population
    ``pop`` is kept; smaller populations keep ranks 1..rank_max.  Only the
    current population's ``n`` gains are kept while walking, so the result
    holds ``O(pop * rank_max)`` floats.
    """
    pop = level.size
    ranks = np.arange(1.0, pop)
    out: dict[tuple[int, int, int], float] = {}
    for n in range(pop, rank_max - 1, -1):
        if _route(n, dim) != "quadrature":
            break
        keep = n if n == pop else rank_max
        for r, value in enumerate(level[:keep].tolist(), start=1):
            out[(r, n, dim)] = value
        r = ranks[: n - 1]
        level = ((n - r) * level[:-1] + r * level[1:]) / n
    return out


def _whole_population_above(pop: int, dim: int, table: GainTable) -> np.ndarray | None:
    """Every rank of the nearest population above ``pop`` held whole, if any.

    A triangle memoizes rank 1 of each population it passes, so the
    search stops at the first population without one.
    """
    top = pop + 1
    while table.lookup(1, top, dim) is not None:
        if table.lookup(top, top, dim) is not None:
            level = [table.lookup(r, top, dim) for r in range(1, top + 1)]
            if None not in level:
                return np.array([e.value for e in level])
        top += 1
    return None


def gains_up_to(
    rank_max: int, pop: int, dim: int, table: GainTable | None = None
) -> np.ndarray:
    """Gains for ranks 1..rank_max as one array.

    Equivalent to ``[gain(n, pop, dim) for n in 1..rank_max]``.  On the
    quadrature route a miss integrates all ``pop`` ranks in one adaptive
    pass (they share every binomial term) and walks the triangle rule
    ``g(r, n-1) = ((n - r) g(r, n) + r g(r + 1, n)) / n`` down to
    population ``rank_max``, memoizing every rank of population ``pop`` and
    ranks 1..rank_max of every smaller population on the quadrature route.
    So a later query for any of those populations is a memo hit, which is
    what makes population-wide sweeps, and rank-by-rank :func:`gain`
    calls, cost one quadrature; a miss below a population held whole walks
    down from it instead.  Every derived gain is a convex combination of
    the integrated ones, so its absolute error is bounded by the
    quadrature's.  Existing entries, closed-form ones included, are never
    overwritten.
    """
    _validate_query(rank_max, pop, dim)
    table = table if table is not None else _shared_table
    cached = [table.lookup(n, pop, dim) for n in range(1, rank_max + 1)]
    if all(e is not None for e in cached):
        return np.array([e.value for e in cached])
    method = _route(pop, dim)
    if method == "closed_form":
        if dim == 1:
            values = [_harmonic_tail(n, pop) for n in range(1, rank_max + 1)]
        elif pop == 1:
            values = [float(dim)]
        else:
            exact = _closed_gain_fractions(pop, dim)
            values = [float(exact[n]) for n in range(rank_max)]
        table.store_missing(
            {(n, pop, dim): v for n, v in enumerate(values, start=1)}, method
        )
    else:
        level = _whole_population_above(pop, dim, table)
        if level is None:
            level = _quadrature_gains(pop, pop, dim)
        table.store_missing(_triangle_gains(rank_max, level, dim), method)
    return np.array([table.lookup(n, pop, dim).value for n in range(1, rank_max + 1)])
