"""Expected ordered squared norms of i.i.d. complex Gaussian vectors.

If v_1, ..., v_N1 are independent CN(0, I_M) vectors and their squared
norms are sorted in decreasing order, the mean of the rank-n squared norm
is a dimensionless gain that depends only on (n, N1, M).  These gains
drive every frequency-diversity quantity in this package: rank 1 is the
expected power of the best of N1 sub-bands, rank N2 the weakest band
still selected for transmission.

Three mutually checking evaluation routes are provided:

* ``gain_closed_form``   exact rational arithmetic on the alternating
  binomial/multinomial sums (small populations only; an oracle),
* ``gain_quadrature``    adaptive quadrature of the order-statistic
  survival function (any size),
* ``gain_monte_carlo``   direct simulation (independent oracle).

``gains_up_to`` and ``gain`` serve every production caller from one memo
keyed by ``(N, M)``: each entry is a read-only array of the gains of
ranks ``1..k`` of population ``N``, held whole when ``k == N``.  In the
closed-form domain (:func:`closed_form_domain`: one antenna, or one band)
an entry holds the exact gains; every other entry comes from the gain
triangle below, with ``gain_quadrature`` and ``gain_closed_form`` as its
oracles.  Every entry on the quadrature route derives from exactly one
integrated population: a miss walks down from the nearest population held
whole above it, past any populations the memo lacks, switches to the
stored array of each population held whole that it passes, and never
rewrites an entry that already holds the ranks asked for.  A fill holds
one module-level lock; a hit reads one array without it.
``stacked_gains`` copies a range of populations once into one read-only
array.

On the quadrature route ``gains_up_to`` builds a whole gain triangle at
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

The quadrature needs numpy and the standard library only:

* Erlang tails.  The squared norm is Erlang(M, 1) with integer shape, so
  its CDF ``P`` and survival ``Q`` are Poisson tails, each summed in
  positive terms outward from the Poisson term at ``k = M``: ``P`` below
  ``v = M`` by the series ``e^-v v^M/M! * sum_j v^j/((M+1)...(M+j))``,
  ``Q`` above it by the finite sum ``e^-v sum_{k<M} v^k/k!``.  The larger
  tail is always ``log1p(-smaller)``, so both keep the smaller one's
  relative accuracy.
* Binomial weights.  ``log C(N, k)`` comes from a table of ``log k!``
  (``math.lgamma``), cached per population.  The survival of each rank is
  a suffix sum of the weights divided by their total, which is 1 in
  exact arithmetic; the division cancels the rounding all weights share
  through ``log N!`` (at ``N = 1e4``, ``M = 1`` the rank-1 gain is off by
  1.0e-10 without it, 6.9e-12 with it).
* Integration.  A globally adaptive Gauss-Kronrod G10K21 rule, scipy
  ``quad_vec``'s, integrates all ranks at once, first between the rungs of
  the cutoff's ladder, then on bisections, evaluating the integrand once a round.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache, partial

import numpy as np

__all__ = [
    "QuadratureError",
    "closed_form_domain",
    "gain",
    "gain_closed_form",
    "gain_monte_carlo",
    "gain_quadrature",
    "gains_up_to",
    "stacked_gains",
]

# The alternating closed-form sums are evaluated exactly (rationals), so the
# caps below bound cost, not accuracy: composition/convolution work explodes
# combinatorially beyond them.
CLOSED_FORM_MAX_POP = 30
CLOSED_FORM_MAX_DIM = 8

# Upper integration endpoint is pushed out until the rank-1 survival drops
# below this; beyond it the integrand contributes < 1e-16 * range.
_SURVIVAL_CUTOFF = 1e-16
_LADDER = 2.0 ** np.arange(200)  # rungs dim * 2^j, which bracket that point

_QUAD_EPSABS = 1e-13
_QUAD_EPSREL = 1e-12
_QUAD_LIMIT = 400
# One refinement round evaluates (nodes x (pop + 1)) binomial weights at
# once; this cap on that count keeps populations in the thousands to a few
# tens of megabytes per round, at the cost of more rounds.
_ROUND_CELLS = 1 << 21

# Gauss-Kronrod 21-point rule on [-1, 1] (QUADPACK's qk21, the default rule
# of scipy's quad_vec): the Kronrod nodes from the outside in, ending at the
# centre, with their weights; every second one is a node of the embedded
# 10-point Gauss rule, whose weights follow.
_KRONROD_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_KRONROD_HALF_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GAUSS_HALF_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.concatenate([-_KRONROD_HALF, _KRONROD_HALF[-2::-1]])
_KRONROD_WEIGHTS = np.concatenate(
    [_KRONROD_HALF_WEIGHTS, _KRONROD_HALF_WEIGHTS[-2::-1]]
)
_GAUSS_WEIGHTS = np.zeros(_GK_NODES.size)
_GAUSS_WEIGHTS[1:10:2] = _GAUSS_HALF_WEIGHTS
_GAUSS_WEIGHTS[11:20:2] = _GAUSS_HALF_WEIGHTS[::-1]

_MC_CHUNK = 1 << 15


class QuadratureError(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


def _check_integer(name: str, value) -> None:
    # NumPy integers are integers; a bool is not
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _validate_query(rank: int, pop: int, dim: int) -> None:
    _check_integer("rank", rank)
    _check_integer("population", pop)
    _check_integer("vector dimension", dim)
    if pop < 1:
        raise ValueError(f"population must be >= 1, got {pop}")
    if dim < 1:
        raise ValueError(f"vector dimension must be >= 1, got {dim}")
    if not 1 <= rank <= pop:
        raise ValueError(f"rank must be in [1, {pop}], got {rank}")


def _log_stirling_gap(a: int) -> float:
    # log(a!) - (a log a - a); past a = 20 by the Stirling series, whose first
    # omitted term, 1/(1188 a^9), is below 2e-15 there
    if a < 20:
        return math.lgamma(a + 1) - a * math.log(a) + a
    inv2 = 1.0 / (a * a)
    series = 1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680))
    return 0.5 * math.log(2.0 * math.pi * a) + series / a


def _erlang_log_tails(v: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``(log P, log Q)`` of an Erlang(dim, 1) variate at each point ``v > 0``.

    P is the CDF and Q the survival.  For an integer shape both are
    Poisson tails, ``Q = e^-v sum_{k<dim} v^k/k!`` and
    ``P = e^-v sum_{k>=dim} v^k/k!``, and each side of ``v = dim`` (where
    both are near 1/2) sums its smaller tail outward from the Poisson term
    at ``k = dim``, in positive terms only:

        P = pmf(dim) * sum_j v^j / ((dim+1)...(dim+j))           v < dim
        Q = pmf(dim) * (dim/v) * sum_j (dim-1)...(dim-j) / v^j   v >= dim

    The larger tail is always ``log1p(-smaller)``, so both tails keep the
    smaller one's relative accuracy (within 3.2e-13 of 60-digit sums).
    The term ``log pmf(dim) = dim (log t - t + 1) - (log dim! - dim log dim + dim)``
    with ``t = v/dim`` is formed without the ~3e4-sized pieces that
    ``dim log v - v - log dim!`` cancels at ``dim`` in the thousands.  Each
    series stops once its terms, bounded by ``exp(-j^2 / (2 (dim + j)))``,
    fall below ``e^-45``.
    """
    x = v / dim - 1.0
    log_t = np.where(x < -0.5, np.log(v / dim), np.log1p(np.maximum(x, -0.5)))
    log_pmf = dim * (log_t - x) - _log_stirling_gap(dim)
    terms = int(45 + math.sqrt(2025 + 90 * dim))
    logp, logq = np.empty_like(v), np.empty_like(v)
    low = v < dim
    below, above = v[low], v[~low]
    rising = np.cumprod(below[:, None] / np.arange(dim + 1, dim + terms), axis=1)
    logp[low] = log_pmf[low] + np.log1p(rising.sum(axis=1))
    logq[low] = np.log1p(-np.exp(logp[low]))
    down = np.arange(dim - 1, max(dim - terms, 0), -1)
    falling = np.cumprod(down / above[:, None], axis=1)
    logq[~low] = log_pmf[~low] + np.log(dim / above) + np.log1p(falling.sum(axis=1))
    logp[~low] = np.log1p(-np.exp(logq[~low]))
    return logp, logq


@lru_cache(maxsize=64)
def _log_binomials(pop: int) -> np.ndarray:
    """log C(pop, k) for k = 0..pop, from a table of log k!."""
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(pop + 1)])
    row = log_fact[-1] - log_fact - log_fact[::-1]
    row.flags.writeable = False
    return row


def _survivals(v: np.ndarray, rank_max: int, pop: int, dim: int) -> np.ndarray:
    """P(rank-n largest > v) for n = 1..rank_max, one row per point ``v > 0``.

    With ``b_k = C(pop, k) P^(pop-k) Q^k`` the chance that exactly ``k`` of
    the draws exceed ``v``, the rank-n survival is the suffix sum
    ``sum_{k>=n} b_k``: non-negative terms, so no cancellation even deep
    in the upper tail.  The weights are formed from logarithms, so none
    overflows.  Each suffix sum is divided by the total ``sum_k b_k``,
    which is 1 in exact arithmetic: this cancels the rounding that every
    ``log C(pop, k)`` shares through ``log pop!``, which would otherwise
    shift all survivals alike.
    """
    logp, logq = _erlang_log_tails(v, dim)
    k = np.arange(pop + 1)
    logb = np.multiply.outer(logp, pop - k)
    logb += np.multiply.outer(logq, k)
    logb += _log_binomials(pop)
    suffix = np.cumsum(np.exp(logb)[:, ::-1], axis=1)[:, ::-1]
    return suffix[:, 1 : rank_max + 1] / suffix[:, :1]


def _upper_cutoff(pop: int, dim: int) -> float:
    """Point beyond which the rank-1 survival ``-expm1(pop log P)`` is below
    the cutoff.  One Erlang tail call tests eight rungs of the ladder; each
    further one narrows the crossing's bracket to a gap of a 64-point grid,
    until it is within 1e-9 relative.  The bracket's upper end is returned.
    """

    def below(v: np.ndarray) -> np.ndarray:
        return -np.expm1(pop * _erlang_log_tails(v, dim)[0]) < _SURVIVAL_CUTOFF

    for j in range(0, _LADDER.size, 8):
        rungs = dim * _LADDER[j : j + 8]
        if (hits := below(rungs)).any():
            break
    else:  # pragma: no cover - survival always reaches the cutoff
        raise QuadratureError(f"survival cutoff not reached for pop={pop} dim={dim}")
    hi = rungs[hits.argmax()]
    lo = hi / 2.0
    while hi - lo > 1e-9 * hi:
        ends = np.linspace(lo, hi, 66)
        k = np.append(below(ends[1:-1]), True).argmax()  # the first gap whose upper end is below
        lo, hi = ends[k], ends[k + 1]
    return float(hi)


def _gauss_kronrod(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """G10K21 integral of ``f`` over each ``[lo_i, hi_i]``, with its error.

    ``f`` maps a 1-D array of points to one row of values per point; it is
    called once, on every node of every interval.  The error estimate is
    QUADPACK's, with the 2-norm over the row as ``quad_vec`` takes it: the
    Kronrod-Gauss difference, damped against the integrand's spread about
    its mean, and never below the Kronrod sum's rounding.  ``f`` is
    non-negative here, so the Kronrod sum is also the integral of ``|f|``.
    """
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = (centre[:, None] + half[:, None] * _GK_NODES).ravel()
    values = f(nodes).reshape(lo.size, _GK_NODES.size, -1)
    kronrod = _KRONROD_WEIGHTS @ values
    spread = half * np.linalg.norm(
        _KRONROD_WEIGHTS @ np.abs(values - 0.5 * kronrod[:, None, :]), axis=1
    )
    err = half * np.linalg.norm(kronrod - _GAUSS_WEIGHTS @ values, axis=1)
    ratio = np.divide(200.0 * err, spread, out=np.zeros_like(err), where=spread > 0)
    err = np.where(spread > 0, spread * np.minimum(1.0, ratio**1.5), err)
    rounding = 50.0 * np.finfo(float).eps * half * np.linalg.norm(kronrod, axis=1)
    return half[:, None] * kronrod, np.maximum(err, rounding)


def _quadrature_gains(rank_max: int, pop: int, dim: int) -> np.ndarray:
    """Gains of ranks 1..rank_max: each survival integrated over [0, cutoff].

    A globally adaptive G10K21 rule over all ranks at once, first between
    0, the ladder's rungs below the crossing and the cutoff.  It stops when
    the summed interval errors are at most
    ``max(_QUAD_EPSABS, _QUAD_EPSREL * ||gains||_2)``.  Each later round
    bisects the intervals of largest error until the error left in the
    others is at most half that tolerance.  A round evaluates the integrand
    in one call, on at most ``2 * per_round`` intervals (the first drops its
    lowest rungs past that), so within ``_ROUND_CELLS`` binomial weights.
    ``QuadratureError`` is raised when ``_QUAD_LIMIT`` intervals are not enough.
    """
    survivals = partial(_survivals, rank_max=rank_max, pop=pop, dim=dim)
    per_round = max(1, _ROUND_CELLS // (2 * _GK_NODES.size * (pop + 1)))
    cutoff, rungs = _upper_cutoff(pop, dim), dim * _LADDER
    hi = np.append(rungs[rungs < cutoff], cutoff)[-2 * per_round :]
    lo = np.append(0.0, hi[:-1])
    res, err = _gauss_kronrod(survivals, lo, hi)
    while True:
        total = res.sum(axis=0)
        tol = max(_QUAD_EPSABS, _QUAD_EPSREL * float(np.linalg.norm(total)))
        if err.sum() <= tol:
            return total
        if lo.size >= _QUAD_LIMIT:
            raise QuadratureError(
                f"adaptive quadrature did not converge for pop={pop} dim={dim} "
                f"(ranks 1..{rank_max}, {lo.size} subintervals used)"
            )
        order = np.argsort(err)[::-1]
        left = err.sum() - np.cumsum(err[order])
        count = 1 + np.count_nonzero(left > 0.5 * tol)
        split, rest = np.split(order, [min(count, per_round, _QUAD_LIMIT - lo.size)])
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_res, new_err = _gauss_kronrod(survivals, new_lo, new_hi)
        lo = np.concatenate([lo[rest], new_lo])
        hi = np.concatenate([hi[rest], new_hi])
        res = np.concatenate([res[rest], new_res])
        err = np.concatenate([err[rest], new_err])


def gain_quadrature(rank: int, pop: int, dim: int) -> float:
    """Rank-n expected ordered squared norm by integrating the survival.

    The mean of a non-negative variate is the integral of its survival
    function.  The integrand here is smooth and monotone, so the adaptive
    numpy G10K21 rule of :func:`_quadrature_gains` reaches ~1e-12 relative
    error.  Works at any size (exercised to pop=2000, dim=256 and
    pop=10000, dim=1).
    """
    _validate_query(rank, pop, dim)
    return float(_quadrature_gains(rank, pop, dim)[rank - 1])


def _closed_gain_fractions(pop: int, dim: int) -> tuple[Fraction, ...]:
    """All ranks of the exact gains for one (pop, dim), as rationals.

    The rank-1 gain is an alternating binomial sum over integrals of
    powers of the Erlang survival polynomial; later ranks follow by
    subtracting one correction per rank.  Both sums alternate in sign
    with large binomial weights, so they are evaluated in exact rational
    arithmetic and rounded only on output; there is no cancellation loss.
    """
    from fractions import Fraction  # imported on first use, to keep start-up light

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
    for chunk_index, pos in enumerate(range(0, trials, _MC_CHUNK)):
        count = min(_MC_CHUNK, trials - pos)
        rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
        re = rng.standard_normal((count, pop, dim))
        im = rng.standard_normal((count, pop, dim))
        norms = 0.5 * ((re * re).sum(axis=2) + (im * im).sum(axis=2))
        values[pos : pos + count] = np.partition(norms, pop - rank, axis=1)[
            :, pop - rank
        ]
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


# (pop, dim) -> read-only gains of ranks 1..k of that population, k <= pop;
# "held whole" when k == pop.  Entries are replaced, never mutated, so a
# reader needs no lock; fills hold _fill_lock.
_memo: dict[tuple[int, int], np.ndarray] = {}
_fill_lock = threading.Lock()
# (rank_max, dim) -> stacked_gains' rows up to the largest population asked
_stacks: dict[tuple[int, int], np.ndarray] = {}


def closed_form_domain(pop: int, dim: int) -> bool:
    """True where :func:`gains_up_to` takes the exact closed form: ``dim == 1``
    (harmonic tails) or ``pop == 1`` (the gain is ``dim``), at any size;
    everywhere else the gains come from the quadrature and its triangle.
    """
    return dim == 1 or pop == 1


def _hold(pop: int, dim: int, values) -> np.ndarray:
    held = np.array(values, dtype=float)
    held.flags.writeable = False
    _memo[(pop, dim)] = held
    return held


def _walk_down(rank_max: int, level: np.ndarray, dim: int) -> None:
    """Memoize ranks 1..rank_max of each population below ``level``'s.

    ``level`` holds every rank of population ``len(level)``, ``dim >= 2``.
    The triangle rule (module docstring) steps down one population at a
    time, to ``rank_max`` or to population 2, as a single band's gain is
    ``dim`` exactly.  On reaching a population held whole the walk continues
    from its array, so every population keeps the one source it first had;
    a population that already holds ``rank_max`` ranks is left as it is.
    Each population stores a copy of its first ``rank_max`` gains, so the
    memo grows by ``O(pop * rank_max)`` floats.
    """
    ranks = np.arange(1.0, level.size)
    for n in range(level.size, max(rank_max, 2), -1):
        r = ranks[: n - 1]
        level = ((n - r) * level[:-1] + r * level[1:]) / n
        held = _memo.get((n - 1, dim))
        if held is not None and held.size == n - 1:
            level = held
        elif held is None or held.size < rank_max:
            _hold(n - 1, dim, level[:rank_max])


def _fill(rank_max: int, pop: int, dim: int) -> None:
    # a miss: population pop is absent or holds fewer than rank_max ranks
    held = _memo.get((pop, dim))
    if held is not None and held.size >= rank_max:
        return  # filled by another thread meanwhile
    if dim == 1:
        done = [] if held is None else held.tolist()
        tails = [_harmonic_tail(n, pop) for n in range(len(done) + 1, rank_max + 1)]
        _hold(pop, dim, done + tails)
    elif pop == 1:
        _hold(pop, dim, [float(dim)])
    else:
        whole = [n for (n, d), held in _memo.items() if d == dim and n > pop and held.size == n]
        level = _memo[(min(whole), dim)] if whole else _hold(pop, dim, _quadrature_gains(pop, pop, dim))
        _walk_down(rank_max, level, dim)


def gains_up_to(rank_max: int, pop: int, dim: int) -> np.ndarray:
    """Gains for ranks 1..rank_max as one read-only array.

    A memo hit is one read of the ``(pop, dim)`` array and a slice.  On a
    miss, a population in the closed-form domain stores its exact gains
    (``dim == 1``: the harmonic tails of ranks 1..rank_max, extended by a
    later miss; ``pop == 1``: ``dim``).  Every other miss walks the
    triangle rule ``g(r, n-1) = ((n - r) g(r, n) + r g(r + 1, n)) / n``
    down from the smallest population above ``pop`` that the memo holds
    whole, whatever gaps lie between; if there is none, one adaptive
    pass integrates all ``pop`` ranks (they share every binomial term) and
    the walk starts there.  The walk memoizes ranks 1..rank_max of every
    smaller population down to population ``rank_max`` (or 2), and
    switches to the stored array of each population held
    whole that it passes.  So every population's gains derive from one
    integrated population, a value once returned never changes, and
    population-wide sweeps, like rank-by-rank :func:`gain` calls, cost one
    quadrature.  Every derived gain is a convex combination of the
    integrated ones, so its absolute error is bounded by the quadrature's.
    A fill holds one module-level lock, so concurrent callers never
    interleave writes; a hit takes no lock.
    """
    return _held_gains(rank_max, pop, dim)


def gain(rank: int, pop: int, dim: int) -> float:
    """Rank-n expected ordered squared norm.

    ``gains_up_to(rank, pop, dim)[rank - 1]`` as a float, served from the
    same ``(pop, dim)`` memo, so it takes the closed form
    in its domain (the exact harmonic tails for ``dim == 1`` at any
    population) and the quadrature triangle elsewhere.
    """
    return float(_held_gains(rank, pop, dim)[rank - 1])


def _held_gains(rank_max: int, pop: int, dim: int) -> np.ndarray:
    # both public readers share this body, so neither counts as a call of
    # the other where callers wrap them
    _validate_query(rank_max, pop, dim)
    held = _memo.get((pop, dim))
    if held is None or held.size < rank_max:
        with _fill_lock:
            _fill(rank_max, pop, dim)
        held = _memo[(pop, dim)]
    return held[:rank_max]


def stacked_gains(rank_max: int, pop: int, dim: int) -> np.ndarray:
    """``gains_up_to(rank_max, n, dim)`` of every population ``n`` in
    ``rank_max..pop`` as the rows of one read-only array.

    One array is kept per ``(rank_max, dim)``, for the largest ``pop``
    asked; a smaller ``pop`` gets a view of its first rows.
    """
    _validate_query(rank_max, pop, dim)
    stack = _stacks.get((rank_max, dim))
    size = pop - rank_max + 1
    if stack is None or size > len(stack):
        # largest population first: its fill serves the ones below
        rows = [gains_up_to(rank_max, n, dim) for n in range(pop, rank_max - 1, -1)]
        stack = np.array(rows[::-1])
        stack.flags.writeable = False
        _stacks[(rank_max, dim)] = stack  # a racing smaller build may replace it: same bits
    return stack[:size]
