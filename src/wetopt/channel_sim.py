"""Monte Carlo simulation of the two-phase protocol and benchmark schemes.

Every analytic expression in :mod:`wetopt.training_model` has an
empirical counterpart here.  Trials are processed in fixed-size chunks
whose randomness derives only from ``(seed, chunk index)``, so reports
are bit-identical across runs and independent of evaluation order.

No draw has an axis of length m.  A band's harvest depends on its
channel only through a few scalars, and those are drawn from their exact
laws: the channel's coordinate along the band's pilot observation and
its power off it (:func:`_strongest`), and the phase-2 noise split along
the channel (:func:`_phase2_harvest`).  A trial costs the same at every
antenna count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import order_stats
from .training_model import SystemParams, TrainingPlan, check_n1

__all__ = [
    "BruteForce",
    "EnergyReport",
    "NoCsi",
    "PerfectCsi",
    "Phase1Only",
    "Phase2Only",
    "Scheme",
    "TwoPhase",
    "ranked_power_moments",
    "run_benchmark",
    "run_two_phase",
    "tune_brute_force_energy",
]

# Trials per chunk are sized so a chunk holds roughly this many drawn
# entries (complex or real); a fixed target keeps chunking (and therefore
# RNG streams) deterministic for given inputs.
_CHUNK_TARGET = 1 << 21


@dataclass(frozen=True)
class EnergyReport:
    """Aggregated simulation outcome for one scheme.

    ``stderr`` is the standard error of the per-trial harvested energy;
    the training cost is deterministic, so it applies to both the average
    and the net figures.  ``mean_qnet == mean_qbar - training_cost``
    holds exactly.
    """

    mean_qnet: float
    mean_qbar: float
    training_cost: float
    stderr: float
    trials: int
    seed: int


# --- scheme tags -----------------------------------------------------------


@dataclass(frozen=True)
class TwoPhase:
    plan: TrainingPlan


@dataclass(frozen=True)
class PerfectCsi:
    pass


@dataclass(frozen=True)
class NoCsi:
    pass


@dataclass(frozen=True)
class Phase1Only:
    n1: int
    e1: float


@dataclass(frozen=True)
class Phase2Only:
    e2: tuple[float, ...]


@dataclass(frozen=True)
class BruteForce:
    energy_per_band: float


Scheme = TwoPhase | PerfectCsi | NoCsi | Phase1Only | Phase2Only | BruteForce


# --- randomness helpers ----------------------------------------------------


def _complex_normal(
    rng: np.random.Generator, shape: tuple[int, ...], var: float
) -> np.ndarray:
    scale = math.sqrt(var / 2.0)
    return scale * (
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )


def _chunks(trials: int, elements_per_trial: int, seed: int):
    """Yields (generator, trial count) per chunk; chunk i draws from (seed, i)."""
    size = max(1, min(trials, _CHUNK_TARGET // max(1, elements_per_trial)))
    for index, start in enumerate(range(0, trials, size)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        yield rng, min(size, trials - start)


# --- kernels ---------------------------------------------------------------


def _strongest(
    rng: np.random.Generator, count: int, probed: int, kept: int, e: float,
    p: SystemParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Channel statistics of the ``kept`` strongest of ``probed`` bands,
    strongest first.

    A band's pilot observation y = sqrt(e) h + z is CN(0, s^2 I) with
    s^2 = beta*e + n0, so ||y||^2 is Gamma(m, s^2) and independent of the
    direction of y, and h | y is CN((sqrt(e) beta / s^2) y, sigma^2 I) with
    sigma^2 = beta n0 / s^2.  Every harvest is invariant under a common
    rotation of h and y, so y lies on the first axis, and h enters only
    through two statistics per kept band, each of shape (count, kept):

    * ``h1 = mu + CN(0, sigma^2)``, the coordinate of h along y, with
      mu = (sqrt(e) beta / s^2) ||y||;
    * ``rest ~ Gamma(m - 1, sigma^2)``, the power of h off that axis, so
      ||h||^2 = |h1|^2 + rest.

    Per trial: ``probed`` Gamma pilot energies and ``2 * kept`` draws,
    whatever m is.  The draw order is h1, rest, pilot energies.
    """
    s2 = p.beta * e + p.n0
    var = p.beta * p.n0 / s2
    h1 = _complex_normal(rng, (count, kept), var)
    rest = rng.gamma(p.m - 1, var, (count, kept))
    energy = rng.gamma(p.m, s2, (count, probed))
    top = np.partition(energy, probed - kept, axis=1)[:, probed - kept :]
    top = np.sort(top, axis=1)[:, ::-1]
    h1 += (math.sqrt(e) * p.beta / s2) * np.sqrt(top)
    return h1, rest


def _phase2_harvest(
    rng: np.random.Generator, power: np.ndarray, e2: np.ndarray, p: SystemParams
) -> np.ndarray:
    """Per-trial, per-band harvested channel power with estimated beams.

    ``power`` is ||h||^2 per trial and band, ``e2`` the phase-2 pilot
    energy per band.  The LMMSE estimate of h from y2 = sqrt(e2) h + z2 is
    a positive multiple of y2, so the beam is y2 / ||y2|| and the LMMSE
    scale cancels.  Split z2 along h: z_par ~ CN(0, n0) and
    ||z_perp||^2 ~ Gamma(m - 1, n0).  With a = sqrt(e2) ||h|| + z_par,

        |h^H y2|^2 / ||y2||^2 = ||h||^2 |a|^2 / (|a|^2 + ||z_perp||^2).

    Bands whose pilot energy is zero have no estimate and fall back to
    isotropic transmission (expected power ||h||^2 / m), which keeps the
    all-zero plan identical to the no-CSI scheme.  The noise is drawn
    last, and only when some band is trained, so a plan without phase 2
    sees the same channels as one with it.  At m = 1, ||z_perp||^2 is
    exactly 0 and both branches harvest ||h||^2 exactly.
    """
    active = e2 > 0.0
    if not np.any(active):
        return power / p.m
    z_par = _complex_normal(rng, power.shape, p.n0)
    z_perp = rng.gamma(p.m - 1, p.n0, power.shape)
    a2 = np.abs(np.sqrt(e2) * np.sqrt(power) + z_par) ** 2
    return np.where(active, power * (a2 / (a2 + z_perp)), power / p.m)


def _simulate(
    harvest, elements_per_trial: int, trials: int, seed: int, cost: float
) -> EnergyReport:
    """Report on ``trials`` trials; ``harvest(rng, count)`` gives the energy
    harvested in each of one chunk's ``count`` trials, drawn from ``rng``."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    per_trial = np.concatenate(
        [harvest(rng, count) for rng, count in _chunks(trials, elements_per_trial, seed)]
    )
    mean_qbar = float(per_trial.mean())
    stderr = (
        float(per_trial.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    )
    return EnergyReport(
        mean_qnet=mean_qbar - cost,
        mean_qbar=mean_qbar,
        training_cost=cost,
        stderr=stderr,
        trials=trials,
        seed=seed,
    )


def run_two_phase(
    plan: TrainingPlan, p: SystemParams, trials: int, seed: int
) -> EnergyReport:
    """Simulate the full protocol: probe, rank, refine, beamform, harvest.

    Per trial: matched-filter observations on the n1 probed bands rank the
    bands by received energy; the top n2 are observed again with the
    per-rank pilot energies, and each band's transmit beam follows its
    phase-2 observation (the direction of its LMMSE estimate; the scalar
    LMMSE scale cancels in the harvest).  Each kept band is drawn as the
    per-band statistics of :func:`_strongest` and :func:`_phase2_harvest`:
    ``n1 + 4 * n2`` draws per trial at any antenna count.
    """
    plan.validate_against(p)
    n1, n2 = plan.n1, p.n2
    e2 = np.asarray(plan.e2)

    def harvest(rng, count):
        h1, rest = _strongest(rng, count, n1, n2, plan.e1, p)
        per_band = _phase2_harvest(rng, np.abs(h1) ** 2 + rest, e2, p)
        return p.eta_t_ps * per_band.sum(axis=1)

    return _simulate(harvest, n1 + 4 * n2, trials, seed, plan.cost)


def _run_perfect_csi(p: SystemParams, trials: int, seed: int) -> EnergyReport:
    # Beamforming on the true channel harvests exactly ||h||^2 per band,
    # so only the band norms matter; they are Gamma(m, beta) draws.
    def harvest(rng, count):
        norms = rng.gamma(p.m, p.beta, (count, p.n))
        top = np.partition(norms, p.n - p.n2, axis=1)[:, p.n - p.n2 :]
        return p.eta_t_ps * top.sum(axis=1)

    return _simulate(harvest, p.n, trials, seed, 0.0)


def _run_no_csi(p: SystemParams, trials: int, seed: int) -> EnergyReport:
    def harvest(rng, count):
        norms = rng.gamma(p.m, p.beta, (count, p.n2))
        return p.eta_t_ps * norms.sum(axis=1) / p.m

    return _simulate(harvest, p.n2, trials, seed, 0.0)


def _run_phase2_only(
    e2: tuple[float, ...], p: SystemParams, trials: int, seed: int
) -> EnergyReport:
    # Bands are exchangeable, so a fixed selection stands in for a random
    # one and the reported spread reflects channel randomness only.  The
    # energies must pass as those of a plan that probes no extra band.
    TrainingPlan(n1=p.n2, e1=0.0, e2=e2).validate_against(p)
    e2 = np.asarray(e2, dtype=float)

    def harvest(rng, count):
        power = rng.gamma(p.m, p.beta, (count, p.n2))
        per_band = _phase2_harvest(rng, power, e2, p)
        return p.eta_t_ps * per_band.sum(axis=1)

    return _simulate(harvest, 3 * p.n2, trials, seed, float(e2.sum()))


def _run_brute_force(
    energy: float, p: SystemParams, trials: int, seed: int
) -> EnergyReport:
    # Estimate every band, pick the n2 largest estimated norms, beamform
    # with the estimates: along the first axis of _strongest's frame, so the
    # harvest is |h1|^2 (isotropic, as in _phase2_harvest, at zero energy).
    if energy < 0:
        raise ValueError(f"per-band energy must be >= 0, got {energy}")

    def harvest(rng, count):
        h1, rest = _strongest(rng, count, p.n, p.n2, energy, p)
        if energy > 0.0:
            per_band = np.abs(h1) ** 2
        else:
            per_band = (np.abs(h1) ** 2 + rest) / p.m
        return p.eta_t_ps * per_band.sum(axis=1)

    return _simulate(harvest, p.n + 2 * p.n2, trials, seed, energy * p.n)


def run_benchmark(
    scheme: Scheme, p: SystemParams, trials: int, seed: int
) -> EnergyReport:
    """Simulate one scheme; see the scheme dataclasses for parameters."""
    if isinstance(scheme, TwoPhase):
        return run_two_phase(scheme.plan, p, trials, seed)
    if isinstance(scheme, PerfectCsi):
        return _run_perfect_csi(p, trials, seed)
    if isinstance(scheme, NoCsi):
        return _run_no_csi(p, trials, seed)
    if isinstance(scheme, Phase1Only):
        plan = TrainingPlan(n1=scheme.n1, e1=scheme.e1, e2=(0.0,) * p.n2)
        return run_two_phase(plan, p, trials, seed)
    if isinstance(scheme, Phase2Only):
        return _run_phase2_only(scheme.e2, p, trials, seed)
    if isinstance(scheme, BruteForce):
        return _run_brute_force(scheme.energy_per_band, p, trials, seed)
    raise TypeError(f"unknown scheme {scheme!r}")


def ranked_power_moments(
    n1: int, e1: float, p: SystemParams, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical mean true channel power per rank after noisy selection.

    Runs the probing phase only and averages ||h||^2 of the band placed at
    each rank; returns ``(means, stderrs)`` over all n1 ranks.  Direct
    validation of the analytic per-rank expected powers.
    """
    check_n1(n1, p)
    if e1 < 0:
        raise ValueError(f"phase-1 energy must be >= 0, got {e1}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    total = np.zeros(n1)
    total_sq = np.zeros(n1)
    for rng, count in _chunks(trials, 3 * n1, seed):
        h1, rest = _strongest(rng, count, n1, n1, e1, p)
        ranked = np.abs(h1) ** 2 + rest
        total += ranked.sum(axis=0)
        total_sq += (ranked**2).sum(axis=0)
    means = total / trials
    if trials > 1:
        var = (total_sq - trials * means**2) / (trials - 1)
        stderrs = np.sqrt(np.maximum(var, 0.0) / trials)
    else:
        stderrs = np.zeros(n1)
    return means, stderrs


def tune_brute_force_energy(
    p: SystemParams, seed: int, pilot_trials: int = 1000
) -> float:
    """Per-band pilot energy for the brute-force scheme, by simulation.

    A golden-section search maximizes the empirical net energy at pilot
    scale with common random numbers (the same seed for every probe keeps
    the objective smooth); an oracle for the closed-form optimum of
    :func:`wetopt.optimizer.solve_brute_force`.
    """
    top = float(np.sum(order_stats.gains_up_to(p.n2, p.n, p.m)))
    hi = p.eta_t_ps * p.beta * top / p.n
    lo = 0.0

    def net(energy: float) -> float:
        return _run_brute_force(energy, p, pilot_trials, seed).mean_qnet

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = net(c), net(d)
    for _ in range(24):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = net(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = net(d)
    return 0.5 * (a + b)
