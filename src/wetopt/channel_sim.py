"""Monte Carlo simulation of the two-phase protocol and benchmark schemes.

Every analytic expression in :mod:`wetopt.training_model` has an
empirical counterpart here.  Trials are processed in fixed-size chunks
whose randomness derives only from ``(seed, chunk index)``, so reports
are bit-identical across runs and independent of evaluation order.

No draw has an axis of length m.  A band's harvest depends on its
channel only through a few real scalars, and each kernel draws, from
their exact laws, only those its harvest reads: one pilot energy per
probed band and two draws per kept band for the channel power
(:func:`_strongest`), and three per trained band for the phase-2 noise
split along the channel (:func:`_phase2_harvest`).  A scheme whose
harvest is a sum over the kept bands of their powers (no phase 2, one
antenna, brute force, no CSI) draws that sum instead, in two draws per
trial besides the pilot energies (:func:`_strongest_total`).  A trial
costs the same at every antenna count.  The kernels draw in the reduced
units of :mod:`wetopt.training_model`; each report converts to joules
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import order_stats
from .training_model import SystemParams, TrainingPlan, check_e1, check_n1

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

# Trials per chunk are this target over a fixed count per trial for each
# scheme.  The counts are frozen stream keys, not draw counts: they date
# from earlier kernels, and changing one moves every (seed, chunk) stream.
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


def _chunks(trials: int, elements_per_trial: int, seed: int):
    """Yields (generator, trial count) per chunk; chunk i draws from (seed, i)."""
    size = max(1, min(trials, _CHUNK_TARGET // max(1, elements_per_trial)))
    for index, start in enumerate(range(0, trials, size)):
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        yield rng, min(size, trials - start)


# --- kernels ---------------------------------------------------------------


def _strongest(
    rng: np.random.Generator, count: int, probed: int, kept: int, x: float,
    p: SystemParams,
) -> np.ndarray:
    """Channel powers ||h||^2 over beta of the ``kept`` strongest of
    ``probed`` bands at pilot SNR ``x``, (count, kept), strongest first.

    In unit-variance channels and noise, a band's pilot observation
    y = sqrt(x) h + z is CN(0, (x + 1) I), so ||y||^2 is Gamma(m, x + 1) and
    independent of the direction of y, and h | y is CN(c y, sigma^2 I) with
    c = sqrt(x) / (x + 1) and sigma^2 = 1 / (x + 1).  Every harvest is
    invariant under a common rotation of h and y, so y lies on the first
    axis, and h enters only through its coordinate h1 = mu + CN(0, sigma^2)
    along y, with mu = c ||y||, and its power off that axis,
    Gamma(m - 1, sigma^2).  With Z1, Z2 standard normals,

        |h1|^2 = (mu + sigma Z1 / sqrt 2)^2 + sigma^2 Z2^2 / 2,
        ||h||^2 = (mu + sigma Z1 / sqrt 2)^2 + Gamma(m - 1/2, sigma^2),

    since sigma^2 Z2^2 / 2 is Gamma(1/2, sigma^2) and independent Gammas of
    one scale add their shapes.

    Drawn in this order, each as one (count, kept) or (count, probed)
    array: the normals Z1; the Gamma(m - 1/2) powers; the Gamma pilot
    energies, partitioned and sorted in place.  That is
    ``probed + 2 * kept`` draws per trial, whatever m is.  A caller that
    reads only the sum over the kept bands draws it from
    :func:`_strongest_total` instead.
    """
    s2 = x + 1.0
    half = 0.5 / s2  # sigma^2 / 2, per real coordinate
    power = rng.standard_normal((count, kept))
    off = rng.gamma(p.m - 0.5, 2.0 * half, (count, kept))
    energy = rng.gamma(p.m, s2, (count, probed))
    energy.partition(probed - kept, axis=1)
    mu = energy[:, probed - kept :]
    mu.sort(axis=1)
    np.sqrt(mu, out=mu)
    mu *= math.sqrt(x) / s2
    power *= math.sqrt(half)
    power += mu[:, ::-1]
    np.square(power, out=power)
    power += off
    return power


def _strongest_total(
    rng: np.random.Generator, count: int, probed: int, kept: int, x: float,
    p: SystemParams, along: bool = False,
) -> np.ndarray:
    """Per trial, the sum over the ``kept`` strongest bands of their powers
    ||h||^2, or ``along`` |h1|^2, over beta, (count,), in the frame of
    :func:`_strongest` and drawn from that sum's own law.

    Given the pilot energies E_r = ||y_r||^2, the kept channels are
    independent CN(c y_r, sigma^2 I), so their summed power is sigma^2 / 2
    times a noncentral chi-square with 2 m kept degrees of freedom and
    noncentrality 2 c^2 sum E_r / sigma^2 (2 kept degrees along y_r).  All
    the noncentrality can sit on one real coordinate, so with Z standard
    normal and d = m kept (kept along),

        total = (c sqrt(sum E_r) + sigma Z / sqrt 2)^2 + Gamma(d - 1/2, sigma^2).

    Drawn in this order: the normals Z and the Gammas, each as one (count,)
    array, then the (count, probed) pilot energies, partitioned in place
    and the top ``kept`` summed.  That is ``probed + 2`` draws per trial.
    """
    s2 = x + 1.0
    half = 0.5 / s2  # sigma^2 / 2, per real coordinate
    dof = kept if along else p.m * kept
    total = rng.standard_normal(count)
    off = rng.gamma(dof - 0.5, 2.0 * half, count)
    energy = rng.gamma(p.m, s2, (count, probed))
    energy.partition(probed - kept, axis=1)
    mu = np.sqrt(energy[:, probed - kept :].sum(axis=1))
    mu *= math.sqrt(x) / s2
    total *= math.sqrt(half)
    total += mu
    np.square(total, out=total)
    total += off
    return total


def _phase2_harvest(
    rng: np.random.Generator, power: np.ndarray, y: np.ndarray, p: SystemParams
) -> np.ndarray:
    """Per-trial, per-band harvested channel power with estimated beams.

    ``power`` is ||h||^2 / beta per trial and band, ``y`` the phase-2 pilot
    SNR beta e2 / n0 per band, and z2 has unit variance.  The LMMSE estimate
    of h from y2 = sqrt(y) h + z2 is a positive multiple of y2, so the beam
    is y2 / ||y2|| and the LMMSE scale cancels.  Split z2 along h:
    z_par ~ CN(0, 1), ||z_perp||^2 ~ Gamma(m - 1).  With a = sqrt(y) ||h|| + z_par,

        |h^H y2|^2 / ||y2||^2 = ||h||^2 |a|^2 / (|a|^2 + ||z_perp||^2),

    where |a|^2 = (sqrt(y) ||h|| + Re z_par)^2 + (Im z_par)^2 is formed in
    real arithmetic.  Drawn in this order, each as one array shaped like
    ``power``: the real parts of z_par, their imaginary parts (standard
    normals over sqrt 2) and ||z_perp||^2, three draws per band.

    Bands whose pilot energy is zero have no estimate and fall back to
    isotropic transmission (expected power ||h||^2 / m).  The noise is
    drawn last, and only when some band is trained.  At m = 1,
    ||z_perp||^2 is exactly 0 and both branches harvest ||h||^2 exactly.
    """
    active = y > 0.0
    if not np.any(active):
        return power / p.m
    a2 = rng.standard_normal(power.shape)
    a2 *= math.sqrt(0.5)
    a2 += np.sqrt(y) * np.sqrt(power)
    np.square(a2, out=a2)
    im = rng.standard_normal(power.shape)
    im *= math.sqrt(0.5)
    np.square(im, out=im)
    a2 += im
    out = rng.gamma(p.m - 1, 1.0, power.shape)
    out += a2
    np.divide(a2, out, out=out)
    out *= power
    np.divide(power, p.m, out=out, where=~active)
    return out


def _simulate(
    harvest, elements_per_trial: int, trials: int, seed: int, cost: float, p: SystemParams
) -> EnergyReport:
    """Report, in joules, on ``trials`` trials; ``harvest(rng, count)`` gives
    the harvest over beta of each of one chunk's ``count`` trials, from ``rng``."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    per_trial = np.concatenate(
        [harvest(rng, count) for rng, count in _chunks(trials, elements_per_trial, seed)]
    ) * (p.eta_t_ps * p.beta)
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
    ``n1 + 5 * n2`` draws per trial at any antenna count.  When no band is
    refined every band transmits isotropically, and at m = 1 every beam
    harvests ||h||^2 whatever e2 is; either way the harvest is the kept
    bands' summed power over m, drawn by :func:`_strongest_total` in
    ``n1 + 2`` draws, so at one antenna phase-2 pilots change nothing but
    the bill.  ``n1 + 4 * n2`` is a frozen chunk key.
    """
    plan.validate_against(p)
    n1, n2, snr = plan.n1, p.n2, p.beta / p.n0
    x, y = plan.e1 * snr, np.asarray(plan.e2) * snr

    if p.m == 1 or not np.any(y > 0.0):
        def harvest(rng, count):
            return _strongest_total(rng, count, n1, n2, x, p) / p.m
    else:
        def harvest(rng, count):
            power = _strongest(rng, count, n1, n2, x, p)
            return _phase2_harvest(rng, power, y, p).sum(axis=1)

    return _simulate(harvest, n1 + 4 * n2, trials, seed, plan.cost, p)


def _run_perfect_csi(p: SystemParams, trials: int, seed: int) -> EnergyReport:
    # Beamforming on the true channel harvests exactly ||h||^2 per band,
    # so only the band norms matter; they are Gamma(m) draws.
    def harvest(rng, count):
        norms = rng.gamma(p.m, 1.0, (count, p.n))
        norms.partition(p.n - p.n2, axis=1)
        return norms[:, p.n - p.n2 :].sum(axis=1)

    return _simulate(harvest, p.n, trials, seed, 0.0, p)


def _run_no_csi(p: SystemParams, trials: int, seed: int) -> EnergyReport:
    # isotropic transmission harvests the kept bands' summed ||h||^2 over m,
    # a sum of n2 Gamma(m) norms: one Gamma(n2 m) per trial
    def harvest(rng, count):
        return rng.gamma(p.n2 * p.m, 1.0, count) / p.m

    return _simulate(harvest, p.n2, trials, seed, 0.0, p)


def _run_phase2_only(
    e2: tuple[float, ...], p: SystemParams, trials: int, seed: int
) -> EnergyReport:
    # Bands are exchangeable: a fixed selection stands in for a random one
    # (the spread is channel randomness only).  The energies must pass as a
    # plan's that probes no extra band.  3 n2 is a frozen chunk key.
    TrainingPlan(n1=p.n2, e1=0.0, e2=e2).validate_against(p)
    y = np.asarray(e2, dtype=float) * (p.beta / p.n0)

    def harvest(rng, count):
        power = rng.gamma(p.m, 1.0, (count, p.n2))
        return _phase2_harvest(rng, power, y, p).sum(axis=1)

    return _simulate(harvest, 3 * p.n2, trials, seed, float(np.sum(e2)), p)


def _run_brute_force(
    energy: float, p: SystemParams, trials: int, seed: int
) -> EnergyReport:
    # Estimate every band, pick the n2 largest estimated norms, beamform
    # with the estimates: along the first axis of _strongest's frame, so the
    # harvest is the kept bands' summed |h1|^2, which _strongest_total draws
    # in n + 2 draws per trial.  At zero energy the ranking is noise and the
    # transmission isotropic: that is the no-CSI scheme.
    if energy < 0:
        raise ValueError(f"per-band energy must be >= 0, got {energy}")
    if energy == 0.0:
        return _run_no_csi(p, trials, seed)
    x = energy * (p.beta / p.n0)

    def harvest(rng, count):
        return _strongest_total(rng, count, p.n, p.n2, x, p, along=True)

    return _simulate(harvest, p.n + 2 * p.n2, trials, seed, energy * p.n, p)


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
    check_e1(e1)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    total = np.zeros(n1)
    total_sq = np.zeros(n1)
    for rng, count in _chunks(trials, 3 * n1, seed):
        ranked = _strongest(rng, count, n1, n1, e1 * (p.beta / p.n0), p)
        total += ranked.sum(axis=0)
        np.square(ranked, out=ranked)
        total_sq += ranked.sum(axis=0)
    means = total / trials
    if trials > 1:
        var = (total_sq - trials * means**2) / (trials - 1)
        stderrs = np.sqrt(np.maximum(var, 0.0) / trials)
    else:
        stderrs = np.zeros(n1)
    return means * p.beta, stderrs * p.beta


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
