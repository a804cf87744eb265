"""Monte Carlo simulation of the two-phase protocol and benchmark schemes.

Every analytic expression in :mod:`wetopt.training_model` has an
empirical counterpart here, drawn in its reduced units; each report
converts to joules once.

No draw has an axis of length m, so a trial costs the same at every
antenna count.  A band's harvest depends on its channel only through a
few real scalars, and each kernel draws, from their exact laws, only
those it reads: one pilot energy per probed band, two draws per kept band
for the channel power given its pilot energy (:func:`_kept_power`) and
three per trained band for the phase-2 noise split along the channel
(:func:`_phase2_harvest`).  A harvest that is a sum over the kept bands (no
phase 2, one antenna, brute force, no CSI, and phase-2-only per energy
level) is drawn as that sum, from the same law, in two draws per trial
besides the pilot energies.

Trials run in chunks of ``_CHUNK_TARGET // (n + 4 n2)``, whose randomness
derives only from ``(seed, chunk index)``, so reports are bit-identical
across runs.  Schemes simulated together share common random numbers
(:func:`run_schemes`): per chunk the unit Gamma(m) pilot energies are
drawn once, band-major, and partitioned once per ``(probed, kept)``, and
each scheme kind draws the rest from its own Generator.  So a report is
the same, to the bit, alone or in any batch, and keeps its exact law; the
reports of one batch are correlated, so gaps judged by their
``hypot(stderr)`` are conservative.
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
    "run_schemes",
    "run_two_phase",
    "tune_brute_force_energy",
]

# Trials per chunk are this target over n + 4 n2 for every scheme: a
# frozen stream key, not a draw count; changing it moves every stream.
_CHUNK_TARGET = 1 << 21
_BLOCK = 1 << 16  # values per transposed block of pilot energies


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
    """The two-phase protocol under ``plan``: probe, rank, refine, beamform."""

    plan: TrainingPlan


@dataclass(frozen=True)
class PerfectCsi:
    """Beamforming on the exact channels of the n2 strongest of all n bands,
    with no training bill: the ceiling of every other scheme."""


@dataclass(frozen=True)
class NoCsi:
    """No training: n2 bands taken blind, each transmitted isotropically."""


@dataclass(frozen=True)
class Phase1Only:
    """Phase 1 alone: ``n1`` bands probed at ``e1`` joules each, the n2
    strongest kept and transmitted isotropically (diversity gain only)."""

    n1: int
    e1: float


@dataclass(frozen=True)
class Phase2Only:
    """Phase 2 alone: n2 bands taken blind, band i trained with ``e2[i]``
    joules and beamformed on its estimate (beamforming gain only)."""

    e2: tuple[float, ...]


@dataclass(frozen=True)
class BruteForce:
    """Every one of the n bands estimated with ``energy_per_band`` joules, the
    n2 largest estimates kept and beamformed on."""

    energy_per_band: float


Scheme = TwoPhase | PerfectCsi | NoCsi | Phase1Only | Phase2Only | BruteForce


# --- randomness helpers ----------------------------------------------------


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


class _Chunk:
    """One chunk of trials and the draws its schemes share.

    ``energy`` holds unit Gamma(m, 1) pilot energies band-major,
    (width, count), from the Generator keyed (seed, chunk): a scheme that
    probes r bands reads the first r rows, the same stream at any width.
    Scaled by x + 1 they are pilot energies at pilot SNR x; as they are,
    channel norms.  Shared arrays are read-only, and ``energy`` lives in a
    buffer that the next chunk overwrites, so no result may be a view of it.
    """

    def __init__(self, seed: int, index: int, energy: np.ndarray, m: int):
        self.seed, self.index, self.count = seed, index, energy.shape[1]
        if energy.size:
            _rng(seed, index).standard_gamma(m, out=energy)
        energy.flags.writeable = False
        self.energy = energy
        self._top: dict[tuple[int, int], np.ndarray] = {}

    def rng(self, key: int) -> np.random.Generator:
        return _rng(self.seed, self.index, key)

    def top(self, probed: int, kept: int) -> np.ndarray:
        """The ``kept`` largest of each trial's first ``probed`` energies,
        (count, kept), in no order; partitioned once per chunk."""
        top = self._top.get((probed, kept))
        if top is None:
            # in blocks of trials, so each transposed copy stays in cache
            top = np.empty((self.count, kept))
            step = max(1, _BLOCK // probed)
            block = np.empty((step, probed))
            for start in range(0, self.count, step):
                rows = block[: min(step, self.count - start)]
                np.copyto(rows, self.energy[:probed, start : start + step].T)
                rows.partition(probed - kept, axis=1)
                top[start : start + step] = rows[:, probed - kept :]
            top.flags.writeable = False
            self._top[probed, kept] = top
        return top


def _chunks(trials: int, width: int, seed: int, p: SystemParams):
    """Yields each chunk of ``trials``, ``width`` energy bands wide, all
    drawn into one buffer.  Every scheme's chunks hold
    ``_CHUNK_TARGET // (n + 4 n2)`` trials."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    size = max(1, min(trials, _CHUNK_TARGET // (p.n + 4 * p.n2)))
    buffer = np.empty(width * size)
    for index, start in enumerate(range(0, trials, size)):
        count = min(size, trials - start)
        yield _Chunk(seed, index, buffer[: width * count].reshape(width, count), p.m)


# --- kernels ---------------------------------------------------------------


def _kept_power(
    rng: np.random.Generator, energy: np.ndarray, x: float, dof: int
) -> np.ndarray:
    """Channel powers over beta at pilot SNR ``x``, one per entry of
    ``energy``, each given the unit pilot energy E there, with ``dof``
    complex degrees of freedom.  Consumes ``energy``: its square root is
    taken in place.

    In unit-variance channels and noise, a band's pilot observation
    y = sqrt(x) h + z is CN(0, (x + 1) I), so ||y||^2 = (x + 1) E with E a
    unit Gamma(m), independent of the direction of y, and h | y is
    CN(c y, sigma^2 I) with c = sqrt(x) / (x + 1) and sigma^2 = 1 / (x + 1).
    Every harvest is invariant under a common rotation of h and y, so y lies
    on the first axis: each of the 2 m real coordinates of h is normal with
    variance sigma^2 / 2, all centred but the real part of h1, whose mean is
    mu = c ||y|| = sqrt(x sigma^2 E).  Each centred one adds sigma^2 Z'^2 / 2,
    a Gamma(1/2, sigma^2), and independent Gammas of one scale add their
    shapes, so with Z a standard normal

        ||h||^2 = (mu + sigma Z / sqrt 2)^2 + Gamma(dof - 1/2, sigma^2)

    at dof = m, and |h1|^2, the power along the estimate, at dof = 1.  Over
    independent kept bands the sum has the same law: a rotation puts every
    band's mean on one coordinate, of mean sqrt(x sigma^2 sum E), so the
    energies add and so do the degrees of freedom.

    A caller passes the kept energies strongest first with dof = m (each
    band's ||h||^2), or their per-trial sums with dof = m kept (the summed
    ||h||^2) or dof = kept (the summed |h1|^2).  Drawn in this order, each
    shaped like ``energy``: the normals Z and the Gammas, two draws per
    entry whatever m is.
    """
    half = 0.5 / (x + 1.0)  # sigma^2 / 2, per real coordinate
    power = rng.standard_normal(energy.shape)
    off = rng.gamma(dof - 0.5, 2.0 * half, energy.shape)
    np.sqrt(energy, out=energy)
    energy *= math.sqrt(2.0 * x * half)
    power *= math.sqrt(half)
    power += energy
    np.square(power, out=power)
    power += off
    return power


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

    An untrained band (y = 0) has no estimate and harvests ||h||^2 / m.
    """
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
    np.divide(power, p.m, out=out, where=y == 0.0)
    return out


# Each kind's own draws come from the Generator keyed (seed, chunk, key).
# The keys are frozen and nonzero: SeedSequence pads a key with zeros, so
# key 0 would repeat the energies' (seed, chunk) stream.
_TWO_PHASE, _NO_CSI, _PHASE2_ONLY, _BRUTE_FORCE = 1, 2, 3, 4


def _kernel(scheme: Scheme, p: SystemParams):
    """``(probed, key, harvest, cost)`` for one scheme: it reads the first
    ``probed`` energy bands of each chunk, ``harvest(rng, chunk)`` gives the
    harvest over beta of each of the chunk's trials, drawing the rest from
    ``rng`` (the Generator ``key``, or None), and ``cost`` is the training
    bill in joules.  Probing at zero energy ranks by noise: with no band
    trained, or at m = 1, the harvest is then the no-CSI law.
    """
    snr = p.beta / p.n0

    def no_csi(rng, chunk):
        # isotropic transmission harvests the kept bands' summed ||h||^2
        # over m, n2 Gamma(m) norms: one Gamma(n2 m) per trial
        return rng.gamma(p.n2 * p.m, 1.0, chunk.count) / p.m

    if isinstance(scheme, Phase1Only):
        scheme = TwoPhase(TrainingPlan(n1=scheme.n1, e1=scheme.e1, e2=(0.0,) * p.n2))
    if isinstance(scheme, BruteForce) and not 0.0 <= scheme.energy_per_band < math.inf:
        raise ValueError(f"per-band energy must be finite and >= 0, got {scheme.energy_per_band}")
    if scheme == BruteForce(0.0):
        scheme = NoCsi()  # the ranking is noise and the transmission isotropic
    if isinstance(scheme, TwoPhase):
        plan = scheme.plan
        plan.validate_against(p)
        n1, n2, x, y = plan.n1, p.n2, plan.e1 * snr, np.asarray(plan.e2) * snr
        if p.m > 1 and np.any(y > 0.0):
            def harvest(rng, chunk):
                energy = np.sort(chunk.top(n1, n2), axis=1)[:, ::-1]  # strongest first
                power = _kept_power(rng, energy, x, p.m)
                return _phase2_harvest(rng, power, y, p).sum(axis=1)
        elif x == 0.0:
            return 0, _NO_CSI, no_csi, plan.cost
        else:
            def harvest(rng, chunk):
                return _kept_power(rng, chunk.top(n1, n2).sum(axis=1), x, p.m * n2) / p.m
        return n1, _TWO_PHASE, harvest, plan.cost
    if isinstance(scheme, NoCsi):
        return 0, _NO_CSI, no_csi, 0.0
    if isinstance(scheme, PerfectCsi):
        # beamforming on the true channel harvests exactly the kept norms
        return p.n, None, lambda rng, chunk: chunk.top(p.n, p.n2).sum(axis=1), 0.0
    if isinstance(scheme, Phase2Only):
        # Bands are exchangeable: the first n2 stand in for a random selection,
        # with a plan's energies.  Read as ||y2||^2 / (y + 1), a trained band's
        # energy gives brute force's |h1|^2 law at x = y, summed per level; an
        # untrained band, or any at m = 1, harvests its norm over m.
        TrainingPlan(n1=p.n2, e1=0.0, e2=scheme.e2).validate_against(p)
        y = np.asarray(scheme.e2, dtype=float) * snr
        trained = (y > 0.0) & (p.m > 1)

        def harvest(rng, chunk):
            energy = chunk.energy[: p.n2]
            total = energy[~trained].sum(axis=0) / p.m
            for level in np.unique(y[trained]):
                kept = energy[y == level]
                total += _kept_power(rng, kept.T.sum(axis=1), level, len(kept))
            return total

        return p.n2, _PHASE2_ONLY, harvest, float(np.sum(scheme.e2))
    if isinstance(scheme, BruteForce):
        # Estimate every band, pick the n2 largest estimated norms, beamform
        # with the estimates: along the first axis of _kept_power's frame, so
        # the harvest is the kept bands' summed |h1|^2.
        x = scheme.energy_per_band * snr

        def harvest(rng, chunk):
            return _kept_power(rng, chunk.top(p.n, p.n2).sum(axis=1), x, p.n2)

        return p.n, _BRUTE_FORCE, harvest, scheme.energy_per_band * p.n
    raise TypeError(f"unknown scheme {scheme!r}")


def _report(harvest: np.ndarray, cost: float, seed: int, p: SystemParams) -> EnergyReport:
    """Report, in joules, on the per-trial harvests over beta, each scaled
    once: the spread too, as squared joules overflow past 1e154."""
    scale, trials = p.eta_t_ps * p.beta, len(harvest)
    mean_qbar = float((harvest * scale).mean())
    stderr = float(harvest.std(ddof=1) * scale / math.sqrt(trials)) if trials > 1 else 0.0
    return EnergyReport(mean_qbar - cost, mean_qbar, cost, stderr, trials, seed)


def run_schemes(
    schemes, p: SystemParams, trials: int, seed: int
) -> tuple[EnergyReport, ...]:
    """Simulate several schemes on common random numbers, one report each.

    Per chunk the unit pilot energies are drawn once, and each top-``kept``
    partition is done once, for every scheme of the batch (see
    :class:`_Chunk`); each scheme's own draws come from its kind's
    Generator.  Every report has its scheme's exact law and equals
    ``run_benchmark(scheme, p, trials, seed)`` bit for bit, whatever else
    the batch holds.  The reports of one batch are correlated, positively
    where the schemes rank the same energies.
    """
    kernels = [_kernel(scheme, p) for scheme in schemes]
    width = max((probed for probed, *_ in kernels), default=0)
    parts = [[] for _ in kernels]
    for chunk in _chunks(trials, width, seed, p):
        for part, (_, key, harvest, _) in zip(parts, kernels):
            part.append(harvest(chunk.rng(key) if key else None, chunk))
    return tuple(
        _report(np.concatenate(part), cost, seed, p)
        for part, (*_, cost) in zip(parts, kernels)
    )


def run_two_phase(
    plan: TrainingPlan, p: SystemParams, trials: int, seed: int
) -> EnergyReport:
    """Simulate the full protocol: probe, rank, refine, beamform, harvest.

    Per trial: matched-filter observations on the n1 probed bands rank the
    bands by received energy; the top n2 are observed again with the
    per-rank pilot energies, and each band's transmit beam follows its
    phase-2 observation (the direction of its LMMSE estimate; the scalar
    LMMSE scale cancels in the harvest): ``n1 + 5 * n2`` draws per trial
    at any antenna count.  With no band refined, or at m = 1, the harvest
    is the kept bands' summed power over m, drawn as that sum in ``n1 + 2``
    (:func:`_kept_power`), so at one antenna phase-2 pilots change nothing
    but the bill.  A one-scheme :func:`run_schemes`.
    """
    return run_schemes((TwoPhase(plan),), p, trials, seed)[0]


def run_benchmark(
    scheme: Scheme, p: SystemParams, trials: int, seed: int
) -> EnergyReport:
    """Simulate one scheme; see the scheme dataclasses for parameters."""
    return run_schemes((scheme,), p, trials, seed)[0]


def ranked_power_moments(
    n1: int, e1: float, p: SystemParams, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical mean true channel power per rank after noisy selection.

    Runs the probing phase only and averages ||h||^2 of the band placed at
    each rank; returns ``(means, stderrs)`` over all n1 ranks.  Direct
    validation of the analytic per-rank expected powers.  The ranks read
    the energies and draws of a two-phase run probing n1 bands.
    """
    check_n1(n1, p)
    check_e1(e1)
    total = np.zeros(n1)
    total_sq = np.zeros(n1)
    x = e1 * (p.beta / p.n0)
    for chunk in _chunks(trials, n1, seed, p):
        energy = np.sort(chunk.top(n1, n1), axis=1)[:, ::-1]  # strongest first
        ranked = _kept_power(chunk.rng(_TWO_PHASE), energy, x, p.m)
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
        return run_benchmark(BruteForce(energy), p, pilot_trials, seed).mean_qnet

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
