"""Time the simulator kernels of one or more ``src`` trees, side by side.

Usage::

    python tools/bench_simulator.py --tree parent=../parent/src --tree change=src \
        --out BENCH_simulator.json

Each tree is timed as :func:`benchlib.interleave` runs it: one
long-lived worker per tree, all pinned to one CPU with one BLAS thread;
every case runs once untimed in each worker, then, case by case,
``PAIRS`` times per tree, the order of the trees alternating from pair
to pair.  Each case reports every tree's median and quartiles, to three
significant figures, and how many pairs the last tree won against the
first.  The cases are the ROADMAP baseline's simulator rows at ISM
(``m=10, n=866, n2=16``, ``t=5e-5``, 1e4 trials) with ``PerfectCsi`` and
``Phase1Only`` beside them; the six scheme runs of one ``wetopt sweep``
(``sweep_T``) row at the ``validate-ism-schemes`` shape (``m=10, n=50,
n2=16``, ``t=5e-5``, 4000 trials); ``run_two_phase`` on one small system
at growing antenna counts, which shows whether a trial's cost grows with
m; and the m = 10 plan of that system run at m = 1, where its phase-2
pilots change nothing but the bill.  The "sweep row" cases run all six
schemes of a row at the ISM and validate shapes as ``wetopt sweep`` does,
in one ``channel_sim.run_schemes`` batch.  A digest of the repr of each
case's reports is written beside the times: ``same_bits`` says whether
all trees simulated the same numbers.  Two trees with the same simulator make an
A/A run, whose win counts and median ratios show the bench's own spread.
"""

from __future__ import annotations

import hashlib
import json
import sys

import benchlib

TRIALS = 10_000
VALIDATE_TRIALS = 4000  # as the validate-ism-schemes workload runs them
SEED = 1
PAIRS = 50  # timed ops per tree and case
SCALING_M = (10, 100, 1000)


def _sweep_row(channel_sim, optimizer, p, trials):
    """One sweep row's six scheme runs at ``p``, built as ``wetopt.cli`` builds them."""
    p1_plan, _ = optimizer.solve_phase1_only(p)
    schemes = (
        channel_sim.TwoPhase(optimizer.optimize_training(p).plan),
        channel_sim.PerfectCsi(),
        channel_sim.NoCsi(),
        channel_sim.Phase1Only(n1=p1_plan.n1, e1=p1_plan.e1),
        channel_sim.Phase2Only(e2=optimizer.solve_phase2_only(p)[0].e2),
        channel_sim.BruteForce(energy_per_band=optimizer.solve_brute_force(p)[0]),
    )
    return schemes, lambda: channel_sim.run_schemes(schemes, p, trials, SEED)


def _cases():
    """(name, zero-argument callable, evict) per timed case; set-up is not
    timed, and no case asks for the cache-evicting pass."""
    from wetopt import SystemParams, channel_sim, optimizer

    link = dict(ps=0.06, eta=0.8, beta=1e-6, n0=1e-19)
    ism = SystemParams(m=10, n=866, n2=16, t=5e-5, **link)
    plan = optimizer.optimize_training(ism).plan
    if plan.n1 != 219:
        raise RuntimeError(f"ISM optimum moved: n1 = {plan.n1}, expected 219")
    bf_energy, _ = optimizer.solve_brute_force(ism)
    p1_plan, _ = optimizer.solve_phase1_only(ism)
    p2_plan, _ = optimizer.solve_phase2_only(ism)
    cases = [
        ("run_two_phase ISM n1=219",
         lambda: channel_sim.run_two_phase(plan, ism, TRIALS, SEED)),
        ("BruteForce ISM", lambda: channel_sim.run_benchmark(
            channel_sim.BruteForce(bf_energy), ism, TRIALS, SEED)),
        ("Phase2Only ISM", lambda: channel_sim.run_benchmark(
            channel_sim.Phase2Only(p2_plan.e2), ism, TRIALS, SEED)),
        ("PerfectCsi ISM", lambda: channel_sim.run_benchmark(
            channel_sim.PerfectCsi(), ism, TRIALS, SEED)),
        ("Phase1Only ISM", lambda: channel_sim.run_benchmark(
            channel_sim.Phase1Only(n1=p1_plan.n1, e1=p1_plan.e1), ism, TRIALS, SEED)),
    ]
    # the six runs of one sweep_T row at the validate-ism-schemes shape,
    # each alone and all in one batch
    validate = SystemParams(m=10, n=50, n2=16, t=5e-5, **link)
    schemes, row = _sweep_row(channel_sim, optimizer, validate, VALIDATE_TRIALS)
    for scheme in schemes:
        cases.append((
            f"{type(scheme).__name__} validate n=50, 4000 trials",
            lambda scheme=scheme: channel_sim.run_benchmark(
                scheme, validate, VALIDATE_TRIALS, SEED),
        ))
    cases.append(("sweep row validate n=50, 4000 trials", row))
    cases.append(("sweep row ISM", _sweep_row(channel_sim, optimizer, ism, TRIALS)[1]))
    for m in SCALING_M:
        p = SystemParams(m=m, n=16, n2=4, t=1e-2, **link)
        small = optimizer.optimize_training(p).plan
        cases.append((
            f"run_two_phase m={m} (n=16, n2=4, n1={small.n1})",
            lambda small=small, p=p: channel_sim.run_two_phase(small, p, TRIALS, SEED),
        ))
    trained = optimizer.optimize_training(SystemParams(m=10, n=16, n2=4, t=1e-2, **link)).plan
    one = SystemParams(m=1, n=16, n2=4, t=1e-2, **link)
    cases.append((
        f"run_two_phase m=1 (n=16, n2=4, n1={trained.n1}, the m=10 plan's e2 > 0)",
        lambda: channel_sim.run_two_phase(trained, one, TRIALS, SEED),
    ))
    return [(name, run, False) for name, run in cases]


def _answer(out) -> str:
    """A digest of the repr of a case's report or reports."""
    return hashlib.sha256(repr(out).encode()).hexdigest()


def main(argv=None) -> int:
    args, trees = benchlib.parse_args(argv, __doc__.splitlines()[0], "BENCH_simulator.json")
    if args.child:
        benchlib.serve(_cases(), _answer)
        return 0
    numpy_version, times, answers = benchlib.interleave(__file__, trees, PAIRS)
    labels = [label for label, _ in trees]
    what = "wall time in seconds of one call, median and quartiles over interleaved pairs, seed 1"
    report = benchlib.report(what, numpy_version, labels, pairs=PAIRS, trials=TRIALS)
    report["rows"] = [
        {"case": name, **benchlib.summary(times[name], labels), "same_bits": len(set(answers[name].values())) == 1}
        for name in times
    ]
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for row in report["rows"]:
        cells = "".join(f"  {label} {row[label]['median']:9.3g}" for label in labels)
        print(f"{row['case']:62s}{cells}  {benchlib.wins_text(row, labels, PAIRS)}  same bits {row['same_bits']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
