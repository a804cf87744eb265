"""Time ``optimize_training`` for one or more ``src`` trees, side by side.

Usage::

    python tools/bench_optimizer.py --tree parent=../parent/src --tree change=src \
        --out BENCH_optimizer.json

Each tree is timed as :func:`benchlib.interleave` runs it: one
long-lived worker per tree, all pinned to one CPU with one BLAS thread;
every case runs once untimed in each worker, then, case by case,
``PAIRS`` times per tree, the order of the trees alternating from pair
to pair.  Each case reports every tree's median and quartiles, to three
significant figures, and how many pairs the last tree won against the
first.  A warm case finds the gain memo full after its untimed run; a
cold case runs every op on empty gain memos, swapped in for that op
alone, so it pays the gain quadrature as a first call does and leaves
the warm cases warm.  The cases are the four ``design-sweep-wide`` block
lengths, one by one and the four together (as one ``perfbench`` op runs
them), the four together again after a 64 MB pass that evicts the CPU
caches (as ``perfbench`` runs them between the reference's solves), the
ISM link (``m=10, n=866, n2=16``, ``t=5e-5``) cold and warm, the same
radio at ``n=5000`` cold and warm, a wide high design (``m=4, n=200, n2=100``), a
wide medium one (``m=4, n=400, n2=200``, ``t=5e-7``: up to 124 crossings
per ``n1``), the four ``design-sweep-wide`` block lengths on that wide
stack together (a ``t`` sweep where ``n2`` is large), the acceptance
c09 shape (``m=1, n=2000, n2=1``), a small link cold (``m=8, n=30,
n2=4``: populations up to 30 at ``m <= 8`` once took exact rationals) and
``python -m wetopt.cli optimize`` in a fresh interpreter per op at the
``perfbench`` ``optimize-ism-cold`` shape (``m=10, n=120, n2=16``,
``t=1e-5``), start-up and imports included.  Each tree's answers
(``n1*``, ``e1*``, ``qnet_star``) are written beside the times, with a
digest of the repr of every solve's ``n1``, ``e1``, ``e2``,
``qnet_star``, labels per ``n1`` and candidate log (of the CSV bytes for
the command-line case): ``same_bits`` says whether all trees agree to
the bit, so a speed-up that moved an answer shows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import benchlib

PAIRS = 100  # timed ops per tree and case


def _cases():
    """(name, zero-argument callable returning a tuple of Solutions, or the
    command-line case's CSV bytes, evict) per case; ``evict`` asks for the
    cache-evicting pass before each op."""
    import wetopt
    from wetopt import SystemParams, optimizer, order_stats

    link = dict(ps=0.06, eta=0.8, beta=1e-6, n0=1e-19)

    def case(name, cold=False, **shape):
        p = SystemParams(**shape, **link)

        def run():
            if not cold:
                return (optimizer.optimize_training(p),)
            # empty memos for this op alone, so the warm cases stay warm
            held = {name: getattr(order_stats, name) for name in ("_memo", "_stacks")}
            for name in held:
                setattr(order_stats, name, {})
            try:
                return (optimizer.optimize_training(p),)
            finally:
                for name, memo in held.items():
                    setattr(order_stats, name, memo)

        return name, run, False

    wide_t = (1e-7, 3e-7, 5e-6, 1e-1)
    wide = [
        case(f"design-sweep-wide t={t:g} (m=4, n=80, n2=64)", m=4, n=80, n2=64, t=t)
        for t in wide_t
    ]
    four = [SystemParams(m=4, n=80, n2=64, t=t, **link) for t in wide_t]
    stack = [SystemParams(m=4, n=400, n2=200, t=t, **link) for t in wide_t]

    def together():
        return tuple(optimizer.optimize_training(p) for p in four)

    def wide_stack():
        return tuple(optimizer.optimize_training(p) for p in stack)

    # the command in a fresh interpreter that imports this worker's wetopt,
    # run in a directory of its own so the CSV echoes the same out path
    work = tempfile.TemporaryDirectory()
    with open(os.path.join(work.name, "optimize.conf"), "w") as fh:
        fh.write(
            "experiment = optimize\nm = 10\nn = 120\nn2 = 16\nt_s = 1e-05\n"
            "ps_w = 0.06\neta = 0.8\nbeta = 1e-06\nn0_j = 1e-19\nout = optimize.csv\n"
        )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(wetopt.__file__)))

    def cli_cold():
        subprocess.run(
            [sys.executable, "-m", "wetopt.cli", "optimize", "--config", "optimize.conf"],
            cwd=work.name, env=env, check=True,
        )
        with open(os.path.join(work.name, "optimize.csv"), "rb") as fh:
            return fh.read()

    return wide + [
        ("design-sweep-wide, the four solves together", together, False),
        ("design-sweep-wide, the four solves together, caches evicted", together, True),
        case("ISM n=866 cold", True, m=10, n=866, n2=16, t=5e-5),
        case("ISM n=866 warm", m=10, n=866, n2=16, t=5e-5),
        case("m=10, n=5000, n2=16 cold", True, m=10, n=5000, n2=16, t=5e-5),
        case("m=10, n=5000, n2=16 warm", m=10, n=5000, n2=16, t=5e-5),
        case("m=4, n=200, n2=100 warm", m=4, n=200, n2=100, t=5e-5),
        case("m=4, n=400, n2=200, t=5e-7 warm", m=4, n=400, n2=200, t=5e-7),
        ("wide-stack t sweep, the four design-sweep-wide t at m=4, n=400, n2=200", wide_stack, False),
        case("c09 shape m=1, n=2000, n2=1 warm", m=1, n=2000, n2=1, t=0.05),
        case("m=8, n=30, n2=4 cold", True, m=8, n=30, n2=4, t=5e-5),
        ("wetopt optimize, fresh interpreter, m=10, n=120, n2=16, t=1e-5", cli_cold, False),
    ]


def _answer(sols) -> dict:
    """Each solve's n1*, e1* and qnet_star, and a digest of the repr of
    every solve's n1, e1, e2, qnet_star, labels per n1 and candidate log;
    for the command-line case, the CSV row's and a digest of its bytes."""
    if isinstance(sols, bytes):
        row = next(csv.DictReader(l for l in sols.decode().splitlines() if not l.startswith("#")))
        return {
            "n1": [int(row["n1_star"])],
            "e1": [float(row["e1_star_j"])],
            "qnet_star": [float(row["qnet_j"])],
            "repr_sha256": hashlib.sha256(sols).hexdigest(),
        }
    fields = [
        (s.plan.n1, s.plan.e1, s.plan.e2, s.qnet_star, dict(s.case_used_per_n1), s.candidate_log)
        for s in sols
    ]
    return {
        "n1": [s.plan.n1 for s in sols],
        "e1": [s.plan.e1 for s in sols],
        "qnet_star": [s.qnet_star for s in sols],
        "repr_sha256": hashlib.sha256(repr(fields).encode()).hexdigest(),
    }


def _compare(answers: dict[str, dict], first: str) -> dict:
    """Whether every tree's answers match ``first``'s n1 and bits, and the
    largest relative qnet_star gap to it."""
    ref = answers[first]["qnet_star"]
    return {
        "same_n1": len({tuple(a["n1"]) for a in answers.values()}) == 1,
        "same_bits": len({a["repr_sha256"] for a in answers.values()}) == 1,
        f"max_rel_qnet_vs_{first}": max(
            abs(q - r) / abs(r) for a in answers.values() for q, r in zip(a["qnet_star"], ref)
        ),
    }


def main(argv=None) -> int:
    args, trees = benchlib.parse_args(argv, __doc__.splitlines()[0], "BENCH_optimizer.json")
    if args.child:
        benchlib.serve(_cases(), _answer)
        return 0
    numpy_version, times, answers = benchlib.interleave(__file__, trees, PAIRS)
    names = list(times)
    labels = [label for label, _ in trees]
    first = labels[0]
    what = "wall time in seconds of one op, median and quartiles over interleaved pairs"
    report = benchlib.report(what, numpy_version, labels, pairs=PAIRS)
    report["rows"] = [{"case": name, **benchlib.summary(times[name], labels)} for name in names]
    report["answers"] = [
        {"case": name, **answers[name], **_compare(answers[name], first)} for name in names
    ]
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for row, answer in zip(report["rows"], report["answers"]):
        cells = "".join(f"  {label} {row[label]['median']:9.3g}" for label in labels)
        print(
            f"{row['case']:62s}{cells}  {benchlib.wins_text(row, labels, PAIRS)}"
            f"  same bits {answer['same_bits']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
