"""Time ``optimize_training`` for one or more ``src`` trees, side by side.

Usage::

    python tools/bench_optimizer.py --tree parent=../parent/src --tree change=src \
        --out BENCH_optimizer.json

Each tree is timed as :mod:`benchlib` runs it (fresh interpreters pinned
to one CPU with one BLAS thread, rounds alternating the trees), and each
case reports the best of all its repeats.  A warm case runs once untimed
first, so the gain memo is full; a cold case empties the memo before
every run, so it pays the gain quadrature as a first call does.  The
cases are the four ``design-sweep-wide`` block lengths, one by one and
the four together (as one ``perfbench`` op runs them), the ISM link
(``m=10, n=866, n2=16``, ``t=5e-5``), the same radio at ``n=5000`` cold
and warm, a wide high design (``m=4, n=200, n2=100``), a wide medium one
(``m=4, n=400, n2=200``, ``t=5e-7``: up to 124 crossings per ``n1``) and
the acceptance c09 shape (``m=1, n=2000, n2=1``).  Times are written to
three significant figures.  Each tree's answers (``n1*``, ``e1*``,
``qnet_star``) are written beside the times, with a digest of the repr
of every solve's ``n1``, ``e1``, ``e2`` and ``qnet_star``: ``same_bits``
says whether all trees agree to the bit, so a speed-up that moved an
answer shows.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import benchlib

ROUNDS = 2  # fresh interpreters per tree, alternating trees
REPEATS = 3  # timed runs per case in each interpreter


def _cases():
    """(name, zero-argument callable returning a tuple of Solutions, cold)
    per case."""
    from wetopt import SystemParams, optimizer, order_stats

    link = dict(ps=0.06, eta=0.8, beta=1e-6, n0=1e-19)

    def case(name, cold=False, **shape):
        p = SystemParams(**shape, **link)

        def run():
            if cold:
                order_stats._memo.clear()
            return (optimizer.optimize_training(p),)

        return name, run, cold

    wide_t = (1e-7, 3e-7, 5e-6, 1e-1)
    wide = [
        case(f"design-sweep-wide t={t:g} (m=4, n=80, n2=64)", m=4, n=80, n2=64, t=t)
        for t in wide_t
    ]
    four = [SystemParams(m=4, n=80, n2=64, t=t, **link) for t in wide_t]
    together = (
        "design-sweep-wide, the four solves together",
        lambda: tuple(optimizer.optimize_training(p) for p in four),
        False,
    )
    return wide + [together] + [
        case("ISM n=866 warm", m=10, n=866, n2=16, t=5e-5),
        case("m=10, n=5000, n2=16 cold", True, m=10, n=5000, n2=16, t=5e-5),
        case("m=10, n=5000, n2=16 warm", m=10, n=5000, n2=16, t=5e-5),
        case("m=4, n=200, n2=100 warm", m=4, n=200, n2=100, t=5e-5),
        case("m=4, n=400, n2=200, t=5e-7 warm", m=4, n=400, n2=200, t=5e-7),
        case("c09 shape m=1, n=2000, n2=1 warm", m=1, n=2000, n2=1, t=0.05),
    ]


def child() -> None:
    """Time every case in this interpreter; print one JSON object."""
    import numpy as np
    import wetopt

    out = {"numpy": np.__version__, "wetopt_file": wetopt.__file__, "cases": {}}
    for name, run, cold in _cases():
        if not cold:
            run()  # warm-up: memo fills, allocator
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            sols = run()
            best = min(best, time.perf_counter() - start)
        out["cases"][name] = {"seconds": best, "answer": _answer(sols)}
    print(json.dumps(out))


def _answer(sols) -> dict:
    """Each solve's n1*, e1* and qnet_star, and a digest of the repr of
    every solve's n1, e1, e2 and qnet_star."""
    fields = [(s.plan.n1, s.plan.e1, s.plan.e2, s.qnet_star) for s in sols]
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
        child()
        return 0
    best: dict[str, dict[str, float]] = {}
    answers: dict[str, dict[str, dict]] = {}
    numpy_version = None
    for label, result in benchlib.alternate(__file__, trees, ROUNDS):
        numpy_version = result["numpy"]
        for name, case in result["cases"].items():
            row = best.setdefault(name, {})
            row[label] = min(row.get(label, float("inf")), case["seconds"])
            answers.setdefault(name, {})[label] = case["answer"]
    labels = [label for label, _ in trees]
    first = labels[0]
    what = "best wall time in seconds of one optimize_training call"
    report = benchlib.report(what, numpy_version, ROUNDS, REPEATS, labels)
    report["rows"] = [
        {"case": name, **{label: benchlib.sig3(row[label]) for label in labels}}
        for name, row in best.items()
    ]
    report["answers"] = [
        {"case": name, **answers[name], **_compare(answers[name], first)} for name in best
    ]
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for row, answer in zip(report["rows"], report["answers"]):
        cells = "".join(f"  {label} {row[label]:9.3g}" for label in labels)
        drift = answer[f"max_rel_qnet_vs_{first}"]
        print(
            f"{row['case']:46s}{cells}  same n1 {answer['same_n1']}"
            f"  same bits {answer['same_bits']}  qnet drift {drift:.1e}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
