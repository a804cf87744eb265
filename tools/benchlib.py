"""Driver shared by the ``tools/bench_*.py`` scripts.

A script names one or more ``LABEL=SRC`` trees.  :func:`interleave` runs
each tree's code in one long-lived worker (the script itself with
``--child``) that imports ``wetopt`` from that tree, all workers pinned
to the same CPU with one BLAS thread.  Every case runs once in each
worker untimed, then, case by case, ``pairs`` times per tree, one op per
worker in turn, the order of the trees alternating from pair to pair; a
case may make a 64 MB pass before each op, which evicts the CPU caches.
:func:`summary` gives each tree's median and quartiles and the last
tree's win count against the first, in all pairs and split by the
position the last tree ran in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
EVICT_BYTES = 64 << 20  # larger than the last-level cache of the hosts measured


def parse_args(argv, description: str, default_out: str):
    """``(args, [(label, src), ...])``; the tree list is empty with ``--child``."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--tree", action="append", default=[], metavar="LABEL=SRC",
        help="a column label and the src directory holding its wetopt",
    )
    parser.add_argument("--out", default=default_out)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return args, []
    if not args.tree:
        parser.error("give at least one --tree LABEL=SRC")
    trees = [spec.split("=", 1) for spec in args.tree]
    if any(len(t) != 2 for t in trees):
        parser.error("--tree takes LABEL=SRC")
    return args, trees


def _child_env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.update({name: "1" for name in BLAS_ENV})
    return env


def _check_tree(result: dict, src: str) -> None:
    expected = os.path.join(os.path.abspath(src), "wetopt", "__init__.py")
    if os.path.realpath(result["wetopt_file"]) != os.path.realpath(expected):
        raise RuntimeError(f"imported {result['wetopt_file']}, not the tree at {src}")


def serve(cases, answer) -> None:
    """The worker side of :func:`interleave`, for ``script --child``.

    ``cases`` holds ``(name, run, evict)``: ``run()`` is one op, and
    ``evict`` asks for the 64 MB pass before it.  The worker prints one
    JSON line with its numpy version, the ``wetopt`` it imported and the
    case names, then
    answers each case name read from stdin with one JSON line: the op's
    time in seconds, and on a name's first op ``answer`` of what it
    returned (later ops skip it, so nothing runs between them but the
    pass they ask for).
    """
    import numpy as np
    import wetopt

    table = {name: (run, evict) for name, run, evict in cases}
    answered = set()
    sweep = np.zeros(EVICT_BYTES // 8)
    hello = {"numpy": np.__version__, "wetopt_file": wetopt.__file__, "cases": list(table)}
    print(json.dumps(hello), flush=True)
    for line in sys.stdin:
        name = line.rstrip("\n")
        run, evict = table[name]
        if evict:
            sweep += 1.0
        start = time.perf_counter()
        out = run()
        reply = {"seconds": time.perf_counter() - start}
        if name not in answered:
            answered.add(name)
            reply["answer"] = answer(out)
        print(json.dumps(reply), flush=True)


def interleave(script: str, trees, pairs: int, names=None):
    """``(numpy version, {name: {label: [seconds, ...]}}, {name: {label:
    answer}})`` from one worker per tree running ``script --child``, over
    ``names`` or, by default, every case the first worker lists.

    Each name runs once per worker untimed (its answer is the one kept).
    Then, name by name, ``pairs`` rounds each run it once per worker, the
    order of the workers reversed every other round.  All workers share
    the highest CPU this process may use.
    """
    cpu = max(os.sched_getaffinity(0))
    workers = []
    try:
        for label, src in trees:
            proc = subprocess.Popen(
                [sys.executable, os.path.abspath(script), "--child"], env=_child_env(src),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
            )
            workers.append((label, proc))
            hello = json.loads(proc.stdout.readline())
            _check_tree(hello, src)
            names = names or hello["cases"]

        def ask(proc, name: str) -> dict:
            proc.stdin.write(name + "\n")
            proc.stdin.flush()
            return json.loads(proc.stdout.readline())

        answers = {
            name: {label: ask(proc, name)["answer"] for label, proc in workers} for name in names
        }
        times = {name: {label: [] for label, _ in workers} for name in names}
        for name in names:  # a case's pairs back to back, so a warm op follows its own kind
            for k in range(pairs):
                for label, proc in workers if k % 2 == 0 else workers[::-1]:
                    times[name][label].append(ask(proc, name)["seconds"])
    finally:
        for _, proc in workers:
            proc.stdin.close()
            proc.wait(timeout=60)
    return hello["numpy"], times, answers


def summary(times: dict[str, list[float]], labels) -> dict:
    """Per label the median and quartiles of its times, and the pairs in
    which the last label's op was faster than the first's: all of them
    (``*_wins``), those where it ran first (``*_wins_ran_first``, the odd
    pairs of :func:`interleave`) and those where it ran last
    (``*_wins_ran_last``, the even pairs)."""
    out = {}
    for label in labels:
        q1, median, q3 = statistics.quantiles(times[label], n=4, method="inclusive")
        out[label] = {"median": sig3(median), "q1": sig3(q1), "q3": sig3(q3)}
    last = labels[-1]
    wins = [b < a for a, b in zip(times[labels[0]], times[last])]
    out[f"{last}_wins"] = sum(wins)
    out[f"{last}_wins_ran_first"], out[f"{last}_wins_ran_last"] = sum(wins[1::2]), sum(wins[::2])
    return out


def wins_text(row: dict, labels, pairs: int) -> str:
    """A :func:`summary` row's win counts as the bench scripts print them:
    in all pairs, and split by the position the last label ran in, which
    moves the times more than many changes do."""
    wins = f"{labels[-1]}_wins"
    return (
        f"wins {row[wins]}/{pairs} (ran first {row[wins + '_ran_first']}/{pairs // 2},"
        f" ran last {row[wins + '_ran_last']}/{pairs - pairs // 2})"
    )


def sig3(seconds: float) -> float:
    """``seconds`` to three significant figures, as written to a report."""
    return float(f"{seconds:.3g}")


def report(what: str, numpy_version: str, labels, **counts) -> dict:
    """The fields every ``BENCH_*.json`` starts with; ``counts`` says how
    many runs each number rests on."""
    return {
        "what": what,
        "nproc": os.cpu_count(),
        "pinned_cpus": 1,
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        **counts,
        "columns": list(labels),
    }
