"""Driver shared by the ``tools/bench_*.py`` scripts.

A script names one or more ``LABEL=SRC`` trees.  Each tree's cases run in
fresh interpreters that import ``wetopt`` from that tree (the script
itself with ``--child``), pinned to one CPU with one BLAS thread; rounds
alternate the order of the trees.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


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


def run_tree(script: str, src: str, cpu: int) -> dict:
    """The JSON object the last stdout line of ``script --child`` holds."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.update({name: "1" for name in BLAS_ENV})
    command = [sys.executable, os.path.abspath(script), "--child"]
    # the child is pinned before it starts, so numpy's threads inherit the CPU
    proc = subprocess.run(
        command, env=env, capture_output=True, text=True, check=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = os.path.join(os.path.abspath(src), "wetopt", "__init__.py")
    if os.path.realpath(result["wetopt_file"]) != os.path.realpath(expected):
        raise RuntimeError(f"imported {result['wetopt_file']}, not the tree at {src}")
    return result


def alternate(script: str, trees, rounds: int):
    """Yield ``(label, child result)`` per tree and round, the order
    reversed every other round, all on the highest CPU this process may use."""
    cpu = max(os.sched_getaffinity(0))
    for round_ in range(rounds):
        for label, src in trees if round_ % 2 == 0 else trees[::-1]:
            yield label, run_tree(script, src, cpu)


def sig3(seconds: float) -> float:
    """``seconds`` to three significant figures, as written to a report."""
    return float(f"{seconds:.3g}")


def report(what: str, numpy_version: str, rounds: int, repeats: int, labels) -> dict:
    """The fields every ``BENCH_*.json`` starts with."""
    return {
        "what": what,
        "nproc": os.cpu_count(),
        "pinned_cpus": 1,
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "rounds": rounds,
        "repeats_per_round": repeats,
        "columns": list(labels),
    }
