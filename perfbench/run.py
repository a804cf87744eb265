"""Benchmark of the wetopt package: end-to-end timing and per-layer spans.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One run sets the workload up, performs timed operations until the next
one would end past ``--seconds`` (at least one) or one raises, then
checks every output outside the timed region.  Ops that fail are left
out of the timings.  With ``--trace 0`` each op is paired with the same
op on the frozen reference copy of the package (see ``workloads.py``)
and the run reports the end-to-end metrics, its op times relative to
the reference's; with ``--trace 1`` it wraps the package's layer
functions (see ``tracer.py``) and reports per-layer metrics instead.
``--workload all`` runs every workload in its own process, traced and
untraced when ``--trace 1``, and prints the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the run's context (seed, git revision, nproc, library versions,
BLAS threads) and each metric with its unit in words.  The exit code is
0 when the run completed, whether or not its checks passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REF = os.path.join(HERE, "ref")  # holds wetopt_ref, the timing reference
CHILD = os.path.join(HERE, "child.py")
SPANS_DIR = os.path.join(ROOT, ".perfbench-spans")

WORKLOAD_NAMES = ("optimize-ism-cold", "design-sweep-wide", "validate-ism-schemes")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # fresh processes whose set-up time is measured per run
TAIL_BEYOND = 10  # samples the reported tail percentile must leave above it


def log(line: str = "") -> None:
    print(line, flush=True)


def git_rev() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def context(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "cpus": sorted(os.sched_getaffinity(0)),
    }


def tail(durations: list[float]) -> tuple[float, float, int]:
    """Highest order statistic with TAIL_BEYOND samples above it.

    Returns ``(value, percentile, samples beyond)``; with too few samples
    for any such percentile it is the maximum, with 0 beyond.
    """
    ordered = sorted(durations)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def setup_time(name: str, path: str) -> float:
    """Seconds from start to ready of one fresh process doing the set-up."""
    start = time.perf_counter()
    subprocess.run([sys.executable, CHILD, "setup", name, path], stdout=sys.stderr, check=True)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["ready"] - start


def measure(wl, seconds: float) -> tuple[list[dict], float]:
    """Timed ops until the next one would likely end past ``seconds``.

    An op that raises is recorded as failed, with the time it took, and
    ends the loop: the program is broken, and more ops would add nothing.
    Returns the ops and the seconds they took together, the
    reference's share of a paired op included.
    """
    ops = []
    busy = 0.0
    while True:
        start = time.perf_counter()
        try:
            op = wl.run_op(len(ops))
        except Exception as exc:
            ops.append({"wall_s": time.perf_counter() - start, "rc": 1,
                        "error": f"{type(exc).__name__}: {exc}", "fp_warnings": {},
                        "spans": [], "counters": {}, "csv_bytes": 0, "maxrss_mb": 0.0})
            return ops, busy + ops[-1]["wall_s"]
        ops.append(op)
        took = op["wall_s"] + op.get("ref_s", 0.0)
        busy += took
        if busy + took > seconds:
            return ops, busy


def check_ops(wl, ops: list[dict]) -> list[list[str]]:
    """Failure messages per op; the run-level checks land on the first op."""
    failures = []
    for op in ops:
        if "error" in op:
            failures.append([op["error"]])
        elif op["rc"] != 0 or "output" not in op:
            failures.append([f"exit code {op['rc']}"])
        else:
            try:
                failures.append(wl.check(op["output"]))
            except Exception as exc:
                failures.append([f"check raised {type(exc).__name__}: {exc}"])
    good = [op["output"] for op in ops if "output" in op]
    if good:
        try:
            failures[0].extend(wl.check_run(good))
        except Exception as exc:
            failures[0].append(f"run check raised {type(exc).__name__}: {exc}")
    return failures


def self_test(wl, ops: list[dict]) -> tuple[int, list[str]]:
    """Perturb one real output past each check's tolerance; every one must fail.

    Returns the number of perturbations rejected and the problems found:
    perturbations not rejected, or why the self-test could not run.
    """
    good = [op["output"] for op in ops if "output" in op]
    if not good:
        return 0, ["no output to perturb"]
    rejected, problems = 0, []
    try:
        for label, checker, bad in wl.perturbed(good[0]):
            if checker(bad):
                rejected += 1
            else:
                problems.append(f"{label} not rejected")
    except Exception as exc:
        problems.append(f"self-test raised {type(exc).__name__}: {exc}")
    return rejected, problems


def run_workload(args) -> int:
    import tracer
    import workloads

    ctx = context(args)
    log("context " + json.dumps(ctx, sort_keys=True))
    work_dir = tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT)
    try:
        rec = tracer.Recorder() if args.trace else None
        if rec is not None:
            tracer.install(rec)
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir, rec, paired=not args.trace)
        wl.warm()
        setups = [] if args.trace else [
            setup_time(args.workload, os.path.join(work_dir, f"setup-{i}.json"))
            for i in range(SETUP_REPEATS)
        ]
        ops, busy = measure(wl, args.seconds)
        peak_mb = wl.peak_rss_mb(ops)
        failures = check_ops(wl, ops)
        rejected, problems = self_test(wl, ops)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for f in failures if f)
    # failed ops are left out of the timings, unless no op succeeded
    timed_ops = [op for op, f in zip(ops, failures) if not f]
    timed = "passed" if timed_ops else "failed"
    timed_ops = timed_ops or ops
    walls = [op["wall_s"] for op in timed_ops]
    log(f"{args.workload}: {len(ops)} op(s) taking {busy:.2f} s, seed {args.seed}, trace {args.trace}")
    for i, f in enumerate(failures):
        for message in f:
            log(f"  FAIL op {i}: {message}")
    log(f"  fail_frac = {failed / len(ops)} ({failed} of {len(ops)} ops failed)")
    log(f"  check self-test: {rejected} perturbed output(s) rejected"
        + (f"; FAILED: {'; '.join(problems)}" if problems else ""))
    sites: dict[str, int] = {}
    for op in ops:
        for site, n in op["fp_warnings"].items():
            sites[site] = sites.get(site, 0) + n
    for site, n in sorted(sites.items()):
        log(f"  fp warning x{n} ({n / len(ops):g}/op): {site}")

    p50 = statistics.median(walls)
    if args.trace:
        metrics = tracer.per_layer(ops)
        metrics["traced.op_s_p50"] = (p50, "s")
        path = os.path.join(SPANS_DIR, f"{args.workload}-seed{args.seed}.json")
        os.makedirs(SPANS_DIR, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"context": ctx, "ops": [
                {"wall_s": op["wall_s"], "spans": op["spans"]} for op in ops]}, out)
        log(f"  spans written to {os.path.relpath(path, ROOT)}")
    else:
        # an op that raised has no reference time.  With none left (the
        # run failed), the ratios read 0.
        paired = [op for op in timed_ops if "ref_s" in op]
        if not paired:
            log("  no op has a reference time")
        ratios = [op["wall_s"] / op["ref_s"] for op in paired] or [0.0]
        refs = [op["ref_s"] for op in paired] or [0.0]
        metrics = {
            "op_rel_p50": (statistics.median(ratios), "ratio"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        # printed, not reported: with a few ops a run has no percentile with
        # TAIL_BEYOND samples beyond it, and the maximum of a few is noise
        rel_tail, pct, beyond = tail(ratios)
        log(f"  op_rel_p50: median over {len(ratios)} {timed} ops of op time / reference time")
        log(f"  op_rel_tail = {rel_tail:.6g} ratio: p{pct:.1f} of {len(ratios)} {timed} ops, "
            f"{beyond} samples beyond" + (f" (at most {TAIL_BEYOND} ops, so the maximum)" if beyond == 0 else ""))
        raw = {"op_s_p50": p50, "op_s_tail": tail(walls)[0], "ref_s_p50": statistics.median(refs)}
        log("  raw seconds " + json.dumps(raw))
        log(f"  setup_s: median of {len(setups)} fresh processes: "
            + ", ".join(f"{s:.4f}" for s in setups))
    for name, (value, unit) in metrics.items():
        log(f"  {name} = {value:.6g} {unit}")

    result = {
        "correct": failed == 0 and not problems and rejected > 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints the tracing overhead when traced."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1) if args.trace else (0,):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                log(line)
                if line.startswith("  raw seconds "):
                    raw_p50 = json.loads(line.split("raw seconds ", 1)[1])["op_s_p50"]
            if proc.returncode != 0 or not lines:
                log(f"{name}: run failed with exit code {proc.returncode}")
                return 1
            results[trace] = json.loads(lines[-1])
            summary["correct"] &= results[trace]["correct"]
            summary["attempted"] += results[trace]["attempted"]
            summary["failed"] += results[trace]["failed"]
            for metric, entry in results[trace]["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = entry
        if args.trace:
            overhead = (results[1]["metrics"]["traced.op_s_p50"]["value"] - raw_p50)
            log(f"{name}: tracing overhead (traced minus untraced op_s_p50) = {overhead:.4f} s")
            summary["metrics"][f"{name}.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    print(json.dumps(summary), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wetopt", "__init__.py")):
        print(f"error: no package source at {os.path.relpath(SRC)}/wetopt; "
              "run from the root of a checkout of the repository", file=sys.stderr)
        return 2
    # one BLAS thread keeps timings steady on small machines; recorded in the context
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    # one CPU for the run and its children: on a shared machine the CPUs run
    # at different speeds at any moment, and an op and its reference must
    # not land on different ones
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, HERE, REF])
    sys.path[:0] = [SRC, HERE, REF]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
