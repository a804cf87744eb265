"""Fresh-interpreter side of the benchmark.

``python3 child.py setup <workload> <result.json>`` performs one
workload's set-up (import and warm-up) and records, on the shared
monotonic clock, when it was ready.

``python3 child.py cli <result.json> <trace 0|1> <package> <wetopt arguments...>``
runs ``<package>.cli.main`` once, where the package is ``wetopt`` or its
frozen reference copy ``wetopt_ref``, and records its exit code,
floating-point warnings, output size, peak RSS and, when traced, its
layer spans (of ``wetopt`` only).  The exit code of the process is that
of ``cli.main``.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
import warnings


def _dump(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as out:
        json.dump(result, out)


def setup(name: str, result_path: str) -> int:
    from workloads import WORKLOADS

    WORKLOADS[name](seed=0, work_dir=None, rec=None).warm()
    _dump(result_path, {"ready": time.perf_counter()})
    return 0


def cli(result_path: str, trace: bool, package: str, argv: list[str]) -> int:
    import resource

    import tracer

    main = importlib.import_module(package + ".cli").main
    rec = None
    if trace:
        rec = tracer.Recorder()
        tracer.install(rec)
        rec.armed = True
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if rec is not None:
            with rec.span(tracer.OP):
                rc = main(argv)
        else:
            rc = main(argv)
    out = argv[argv.index("--out") + 1]
    _dump(result_path, {
        "rc": rc,
        "csv_bytes": os.path.getsize(out) if os.path.exists(out) else 0,
        "fp_warnings": tracer.warning_sites(caught),
        "spans": rec.spans if rec is not None else [],
        "counters": dict(rec.counters) if rec is not None else {},
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return rc


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        return setup(argv[1], argv[2])
    if argv[0] == "cli":
        return cli(argv[1], argv[2] == "1", argv[3], argv[4:])
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
