"""The benchmark's workloads: inputs made from the seed, one timed op, checks.

Every workload uses the ISM link constants of ``demos/config/ism900.conf``
(``ps = 0.06 W``, ``eta = 0.8``, ``beta = 1e-6``, ``n0 = 1e-19 J``) and
drives the package only through its public entry points:
``wetopt.cli.main``, ``optimizer.optimize_training`` and ``SystemParams``.
The checks call public functions too, outside the timed region.

A workload object lives in the benchmark process.  ``warm`` is its set-up,
``run_op`` performs one timed operation and returns a record, ``check``
and ``check_run`` list what is wrong with one op's output and with the
run, and ``perturbed`` yields outputs pushed past a check's tolerance,
which the checks must reject (the self-test of the checks).

A paired workload also runs each op on the reference, ``ref/wetopt_ref``:
a frozen copy of the package as it stood when the benchmark was added.
The two run next to each other, so both see the machine at the same
speed, and the op's time over the reference's time cancels the speed
swings of a shared machine.  Only the package's outputs are checked.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import warnings
from collections import Counter
from contextlib import contextmanager

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
PACKAGE = "wetopt"
REFERENCE = "wetopt_ref"  # frozen copy of the package, the timing reference

ISM = {"ps": 0.06, "eta": 0.8, "beta": 1e-6, "n0": 1e-19}

REL_TOL = 1e-9  # relative tolerance of every recorded reference value
Z_MAX = 5.0  # largest accepted |z| of a simulated mean against its analytic mean


def write_config(path: str, **keys) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for key, value in keys.items():
            out.write(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n")


def read_csv_row(path: str) -> dict[str, str]:
    """The one data row of a CSV written by ``wetopt`` (comments skipped)."""
    with open(path, encoding="utf-8") as handle:
        rows = list(csv.DictReader(line for line in handle if not line.startswith("#")))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one data row, found {len(rows)}")
    return rows[0]


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Shared machinery; subclasses define the inputs, the op and the checks."""

    name = ""

    def __init__(self, seed: int, work_dir: str | None, rec: tracer.Recorder | None,
                 paired: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.rec = rec
        self.paired = paired

    def packages(self) -> list:
        """The package, and the reference when paired."""
        names = [PACKAGE, REFERENCE] if self.paired else [PACKAGE]
        return [importlib.import_module(name) for name in names]

    def warm(self) -> None:
        """Import the package and fill its caches, as set-up before timing."""

    def run_op(self, index: int) -> dict:
        """One timed op; when paired, the reference runs the same op next to it.

        The side that goes first alternates with ``index``, so a change of
        the machine's speed during a pair falls on both sides equally often.
        The record's ``ref_s`` is the reference's time.
        """
        ref_first = index % 2 == 1
        ref_s = self._reference_op(index) if self.paired and ref_first else None
        record = self._op(index)
        if self.paired and not ref_first:
            ref_s = self._reference_op(index)
        if ref_s is not None:
            record["ref_s"] = ref_s
        return record

    def _op(self, index: int) -> dict:
        raise NotImplementedError

    def _reference_op(self, index: int) -> float:
        """Seconds the reference takes for op ``index``; raises if it fails."""
        raise NotImplementedError

    def check(self, output) -> list[str]:
        raise NotImplementedError

    def check_run(self, outputs: list) -> list[str]:
        """Checks made once per run, on all outputs."""
        return []

    def perturbed(self, output):
        """Yield ``(label, checker, bad_output)``; ``checker(bad_output)`` must fail."""
        raise NotImplementedError

    def peak_rss_mb(self, ops: list[dict]) -> float:
        return peak_rss_mb()

    @contextmanager
    def _timed(self, record: dict):
        """Time the block as one op, with warnings counted and spans recorded."""
        rec = self.rec
        if rec is not None:
            rec.spans, rec.counters = [], Counter()
            rec.armed = True
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                if rec is not None:
                    with rec.span(tracer.OP):
                        yield
                else:
                    yield
            finally:
                record["wall_s"] = time.perf_counter() - start
                if rec is not None:
                    rec.armed = False
                    record["spans"], record["counters"] = rec.spans, rec.counters
                record["fp_warnings"] = tracer.warning_sites(caught)


def time_reference(fn, *args) -> tuple[object, float]:
    """``fn(*args)`` and the seconds it took, its warnings ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# optimize-ism-cold


class OptimizeIsmCold(Workload):
    """``wetopt optimize`` on the ISM scenario, each op a fresh interpreter."""

    name = "optimize-ism-cold"
    # 120 of the link's 866 bands and a 10 us block: one op takes about 3.5 s,
    # so a run holds several pairs, gain-table builds still take over half
    # of it, and the optimum n1 is inside the range.
    SHAPE = {"m": 10, "n": 120, "n2": 16, "t": 1e-5}
    N1_STAR = 81
    QNET_J = 6.716394729440821e-11  # recorded from the seed commit

    def __init__(self, seed, work_dir, rec, paired=False):
        super().__init__(seed, work_dir, rec, paired)
        self.trace = rec is not None
        self.rec = None  # spans are recorded in the child process
        if work_dir is not None:
            self.config = os.path.join(work_dir, "optimize.conf")
            s = self.SHAPE
            write_config(
                self.config, experiment="optimize", m=s["m"], n=s["n"], n2=s["n2"],
                eta=ISM["eta"], t_s=s["t"], ps_w=ISM["ps"], beta=ISM["beta"],
                n0_j=ISM["n0"], seed=seed, out="optimize.csv",
            )

    def warm(self) -> None:
        # the children import the same files, now compiled and in the page cache
        for pkg in self.packages():
            importlib.import_module(pkg.__name__ + ".cli")

    def _paths(self, package: str, index: int) -> tuple[str, str]:
        """The CSV and the child's result file of op ``index`` of ``package``."""
        tag = f"{package}-{index}"
        return (os.path.join(self.work_dir, f"optimize-{tag}.csv"),
                os.path.join(self.work_dir, f"child-{tag}.json"))

    def _child(self, package: str, trace: bool, index: int) -> tuple[subprocess.CompletedProcess, float]:
        """``wetopt optimize`` of ``package`` in a fresh interpreter, and its seconds."""
        out, result_path = self._paths(package, index)
        argv = ["optimize", "--config", self.config, "--out", out]
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, CHILD, "cli", result_path, str(int(trace)), package, *argv],
            stdout=sys.stderr, check=False,
        )
        return proc, time.perf_counter() - start

    def _reference_op(self, index: int) -> float:
        proc, wall = self._child(REFERENCE, False, index)
        if proc.returncode != 0:
            raise RuntimeError(f"reference exited with code {proc.returncode}")
        return wall

    def _op(self, index: int) -> dict:
        out, result_path = self._paths(PACKAGE, index)
        proc, wall = self._child(PACKAGE, self.trace, index)
        record = {"wall_s": wall, "rc": proc.returncode, "csv_bytes": 0,
                  "fp_warnings": {}, "spans": [], "counters": Counter(), "maxrss_mb": 0.0}
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as handle:
                child = json.load(handle)
            record.update(
                rc=child["rc"] if proc.returncode == 0 else proc.returncode,
                csv_bytes=child["csv_bytes"], fp_warnings=child["fp_warnings"],
                spans=child["spans"], counters=Counter(child["counters"]),
                maxrss_mb=child["maxrss_mb"],
            )
        if record["rc"] == 0:
            record["output"] = read_csv_row(out)
        return record

    def peak_rss_mb(self, ops):
        return max(op["maxrss_mb"] for op in ops)

    def check(self, row: dict[str, str]) -> list[str]:
        from wetopt.training_model import SystemParams, TrainingPlan, net_harvested_energy

        bad = []
        n1 = int(row["n1_star"])
        qnet = float(row["qnet_j"])
        if n1 != self.N1_STAR:
            bad.append(f"n1_star {n1} != {self.N1_STAR}")
        if not rel_err(qnet, self.QNET_J) <= REL_TOL:
            bad.append(f"qnet_j {qnet!r} differs from {self.QNET_J!r} by more than {REL_TOL:g}")
        p = SystemParams(**self.SHAPE, **ISM)
        e2 = tuple(float(row[f"e2_{r}_j"]) for r in range(1, p.n2 + 1))
        plan = TrainingPlan(n1=n1, e1=float(row["e1_star_j"]), e2=e2)
        again = net_harvested_energy(plan, p)
        if not rel_err(again, qnet) <= REL_TOL:
            bad.append(f"net energy of the CSV plan {again!r} does not reproduce qnet_j {qnet!r}")
        return bad

    def perturbed(self, row):
        yield "n1_star + 1", self.check, {**row, "n1_star": str(int(row["n1_star"]) + 1)}
        worse = float(row["qnet_j"]) * (1.0 + 100 * REL_TOL)
        yield "qnet_j off by 1e-7", self.check, {**row, "qnet_j": repr(worse)}
        # only the recomputation reads e1.  The optimum is stationary in e1, so
        # qnet moves with the square of the change: 1% moves it by about 1e-5.
        e1 = float(row["e1_star_j"]) * 1.01
        yield "e1_star_j up 1%", self.check, {**row, "e1_star_j": repr(e1)}


# ---------------------------------------------------------------------------
# design-sweep-wide


class DesignSweepWide(Workload):
    """``optimize_training`` over a grid of block lengths, gains warmed."""

    name = "design-sweep-wide"
    SHAPE = {"m": 4, "n": 80, "n2": 64}
    # block length t (s) -> optimal net energy (J), recorded from the seed
    # commit.  Low ESNR at 1e-7, medium at 3e-7, high with ten threshold
    # crossings at 5e-6, plain high at 1e-1.
    QNET_STAR = {
        1e-7: 3.072e-13,
        3e-7: 9.215999999999996e-13,
        5e-6: 3.349399586560324e-11,
        1e-1: 1.3988403631307118e-06,
    }
    SCAN_POINTS = 100  # e1 values per n1 in the dense scan

    def params(self, t: float, pkg=None):
        pkg = pkg or importlib.import_module(PACKAGE)
        return pkg.SystemParams(t=t, **self.SHAPE, **ISM)

    def warm(self) -> None:
        for pkg in self.packages():
            pkg.optimizer.optimize_training(self.params(min(self.QNET_STAR), pkg))

    def run_op(self, index: int) -> dict:
        """The grid in a seeded order; when paired, the reference solves each
        case next to the package, first on every other case."""
        order = sorted(self.QNET_STAR)
        random.Random(f"{self.seed}:{index}").shuffle(order)
        pkgs = self.packages()
        cases = [(t, [self.params(t, pkg) for pkg in pkgs]) for t in order]
        record = {"rc": 0, "csv_bytes": 0}
        qnet, ref_s = {}, 0.0
        with self._timed(record):
            for k, (t, (p, *p_ref)) in enumerate(cases):
                ref_first = (index + k) % 2 == 1
                if p_ref and ref_first:
                    ref_s += time_reference(pkgs[1].optimizer.optimize_training, p_ref[0])[1]
                qnet[t] = float(pkgs[0].optimizer.optimize_training(p).qnet_star)
                if p_ref and not ref_first:
                    ref_s += time_reference(pkgs[1].optimizer.optimize_training, p_ref[0])[1]
        if self.paired:
            record["wall_s"] -= ref_s
            record["ref_s"] = ref_s
        record["output"] = qnet
        return record

    def check(self, qnet: dict[float, float]) -> list[str]:
        bad = []
        for t, ref in self.QNET_STAR.items():
            if t not in qnet:
                bad.append(f"t={t:g}: no result")
            elif not rel_err(qnet[t], ref) <= REL_TOL:
                bad.append(f"t={t:g}: qnet_star {qnet[t]!r} differs from {ref!r} by more than {REL_TOL:g}")
        return bad

    def check_run(self, outputs) -> list[str]:
        return self.scan_check(outputs[0])

    def scan_check(self, qnet: dict[float, float]) -> list[str]:
        """No point of a dense (n1, e1) grid may beat the reported optimum."""
        import numpy as np
        from wetopt import optimizer, order_stats

        bad = []
        for t, best in sorted(qnet.items()):
            p = self.params(t)
            top = float(order_stats.gains_up_to(p.n2, p.n, p.m).sum())
            found = -math.inf
            for n1 in range(p.n2, p.n + 1):
                # beyond e1_hi the pilot bill alone exceeds any possible harvest
                e1_hi = p.eta_t_ps * p.beta * top / n1
                grid = np.concatenate(([0.0], np.geomspace(e1_hi * 1e-9, e1_hi, self.SCAN_POINTS)))
                found = max(found, max(optimizer.net_energy_given_phase1(n1, float(e1), p) for e1 in grid))
            if found > best + REL_TOL * abs(best):
                bad.append(f"t={t:g}: dense scan reaches {found!r} > qnet_star {best!r}")
        return bad

    def perturbed(self, qnet):
        t = max(qnet)
        yield "qnet_star off by 1e-7", self.check, {**qnet, t: qnet[t] * (1.0 + 100 * REL_TOL)}
        yield "qnet_star 10% low", self.scan_check, {t: 0.9 * qnet[t]}


# ---------------------------------------------------------------------------
# validate-ism-schemes


class ValidateIsmSchemes(Workload):
    """``wetopt sweep`` (``sweep_T``) comparing the two-phase design with five schemes."""

    name = "validate-ism-schemes"
    # a 50-band slice of the ISM link: one op takes about 3.5 s, so a run
    # holds several pairs
    SHAPE = {"m": 10, "n": 50, "n2": 16, "t": 5e-5}
    TRIALS = 4000

    def __init__(self, seed, work_dir, rec, paired=False):
        super().__init__(seed, work_dir, rec, paired)
        self._analytic = None

    def params(self, pkg=None):
        pkg = pkg or importlib.import_module(PACKAGE)
        return pkg.SystemParams(**self.SHAPE, **ISM)

    def warm(self) -> None:
        for pkg in self.packages():
            importlib.import_module(pkg.__name__ + ".cli")
            pkg.optimizer.optimize_training(self.params(pkg))

    def _config(self, package: str, index: int) -> tuple[str, str]:
        """Writes the config of op ``index``; returns its path and the CSV's."""
        s = self.SHAPE
        config = os.path.join(self.work_dir, f"validate-{package}-{index}.conf")
        out = os.path.join(self.work_dir, f"validate-{package}-{index}.csv")
        write_config(
            config, experiment="sweep_T", m=s["m"], n=s["n"], n2=s["n2"], eta=ISM["eta"],
            t_s=s["t"], ps_w=ISM["ps"], beta=ISM["beta"], n0_j=ISM["n0"],
            sweep_grid=s["t"], trials=self.TRIALS, seed=self.seed + index, out=out,
        )
        return config, out

    def _reference_op(self, index: int) -> float:
        config, _ = self._config(REFERENCE, index)
        cli = importlib.import_module(REFERENCE + ".cli")
        rc, wall = time_reference(cli.main, ["sweep", "--config", config])
        if rc != 0:
            raise RuntimeError(f"reference exited with code {rc}")
        return wall

    def _op(self, index: int) -> dict:
        import wetopt.cli

        config, out = self._config(PACKAGE, index)
        record = {}
        with self._timed(record):
            record["rc"] = wetopt.cli.main(["sweep", "--config", config])
        if record["rc"] == 0:
            record["csv_bytes"] = os.path.getsize(out)
            record["output"] = {k: float(v) for k, v in read_csv_row(out).items() if k != "case"}
        return record

    def analytic(self) -> tuple[float, float]:
        """Analytic net power (W) of the phase-1-only and phase-2-only designs."""
        if self._analytic is None:
            from wetopt import optimizer

            p = self.params()
            self._analytic = (
                optimizer.solve_phase1_only(p)[1] / p.t,
                optimizer.solve_phase2_only(p)[1] / p.t,
            )
        return self._analytic

    def check(self, row: dict[str, float]) -> list[str]:
        phase1_w, phase2_w = self.analytic()
        pairs = {
            "two-phase": ("qnet_twophase_sim_j", "qnet_twophase_j", "qnet_twophase_sim_stderr_j"),
            "perfect-CSI": ("pnet_perfect_sim_w", "pnet_perfect_w", "pnet_perfect_sim_stderr_w"),
            "no-CSI": ("pnet_nocsi_sim_w", "pnet_nocsi_w", "pnet_nocsi_sim_stderr_w"),
            "phase1-only": ("pnet_phase1_sim_w", phase1_w, "pnet_phase1_sim_stderr_w"),
            "phase2-only": ("pnet_phase2_sim_w", phase2_w, "pnet_phase2_sim_stderr_w"),
        }
        bad = []
        for label, (sim, mean, stderr) in pairs.items():
            mean = row[mean] if isinstance(mean, str) else mean
            z = (row[sim] - mean) / row[stderr]
            if not abs(z) <= Z_MAX:
                bad.append(f"{label}: z = {z:.2f} beyond +-{Z_MAX:g}")
        if not row["pnet_bruteforce_sim_w"] <= row["pnet_perfect_w"]:
            bad.append("brute-force beats the perfect-CSI mean")
        return bad

    def perturbed(self, row):
        for sim, stderr in (
            ("qnet_twophase_sim_j", "qnet_twophase_sim_stderr_j"),
            ("pnet_perfect_sim_w", "pnet_perfect_sim_stderr_w"),
            ("pnet_nocsi_sim_w", "pnet_nocsi_sim_stderr_w"),
            ("pnet_phase1_sim_w", "pnet_phase1_sim_stderr_w"),
            ("pnet_phase2_sim_w", "pnet_phase2_sim_stderr_w"),
        ):
            # any |z| <= Z_MAX lands beyond Z_MAX after this shift
            shifted = row[sim] + 2.2 * Z_MAX * row[stderr]
            yield f"{sim} + {2.2 * Z_MAX:g} stderr", self.check, {**row, sim: shifted}
        above = row["pnet_perfect_w"] * 1.01
        yield "brute-force above perfect CSI", self.check, {**row, "pnet_bruteforce_sim_w": above}


WORKLOADS = {w.name: w for w in (OptimizeIsmCold, DesignSweepWide, ValidateIsmSchemes)}
