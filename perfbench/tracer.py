"""Per-layer spans for the benchmark's traced runs.

Each public function listed in ``LAYERS`` is wrapped at every module
attribute that is bound to it, so callers that look the function up on
``training_model`` and callers that imported it into ``channel_sim`` or
``optimizer`` both go through the wrapper.  A wrapper records one span
``[name, start, end, parent, tag]`` per call while the recorder is armed;
the spans stay in memory and are written out when the run ends.

Self time is a span's duration minus the durations of its children.  The
program is single-threaded, so child spans never overlap and there is no
waiting time to report.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# layer (module of the ``wetopt`` package) -> public functions to wrap
LAYERS = {
    "order_stats": ("gains_up_to", "gain"),
    "optimizer": (
        "optimize_training",
        "solve_for_n1",
        "classify_esnr_case",
        "poly_real_roots",
        "solve_phase1_only",
        "solve_phase2_only",
    ),
    "training_model": ("expected_selected_power",),
    "channel_sim": ("run_two_phase", "run_benchmark", "tune_brute_force_energy"),
    "asymptotics": ("perfect_csi_average",),
    "cli": ("parse_config", "run_experiment"),
}

OP = "op"  # name of the span the benchmark opens around each timed operation


class Recorder:
    """Spans and counters of one process; inert until ``armed`` is set."""

    def __init__(self) -> None:
        self.armed = False
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        # ranks whose gain this process has already asked for, per (pop, dim)
        self._gain_ranks: dict[tuple[int, int], set[int]] = {}

    @contextmanager
    def span(self, name: str, tag=None):
        if not self.armed:
            yield None
            return
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, tag]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def new_gain_key(self, ranks, pop: int, dim: int) -> bool:
        """True when some requested rank of (pop, dim) was never asked for."""
        seen = self._gain_ranks.setdefault((pop, dim), set())
        fresh = not seen.issuperset(ranks)
        seen.update(ranks)
        return fresh


def _wrap(rec: Recorder, layer: str, fname: str, fn):
    name = f"{layer}.{fname}"

    if fname in ("gains_up_to", "gain"):
        def wrapper(*args, **kwargs):
            rank, pop, dim = args[:3]
            ranks = range(1, rank + 1) if fname == "gains_up_to" else (rank,)
            tag = "new_key" if rec.new_gain_key(ranks, pop, dim) else "repeat_key"
            with rec.span(name, tag):
                return fn(*args, **kwargs)
    elif fname == "run_benchmark":
        def wrapper(scheme, *args, **kwargs):
            with rec.span(f"{name}.{type(scheme).__name__}"):
                return fn(scheme, *args, **kwargs)
    elif fname == "run_two_phase":
        def wrapper(*args, **kwargs):
            trials = args[2] if len(args) > 2 else kwargs["trials"]
            with rec.span(name, trials):
                return fn(*args, **kwargs)
    elif fname == "poly_real_roots":
        def wrapper(coeffs):
            with rec.span(name) as record:
                roots = fn(coeffs)
            if record is not None:
                nonzero = np.flatnonzero(np.asarray(coeffs, dtype=float))
                record[4] = int(nonzero[-1]) if nonzero.size else 0  # degree
            return roots
    elif fname == "solve_for_n1":
        def wrapper(*args, **kwargs):
            with rec.span(name) as record:
                sol = fn(*args, **kwargs)
            if record is not None:
                rec.counters["candidates"] += len(sol.candidates)
                rec.counters["regime." + sol.label.kind.split("_")[0]] += 1
            return sol
    else:
        def wrapper(*args, **kwargs):
            with rec.span(name):
                return fn(*args, **kwargs)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every ``LAYERS`` function wherever the imported package binds it."""
    import wetopt.cli  # noqa: F401  (imports every layer)

    modules = [m for k, m in sys.modules.items() if k == "wetopt" or k.startswith("wetopt.")]
    for layer, names in LAYERS.items():
        owner = sys.modules[f"wetopt.{layer}"]
        for fname in names:
            original = getattr(owner, fname)
            wrapper = _wrap(rec, layer, fname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _name, start, end, _parent, _tag in spans]
    for _name, start, end, parent, _tag in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def warning_sites(caught) -> dict[str, int]:
    """Floating-point warnings from ``warnings.catch_warnings(record=True)``.

    Keyed ``"<layer>:<line>: <message>"``, where the layer is the
    ``wetopt`` module that raised the warning (``other`` outside it).
    """
    sites: Counter = Counter()
    for w in caught:
        if issubclass(w.category, RuntimeWarning):
            parent = os.path.basename(os.path.dirname(w.filename))
            stem = os.path.splitext(os.path.basename(w.filename))[0]
            layer = stem if parent == "wetopt" else "other"
            sites[f"{layer}:{w.lineno}: {w.message}"] += 1
    return dict(sites)


def warnings_by_layer(sites: dict[str, int]) -> Counter:
    counts: Counter = Counter()
    for site, n in sites.items():
        counts[site.split(":", 1)[0]] += n
    return counts


SCHEMES = ("PerfectCsi", "NoCsi", "Phase1Only", "Phase2Only", "BruteForce")


def per_layer(ops: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-op means of the per-layer metrics over traced operations.

    Each op is ``{"wall_s", "spans", "counters", "fp_warnings",
    "csv_bytes"}``.  ``spans`` are one op's spans: the ``OP`` span that
    the benchmark opened around the op, and the layer spans below it.
    """
    n_ops = len(ops)
    calls: Counter = Counter()
    selfs: Counter = Counter()
    counters: Counter = Counter()
    fp: Counter = Counter()
    max_degree = 0
    trials = 0
    two_phase_s = 0.0
    unattributed = 0.0
    csv_bytes = 0
    for op in ops:
        spans = op["spans"]
        covered = 0.0
        for (name, start, end, parent, tag), own in zip(spans, self_times(spans)):
            if name == OP:
                continue
            calls[name] += 1
            selfs[name] += own
            layer = name.split(".", 1)[0]
            selfs[layer] += own
            if tag in ("new_key", "repeat_key"):
                calls[f"order_stats.{tag}"] += 1
                selfs[f"order_stats.{tag}"] += own
            if name == "optimizer.poly_real_roots":
                max_degree = max(max_degree, tag)
            if name == "channel_sim.run_two_phase":
                trials += tag
                two_phase_s += end - start
            if parent == -1 or spans[parent][0] == OP:
                covered += end - start
        unattributed += op["wall_s"] - covered
        counters.update(op["counters"])
        fp.update(warnings_by_layer(op["fp_warnings"]))
        csv_bytes += op["csv_bytes"]
    wall = sum(op["wall_s"] for op in ops)

    def mean(x):
        return x / n_ops

    m: dict[str, tuple[float, str]] = {}
    for key in ("order_stats.gains_up_to", "order_stats.gain",
                "order_stats.new_key", "order_stats.repeat_key"):
        m[f"{key}.calls"] = (mean(calls[key]), "count/op")
        m[f"{key}.self_s"] = (mean(selfs[key]), "s/op")
    m["optimizer.optimize_training.self_s"] = (mean(selfs["optimizer.optimize_training"]), "s/op")
    m["optimizer.solve_for_n1.calls"] = (mean(calls["optimizer.solve_for_n1"]), "count/op")
    m["optimizer.solve_for_n1.self_s"] = (mean(selfs["optimizer.solve_for_n1"]), "s/op")
    m["optimizer.classify_esnr_case.calls"] = (mean(calls["optimizer.classify_esnr_case"]), "count/op")
    m["optimizer.classify_esnr_case.self_s"] = (mean(selfs["optimizer.classify_esnr_case"]), "s/op")
    m["optimizer.poly_real_roots.calls"] = (mean(calls["optimizer.poly_real_roots"]), "count/op")
    m["optimizer.poly_real_roots.self_s"] = (mean(selfs["optimizer.poly_real_roots"]), "s/op")
    m["optimizer.poly_real_roots.max_degree"] = (float(max_degree), "count")
    solves = calls["optimizer.solve_for_n1"]
    m["optimizer.candidates_per_solve"] = (counters["candidates"] / solves if solves else 0.0, "count")
    for regime in ("low", "medium", "high"):
        m[f"optimizer.regime.{regime}"] = (mean(counters[f"regime.{regime}"]), "count/op")
    m["optimizer.fp_warnings"] = (mean(fp["optimizer"]), "count/op")
    m["optimizer.solve_phase1_only.self_s"] = (mean(selfs["optimizer.solve_phase1_only"]), "s/op")
    m["optimizer.solve_phase2_only.self_s"] = (mean(selfs["optimizer.solve_phase2_only"]), "s/op")
    m["training_model.expected_selected_power.calls"] = (
        mean(calls["training_model.expected_selected_power"]), "count/op")
    m["training_model.expected_selected_power.self_s"] = (
        mean(selfs["training_model.expected_selected_power"]), "s/op")
    m["channel_sim.run_two_phase.calls"] = (mean(calls["channel_sim.run_two_phase"]), "count/op")
    m["channel_sim.run_two_phase.self_s"] = (mean(selfs["channel_sim.run_two_phase"]), "s/op")
    m["channel_sim.run_two_phase.trials_per_s"] = (trials / two_phase_s if two_phase_s else 0.0, "1/s")
    for scheme in SCHEMES:
        key = f"channel_sim.run_benchmark.{scheme}"
        m[f"{key}.self_s"] = (mean(selfs[key]), "s/op")
    m["channel_sim.tune_brute_force_energy.self_s"] = (
        mean(selfs["channel_sim.tune_brute_force_energy"]), "s/op")
    m["asymptotics.perfect_csi_average.calls"] = (mean(calls["asymptotics.perfect_csi_average"]), "count/op")
    m["asymptotics.perfect_csi_average.self_s"] = (mean(selfs["asymptotics.perfect_csi_average"]), "s/op")
    m["cli.parse_config.self_s"] = (mean(selfs["cli.parse_config"]), "s/op")
    m["cli.run_experiment.self_s"] = (mean(selfs["cli.run_experiment"]), "s/op")
    m["cli.csv_bytes"] = (mean(csv_bytes), "B/op")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (mean(selfs[layer]), "s/op")
    for layer in ("order_stats", "optimizer", "channel_sim"):
        m[f"{layer}.op_share"] = (selfs[layer] / wall if wall else 0.0, "fraction")
    m["unattributed_s"] = (mean(unattributed), "s/op")
    return m
