"""Configuration-driven experiment runner with CSV output.

Experiments are described by a flat ``key = value`` text file (``#``
starts a comment).  Physical inputs may be given in linear SI units or in
the dB forms common in link budgets; conversion happens at the parse
boundary and everything downstream is strict SI.  Each run writes one CSV
whose leading comment block echoes the full canonical configuration, so
any cell can be recomputed from the library alone; identical configs
produce byte-identical files.

Subcommands: ``gtable``, ``optimize``, ``simulate``, ``sweep``,
``bound``, ``echo-config``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace

from . import asymptotics, channel_sim, optimizer, order_stats
from .training_model import (
    SystemParams,
    TrainingPlan,
    average_harvested_energy,
    net_harvested_energy,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "emit_gtable",
    "main",
    "parse_config",
    "run_experiment",
]

EXPERIMENTS = (
    "gtable",
    "optimize",
    "simulate",
    "sweep_n1",
    "sweep_T",
    "sweep_M",
    "sweep_N_siso",
    "bound",
)

# one linear/dB pair per physical quantity; giving both is an error
_UNIT_PAIRS = (
    ("ps_w", "ps_dbm"),
    ("beta", "beta_db"),
    ("n0_j", "n0_dbm_per_hz"),
)

_SCALAR_KEYS = {
    "m": int,
    "n": int,
    "n2": int,
    "eta": float,
    "t_s": float,
    "ps_w": float,
    "ps_dbm": float,
    "beta": float,
    "beta_db": float,
    "n0_j": float,
    "n0_dbm_per_hz": float,
    "bs_hz": float,
    "trials": int,
    "seed": int,
}
_LIST_KEYS = {"sweep_grid", "gtable_ranks", "gtable_n1", "gtable_m"}
_TEXT_KEYS = {"experiment", "out"}
_KNOWN_KEYS = set(_SCALAR_KEYS) | _LIST_KEYS | _TEXT_KEYS

_DEFAULT_TRIALS = 10000
_DEFAULT_SEED = 0


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    params: SystemParams
    experiment: str
    sweep_grid: tuple[float, ...]
    trials: int
    seed: int
    output_path: str
    bs_hz: float | None
    gtable_ranks: tuple[int, ...]
    gtable_n1: tuple[int, ...]
    gtable_m: tuple[int, ...]

    def canonical_lines(self) -> list[str]:
        """Config as normalized key = value lines (linear units only).

        Re-parsing these lines reproduces the config exactly.
        """
        p = self.params
        lines = [
            f"experiment = {self.experiment}",
            f"m = {p.m}",
            f"n = {p.n}",
            f"n2 = {p.n2}",
            f"ps_w = {p.ps!r}",
            f"eta = {p.eta!r}",
            f"t_s = {p.t!r}",
            f"beta = {p.beta!r}",
            f"n0_j = {p.n0!r}",
        ]
        if self.bs_hz is not None:
            lines.append(f"bs_hz = {self.bs_hz!r}")
        if self.sweep_grid:
            lines.append("sweep_grid = " + ", ".join(repr(x) for x in self.sweep_grid))
        for name, grid in (
            ("gtable_ranks", self.gtable_ranks),
            ("gtable_n1", self.gtable_n1),
            ("gtable_m", self.gtable_m),
        ):
            if grid:
                lines.append(f"{name} = " + ", ".join(str(x) for x in grid))
        lines.append(f"trials = {self.trials}")
        lines.append(f"seed = {self.seed}")
        lines.append(f"out = {self.output_path}")
        return lines


def _dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _parse_lines(lines, source: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        raw[key] = value
    return raw


def _convert(key: str, value: str, source: str):
    try:
        if key in _SCALAR_KEYS:
            typ = _SCALAR_KEYS[key]
            if typ is int:
                as_float = float(value)
                if as_float != int(as_float):
                    raise ValueError("not an integer")
                return int(as_float)
            return float(value)
        if key in _LIST_KEYS:
            items = [float(part) for part in value.split(",") if part.strip()]
            if not items:
                raise ValueError("empty grid")
            return tuple(items)
        return value
    except ValueError as exc:
        raise ConfigError(f"{source}: bad value for {key!r}: {value!r} ({exc})") from exc


def _int_grid(grid: tuple[float, ...], name: str) -> tuple[int, ...]:
    out = []
    for x in grid:
        if x != int(x):
            raise ConfigError(f"{name} entries must be integers, got {x!r}")
        out.append(int(x))
    return tuple(out)


def parse_config(path: str) -> ExperimentConfig:
    """Load and validate one experiment configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = _parse_lines(handle, path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc

    values = {key: _convert(key, val, path) for key, val in raw.items()}

    for linear, db in _UNIT_PAIRS:
        if linear in values and db in values:
            raise ConfigError(
                f"{path}: give either {linear!r} or {db!r}, not both"
            )
    if "ps_dbm" in values:
        values["ps_w"] = _dbm_to_watts(values.pop("ps_dbm"))
    if "beta_db" in values:
        values["beta"] = _db_to_linear(values.pop("beta_db"))
    if "n0_dbm_per_hz" in values:
        # Pilot observations come from unit-energy matched filters, so the
        # per-observation noise energy equals the density numerically.
        values["n0_j"] = _dbm_to_watts(values.pop("n0_dbm_per_hz"))

    required = ["experiment", "m", "n", "n2", "eta", "t_s", "ps_w", "beta", "n0_j"]
    missing = [key for key in required if key not in values]
    if missing:
        raise ConfigError(f"{path}: missing required key(s): {', '.join(missing)}")

    experiment = values["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"{path}: unknown experiment {experiment!r}; "
            f"expected one of {', '.join(EXPERIMENTS)}"
        )

    try:
        params = SystemParams(
            m=values["m"],
            n=values["n"],
            n2=values["n2"],
            ps=values["ps_w"],
            eta=values["eta"],
            t=values["t_s"],
            beta=values["beta"],
            n0=values["n0_j"],
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    sweep_grid = tuple(values.get("sweep_grid", ()))
    if experiment.startswith("sweep"):
        if not sweep_grid:
            raise ConfigError(f"{path}: experiment {experiment!r} needs sweep_grid")
        if list(sweep_grid) != sorted(sweep_grid):
            raise ConfigError(f"{path}: sweep_grid must be sorted ascending")
        if any(x <= 0 for x in sweep_grid):
            raise ConfigError(f"{path}: sweep_grid entries must be positive")
        if experiment in ("sweep_n1", "sweep_M", "sweep_N_siso"):
            try:
                _int_grid(sweep_grid, "sweep_grid")
            except ConfigError as exc:
                raise ConfigError(f"{path}: {exc}") from exc

    gtable_ranks = gtable_n1 = gtable_m = ()
    if experiment == "gtable":
        for key in ("gtable_ranks", "gtable_n1", "gtable_m"):
            if key not in values:
                raise ConfigError(f"{path}: experiment 'gtable' needs {key}")
        gtable_ranks = _int_grid(values["gtable_ranks"], "gtable_ranks")
        gtable_n1 = _int_grid(values["gtable_n1"], "gtable_n1")
        gtable_m = _int_grid(values["gtable_m"], "gtable_m")

    trials = values.get("trials", _DEFAULT_TRIALS)
    if trials < 1:
        raise ConfigError(f"{path}: trials must be >= 1, got {trials}")
    seed = values.get("seed", _DEFAULT_SEED)
    if seed < 0:
        raise ConfigError(f"{path}: seed must be >= 0, got {seed}")

    return ExperimentConfig(
        params=params,
        experiment=experiment,
        sweep_grid=sweep_grid,
        trials=trials,
        seed=seed,
        output_path=values.get("out", f"{experiment}.csv"),
        bs_hz=values.get("bs_hz"),
        gtable_ranks=gtable_ranks,
        gtable_n1=gtable_n1,
        gtable_m=gtable_m,
    )


# ---------------------------------------------------------------------------
# CSV plumbing


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int,)):
        return str(x)
    if isinstance(x, float):
        return "%.11e" % x  # 12 significant digits, fixed-width reproducible
    return str(x)


def _write_csv(cfg: ExperimentConfig, header: list[str], rows: list[list]) -> None:
    with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as out:
        for line in cfg.canonical_lines():
            out.write(f"# {line}\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(x) for x in row) + "\n")


# ---------------------------------------------------------------------------
# experiments


def emit_gtable(cfg: ExperimentConfig) -> int:
    """Ordered-gain table over the configured (rank, n1, m) grids."""
    rows = []
    for m in cfg.gtable_m:
        for n1 in cfg.gtable_n1:
            closed = order_stats.closed_form_domain(n1, m)
            method = "closed_form" if closed else "quadrature"
            for rank in cfg.gtable_ranks:
                if rank > n1:
                    continue
                rows.append([rank, n1, m, order_stats.gain(rank, n1, m), method])
    _write_csv(cfg, ["rank", "n1", "m", "value", "method"], rows)
    return 0


def _run_optimize(cfg: ExperimentConfig) -> int:
    p = cfg.params
    sol = optimizer.optimize_training(p)
    plan = sol.plan
    header = (
        ["n1_star", "case", "e1_star_j", "qnet_j", "pnet_w", "cost_j"]
        + [f"e2_{r}_j" for r in range(1, p.n2 + 1)]
    )
    row = [
        plan.n1,
        sol.case_used_per_n1[plan.n1].kind,
        plan.e1,
        sol.qnet_star,
        sol.qnet_star / p.t,
        plan.cost,
        *plan.e2,
    ]
    _write_csv(cfg, header, [row])
    return 0


def _run_simulate(cfg: ExperimentConfig) -> int:
    p = cfg.params
    sol = optimizer.optimize_training(p)
    report = channel_sim.run_two_phase(sol.plan, p, cfg.trials, cfg.seed)
    qbar = average_harvested_energy(sol.plan, p)
    qnet = net_harvested_energy(sol.plan, p)
    header = [
        "n1_star",
        "e1_star_j",
        "qnet_analytic_j",
        "qnet_sim_j",
        "qnet_sim_stderr_j",
        "qbar_analytic_j",
        "qbar_sim_j",
        "within_3_stderr",
    ]
    row = [
        sol.plan.n1,
        sol.plan.e1,
        qnet,
        report.mean_qnet,
        report.stderr,
        qbar,
        report.mean_qbar,
        abs(report.mean_qbar - qbar) <= 3.0 * report.stderr,
    ]
    _write_csv(cfg, header, [row])
    return 0


def _run_bound(cfg: ExperimentConfig) -> int:
    p = cfg.params
    report = asymptotics.saturation_bound(p)
    header = ["n", "bound_j", "bound_w", "lambert_bound_j", "n1_star", "trivial_branch"]
    row = [
        p.n,
        report.bound,
        report.bound / p.t,
        report.lambert_bound,
        report.n1_star,
        report.trivial_branch,
    ]
    _write_csv(cfg, header, [row])
    return 0


def _run_sweep_n1(cfg: ExperimentConfig) -> int:
    p = cfg.params
    grid = _int_grid(cfg.sweep_grid, "sweep_grid")
    header = [
        "n1",
        "case",
        "e1_star_j",
        "e2_1_star_j",
        "qnet_analytic_j",
        "pnet_analytic_w",
        "qnet_sim_j",
        "qnet_sim_stderr_j",
        "pnet_sim_w",
    ]
    rows = []
    for i, n1 in enumerate(grid):
        sol = optimizer.solve_for_n1(n1, p)
        e2 = tuple(
            optimizer.optimal_phase2_energy(r, n1, sol.e1, p)
            for r in range(1, p.n2 + 1)
        )
        plan = TrainingPlan(n1=n1, e1=sol.e1, e2=e2)
        report = channel_sim.run_two_phase(plan, p, cfg.trials, cfg.seed + i)
        rows.append(
            [
                n1,
                sol.label.kind,
                sol.e1,
                e2[0],
                sol.value,
                sol.value / p.t,
                report.mean_qnet,
                report.stderr,
                report.mean_qnet / p.t,
            ]
        )
    _write_csv(cfg, header, rows)
    return 0


_BENCH_HEADER = [
    "n1_star",
    "case",
    "e1_star_j",
    "e2_1_star_j",
    "qnet_twophase_j",
    "pnet_twophase_w",
    "qnet_twophase_sim_j",
    "qnet_twophase_sim_stderr_j",
    "pnet_perfect_w",
    "pnet_perfect_sim_w",
    "pnet_perfect_sim_stderr_w",
    "pnet_nocsi_w",
    "pnet_nocsi_sim_w",
    "pnet_nocsi_sim_stderr_w",
    "pnet_phase1_sim_w",
    "pnet_phase1_sim_stderr_w",
    "pnet_phase2_sim_w",
    "pnet_phase2_sim_stderr_w",
    "pnet_bruteforce_sim_w",
    "pnet_bruteforce_sim_stderr_w",
    "bruteforce_e_j",
]


def _benchmark_columns(p: SystemParams, trials: int, seed: int) -> list:
    sol = optimizer.optimize_training(p)
    two = channel_sim.run_two_phase(sol.plan, p, trials, seed)
    perfect = channel_sim.run_benchmark(channel_sim.PerfectCsi(), p, trials, seed)
    nocsi = channel_sim.run_benchmark(channel_sim.NoCsi(), p, trials, seed)
    p1_plan, _ = optimizer.solve_phase1_only(p)
    phase1 = channel_sim.run_benchmark(
        channel_sim.Phase1Only(n1=p1_plan.n1, e1=p1_plan.e1), p, trials, seed
    )
    p2_plan, _ = optimizer.solve_phase2_only(p)
    phase2 = channel_sim.run_benchmark(
        channel_sim.Phase2Only(e2=p2_plan.e2), p, trials, seed
    )
    bf_energy, _ = optimizer.solve_brute_force(p)
    brute = channel_sim.run_benchmark(
        channel_sim.BruteForce(energy_per_band=bf_energy), p, trials, seed
    )
    return [
        sol.plan.n1,
        sol.case_used_per_n1[sol.plan.n1].kind,
        sol.plan.e1,
        sol.plan.e2[0],
        sol.qnet_star,
        sol.qnet_star / p.t,
        two.mean_qnet,
        two.stderr,
        asymptotics.perfect_csi_average(p) / p.t,
        perfect.mean_qnet / p.t,
        perfect.stderr / p.t,
        p.eta_t_ps * p.beta * p.n2 / p.t,
        nocsi.mean_qnet / p.t,
        nocsi.stderr / p.t,
        phase1.mean_qnet / p.t,
        phase1.stderr / p.t,
        phase2.mean_qnet / p.t,
        phase2.stderr / p.t,
        brute.mean_qnet / p.t,
        brute.stderr / p.t,
        bf_energy,
    ]


def _run_sweep_t(cfg: ExperimentConfig) -> int:
    rows = []
    for i, t in enumerate(cfg.sweep_grid):
        p = replace(cfg.params, t=float(t))
        rows.append([float(t)] + _benchmark_columns(p, cfg.trials, cfg.seed + i))
    _write_csv(cfg, ["t_s"] + _BENCH_HEADER, rows)
    return 0


def _run_sweep_m(cfg: ExperimentConfig) -> int:
    grid = _int_grid(cfg.sweep_grid, "sweep_grid")
    rows = []
    for i, m in enumerate(grid):
        p = replace(cfg.params, m=m)
        rows.append([m] + _benchmark_columns(p, cfg.trials, cfg.seed + i))
    _write_csv(cfg, ["m"] + _BENCH_HEADER, rows)
    return 0


def _run_sweep_n_siso(cfg: ExperimentConfig) -> int:
    grid = _int_grid(cfg.sweep_grid, "sweep_grid")
    header = [
        "n",
        "n1_star",
        "e1_star_j",
        "qnet_twophase_j",
        "pnet_twophase_w",
        "qbar_ideal_j",
        "pbar_ideal_w",
        "bound_j",
        "bound_w",
        "lambert_bound_j",
    ]
    rows = []
    for n in grid:
        p = replace(cfg.params, n=n)
        sol = optimizer.optimize_training(p)
        ideal = asymptotics.perfect_csi_average(p)
        bound = asymptotics.saturation_bound(p)
        rows.append(
            [
                n,
                sol.plan.n1,
                sol.plan.e1,
                sol.qnet_star,
                sol.qnet_star / p.t,
                ideal,
                ideal / p.t,
                bound.bound,
                bound.bound / p.t,
                bound.lambert_bound,
            ]
        )
    _write_csv(cfg, header, rows)
    return 0


_RUNNERS = {
    "gtable": emit_gtable,
    "optimize": _run_optimize,
    "simulate": _run_simulate,
    "sweep_n1": _run_sweep_n1,
    "sweep_T": _run_sweep_t,
    "sweep_M": _run_sweep_m,
    "sweep_N_siso": _run_sweep_n_siso,
    "bound": _run_bound,
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute the configured experiment; returns a process exit code.

    0 on success, 1 on numeric failure (message names the failing module
    and inputs), 2 on I/O failure.
    """
    runner = _RUNNERS[cfg.experiment]
    try:
        return runner(cfg)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(
            f"error: numeric failure in experiment {cfg.experiment!r} "
            f"(params={cfg.params}): {exc}",
            file=sys.stderr,
        )
        return 1


# ---------------------------------------------------------------------------
# command line


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wetopt",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "config keys: experiment (one of %s); m, n, n2, eta, t_s;\n"
            "ps_w | ps_dbm; beta | beta_db; n0_j | n0_dbm_per_hz; bs_hz\n"
            "(informational); sweep_grid (comma list, sweeps only);\n"
            "gtable_ranks / gtable_n1 / gtable_m (gtable only);\n"
            "trials (default %d); seed (default %d); out (default\n"
            "'<experiment>.csv').  dBm inputs convert at parse time;\n"
            "everything downstream is joules / watts / seconds."
            % (", ".join(EXPERIMENTS), _DEFAULT_TRIALS, _DEFAULT_SEED)
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("gtable", "tabulate ordered channel gains"),
        ("optimize", "solve for the optimal training design"),
        ("simulate", "validate the optimal design by Monte Carlo"),
        ("sweep", "run the configured sweep experiment"),
        ("bound", "evaluate the wideband net-energy upper bound"),
        ("echo-config", "print the parsed config in canonical form"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to config file")
        cmd.add_argument("--seed", type=int, default=None, help="override seed")
        cmd.add_argument("--trials", type=int, default=None, help="override trials")
        cmd.add_argument("--out", default=None, help="override output path")
    return parser


_COMMAND_EXPERIMENTS = {
    "gtable": ("gtable",),
    "optimize": ("optimize",),
    "simulate": ("simulate",),
    "sweep": ("sweep_n1", "sweep_T", "sweep_M", "sweep_N_siso"),
    "bound": ("bound",),
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.trials is not None:
            cfg = replace(cfg, trials=args.trials)
        if args.out is not None:
            cfg = replace(cfg, output_path=args.out)
        if args.command == "echo-config":
            for line in cfg.canonical_lines():
                print(line)
            return 0
        allowed = _COMMAND_EXPERIMENTS[args.command]
        if cfg.experiment not in allowed:
            raise ConfigError(
                f"subcommand {args.command!r} expects experiment in "
                f"{allowed}, config says {cfg.experiment!r}"
            )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_experiment(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
