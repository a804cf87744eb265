"""Configuration-driven experiment runner with CSV output.

Experiments are described by a flat ``key = value`` text file (``#``
starts a comment).  Physical inputs may be given in linear SI units or in
the dB forms common in link budgets; conversion happens at the parse
boundary.  The library is SI at its public boundaries and reduced inside.
Each run writes one CSV whose leading comment block echoes the full
canonical configuration, so any cell can be recomputed from the library
alone; identical configs produce byte-identical files.

Run as ``wetopt <command> --config PATH``, the commands listed below;
``--seed``, ``--trials`` and ``--out`` replace the file's values.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, replace

from . import asymptotics, channel_sim, optimizer, order_stats
from .training_model import (
    SystemParams,
    average_harvested_energy,
    check_n1,
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


# link key -> SystemParams field, in canonical (echo-config) order
_LINK_KEYS = {
    "m": "m",
    "n": "n",
    "n2": "n2",
    "ps_w": "ps",
    "eta": "eta",
    "t_s": "t",
    "beta": "beta",
    "n0_j": "n0",
}
# dB key -> (its linear key, the dB value of one linear unit: 30 dBm is 1 W);
# linear = 10 ** ((dB - that) / 10), and giving both forms is an error
_DB_KEYS = {
    "ps_dbm": ("ps_w", 30.0),
    "beta_db": ("beta", 0.0),
    # Pilot observations come from unit-energy matched filters, so the
    # per-observation noise energy equals the density numerically.
    "n0_dbm_per_hz": ("n0_j", 30.0),
}
_WITH_DB = [linear for linear, _ in _DB_KEYS.values()]
# named in the help's order: the link keys without a dB form, then those with one
_REQUIRED = ["experiment", *(key for key in _LINK_KEYS if key not in _WITH_DB), *_WITH_DB]

_INT_KEYS = {"m", "n", "n2", "trials", "seed"}
_SCALAR_KEYS = {*_LINK_KEYS, *_DB_KEYS, "bs_hz", "trials", "seed"}
_GTABLE_KEYS = ("gtable_ranks", "gtable_n1", "gtable_m")
_LIST_KEYS = {"sweep_grid", *_GTABLE_KEYS}
_KNOWN_KEYS = _SCALAR_KEYS | _LIST_KEYS | {"experiment", "out"}

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
        lines = [f"experiment = {self.experiment}"]
        for key, field in _LINK_KEYS.items():
            value = getattr(self.params, field)
            lines.append(f"{key} = {value if key in _INT_KEYS else repr(value)}")
        if self.bs_hz is not None:
            lines.append(f"bs_hz = {self.bs_hz!r}")
        if self.sweep_grid:
            lines.append("sweep_grid = " + ", ".join(repr(x) for x in self.sweep_grid))
        for key in _GTABLE_KEYS:
            if getattr(self, key):
                lines.append(f"{key} = " + ", ".join(str(x) for x in getattr(self, key)))
        lines.append(f"trials = {self.trials}")
        lines.append(f"seed = {self.seed}")
        lines.append(f"out = {self.output_path}")
        return lines


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
        if key in _INT_KEYS:
            as_float = float(value)
            if not as_float.is_integer():  # also rejects inf and nan
                raise ValueError("not an integer")
            return int(as_float)
        if key in _SCALAR_KEYS:
            return float(value)
        if key in _LIST_KEYS:
            items = [float(part) for part in value.split(",") if part.strip()]
            if not items:
                raise ValueError("empty grid")
            return tuple(items)
        return value
    except ValueError as exc:
        raise ConfigError(f"{source}: bad value for {key!r}: {value!r} ({exc})") from exc


def _int_grid(grid: tuple[float, ...], name: str = "sweep_grid") -> tuple[int, ...]:
    for x in grid:
        if not x.is_integer():  # also rejects inf and nan
            raise ConfigError(f"{name} entries must be integers, got {x!r}")
    return tuple(int(x) for x in grid)


def parse_config(path: str, *, seed=None, trials=None, out=None) -> ExperimentConfig:
    """Load and validate one experiment configuration file; a ``seed``,
    ``trials`` or ``out`` given (as on the command line) replaces the file's."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = _parse_lines(handle, path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc

    values = {key: _convert(key, val, path) for key, val in raw.items()}
    values.update((key, val) for key, val in (("seed", seed), ("trials", trials), ("out", out)) if val is not None)

    for db, (linear, unit_db) in _DB_KEYS.items():
        if db in values:
            if linear in values:
                raise ConfigError(f"{path}: give either {linear!r} or {db!r}, not both")
            values[linear] = 10.0 ** ((values.pop(db) - unit_db) / 10.0)

    missing = [key for key in _REQUIRED if key not in values]
    if missing:
        raise ConfigError(f"{path}: missing required key(s): {', '.join(missing)}")

    experiment = values["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"{path}: unknown experiment {experiment!r}; "
            f"expected one of {', '.join(EXPERIMENTS)}"
        )

    try:
        params = SystemParams(**{field: values[key] for key, field in _LINK_KEYS.items()})
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    sweep_grid = tuple(values.get("sweep_grid", ()))
    _, _, read_grid, swept = _EXPERIMENTS[experiment]
    if read_grid is not None:
        if not sweep_grid:
            raise ConfigError(f"{path}: experiment {experiment!r} needs sweep_grid")
        if list(sweep_grid) != sorted(sweep_grid):
            raise ConfigError(f"{path}: sweep_grid must be sorted ascending")
        if any(x <= 0 for x in sweep_grid):
            raise ConfigError(f"{path}: sweep_grid entries must be positive")
        try:
            for x in read_grid(sweep_grid):  # each row's link or n1, as the runner builds it
                if swept:
                    replace(params, **{_LINK_KEYS[swept]: x})
                else:
                    check_n1(x, params)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"{path}: sweep_grid value {swept or 'n1'} = {x!r}: {exc}") from exc

    gtables = dict.fromkeys(_GTABLE_KEYS, ())
    if experiment == "gtable":
        for key in _GTABLE_KEYS:
            if key not in values:
                raise ConfigError(f"{path}: experiment 'gtable' needs {key}")
        gtables = {key: _int_grid(values[key], key) for key in _GTABLE_KEYS}

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
        **gtables,
    )


# ---------------------------------------------------------------------------
# CSV plumbing


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.11e" % x  # 12 significant digits, fixed-width reproducible
    return str(int(x) if isinstance(x, bool) else x)


def _write_csv(cfg: ExperimentConfig, rows: list[dict], header=None) -> None:
    """One CSV of ``rows``, each a column -> value dict, below the config's
    comment block; the header is the first row's columns unless given."""
    header = list(rows[0]) if header is None else header
    with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as out:
        for line in cfg.canonical_lines():
            out.write(f"# {line}\n")
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row[column]) for column in header) + "\n")


def _grid(cfg: ExperimentConfig) -> tuple:
    """``sweep_grid`` as its experiment's runner reads it."""
    return _EXPERIMENTS[cfg.experiment][2](cfg.sweep_grid)


# ---------------------------------------------------------------------------
# experiments: each runner writes its CSV


def emit_gtable(cfg: ExperimentConfig) -> int:
    """Ordered-gain table over the configured (rank, n1, m) grids."""
    header = ["rank", "n1", "m", "value", "method"]  # given, as no rank may fit
    rows = []
    for m in cfg.gtable_m:
        for n1 in cfg.gtable_n1:
            closed = order_stats.closed_form_domain(n1, m)
            method = "closed_form" if closed else "quadrature"
            for rank in cfg.gtable_ranks:
                if rank > n1:
                    continue
                rows.append(dict(zip(header, (rank, n1, m, order_stats.gain(rank, n1, m), method))))
    _write_csv(cfg, rows, header)
    return 0


def _run_optimize(cfg: ExperimentConfig) -> None:
    p = cfg.params
    sol = optimizer.optimize_training(p)
    plan = sol.plan
    row = {
        "n1_star": plan.n1,
        "case": sol.case_used_per_n1[plan.n1].kind,
        "e1_star_j": plan.e1,
        "qnet_j": sol.qnet_star,
        "pnet_w": sol.qnet_star / p.t,
        "cost_j": plan.cost,
    }
    row.update((f"e2_{r}_j", e2) for r, e2 in enumerate(plan.e2, start=1))
    _write_csv(cfg, [row])


def _run_simulate(cfg: ExperimentConfig) -> None:
    p = cfg.params
    sol = optimizer.optimize_training(p)
    report = channel_sim.run_two_phase(sol.plan, p, cfg.trials, cfg.seed)
    qbar = average_harvested_energy(sol.plan, p)
    row = {
        "n1_star": sol.plan.n1,
        "e1_star_j": sol.plan.e1,
        "qnet_analytic_j": net_harvested_energy(sol.plan, p),
        "qnet_sim_j": report.mean_qnet,
        "qnet_sim_stderr_j": report.stderr,
        "qbar_analytic_j": qbar,
        "qbar_sim_j": report.mean_qbar,
        "within_3_stderr": abs(report.mean_qbar - qbar) <= 3.0 * report.stderr,
    }
    _write_csv(cfg, [row])


def _run_bound(cfg: ExperimentConfig) -> None:
    p = cfg.params
    report = asymptotics.saturation_bound(p)
    row = {
        "n": p.n,
        "bound_j": report.bound,
        "bound_w": report.bound / p.t,
        "lambert_bound_j": report.lambert_bound,
        "n1_star": report.n1_star,
        "trivial_branch": report.trivial_branch,
    }
    _write_csv(cfg, [row])


def _run_sweep_n1(cfg: ExperimentConfig) -> None:
    p = cfg.params
    grid = _grid(cfg)
    rows = []
    curve = optimizer.solve_curve(grid, p)
    for i, n1 in enumerate(grid):
        plan, value = curve.plan(i, p), float(curve.value[i])
        report = channel_sim.run_two_phase(plan, p, cfg.trials, cfg.seed + i)
        rows.append(
            {
                "n1": n1,
                "case": optimizer._label(int(curve.code[i])).kind,
                "e1_star_j": plan.e1,
                "e2_1_star_j": plan.e2[0],
                "qnet_analytic_j": value,
                "pnet_analytic_w": value / p.t,
                "qnet_sim_j": report.mean_qnet,
                "qnet_sim_stderr_j": report.stderr,
                "pnet_sim_w": report.mean_qnet / p.t,
            }
        )
    _write_csv(cfg, rows)


def _benchmark_columns(p: SystemParams, trials: int, seed: int) -> dict:
    """The optimized design beside the five benchmark schemes, analytic and
    simulated on common random numbers."""
    sol = optimizer.optimize_training(p)
    p1_plan, _ = optimizer.solve_phase1_only(p)
    p2_plan, _ = optimizer.solve_phase2_only(p)
    bf_energy, _ = optimizer.solve_brute_force(p)
    two, perfect, nocsi, phase1, phase2, brute = channel_sim.run_schemes(
        (
            channel_sim.TwoPhase(sol.plan),
            channel_sim.PerfectCsi(),
            channel_sim.NoCsi(),
            channel_sim.Phase1Only(n1=p1_plan.n1, e1=p1_plan.e1),
            channel_sim.Phase2Only(e2=p2_plan.e2),
            channel_sim.BruteForce(energy_per_band=bf_energy),
        ),
        p, trials, seed,
    )
    return {
        "n1_star": sol.plan.n1,
        "case": sol.case_used_per_n1[sol.plan.n1].kind,
        "e1_star_j": sol.plan.e1,
        "e2_1_star_j": sol.plan.e2[0],
        "qnet_twophase_j": sol.qnet_star,
        "pnet_twophase_w": sol.qnet_star / p.t,
        "qnet_twophase_sim_j": two.mean_qnet,
        "qnet_twophase_sim_stderr_j": two.stderr,
        "pnet_perfect_w": asymptotics.perfect_csi_average(p) / p.t,
        "pnet_perfect_sim_w": perfect.mean_qnet / p.t,
        "pnet_perfect_sim_stderr_w": perfect.stderr / p.t,
        "pnet_nocsi_w": p.eta_t_ps * p.beta * p.n2 / p.t,
        "pnet_nocsi_sim_w": nocsi.mean_qnet / p.t,
        "pnet_nocsi_sim_stderr_w": nocsi.stderr / p.t,
        "pnet_phase1_sim_w": phase1.mean_qnet / p.t,
        "pnet_phase1_sim_stderr_w": phase1.stderr / p.t,
        "pnet_phase2_sim_w": phase2.mean_qnet / p.t,
        "pnet_phase2_sim_stderr_w": phase2.stderr / p.t,
        "pnet_bruteforce_sim_w": brute.mean_qnet / p.t,
        "pnet_bruteforce_sim_stderr_w": brute.stderr / p.t,
        "bruteforce_e_j": bf_energy,
    }


def _siso_columns(p: SystemParams, trials: int, seed: int) -> dict:
    """The optimized net energy beside the perfect-CSI average and the
    wideband saturation bound; analytic only, so ``trials`` and ``seed``
    go unread."""
    sol = optimizer.optimize_training(p)
    ideal = asymptotics.perfect_csi_average(p)
    bound = asymptotics.saturation_bound(p)
    return {
        "n1_star": sol.plan.n1,
        "e1_star_j": sol.plan.e1,
        "qnet_twophase_j": sol.qnet_star,
        "pnet_twophase_w": sol.qnet_star / p.t,
        "qbar_ideal_j": ideal,
        "pbar_ideal_w": ideal / p.t,
        "bound_j": bound.bound,
        "bound_w": bound.bound / p.t,
        "lambert_bound_j": bound.lambert_bound,
    }


def _param_sweep(columns, cfg: ExperimentConfig) -> None:
    """A sweep over the experiment's link key: row i sets that key's field
    to the i-th grid value, leads with that value, and takes the rest from
    ``columns(params, trials, seed + i)``."""
    key = _EXPERIMENTS[cfg.experiment][3]
    rows = []
    for i, x in enumerate(_grid(cfg)):
        p = replace(cfg.params, **{_LINK_KEYS[key]: x})
        rows.append({key: x, **columns(p, cfg.trials, cfg.seed + i)})
    _write_csv(cfg, rows)


# experiment -> (subcommand, runner, reader of its sweep_grid or None if unswept,
# the link key its grid replaces or None)
_EXPERIMENTS = {
    "gtable": ("gtable", emit_gtable, None, None),
    "optimize": ("optimize", _run_optimize, None, None),
    "simulate": ("simulate", _run_simulate, None, None),
    "sweep_n1": ("sweep", _run_sweep_n1, _int_grid, None),
    "sweep_T": ("sweep", functools.partial(_param_sweep, _benchmark_columns), tuple, "t_s"),
    "sweep_M": ("sweep", functools.partial(_param_sweep, _benchmark_columns), _int_grid, "m"),
    "sweep_N_siso": ("sweep", functools.partial(_param_sweep, _siso_columns), _int_grid, "n"),
    "bound": ("bound", _run_bound, None, None),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def run_experiment(cfg: ExperimentConfig) -> int:
    """Execute the configured experiment; returns a process exit code.

    0 on success, 1 on numeric failure (message names the failing module
    and inputs), 2 on I/O failure.
    """
    runner = _EXPERIMENTS[cfg.experiment][1]
    try:
        runner(cfg)
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
    return 0


# ---------------------------------------------------------------------------
# command line


# command -> its help; _EXPERIMENTS names the experiments each command runs
_COMMANDS = {
    "gtable": "tabulate ordered channel gains",
    "optimize": "solve for the optimal training design",
    "simulate": "validate the optimal design by Monte Carlo",
    "sweep": "run the configured sweep experiment",
    "bound": "evaluate the wideband net-energy upper bound",
    "echo-config": "print the parsed config in canonical form",
}


@functools.cache  # built once per process; parse_args returns a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wetopt",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "commands:\n%s\n\n"
            "config keys: experiment (one of %s); m, n, n2, eta, t_s;\n"
            "ps_w | ps_dbm; beta | beta_db; n0_j | n0_dbm_per_hz; bs_hz\n"
            "(informational); sweep_grid (comma list, sweeps only);\n"
            "gtable_ranks / gtable_n1 / gtable_m (gtable only);\n"
            "trials (default %d); seed (default %d); out (default\n"
            "'<experiment>.csv').  dBm inputs convert at parse time;\n"
            "everything downstream is joules / watts / seconds."
            % ("\n".join(f"  {name:<12} {text}" for name, text in _COMMANDS.items()),
               ", ".join(EXPERIMENTS), _DEFAULT_TRIALS, _DEFAULT_SEED)
        ),
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="one of the commands below")
    parser.add_argument("--config", required=True, help="path to config file")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--trials", type=int, default=None, help="override trials")
    parser.add_argument("--out", default=None, help="override output path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, seed=args.seed, trials=args.trials, out=args.out)
        if args.command == "echo-config":
            for line in cfg.canonical_lines():
                print(line)
            return 0
        allowed = tuple(name for name, (command, *_) in _EXPERIMENTS.items() if command == args.command)
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
