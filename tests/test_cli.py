"""Config parsing, CSV contracts, reproducibility, and exit codes."""

import os
import subprocess
import sys

import pytest

import wetopt
from wetopt import order_stats
from wetopt.cli import ConfigError, main, parse_config
from wetopt.optimizer import solve_brute_force, solve_for_n1
from wetopt.training_model import SystemParams

ISM_DEFAULTS = """\
# ISM-band scenario
experiment = optimize
m = 10
n = 866
n2 = 16
ps_w = 0.06
eta = 0.8
t_s = 5e-5
beta_db = -60
n0_dbm_per_hz = -160
bs_hz = 30e3
trials = 100
seed = 3
"""


def write(tmp_path, text, name="exp.conf"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def small_sweep_config(tmp_path, out_name="sweep.csv"):
    out = tmp_path / out_name
    text = (
        "experiment = sweep_n1\n"
        "m = 3\nn = 10\nn2 = 2\n"
        "eta = 0.8\nt_s = 1e-3\nps_w = 0.06\nbeta = 1e-6\nn0_j = 1e-19\n"
        "sweep_grid = 2, 4, 7, 10\n"
        "trials = 500\nseed = 9\n"
        f"out = {out}\n"
    )
    return write(tmp_path, text), out


class TestParseConfig:
    def test_ism_defaults_and_conversions(self, tmp_path):
        cfg = parse_config(write(tmp_path, ISM_DEFAULTS))
        p = cfg.params
        assert (p.m, p.n, p.n2) == (10, 866, 16)
        assert p.beta == pytest.approx(1e-6, rel=1e-12)
        assert p.n0 == pytest.approx(1e-19, rel=1e-12)
        assert cfg.bs_hz == 30e3
        assert cfg.seed == 3

    def test_echo_round_trip(self, tmp_path, capsys):
        path = write(tmp_path, ISM_DEFAULTS)
        assert main(["echo-config", "--config", path]) == 0
        echoed = capsys.readouterr().out
        again = parse_config(write(tmp_path, echoed, "echoed.conf"))
        assert again == parse_config(path)

    def test_missing_key_named(self, tmp_path):
        broken = ISM_DEFAULTS.replace("eta = 0.8\n", "")
        with pytest.raises(ConfigError, match="eta"):
            parse_config(write(tmp_path, broken))

    def test_unknown_key_rejected_with_line(self, tmp_path):
        with pytest.raises(ConfigError, match=r":2: unknown key 'voltage'"):
            parse_config(write(tmp_path, "m = 2\nvoltage = 5\n"))

    def test_syntax_error_has_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match=r":3:"):
            parse_config(write(tmp_path, "m = 2\nn = 4\nnonsense line\n"))

    def test_unit_conflict(self, tmp_path):
        text = ISM_DEFAULTS + "beta = 1e-6\n"
        with pytest.raises(ConfigError, match="beta"):
            parse_config(write(tmp_path, text))

    def test_dbm_power_conversion(self, tmp_path):
        text = ISM_DEFAULTS.replace("ps_w = 0.06", "ps_dbm = 17.78151250383644")
        cfg = parse_config(write(tmp_path, text))
        assert cfg.params.ps == pytest.approx(0.06, rel=1e-12)

    def test_grid_must_be_sorted(self, tmp_path):
        path, _ = small_sweep_config(tmp_path)
        text = open(path).read().replace("2, 4, 7, 10", "4, 2, 7, 10")
        with pytest.raises(ConfigError, match="sorted"):
            parse_config(write(tmp_path, text, "bad.conf"))

    def test_experiment_name_validated(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config(write(tmp_path, ISM_DEFAULTS.replace("optimize", "dance")))

    def test_integer_grids_checked_at_parse_time(self, tmp_path):
        path, _ = small_sweep_config(tmp_path)
        text = open(path).read().replace("2, 4, 7, 10", "2, 4.5, 7, 10")
        with pytest.raises(ConfigError, match="integer"):
            parse_config(write(tmp_path, text, "frac.conf"))


class TestSweepCsv:
    def test_rows_columns_and_recomputability(self, tmp_path):
        path, out = small_sweep_config(tmp_path)
        assert main(["sweep", "--config", path]) == 0
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("seed = 9" in c for c in comments)
        header = next(l for l in lines if not l.startswith("#")).split(",")
        rows = [l.split(",") for l in lines[lines.index(",".join(header)) + 1 :]]
        assert len(rows) == 4
        # analytic column must be reproducible from the library alone
        cfg = parse_config(path)
        for row in rows:
            n1 = int(row[header.index("n1")])
            sol = solve_for_n1(n1, cfg.params)
            assert float(row[header.index("qnet_analytic_j")]) == pytest.approx(
                sol.value, rel=1e-10
            )

    def test_byte_identical_reruns(self, tmp_path):
        path, out = small_sweep_config(tmp_path)
        assert main(["sweep", "--config", path]) == 0
        first = out.read_bytes()
        assert main(["sweep", "--config", path]) == 0
        assert out.read_bytes() == first

    def test_seed_override_changes_sim_not_analytic(self, tmp_path):
        path, out = small_sweep_config(tmp_path)
        main(["sweep", "--config", path])
        base = out.read_text().splitlines()[-1].split(",")
        main(["sweep", "--config", path, "--seed", "77"])
        other = out.read_text().splitlines()[-1].split(",")
        assert base[4] == other[4]  # analytic
        assert base[6] != other[6]  # simulated


class TestGtable:
    def test_values_and_methods(self, tmp_path):
        out = tmp_path / "g.csv"
        text = (
            "experiment = gtable\n"
            "m = 2\nn = 10\nn2 = 2\n"
            "eta = 0.8\nt_s = 1e-3\nps_w = 0.06\nbeta = 1e-6\nn0_j = 1e-19\n"
            "gtable_ranks = 1, 2, 3\n"
            "gtable_n1 = 3, 5, 10, 40\n"
            "gtable_m = 1, 2\n"
            f"out = {out}\n"
        )
        assert main(["gtable", "--config", write(tmp_path, text)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        harmonic = next(
            r for r in rows if (r["rank"], r["n1"], r["m"]) == ("1", "3", "1")
        )
        assert float(harmonic["value"]) == pytest.approx(11.0 / 6.0, abs=1e-9)
        assert {r["method"] for r in rows} == {"closed_form", "quadrature"}
        # record gain grows with the population, with diminishing returns
        col = [float(r["value"]) for r in rows if r["rank"] == "1" and r["m"] == "2"]
        assert col == sorted(col)
        slopes = [
            (b - a) / (n2_ - n1_)
            for (a, b), (n1_, n2_) in zip(
                zip(col, col[1:]), zip((3, 5, 10), (5, 10, 40))
            )
        ]
        assert slopes == sorted(slopes, reverse=True)
        # rank never exceeds population: no rank-3 rows at n1 = 3 were lost
        assert all(int(r["rank"]) <= int(r["n1"]) for r in rows)
        # each row is the memo's gain, tagged with its population's domain
        for r in rows:
            rank, n1, m = int(r["rank"]), int(r["n1"]), int(r["m"])
            closed = order_stats.closed_form_domain(n1, m)
            assert r["method"] == ("closed_form" if closed else "quadrature")
            assert r["value"] == "%.11e" % order_stats.gains_up_to(rank, n1, m)[rank - 1]


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["optimize", "--config", str(tmp_path / "nope.conf")]) == 2
        assert "error" in capsys.readouterr().err

    def test_numeric_failure_names_inputs(self, tmp_path, capsys, monkeypatch):
        path, _ = small_sweep_config(tmp_path)
        import wetopt.cli as cli_mod

        def boom(*a, **k):
            raise ArithmeticError("synthetic numeric failure")

        monkeypatch.setattr(cli_mod.optimizer, "solve_for_n1", boom)
        assert main(["sweep", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "sweep_n1" in err and "SystemParams" in err

    def test_unwritable_output_is_io_failure(self, tmp_path, capsys):
        path, _ = small_sweep_config(tmp_path)
        text = open(path).read()
        text = text.replace(
            next(l for l in text.splitlines() if l.startswith("out")),
            f"out = {tmp_path}/no/such/dir/x.csv",
        )
        assert main(["sweep", "--config", write(tmp_path, text, "io.conf")]) == 2

    def test_subcommand_experiment_mismatch(self, tmp_path):
        path = write(tmp_path, ISM_DEFAULTS)  # experiment = optimize
        assert main(["bound", "--config", path]) == 2


class TestOtherExperiments:
    def _base(self, tmp_path, experiment, out_name, extra=""):
        out = tmp_path / out_name
        text = (
            f"experiment = {experiment}\n"
            "m = 3\nn = 10\nn2 = 2\n"
            "eta = 0.8\nt_s = 1e-3\nps_w = 0.06\nbeta = 1e-6\nn0_j = 1e-19\n"
            "trials = 400\nseed = 5\n"
            f"{extra}"
            f"out = {out}\n"
        )
        return write(tmp_path, text, f"{experiment}.conf"), out

    def _read(self, out):
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        return dict(zip(lines[0].split(","), lines[1].split(",")))

    def test_optimize_row(self, tmp_path):
        path, out = self._base(tmp_path, "optimize", "opt.csv")
        assert main(["optimize", "--config", path]) == 0
        row = self._read(out)
        assert int(row["n1_star"]) in range(2, 11)
        assert float(row["qnet_j"]) > 0
        assert "e2_2_j" in row

    def test_simulate_row_agrees(self, tmp_path):
        path, out = self._base(tmp_path, "simulate", "sim.csv")
        assert main(["simulate", "--config", path, "--trials", "4000"]) == 0
        row = self._read(out)
        assert row["within_3_stderr"] == "1"

    def test_bound_row(self, tmp_path):
        path, out = self._base(tmp_path, "bound", "bound.csv")
        assert main(["bound", "--config", path]) == 0
        row = self._read(out)
        assert float(row["bound_j"]) >= float(row["n"]) * 0  # parses
        assert float(row["lambert_bound_j"]) > 0

    def test_sweep_t_has_benchmark_columns(self, tmp_path):
        path, out = self._base(
            tmp_path, "sweep_T", "st.csv", extra="sweep_grid = 1e-3, 2e-3\n"
        )
        assert main(["sweep", "--config", path, "--trials", "300"]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        for col in (
            "pnet_perfect_sim_w",
            "pnet_nocsi_sim_w",
            "pnet_phase1_sim_w",
            "pnet_phase2_sim_w",
            "pnet_bruteforce_sim_w",
        ):
            assert col in header
        assert len(lines) == 3

    def test_sweep_t_brute_force_energy_is_closed_form(self, tmp_path):
        path, out = self._base(tmp_path, "sweep_T", "bf.csv", extra="sweep_grid = 1e-3\n")
        assert main(["sweep", "--config", path, "--trials", "200"]) == 0
        row = self._read(out)
        p = SystemParams(m=3, n=10, n2=2, ps=0.06, eta=0.8, t=1e-3, beta=1e-6, n0=1e-19)
        energy, _ = solve_brute_force(p)
        assert energy > 0.0
        assert float(row["bruteforce_e_j"]) == pytest.approx(energy, rel=1e-10)

    def test_sweep_n_siso_columns(self, tmp_path):
        path, out = self._base(
            tmp_path, "sweep_N_siso", "sn.csv", extra="sweep_grid = 10, 20, 40\n"
        )
        text = open(path).read().replace("m = 3", "m = 1").replace("n2 = 2", "n2 = 1")
        path = write(tmp_path, text, "siso.conf")
        assert main(["sweep", "--config", path]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
        ideal = [float(r["qbar_ideal_j"]) for r in rows]
        assert ideal == sorted(ideal)
        for r in rows:
            assert float(r["bound_j"]) >= float(r["qnet_twophase_j"]) * (1 - 1e-12)


def test_cli_optimize_loads_no_scipy(tmp_path):
    # start-up cost is mostly imports, and scipy is a test-only oracle: a
    # fresh interpreter that imports the CLI and runs an optimize on the
    # quadrature route (n > 30 bands at m = 10) must not load any scipy
    # module, however lazily imported
    config = write(
        tmp_path, ISM_DEFAULTS.replace("n = 866", "n = 40").replace("n2 = 16", "n2 = 4")
    )
    out = str(tmp_path / "opt.csv")
    src = os.path.dirname(os.path.dirname(os.path.abspath(wetopt.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, wetopt.cli\n"
        "rc = wetopt.cli.main(['optimize', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "sys.exit(rc or (f'scipy modules loaded: {loaded}' if loaded else 0))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, config, out],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert os.path.getsize(out) > 0
