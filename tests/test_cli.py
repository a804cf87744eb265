"""Config parsing, CSV contracts, reproducibility, and exit codes."""

import math
import os
import re
import subprocess
import sys
import warnings

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

    def test_overrides_do_not_leak_into_the_next_call(self, tmp_path, capsys):
        # main() reuses one parser per process: an override given to one
        # call must not reach the next
        path, out = small_sweep_config(tmp_path)
        other = tmp_path / "other.csv"
        argv = ["--config", path, "--seed", "77", "--trials", "40", "--out", str(other)]
        assert main(["sweep", *argv]) == 0
        assert main(["echo-config", "--config", path]) == 0
        echoed = capsys.readouterr().out.splitlines()
        assert {"seed = 9", "trials = 500", f"out = {out}"} <= set(echoed)
        assert main(["sweep", "--config", path]) == 0
        assert {"# seed = 9", "# trials = 500"} <= set(out.read_text().splitlines())
        assert {"# seed = 77", "# trials = 40"} <= set(other.read_text().splitlines())

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

        monkeypatch.setattr(cli_mod.optimizer, "solve_curve", boom)
        assert main(["sweep", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "sweep_n1" in err and "SystemParams" in err

    @pytest.mark.parametrize(
        "key, value", [("m", "inf"), ("trials", "1e400"), ("seed", "-inf"), ("n", "nan")]
    )
    def test_non_finite_integer_key_is_config_error(self, tmp_path, capsys, key, value):
        # int(inf) raises OverflowError, which once escaped as a traceback
        path, _ = small_sweep_config(tmp_path)
        text = "".join(l for l in open(path) if not l.startswith(f"{key} ")) + f"{key} = {value}\n"
        assert main(["sweep", "--config", write(tmp_path, text, "inf.conf")]) == 2
        assert f"bad value for {key!r}: {value!r} (not an integer)" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["2, 4, inf", "2, nan"])
    def test_non_finite_integer_grid_is_config_error(self, tmp_path, capsys, grid):
        path, _ = small_sweep_config(tmp_path)
        text = open(path).read().replace("2, 4, 7, 10", grid)
        assert main(["sweep", "--config", write(tmp_path, text, "inf.conf")]) == 2
        assert "sweep_grid entries must be integers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, grid, message",
        [
            ("sweep_N_siso", "1, 5", "sweep_grid value n = 1: "),
            ("sweep_T", "1e-3, inf", "sweep_grid value t_s = inf: "),
            ("sweep_n1", "2, 12", "sweep_grid value n1 = 12: trained bands must satisfy 2 <= n1 <= 10, got 12"),
        ],
    )
    def test_sweep_values_checked_at_parse_time(self, tmp_path, capsys, experiment, grid, message):
        # each grid value makes one row's link; a value no link can take is a
        # config error naming the key and the value, not a numeric failure
        path, out = small_sweep_config(tmp_path)
        text = open(path).read().replace("sweep_n1", experiment).replace("2, 4, 7, 10", grid)
        path = write(tmp_path, text, "grid.conf")
        with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: {message}")):
            parse_config(path)
        assert main(["sweep", "--config", path]) == 2
        assert not out.exists() and "SystemParams(" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value, message",
        [("--trials", "0", "trials must be >= 1, got 0"), ("--seed", "-3", "seed must be >= 0, got -3")],
    )
    def test_bad_override_is_config_error(self, tmp_path, capsys, option, value, message):
        # a command-line override gets the checks the same value gets in the file
        path, _ = small_sweep_config(tmp_path)
        assert main(["sweep", "--config", path, option, value]) == 2
        assert message in capsys.readouterr().err
        key = option[2:]
        text = "".join(l for l in open(path) if not l.startswith(f"{key} ")) + f"{key} = {value}\n"
        assert main(["sweep", "--config", write(tmp_path, text, "bad.conf")]) == 2
        assert message in capsys.readouterr().err

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


class TestUnitScaling:
    """beta -> c beta with n0 -> c^2 n0 leaves the ESNR, and so the design:
    the same n1* and the same net energy in units of eta t ps beta."""

    def _optimize(self, tmp_path, beta, n0):
        out = tmp_path / f"opt-{beta:g}.csv"
        text = (
            "experiment = optimize\nm = 10\nn = 120\nn2 = 16\n"
            f"eta = 0.8\nt_s = 5e-5\nps_w = 0.06\nbeta = {beta!r}\nn0_j = {n0!r}\n"
            f"out = {out}\n"
        )
        assert main(["optimize", "--config", write(tmp_path, text, f"{beta:g}.conf")]) == 0
        row = TestOtherExperiments()._read(out)
        return int(row["n1_star"]), float(row["qnet_j"]) / (0.8 * 5e-5 * 0.06 * beta)

    @pytest.mark.parametrize("beta, n0", [(1e-120, 1e-247), (1e140, 1e273)])
    def test_optimize_is_scale_free(self, tmp_path, beta, n0):
        n1, reduced = self._optimize(tmp_path, beta, n0)
        base_n1, base = self._optimize(tmp_path, 1e-6, 1e-19)
        assert n1 == base_n1 == 120
        assert reduced == pytest.approx(base, rel=1e-12)

    def test_esnr_out_of_range_exits_2(self, tmp_path, capsys):
        text = ISM_DEFAULTS.replace("beta_db = -60", "beta = 1e-200").replace(
            "n0_dbm_per_hz = -160", "n0_j = 1.0"
        )
        assert main(["optimize", "--config", write(tmp_path, text)]) == 2
        assert "ESNR" in capsys.readouterr().err


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

    @pytest.mark.parametrize("m", [1, 10])
    def test_sweep_t_at_a_huge_block_length(self, tmp_path, m):
        # joules near 1e293 per trial: the simulated spreads come out finite,
        # with no floating-point warning on the way
        path, out = self._base(tmp_path, "sweep_T", "big.csv", extra="sweep_grid = 1e-3, 1e300\n")
        text = open(path).read().replace("m = 3", f"m = {m}")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["sweep", "--config", write(tmp_path, text, "big.conf"), "--trials", "200"]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
        stderrs = [float(v) for r in rows for k, v in r.items() if k.endswith("_stderr_j") or k.endswith("_stderr_w")]
        assert len(stderrs) == 12 and all(math.isfinite(v) and v > 0 for v in stderrs)
        assert float(rows[1]["qnet_twophase_sim_stderr_j"]) > 1e280

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


def fresh_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this ``wetopt``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(wetopt.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_optimize_loads_no_scipy(tmp_path):
    # start-up cost is mostly imports, and scipy is a test-only oracle: a
    # fresh interpreter that imports the CLI and runs an optimize on the
    # quadrature route (n > 30 bands at m = 10) must not load any scipy
    # module, however lazily imported
    config = write(
        tmp_path, ISM_DEFAULTS.replace("n = 866", "n = 40").replace("n2 = 16", "n2 = 4")
    )
    out = str(tmp_path / "opt.csv")
    code = (
        "import sys, wetopt.cli\n"
        "rc = wetopt.cli.main(['optimize', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "sys.exit(rc or (f'scipy modules loaded: {loaded}' if loaded else 0))\n"
    )
    result = fresh_python(code, config, out)
    assert result.returncode == 0, result.stderr
    assert os.path.getsize(out) > 0


def test_cli_benchmark_sweep_loads_no_numpy_ma(tmp_path):
    # the phase-2-only harvest finds its energy levels without np.unique,
    # whose first call in a process imports numpy.ma (about 14 ms)
    config = write(tmp_path, ISM_DEFAULTS.replace("experiment = optimize", "experiment = sweep_T")
                   + "sweep_grid = 1e-5, 5e-5\n")
    out = str(tmp_path / "sweep.csv")
    code = (
        "import sys, wetopt.cli\n"
        "rc = wetopt.cli.main(['sweep', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "sys.exit(rc or ('numpy.ma loaded' if 'numpy.ma' in sys.modules else 0))\n"
    )
    result = fresh_python(code, config, out)
    assert result.returncode == 0, result.stderr
    assert os.path.getsize(out) > 0


def test_cli_import_skips_oracle_modules():
    # numpy.polynomial serves only the tests' root oracle and fractions only
    # the exact closed-form gains, so importing the CLI loads neither
    code = (
        "import sys, wetopt.cli\n"
        "loaded = [m for m in ('numpy.polynomial', 'fractions') if m in sys.modules]\n"
        "sys.exit(f'loaded on import: {loaded}' if loaded else 0)\n"
    )
    result = fresh_python(code)
    assert result.returncode == 0, result.stderr


# every name ``wetopt`` re-exports, by the module that defines it
REEXPORTS = {
    "asymptotics": (
        "BoundReport", "LargeArrayLimit", "lambert_w0", "large_antenna_limit",
        "perfect_csi_average", "saturation_bound",
    ),
    "channel_sim": (
        "BruteForce", "EnergyReport", "NoCsi", "PerfectCsi", "Phase1Only", "Phase2Only",
        "Scheme", "TwoPhase", "ranked_power_moments", "run_benchmark", "run_schemes",
        "run_two_phase", "tune_brute_force_energy",
    ),
    "optimizer": (
        "CaseLabel", "CaseSolution", "Solution", "classify_esnr_case", "net_energy_given_phase1",
        "optimal_phase2_energy", "optimize_training", "poly_real_roots", "solve_for_n1",
        "solve_phase1_only", "solve_phase2_only",
    ),
    "order_stats": ("gain", "gain_closed_form", "gain_monte_carlo", "gain_quadrature", "gains_up_to"),
    "training_model": (
        "SystemParams", "TrainingPlan", "average_harvested_energy", "esnr",
        "expected_selected_power", "net_harvested_energy", "refinement_threshold",
    ),
}
DEFERRED = ("asymptotics", "channel_sim")

# prints the deferred modules that have run, reading only their __dict__
RAN = (
    "ran = [n for n in %r if '__all__' in vars(sys.modules['wetopt.' + n])]\n" % (DEFERRED,)
)


class TestDeferredModules:
    """``channel_sim`` and ``asymptotics`` run on first use, each in a fresh
    interpreter, as a command-line user meets them."""

    def test_import_and_optimize_leave_them_unrun(self, tmp_path):
        config = write(tmp_path, ISM_DEFAULTS.replace("n = 866", "n = 40").replace("n2 = 16", "n2 = 4"))
        code = (
            "import sys, wetopt.cli\n"
            + RAN
            + "assert not ran, f'ran on import: {ran}'\n"
            "rc = wetopt.cli.main(['optimize', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            + RAN
            + "sys.exit(rc or (f'ran during optimize: {ran}' if ran else 0))\n"
        )
        result = fresh_python(code, config, str(tmp_path / "opt.csv"))
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "opt.csv").stat().st_size > 0

    def test_first_read_from_many_threads(self):
        # eight threads read one name of the unrun simulator at once; each
        # must get it, the same object, with no thread seeing a half-run module
        code = (
            "import sys, threading, wetopt.cli\n"
            "sys.setswitchinterval(1e-6)\n"
            "module = sys.modules['wetopt.channel_sim']\n"
            "barrier = threading.Barrier(8, timeout=60)\n"
            "got, errors = [], []\n"
            "def read():\n"
            "    barrier.wait()\n"
            "    try:\n"
            "        got.append(module.run_schemes)\n"
            "    except Exception as exc:\n"
            "        errors.append(repr(exc))\n"
            "threads = [threading.Thread(target=read) for _ in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(60)\n"
            "assert not any(t.is_alive() for t in threads), 'a reader hangs'\n"
            "assert not errors, errors\n"
            "assert len(got) == 8 and all(fn is got[0] for fn in got), got\n"
            "assert got[0] is wetopt.channel_sim.run_schemes is wetopt.run_schemes\n"
        )
        for _ in range(3):
            result = fresh_python(code)
            assert result.returncode == 0, result.stderr

    def test_tracer_wraps_every_binding(self):
        # perfbench's tracer reads the deferred modules from sys.modules
        # while they are unrun: after it, no wetopt module may bind a
        # LAYERS function it did not wrap
        perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
        code = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import tracer\n"
            "tracer.install(tracer.Recorder())\n"
            "originals = {}\n"
            "for layer, names in tracer.LAYERS.items():\n"
            "    for name in names:\n"
            "        fn = getattr(sys.modules['wetopt.' + layer], name)\n"
            "        assert hasattr(fn, '__wrapped__'), f'{layer}.{name} unwrapped'\n"
            "        originals[id(fn.__wrapped__)] = f'{layer}.{name}'\n"
            "bad = [f'{key}.{attr} is {originals[id(value)]}'\n"
            "       for key, module in list(sys.modules.items()) if key.split('.')[0] == 'wetopt'\n"
            "       for attr, value in vars(module).items() if id(value) in originals]\n"
            "assert not bad, bad\n"
            "import wetopt\n"
            "assert wetopt.run_two_phase is sys.modules['wetopt.channel_sim'].run_two_phase\n"
        )
        result = fresh_python(code, perfbench)
        assert result.returncode == 0, result.stderr

    def test_every_reexport_imports(self):
        names = [name for names in REEXPORTS.values() for name in names]
        code = (
            f"from wetopt import {', '.join(names)}\n"
            "import sys, wetopt\n"
            f"for owner, names in {REEXPORTS!r}.items():\n"
            "    for name in names:\n"
            "        assert getattr(wetopt, name) is getattr(sys.modules['wetopt.' + owner], name), name\n"
            "        assert name in dir(wetopt), name\n"
            "try:\n"
            "    wetopt.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert 'no_such_name' in str(exc)\n"
            "else:\n"
            "    sys.exit('no AttributeError')\n"
        )
        result = fresh_python(code)
        assert result.returncode == 0, result.stderr


BENCHMARK_COLUMNS = (
    "n1_star,case,e1_star_j,e2_1_star_j,qnet_twophase_j,pnet_twophase_w,"
    "qnet_twophase_sim_j,qnet_twophase_sim_stderr_j,pnet_perfect_w,pnet_perfect_sim_w,"
    "pnet_perfect_sim_stderr_w,pnet_nocsi_w,pnet_nocsi_sim_w,pnet_nocsi_sim_stderr_w,"
    "pnet_phase1_sim_w,pnet_phase1_sim_stderr_w,pnet_phase2_sim_w,pnet_phase2_sim_stderr_w,"
    "pnet_bruteforce_sim_w,pnet_bruteforce_sim_stderr_w,bruteforce_e_j"
)


class TestCliContract:
    """The CSV columns, messages and call paths that scripts and the
    benchmark harness read."""

    # experiment -> (subcommand, extra config lines, the CSV header)
    HEADERS = {
        "gtable": ("gtable", "gtable_ranks = 1, 2\ngtable_n1 = 3\ngtable_m = 2\n", "rank,n1,m,value,method"),
        "optimize": ("optimize", "", "n1_star,case,e1_star_j,qnet_j,pnet_w,cost_j,e2_1_j,e2_2_j"),
        "simulate": (
            "simulate", "",
            "n1_star,e1_star_j,qnet_analytic_j,qnet_sim_j,qnet_sim_stderr_j,"
            "qbar_analytic_j,qbar_sim_j,within_3_stderr",
        ),
        "sweep_n1": (
            "sweep", "sweep_grid = 2, 10\n",
            "n1,case,e1_star_j,e2_1_star_j,qnet_analytic_j,pnet_analytic_w,"
            "qnet_sim_j,qnet_sim_stderr_j,pnet_sim_w",
        ),
        "sweep_T": ("sweep", "sweep_grid = 1e-3\n", "t_s," + BENCHMARK_COLUMNS),
        "sweep_M": ("sweep", "sweep_grid = 2\n", "m," + BENCHMARK_COLUMNS),
        "sweep_N_siso": (
            "sweep", "sweep_grid = 10, 12\n",
            "n,n1_star,e1_star_j,qnet_twophase_j,pnet_twophase_w,qbar_ideal_j,"
            "pbar_ideal_w,bound_j,bound_w,lambert_bound_j",
        ),
        "bound": ("bound", "", "n,bound_j,bound_w,lambert_bound_j,n1_star,trivial_branch"),
    }

    @pytest.mark.parametrize("experiment", HEADERS)
    def test_exact_header(self, tmp_path, experiment):
        command, extra, header = self.HEADERS[experiment]
        path, out = TestOtherExperiments()._base(tmp_path, experiment, "h.csv", extra=extra)
        assert main([command, "--config", path, "--trials", "20"]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == header
        assert all(len(l.split(",")) == len(lines[0].split(",")) for l in lines[1:])

    def test_gtable_with_no_rank_in_range_writes_the_header_alone(self, tmp_path):
        extra = "gtable_ranks = 5, 6\ngtable_n1 = 2, 4\ngtable_m = 1, 3\n"
        path, out = TestOtherExperiments()._base(tmp_path, "gtable", "g.csv", extra=extra)
        assert main(["gtable", "--config", path]) == 0
        lines = out.read_text().splitlines()
        assert [l for l in lines if not l.startswith("#")] == ["rank,n1,m,value,method"]
        assert "# gtable_ranks = 5, 6" in lines

    def test_missing_keys_named_in_help_order(self, tmp_path, capsys):
        # the link keys without a dB form first, then those with one
        text = ISM_DEFAULTS
        for line in ("eta = 0.8\n", "t_s = 5e-5\n", "ps_w = 0.06\n", "n0_dbm_per_hz = -160\n", "m = 10\n"):
            text = text.replace(line, "")
        assert main(["optimize", "--config", write(tmp_path, text)]) == 2
        assert "missing required key(s): m, eta, t_s, ps_w, n0_j\n" in capsys.readouterr().err

    def test_main_reaches_parse_and_run_through_the_module(self, tmp_path, monkeypatch):
        # perfbench's tracer rebinds these module names to time them
        import wetopt.cli as cli_mod

        calls = []
        real_parse, real_run = cli_mod.parse_config, cli_mod.run_experiment

        def parse(*args, **kwargs):
            calls.append("parse_config")
            return real_parse(*args, **kwargs)

        def run(cfg):
            calls.append("run_experiment")
            return real_run(cfg)

        monkeypatch.setattr(cli_mod, "parse_config", parse)
        monkeypatch.setattr(cli_mod, "run_experiment", run)
        path, out = TestOtherExperiments()._base(tmp_path, "bound", "b.csv")
        assert main(["bound", "--config", path]) == 0
        assert calls == ["parse_config", "run_experiment"]
        assert out.exists()
