"""The benchmark scripts under ``tools/`` against the package they time.

Each script's cases run once, untimed, so a renamed or re-signatured
``wetopt`` name fails here rather than when the script is next run.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wetopt

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.usefixtures("empty_memo")  # a cold case swaps out the memos it sees
@pytest.mark.parametrize("script", ["bench_optimizer", "bench_simulator"])
def test_every_case_runs(script, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # the scripts import benchlib beside them
    cases = load(script)._cases()
    assert cases
    for name, run, *_ in cases:
        assert run() is not None, name



def test_times_keep_three_significant_figures(monkeypatch):
    # warm design-sweep-wide solves take 0.1-0.6 ms: rounding to a fixed
    # number of decimals would leave one or two digits of them
    monkeypatch.syspath_prepend(str(TOOLS))
    benchlib = load("benchlib")
    assert benchlib.sig3(0.000123456) == 0.000123
    assert benchlib.sig3(0.0009996) == 0.001
    assert benchlib.sig3(1.23456) == 1.23


def test_same_bits_sees_every_field(monkeypatch):
    # n1, e1 and qnet_star can agree while one phase-2 energy moved by an ulp
    monkeypatch.syspath_prepend(str(TOOLS))
    bench = load("bench_optimizer")
    cases = {name: run for name, run, _ in bench._cases()}
    four = cases["design-sweep-wide, the four solves together"]()
    one = [
        cases[f"design-sweep-wide t={t:g} (m=4, n=80, n2=64)"]()[0] for t in (1e-7, 3e-7, 5e-6, 1e-1)
    ]
    assert bench._answer(four) == bench._answer(one)
    sol = one[-1]
    e2 = (np.nextafter(sol.plan.e2[0], np.inf), *sol.plan.e2[1:])
    moved = replace(sol, plan=replace(sol.plan, e2=e2))
    answers = {"parent": bench._answer([sol]), "change": bench._answer([moved])}
    assert bench._compare(answers, "parent") == {
        "same_n1": True,
        "same_bits": False,
        "max_rel_qnet_vs_parent": 0.0,
    }
    answers["change"] = bench._answer([sol])
    assert bench._compare(answers, "parent")["same_bits"]


def test_wins_split_by_position(monkeypatch):
    # interleave runs the last tree last in even pairs and first in odd ones
    monkeypatch.syspath_prepend(str(TOOLS))
    benchlib = load("benchlib")
    times = {"parent": [2.0, 2.0, 2.0, 2.0, 2.0], "change": [1.0, 3.0, 1.0, 1.0, 3.0]}
    row = benchlib.summary(times, ["parent", "change"])
    assert (row["change_wins"], row["change_wins_ran_first"], row["change_wins_ran_last"]) == (3, 1, 2)
    # the bench scripts print the split beside the total
    assert benchlib.wins_text(row, ["parent", "change"], 5) == "wins 3/5 (ran first 1/2, ran last 2/3)"


def test_interleaved_a_a_run(monkeypatch):
    # one tree against itself through the long-lived workers: every pair
    # times both sides, and the answers agree to the bit
    monkeypatch.syspath_prepend(str(TOOLS))
    benchlib = load("benchlib")
    src = str(Path(wetopt.__file__).resolve().parents[1])
    names = [
        "design-sweep-wide t=1e-07 (m=4, n=80, n2=64)",
        "design-sweep-wide, the four solves together, caches evicted",
    ]
    trees = [("a", src), ("b", src)]
    _, times, answers = benchlib.interleave(str(TOOLS / "bench_optimizer.py"), trees, 4, names)
    for name in names:
        assert [len(times[name][label]) for label in "ab"] == [4, 4], name
        assert answers[name]["a"] == answers[name]["b"], name
        row = benchlib.summary(times[name], ["a", "b"])
        assert 0 <= row["b_wins"] <= 4
        assert row["b_wins_ran_first"] + row["b_wins_ran_last"] == row["b_wins"]
        assert row["b_wins_ran_first"] <= 2 and row["b_wins_ran_last"] <= 2
        for label in "ab":
            assert 0 < row[label]["q1"] <= row[label]["median"] <= row[label]["q3"]


def test_interleaved_simulator_a_a_run(monkeypatch):
    # the simulator bench through the long-lived workers, one tree against
    # itself: every pair times both sides, and the reports agree to the bit
    monkeypatch.syspath_prepend(str(TOOLS))
    benchlib = load("benchlib")
    src = str(Path(wetopt.__file__).resolve().parents[1])
    names = ["NoCsi validate n=50, 4000 trials", "Phase2Only ISM"]
    _, times, answers = benchlib.interleave(str(TOOLS / "bench_simulator.py"), [("a", src), ("b", src)], 3, names)
    for name in names:
        assert [len(times[name][label]) for label in "ab"] == [3, 3], name
        assert answers[name]["a"] == answers[name]["b"], name
        row = benchlib.summary(times[name], ["a", "b"])
        assert 0 <= row["b_wins"] <= 3
        assert row["b_wins_ran_first"] + row["b_wins_ran_last"] == row["b_wins"]
