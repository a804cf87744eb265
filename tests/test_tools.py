"""The benchmark scripts under ``tools/`` against the package they time.

Each script's cases run once, untimed, so a renamed or re-signatured
``wetopt`` name fails here rather than when the script is next run.
"""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.usefixtures("empty_memo")  # a cold case empties the memo it sees
@pytest.mark.parametrize("script", ["bench_optimizer", "bench_simulator"])
def test_every_case_runs(script, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # the scripts import benchlib beside them
    cases = load(script)._cases()
    assert cases
    for name, run, *_ in cases:
        assert run() is not None, name

