"""The experiment scripts run end to end on tiny inputs."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import koszulrank

SRC = Path(koszulrank.__file__).resolve().parent.parent
ROOT = SRC.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/rank_sweep.py", "--max-n", "3", "--trials", "2"],
        ["scripts/cancellation_stats.py", "--trials", "3"],
    ],
)
def test_script_runs(argv):
    result = _run(argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


@pytest.mark.parametrize(
    "argv",
    [
        ["scripts/rank_sweep.py", "--max-n", "3", "--trials", "0"],
        ["scripts/rank_sweep.py", "--max-n", "2", "--m", "-1"],
        ["scripts/cancellation_stats.py", "--n", "3", "--m", "-1"],
        ["scripts/cancellation_stats.py", "--n", "3", "--max-terms", "-1"],
        ["scripts/cancellation_stats.py", "--n", "3", "--trials", "0"],
    ],
)
def test_script_bad_flag_is_a_usage_error(argv):
    result = _run(argv)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "error:" in result.stderr


def _run(argv):
    env = {k: v for k, v in os.environ.items() if k != "KOSZUL_PRIME_BITS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cancellation_stats_counts_an_invalid_sink_as_a_falsification(monkeypatch, capsys):
    script = _load_script("cancellation_stats")
    witness_of = script.contradiction_witness

    def invalid_sink(g, coeffs):
        witness = witness_of(g, coeffs)
        witness.analysis.graph.is_3_sink = lambda vertex: False
        return witness

    monkeypatch.setattr(script, "contradiction_witness", invalid_sink)
    monkeypatch.setattr(sys, "argv", ["cancellation_stats.py", "--n", "6", "--trials", "2"])
    assert script.main() == 3
    assert "FALSIFICATION" in capsys.readouterr().out
