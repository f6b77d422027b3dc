"""The experiment scripts run end to end on tiny inputs."""

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
