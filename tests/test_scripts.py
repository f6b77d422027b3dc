"""The experiment scripts run end to end on tiny inputs."""

import importlib.util
import json
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
        ["scripts/bench.py", "--out", "unused.json", "--runs", "-1"],
        ["scripts/bench.py", "--out", "unused.json", "--baseline", "no-such-checkout"],
        ["scripts/rank_sweep.py", "--max-n", "40", "--trials", "1"],
        ["scripts/cancellation_stats.py", "--n", "40", "--trials", "1"],
    ],
)
def test_script_bad_flag_is_a_usage_error(argv):
    result = _run(argv)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "error:" in result.stderr


def test_bench_records_micro_timings(tmp_path, monkeypatch):
    script = _load_script("bench")
    monkeypatch.setattr(script, "REPEAT", 1)
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench.py", "--out", str(out), "--runs", "0"])
    assert script.main() == 0
    record = json.loads(out.read_text())
    assert record["machine"]["nproc"] >= 1 and record["machine"]["python"]
    assert "commit" in record and "end_to_end" not in record
    fields = record["micro"]["fields"]
    assert set(fields) == {"F_p(31 bits)", "GF(2^16)", "GF(2^32)", "GF(2^64)"}
    for entry in fields.values():
        assert entry["rank"] == 256 and entry["mul_ns"] > 0 and entry["reduce_s"] > 0
    homology = record["micro"]["homology"]
    assert (homology["n"], homology["m"], homology["koszul_n"]) == (4, 1, 10)
    assert {char: entry["max_degree"] for char, entry in homology["chars"].items()} == {"0": 24, "2": 12}
    for entry in homology["chars"].values():
        assert set(entry) == {"max_degree", "homology_s", "elimination_s", "koszul_s"}
        assert entry["homology_s"] > 0 and entry["elimination_s"] > 0 and entry["koszul_s"] > 0
    lift = record["micro"]["lift"]
    assert (lift["n"], lift["m"]) == (4, 1) and set(lift["chars"]) == {"0", "2"}
    for entry in lift["chars"].values():
        assert set(entry) == {"alpha_s", "alpha_fallback_s", "exact_rank_s", "bareiss_s"}
        assert all(seconds > 0 for seconds in entry.values())
    certify = record["micro"]["certify"]
    assert (certify["m"], certify["grading"], certify["seed"], certify["trials"]) == (1, "full", 7, 1)
    assert {char: sorted(entry) for char, entry in certify["chars"].items()} == {"0": ["8", "9"], "2": ["8", "9"]}
    assert all(seconds > 0 for entry in certify["chars"].values() for seconds in entry.values())
    draws = record["micro"]["draws"]
    assert set(draws) == {"certify-q", "certify-f2", "cancel-q-m1", "cancel-q-m2", "cancel-f2-m1", "cancel-f2-m2"}
    assert all(seconds > 0 for seconds in draws.values())
    bound = record["micro"]["bound"]
    assert (bound["m"], bound["grading"]) == (1, "full") and set(bound["chars"]) == {"0", "2"}
    for entry in bound["chars"].values():
        assert sorted(entry) == ["8", "9"]
        for cell in entry.values():
            assert cell["rank_s"] > 0 and 0 < cell["boundary_entries"] < cell["full_entries"]


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
