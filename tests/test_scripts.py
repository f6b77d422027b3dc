"""The experiment scripts run end to end on tiny inputs, and every entry point gates its flags alike."""

import functools
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import koszulrank
from koszulrank import cli
from koszulrank.chain_maps import random_chain_map
from koszulrank.koszul import ComplexDescriptor

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
        ["scripts/rank_sweep.py", "--max-n", "2", "--m", "1", "100000000", "--trials", "1"],
        ["scripts/cancellation_stats.py", "--n", "3", "--m", "100000000", "--trials", "1"],
        ["scripts/cancellation_stats.py", "--n", "3", "--max-terms", "100000000", "--trials", "1"],
    ],
)
def test_script_bad_flag_is_a_usage_error(argv):
    result = _run(argv)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "error:" in result.stderr


@pytest.mark.parametrize("flags", [["--max-n", "1"], ["--max-n", "0"], ["--max-n", "-3"], ["--max-n", "3", "--m"]])
def test_rank_sweep_refuses_an_empty_sweep(flags):
    result = _run(["scripts/rank_sweep.py", *flags, "--trials", "1"])
    assert result.returncode == 2 and not result.stdout
    assert result.stderr.startswith("error:") and len(result.stderr.splitlines()) == 1, result.stderr


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
        assert entry["rank"] == 256 and entry["mul_ns"] > 0 and entry["rank_s"] > 0
        assert entry["eval_ns"] > 0
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


def _run(argv, **environ):
    env = {k: v for k, v in os.environ.items() if k != "KOSZUL_PRIME_BITS"}
    env.update(environ)
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


@pytest.mark.parametrize("argv", [
    ["scripts/rank_sweep.py", "--max-n", "3", "--trials", "1"],
    ["scripts/cancellation_stats.py", "--n", "3", "--trials", "1"],
])
def test_script_bad_prime_bits_is_a_usage_error(argv):
    result = _run(argv, KOSZUL_PRIME_BITS="abc")
    assert result.returncode == 2 and not result.stdout
    (line,) = result.stderr.splitlines()
    assert line.startswith("error:") and "KOSZUL_PRIME_BITS" in line


SCRIPTS = ("rank_sweep", "cancellation_stats", "bench")
MAX_TERMS = _load_script("cancellation_stats").MAX_TERMS
# (entry point, argv without the flag, flag, least, largest): every flag that
# cli.check_inputs gates, with the entry point's own limits where they
# replace cli.LIMITS
GATES = [
    *((command, [command, "--n", "3"], flag, *cli.LIMITS[flag])
      for command in ("verify-complex", "certify") for flag in cli.LIMITS),
    ("cancellation", ["cancellation", "--n", "3"], "--n", 3, cli.MAX_N),
    ("cancellation", ["cancellation", "--n", "3"], "--m", *cli.LIMITS["--m"]),
    ("cancellation", ["cancellation", "--n", "3"], "--trials", *cli.LIMITS["--trials"]),
    ("rank_sweep", ["--max-n", "2"], "--max-n", 2, cli.MAX_N),
    ("rank_sweep", ["--max-n", "2"], "--m", *cli.LIMITS["--m"]),
    ("rank_sweep", ["--max-n", "2"], "--trials", *cli.LIMITS["--trials"]),
    ("cancellation_stats", [], "--n", 3, cli.MAX_N),
    ("cancellation_stats", [], "--m", *cli.LIMITS["--m"]),
    ("cancellation_stats", [], "--trials", *cli.LIMITS["--trials"]),
    ("cancellation_stats", [], "--max-terms", 0, MAX_TERMS),
    ("bench", ["--out", "unused.json"], "--runs", 0, None),
]


@pytest.mark.parametrize("entry, argv, flag, least, largest", GATES,
                         ids=[f"{entry}{flag}" for entry, _, flag, _, _ in GATES])
def test_every_entry_point_refuses_a_flag_out_of_range_alike(entry, argv, flag, least, largest, capsys, monkeypatch):
    def built(self):
        raise AssertionError("a complex was built before the gate")

    monkeypatch.setattr(ComplexDescriptor, "__post_init__", built)
    monkeypatch.delenv("KOSZUL_PRIME_BITS", raising=False)
    refusals = {least - 1: f"at least {least}" if least else "non-negative"}
    if largest is not None:
        refusals[largest + 1] = f"at most {largest}"
    for value, bound in refusals.items():
        values = ["1", str(value)] if flag == "--m" and entry == "rank_sweep" else [str(value)]
        if entry in SCRIPTS:
            monkeypatch.setattr(sys, "argv", [f"{entry}.py", *argv, flag, *values])
            run = _load_script(entry).main
        else:
            run = functools.partial(cli.main, [*argv, flag, *values])
        with pytest.raises(SystemExit) as info:
            run()
        assert info.value.code == 2
        assert capsys.readouterr() == ("", f"error: {flag} must be {bound}\n")


def test_the_largest_cell_is_the_clis():
    script = _load_script("cancellation_stats")
    assert script.CLI_MAX_TERMS == inspect.signature(random_chain_map).parameters["max_terms"].default
    assert script.LARGEST_CELL == 2 ** cli.MAX_N * script.CLI_MAX_TERMS * (cli.MAX_M + 1)


class Drawn(Exception):
    pass


@pytest.mark.parametrize("m, max_terms, refused", [
    (1000, 1000, True),  # one trial took 170 s
    (1000, 4, True),
    (10, 274, True),
    (1, 1000, False),
    (2, 1000, False),
    (10, 273, False),
    (1000, 3, False),
])
def test_cancellation_stats_refuses_a_cell_above_the_clis_largest(m, max_terms, refused, capsys, monkeypatch):
    script = _load_script("cancellation_stats")

    def draw(*args, **kwargs):
        raise Drawn

    monkeypatch.setattr(script, "random_chain_map", draw)
    monkeypatch.delenv("KOSZUL_PRIME_BITS", raising=False)
    monkeypatch.setattr(sys, "argv", ["cancellation_stats.py", "--n", str(cli.MAX_N), "--m", str(m),
                                      "--max-terms", str(max_terms), "--trials", "1"])
    with pytest.raises(SystemExit if refused else Drawn) as info:
        script.main()
    out, err = capsys.readouterr()
    assert not out
    if refused:
        assert info.value.code == 2
        (line,) = err.splitlines()
        assert line.startswith("error: --max-terms must be at most ")
