import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import koszulrank
from koszulrank import cli
from koszulrank.chain_maps import ChainMap, verify_chain_map
from koszulrank.koszul import ComplexDescriptor
from koszulrank.cli import (
    EXIT_FALSIFICATION,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def _run(tmp_path, *argv):
    out = tmp_path / "out.jsonl"
    code = main(list(argv) + ["--out", str(out)])
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    return code, lines


def test_verify_complex_passes(tmp_path):
    code, lines = _run(tmp_path, "verify-complex", "--n", "3", "--m", "1", "--char", "0",
                       "--trials", "10")
    assert code == EXIT_OK
    (report,) = lines
    assert report["passed"]
    assert report["homology_total"] == 8


def test_verify_complex_char2(tmp_path):
    code, lines = _run(tmp_path, "verify-complex", "--n", "2", "--m", "0", "--char", "2",
                       "--trials", "5")
    assert code == EXIT_OK
    assert lines[0]["homology_total"] == 1


def test_usage_errors():
    with pytest.raises(SystemExit) as info:
        main(["verify-complex", "--n", "0"])
    assert info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        main(["cancellation", "--n", "2"])
    assert info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as info:
        main(["certify", "--n", "3", "--char", "5"])
    assert info.value.code == EXIT_USAGE


@pytest.mark.parametrize("command", ["verify-complex", "certify", "cancellation"])
def test_an_n_above_the_cap_exits_2_before_building_a_complex(command, capsys, monkeypatch):
    def no_complex(self):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(ComplexDescriptor, "__post_init__", no_complex)
    with pytest.raises(SystemExit) as info:
        main([command, "--n", str(cli.MAX_N + 1), "--trials", "1"])
    assert info.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: --n must be at most {cli.MAX_N}\n"
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert f"(1 to {cli.MAX_N})" in capsys.readouterr().out


def _main_output(argv, capsys):
    """(exit code, stdout, stderr) of one in-process ``main`` call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_one_parser_serves_good_and_bad_calls_in_sequence(capsys):
    argvs = [
        ["certify", "--n", "3", "--trials", "2", "--seed", "5"],
        ["certify", "--n", "3", "--char", "5"],  # rejected by the parser
        ["verify-complex", "--n", "0"],  # rejected after parsing
        ["cancellation", "--n", "4", "--trials", "2", "--seed", "5"],
        ["certify", "--n", "3", "--trials", "2", "--seed", "5"],
    ]
    cli._build_parser.cache_clear()
    in_sequence = [_main_output(argv, capsys) for argv in argvs]
    assert cli._build_parser.cache_info().misses == 1  # built once, then reused
    alone = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        alone.append(_main_output(argv, capsys))
    assert in_sequence == alone
    assert [code for code, _, _ in in_sequence] == [EXIT_OK, EXIT_USAGE, EXIT_USAGE, EXIT_OK, EXIT_OK]
    assert in_sequence[1][2] and not in_sequence[1][1]  # the usage error goes to stderr


def test_certify_run(tmp_path):
    code, lines = _run(tmp_path, "certify", "--n", "3", "--m", "1", "--char", "0",
                       "--grading", "full", "--trials", "5", "--seed", "3")
    assert code == EXIT_OK
    summary = lines[-1]
    assert summary["summary"] and summary["command"] == "certify"
    assert summary["trials_run"] == 5
    assert summary["falsifications"] == 0
    assert summary["min_rank"] >= summary["theorem_A"] == 8
    for line in lines[:-1]:
        assert line["satisfies_A"]
        assert line["certificates"]["mixed-full"]["injective"]
        assert set(line) >= {"n", "m", "char", "rank", "theorem_A", "eqn07", "satisfies_A", "grading"}


def test_certify_char2(tmp_path):
    code, lines = _run(tmp_path, "certify", "--n", "4", "--m", "1", "--char", "2",
                       "--trials", "5", "--seed", "5")
    assert code == EXIT_OK
    for line in lines[:-1]:
        assert line["certificates"]["mixed-base"]["injective"]
        assert line["certificates"]["block-diffs-4"]["injective"]
        assert "mixed-full" not in line["certificates"]


def test_cancellation_run(tmp_path):
    code, lines = _run(tmp_path, "cancellation", "--n", "6", "--m", "1", "--char", "0",
                       "--trials", "5", "--seed", "11")
    assert code == EXIT_OK
    summary = lines[-1]
    assert summary["falsifications"] == 0
    for line in lines[:-1]:
        assert line["nonzero"] and line["acyclic3"] and line["sink_valid"]


def test_cancellation_single_triple(tmp_path):
    code, lines = _run(tmp_path, "cancellation", "--n", "3", "--m", "1", "--char", "0",
                       "--trials", "3", "--seed", "2")
    assert code == EXIT_OK
    for line in lines[:-1]:
        assert line["vertices"] == 1
        assert line["acyclic3"]


def _spoil_second_trial(monkeypatch, name, spoil):
    """Patch ``cli.<name>`` so that its results are passed through ``spoil`` on trial 1 only.

    Trials are counted by wrapping ``cli.random_chain_map``, which every trial calls once.
    """
    trials = []
    draw = cli.random_chain_map
    original = getattr(cli, name)

    def counting_draw(*args, **kwargs):
        trials.append(len(trials))
        return draw(*args, **kwargs)

    def spoiled(*args, **kwargs):
        result = original(*args, **kwargs)
        return spoil(result) if trials[-1] == 1 else result

    monkeypatch.setattr(cli, "random_chain_map", counting_draw)
    monkeypatch.setattr(cli, name, spoiled)


FALSIFIED_RUNS = [
    ("check_injectivity", lambda report: dataclasses.replace(report, injective=False),
     ["certify", "--n", "3", "--m", "1", "--char", "0", "--trials", "4", "--seed", "3"]),
    ("bound_report", lambda bound: dataclasses.replace(bound, satisfies_A=False),
     ["certify", "--n", "3", "--m", "1", "--char", "0", "--grading", "full",
      "--trials", "4", "--seed", "3"]),
    ("contradiction_witness", lambda witness: dataclasses.replace(witness, nonzero=False),
     ["cancellation", "--n", "6", "--m", "1", "--char", "0", "--trials", "4", "--seed", "11"]),
]


@pytest.mark.parametrize("name, spoil, argv", FALSIFIED_RUNS, ids=[r[0] for r in FALSIFIED_RUNS])
def test_falsification_stops_and_dumps_the_map(tmp_path, monkeypatch, name, spoil, argv):
    _spoil_second_trial(monkeypatch, name, spoil)
    code, lines = _run(tmp_path, *argv)
    assert code == EXIT_FALSIFICATION
    *trial_lines, summary = lines
    assert [line["trial"] for line in trial_lines] == [0, 1]
    assert "falsification" not in trial_lines[0] and "gamma" not in trial_lines[0]
    last = trial_lines[-1]
    assert last["falsification"] is True
    assert last["chain_map_verified"] is True
    assert verify_chain_map(ChainMap.from_json_dict(last["gamma"])).passed
    assert summary["summary"] is True and summary["command"] == argv[0]
    assert summary["falsifications"] == 1
    assert summary["trials_run"] == 2
    if argv[0] == "certify":
        assert summary["min_rank"] == min(line["rank"] for line in trial_lines)
    else:
        assert set(last) >= {"coeffs", "scheme"}
        assert summary["max_edges"] == max(line["edges"] for line in trial_lines)


def test_seed_determinism(tmp_path):
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    argv = ["certify", "--n", "3", "--m", "1", "--char", "2", "--trials", "4", "--seed", "21"]
    assert main(argv + ["--out", str(out_a)]) == EXIT_OK
    assert main(argv + ["--out", str(out_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_prime_bits_env(tmp_path, monkeypatch):
    monkeypatch.setenv("KOSZUL_PRIME_BITS", "33")
    code, lines = _run(tmp_path, "certify", "--n", "2", "--m", "1", "--char", "0",
                       "--trials", "2", "--seed", "1")
    assert code == EXIT_OK
    assert lines[-1]["min_rank"] == 4


def test_stdout_output(capsys):
    code = main(["verify-complex", "--n", "2", "--m", "1", "--char", "0", "--trials", "3"])
    assert code == EXIT_OK
    captured = capsys.readouterr().out
    assert json.loads(captured.splitlines()[0])["passed"]


def _run_subprocess(args, prime_bits=None, stdout=subprocess.PIPE):
    """Run ``python -m koszulrank`` on this checkout; a hang fails by timeout."""
    env = {k: v for k, v in os.environ.items() if k != "KOSZUL_PRIME_BITS"}
    src = str(Path(koszulrank.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if prime_bits is not None:
        env["KOSZUL_PRIME_BITS"] = prime_bits
    return subprocess.run(
        [sys.executable, "-m", "koszulrank", *args],
        env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
    )


# sha256 of stdout, recorded before the graded-matrix core was merged
GOLDEN_STDOUT = [
    ("verify-complex --n 3 --m 1 --char 0",
     "fc0b652860fa72f668daad5507583903950616f1037a6b3e5848b4be4e36cde1"),
    ("verify-complex --n 3 --m 1 --char 2",
     "e7d6fca422347c67b107e23567d9f7f1407db3d3256ea5496d008c0f10bcb9cf"),
    ("certify --n 6 --char 0 --grading full --trials 5 --seed 7",
     "bbee7ec04f6f39cb61c5e6e290d0bd6427815d546a99b4c4ff082562e0a367c5"),
    ("certify --n 5 --char 2 --trials 3 --seed 7",
     "d87c45b5a7cf018ade7b2db44ccb263f6dc5b8e80b0fcb032c80d6aa0a7fdcc7"),
    ("cancellation --n 9 --trials 5 --seed 7",
     "f6c8f8b320759cde75dad45b653a751618dc24c092699cffcf6e188ae7ce03a9"),
    # recorded before the rank paths were merged
    ("certify --n 3 --char 0 --grading full --rank-method exact --trials 3 --seed 7",
     "c390f287774060de3e16b23d40a00e61dd93a87ba44bdf9e5af964bb42d7f357"),
    # recorded before the char-2 field moved to log tables
    ("certify --n 6 --char 2 --grading full --trials 10 --seed 7",
     "5cac0b14064a777e1889be786fd62ea7ee99f177f93790a2a2387eb7c64d583e"),
    ("cancellation --n 9 --char 2 --m 2 --trials 5 --seed 7",
     "fa86a82c359a48f051638939385f42d6fcb7d20160e15160f1be7bfccaf70c62"),
    # recorded before exact ranks evaluated first, when this run took minutes
    # of fraction-free elimination
    ("certify --n 5 --char 2 --grading full --rank-method exact --trials 3 --seed 7",
     "2a9d4a8c384554ba4f2b0fe161f994909c78fdf72375324c4ff00367376582e8"),
]

# (KOSZUL_PRIME_BITS, args, sha256 of stdout), recorded before the char-2 field
# moved to log tables: a tiny table field and the widest tower level
GOLDEN_STDOUT_PRIME_BITS = [
    ("3", "certify --n 4 --char 2 --trials 5 --seed 7",
     "5a8845326d4f641b1497dbe37a0e99cb52e44e364576846d398f322ce092174d"),
    ("40", "certify --n 4 --char 2 --trials 5 --seed 7",
     "5a8845326d4f641b1497dbe37a0e99cb52e44e364576846d398f322ce092174d"),
]


@pytest.mark.parametrize("args, digest", GOLDEN_STDOUT)
def test_golden_stdout(args, digest):
    result = _run_subprocess(args.split())
    assert result.returncode == EXIT_OK, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("bits, args, digest", GOLDEN_STDOUT_PRIME_BITS)
def test_golden_stdout_prime_bits(bits, args, digest):
    result = _run_subprocess(args.split(), prime_bits=bits)
    assert result.returncode == EXIT_OK, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_tiny_field_rank_does_not_falsify_theorem_a():
    """Over F_2 or F_3 the bound's evaluation rank can fall below theorem_A;
    a certified injective mixed-full family still proves the bound."""
    args = "certify --n 3 --char 0 --grading full --trials 30 --seed 7".split()
    result = _run_subprocess(args, prime_bits="2")
    assert result.returncode == EXIT_OK, result.stdout[-2000:]
    *trials, summary = [json.loads(line) for line in result.stdout.splitlines()]
    assert summary["falsifications"] == 0 and summary["trials_run"] == 30
    assert summary["min_rank"] < summary["theorem_A"]  # the tiny field does undercount
    for line in trials:
        assert line["certificates"]["mixed-full"]["injective"]
        assert line["satisfies_A"]


@pytest.mark.parametrize("value", ["0", "1", "-3", "abc", "", "65", "4096"])
def test_bad_prime_bits_is_a_usage_error(value):
    result = _run_subprocess(["certify", "--n", "2", "--trials", "1"], prime_bits=value)
    assert result.returncode == EXIT_USAGE
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    (line,) = result.stderr.splitlines()
    assert "KOSZUL_PRIME_BITS" in line


@pytest.mark.parametrize("where", ["directory", "missing parent", "full device"])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, where):
    out = {
        "directory": tmp_path,
        "missing parent": tmp_path / "missing" / "x.jsonl",
        "full device": Path("/dev/full"),  # opens, but every write fails
    }[where]
    if where == "full device" and not out.exists():
        pytest.skip("no /dev/full on this system")
    with pytest.raises(SystemExit) as info:
        main(["certify", "--n", "3", "--trials", "1", "--out", str(out)])
    assert info.value.code == EXIT_USAGE
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and str(out) in line


def test_failed_stdout_write_is_a_usage_error():
    full = Path("/dev/full")  # opens, but every write fails
    if not full.exists():
        pytest.skip("no /dev/full on this system")
    with full.open("w") as stdout:
        result = _run_subprocess(["certify", "--n", "2", "--trials", "1"], stdout=stdout)
    assert result.returncode == EXIT_USAGE
    # one line: no traceback, and no second report from the flush at shutdown
    (line,) = result.stderr.splitlines()
    assert line.startswith("error: cannot write stdout:")
