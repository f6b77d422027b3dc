"""Verdict-latency benchmark for koszulrank (stdlib only).

    python3 perfbench/run.py --workload cli --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

Load model: a closed loop, one client, one process, no threads.  A trial is
one verdict per cell of its workload (see ``workloads.py``); its inputs
derive from ``--seed`` and the trial index.  A run:

1. runs the reference trials at the default seed (this also warms lazy
   caches) and compares their verdict digest with ``reference.json``;
2. measures trials for ``--seconds`` (at least ``MIN_TRIALS``) and checks
   every verdict;
3. between those trials, at even steps through the run, times
   ``SETUP_PROBES`` fresh interpreters from spawn until the workload's
   fixtures are ready (``setup_s`` is their median).  The host's speed drifts
   within a run, so probes spread over the run see the same mix of host speed
   as the trials do; their time is left out of the measured phase.

With ``--trace 1`` step 2 is split: half the time untraced, half with spans
recorded around each layer boundary (see ``tracing.py``); the spans go to
``perfbench/out/`` and the per-layer metrics replace the end-to-end ones.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
A trial that raises, fails its verdict check or belongs to a reference batch
whose digest mismatches counts as failed; any failure makes the exit code 1.
Exit code 2 means the benchmark could not start (no ``src/koszulrank``).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

# the benchmark measures the package next to it and nothing else
if not (SRC / "koszulrank" / "__init__.py").is_file():
    print(f"perfbench: no koszulrank sources at {SRC}; run from a full checkout", file=sys.stderr)
    sys.exit(2)

import workloads  # noqa: E402  (puts SRC first on sys.path)
import tracing  # noqa: E402

if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC.resolve()):
    print(f"perfbench: imported koszulrank from {workloads.cli.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

SETUP_PROBES = 15
MIN_TRIALS = 20
TAIL_BEYOND = 10
COUNT_TRIALS = 4  # traced trials 0..3 feed the exact counters
MAX_REPORTED_FAILURES = 3


def machine_ref_s() -> float:
    """Median time of a fixed pure-Python integer loop, to expose CPU-speed drift."""
    runs = []
    for _ in range(5):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        runs.append(perf_counter() - start)
    return statistics.median(runs)


def tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest rank with ``TAIL_BEYOND`` trials beyond it."""
    ordered = sorted(times)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


@dataclass
class Phase:
    """Trial times, failures and set-up probe times of one measured loop."""

    times: list[float] = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0  # set-up probes excluded
    setup: list[float] = field(default_factory=list)


def _run_trial(workload, seed: int, index: int):
    """(record, problems); an exception is a failed verdict, never a crash."""
    try:
        record = workload.trial(seed, index)
        return record, workload.check(record)
    except (Exception, SystemExit):
        return None, [traceback.format_exc()]


def _report(label: str, problems: list[str], failed_so_far: int) -> None:
    if problems and failed_so_far <= MAX_REPORTED_FAILURES:
        print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)


def measure(workload, seed: int, seconds: float, min_trials: int, tracer=None, setup_probe=None) -> Phase:
    """Trials for ``seconds``; ``setup_probe`` (spawn-to-ready seconds), when
    given, runs ``SETUP_PROBES`` times at even steps between the trials."""
    phase = Phase()
    start = perf_counter()
    probing = 0.0

    def elapsed() -> float:
        return perf_counter() - start - probing

    def probe() -> None:
        nonlocal probing
        t0 = perf_counter()
        phase.setup.append(setup_probe())
        probing += perf_counter() - t0

    index = 0
    while index < min_trials or elapsed() < seconds:
        t0 = perf_counter()
        if tracer is None:
            _, problems = _run_trial(workload, seed, index)
        else:
            tracer.trial = index
            with tracer.span(tracing.ROOT_SPAN):
                _, problems = _run_trial(workload, seed, index)
        phase.times.append(perf_counter() - t0)
        phase.failed += bool(problems)
        _report(f"trial {index} (seed {seed})", problems, phase.failed)
        index += 1
        if setup_probe is not None and len(phase.setup) < SETUP_PROBES * elapsed() / seconds:
            probe()
    phase.wall = elapsed()
    while setup_probe is not None and len(phase.setup) < SETUP_PROBES:
        probe()
    return phase


def reference_check(workload, reference: dict) -> tuple[int, int, str]:
    """(attempted, failed, digest) of the reference trials at the default seed."""
    seed = reference["default_seed"]
    expected = reference["workloads"][workload.name]
    records = []
    failed = 0
    for index in range(expected["reference_trials"]):
        record, problems = _run_trial(workload, seed, index)
        records.append(record)
        failed += bool(problems)
        _report(f"reference trial {index}", problems, failed)
    digest = workloads.verdict_digest(records)
    if digest != expected["verdict_digest"]:
        print(f"FAILED verdict_digest {digest} != reference {expected['verdict_digest']}",
              file=sys.stderr)
        failed = len(records)
    return len(records), failed, digest


def setup_time(name: str, scratch: Path) -> float:
    """Seconds from spawning a fresh interpreter until its fixtures are ready."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(scratch)],
        stdout=subprocess.PIPE, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
    return elapsed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: int, trace: bool, reference: dict) -> int:
    OUT.mkdir(exist_ok=True)
    drift_before = machine_ref_s()
    workload = workloads.make_workload(name)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload.setup(Path(scratch))
        attempted, failed, digest = reference_check(workload, reference)
        if trace:
            plain = measure(workload, seed, seconds / 2, COUNT_TRIALS)
            tracer = tracing.Tracer()
            with tracing.instrument(tracer):
                phase = measure(workload, seed, seconds / 2, COUNT_TRIALS, tracer)
            attempted += len(plain.times)
            failed += plain.failed
        else:
            phase = measure(workload, seed, seconds, MIN_TRIALS,
                            setup_probe=lambda: setup_time(name, Path(scratch)))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    drift_after = machine_ref_s()
    attempted += len(phase.times)
    failed += phase.failed

    p50 = statistics.median(phase.times)
    expected_digest = reference["workloads"][name]["verdict_digest"]
    print(f"workload {name}  seed {seed}  trials {len(phase.times)}  wall {phase.wall:.3f} s")
    print(f"verdict_digest {digest}  reference {expected_digest}  "
          f"{'match' if digest == expected_digest else 'MISMATCH'}")
    print(f"machine_ref_s before {drift_before:.5f}  after {drift_after:.5f}")
    if trace:
        overhead = p50 - statistics.median(plain.times)
        metrics = tracing.layer_metrics(tracer, range(COUNT_TRIALS), len(phase.times), overhead)
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(HERE.parent)}")
        print("layer_shares " + json.dumps(tracing.layer_shares(tracer), sort_keys=True))
    else:
        tail_s, tail_pct = tail(phase.times)
        metrics = {
            "trial_s_p50": _metric(p50, "s"),
            "trial_s_tail": _metric(tail_s, "s"),
            "trials_per_s": _metric(len(phase.times) / phase.wall, "1/s"),
            "setup_s": _metric(statistics.median(phase.setup), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
        print(f"trial_s_tail is p{tail_pct:.1f} of {len(phase.times)} trials")
    for metric, entry in metrics.items():
        print(f"{metric:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'failed_frac':40s} {failed / attempted:.6g} fraction ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1]) if lines else None
        if results[name] is None or proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {
            f"{name}.{metric}": entry
            for name, r in results.items() if r
            for metric, entry in r["metrics"].items()
        },
    }))
    return 0 if ok else 1


def main(argv=None, reference=None) -> int:
    parser = argparse.ArgumentParser(description="koszulrank verdict-latency benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    if reference is None:
        reference = json.loads(REFERENCE.read_text())
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), reference)


if __name__ == "__main__":
    sys.exit(main())
