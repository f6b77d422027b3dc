"""The benchmark's tracer must still find every function it wraps, and its
self-tests (reference verdict digests, counter repeatability) pass."""

import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    with tracing.instrument(tracing.Tracer()):
        pass


def test_benchmark_self_tests_pass():
    env = {k: v for k, v in os.environ.items() if k != "KOSZUL_PRIME_BITS"}
    result = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench"],
        cwd=PERFBENCH.parent, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
