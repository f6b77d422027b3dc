"""The benchmark's tracer must still find every function it wraps, and its
self-tests (reference verdict digests, counter repeatability) pass."""

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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


def test_unused_imports_are_only_the_tracers_patch_points(monkeypatch):
    # an import kept only for the tracer to patch must name a wrapped
    # (module, attribute) pair, so one that no longer serves it fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    wrapped = {
        (owner.__name__, attr)
        for owner, attr, _ in tracing._instrumentation(tracing.Tracer())
        if isinstance(owner, ModuleType)
    }
    for path in sorted((ROOT / "src" / "koszulrank").glob("*.py")):
        module = "koszulrank" if path.stem == "__init__" else f"koszulrank.{path.stem}"
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "noqa: F401" in lines[node.lineno - 1]:
                for alias in node.names:
                    name = alias.asname or alias.name
                    assert (module, name) in wrapped, f"{path.name}:{node.lineno}: the tracer does not patch {name}"
