"""The benchmark's tracer must still find every function it wraps."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_hooks_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    with tracing.instrument(tracing.Tracer()):
        pass
