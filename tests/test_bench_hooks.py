"""The benchmark's tracer hooks every function it names: a hook whose target
was renamed or deleted would only be skipped, and its metrics read 0."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracing_hook_finds_its_target(monkeypatch):
    import tccode.cli  # noqa: F401  install() expects it imported

    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    import tracing

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert tracer.missing == []
    finally:
        patches.restore()
