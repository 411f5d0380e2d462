"""Smoke test of the benchmark's span tracer: every function it wraps must
still exist where it looks it up, and `restore` must put each one back."""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_restore_round_trip():
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} was not restored"
