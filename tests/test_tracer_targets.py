"""The benchmark tracer wraps functions by name; each must still exist."""

import importlib
import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_is_defined(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"sitepick.{module}.{function}"
        for module, function, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"sitepick.{module}"), function, None))
    ]
    assert missing == []
