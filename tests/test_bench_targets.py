"""The traced benchmark (bench/layers.py) wraps library functions at the
module attributes their callers use. Some of those attributes are imports
that the module itself does not call, so a lint-driven cleanup could delete
them; this test fails first."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_attribute_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import TARGETS

    missing = [f"{t.module}.{t.attr}" for t in TARGETS
               if not hasattr(importlib.import_module(t.module), t.attr)]
    assert TARGETS and missing == []
