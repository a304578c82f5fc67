"""The benchmark under ``bench/`` must keep running against the program.

It imports ``safemap`` names at module level and inside functions (the
probes, ``MapWorkload.setup``, the output checks), calls methods on what
those return, and wraps library functions at the module attributes their
callers use (``bench/layers.py`` TARGETS), some of which are imports the
module itself does not call. A deletion that breaks any of them fails
here, before the benchmark runs.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(BENCH.glob("*.py"))}

# methods the benchmark calls on objects the program hands it, which the
# import walk cannot see: (module, class, attribute)
CALLED = [
    ("safemap.model.config", "DamConfig", "from_dict"),  # step_probe
    ("safemap.model.config", "DamConfig", "to_dict"),  # MapWorkload.setup
    ("safemap.model.network", "DamParams", "all"),  # step_probe, MapWorkload.setup
    ("safemap.model.network", "DamParams", "expected_gradless"),  # step_probe
    ("safemap.autodiff", "Tape", "__len__"),  # step_probe: len(tape)
]


def _safemap_imports(tree):
    """(module, name or None) for every ``safemap`` import, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("safemap"):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names if a.name.startswith("safemap"))


def _resolves(module, name):
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    return name is None or hasattr(imported, name)


def test_every_traced_attribute_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from layers import TARGETS

    missing = [f"{t.module}.{t.attr}" for t in TARGETS
               if not hasattr(importlib.import_module(t.module), t.attr)]
    assert TARGETS and missing == []


def test_every_imported_name_resolves():
    imports = {(file, *imp) for file, tree in TREES.items() for imp in _safemap_imports(tree)}
    assert [imp for imp in sorted(imports, key=str) if not _resolves(*imp[1:])] == []
    # the walk reaches the imports inside functions too
    assert {("layers.py", "safemap.model.config", "DamConfig"),
            ("workloads.py", "safemap.autodiff", "save_checkpoint"),
            ("run.py", "safemap.cli", None)} <= imports


def test_every_called_method_resolves():
    used = {node.attr for tree in TREES.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}
    for module, cls, attr in CALLED:
        assert hasattr(getattr(importlib.import_module(module), cls), attr), f"{cls}.{attr}"
        # a method the benchmark stopped calling leaves this list
        assert attr == "__len__" or attr in used, f"bench no longer calls {cls}.{attr}"
