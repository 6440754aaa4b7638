"""Public surface: every name a module declares in __all__ exists and is
used inside the package, and the package re-exports only declared names."""

import ast
import importlib
import types
from pathlib import Path

MODULES = ("baselines", "control", "harness", "metrics", "numerics", "plant", "sysid")


def test_every_all_name_resolves():
    for name in MODULES:
        module = importlib.import_module(f"ipcsim.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, (name, missing)
        namespace = {}
        exec(f"from ipcsim.{name} import *", namespace)
        assert set(module.__all__) <= set(namespace)


def test_star_import_exports_declared_names():
    namespace = {}
    exec("from ipcsim import *", namespace)
    exported = {n for n, v in namespace.items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    declared = set().union(*(importlib.import_module(f"ipcsim.{m}").__all__ for m in MODULES))
    assert {"run_load_case", "RepetitiveController", "build_basis"} <= exported
    assert exported <= declared, sorted(exported - declared)


# The documented persistence round-trip helper: the CLI and the campaign do
# not call it, callers that reload a saved run do.
UNUSED_IN_PACKAGE_ALLOWED = {"recompute_metrics"}


def test_every_all_name_is_used_inside_the_package():
    # Names that only tests call belong in tests/reference.py. A use is a
    # load of the name or attribute anywhere in the package's modules; def
    # and class lines, __all__ strings, imports and __init__.py do not count.
    src = Path(importlib.import_module("ipcsim").__file__).parent
    used = set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {(m, n) for m in MODULES for n in importlib.import_module(f"ipcsim.{m}").__all__
              if n not in used and n not in UNUSED_IN_PACKAGE_ALLOWED}
    assert not unused, sorted(unused)
