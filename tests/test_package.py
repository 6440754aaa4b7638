"""Public surface: every name a module declares in __all__ exists, and the
package re-exports only declared names."""

import importlib
import types

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
