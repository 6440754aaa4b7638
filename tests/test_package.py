"""Public surface: every name a module declares in __all__ exists and is
used inside the package, and the package re-exports exactly the declared names."""

import ast
import importlib
import sys
import types
from collections import Counter
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
    assert exported == declared, (sorted(exported - declared), sorted(declared - exported))


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


def test_every_import_is_used():
    # Every name a module imports is loaded somewhere in that module, so a
    # helper left imported after its last use goes. __init__.py imports only
    # to re-export, and a `from __future__` import sets a compiler flag.
    src = Path(importlib.import_module("ipcsim").__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        imported, loaded = set(), set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
        unused += [(path.name, name) for name in imported - loaded]
    assert not unused, sorted(unused)


# The program's entry points that perfbench/tracing.py hooks by name. The
# benchmark reports a hook whose target is gone as absent and then reads
# zero for its counters, so renaming or removing one of these breaks the
# benchmark's per-layer numbers without failing a run.
TRACED_ENTRY_POINTS = (
    ("ipcsim.plant", "SurrogatePlant.advance_block"),
    ("ipcsim.plant", "DisturbanceModel.innovation_block"),
    ("ipcsim.sysid", "IdentificationEngine.ingest"),
    ("ipcsim.numerics", "rls_update_batch"),
    ("ipcsim.numerics", "solve_dare"),
    ("ipcsim.control", "RepetitiveController.finish_rotation"),
    ("ipcsim.control", "RepetitiveController.rotation_commands"),
    ("ipcsim.control", "ExcitationGenerator.sample"),
    ("ipcsim.control", "projected_blocks"),
    ("ipcsim.control", "update_theta"),
    ("ipcsim.harness", "compute_metrics"),
    ("ipcsim.harness", "run_load_case"),
    ("ipcsim.harness", "RunResult.save"),
    ("ipcsim.harness", "recompute_metrics"),
    ("ipcsim.baselines", "mbc_ipc_span"),
)


def test_traced_entry_points_resolve():
    for module_name, path in TRACED_ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = vars(owner).get(part)
            assert owner is not None, (module_name, path)
        assert callable(owner), (module_name, path)


def test_traced_entry_points_are_called(tmp_path, monkeypatch):
    # Rebind each entry point as perfbench/tracing.py does: on its owner,
    # and, for a module function, in every ipcsim module that imported it.
    # A name that resolves but that the runs no longer reach would leave
    # its benchmark counters at zero. The runs go through the harness
    # module, as the benchmark's do.
    from ipcsim import harness

    packages = [m for n, m in sys.modules.items() if n == "ipcsim" or n.startswith("ipcsim.")]
    calls = Counter()

    def counting(key, target):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return target(*args, **kwargs)
        return wrapper

    for module_name, path in TRACED_ENTRY_POINTS:
        *outer, attr = path.split(".")
        owner = importlib.import_module(module_name)
        for part in outer:
            owner = vars(owner)[part]
        target = vars(owner)[attr]
        holders = [owner]
        if not isinstance(owner, type):
            holders += [m for m in packages if m is not owner and vars(m).get(attr) is target]
        for holder in holders:
            monkeypatch.setattr(holder, attr, counting((module_name, path), target))

    harness.run_load_case(harness.LoadCaseConfig(
        id="mbc", controller="mbc_ipc", seed=3, duration_s=4.0, fault_onset_s=2.0))
    # One warm-up rotation, so the 4 s run reaches the Riccati solve.
    res = harness.run_load_case(harness.LoadCaseConfig(
        id="ftipc", controller="ftipc", seed=3, duration_s=4.0, fault_onset_s=2.0,
        tuning={"warmup_rotations": 1}))
    res.save(tmp_path)
    harness.recompute_metrics(tmp_path / "ftipc")
    never = [entry for entry in TRACED_ENTRY_POINTS if not calls[entry]]
    assert not never, never


def test_cpc_run_advances_the_plant_once_per_rotation(advance_block_rows):
    from ipcsim.harness import LoadCaseConfig, run_load_case

    run_load_case(LoadCaseConfig(id="once", controller="cpc", seed=3, duration_s=10.0,
                                 fault_onset_s=5.0, fault_kind="blade_stiffness",
                                 fault_parameter=0.2))
    assert advance_block_rows == [100] * 10
