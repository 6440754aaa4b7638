"""Outside-in tracing of ipcsim's layers.

The tracer rebinds public names of the package (module functions and class
methods) to timing wrappers, from the benchmark's side, and restores them
on `uninstall`. Every call is aggregated into per-name counters (calls,
total and self time, plus a few layer-specific counts); no per-call spans
are kept, except the per-rotation `finish_rotation` durations used for
percentiles.

Self time is a span's duration minus the time its traced children took.
A hook whose target no longer exists is reported as absent instead of
failing, so a refactor of the package cannot break the benchmark.

Forked pool workers inherit the installed wrappers. A worker zeroes its
copy of the counters on its first traced call and rewrites them to
`<dump_dir>/<pid>.json` each time a top-level traced call returns; the
parent merges those files with `collect_children`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path


def dir_bytes(path: Path) -> int:
    """Total size of the regular files under `path`."""
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class Stat:
    """Aggregated counters of one traced name."""

    FIELDS = ("calls", "s", "self_s", "rows", "iterations", "failures", "bytes")

    def __init__(self, keep_durations: bool = False):
        self.keep_durations = keep_durations
        self.reset()

    def reset(self) -> None:
        for name in self.FIELDS:
            setattr(self, name, 0)
        self.durations = [] if self.keep_durations else None

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.FIELDS}
        out["durations"] = self.durations
        return out

    def merge(self, data: dict) -> None:
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name) + data[name])
        if self.durations is not None:
            self.durations.extend(data["durations"])


def _rows_returned(stat, args, kwargs, result, error):
    if error is None:
        stat.rows += len(result)


def _rows_regressed(stat, args, kwargs, result, error):
    regressors = args[1] if len(args) > 1 else kwargs["regressors"]
    stat.rows += len(regressors)


def _dare_outcome(stat, args, kwargs, result, error):
    if error is None:
        stat.iterations += result.iterations
    elif hasattr(error, "iterations"):  # DareNonConvergence
        stat.failures += 1
        stat.iterations += error.iterations


def _bytes_saved(stat, args, kwargs, result, error):
    if error is None:
        run, out_dir = args[0], args[1] if len(args) > 1 else kwargs["out_dir"]
        stat.bytes += dir_bytes(Path(out_dir) / run.config.id)


# (counter name, module, attribute path, observer, keep per-call durations)
HOOKS = (
    ("plant.advance_block", "ipcsim.plant", "SurrogatePlant.advance_block", _rows_returned, False),
    ("plant.innovation_block", "ipcsim.plant", "DisturbanceModel.innovation_block", None, False),
    ("baselines.mbc_ipc_step", "ipcsim.baselines", "mbc_ipc_step", None, False),
    ("sysid.ingest", "ipcsim.sysid", "IdentificationEngine.ingest", None, False),
    ("numerics.rls_update_batch", "ipcsim.numerics", "rls_update_batch", _rows_regressed, False),
    ("numerics.solve_dare", "ipcsim.numerics", "solve_dare", _dare_outcome, False),
    ("control.finish_rotation", "ipcsim.control", "RepetitiveController.finish_rotation", None, True),
    ("control.rotation_commands", "ipcsim.control", "RepetitiveController.rotation_commands", None, False),
    ("control.excitation", "ipcsim.control", "ExcitationGenerator.sample", None, False),
    ("metrics.compute_metrics", "ipcsim.harness", "compute_metrics", None, False),
    ("harness.run_load_case", "ipcsim.harness", "run_load_case", None, False),
    ("harness.save", "ipcsim.harness", "RunResult.save", _bytes_saved, False),
    ("harness.recompute_metrics", "ipcsim.harness", "recompute_metrics", None, False),
)


def _resolve(module_name: str, path: str):
    """(owner, attribute name, target) for a hook, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = vars(owner).get(part)
        if owner is None:
            return None
    target = vars(owner).get(name)
    return (owner, name, target) if callable(target) else None


class Tracer:
    def __init__(self, dump_dir: Path | None = None):
        self.dump_dir = dump_dir
        self.stats = {name: Stat(keep) for name, _, _, _, keep in HOOKS}
        self.absent = []
        self._stack = []  # child time accumulated by each open span
        self._pid = os.getpid()
        self._in_child = False
        self._saved = []  # (owner, name, original) to restore
        self._targets = {}
        for name, module_name, path, observe, _ in HOOKS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
            else:
                self._targets[name] = (found, observe)

    def install(self) -> None:
        packages = [m for n, m in list(sys.modules.items())
                    if n == "ipcsim" or n.startswith("ipcsim.")]
        for name, ((owner, attr, target), observe) in self._targets.items():
            wrapper = self._wrap(target, self.stats[name], observe)
            bindings = [owner]
            if not isinstance(owner, type):
                # A function is also bound under its name in every module
                # that imported it; rebind those too.
                bindings += [m for m in packages
                             if m is not owner and vars(m).get(attr) is target]
            for holder in bindings:
                self._saved.append((holder, attr, target))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def collect_children(self) -> int:
        """Merge and delete the counters dumped by forked workers."""
        if self.dump_dir is None or not self.dump_dir.is_dir():
            return 0
        dumps = sorted(self.dump_dir.glob("*.json"))
        for path in dumps:
            for name, data in json.loads(path.read_text()).items():
                self.stats[name].merge(data)
            path.unlink()
        return len(dumps)

    def wrapper_cost_s(self, calls: int = 20000, repeats: int = 5) -> float:
        """Time a wrapper adds to one call, from the fastest of `repeats`
        timings of `calls` calls of a no-op, wrapped and bare."""

        def noop():
            return None

        def fastest(fn) -> float:
            times = []
            for _ in range(repeats):
                start = time.perf_counter()
                for _ in range(calls):
                    fn()
                times.append(time.perf_counter() - start)
            return min(times)

        wrapped = self._wrap(noop, Stat(), None)
        return max(fastest(wrapped) - fastest(noop), 0.0) / calls

    def _enter_top(self) -> None:
        pid = os.getpid()
        if pid != self._pid:  # first traced call in a forked worker
            self._pid = pid
            self._in_child = True
            for stat in self.stats.values():
                stat.reset()

    def _exit_top(self) -> None:
        if self._in_child and self.dump_dir is not None:
            path = self.dump_dir / f"{self._pid}.json"
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps({n: s.to_dict() for n, s in self.stats.items()}))
            os.replace(tmp, path)

    def _wrap(self, fn, stat: Stat, observe):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = not stack
            if top:
                tracer._enter_top()
            stack.append(0.0)
            result = error = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - children
                if stat.durations is not None:
                    stat.durations.append(elapsed)
                if stack:
                    stack[-1] += elapsed
                if observe is not None:
                    observe(stat, args, kwargs, result, error)
                if top:
                    tracer._exit_top()

        return wrapper
