"""ipcsim benchmark.

    python3 perfbench/run.py --workload ftipc_lc18 --seed 2024 --seconds 36 --trace 0

Runs one workload (or, with `--workload all`, each workload in its own
process, one after another) against the package under `src/` of this
checkout, repeating it until `--seconds` have been spent. Every run's
outputs are checked (see check.py). Before the result it prints one JSON
record with the samples, the environment and the failures; the last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (END_TO_END); with
`--trace 1` iterations alternate between untraced and traced, and the
metrics are the per-layer counters of the traced ones (PER_LAYER) plus the
tracing overhead. Exit status: 0 when every check passed, 1 when a check
failed, 2 when the benchmark could not run (for example, no `src/`).

The benchmark never sets BLAS or OpenMP thread variables; it records them.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads
from tracing import Tracer, dir_bytes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up probes: SETUP_PROBES_PER_ITERATION before every iteration, then
# topped up to SETUP_MIN_PROBES; setup_s is their minimum.
SETUP_PROBES_PER_ITERATION = 3
SETUP_MIN_PROBES = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("output_mb", "MB"),
)

PER_LAYER = (
    ("plant.advance_block.calls", "count"),
    ("plant.advance_block.s", "s"),
    ("plant.advance_block.rows", "count"),
    ("plant.innovation_block.s", "s"),
    ("baselines.mbc_ipc_step.calls", "count"),
    ("baselines.mbc_ipc_step.s", "s"),
    ("harness.loop_self_s", "s"),
    ("sysid.ingest.calls", "count"),
    ("sysid.ingest.s", "s"),
    ("sysid.ingest.self_s", "s"),
    ("numerics.rls_update_batch.calls", "count"),
    ("numerics.rls_update_batch.s", "s"),
    ("numerics.rls_update_batch.rows", "count"),
    ("numerics.solve_dare.calls", "count"),
    ("numerics.solve_dare.s", "s"),
    ("numerics.solve_dare.iterations", "count"),
    ("numerics.solve_dare.failures", "count"),
    ("numerics.solve_dare.ok_frac", "frac"),
    ("control.finish_rotation.calls", "count"),
    ("control.finish_rotation.s", "s"),
    ("control.finish_rotation.self_s", "s"),
    ("control.finish_rotation.ms_p50", "ms"),
    ("control.finish_rotation.ms_p99", "ms"),
    ("control.rotation_commands.s", "s"),
    ("control.excitation.s", "s"),
    ("metrics.compute_metrics.s", "s"),
    ("harness.run_load_case.s", "s"),
    ("harness.save.calls", "count"),
    ("harness.save.s", "s"),
    ("harness.save.bytes", "B"),
    ("harness.recompute_metrics.s", "s"),
    ("harness.run_s_sum.cpc", "s"),
    ("harness.run_s_sum.mbc_ipc", "s"),
    ("harness.run_s_sum.ftipc", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "frac"),
)

THREAD_VARS = re.compile(r"BLAS|OMP_|MKL_|NUM_THREADS|VECLIB|GOTO")


# ---------------------------------------------------------------------------
# One iteration of a workload
# ---------------------------------------------------------------------------

def _new_iteration(configs) -> dict:
    return {"attempted": len(configs), "wall_s": 0.0, "reload_s": [], "output_bytes": 0,
            "summaries": {}, "failures": {}, "run_s": {}}


def _reload(harness, out_dir: Path, ids, it: dict) -> None:
    """Time `recompute_metrics` over every persisted run and require the
    bit-for-bit output contract: it must equal the saved metrics.json."""
    start = time.perf_counter()
    recomputed = {i: harness.recompute_metrics(out_dir / i) for i in ids}
    it["reload_s"].append(time.perf_counter() - start)
    for i, metrics in recomputed.items():
        if metrics != json.loads((out_dir / i / "metrics.json").read_text()):
            it["failures"].setdefault(i, "recompute_metrics differs from metrics.json")


def single_run(harness, configs, tmp: Path, parallelism: int) -> dict:
    """Only `run_load_case` is timed. The result is handed back under
    "result" for `persist_single`."""
    cfg = configs[0]
    it = _new_iteration(configs)
    start = time.perf_counter()
    try:
        result = harness.run_load_case(cfg)
    except Exception as exc:  # a failed run is counted, not fatal
        it["wall_s"] = time.perf_counter() - start
        it["failures"][cfg.id] = f"{type(exc).__name__}: {exc}"
        return it
    it["wall_s"] = time.perf_counter() - start
    it["summaries"][cfg.id] = check.summarize(result.metrics)
    it["run_s"][cfg.controller] = result.wall_time_s
    it["result"] = result
    return it


def persist_single(harness, result, tmp: Path, it: dict) -> None:
    """Save and reload one single run, untimed, after the measurement, for
    output_mb and the recompute check; peak RSS is read before this."""
    out_dir = tmp / "runs"
    result.save(out_dir)
    it["output_bytes"] = dir_bytes(out_dir)
    _reload(harness, out_dir, [result.config.id], it)
    shutil.rmtree(out_dir)


def campaign(harness, configs, tmp: Path, parallelism: int) -> dict:
    """`run_campaign` + `compare` are timed; every persisted run is then
    reloaded."""
    it = _new_iteration(configs)
    out_dir = tmp / "runs"
    start = time.perf_counter()
    report = harness.run_campaign(configs, parallelism=parallelism, out_dir=out_dir)
    try:
        table = harness.compare(report.metrics_by_id(), "cpc")
    except ValueError as exc:  # a group lost its baseline run
        table, table_error = None, f"compare failed: {exc}"
    it["wall_s"] = time.perf_counter() - start
    ok_ids = []
    for status, cfg in zip(report.statuses, configs):
        it["run_s"][cfg.controller] = it["run_s"].get(cfg.controller, 0.0) + status.wall_time_s
        if status.ok:
            ok_ids.append(status.id)
            it["summaries"][status.id] = check.summarize(status.metrics)
        else:
            it["failures"][status.id] = status.error
    if table is not None:
        rsd = [v for row in table.rows for v in row.rsd_faulty_window.values()]
        table_error = ("compare table incomplete or not finite"
                       if len(table.rows) != len(ok_ids) or not all(map(math.isfinite, rsd))
                       else None)
    if table_error:
        for cfg in configs:
            it["failures"].setdefault(cfg.id, table_error)
    it["output_bytes"] = dir_bytes(out_dir)
    _reload(harness, out_dir, ok_ids, it)
    shutil.rmtree(out_dir)
    return it


STEPS = {"ftipc_lc18": single_run, "mbc_lc18": single_run, "campaign_short": campaign}


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def check_iterations(iterations, golden: dict | None) -> str:
    """Record every check failure in its iteration; returns the golden status.

    Checks: finite outputs; the same summaries on every iteration (runs are
    a pure function of their config); and, when `golden` holds this seed,
    agreement with it within check.RTOL.
    """
    first = iterations[0]["summaries"]
    for it in iterations:
        for run_id, summary in it["summaries"].items():
            bad = check.nonfinite(summary)
            if bad:
                it["failures"].setdefault(run_id, f"non-finite {bad}")
            elif run_id in first and summary != first[run_id]:
                it["failures"].setdefault(run_id, "differs from the first iteration")
            elif golden is not None:
                if run_id not in golden:
                    it["failures"].setdefault(run_id, "no golden entry")
                    continue
                diff = check.mismatches(summary, golden[run_id])
                if diff:
                    it["failures"].setdefault(run_id, "golden mismatch: " + "; ".join(diff[:3]))
    return "no golden for this seed" if golden is None else "checked"


# ---------------------------------------------------------------------------
# Environment and set-up
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if THREAD_VARS.search(k)},
        "start_method": multiprocessing.get_start_method(),
        "git_commit": _git_commit(),
    }


def probe_setup(workload: str, seed: int, smoke: bool, samples: list, count: int) -> None:
    """Append `count` set-up times, each from a fresh interpreter (import
    is cached after the first)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), str(SRC), workload, str(seed),
           "1" if smoke else "0"]
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of its waited-for children."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure(before, step, seconds: float, min_iterations: int) -> list:
    """Repeat `before()` and `step(i)` until `min_iterations` are done and
    another would overrun `seconds` by more than half an iteration."""
    results = []
    start = time.perf_counter()
    while True:
        before()
        results.append(step(len(results)))
        elapsed = time.perf_counter() - start
        if len(results) >= min_iterations and elapsed * (1 + 0.5 / len(results)) >= seconds:
            return results


def layer_metrics(tracer: Tracer, traced: list, untraced: list, parallelism: int) -> dict:
    """Per-layer counters per traced iteration, plus the tracing overhead:
    the calibrated cost of one wrapper times the wrapped calls, spread over
    the processes that made them."""
    n = len(traced)
    values = {}
    for name, unit in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        stat = tracer.stats.get(prefix)
        if stat is None:
            continue
        if field == "ok_frac":
            values[name] = (stat.calls - stat.failures) / stat.calls if stat.calls else 0.0
        elif field in ("ms_p50", "ms_p99"):
            d = stat.durations
            cut = statistics.quantiles(d, n=100, method="inclusive") if len(d) > 1 else [0.0] * 99
            values[name] = 1e3 * cut[49 if field == "ms_p50" else 98]
        else:
            values[name] = getattr(stat, field) / n
    values["harness.loop_self_s"] = tracer.stats["harness.run_load_case"].self_s / n
    for ctl in ("cpc", "mbc_ipc", "ftipc"):
        values[f"harness.run_s_sum.{ctl}"] = sum(it["run_s"].get(ctl, 0.0) for it in traced) / n
    calls = sum(stat.calls for stat in tracer.stats.values()) / n
    overhead = tracer.wrapper_cost_s() * calls / parallelism
    values["trace.overhead_s"] = overhead
    values["trace.overhead_frac"] = overhead / statistics.median(it["wall_s"] for it in untraced)
    return values


def run_workload(args, harness) -> int:
    variant = args.workload + ("-smoke" if args.smoke else "")
    configs = workloads.build_configs(harness, args.workload, args.seed, args.smoke)
    parallelism = len(os.sched_getaffinity(0))
    step = STEPS[args.workload]
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    record = {"workload": args.workload, "variant": variant, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "environment": environment()}
    setup = []
    latest = {}  # the latest single-run result, for persist_single
    run_parallelism = parallelism
    if args.trace:
        tracer = Tracer(dump_dir=tmp / "trace")
        tracer.dump_dir.mkdir()
        # Forked workers inherit the wrappers; other start methods would
        # start from a fresh import without them.
        run_parallelism = parallelism if multiprocessing.get_start_method() == "fork" else 1

    def before():
        # Set-up probes between iterations see the same drift of the box's
        # speed as the iterations do.
        if not args.trace:
            probe_setup(args.workload, args.seed, args.smoke, setup, SETUP_PROBES_PER_ITERATION)

    def run_step(i):
        latest.clear()  # free the previous result before the next run
        # With tracing, iterations alternate untraced and traced.
        traced = args.trace and i % 2 == 1
        if traced:
            tracer.install()
        try:
            it = step(harness, configs, tmp, run_parallelism if traced else parallelism)
        finally:
            if traced:
                tracer.uninstall()
                tracer.collect_children()
        if "result" in it:
            latest["result"] = it.pop("result")
        return it

    try:
        iterations = measure(before, run_step, args.seconds, min_iterations=2)
        rss = peak_rss_mb()
        if "result" in latest:
            persist_single(harness, latest.pop("result"), tmp, iterations[-1])
        if not args.trace:
            probe_setup(args.workload, args.seed, args.smoke, setup,
                        max(0, SETUP_MIN_PROBES - len(setup)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    golden_path = Path(args.golden)
    if args.record_golden:
        first = iterations[0]["summaries"]
        check.write_golden(golden_path, variant, args.seed, first)
        record["golden"] = f"recorded {len(first)} runs"
        check_iterations(iterations, None)
    else:
        golden = check.load_golden(golden_path).get(variant, {}).get(str(args.seed))
        record["golden"] = check_iterations(iterations, golden)

    attempted = sum(it["attempted"] for it in iterations)
    failures = {}
    for n, it in enumerate(iterations):
        for run_id, why in it["failures"].items():
            failures[f"{n}:{run_id}"] = why
    failed = len(failures)
    record.update(iterations=len(iterations), attempted=attempted, failed=failed,
                  fail_frac=failed / attempted, failures=dict(list(failures.items())[:20]))

    if args.trace:
        traced, untraced = iterations[1::2], iterations[0::2]
        values = {name: 0.0 for name, _ in PER_LAYER}
        values.update(layer_metrics(tracer, traced, untraced, run_parallelism))
        units = dict(PER_LAYER)
        untraced_s = [it["wall_s"] for it in untraced]
        difference = statistics.median(it["wall_s"] for it in traced) - statistics.median(untraced_s)
        record["trace_info"] = {
            "absent": tracer.absent,
            "traced_iterations": len(traced),
            "untraced_iterations": len(untraced),
            "campaign_in_process": run_parallelism == 1 and args.workload == "campaign_short",
            "untraced_wall_s": untraced_s,
            "traced_wall_s": [it["wall_s"] for it in traced],
            # Resolved only when the difference exceeds the untraced runs' range.
            "measured_overhead_s": difference,
            "measured_overhead_resolved": (len(untraced_s) > 1 and
                                           abs(difference) > max(untraced_s) - min(untraced_s)),
        }
    else:
        units = dict(END_TO_END)
        samples = {
            "setup_s": setup,
            "wall_s": [it["wall_s"] for it in iterations],
            "output_mb": [it["output_bytes"] / 1e6 for it in iterations if it["output_bytes"]],
            "reload_s": [t for it in iterations for t in it["reload_s"]],
        }
        values = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()
                  if k in units}
        values["setup_s"] = min(setup)
        values["peak_rss_mb"] = rss
        values["ok_frac"] = 1.0 - failed / attempted
        record["samples"] = samples
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record["metrics"] = dict(metrics, fail_frac={"value": failed / attempted, "unit": "frac"})
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--golden", str(args.golden)]
        if args.smoke:
            cmd.append("--smoke")
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", default=str(HERE / "golden.json"),
                        help="golden summary file (default: perfbench/golden.json)")
    parser.add_argument("--record-golden", action="store_true",
                        help="write this run's summaries to --golden instead of checking them")
    parser.add_argument("--smoke", action="store_true",
                        help="20 s load cases, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        harness = workloads.import_harness(SRC)
    except ImportError as exc:
        print(f"perfbench: cannot import ipcsim from {SRC}: {exc}", file=sys.stderr)
        return 2
    return run_workload(args, harness)


if __name__ == "__main__":
    sys.exit(main())
