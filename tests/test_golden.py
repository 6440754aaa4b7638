"""The benchmark's golden run summaries, checked as part of the test suite.

`perfbench/golden.json` records, per workload and seed, the summary of
every run (per-window load SD, duty cycle and pitch band ratio, plus the
DARE-failure and clamp counts). This test runs the base seed's cases of all
three workloads, built as the benchmark builds them (`perfbench/workloads.py`),
and compares them through `perfbench/check.py`, with the benchmark's own
tolerance. It only reads `perfbench/`.
"""

import importlib.util
from pathlib import Path

from ipcsim import harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runs_match_the_benchmark_golden():
    check, workloads = _load("check"), _load("workloads")
    golden = check.load_golden(PERFBENCH / "golden.json")
    seed = workloads.DEFAULT_SEED
    bad = []
    # One campaign per workload: campaign_short reuses the single runs' ids.
    for workload in workloads.WORKLOADS:
        configs = workloads.build_configs(harness, workload, seed, smoke=False)
        expected = golden[workload][str(seed)]
        assert sorted(c.id for c in configs) == sorted(expected), workload
        report = harness.run_campaign(configs, parallelism=2)
        assert report.failed == [], workload
        for run_id, metrics in report.metrics_by_id().items():
            diff = check.mismatches(check.summarize(metrics), expected[run_id])
            bad += [f"{workload} {run_id} {d}" for d in diff]
    assert bad == []
