"""The benchmark's own tests, on smoke-sized load cases.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, golden):
    cmd = [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "1",
           "--golden", str(golden), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def result_of(done):
    return json.loads(done.stdout.splitlines()[-1])


def test_spec_names_the_metrics_the_benchmark_prints():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, tmp_path):
    done = bench("--workload", workload, "--trace", str(trace), golden=tmp_path / "none.json")
    assert done.returncode == 0, done.stderr
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    record = json.loads(done.stdout.splitlines()[-2])["record"]
    assert record["environment"]["nproc"] >= 1
    if trace:
        assert record["trace_info"]["absent"] == []


def test_perturbed_golden_value_fails_the_check(tmp_path):
    golden = tmp_path / "golden.json"
    args = ("--workload", "ftipc_lc18", "--seed", "7")
    assert bench(*args, "--record-golden", golden=golden).returncode == 0
    done = bench(*args, golden=golden)
    assert done.returncode == 0 and result_of(done)["correct"] is True
    assert json.loads(done.stdout.splitlines()[-2])["record"]["golden"] == "checked"

    data = json.loads(golden.read_text())
    (summary,) = data["runs"]["ftipc_lc18-smoke"]["7"].values()
    summary[check.KEYS.index("faulty.blade1.sd_y")] *= 1.0 + 1e-5
    golden.write_text(json.dumps(data))
    done = bench(*args, golden=golden)
    assert done.returncode == 1
    result = result_of(done)
    assert result["correct"] is False and result["failed"] == result["attempted"]


def test_tolerance_accepts_rounding_and_rejects_real_change():
    base = [1.0 + i for i in range(len(check.KEYS) - 2)] + [0, 3]
    assert check.mismatches([v * (1 + 1e-11) for v in base[:-2]] + base[-2:], base) == []
    assert check.mismatches(base[:-2] + [0, 4], base) == ["clamp_events: got 4, golden 3"]
    assert len(check.mismatches([v * (1 + 1e-5) for v in base[:-2]] + base[-2:], base)) == 18


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ftipc_lc18", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
