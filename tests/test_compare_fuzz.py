"""Seeded `ipcsim compare` fuzzer: one run's metrics.json in a small
campaign directory mutated, 200 times.

Each mutation replaces or deletes one entry of the JSON object (often one
that `compare` reads), damages its bytes, or swaps the file for an empty
one, a directory or undecodable bytes. `ipcsim compare` must answer every
case with exit code 0 (a table) or 1 (one logged error); a traceback or any
other code is a program fault. Every other case asks for `--json`, whose
table must be standard JSON: no NaN or Infinity tokens.
"""

import json
import math
import time

import numpy as np
import pytest

from ipcsim.cli import main as cli_main
from ipcsim.harness import LoadCaseConfig, run_load_case

N_CASES = 200

# The entries `compare` reads; the faulty blade loads and duty cycles are
# added per blade.
READ = (("id",), ("group",), ("controller",), ("seed",), ("windows",), ("fault_kind",),
        ("faulty_blade",))
READ += tuple(("faulty", f"blade{b}", key) for b in (1, 2, 3) for key in ("sd_y", "adc"))

# A baseline load SD of 1e-310 (subnormal) overflows the rSD of any load
# above about 2e-2.
AWKWARD = (0, -1, 4, 0.0, -0.0, -1.0, 1e-300, 1e-310, 1e308, -1e308, math.nan, math.inf, True,
           None, "", "x", "cpc", [], [1.0], {}, {"sd_y": 1.0}, 2**70, 10**307, 10**400)


@pytest.fixture(scope="module")
def campaign_metrics():
    """Metrics of one group's cpc and ftipc runs, as `compare` reads them."""
    runs = {}
    for ctl in ("cpc", "ftipc"):
        cfg = LoadCaseConfig(id=f"g-{ctl}", group="g", controller=ctl, seed=5, duration_s=4.0,
                             fault_onset_s=2.0, fault_kind="pad", fault_parameter=0.5,
                             sigma_e=10.0, tuning={"warmup_rotations": 1})
        runs[cfg.id] = run_load_case(cfg).metrics
    return runs


def paths(node, prefix=()):
    """Every key path into a JSON object, parents before children."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield prefix + (key,)
            yield from paths(value, prefix + (key,))


def mutate(metrics: dict, rng) -> bytes | None:
    """One mutation of a metrics object as file bytes; None for a directory."""
    kind = rng.integers(8)
    if kind == 5:
        return None
    if kind == 6:
        return b""
    if kind == 7:
        return b"\xff\xfe" + json.dumps(metrics).encode()
    m = json.loads(json.dumps(metrics))
    if kind in (0, 1, 2):
        where = READ if kind == 0 else list(paths(m))
        *parents, key = where[rng.integers(len(where))]
        owner = m
        for part in parents:
            owner = owner[part]
        if kind == 2:
            del owner[key]
        else:
            owner[key] = AWKWARD[rng.integers(len(AWKWARD))]
    data = bytearray(json.dumps(m, indent=1, sort_keys=True).encode())
    if kind == 3:  # overwrite a few bytes
        for i in rng.integers(len(data), size=rng.integers(1, 4)):
            data[i] = rng.integers(256)
    elif kind == 4:  # cut the file short
        del data[rng.integers(len(data)):]
    return bytes(data)


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_fuzzed_metrics_files_exit_0_or_1(tmp_path, capsys, campaign_metrics):
    rng = np.random.default_rng(2024)
    codes = {0: 0, 1: 0}
    start = time.perf_counter()
    for case in range(N_CASES):
        out_dir = tmp_path / f"case{case}"
        victim = list(campaign_metrics)[rng.integers(len(campaign_metrics))]
        for run_id, metrics in campaign_metrics.items():
            mfile = out_dir / run_id / "metrics.json"
            mfile.parent.mkdir(parents=True)
            data = mutate(metrics, rng) if run_id == victim else json.dumps(metrics).encode()
            if data is None:
                mfile.mkdir()
            else:
                mfile.write_bytes(data)
        as_json = case % 2 == 1
        code = cli_main(["compare", str(out_dir)] + ["--json"] * as_json)
        assert code in codes, (case, code)
        out = capsys.readouterr().out
        if as_json and code == 0:
            json.loads(out, parse_constant=reject_constant)
        codes[code] += 1
    # The seed reaches both endings, in well under the 5 s budget.
    assert all(codes.values()), codes
    assert time.perf_counter() - start < 5.0
