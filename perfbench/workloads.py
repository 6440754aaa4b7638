"""Workload definitions shared by the benchmark and its set-up probe.

Run as a script, this module is the set-up probe: it times importing
`ipcsim` from the checkout plus building and validating the workload's
`LoadCaseConfig`s in a fresh interpreter, and prints the time as JSON.

    python3 perfbench/workloads.py SRC_DIR WORKLOAD SEED SMOKE
"""

import json
import sys
import time
from pathlib import Path

WORKLOADS = ("ftipc_lc18", "mbc_lc18", "campaign_short")
DEFAULT_SEED = 2024  # base_seed of the shipped campaign

# LC18 carries the blade-stiffness fault, the heaviest noise (tiiec) and the
# tightest criterion-5 margin of the shipped campaign.
SINGLE_RUN_IDS = {
    "ftipc_lc18": "LC18-lvlB-bld-tiiec-ftipc",
    "mbc_lc18": "LC18-lvlB-bld-tiiec-mbc_ipc",
}
SINGLE_RUN_DURATION_S = 2000.0
# 40 s per case keeps one 54-run campaign near 10 s on two cores, so a
# measured run holds several campaigns; pool start-up, BLAS threading and
# the persistence paths still show at this size.
CAMPAIGN_DURATION_S = 40.0
# Smoke size, for the benchmark's own tests only.
SMOKE_DURATION_S = 20.0


def build_configs(harness, workload: str, seed: int, smoke: bool) -> list:
    """The workload's load cases, built and validated through the public API."""
    if workload == "campaign_short":
        duration = SMOKE_DURATION_S if smoke else CAMPAIGN_DURATION_S
        return harness.default_campaign(base_seed=seed, duration_s=duration)
    duration = SMOKE_DURATION_S if smoke else SINGLE_RUN_DURATION_S
    wanted = SINGLE_RUN_IDS[workload]
    configs = [c for c in harness.default_campaign(base_seed=seed, duration_s=duration)
               if c.id == wanted]
    if len(configs) != 1:
        raise LookupError(f"default_campaign has no load case {wanted!r}")
    return configs


def import_harness(src: Path):
    """Import `ipcsim.harness` from `src`, refusing any other installed copy."""
    sys.path.insert(0, str(src))
    from ipcsim import harness

    if Path(harness.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"ipcsim was imported from {harness.__file__}, not from {src}")
    return harness


def _probe(src: str, workload: str, seed: str, smoke: str) -> None:
    start = time.perf_counter()
    harness = import_harness(Path(src))
    configs = build_configs(harness, workload, int(seed), smoke == "1")
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s, "configs": len(configs)}))


if __name__ == "__main__":
    _probe(*sys.argv[1:])
