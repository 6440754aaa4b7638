"""Correctness check of the benchmark's runs against a golden summary.

A run's summary is, per analysis window and blade, the load SD (`sd_y`),
the actuator duty cycle (`adc`) and the 1P/2P band-energy ratio of the
commanded pitch (`band_ratio_u`), plus the run's `dare_failures` and
`clamp_events` counts (None for controllers that have none).

Tolerance: floats must agree within RTOL relative (ATOL absolute near
zero); the two counts must agree exactly. Reassociating the plant's output
product and the Riccati recursion's matrix products moved these summaries
by at most 4e-16 relative on the 2000 s runs and 1e-10 on the 40 s
campaign runs, where the Riccati tolerance (1e-9) bounds how exactly the
early gains are fixed, and changed no count. RTOL leaves four orders of
margin above that and stays far below what a modelling or control error
moves.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-12

WINDOWS = ("healthy", "faulty")
BLADES = ("blade1", "blade2", "blade3")
PER_BLADE = ("sd_y", "adc", "band_ratio_u")
COUNTS = ("dare_failures", "clamp_events")
KEYS = tuple(f"{w}.{b}.{k}" for w in WINDOWS for b in BLADES for k in PER_BLADE) + COUNTS


def summarize(metrics: dict) -> list:
    """The run's summary values, in KEYS order."""
    values = [metrics[w][b][k] for w in WINDOWS for b in BLADES for k in PER_BLADE]
    return values + [metrics.get(k) for k in COUNTS]


def nonfinite(summary: list) -> list:
    """Keys whose value is a float that is NaN or infinite."""
    return [key for key, v in zip(KEYS, summary)
            if isinstance(v, float) and not math.isfinite(v)]


def mismatches(summary: list, golden: list) -> list:
    """Keys on which `summary` is outside the tolerance of `golden`."""
    bad = []
    for key, got, want in zip(KEYS, summary, golden):
        if got is None or want is None or key in COUNTS:
            ok = got == want
        else:
            ok = abs(got - want) <= RTOL * abs(want) + ATOL
        if not ok:
            bad.append(f"{key}: got {got!r}, golden {want!r}")
    return bad


def load_golden(path: Path) -> dict:
    """{variant: {seed: {run id: summary}}}; empty when the file is missing."""
    if not path.is_file():
        return {}
    data = json.loads(path.read_text())
    if data.get("keys") != list(KEYS):
        raise ValueError(f"{path} was recorded with other summary keys")
    return data["runs"]


def write_golden(path: Path, variant: str, seed: int, summaries: dict) -> None:
    """Record `summaries` ({run id: summary}) for one variant and seed."""
    runs = load_golden(path)
    runs.setdefault(variant, {})[str(seed)] = dict(sorted(summaries.items()))
    # One line per run keeps the file small and its diffs readable.
    lines = []
    for v, seeds in sorted(runs.items()):
        seed_lines = []
        for s, by_id in sorted(seeds.items()):
            rows = ",\n".join(f"    {json.dumps(i)}: {json.dumps(vals)}" for i, vals in by_id.items())
            seed_lines.append(f"   {json.dumps(s)}: {{\n{rows}\n   }}")
        lines.append(f"  {json.dumps(v)}: {{\n" + ",\n".join(seed_lines) + "\n  }")
    path.write_text('{\n "keys": ' + json.dumps(list(KEYS)) + ',\n "runs": {\n'
                    + ",\n".join(lines) + "\n }\n}\n")
