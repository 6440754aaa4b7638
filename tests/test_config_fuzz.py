"""Seeded config fuzzer: one field of a short load case replaced by an
awkward value, 200 times.

Every case must end in one of three ways: a `ConfigError` when the config
is built; a finished run whose metrics are all finite (a `band_ratio_u` of
None, a constant command, counts as finite) and recompute from its saved
files; or a `RuntimeError` that the
campaign runner reports as a failed run. Anything else is a program fault.
"""

import inspect
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from ipcsim.control import ControllerTuning
from ipcsim.harness import (
    CONTROLLERS,
    ConfigError,
    LoadCaseConfig,
    recompute_metrics,
    run_campaign,
    run_load_case,
)
from ipcsim.plant import build_plant

N_CASES = 200

# Values that have found config holes before: zeros, signs, huge and tiny
# magnitudes, non-finite floats, bools, None, strings, containers and an
# integer too wide for a C long. None of them makes a valid run longer than
# 100 s, so the cases stay short.
AWKWARD = (0, 1, -1, 2, 3, 7, 100, 0.5, -0.5, 0.01, 1e-300, 1e300, -1e300, math.nan,
           math.inf, -math.inf, -0.0, True, False, None, "", "x", [], [0.4, 0.35], {},
           {"a": 1}, 2**70)

TOP_LEVEL = tuple(f.name for f in fields(LoadCaseConfig) if f.name not in ("plant", "tuning"))
PLANT = tuple(inspect.signature(build_plant).parameters)
TUNING = tuple(f.name for f in fields(ControllerTuning))


def base_case(controller: str) -> dict:
    return LoadCaseConfig(id=f"fuzz-{controller}", controller=controller, seed=3,
                          duration_s=20.0, fault_onset_s=10.0, fault_kind="pad",
                          fault_parameter=0.5, sigma_e=20.0,
                          tuning={"warmup_rotations": 5}).to_dict()


def fuzzed_cases(seed: int, n: int):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        case = base_case(CONTROLLERS[rng.integers(len(CONTROLLERS))])
        value = AWKWARD[rng.integers(len(AWKWARD))]
        where = rng.integers(3)
        if where == 0:
            name = TOP_LEVEL[rng.integers(len(TOP_LEVEL))]
            case[name] = value
        else:
            names = PLANT if where == 1 else TUNING
            name = names[rng.integers(len(names))]
            case["plant" if where == 1 else "tuning"][name] = value
        yield name, value, case


def metrics_are_finite(metrics: dict) -> bool:
    return all(v is None or (isinstance(v, float) and math.isfinite(v))
               for which in ("healthy", "faulty") for blade in metrics[which].values()
               for v in blade.values())


def test_fuzzed_configs_end_in_one_of_three_ways(tmp_path):
    outcomes = {"config_error": 0, "finished": 0, "failed_run": 0}
    faults = []
    for i, (name, value, case) in enumerate(fuzzed_cases(2024, N_CASES)):
        try:
            cfg = LoadCaseConfig.from_dict(case)
        except ConfigError:
            outcomes["config_error"] += 1
            continue
        except Exception as exc:  # any other error is a fault, reported below
            faults.append(f"{name}={value!r}: building raised {type(exc).__name__}: {exc}")
            continue
        try:
            result = run_load_case(cfg)
        except RuntimeError as exc:
            report = run_campaign([cfg])
            if [s.id for s in report.failed] != [cfg.id]:
                faults.append(f"{name}={value!r}: the campaign did not report {exc!r}")
            outcomes["failed_run"] += 1
        except Exception as exc:
            faults.append(f"{name}={value!r}: running raised {type(exc).__name__}: {exc}")
        else:
            if not metrics_are_finite(result.metrics):
                faults.append(f"{name}={value!r}: finished with non-finite metrics")
            # A finished run saves, and its metrics recompute from the files.
            try:
                result.save(tmp_path / str(i))
                if recompute_metrics(tmp_path / str(i) / cfg.id) != result.metrics:
                    faults.append(f"{name}={value!r}: saved metrics do not recompute")
            except Exception as exc:
                faults.append(f"{name}={value!r}: saving raised {type(exc).__name__}: {exc}")
            outcomes["finished"] += 1
    assert not faults, faults
    # The seed reaches all three endings.
    assert all(outcomes.values()), outcomes


@pytest.mark.parametrize("where, name, value, dare_failures", [
    ("plant", "coupling", -1e300, None),  # the run fails: its loads overflow
    ("tuning", "q_y", 1e300, 15),
    ("tuning", "q_dtheta", 1e300, 0),
])
def test_riccati_overflow_emits_no_runtime_warning(where, name, value, dare_failures):
    # Fuzz cases whose Riccati iterates overflow: the solver reports a
    # non-finite iterate as a DARE failure, and no numpy warning escapes.
    case = base_case("ftipc")
    case[where][name] = value
    cfg = LoadCaseConfig.from_dict(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if dare_failures is None:
            with pytest.raises(RuntimeError, match="non-finite metrics"):
                run_load_case(cfg)
        else:
            assert run_load_case(cfg).metrics["dare_failures"] == dare_failures
