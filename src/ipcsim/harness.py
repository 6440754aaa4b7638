"""Campaign runner: load-case configuration, deterministic execution,
persistence, and cross-controller comparison.

A load case fully specifies one run (plant, disturbance, fault, controller,
tuning, seed); a campaign is a list of load cases. A run advances one rotor
rotation at a time: the repetitive controller and the collective baseline
fix a rotation of commands and push it through the fault map and the plant
in one block, which the plant advances in closed form with its lifted
per-blade operator (two blocks when a fault onset falls inside the
rotation); MBC-IPC, which feeds back every sample, runs the whole run as one
fused controller/fault/plant span (`baselines.mbc_ipc_span`), lifted over
chunks of rotations between clamp events.

Outputs per run: pitch and loads as one (n, 6) float64 `.npy` array
(binary, so metrics recompute bit-for-bit from the file), the per-rotation
controller log as CSV, and a metrics summary as JSON.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import time
from contextlib import suppress
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .baselines import MbcIpcState, mbc_ipc_span
from .control import LOG_COLUMNS, ControllerTuning, ExcitationGenerator, RepetitiveController
from .metrics import DEFAULT_RATE_LIMIT_DEG_S, adc, band_energy_ratio, metric_windows, rsd
from .numerics import _is_int, _real, welch_psd
from .plant import DisturbanceModel, FaultScenario, azimuth, build_plant

__all__ = [
    "ConfigError",
    "LoadCaseConfig",
    "RunResult",
    "run_load_case",
    "run_campaign",
    "CampaignReport",
    "compare",
    "ComparisonTable",
    "default_campaign",
    "load_config_file",
    "recompute_metrics",
]

CONTROLLERS = ("cpc", "mbc_ipc", "ftipc", "uftipc")

# metrics.json entries a group's runs share with its baseline run, and their plurals.
GROUP_LABELS = {"seed": "seeds", "windows": "windows", "fault_kind": "fault kinds",
                "faulty_blade": "faulty blades"}

# Under a campaign's output directory: runs being saved, each renamed into
# place once whole. `compare`'s `*/metrics.json` never reaches into it.
PARTIAL = ".partial"

SERIES_COLUMNS = ("u1", "u2", "u3", "y1", "y2", "y3")

# Longest run, in samples: 10x the shipped 2000 s run. A run allocates its
# (n, 3) command and output histories up front.
MAX_RUN_SAMPLES = 2_000_000


class ConfigError(ValueError):
    """Invalid load-case or campaign configuration."""


class _FrozenDict(dict):
    """A built config's `plant` or `tuning`: a dict that refuses writes and
    pickles as its items."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a built LoadCaseConfig cannot change; use dataclasses.replace")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _FrozenDict, (dict(self),)


@dataclass(frozen=True)
class LoadCaseConfig:
    """Everything one run depends on, immutable once validated: runs are a pure function of it."""

    id: str
    controller: str
    seed: int
    group: str = ""
    duration_s: float = 2000.0
    fault_onset_s: float = 1000.0
    fault_kind: str = "healthy"
    fault_blade: int = 3
    fault_parameter: float = 0.0
    amp_1p: float = 500.0
    amp_2p: float = 150.0
    phase_1p: float = 0.0
    phase_2p: float = 0.0
    sigma_e: float = 0.0
    period_jitter: float = 0.0
    predictor_window: int = 21
    plant: dict = field(default_factory=dict)
    tuning: dict = field(default_factory=dict)
    uftipc_amplitude_deg: float = 0.25

    def __post_init__(self):
        if isinstance(self.group, str) and not self.group:
            object.__setattr__(self, "group", self.id)
        # Any failure to validate is a bad config, whatever raised it (a
        # non-finite duration overflows, a zero period divides by zero).
        try:
            for name in ("plant", "tuning"):  # copies, so the caller's dict cannot change it
                given = getattr(self, name)
                if not isinstance(given, dict):
                    raise ConfigError(f"{name} must be a dict, got {given!r}")
                object.__setattr__(self, name, _FrozenDict(
                    (key, tuple(v) if isinstance(v, list) else v) for key, v in given.items()))
            self._validate()
        except ConfigError:
            raise
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def _validate(self) -> None:
        # The id names the run's directory under the campaign's output.
        if (not isinstance(self.id, str) or self.id in ("", ".", "..", PARTIAL)
                or any(c in self.id for c in "/\\\0")):
            raise ConfigError(f"load case id must be a non-empty string that names one "
                              f"directory, got {self.id!r}")
        if self.controller not in CONTROLLERS:
            raise ConfigError(
                f"unknown controller {self.controller!r}; choose from {CONTROLLERS}"
            )
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        for name in ("duration_s", "fault_onset_s", "fault_parameter", "uftipc_amplitude_deg"):
            _real(name, getattr(self, name))
        if not 0.0 < self.fault_onset_s < self.duration_s:
            raise ConfigError("the fault onset must lie strictly inside the run")
        if not isinstance(self.group, str):
            raise ConfigError(f"group must be a string, got {self.group!r}")
        # Validate the nested sub-configurations eagerly so campaign setup fails fast.
        plant, fault, _, _ = self.build(0)
        # Make the onset's stiffness switch, whose channel a tiny scale leaves singular.
        list(fault.regimes(plant, fault.onset_sample, 1))
        if self.uftipc_amplitude_deg < 0.0:
            raise ConfigError(f"uftipc_amplitude_deg must be >= 0, "
                              f"got {self.uftipc_amplitude_deg!r}")
        n = round(self.duration_s / plant.dt)
        if n > MAX_RUN_SAMPLES:
            raise ConfigError(f"duration_s={self.duration_s!r} is {n} samples; runs are "
                              f"limited to {MAX_RUN_SAMPLES} samples")
        if abs(n * plant.dt - self.duration_s) > 1e-9 or n % plant.period_samples != 0:
            raise ConfigError("duration must be a whole number of rotor periods")
        p = self.predictor_window
        if not _is_int(p) or not 1 <= p < plant.period_samples:
            raise ConfigError(
                f"predictor_window must be an integer with 1 <= p < "
                f"{plant.period_samples} (samples per rotor period), got {p!r}"
            )
        # Both metric windows need a Welch segment: at least 4 samples,
        # rounded as `compute_metrics` rounds them.
        for which, (t0, t1) in metric_windows(self.duration_s, self.fault_onset_s).items():
            if round(t1 / plant.dt) - round(t0 / plant.dt) < 4:
                raise ConfigError(f"the {which} metric window [{t0:g}, {t1:g}] s is shorter "
                                  f"than 4 samples; lengthen the run or move the fault onset")
        # A config that runs must also save: no numpy scalar, nothing non-finite.
        json.dumps(self.to_dict(), allow_nan=False)

    def build(self, seed) -> tuple:
        """(plant, fault, disturbance, tuning) of one run, the disturbance
        drawing from `seed`."""
        plant = build_plant(**self.plant)
        period, dt = plant.period_samples, plant.dt
        fault = FaultScenario(kind=self.fault_kind, blade_index=self.fault_blade,
                              onset_sample=int(round(self.fault_onset_s / dt)),
                              parameter=self.fault_parameter)
        dist = DisturbanceModel(period=period, amp_1p=self.amp_1p, amp_2p=self.amp_2p,
                                phase_1p=self.phase_1p, phase_2p=self.phase_2p,
                                sigma_e=self.sigma_e, seed=seed,
                                period_jitter=self.period_jitter,
                                rotations=int(round(self.duration_s / dt)) // period)
        return plant, fault, dist, ControllerTuning(**self.tuning)

    def to_dict(self) -> dict:
        return {**asdict(self), "plant": dict(self.plant), "tuning": dict(self.tuning)}

    @staticmethod
    def from_dict(data: dict) -> "LoadCaseConfig":
        try:
            return LoadCaseConfig(**data)
        except TypeError as exc:
            raise ConfigError(f"bad load case fields: {exc}") from exc


def load_config_file(path) -> list[LoadCaseConfig]:
    """Read a campaign (or single case) JSON file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    cases = data["cases"] if isinstance(data, dict) and "cases" in data else [data]
    if not (isinstance(cases, list) and cases):
        raise ConfigError(f"config {path}: 'cases' must be a non-empty list of load cases")
    configs = [LoadCaseConfig.from_dict(c) for c in cases]
    ids = [c.id for c in configs]
    if len(set(ids)) != len(ids):
        raise ConfigError("load case ids must be unique within a campaign")
    return configs


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    config: LoadCaseConfig
    u_cmd: np.ndarray
    y: np.ndarray
    rotation_log: list  # rows of control.LOG_COLUMNS; empty for cpc and mbc_ipc
    metrics: dict
    wall_time_s: float = 0.0

    @property
    def t(self) -> np.ndarray:
        """(n,) sample times k * dt, rebuilt from the config."""
        return np.arange(len(self.y)) * build_plant(**self.config.plant).dt

    @property
    def psi(self) -> np.ndarray:
        """(n,) rotor azimuth, `azimuth(P)` once per rotation, rebuilt from the config."""
        period = build_plant(**self.config.plant).period_samples
        return np.tile(azimuth(period), len(self.y) // period)

    def save(self, out_dir) -> None:
        d = Path(out_dir) / self.config.id
        d.mkdir(parents=True, exist_ok=True)
        # One (n, 6) float64 array, columns in SERIES_COLUMNS order.
        np.save(d / "series.npy", np.hstack([self.u_cmd, self.y]), allow_pickle=False)
        with open(d / "controller_log.csv", "w") as fh:
            writer = csv.writer(fh)
            writer.writerow(LOG_COLUMNS)
            writer.writerows(self.rotation_log)
        with open(d / "metrics.json", "w") as fh:
            json.dump(self.metrics, fh, indent=1, sort_keys=True, allow_nan=False)
        with open(d / "config.json", "w") as fh:
            json.dump(self.config.to_dict(), fh, indent=1, sort_keys=True)


def _advance_rotation(plant, fault, dist, u_cmd_rows, k0):
    """Advance one command block through fault map and plant.

    One `advance_block` call per fault regime of the block: a fault onset
    inside it splits it in two, so the switch lands on its exact sample.
    """
    n = u_cmd_rows.shape[0]
    if not np.all(np.isfinite(u_cmd_rows)):
        raise ValueError("u_cmd contains non-finite entries")
    d, e = dist.periodic_block(k0, n), dist.innovation_block(k0, n)
    y = np.empty((n, 3))
    for lo, hi, (offset, scale) in fault.regimes(plant, k0, n):
        y[lo:hi] = plant.advance_block(u_cmd_rows[lo:hi] * scale + offset, d[lo:hi], e[lo:hi])
    return y


def run_load_case(cfg: LoadCaseConfig) -> RunResult:
    """Execute one load case: plant loop, identification, control, metrics.

    Deterministic per config: the disturbance, excitation, and broadband
    noise streams are independent children of the config seed. Raises
    RuntimeError when the plant diverges or a metric is not finite (a
    `band_ratio_u` of None, a constant command, is not a failure).
    """
    start = time.perf_counter()
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    plant, fault, dist, tuning = cfg.build(seeds[0])
    period, dt = plant.period_samples, plant.dt
    n_rot = dist.rotations
    n = n_rot * period

    u_cmd = np.empty((n, 3))
    y = np.empty((n, 3))

    controller = None
    if cfg.controller in ("ftipc", "uftipc"):
        broadband = (ExcitationGenerator.broadband(cfg.uftipc_amplitude_deg, seeds[2], dt,
                                                   period, n_rot)
                     if cfg.controller == "uftipc" else None)
        controller = RepetitiveController(cfg.predictor_window, period, tuning, seeds[1], n_rot,
                                          broadband=broadband)

    cpc_rows = np.zeros((period, 3))  # cpc: zero differential pitch, every rotation
    try:
        if cfg.controller == "mbc_ipc":
            mbc_ipc_span(MbcIpcState(authority_deg=tuning.theta_cap_deg), plant, fault, dist,
                         0, n, u_cmd, y)
        else:
            for j in range(n_rot):
                k0 = j * period
                rows = cpc_rows if controller is None else controller.rotation_commands(j)
                u_cmd[k0:k0 + period] = rows
                y[k0:k0 + period] = _advance_rotation(plant, fault, dist, rows, k0)
                if controller is not None:
                    controller.finish_rotation(j, u_cmd, y)
    except FloatingPointError as exc:
        raise RuntimeError(f"run {cfg.id} diverged: {exc}") from exc

    metrics = compute_metrics(cfg, u_cmd, y, dt, period)
    bad = _nonfinite_metrics(metrics)
    if bad:
        raise RuntimeError(f"run {cfg.id} produced non-finite metrics: {', '.join(bad)}")
    if controller is not None:
        metrics["dare_failures"] = controller.dare_failures
        metrics["clamp_events"] = controller.clamp_events
    return RunResult(
        config=cfg, u_cmd=u_cmd, y=y,
        rotation_log=[] if controller is None else controller.log, metrics=metrics,
        wall_time_s=time.perf_counter() - start,
    )


def _nonfinite_metrics(metrics: dict) -> list:
    """Keys, as "faulty.blade1.sd_y", of the window metrics that are NaN or
    infinite (a `band_ratio_u` of None, a constant command, is not)."""
    return [f"{which}.{blade}.{name}" for which in ("healthy", "faulty")
            for blade, values in metrics[which].items() for name, v in values.items()
            if v is not None and not math.isfinite(v)]


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def compute_metrics(cfg: LoadCaseConfig, u_cmd: np.ndarray, y: np.ndarray, dt: float,
                    period: int) -> dict:
    """Windowed summary over `metric_windows`: per-blade load SD (population
    SD, window mean removed), ADC, and the pitch's band-energy ratio in
    +-10 % bands around 1P and 2P, 1P being 1 / (period * dt).

    Pure function of the series and the config scalars; the series is
    persisted as binary float64, so this is reproducible bit-for-bit. A
    series that overflows gives NaN or infinite metrics without a numpy
    warning; each caller reports them in its own terms.
    """
    windows = metric_windows(cfg.duration_s, cfg.fault_onset_s)
    fs = 1.0 / dt
    one_p = 1.0 / (period * dt)
    bands = [[0.9 * one_p, 1.1 * one_p], [1.8 * one_p, 2.2 * one_p]]
    out = {
        "id": cfg.id,
        "group": cfg.group,
        "controller": cfg.controller,
        "seed": cfg.seed,
        "faulty_blade": None if cfg.fault_kind == "healthy" else cfg.fault_blade,
        "fault_kind": cfg.fault_kind,
        "windows": {which: list(bounds) for which, bounds in windows.items()},
    }
    for which, (t0, t1) in windows.items():
        i0, i1 = int(round(t0 / dt)), int(round(t1 / dt))
        blades = {}
        seg_len = min(2048, 2 * ((i1 - i0) // 2))
        for b in range(3):
            seg_u, seg_y = u_cmd[i0:i1, b], y[i0:i1, b]
            psd = (welch_psd(seg_u, fs, segment_length=seg_len)
                   if np.any(seg_u != seg_u[0]) else None)
            blades[f"blade{b + 1}"] = {
                "sd_y": float(np.sqrt(np.mean((seg_y - seg_y.mean()) ** 2))),
                "adc": adc(seg_u, dt, DEFAULT_RATE_LIMIT_DEG_S),
                "band_ratio_u": None if psd is None else band_energy_ratio(psd, bands),
            }
        out[which] = blades
    return out


def recompute_metrics(run_dir) -> dict:
    """Round-trip check helper: metrics from the persisted `series.npy` +
    config.

    The file comes from outside the program, so it is loaded without
    pickle support and must be a 2-D float64 array of `duration_s / dt`
    rows and one column per `SERIES_COLUMNS` entry, and its metrics must be
    finite (ValueError otherwise, naming the file). A run directory without
    `series.npy` raises FileNotFoundError.
    """
    d = Path(run_dir)
    cfg = LoadCaseConfig.from_dict(json.loads((d / "config.json").read_text()))
    plant = build_plant(**cfg.plant)
    data = np.load(d / "series.npy", allow_pickle=False)
    shape = (int(round(cfg.duration_s / plant.dt)), len(SERIES_COLUMNS))
    if data.dtype != np.float64 or data.shape != shape:
        raise ValueError(
            f"{d / 'series.npy'} holds a {data.dtype} array of shape {data.shape}; "
            f"expected float64 of shape {shape}"
        )
    metrics = compute_metrics(cfg, data[:, :3], data[:, 3:], plant.dt, plant.period_samples)
    bad = _nonfinite_metrics(metrics)
    if bad:
        raise ValueError(f"{d / 'series.npy'} gives non-finite metrics: {', '.join(bad)}")
    saved = json.loads((d / "metrics.json").read_text())
    for key in ("dare_failures", "clamp_events"):
        if key in saved:
            metrics[key] = saved[key]
    return metrics


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

@dataclass
class RunStatus:
    id: str
    ok: bool
    error: str = ""
    metrics: dict | None = None
    wall_time_s: float = 0.0


@dataclass
class CampaignReport:
    statuses: list

    @property
    def failed(self) -> list:
        return [s for s in self.statuses if not s.ok]

    def metrics_by_id(self) -> dict:
        return {s.id: s.metrics for s in self.statuses if s.ok}


def _run_one(cfg: LoadCaseConfig, out_dir: str | None) -> RunStatus:
    """Run `cfg` as validated when built. Given `out_dir`, the run's directory
    and any leftover `<out_dir>/.partial/<id>` are removed first; the run is
    saved into the latter and renamed into place once every file is written.
    So `<out_dir>/<id>` holds a whole run that succeeded, or does not exist,
    even when the save is interrupted."""
    dirs = () if out_dir is None else (Path(out_dir) / cfg.id, Path(out_dir) / PARTIAL / cfg.id)
    try:
        for d in dirs:
            with suppress(FileNotFoundError):
                shutil.rmtree(d)
        result = run_load_case(cfg)
        if dirs:
            run_dir, partial = dirs
            result.save(partial.parent)
            os.replace(partial, run_dir)  # one filesystem: atomic on POSIX
        return RunStatus(id=cfg.id, ok=True, metrics=result.metrics,
                         wall_time_s=result.wall_time_s)
    except Exception as exc:  # failure isolation: siblings keep running
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
        return RunStatus(id=cfg.id, ok=False, error=f"{type(exc).__name__}: {exc}")


def run_campaign(configs, parallelism: int = 1, out_dir=None) -> CampaignReport:
    """Run every load case (independently; failures are isolated) on at most
    `parallelism` worker processes and no more than one per case (the pool
    forks all of its workers at the first submit), each config as built. A
    worker that dies breaks the pool and every run in flight with it, so the
    runs at fault cannot be named: each broken run is rerun alone in a fresh
    one-worker pool, and a run that kills that pool too is reported failed."""
    if not _is_int(parallelism) or parallelism < 1:
        raise ConfigError(f"parallelism (--jobs) must be an integer >= 1, got {parallelism!r}")
    configs = list(configs)
    ids = [c.id for c in configs]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate load case ids in campaign")
    out = str(out_dir) if out_dir is not None else None
    workers = min(parallelism, len(configs))
    if workers <= 1:
        statuses = [_run_one(c, out) for c in configs]
    else:
        # Imported here: multiprocessing costs every other command its import time.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_one, c, out) for c in configs]
            statuses = [None if isinstance(f.exception(), BrokenProcessPool) else f.result()
                        for f in futures]
        for i, cfg in enumerate(configs):
            if statuses[i] is None:
                with ProcessPoolExecutor(max_workers=1) as pool:
                    try:
                        statuses[i] = pool.submit(_run_one, cfg, out).result()
                    except BrokenProcessPool as exc:
                        statuses[i] = RunStatus(id=cfg.id, ok=False,
                                                error=f"worker process died: {exc}")
    if out is not None:
        with suppress(OSError):  # kept while it holds an interrupted run of another id
            os.rmdir(Path(out) / PARTIAL)
    return CampaignReport(statuses=statuses)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

@dataclass
class ComparisonRow:
    group: str
    controller: str
    faulty_blade: int | None
    rsd_faulty_window: dict
    adc_faulty_window: dict
    negative_blades: list


@dataclass
class ComparisonTable:
    baseline: str
    rows: list

    def to_text(self) -> str:
        lines = [f"rSD (faulty window) and ADC vs baseline '{self.baseline}'"]
        for row in sorted(self.rows, key=lambda r: (r.group, r.controller)):
            shown = {b: v for b, v in row.rsd_faulty_window.items()
                     if row.faulty_blade is None or b != f"blade{row.faulty_blade}"}
            cells = "  ".join(f"{b} rSD={v * 100:6.2f}% adc={row.adc_faulty_window[b] * 100:5.2f}%"
                              for b, v in sorted(shown.items()))
            note = ""
            if row.faulty_blade is not None:
                note = f"  [blade {row.faulty_blade} not shown: faulty blade]"
            negative = [b for b in row.negative_blades if b in shown]
            if negative:
                note += f"  [load increased on: {', '.join(negative)}]"
            lines.append(f"{row.group:8s} {row.controller:8s} {cells}{note}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {"baseline": self.baseline,
             "rows": [asdict(r) for r in self.rows]},
            indent=1, sort_keys=True)


def compare(metrics_by_id: dict, baseline: str = "cpc") -> ComparisonTable:
    """Per-group, per-blade rSD (faulty window) and ADC against the baseline.

    Requires every group to contain a run of the baseline controller, and
    each of its runs to share the baseline run's `GROUP_LABELS` entries
    (seed, metric windows and fault, as the campaign builder makes them); an
    entry that either run lacks, saved before metrics carried it, is not
    checked. Negative rSD entries (load increased) are flagged; a group with
    two runs of one controller or that mixes a label, a baseline blade with
    zero load SD, or an rSD that overflows, raises ValueError.
    """
    groups: dict[str, dict[str, dict]] = {}
    for m in metrics_by_id.values():
        by_ctl = groups.setdefault(m["group"], {})
        if m["controller"] in by_ctl:
            raise ValueError(f"group {m['group']} holds two {m['controller']} runs: "
                             f"{by_ctl[m['controller']]['id']} and {m['id']}")
        by_ctl[m["controller"]] = m
    rows = []
    for group, by_ctl in sorted(groups.items()):
        if baseline not in by_ctl:
            raise ValueError(f"group {group} is missing the baseline controller {baseline!r}")
        base = by_ctl[baseline]
        for ctl, m in sorted(by_ctl.items()):
            for label, plural in GROUP_LABELS.items():
                pair = base.get(label), m.get(label)
                if None not in pair and pair[0] != pair[1]:
                    raise ValueError(f"group {group} mixes {plural}: {base['id']} has {label} "
                                     f"{pair[0]}, {m['id']} has {label} {pair[1]}")
            rsd_vals, adc_vals, neg = {}, {}, []
            for b in ("blade1", "blade2", "blade3"):
                if base["faulty"][b]["sd_y"] <= 0.0:
                    raise ValueError(f"group {group}: the {baseline} run {base['id']} has no "
                                     f"positive load SD on {b}, so no rSD is defined against it")
                val = rsd(base["faulty"][b]["sd_y"], m["faulty"][b]["sd_y"])
                if not math.isfinite(val):
                    raise ValueError(f"group {group}: the {ctl} rSD of {b} is not finite "
                                     f"({val}); its load SD is out of scale with {baseline}'s")
                rsd_vals[b] = val
                adc_vals[b] = m["faulty"][b]["adc"]
                if val < 0.0:
                    neg.append(b)
            rows.append(ComparisonRow(
                group=group, controller=ctl, faulty_blade=m["faulty_blade"],
                rsd_faulty_window=rsd_vals, adc_faulty_window=adc_vals,
                negative_blades=neg,
            ))
    return ComparisonTable(baseline=baseline, rows=rows)


# ---------------------------------------------------------------------------
# Shipped campaign
# ---------------------------------------------------------------------------

TI_ANALOGS = {"ti00": 0.0, "ti375": 0.0375, "tiiec": 0.15}
DISTURBANCE_LEVELS = {"lvlA": (500.0, 150.0), "lvlB": (700.0, 210.0)}
FAULTS = {
    "pad": ("pad", 0.5),
    "pas": ("pas", 0.0),
    "bld": ("blade_stiffness", 0.2),
}


def default_campaign(base_seed: int = 2024, controllers=("cpc", "mbc_ipc", "ftipc"),
                     duration_s: float = 2000.0) -> list[LoadCaseConfig]:
    """{2 disturbance levels} x {3 TI analogs} x {3 fault kinds} x controllers.

    Load cases within a group share the seed, so every controller sees the
    same disturbance realization.
    """
    configs = []
    lc_index = 0
    for lvl_name, (a1, a2) in DISTURBANCE_LEVELS.items():
        for fault_name, (kind, param) in FAULTS.items():
            for ti_name, ti in TI_ANALOGS.items():
                lc_index += 1
                group = f"LC{lc_index:02d}-{lvl_name}-{fault_name}-{ti_name}"
                for ctl in controllers:
                    configs.append(LoadCaseConfig(
                        id=f"{group}-{ctl}",
                        group=group,
                        controller=ctl,
                        seed=base_seed + lc_index,
                        duration_s=duration_s,
                        fault_onset_s=duration_s / 2.0,
                        fault_kind=kind,
                        fault_blade=3,
                        fault_parameter=param,
                        amp_1p=a1,
                        amp_2p=a2,
                        sigma_e=ti * a1,
                    ))
    return configs
