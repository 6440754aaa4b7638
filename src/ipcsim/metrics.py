"""Run evaluation: standard deviations, relative SD reduction, actuator
duty cycle, PSD band energies, and steady-window selection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import PsdEstimate

__all__ = [
    "WindowSpec",
    "rsd",
    "adc",
    "band_energy_ratio",
    "windowed_sd",
]

DEFAULT_RATE_LIMIT_DEG_S = 10.0


@dataclass(frozen=True)
class WindowSpec:
    """Steady analysis windows: the last stretch of each regime, in seconds."""

    healthy_start: float
    healthy_end: float
    faulty_start: float
    faulty_end: float

    def __post_init__(self):
        if not (self.healthy_start < self.healthy_end <= self.faulty_start < self.faulty_end):
            raise ValueError("windows must be ordered and non-overlapping")

    @staticmethod
    def for_run(duration_s: float, fault_onset_s: float, fraction: float = 0.2) -> "WindowSpec":
        """Last `fraction` of the pre-fault and post-fault regimes."""
        return WindowSpec(
            healthy_start=fault_onset_s * (1.0 - fraction),
            healthy_end=fault_onset_s,
            faulty_start=duration_s - (duration_s - fault_onset_s) * fraction,
            faulty_end=duration_s,
        )

    def bounds(self, which: str) -> tuple[float, float]:
        if which == "healthy":
            return self.healthy_start, self.healthy_end
        if which == "faulty":
            return self.faulty_start, self.faulty_end
        raise ValueError("which must be 'healthy' or 'faulty'")


def rsd(sd_baseline: float, sd_ipc: float) -> float:
    """Relative SD reduction vs the baseline; negative means the load grew."""
    if sd_baseline <= 0.0:
        raise ValueError("baseline SD must be positive")
    return (sd_baseline - sd_ipc) / sd_baseline


def adc(pitch: np.ndarray, dt: float, rate_limit: float = DEFAULT_RATE_LIMIT_DEG_S) -> float:
    """Actuator duty cycle: time-average |pitch rate| over the rate limit.

    First-difference rate estimate; invariant to constant offsets and
    linear in 1/rate_limit.
    """
    if rate_limit <= 0.0:
        raise ValueError("rate_limit must be positive")
    pitch = np.asarray(pitch, dtype=float).reshape(-1)
    if pitch.size < 2:
        return 0.0
    rates = np.abs(np.diff(pitch)) / dt
    return float(np.mean(rates) / rate_limit)


def band_energy_ratio(psd: PsdEstimate, bands) -> float:
    """Fraction of total PSD energy inside the union of [f_lo, f_hi] bands."""
    bands = [tuple(b) for b in bands]
    if not bands:
        raise ValueError("at least one band is required")
    f, p = psd.frequencies, psd.power
    total = np.trapezoid(p, f)
    if total <= 0.0:
        return 0.0
    mask = np.zeros_like(f, dtype=bool)
    for lo, hi in bands:
        if lo < 0.0 or hi > f[-1] + 1e-12 or hi <= lo:
            raise ValueError(f"band ({lo}, {hi}) outside [0, {f[-1]}] or empty")
        mask |= (f >= lo) & (f <= hi)
    inside = np.trapezoid(np.where(mask, p, 0.0), f)
    return float(min(max(inside / total, 0.0), 1.0))


def windowed_sd(series: np.ndarray, window: WindowSpec, which: str, dt: float) -> float:
    """Population SD over the selected steady window, window mean removed."""
    series = np.asarray(series, dtype=float).reshape(-1)
    t0, t1 = window.bounds(which)
    i0, i1 = int(round(t0 / dt)), int(round(t1 / dt))
    if i0 < 0 or i1 > series.size or i0 >= i1:
        raise ValueError(
            f"window [{t0}, {t1}] s maps to samples [{i0}, {i1}) outside the series "
            f"of length {series.size}"
        )
    seg = series[i0:i1]
    return float(np.sqrt(np.mean((seg - seg.mean()) ** 2)))

