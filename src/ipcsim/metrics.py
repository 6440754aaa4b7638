"""Run evaluation: steady-window selection, relative SD reduction, actuator
duty cycle and PSD band energies."""

from __future__ import annotations

import numpy as np

from .numerics import PsdEstimate

__all__ = [
    "metric_windows",
    "rsd",
    "adc",
    "band_energy_ratio",
]

DEFAULT_RATE_LIMIT_DEG_S = 10.0


def metric_windows(duration_s: float, fault_onset_s: float) -> dict:
    """Steady analysis windows in seconds: the last fifth of the pre-fault
    and post-fault regimes, as {"healthy": (t0, t1), "faulty": (t0, t1)}."""
    return {
        "healthy": (fault_onset_s * 0.8, fault_onset_s),
        "faulty": (duration_s - (duration_s - fault_onset_s) * 0.2, duration_s),
    }


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

