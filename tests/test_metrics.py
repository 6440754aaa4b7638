"""Metric definitions: rSD arithmetic, duty cycle, band energies, the
steady metric windows and the load SD over them."""

import numpy as np
import pytest

from ipcsim.harness import LoadCaseConfig, compute_metrics
from ipcsim.metrics import adc, band_energy_ratio, metric_windows, rsd
from ipcsim.numerics import welch_psd


# ---------------------------------------------------------------------------
# rsd
# ---------------------------------------------------------------------------

def test_rsd_basic_arithmetic():
    assert rsd(2.0, 1.0) == pytest.approx(0.5)
    assert rsd(3.7, 3.7) == 0.0


def test_rsd_negative_means_load_increase():
    assert rsd(1.0, 1.5) < 0.0
    assert (rsd(2.0, 1.0) > 0.0) == (1.0 < 2.0)


def test_rsd_rejects_zero_baseline():
    with pytest.raises(ValueError):
        rsd(0.0, 1.0)


# ---------------------------------------------------------------------------
# adc
# ---------------------------------------------------------------------------

def test_adc_constant_pitch_is_zero():
    assert adc(np.full(1000, 3.3), dt=0.01) == 0.0


def test_adc_triangle_at_rate_limit_is_one():
    dt, rate = 0.01, 10.0
    tri = np.concatenate([np.arange(0, 50), np.arange(50, 0, -1)]) * rate * dt
    series = np.tile(tri, 20)  # every first difference is exactly +-rate*dt
    assert adc(series, dt, rate_limit=rate) == pytest.approx(1.0, rel=1e-12)


def test_adc_offset_invariance_and_rate_scaling():
    rng = np.random.default_rng(0)
    series = np.cumsum(rng.normal(size=500)) * 0.01
    a = adc(series, 0.01, rate_limit=10.0)
    assert adc(series + 42.0, 0.01, rate_limit=10.0) == pytest.approx(a, rel=1e-12)
    assert adc(series, 0.01, rate_limit=20.0) == pytest.approx(a / 2.0, rel=1e-12)


def test_adc_rejects_bad_rate_limit():
    with pytest.raises(ValueError):
        adc(np.zeros(10), 0.01, rate_limit=0.0)


# ---------------------------------------------------------------------------
# band_energy_ratio
# ---------------------------------------------------------------------------

def test_band_ratio_pure_tone():
    fs = 100.0
    t = np.arange(0, 300, 1 / fs)
    psd = welch_psd(np.sin(2 * np.pi * 1.0 * t), fs, segment_length=2000)
    assert band_energy_ratio(psd, [[0.9, 1.1]]) >= 0.99


def test_band_ratio_white_noise_matches_band_fraction():
    fs = 100.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        psd = welch_psd(rng.normal(size=60000), fs, segment_length=1024)
        ratio = band_energy_ratio(psd, [[10.0, 15.0]])  # 10% of [0, 50]
        assert abs(ratio - 0.10) <= 0.05


def test_band_ratio_bounds_and_validation():
    fs = 100.0
    rng = np.random.default_rng(1)
    psd = welch_psd(rng.normal(size=8192), fs)
    assert 0.0 <= band_energy_ratio(psd, [[0.0, 50.0]]) <= 1.0
    with pytest.raises(ValueError):
        band_energy_ratio(psd, [])
    with pytest.raises(ValueError):
        band_energy_ratio(psd, [[40.0, 60.0]])


# ---------------------------------------------------------------------------
# metric windows and the windowed load SD
# ---------------------------------------------------------------------------

def windowed_metrics(y: np.ndarray) -> dict:
    """compute_metrics on a 2000 s run with the fault at 1000 s: outputs y
    on every blade, a constant zero command."""
    cfg = LoadCaseConfig(id="synthetic", controller="cpc", seed=0)
    series = np.column_stack([y] * 3)
    return compute_metrics(cfg, np.zeros_like(series), series, 0.01)


def test_windowed_sd_constant_series():
    m = windowed_metrics(np.full(200000, 5.0))
    for which in ("healthy", "faulty"):
        assert all(m[which][b]["sd_y"] == 0.0 for b in ("blade1", "blade2", "blade3"))


def test_windowed_sd_sinusoid_integer_periods():
    t = np.arange(200000) * 0.01
    m = windowed_metrics(np.sin(2 * np.pi * 1.0 * t))  # 200 whole periods per window
    for which in ("healthy", "faulty"):
        assert m[which]["blade1"]["sd_y"] == pytest.approx(1 / np.sqrt(2), abs=1e-6)


def test_window_for_run_is_last_fifth_of_each_regime():
    assert metric_windows(2000.0, 1000.0) == {"healthy": (800.0, 1000.0),
                                              "faulty": (1800.0, 2000.0)}
    assert windowed_metrics(np.zeros(200000))["windows"] == {"healthy": [800.0, 1000.0],
                                                             "faulty": [1800.0, 2000.0]}
