"""Baseline controllers: Coleman identities, PI behaviour, and the
closed-loop direction checks on the surrogate."""

import numpy as np
import pytest

from ipcsim.baselines import (
    MbcIpcState,
    cpc_baseline,
    coleman_forward,
    coleman_inverse,
    mbc_ipc_step,
)
from ipcsim.metrics import per_rotation_band_power
from ipcsim.control import build_basis
from ipcsim.plant import DisturbanceModel, FaultScenario, default_plant
from reference import step

P = 100


def test_cpc_is_zero_differential():
    for k in (0, 10, 99999):
        assert np.array_equal(cpc_baseline(k), np.zeros(3))


def test_coleman_rejects_collective():
    for psi in (0.0, 0.3, 2.0):
        tilt, yaw = coleman_forward(np.array([5.0, 5.0, 5.0]), psi)
        assert abs(tilt) < 1e-12 and abs(yaw) < 1e-12


def test_coleman_cosine_pattern_maps_to_unit_tilt():
    for psi in (0.0, 0.7, 4.1):
        angles = psi + 2 * np.pi * np.arange(3) / 3
        tilt, yaw = coleman_forward(np.cos(angles), psi)
        assert tilt == pytest.approx(1.0, abs=1e-12)
        assert yaw == pytest.approx(0.0, abs=1e-12)


def test_coleman_round_trip_on_1p_subspace():
    rng = np.random.default_rng(0)
    for _ in range(20):
        psi = rng.uniform(0, 2 * np.pi)
        a, b = rng.normal(size=2)
        angles = psi + 2 * np.pi * np.arange(3) / 3
        y = a * np.cos(angles) + b * np.sin(angles)
        recovered = coleman_inverse(*coleman_forward(y, psi), psi)
        assert np.allclose(recovered, y, atol=1e-10)


def test_mbc_zero_loads_zero_action():
    state = MbcIpcState()
    state, u = mbc_ipc_step(state, np.zeros(3), 0.3, 0.01)
    assert np.all(u == 0.0)
    assert state.tilt_int == 0.0 and state.yaw_int == 0.0


def test_mbc_collective_invariance():
    s1, s2 = MbcIpcState(), MbcIpcState()
    rng = np.random.default_rng(1)
    for k in range(300):
        psi = 2 * np.pi * k / P
        y = rng.normal(size=3) * 100
        s1, u1 = mbc_ipc_step(s1, y, psi, 0.01)
        s2, u2 = mbc_ipc_step(s2, y + 777.0, psi, 0.01)
        assert np.allclose(u1, u2, atol=1e-9)


def test_mbc_integrator_anti_windup():
    state = MbcIpcState(authority_deg=2.0)
    for k in range(200000):
        psi = 2 * np.pi * k / P
        angles = psi + 2 * np.pi * np.arange(3) / 3
        state, u = mbc_ipc_step(state, 1e6 * np.cos(angles), psi, 0.01)
    assert abs(state.tilt_int) <= 2.0
    assert np.all(np.abs(u) <= 2.0)


def closed_loop_run(controller, fault, n_rot, sigma_e=0.0, seed=0):
    plant = default_plant()
    dist = DisturbanceModel(sigma_e=sigma_e, seed=seed)
    n = n_rot * P
    ys = np.empty((n, 3))
    us = np.empty((n, 3))
    y_prev = np.zeros(3)
    state = MbcIpcState() if controller == "mbc" else None
    for k in range(n):
        psi = 2 * np.pi * k / P
        if controller == "mbc":
            state, u = mbc_ipc_step(state, y_prev, psi, plant.dt)
        else:
            u = cpc_baseline(k)
        us[k] = u
        ys[k] = step(plant, u, dist, fault, k)
        y_prev = ys[k]
    return us, ys


def band_power_tail(ys, rotations=10):
    u_f = build_basis(P).u_f
    power = per_rotation_band_power(ys, P, u_f)
    return power[-rotations:].mean(axis=0)


def test_mbc_reduces_1p_band_power_on_healthy_case():
    healthy = FaultScenario()
    _, ys_cpc = closed_loop_run("cpc", healthy, 40)
    _, ys_mbc = closed_loop_run("mbc", healthy, 40)
    cpc_power = band_power_tail(ys_cpc)
    mbc_power = band_power_tail(ys_mbc)
    # Deep 1P cancellation, 2P untouched: band power lands near the 2P
    # share of the total (roughly 8% with the default disturbance mix).
    assert np.all(mbc_power < 0.25 * cpc_power)
    assert np.all(mbc_power > 0.02 * cpc_power)


def test_mbc_pas_fault_degrades_a_healthy_blade():
    fault = FaultScenario(kind="pas", blade_index=3, onset_sample=40 * P, parameter=0.0)
    _, ys = closed_loop_run("mbc", fault, 120)
    u_f = build_basis(P).u_f
    power = per_rotation_band_power(ys, P, u_f)
    pre = power[30:40].mean(axis=0)    # controlled, pre-fault
    post = power[-10:].mean(axis=0)    # long after the fault
    # At least one healthy blade is worse than its own controlled pre-fault
    # level: the stuck blade contaminates the Coleman average.
    assert max(post[0] / pre[0], post[1] / pre[1]) > 1.5
