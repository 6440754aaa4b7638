"""Identification stage: periodic differences, regressor windows,
per-blade RLS convergence against the plant oracle, and the batched
engine's equivalence to the per-sample recursion (tests/reference.py)."""

import numpy as np
import pytest

from ipcsim.plant import (
    DisturbanceModel,
    FaultScenario,
    build_plant,
)
from ipcsim.numerics import RlsState, rls_update_batch
from ipcsim.sysid import IdentificationEngine
from reference import (
    PeriodicBuffer,
    identify_step,
    markov_blocks,
    markov_oracle_siso,
    relative_errors,
    step,
)

P, WINDOW = 100, 21
HEALTHY = FaultScenario()


# ---------------------------------------------------------------------------
# PeriodicBuffer
# ---------------------------------------------------------------------------

def fill_buffer(buf, u_seq, y_seq):
    for u, y in zip(u_seq, y_seq):
        buf.push(u, y)


def test_delta_of_periodic_signal_is_zero():
    buf = PeriodicBuffer(P, WINDOW)
    rng = np.random.default_rng(0)
    u_rot = rng.normal(size=(P, 3))
    y_rot = rng.normal(size=(P, 3))
    for k in range(4 * P):
        buf.push(u_rot[k % P], y_rot[k % P])
        if k >= P:
            for ch in ("u1", "u2", "u3", "y1", "y2", "y3"):
                assert buf.delta(ch, k) == 0.0


def test_delta_of_constant_is_zero_and_ramp_is_period():
    buf = PeriodicBuffer(P, WINDOW)
    for k in range(3 * P):
        buf.push(np.full(3, 7.0), np.full(3, float(k)))
        if k >= P:
            assert buf.delta("u2", k) == 0.0
            assert buf.delta("y1", k) == float(P)


def test_delta_requires_one_rotation_of_history():
    buf = PeriodicBuffer(P, WINDOW)
    for k in range(P):
        buf.push(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match=str(P)):
        buf.delta("u1", P - 1)


def test_buffer_rejects_evicted_samples():
    buf = PeriodicBuffer(P, WINDOW)
    for k in range(3 * P):
        buf.push(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        buf.delta("u1", P)  # k - P = 0 has been evicted


def test_regressor_window_definition():
    buf = PeriodicBuffer(P, 1)  # p = 1: the regressor is just [du_i,k, dy_i,k]
    rng = np.random.default_rng(1)
    us = rng.normal(size=(2 * P, 3))
    ys = rng.normal(size=(2 * P, 3))
    fill_buffer(buf, us, ys)
    k = 2 * P - 1
    reg = buf.regressor(2, k)
    assert reg.shape == (2,)
    assert reg[0] == us[k, 1] - us[k - P, 1]
    assert reg[1] == ys[k, 1] - ys[k - P, 1]


def test_regressor_of_periodic_signals_is_zero():
    buf = PeriodicBuffer(P, WINDOW)
    rng = np.random.default_rng(2)
    u_rot = rng.normal(size=(P, 3))
    for k in range(4 * P):
        buf.push(u_rot[k % P], 2.0 * u_rot[k % P])
    assert np.all(buf.regressor(1, 4 * P - 1) == 0.0)


def test_consecutive_regressors_overlap_shifted_by_one():
    buf = PeriodicBuffer(P, WINDOW)
    rng = np.random.default_rng(3)
    us = rng.normal(size=(3 * P, 3))
    ys = rng.normal(size=(3 * P, 3))
    fill_buffer(buf, us, ys)
    k = 3 * P - 2
    r_k = buf.regressor(1, k)
    r_k1 = buf.regressor(1, k + 1)
    p = WINDOW
    assert np.array_equal(r_k[1:p], r_k1[: p - 1])
    assert np.array_equal(r_k[p + 1:], r_k1[p: 2 * p - 1])


def test_regressor_insufficient_history():
    buf = PeriodicBuffer(P, WINDOW)
    for _ in range(P + WINDOW - 1):
        buf.push(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        buf.regressor(1, P + WINDOW - 2)


# ---------------------------------------------------------------------------
# identify_step / convergence
# ---------------------------------------------------------------------------

def run_identification(plant, dist, fault, n_rotations, u_fn, engine=True, p=WINDOW):
    n = n_rotations * P
    us = np.empty((n, 3))
    ys = np.empty((n, 3))
    eng = IdentificationEngine(p, P)
    for k in range(n):
        us[k] = u_fn(k)
        ys[k] = step(plant, us[k], dist, fault, k)
        if engine and (k + 1) % P == 0:
            eng.ingest(us, ys, k + 1)
    return eng, us, ys


def test_zero_excitation_estimate_stays_zero():
    plant = build_plant()
    dist = DisturbanceModel(period=P, sigma_e=0.0)  # periodic disturbance only
    eng, _, _ = run_identification(plant, dist, HEALTHY, 10, lambda k: np.zeros(3))
    assert np.all(eng.rows == 0.0)


def test_innovation_noise_pins_the_predictor_row():
    # The predictor row is identifiable only when the measured loads carry
    # innovation content (the L-path): without it, equivalent predictors
    # differing along multiples of the channel recursion fit the data
    # exactly and the estimate lands far from the oracle row. With noise
    # the estimate converges toward the oracle as data accumulates.
    plant_kwargs = dict(coupling=0.05)

    def run_with(sigma_e, n_rot):
        plant = build_plant(**plant_kwargs)
        oracle = np.vstack([markov_oracle_siso(plant, WINDOW, b) for b in (1, 2, 3)])
        rng = np.random.default_rng(11)
        dist = DisturbanceModel(period=P, sigma_e=sigma_e, seed=5)
        eng, _, _ = run_identification(plant, dist, HEALTHY, n_rot,
                                       lambda k: rng.normal(0.0, 0.5, size=3))
        return relative_errors(eng, oracle)

    errs_free = run_with(0.0, 50)
    errs_noisy_50 = run_with(60.0, 50)
    errs_noisy_200 = run_with(60.0, 200)
    assert np.all(errs_free > 0.5)            # structurally biased
    assert np.all(errs_noisy_50 < 0.15)       # noise breaks the degeneracy
    assert np.all(errs_noisy_200 < 0.08)      # plateau set by the coupling bias


def test_decoupled_noise_free_regression_is_degenerate_but_predictive():
    # Documents the identifiability boundary: with zero coupling and zero
    # innovation noise the estimate diverges from the oracle row while
    # predicting the data essentially exactly.
    plant = build_plant(coupling=0.0)
    oracle = np.vstack([markov_oracle_siso(plant, WINDOW, b) for b in (1, 2, 3)])
    rng = np.random.default_rng(11)
    dist = DisturbanceModel(period=P, sigma_e=0.0)
    eng, us, ys = run_identification(plant, dist, HEALTHY, 30,
                                     lambda k: rng.normal(0.0, 0.5, size=3))
    assert np.all(relative_errors(eng, oracle) > 0.05)
    row = eng.rows[0]
    t = 25 * P + 7
    du = us[t - WINDOW:t, 0] - us[t - WINDOW - P:t - P, 0]
    dy = ys[t - WINDOW:t, 0] - ys[t - WINDOW - P:t - P, 0]
    pred = row @ np.concatenate([du, dy])
    target = ys[t, 0] - ys[t - P, 0]
    assert abs(pred - target) < 1e-6 * max(1.0, abs(target))


def test_default_forgetting_factor_is_shipped_value():
    eng = IdentificationEngine(WINDOW, P)
    assert eng.state.lam == 0.99999


def test_engine_matches_per_sample_identify_step():
    plant = build_plant()
    rng = np.random.default_rng(5)
    dist = DisturbanceModel(period=P, sigma_e=10.0, seed=3)
    n_rot = 4
    n = n_rot * P
    us = rng.normal(size=(n, 3))
    ys = np.empty((n, 3))
    buf = PeriodicBuffer(P, WINDOW)
    eng = IdentificationEngine(WINDOW, P)
    est = eng.state
    for k in range(n):
        ys[k] = step(plant, us[k], dist, HEALTHY, k)
        buf.push(us[k], ys[k])
        if k >= P + WINDOW:
            regs = [buf.regressor(b, k - 1) for b in (1, 2, 3)]
            dy = ys[k] - ys[k - P]
            est = identify_step(est, regs, dy)
    eng.ingest(us, ys, n)
    assert np.allclose(eng.rows, est.estimate[:, 0], atol=1e-9, rtol=1e-7)


def test_assembled_rows_are_bitwise_blade_states():
    # Each rotation the engine folds all blades in one stacked Gram
    # product; its rows equal, bit for bit, separate per-blade folds of the
    # same rotation's regressors built sample by sample.
    rng = np.random.default_rng(8)
    p, n_rot = 4, 5
    us = rng.normal(size=(n_rot * P, 3))
    ys = rng.normal(size=(n_rot * P, 3))
    eng = IdentificationEngine(p, P)
    buf = PeriodicBuffer(P, p)
    blades = [RlsState.fresh(1, 2 * p, lam=eng.state.lam) for _ in range(3)]
    for j in range(n_rot):
        regs, targets = [[], [], []], [[], [], []]
        for k in range(j * P, (j + 1) * P):
            buf.push(us[k], ys[k])
            if k >= P + p:
                for b in range(3):
                    regs[b].append(buf.regressor(b + 1, k - 1))
                    targets[b].append([ys[k, b] - ys[k - P, b]])
        eng.ingest(us, ys, (j + 1) * P)
        if regs[0]:
            blades = [rls_update_batch(s, np.array(x), np.array(t))
                      for s, x, t in zip(blades, regs, targets)]
        for b in range(3):
            assert np.array_equal(eng.rows[b], blades[b].estimate[0])


def test_markov_blocks_layout():
    manual = [np.arange(1.0, 7.0), np.arange(10.0, 16.0), np.arange(20.0, 26.0)]
    mu, my = markov_blocks(np.vstack(manual))
    # Newest-lag block (j=0) holds the last u-entry of each row: CB.
    assert mu[0, 0, 0] == manual[0][2]
    assert mu[2, 0, 0] == manual[0][0]
    assert my[0, 1, 1] == manual[1][5]
    assert np.all(mu[:, 0, 1] == 0.0)  # no cross terms


def test_pad_fault_adaptation_of_cb_early_onset():
    # Early-onset scenario: with the near-unity forgetting factor the data
    # mix after 100+ post-fault rotations lands the estimated CB within 15%
    # of (1 - theta_pad) * CB_pre. (Late onsets saturate the information
    # matrix and adapt far slower; see the decisions ledger.)
    plant = build_plant()
    onset_rot, post_rot = 10, 110
    fault = FaultScenario(kind="pad", blade_index=3, onset_sample=onset_rot * P, parameter=0.5)
    rng = np.random.default_rng(13)
    dist = DisturbanceModel(period=P, sigma_e=0.0)
    n = (onset_rot + post_rot) * P
    us = rng.normal(0.0, 0.5, size=(n, 3))
    ys = np.empty((n, 3))
    eng = IdentificationEngine(WINDOW, P)
    cb_pre = None
    for k in range(n):
        ys[k] = step(plant, us[k], dist, fault, k)
        if (k + 1) % P == 0:
            eng.ingest(us, ys, k + 1)
        if k + 1 == onset_rot * P:
            cb_pre = eng.rows[2, WINDOW - 1]
    cb_post = eng.rows[2, WINDOW - 1]
    assert abs(cb_post - 0.5 * cb_pre) <= 0.15 * abs(0.5 * cb_pre)
