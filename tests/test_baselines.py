"""Baseline controllers: Coleman identities, PI behaviour, and the
closed-loop direction checks on the surrogate."""

from itertools import pairwise

import numpy as np
import pytest

from ipcsim import baselines
from ipcsim.baselines import MbcIpcState, mbc_ipc_span
from ipcsim.control import build_basis
from ipcsim.plant import DisturbanceModel, FaultScenario, _maybe_switch_blade_fault, build_plant
from reference import (
    coleman_forward,
    coleman_inverse,
    mbc_ipc_step,
    per_rotation_band_power,
    step,
)

P = 100


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
    # A 1e6 1P load for 2,000 rotations drives both integrators and the
    # commands to the authority bound, and no further.
    n_rot = 2000
    state, plant = MbcIpcState(authority_deg=2.0), build_plant()
    dist = DisturbanceModel(period=P, amp_1p=1e6)
    u, y = np.empty((n_rot * P, 3)), np.empty((n_rot * P, 3))
    mbc_ipc_span(state, plant, FaultScenario(), dist, 0, n_rot * P, u, y)
    assert abs(state.tilt_int) <= 2.0 and abs(state.yaw_int) <= 2.0
    assert np.all(np.abs(u) <= 2.0)
    assert abs(state.tilt_int) == abs(state.yaw_int) == 2.0
    assert np.max(np.abs(u)) == 2.0


def closed_loop_run(controller, fault, n_rot, sigma_e=0.0, seed=0):
    plant = build_plant()
    dist = DisturbanceModel(period=P, sigma_e=sigma_e, seed=seed)
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
            u = np.zeros(3)
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


# ---------------------------------------------------------------------------
# Fused rotation against the per-sample oracle
# ---------------------------------------------------------------------------

def oracle_span(state, plant, fault, dist, k0, n, u_cmd, y):
    """Samples k0 .. k0 + n - 1 of the per-sample oracle, with the harness's
    azimuth convention psi = 2 pi (k % P + 1) / P."""
    period = plant.period_samples
    y_prev = y[k0 - 1] if k0 else np.zeros(3)
    for k in range(k0, k0 + n):
        psi = 2.0 * np.pi * (k % period + 1) / period
        state, u_cmd[k] = mbc_ipc_step(state, y_prev, psi, plant.dt)
        y[k] = step(plant, u_cmd[k], dist, fault, k)
        y_prev = y[k]


PAS_FAULT = FaultScenario(kind="pas", blade_index=3, onset_sample=1050, parameter=0.0)

# (fault, sigma_e, period_jitter, authority_deg)
CASES = {
    "healthy": (FaultScenario(), 0.0, 0.0, 4.0),
    "pas": (PAS_FAULT, 20.0, 0.0, 4.0),
    "pad": (FaultScenario(kind="pad", blade_index=1, onset_sample=1050, parameter=0.5), 20.0, 0.1,
            4.0),
    # Onset mid-rotation: the stiffness switch lands at s = 50 of rotation 10.
    "blade_stiffness": (FaultScenario(kind="blade_stiffness", blade_index=3, onset_sample=1050,
                                      parameter=0.2), 75.0, 0.1, 4.0),
    # A 0.05 deg authority: the command and both integrators hit their clamps.
    "saturating": (PAS_FAULT, 20.0, 0.0, 0.05),
    # Clamped too, with the stiffness switch on the first sample of rotation 10.
    "saturating_switch": (FaultScenario(kind="blade_stiffness", blade_index=1, onset_sample=1000,
                                        parameter=0.5), 20.0, 0.0, 0.05),
}


def span_and_oracle_runs(fault, sigma_e, jitter, n_rot, period=P, **state_fields):
    """(u, y, state, plant, integrator ends after each call) of the fused
    span in one call, of the fused span one rotation per call, then of the
    per-sample oracle one rotation per call, from identical fresh plants."""
    runs = []
    for advance, calls in ((mbc_ipc_span, 1), (mbc_ipc_span, n_rot), (oracle_span, n_rot)):
        plant = build_plant(period_samples=period)
        dist = DisturbanceModel(period=period, sigma_e=sigma_e, seed=5, period_jitter=jitter,
                                rotations=n_rot)
        state = MbcIpcState(**state_fields)
        n = n_rot * period
        u, y = np.empty((n, 3)), np.empty((n, 3))
        ends = []
        for k0 in range(0, n, n // calls):
            advance(state, plant, fault, dist, k0, n // calls, u, y)
            ends.append((state.tilt_int, state.yaw_int))
        runs.append((u, y, state, plant, np.array(ends)))
    return runs


def assert_matches_oracle(run, oracle):
    # The lifted chunks and the loop sum the Coleman dot products and the
    # plant's matrix products in their own orders, so the series agree to
    # rounding: commands (bounded by the pitch authority) within 1e-12 deg
    # absolute, loads within 1e-12 of the largest load magnitude.
    (u, y, state, plant, _), (u_ref, y_ref, state_ref, plant_ref, _) = run, oracle
    assert np.max(np.abs(u - u_ref)) <= 1e-12
    assert np.max(np.abs(y - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))
    assert state.tilt_int == pytest.approx(state_ref.tilt_int, abs=1e-12)
    assert state.yaw_int == pytest.approx(state_ref.yaw_int, abs=1e-12)
    assert np.array_equal(plant.a, plant_ref.a)
    assert np.array_equal(plant.dist_gain, plant_ref.dist_gain)


def serving_paths(monkeypatch, chunks=None) -> list:
    """Spy on the fused span's two paths: the returned list gets "lifted"
    for each rotation a lifted chunk accepts and "loop" for each call of
    the scalar loop (one per clamping rotation, one per fault regime of a
    split rotation). `chunks`, if given, gets (rotations, accepted) per
    lifted chunk."""
    paths = []
    lifted, loop = baselines._lifted_chunk, baselines._loop_rotation

    def lifted_spy(state, plant, op, d, e, k, u_cmd, y):
        accepted = lifted(state, plant, op, d, e, k, u_cmd, y)
        paths.extend(["lifted"] * accepted)
        if chunks is not None:
            chunks.append((len(d) // plant.period_samples, accepted))
        return accepted

    def loop_spy(*args):
        paths.append("loop")
        loop(*args)

    monkeypatch.setattr(baselines, "_lifted_chunk", lifted_spy)
    monkeypatch.setattr(baselines, "_loop_rotation", loop_spy)
    return paths


@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_rotation_matches_per_sample_oracle(monkeypatch, case):
    fault, sigma_e, jitter, bound = CASES[case]
    paths = serving_paths(monkeypatch)
    span, rotations, oracle = span_and_oracle_runs(fault, sigma_e, jitter, 14, authority_deg=bound)
    # Every rotation in one fault state is lifted unless a clamp acts; the
    # onset at sample 1050 splits rotation 10 into two fault regimes, which
    # the loop runs one after the other. The span in one call serves them
    # as the span one rotation per call does.
    expected = ["lifted"] * 14
    if case.startswith("saturating"):
        expected = ["loop"] * 14
    if fault.kind != "healthy" and fault.onset_sample % P:
        expected[10:11] = ["loop", "loop"]
    assert paths == expected + expected
    if case.startswith("saturating"):
        # The clamps assign the bound itself, so a bound clamp reads exactly
        # +-bound: in the commands, and in the integrators at rotation ends.
        u, ends = rotations[0], rotations[4]
        assert np.any(np.abs(u) == bound)
        assert np.any(np.abs(ends[:, 0]) == bound)
        assert np.any(np.abs(ends[:, 1]) == bound)
    assert_matches_oracle(span, oracle)
    assert_matches_oracle(rotations, oracle)


C = baselines._CHUNK

# Chunk edges: (fault, sigma_e, jitter, rotations, period, authority_deg,
# (rotations, accepted) of each lifted chunk of the span in one call).
CHUNK_EDGES = {
    # Rotation 15 clamps in the middle of a 30-rotation chunk; lifting
    # resumes with one rotation and doubles until the next clamp.
    "clamp_mid_chunk": (FaultScenario(kind="pas", blade_index=3, onset_sample=10 * P,
                                      parameter=0.0), 75.0, 0.0, 40, P, 0.65,
                        [(10, 10), (30, 5), (1, 1), (2, 2), (4, 3), (1, 1), (2, 1), (1, 0),
                         (1, 1), (2, 2), (4, 4), (6, 5)]),
    # The stiffness switch at s = 37 of rotation 10 ends the first chunk
    # after rotation 9; the loop runs rotation 10's two regimes, and the
    # next chunk starts at rotation 11.
    "onset_mid_rotation": (FaultScenario(kind="blade_stiffness", blade_index=2,
                                         onset_sample=10 * P + 37, parameter=0.3),
                           20.0, 0.1, 40, P, 4.0, [(10, 10), (29, 29)]),
    "onset_on_chunk_boundary": (FaultScenario(kind="pad", blade_index=1, onset_sample=C * P,
                                              parameter=0.5), 20.0, 0.0, C + 8, P, 4.0,
                                [(C, C), (8, 8)]),
    "shorter_than_a_chunk": (FaultScenario(), 20.0, 0.1, 5, P, 4.0, [(5, 5)]),
    # 45 samples per rotation, over two chunks.
    "period_45": (FaultScenario(kind="pas", blade_index=2, onset_sample=3 * 45, parameter=0.5),
                  20.0, 0.0, C + 8, 45, 4.0, [(3, 3), (C, C), (5, 5)]),
}


@pytest.mark.parametrize("case", sorted(CHUNK_EDGES))
def test_chunk_edges_match_per_sample_oracle(monkeypatch, case):
    fault, sigma_e, jitter, n_rot, period, bound, expected_chunks = CHUNK_EDGES[case]
    chunks = []
    paths = serving_paths(monkeypatch, chunks)
    span, rotations, oracle = span_and_oracle_runs(fault, sigma_e, jitter, n_rot, period=period,
                                                   authority_deg=bound)
    # The span in one call lifts exactly these chunks; one rotation per call
    # then serves each rotation as it does.
    in_one_call = paths[:len(paths) // 2]
    assert chunks[:len(expected_chunks)] == expected_chunks
    assert in_one_call.count("lifted") == sum(done for _, done in expected_chunks)
    assert paths[len(paths) // 2:] == in_one_call
    assert_matches_oracle(span, oracle)
    assert_matches_oracle(rotations, oracle)


def test_an_integrator_clamp_alone_sends_the_rotation_to_the_loop(monkeypatch):
    # A tilt integrator just beyond the 1 deg authority is clamped at the
    # first sample, while no command, clamped or not, reaches the bound:
    # the loop must run the rotation.
    paths = serving_paths(monkeypatch)
    runs = []
    for advance in (mbc_ipc_span, oracle_span):
        state, plant = MbcIpcState(authority_deg=1.0, tilt_int=1.001), build_plant()
        dist = DisturbanceModel(period=P, amp_1p=0.0, amp_2p=0.0)
        u, y = np.empty((P, 3)), np.empty((P, 3))
        advance(state, plant, FaultScenario(), dist, 0, P, u, y)
        runs.append((u, y, state))
    (u, y, state), (u_ref, y_ref, state_ref) = runs
    assert paths == ["loop"]
    assert np.max(np.abs(u_ref)) < 1.0
    assert np.max(np.abs(u - u_ref)) <= 1e-12
    assert np.max(np.abs(y - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))
    assert state.tilt_int == pytest.approx(state_ref.tilt_int, abs=1e-12)


def test_an_overflowing_operator_sends_every_rotation_to_the_loop(monkeypatch):
    # A 1e300 DC gain overflows the lifted operator as it is built. That must
    # raise no RuntimeWarning (pytest makes one an error): the non-finite
    # outputs send each rotation to the loop, which clamps the commands.
    from ipcsim.harness import LoadCaseConfig, run_load_case

    paths = serving_paths(monkeypatch)
    result = run_load_case(LoadCaseConfig(id="overflow", controller="mbc_ipc", seed=1,
                                          duration_s=4.0, fault_onset_s=2.0, sigma_e=10.0,
                                          plant={"dc_gain": 1e300}))
    assert paths == ["loop"] * 4
    assert np.max(np.abs(result.u_cmd)) == 4.0


def test_lifted_rotation_at_period_45_matches_oracle(monkeypatch):
    # An odd period: 45 samples per rotation.
    period = 45
    paths = serving_paths(monkeypatch)
    fault = FaultScenario(kind="pas", blade_index=2, onset_sample=5 * period, parameter=0.5)
    span, rotations, oracle = span_and_oracle_runs(fault, 20.0, 0.0, 12, period=period)
    expected = ["lifted"] * 12
    assert paths == expected + expected
    assert_matches_oracle(span, oracle)
    assert_matches_oracle(rotations, oracle)


@pytest.mark.parametrize("period, fault", [
    (P, FaultScenario()),
    (P, FaultScenario(kind="pas", blade_index=2, onset_sample=0, parameter=1.5)),
    (45, FaultScenario()),
], ids=["healthy", "pas", "period_45"])
def test_rotation_operator_steps_end_where_its_end_map_says(period, fault):
    # Stepping the per-sample maps [v; z] -> [z'; u] over one rotation ends
    # where the end map takes the start state and the forced response.
    steps, to_end, forced = baselines._rotation_operator(build_plant(period_samples=period),
                                                         fault.actuator_map(0))
    rng = np.random.default_rng(3)
    w, e = rng.normal(0.0, 500.0, (period, 3)), rng.normal(0.0, 20.0, (period, 3))
    start = np.concatenate([rng.normal(0.0, 1.0, 6), rng.normal(0.0, 500.0, 3),
                            rng.normal(0.0, 0.5, 2)])
    z = start
    for s in range(period):
        z = (np.concatenate([w[s], e[s], [1.0], z]) @ steps[s])[:11]
    end = np.concatenate([start, np.hstack([w, e]).ravel() @ forced, [1.0]]) @ to_end
    assert np.max(np.abs(end - z)) <= 1e-12 * np.max(np.abs(z))


def test_lc18_run_matches_the_scalar_loop_alone(monkeypatch):
    from ipcsim.harness import default_campaign, run_load_case

    cfg = next(c for c in default_campaign() if c.id == "LC18-lvlB-bld-tiiec-mbc_ipc")
    paths = serving_paths(monkeypatch)
    lifted = run_load_case(cfg)
    assert paths == ["lifted"] * 2000  # the onset at 1000 s starts a rotation
    monkeypatch.setattr(baselines, "_lifted_chunk", lambda *args: 0)
    loop = run_load_case(cfg)
    assert np.max(np.abs(lifted.u_cmd - loop.u_cmd)) <= 1e-12
    assert np.max(np.abs(lifted.y - loop.y)) <= 1e-12 * np.max(np.abs(loop.y))


def test_cached_blocks_are_rebuilt_at_a_mid_rotation_onset(monkeypatch):
    # The stiffness switch lands at s = 37 of rotation 3. The span builds the
    # lifted rotation once per fault regime with a whole rotation: for
    # rotations 0-2 from the healthy plant, and for rotations 4 and 5 from
    # the switched one; the loop runs rotation 3's two regimes.
    fault = FaultScenario(kind="blade_stiffness", blade_index=2, onset_sample=337, parameter=0.3)
    faulted = build_plant()
    _maybe_switch_blade_fault(faulted, fault, fault.onset_sample)
    builds = []
    real = baselines._rotation_operator

    def build_spy(plant, amap):
        op = real(plant, amap)
        builds.append((plant.a.copy(), amap, op))
        return op

    monkeypatch.setattr(baselines, "_rotation_operator", build_spy)
    runs = []
    for advance in (mbc_ipc_span, oracle_span):
        plant = build_plant()
        dist = DisturbanceModel(period=P, sigma_e=20.0, seed=8)
        u, y = np.empty((6 * P, 3)), np.empty((6 * P, 3))
        advance(MbcIpcState(), plant, fault, dist, 0, 6 * P, u, y)
        runs.append((u, y, plant))
    (u, y, plant), (u_ref, y_ref, _) = runs
    assert np.max(np.abs(u - u_ref)) <= 1e-12
    assert np.max(np.abs(y - y_ref)) <= 1e-12 * np.max(np.abs(y_ref))
    (healthy_a, healthy_map, healthy_op), (a, amap, op) = builds
    assert np.array_equal(healthy_a, build_plant().a)
    assert np.array_equal(a, faulted.a) and amap == healthy_map
    for part, faulted_part, healthy_part in zip(op, real(faulted, amap), healthy_op):
        assert np.array_equal(part, faulted_part)
        assert not np.array_equal(part, healthy_part)
    # The plant caches only its own lifted blocks, keyed by their length.
    assert all(type(key) is int for key in plant._derived)


@pytest.mark.parametrize("jitter", [0.0, 0.1])
def test_rotation_draws_equal_per_sample_draws_bitwise(jitter):
    n_rot = 12
    block, single, chunked = (DisturbanceModel(period=P, sigma_e=30.0, seed=11,
                                               period_jitter=jitter, rotations=n_rot)
                              for _ in range(3))
    e_block = np.vstack([block.innovation_block(j * P, P) for j in range(n_rot)])
    e_single = np.vstack([single.innovation_block(k, 1) for k in range(n_rot * P)])
    d_block = np.vstack([block.periodic_block(j * P, P) for j in range(n_rot)])
    d_single = np.vstack([single.periodic_block(k, 1) for k in range(n_rot * P)])
    assert np.array_equal(e_block, e_single)
    assert np.array_equal(d_block, d_single)
    # Chunks of several rotations, as the lifted MBC-IPC span draws them.
    spans = [(k, k1 - k) for k, k1 in pairwise(np.cumsum([0, 1, 2, 4, 5]) * P)]
    e_chunked = np.vstack([chunked.innovation_block(k, n) for k, n in spans])
    d_chunked = np.vstack([chunked.periodic_block(k, n) for k, n in spans])
    assert np.array_equal(e_chunked, e_single)
    assert np.array_equal(d_chunked, d_single)


@pytest.mark.parametrize("field, value", [
    ("authority_deg", np.nan), ("authority_deg", np.inf), ("authority_deg", 0.0),
    ("authority_deg", -1.0),
])
def test_mbc_state_rejects_nonfinite_or_out_of_range(field, value):
    with pytest.raises(ValueError):
        MbcIpcState(**{field: value})


def _one_rotation(state, plant=None, y_prev=None):
    plant = build_plant() if plant is None else plant
    u, y = np.zeros((2 * P, 3)), np.zeros((2 * P, 3))
    k0 = 0
    if y_prev is not None:
        y[P - 1] = y_prev
        k0 = P
    dist = DisturbanceModel(period=P, seed=1)
    dist.innovation_block(0, k0)  # the innovation stream is sequential
    mbc_ipc_span(state, plant, FaultScenario(), dist, k0, P, u, y)


def test_fused_rotation_rejects_nonfinite_command():
    with pytest.raises(ValueError, match="non-finite"):
        _one_rotation(MbcIpcState(), y_prev=[np.nan, 0.0, 0.0])
    state = MbcIpcState()
    state.tilt_int = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _one_rotation(state)


def test_fused_rotation_reports_state_overflow():
    plant = build_plant()
    plant.x = np.full(6, 1.5e308)  # the first state update overflows to inf
    with pytest.raises(FloatingPointError):
        _one_rotation(MbcIpcState(), plant=plant)


def test_run_load_case_reports_mbc_divergence(monkeypatch):
    from ipcsim import harness
    from ipcsim.harness import LoadCaseConfig, run_load_case

    def seeded(**kw):
        plant = build_plant(**kw)
        plant.x = np.full(6, 1.5e308)
        return plant

    cfg = LoadCaseConfig(id="overflow", controller="mbc_ipc", seed=0,
                         duration_s=4.0, fault_onset_s=2.0)
    monkeypatch.setattr(harness, "build_plant", seeded)
    with pytest.raises(RuntimeError, match="diverged"):
        run_load_case(cfg)

