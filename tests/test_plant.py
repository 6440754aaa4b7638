"""Surrogate plant: construction invariants, fault maps, periodicity,
linearity, the lifted block advance, and the Markov-parameter oracle."""

import copy

import numpy as np
import pytest

from ipcsim.plant import (
    DisturbanceModel,
    FaultScenario,
    _maybe_switch_blade_fault,
    build_plant,
)
from reference import (
    a_tilde,
    advance_block_loop,
    apply_actuator_fault,
    dc_gain_matrix,
    dense_matrices,
    jittered_periodic_block_loop,
    markov_oracle,
    markov_oracle_siso,
    spectral_radius,
    step,
)


def quiet_disturbance(**kw):
    base = dict(period=100, amp_1p=0.0, amp_2p=0.0, sigma_e=0.0, seed=0)
    base.update(kw)
    return DisturbanceModel(**base)


def run_plant(plant, u_fn, disturbance, fault, n):
    ys = np.empty((n, 3))
    for k in range(n):
        ys[k] = step(plant, u_fn(k), disturbance, fault, k)
    return ys


HEALTHY = FaultScenario()


# ---------------------------------------------------------------------------
# the default plant, build_plant()
# ---------------------------------------------------------------------------

def test_default_plant_stability_invariants():
    plant = build_plant()
    assert spectral_radius(plant.a) < 1.0
    assert spectral_radius(a_tilde(plant)) < 1.0


def test_default_plant_rotor_period():
    plant = build_plant()
    assert plant.dt * plant.period_samples == pytest.approx(1.0)
    assert plant.period_samples == 100
    assert plant.dt == 0.01


def test_default_plant_dc_gain():
    plant = build_plant()
    # Direct steady-state gain C (I - A)^-1 B.
    dc = dc_gain_matrix(plant)
    assert dc[0, 0] == pytest.approx(-1500.0, rel=0.01)
    # And by simulation: unit step on blade 1, zero disturbance.
    dist = quiet_disturbance()
    ys = run_plant(build_plant(), lambda k: np.array([1.0, 0.0, 0.0]), dist, HEALTHY, 800)
    assert ys[-1, 0] == pytest.approx(dc[0, 0], rel=1e-6)
    # Weak cross-coupling: 5% of the main gain.
    assert dc[1, 0] == pytest.approx(0.05 * dc[0, 0], rel=1e-9)


# ---------------------------------------------------------------------------
# actuator faults
# ---------------------------------------------------------------------------

def mapped(fault, u, k):
    """u_eff through FaultScenario.actuator_map of a command at sample k, or
    of a block from sample k that sees one fault state."""
    offset, scale = fault.actuator_map(k)
    return u * scale + offset


def test_pas_pins_faulty_entry():
    fault = FaultScenario(kind="pas", blade_index=3, onset_sample=10, parameter=0.0)
    u = np.array([3.0, -2.0, 5.0])
    assert np.array_equal(mapped(fault, u, 10), [3.0, -2.0, 0.0])
    assert np.array_equal(mapped(fault, u, 9), u)


def test_pad_scales_faulty_entry():
    fault = FaultScenario(kind="pad", blade_index=3, onset_sample=0, parameter=0.5)
    u = np.array([0.3, 0.1, 2.0])
    out = mapped(fault, u, 5)
    assert out[2] == pytest.approx(1.0)
    assert np.array_equal(out[:2], u[:2])


def test_actuator_fault_block_matches_per_sample():
    # The affine map of each fault state equals the per-sample oracle bit
    # for bit, before the onset, at it and after it, for every fault kind.
    # The regime walk cuts a block at the onset, gives each range the map of
    # its fault state, and makes a stiffness switch once, on the range that
    # starts at the onset.
    rng = np.random.default_rng(0)
    u = rng.normal(size=(12, 3))
    healthy = build_plant()
    for kind, parameter in (("healthy", 0.0), ("pas", 1.5), ("pad", 0.3),
                            ("blade_stiffness", 0.5)):
        fault = FaultScenario(kind=kind, blade_index=2, onset_sample=7, parameter=parameter)
        for k in (0, 6, 7, 8, 11):
            assert np.array_equal(mapped(fault, u[k], k), apply_actuator_fault(u[k], fault, k))
        plant, ranges, blocks, switched = build_plant(), [], [], []
        for lo, hi, (offset, scale) in fault.regimes(plant, 0, 12):
            assert (offset, scale) == fault.actuator_map(lo)
            ranges.append((lo, hi))
            blocks.append(u[lo:hi] * scale + offset)
            switched.append(not np.array_equal(plant.a, healthy.a))
        cut = [(0, 7), (7, 12)] if kind != "healthy" else [(0, 12)]
        assert ranges == cut
        assert np.array_equal(np.vstack(blocks), apply_actuator_fault(u, fault, 0))
        stiffness = kind == "blade_stiffness"
        assert switched == [False] + [stiffness] * (len(cut) - 1)
        factor = np.sqrt(parameter) if stiffness else 1.0
        assert plant.nat_freq_hz[1] == healthy.nat_freq_hz[1] * factor  # scaled once
    # An onset on a block boundary does not cut; the switch comes with the
    # block that starts at it.
    fault = FaultScenario(kind="blade_stiffness", blade_index=2, onset_sample=7, parameter=0.5)
    plant = build_plant()
    assert [(lo, hi) for lo, hi, _ in fault.regimes(plant, 0, 7)] == [(0, 7)]
    assert np.array_equal(plant.a, healthy.a)
    assert [(lo, hi) for lo, hi, _ in fault.regimes(plant, 7, 5)] == [(0, 5)]
    assert not np.array_equal(plant.a, healthy.a)


def test_fault_validation():
    with pytest.raises(ValueError):
        FaultScenario(kind="pad", parameter=0.0)
    with pytest.raises(ValueError):
        FaultScenario(kind="blade_stiffness", parameter=1.5)
    with pytest.raises(ValueError):
        FaultScenario(kind="nope")
    with pytest.raises(ValueError):
        FaultScenario(blade_index=4)
    for blade in (3.0, True, "3"):
        with pytest.raises(ValueError, match="blade_index"):
            FaultScenario(blade_index=blade)


# ---------------------------------------------------------------------------
# blade fault
# ---------------------------------------------------------------------------

def test_blade_fault_identity_at_unit_scale():
    plant = build_plant()
    _maybe_switch_blade_fault(plant, FaultScenario(kind="blade_stiffness", blade_index=3,
                                                   parameter=1.0), 0)
    ref = build_plant()
    for name in ("a", "b", "c", "l_obs", "dist_gain", "nat_freq_hz"):
        assert np.array_equal(getattr(plant, name), getattr(ref, name)), name


def test_blade_fault_rebuilds_only_the_faulty_channel_in_place():
    plant = build_plant()
    arrays = {name: getattr(plant, name) for name in ("a", "c", "l_obs", "dist_gain")}
    fault = FaultScenario(kind="blade_stiffness", blade_index=2, onset_sample=3, parameter=0.25)
    _maybe_switch_blade_fault(plant, fault, 3)
    ref = build_plant()
    assert plant.nat_freq_hz[1] == ref.nat_freq_hz[1] * 0.5
    assert plant.dist_gain[1] == 4.0
    for name, array in arrays.items():
        assert getattr(plant, name) is array  # updated in place, not replaced
        assert np.array_equal(array[[0, 2]], getattr(ref, name)[[0, 2]]), name
        assert not np.array_equal(array[1], getattr(ref, name)[1]), name
    # The rebuilt channel keeps its DC gain and places its observer poles.
    a, _, c, l_obs = dense_matrices(plant)
    blade = slice(2, 4)
    dc = c[1, blade] @ np.linalg.solve(np.eye(2) - a[blade, blade], [1.0, 0.0])
    assert dc == pytest.approx(plant.dc_gain, rel=1e-12)
    poles = np.linalg.eigvals(a[blade, blade] - np.outer(l_obs[blade, 1], c[1, blade]))
    assert np.allclose(np.sort(poles.real), sorted(plant.predictor_poles), atol=1e-12)


def test_blade_fault_amplifies_disturbance_by_inverse_scale():
    fault = FaultScenario(kind="blade_stiffness", blade_index=3, onset_sample=0, parameter=0.2)
    dist = DisturbanceModel(period=100, amp_1p=200.0, amp_2p=0.0, sigma_e=0.0)
    plant = build_plant()
    ys = run_plant(plant, lambda k: np.zeros(3), dist, fault, 400)
    tail = ys[-200:]  # integer number of rotations: RMS of a sinusoid is exact
    amp_faulty = np.sqrt(2.0) * np.sqrt(np.mean(tail[:, 2] ** 2))
    amp_healthy = np.sqrt(2.0) * np.sqrt(np.mean(tail[:, 0] ** 2))
    assert amp_faulty == pytest.approx(5.0 * amp_healthy, rel=1e-9)


def test_blade_fault_leaves_healthy_channels_bit_identical():
    fault = FaultScenario(kind="blade_stiffness", blade_index=3, onset_sample=0, parameter=0.2)
    rng = np.random.default_rng(4)
    u_seq = rng.normal(size=(300, 3))
    dist_a = quiet_disturbance()
    dist_b = quiet_disturbance()
    ys_fault = run_plant(build_plant(), lambda k: u_seq[k], dist_a, fault, 300)
    ys_ref = run_plant(build_plant(), lambda k: u_seq[k], dist_b, HEALTHY, 300)
    assert np.array_equal(ys_fault[:, :2], ys_ref[:, :2])
    assert not np.array_equal(ys_fault[:, 2], ys_ref[:, 2])


def test_blade_fault_requires_right_kind():
    # Only a blade-stiffness scenario changes the plant, and only at its onset.
    for fault in (FaultScenario(kind="pas"), FaultScenario(kind="pad", parameter=0.5),
                  FaultScenario(kind="blade_stiffness", onset_sample=5, parameter=0.2)):
        plant = build_plant()
        _maybe_switch_blade_fault(plant, fault, 0)
        assert np.array_equal(plant.a, build_plant().a)
        assert np.array_equal(plant.dist_gain, np.ones(3))


def test_scheduled_fault_is_time_exact():
    onset = 150
    for kind, param in (("pas", 0.0), ("pad", 0.5), ("blade_stiffness", 0.2)):
        fault = FaultScenario(kind=kind, blade_index=3, onset_sample=onset, parameter=param)
        rng = np.random.default_rng(9)
        u_seq = rng.normal(size=(200, 3))
        ys_fault = run_plant(build_plant(), lambda k: u_seq[k], quiet_disturbance(),
                             fault, 200)
        ys_ref = run_plant(build_plant(), lambda k: u_seq[k], quiet_disturbance(),
                           HEALTHY, 200)
        assert np.array_equal(ys_fault[:onset], ys_ref[:onset])


# ---------------------------------------------------------------------------
# step dynamics
# ---------------------------------------------------------------------------

def test_zero_everything_gives_zero_output():
    ys = run_plant(build_plant(), lambda k: np.zeros(3), quiet_disturbance(), HEALTHY, 50)
    assert np.all(ys == 0.0)


def test_output_disturbance_is_exact_sinusoid():
    # d enters at the output, so with zero input and zero noise the output
    # IS the configured sinusoid sum, sample for sample: a rotating pattern,
    # blade i a third of a rotation behind blade i - 1.
    a1, a2 = 700.0, 150.0
    dist = DisturbanceModel(period=100, amp_1p=a1, amp_2p=a2, phase_1p=0.4, phase_2p=1.1,
                            sigma_e=0.0)
    plant = build_plant()
    ys = run_plant(plant, lambda k: np.zeros(3), dist, HEALTHY, 250)
    k = np.arange(250)
    psi = 2 * np.pi * (k % 100) / 100
    for i in range(3):
        offset = 2 * np.pi * i / 3
        expected = a1 * np.sin(psi + 0.4 + offset) + a2 * np.sin(2 * psi + 1.1 + 2 * offset)
        assert np.allclose(ys[:, i], expected, atol=1e-12)


def test_periodic_input_gives_periodic_output_geometrically():
    plant = build_plant()
    dist = DisturbanceModel(period=100, sigma_e=0.0)
    rng = np.random.default_rng(2)
    u_rot = rng.normal(size=(100, 3))
    ys = run_plant(plant, lambda k: u_rot[k % 100], dist, HEALTHY, 1200)
    diffs = [np.abs(ys[(r + 1) * 100:(r + 2) * 100] - ys[r * 100:(r + 1) * 100]).max()
             for r in range(11)]
    assert diffs[10] < 1e-9
    # Geometric decay: each rotation shrinks the mismatch.
    for a, b in zip(diffs[2:9], diffs[3:10]):
        assert b < 0.6 * a or b < 1e-12


def test_superposition():
    rng = np.random.default_rng(5)
    u1 = rng.normal(size=(150, 3))
    u2 = rng.normal(size=(150, 3))
    d = quiet_disturbance()
    y1 = run_plant(build_plant(), lambda k: u1[k], quiet_disturbance(), HEALTHY, 150)
    y2 = run_plant(build_plant(), lambda k: u2[k], quiet_disturbance(), HEALTHY, 150)
    y12 = run_plant(build_plant(), lambda k: u1[k] + u2[k], d, HEALTHY, 150)
    scale = max(1.0, np.abs(y12).max())
    assert np.allclose(y12, y1 + y2, atol=1e-10 * scale)


def test_innovation_stream_is_seed_reproducible():
    def make():
        return DisturbanceModel(period=100, sigma_e=25.0, seed=42)
    y1 = run_plant(build_plant(), lambda k: np.zeros(3), make(), HEALTHY, 120)
    y2 = run_plant(build_plant(), lambda k: np.zeros(3), make(), HEALTHY, 120)
    assert np.array_equal(y1, y2)
    with pytest.raises(ValueError):
        make().innovation_block(5, 1)  # non-sequential draw


def test_jittered_block_matches_sample_loop():
    # Blocks of length 1 (two on a rotation boundary), blocks that start
    # mid-rotation and blocks spanning several boundaries, read in a
    # shuffled order: each equals the per-sample loop bitwise.
    lengths = [1, 37, 1, 61, 1, 100, 250, 49, 1, 1, 99, 149, 50]
    starts = np.cumsum([0, *lengths[:-1]])
    order = np.random.default_rng(3).permutation(len(lengths))
    assert list(order) != sorted(order)
    dist = DisturbanceModel(period=100, sigma_e=0.0, seed=9, period_jitter=0.2, rotations=8)
    for i in order:
        k, n = int(starts[i]), lengths[i]
        d = dist.periodic_block(k, n)
        assert d.shape == (n, 3)
        assert np.array_equal(d, jittered_periodic_block_loop(dist, k, n))
    # The run's last sample reads; a block past it does not.
    with pytest.raises(ValueError):
        dist.periodic_block(799, 2)
    with pytest.raises(ValueError):
        DisturbanceModel(period=100, period_jitter=0.2)  # no rotations to lay out


# ---------------------------------------------------------------------------
# lifted block advance
# ---------------------------------------------------------------------------

def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def random_block(rng, n):
    """(u_eff, d, e) for n samples; e has sigma_e > 0."""
    return (rng.normal(size=(n, 3)), 300.0 * rng.normal(size=(n, 3)),
            50.0 * rng.normal(size=(n, 3)))


@pytest.mark.parametrize("n", [1, 37, 100])
def test_lifted_block_matches_sample_loop(n):
    # From a nonzero state with innovations, before and after a
    # blade-stiffness switch: the closed-form block equals the loop.
    rng = np.random.default_rng(n)
    fault = FaultScenario(kind="blade_stiffness", blade_index=2, onset_sample=n,
                          parameter=0.2)
    plant = build_plant()
    plant.x = 100.0 * rng.normal(size=6)
    for k0 in (0, n):
        _maybe_switch_blade_fault(plant, fault, k0)
        ref = copy.deepcopy(plant)
        block = random_block(rng, n)
        y = plant.advance_block(*block)
        y_ref = advance_block_loop(ref, *block)
        assert rel_err(y, y_ref) <= 1e-12
        assert rel_err(plant.x, ref.x) <= 1e-12
    assert not np.array_equal(plant.a, build_plant().a)  # the switch happened


def test_blade_switch_clears_the_lifted_operators():
    rng = np.random.default_rng(7)
    plant = build_plant()
    plant.advance_block(*random_block(rng, 100))
    plant.advance_block(*random_block(rng, 37))
    assert set(plant._derived) == {37, 100}
    fault = FaultScenario(kind="blade_stiffness", blade_index=3, onset_sample=5, parameter=0.2)
    _maybe_switch_blade_fault(plant, fault, 4)  # not the onset: nothing changes
    assert set(plant._derived) == {37, 100}
    _maybe_switch_blade_fault(plant, fault, 5)
    assert plant._derived == {}
    # The next block uses the restiffened blade, not a stale operator.
    ref = copy.deepcopy(plant)
    block = random_block(rng, 100)
    assert rel_err(plant.advance_block(*block), advance_block_loop(ref, *block)) <= 1e-12


def test_lifted_block_reports_state_overflow():
    plant = build_plant()
    plant.x = np.full(6, 1.5e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError):
            plant.advance_block(np.zeros((100, 3)), np.zeros((100, 3)), np.zeros((100, 3)))


def test_build_plant_rejects_bad_parameters():
    bad = ({"nat_freq_hz": 0.0}, {"nat_freq_hz": np.inf}, {"damping": np.nan},
           {"damping": -0.1}, {"dt": -0.01}, {"dt": 0.0}, {"dc_gain": 0.0},
           {"dc_gain": np.nan}, {"coupling": np.inf}, {"predictor_poles": (0.4,)},
           {"predictor_poles": (0.4, 1.0)}, {"predictor_poles": (np.nan, 0.3)},
           {"period_samples": 6}, {"period_samples": 100.0}, {"period_samples": True})
    for kw in bad:
        with pytest.raises(ValueError):
            build_plant(**kw)
    build_plant(coupling=-0.05, predictor_poles=(-0.5, 0.0), period_samples=8)


# ---------------------------------------------------------------------------
# markov oracle
# ---------------------------------------------------------------------------

def test_markov_oracle_p1_is_cb_cl():
    plant = build_plant()
    xi = markov_oracle(plant, 1)
    _, b, c, l_obs = dense_matrices(plant)
    assert np.allclose(xi[:, :3], c @ b)
    assert np.allclose(xi[:, 3:], c @ l_obs)


def test_markov_oracle_blocks_match_direct_products():
    plant = build_plant()
    p = 6
    xi = markov_oracle(plant, p)
    at = a_tilde(plant)
    _, b, c, l_obs = dense_matrices(plant)
    for m in range(p):
        power = np.linalg.matrix_power(at, p - 1 - m)
        assert np.allclose(xi[:, 3 * m:3 * (m + 1)], c @ power @ b, atol=1e-12)
        assert np.allclose(xi[:, 3 * p + 3 * m:3 * p + 3 * (m + 1)],
                           c @ power @ l_obs, atol=1e-12)


def test_truncation_premise_at_p21():
    plant = build_plant()
    at = a_tilde(plant)
    _, b, c, _ = dense_matrices(plant)
    cb = c @ b
    tail = c @ np.linalg.matrix_power(at, 20) @ b
    assert np.linalg.norm(tail) < 1e-6 * np.linalg.norm(cb)


def test_markov_oracle_siso_diagonal_entries():
    plant = build_plant()
    p = 4
    row = markov_oracle_siso(plant, p, blade=2)
    full = markov_oracle(plant, p)
    assert row.shape == (2 * p,)
    assert row[p - 1] == full[1, 3 * (p - 1) + 1]  # newest u block: CB diag entry
    assert row[2 * p - 1] == full[1, 3 * p + 3 * (p - 1) + 1]
