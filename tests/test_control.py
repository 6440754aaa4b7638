"""Control stage: basis identities, lifted-model structure, predictor
fidelity against direct simulation with oracle parameters, projected
state space, gain synthesis edge cases, excitation properties."""

import numpy as np
import pytest

from ipcsim.control import (
    LOG_COLUMNS,
    ControllerTuning,
    ExcitationGenerator,
    RepetitiveController,
    build_basis,
    project_output,
    projected_blocks,
    rotation_commands,
    shifted_bases,
    update_theta,
)
from ipcsim.control import EXCITATION_POLE
from ipcsim.numerics import (
    DareNonConvergence,
    RlsState,
    pinv,
    rls_update_batch,
    solve_dare,
    welch_psd,
)
from ipcsim.metrics import band_energy_ratio
from ipcsim.plant import (
    DisturbanceModel,
    FaultScenario,
    build_plant,
)
from reference import (
    AllocatingController,
    assemble_lifted,
    bar_matrices,
    broadband_loop,
    markov_blocks,
    markov_blocks_from_xi,
    markov_oracle,
    markov_oracle_siso,
    predict_lifted,
    project_state_space,
    projected_blocks_concatenating,
    projected_blocks_loop,
    scatter_blades,
    spectral_radius,
    step,
)

P, WINDOW = 100, 21


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_basis_final_row_is_full_turn():
    basis = build_basis(P)
    row = basis.u_f[-1]
    assert np.allclose(row, [0.0, 1.0, 0.0, 1.0], atol=1e-12)


def test_basis_pseudo_inverse_identity():
    basis = build_basis(P)
    phi = np.kron(basis.u_f, np.eye(3))
    assert np.allclose(pinv(phi) @ phi, np.eye(12), atol=1e-10)


def test_basis_requires_period_for_2p():
    with pytest.raises(ValueError):
        build_basis(6)


def test_unit_coefficient_gives_unit_sinusoid():
    basis = build_basis(P)
    theta = np.zeros(12)
    theta[0] = 1.0  # 1P sine, blade 1
    u = rotation_commands(basis, theta)
    psi = 2 * np.pi * np.arange(1, P + 1) / P
    assert np.allclose(u[:, 0], np.sin(psi), atol=1e-12)
    assert np.all(u[:, 1:] == 0.0)


def test_pitch_command_single_2p_cosine_blade2():
    basis = build_basis(P)
    theta = np.zeros(12)
    theta[3 * 3 + 1] = 1.0  # harmonic index 3 = 2P cosine, blade 2
    rows = rotation_commands(basis, theta)
    for k in (0, 7, 50, 99):
        u = rows[k]
        psi = 2 * np.pi * (k % P + 1) / P
        assert u[1] == pytest.approx(np.cos(2 * psi), abs=1e-12)
        assert u[0] == 0.0 and u[2] == 0.0


def test_pitch_command_zero_coefficients():
    basis = build_basis(P)
    assert np.all(rotation_commands(basis, np.zeros(12))[5] == 0.0)


# ---------------------------------------------------------------------------
# project_output
# ---------------------------------------------------------------------------

def test_project_output_recovers_pure_sine():
    basis = build_basis(P)
    psi = 2 * np.pi * np.arange(1, P + 1) / P
    y = np.zeros((P, 3))
    y[:, 0] = 3.0 * np.sin(psi)
    y_bar = project_output(y, basis)
    expected = np.zeros(12)
    expected[0] = 3.0
    assert np.allclose(y_bar, expected, atol=1e-9)


def test_project_output_rejects_dc():
    basis = build_basis(P)
    y = np.full((P, 3), 17.0)
    assert np.allclose(project_output(y, basis), 0.0, atol=1e-9)


def test_project_output_residual_orthogonal_to_basis():
    basis = build_basis(P)
    rng = np.random.default_rng(1)
    y = rng.normal(size=P * 3)
    y_bar = project_output(y, basis)
    phi_out = np.kron(basis.u_f, np.eye(3))
    residual = y - phi_out @ y_bar
    assert np.max(np.abs(phi_out.T @ residual)) < 1e-9


def test_project_output_dimension_check():
    basis = build_basis(P)
    with pytest.raises(ValueError):
        project_output(np.zeros(10), basis)


# ---------------------------------------------------------------------------
# lifted model
# ---------------------------------------------------------------------------

def zero_estimate():
    return markov_blocks(np.zeros((3, 2 * WINDOW)))


def test_zero_markov_gives_zero_lifted():
    lifted = assemble_lifted(zero_estimate(), P, WINDOW)
    assert np.all(lifted.gamma_ku == 0.0)
    assert np.all(lifted.gamma_ky == 0.0)
    assert np.all(lifted.h_hat == 0.0)


def test_lifted_structural_zeros():
    plant = build_plant()
    blocks = markov_blocks_from_xi(markov_oracle(plant, WINDOW), WINDOW)
    lifted = assemble_lifted(blocks, P, WINDOW)
    l = r = 3
    h = lifted.h_hat.reshape(P, l, P, r)
    for s in range(P):
        assert np.all(h[s, :, s:, :] == 0.0)  # zero diagonal and above
    assert np.all(lifted.gamma_ku[:, : (P - WINDOW) * r] == 0.0)
    # Markov content actually present below the diagonal.
    assert np.linalg.norm(h[5, :, 4, :]) > 0.0


def test_predictor_fidelity_with_oracle_parameters():
    # Eq.-(18)-style one-rotation-ahead prediction vs direct simulation.
    plant = build_plant()
    blocks = markov_blocks_from_xi(markov_oracle(plant, WINDOW), WINDOW)
    lifted = assemble_lifted(blocks, P, WINDOW)
    rng = np.random.default_rng(3)
    dist = DisturbanceModel(period=P, sigma_e=0.0)  # periodic disturbance active
    n = 4 * P
    us = rng.normal(0.0, 1.0, size=(n, 3))
    ys = np.empty((n, 3))
    for k in range(n):
        ys[k] = step(plant, us[k], dist, FaultScenario(), k)
    k0 = 2 * P
    du_prev = us[k0:k0 + P] - us[k0 - P:k0]
    dy_prev = ys[k0:k0 + P] - ys[k0 - P:k0]
    du_curr = us[k0 + P:k0 + 2 * P] - us[k0:k0 + P]
    dy_next = ys[k0 + P:k0 + 2 * P] - ys[k0:k0 + P]
    pred = predict_lifted(lifted, du_prev, dy_prev, du_curr)
    err = np.linalg.norm(pred - dy_next.reshape(-1)) / np.linalg.norm(dy_next)
    assert err < 1e-6


def test_assemble_rejects_nonfinite():
    mu = np.zeros((WINDOW, 3, 3))
    my = np.zeros((WINDOW, 3, 3))
    mu[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        assemble_lifted((mu, my), P, WINDOW)


# ---------------------------------------------------------------------------
# projected state space / gain
# ---------------------------------------------------------------------------

def test_projected_shapes_and_zero_model_structure():
    basis = build_basis(P)
    lifted = assemble_lifted(zero_estimate(), P, WINDOW)
    a_bar, b_bar = project_state_space(lifted, basis)
    assert a_bar.shape == (36, 36)
    assert b_bar.shape == (36, 12)
    expected_a = np.zeros((36, 36))
    expected_a[:12, :12] = np.eye(12)
    assert np.allclose(a_bar, expected_a, atol=1e-12)
    expected_b = np.vstack([np.zeros((12, 12)), np.eye(12), np.zeros((12, 12))])
    assert np.allclose(b_bar, expected_b, atol=1e-12)


def oracle_rows():
    plant = build_plant()
    return np.vstack([markov_oracle_siso(plant, WINDOW, b) for b in (1, 2, 3)])


def per_blade_model(rows):
    basis = build_basis(P)
    return bar_matrices(*projected_blocks(rows, shifted_bases(basis.u_f, WINDOW), basis))


def dense_model(rows):
    lifted = assemble_lifted(markov_blocks(rows), P, WINDOW)
    return project_state_space(lifted, build_basis(P))


def cross_blade(m):
    """Mask of the entries of a coefficient-space matrix that couple two blades."""
    rows, cols = np.indices(m.shape)
    return rows % 3 != cols % 3


def test_fast_projection_matches_reference_path():
    rows = oracle_rows()
    a_ref, b_ref = dense_model(rows)
    a_fast, b_fast = map(scatter_blades, per_blade_model(rows))
    scale = max(1.0, np.abs(a_ref).max())
    assert np.allclose(a_fast, a_ref, atol=1e-9 * scale)
    assert np.allclose(b_fast, b_ref, atol=1e-9 * scale)


def perturbed_rows():
    rows = oracle_rows()
    rng = np.random.default_rng(21)
    return rows * (1.0 + 0.05 * rng.normal(size=rows.shape))


@pytest.mark.parametrize("make_rows", [oracle_rows, perturbed_rows],
                         ids=["oracle", "perturbed"])
def test_per_blade_model_and_gain_match_dense_reference(make_rows):
    rows = make_rows()
    a_ref, b_ref = dense_model(rows)
    a_blades, b_blades = per_blade_model(rows)
    assert a_blades.shape == (3, 12, 12) and b_blades.shape == (3, 12, 4)
    a_bar, b_bar = scatter_blades(a_blades), scatter_blades(b_blades)
    assert np.linalg.norm(a_bar - a_ref) <= 1e-12 * np.linalg.norm(a_ref)
    assert np.linalg.norm(b_bar - b_ref) <= 1e-12 * np.linalg.norm(b_ref)
    q = np.diag([1.0] * 12 + [0.0] * 12 + [1.0] * 12)
    r = 5e-7 * np.eye(12)
    gain_ref = solve_dare(a_ref, b_ref, q, r).gain
    q_blade = np.diag([1.0] * 4 + [0.0] * 4 + [1.0] * 4)
    gain_blades = solve_dare(a_blades, b_blades, np.stack([q_blade] * 3),
                             np.stack([5e-7 * np.eye(4)] * 3)).gain
    assert gain_blades.shape == (3, 4, 12)
    gain = scatter_blades(gain_blades)
    assert np.linalg.norm(gain - gain_ref) <= 1e-9 * np.linalg.norm(gain_ref)
    for m in (a_bar, b_bar, gain):
        assert np.all(m[cross_blade(m)] == 0.0)


def test_shifted_bases_need_window_inside_period():
    u_f = build_basis(P).u_f
    for p in (0, P, P + 50):
        with pytest.raises(ValueError):
            shifted_bases(u_f, p)


@pytest.mark.parametrize("p", [1, 2, 7, 21, 50, 99])
def test_blocked_recursion_matches_sample_loop(p):
    # P = 100: p = 7, 21, 50 and 99 leave a partial last block, and p > P/2
    # gives two blocks.
    basis = build_basis(P)
    plant = build_plant()
    rows = np.vstack([markov_oracle_siso(plant, p, b) for b in (1, 2, 3)])
    rows = rows * (1.0 + 0.05 * np.random.default_rng(p).normal(size=rows.shape))
    shifts = shifted_bases(basis.u_f, p)
    blocked = projected_blocks(rows, shifts, basis)
    loop = projected_blocks_loop(rows, shifts, basis)
    for got, want in zip(blocked, loop):
        assert got.shape == (3, 4, 4)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def exploding_rotation(newest_y_tap):
    """A controller past warm-up whose blade-2 estimate has `newest_y_tap`
    as its newest-lag y coefficient; returns (controller, u, y)."""
    ctl = RepetitiveController(WINDOW, P, ControllerTuning(warmup_rotations=2), seed=1,
                               rotations=3)
    rng = np.random.default_rng(0)
    u = rng.normal(size=(3 * P, 3))
    y = rng.normal(size=(3 * P, 3))
    for j in range(3):
        ctl.finish_rotation(j, u, y)
    state = ctl.engine.state
    estimate = state.estimate[1].copy()
    estimate[0, -1] = newest_y_tap
    # The state carries the estimate beside S: blade 2's Theta' column
    # takes the edited estimate, which reads back exactly.
    info = state.info.copy()
    info[1, :, state.n_reg:] = estimate.mT
    ctl.engine.state = RlsState(info=info, lam=state.lam)
    return ctl, u, y


def test_singular_in_block_recursion_is_a_counted_dare_failure():
    # Taps so large that inverting the in-block matrix hits an exactly zero
    # pivot: the projection returns non-finite blocks instead of raising,
    # and the rotation counts a DARE failure and keeps the previous gain.
    ctl, u, y = exploding_rotation(1e100)
    failures, gain = ctl.dare_failures, ctl.gain.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = projected_blocks(ctl.engine.rows, ctl._shifts, ctl.basis)
        assert not any(np.all(np.isfinite(b)) for b in blocks)
        ctl.finish_rotation(2, u, y)
    assert ctl.dare_failures == failures + 1
    assert np.array_equal(ctl.gain, gain)


def test_nonfinite_projected_model_is_a_counted_dare_failure():
    # A finite estimate whose output recursion explodes (a huge newest-lag
    # y coefficient) overflows the projection to inf/nan. The rotation then
    # counts a DARE failure and keeps the previous gain instead of raising.
    ctl, u, y = exploding_rotation(1e10)
    failures, gain = ctl.dare_failures, ctl.gain.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = projected_blocks(ctl.engine.rows, ctl._shifts, ctl.basis)
        assert not all(np.all(np.isfinite(b)) for b in blocks)
        # Finishing the same rotation again ingests nothing new, so the
        # estimate reaches the projection as set above.
        ctl.finish_rotation(2, u, y)
    assert ctl.dare_failures == failures + 1
    assert np.array_equal(ctl.gain, gain)
    assert np.all(np.isfinite(ctl.theta))


def test_projection_results_outlive_later_calls_and_match_allocating_twin():
    # The blocks a call returns are its own arrays: a later call on other
    # rows leaves them as they were. They are bitwise those of the
    # allocating twin.
    basis = build_basis(P)
    shifts = shifted_bases(basis.u_f, WINDOW)
    rows = oracle_rows()
    first = projected_blocks(rows, shifts, basis)
    kept = [b.copy() for b in first]
    again = projected_blocks(perturbed_rows(), shifts, basis)
    for got, want, other in zip(first, kept, again):
        assert np.array_equal(got, want) and not np.array_equal(got, other)
    for got, want in zip(projected_blocks(rows, shifts, basis),
                         projected_blocks_concatenating(rows, shifts, basis)):
        assert np.array_equal(got, want)


def test_rotation_kernels_leave_their_inputs_unchanged():
    # The per-rotation projection and RLS fold write into no array they are
    # handed (the Markov rows, each array of the shifted bases, the state's
    # [S | Theta'], the regressors and targets), and two calls return
    # arrays that share no memory with each other or with their inputs.
    basis = build_basis(P)
    shifts = shifted_bases(basis.u_f, WINDOW)
    rows = perturbed_rows()
    handed = [rows, *shifts]
    before = [a.copy() for a in handed]
    first = projected_blocks(rows, shifts, basis)
    second = projected_blocks(rows, shifts, basis)
    assert all(np.array_equal(a, b) for a, b in zip(handed, before))
    assert not any(np.shares_memory(a, b) for a in first for b in (*second, *handed))

    rng = np.random.default_rng(5)
    state = rls_update_batch(RlsState.fresh(1, 2 * WINDOW, lam=0.999, stack=(3,)),
                             rng.normal(size=(3, P, 2 * WINDOW)), rng.normal(size=(3, P, 1)))
    regressors = rng.normal(size=(3, P, 2 * WINDOW))
    targets = rng.normal(size=(3, P, 1))
    handed = [state.info, regressors, targets]
    before = [a.copy() for a in handed]
    first = rls_update_batch(state, regressors, targets)
    second = rls_update_batch(state, regressors, targets)
    assert all(np.array_equal(a, b) for a, b in zip(handed, before))
    assert np.array_equal(first.info, second.info)
    assert not any(np.shares_memory(first.info, b) for b in (second.info, *handed))


@pytest.mark.parametrize("group", ["LC01-lvlA-pad-ti00", "LC18-lvlB-bld-tiiec"])
def test_buffered_rotation_step_matches_allocating_twin(group, monkeypatch):
    # One ti00 and one tiiec ftipc run, 60 s with a 5-rotation warm-up: the
    # shipped rotation step (owned buffers, one-pass fold, Riccati step
    # forming B'P and A'P once) against the step that allocates every
    # intermediate. Same commands, loads and log, bit for bit.
    from dataclasses import replace

    from ipcsim import harness

    cfg = next(c for c in harness.default_campaign(duration_s=60.0)
               if c.id == f"{group}-ftipc")
    cfg = replace(cfg, tuning={"warmup_rotations": 5})
    shipped = harness.run_load_case(cfg)
    monkeypatch.setattr(harness, "RepetitiveController", AllocatingController)
    twin = harness.run_load_case(cfg)
    assert np.array_equal(shipped.u_cmd, twin.u_cmd)
    assert np.array_equal(shipped.y, twin.y)
    assert len(shipped.rotation_log) == len(twin.rotation_log) == 60
    for got, want in zip(shipped.rotation_log, twin.rotation_log):
        assert np.array_equal(got, want, equal_nan=True)
    residuals = [row[LOG_COLUMNS.index("dare_residual")] for row in shipped.rotation_log]
    assert np.isfinite(residuals[-1])  # the gain was synthesized


def converged_model_matrices():
    plant = build_plant()
    blocks = markov_blocks_from_xi(markov_oracle(plant, WINDOW), WINDOW)
    basis = build_basis(P)
    lifted = assemble_lifted(blocks, P, WINDOW)
    return project_state_space(lifted, basis)


def test_gain_stabilizes_converged_model():
    a_bar, b_bar = converged_model_matrices()
    q = np.diag([1.0] * 12 + [0.0] * 12 + [1.0] * 12)
    r = 5e-7 * np.eye(12)
    sol = solve_dare(a_bar, b_bar, q, r)
    assert sol.residual < 1e-9
    assert spectral_radius(a_bar - b_bar @ sol.gain) < 1.0


def test_gain_fallback_on_degenerate_zero_model():
    # The zero-model pair has an uncontrollable eigenvalue exactly at 1, so
    # no stabilizing solution exists: the Riccati recursion reports the
    # failure, and the gain the controller keeps (zero before any success)
    # leaves the closed loop marginal.
    basis = build_basis(P)
    lifted = assemble_lifted(zero_estimate(), P, WINDOW)
    a_bar, b_bar = project_state_space(lifted, basis)
    with pytest.raises(DareNonConvergence):
        solve_dare(a_bar, b_bar, np.eye(36), np.eye(12), max_iter=60)
    gain = RepetitiveController(WINDOW, P, ControllerTuning(), seed=1, rotations=1).gain
    assert gain.shape == (3, 4, 12)
    assert np.all(np.isfinite(gain)) and np.all(gain == 0.0)
    assert spectral_radius(a_bar - b_bar @ scatter_blades(gain)) <= 1.0 + 1e-9


def test_first_failed_dare_keeps_zero_gain_and_is_counted():
    # Past warm-up, a Riccati recursion that cannot converge in one
    # iteration is a counted failure; with no earlier success the gain
    # stays zero, so theta stays at zero.
    tuning = ControllerTuning(warmup_rotations=2, dare_max_iter=1)
    ctl = RepetitiveController(WINDOW, P, tuning, seed=1, rotations=4)
    rng = np.random.default_rng(0)
    u = rng.normal(size=(4 * P, 3))
    y = rng.normal(size=(4 * P, 3))
    for j in range(4):
        ctl.finish_rotation(j, u, y)
    assert ctl.dare_failures == 2
    assert np.all(ctl.gain == 0.0)
    assert np.all(ctl.theta == 0.0) and ctl.clamp_events == 0
    assert [row[LOG_COLUMNS.index("dare_failures")] for row in ctl.log] == [0, 0, 1, 2]
    # Each failed solve ran its one allowed iteration; none ran before warm-up.
    assert [row[LOG_COLUMNS.index("dare_iterations")] for row in ctl.log] == [0, 0, 1, 1]
    assert all(np.isnan(row[LOG_COLUMNS.index("dare_residual")]) for row in ctl.log)


def test_gain_zero_state_cost_gives_zero_gain():
    a_bar, b_bar = converged_model_matrices()
    gain = solve_dare(a_bar, b_bar, np.zeros((36, 36)), np.eye(12)).gain
    assert np.allclose(gain, 0.0, atol=1e-12)


def test_input_weight_monotonicity():
    a_bar, b_bar = converged_model_matrices()
    q = np.diag([1.0] * 12 + [0.0] * 12 + [1.0] * 12)
    rng = np.random.default_rng(0)
    state_vec = rng.normal(size=36) * 100.0
    g1 = solve_dare(a_bar, b_bar, q, 5e-7 * np.eye(12)).gain
    g2 = solve_dare(a_bar, b_bar, q, 5e-5 * np.eye(12)).gain
    assert np.linalg.norm(g2 @ state_vec) < np.linalg.norm(g1 @ state_vec)


# ---------------------------------------------------------------------------
# theta update
# ---------------------------------------------------------------------------

def test_update_theta_identity_when_gain_zero_alpha_one():
    theta = np.linspace(-1, 1, 12)
    out, clamped = update_theta(theta, np.zeros((3, 4, 12)), np.ones(12), np.zeros(12),
                                np.ones(12), ControllerTuning(alpha=1.0, beta=0.3))
    assert np.array_equal(out, theta)
    assert not clamped


def test_update_theta_beta_zero_is_alpha_decay():
    out, _ = update_theta(np.ones(12), np.ones((3, 4, 12)), np.ones(12) * 50, np.ones(12),
                          np.ones(12) * 50, ControllerTuning(alpha=0.9, beta=0.0))
    assert np.allclose(out, 0.9)


def test_update_theta_clamps_and_counts():
    # The controller counts a rotation whose update the clamp acted on.
    gain = -np.stack([np.eye(4, 12)] * 3)  # feedback pushes theta up by y_bar
    tuning = ControllerTuning(alpha=1.0, beta=1.0, theta_cap_deg=2.0)
    theta = np.zeros(12)
    out, clamped = update_theta(theta, gain, np.full(12, 10.0), np.zeros(12), np.zeros(12),
                                tuning)
    assert np.all(out == 2.0)
    assert clamped
    assert np.all(out - theta == 2.0)


def test_update_theta_per_blade_gain_acts_as_scattered_gain():
    # The per-blade gain on the harmonic-major coefficient vectors acts as
    # its scatter into the dense [Ybar; dtheta; dYbar] layout does.
    rng = np.random.default_rng(6)
    gain = rng.normal(size=(3, 4, 12))
    theta = rng.normal(size=12)
    y_bar, d_theta, d_y_bar = rng.normal(size=(3, 12))
    tuning = ControllerTuning(alpha=0.95, beta=0.3, theta_cap_deg=1e6)
    out, _ = update_theta(theta, gain, y_bar, d_theta, d_y_bar, tuning)
    dense = scatter_blades(gain) @ np.concatenate([y_bar, d_theta, d_y_bar])
    assert np.allclose(out, 0.95 * theta - 0.3 * dense, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# excitation
# ---------------------------------------------------------------------------

def test_excitation_amplitude_cap():
    # The filter keeps |z| <= 1 exactly, so no margin is needed.
    gen = ExcitationGenerator(amplitude=0.1, seed=5, rotations=500)
    for j in range(500):
        row = gen.sample(j)
        assert row.shape == (1, 12)
        assert np.all(np.abs(row) <= 0.1)


def test_excitation_streams_uncorrelated():
    # Inverting the one-pole filter recovers each stream's +-1 bits.
    gen = ExcitationGenerator(amplitude=1.0, seed=7, rotations=10000)
    z = np.array([gen.sample(j)[0] for j in range(10000)])
    bits = (z - EXCITATION_POLE * np.vstack([np.zeros(12), z[:-1]])) / (1.0 - EXCITATION_POLE)
    assert np.allclose(np.abs(bits), 1.0, rtol=0.0, atol=1e-9)
    corr = np.corrcoef(bits.T)
    off = corr - np.diag(np.diag(corr))
    assert np.max(np.abs(off)) < 0.05


def test_excitation_deterministic_per_seed():
    a = ExcitationGenerator(amplitude=0.1, seed=9, rotations=2000)
    b = ExcitationGenerator(amplitude=0.1, seed=9, rotations=2000)
    drawn = [a.sample(j)[0] for j in range(2000)]
    assert all(np.array_equal(b.sample(j)[0], drawn[j]) for j in range(2000))
    c = ExcitationGenerator(amplitude=0.1, seed=10, rotations=2)
    assert not np.array_equal(drawn[0], c.sample(0)[0])
    assert c.sample(1).shape == (1, 12)
    assert not c.sample(0).flags.writeable
    # The whole run is drawn at construction, in one draw per stream; it
    # equals one single-bit draw per stream and rotation.
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(9).spawn(12)]
    pole, z = EXCITATION_POLE, np.zeros(12)
    for j in range(2000):
        bits = np.array([2.0 * rng.integers(0, 2, size=1)[0] - 1.0 for rng in rngs])
        z = pole * z + (1.0 - pole) * bits
        assert np.array_equal(drawn[j], 0.1 * z), j


def test_restricted_command_spectrum_concentrates_at_1p_2p():
    # Fixed theta + slowly varying excitation: commanded pitch energy sits
    # in narrow bands around 1P and 2P.
    basis = build_basis(P)
    n_rot = 200
    gen = ExcitationGenerator(amplitude=0.1, seed=2, rotations=n_rot)
    theta = np.zeros(12)
    theta[0], theta[7] = 0.5, 0.3
    u = np.vstack([rotation_commands(basis, theta + gen.sample(j)[0]) for j in range(n_rot)])
    psd = welch_psd(u[:, 0], fs=100.0, segment_length=2000)
    ratio = band_energy_ratio(psd, [[0.9, 1.1], [1.8, 2.2]])
    assert ratio >= 0.99


def test_unrestricted_mode_is_broadband_and_capped():
    noise = ExcitationGenerator.broadband(0.25, seed=1, dt=0.01, period=P, rotations=400)
    block = np.vstack([noise.sample(j) for j in range(400)])
    assert block.shape == (40000, 3)
    assert np.max(np.abs(block)) <= 0.25
    psd = welch_psd(block[:, 0], fs=100.0, segment_length=2000)
    ratio = band_energy_ratio(psd, [[0.9, 1.1], [1.8, 2.2]])
    assert 1.0 - ratio >= 0.30  # at least 30% of energy outside 1P/2P bands


@pytest.mark.parametrize("amplitude", [0.25, 0.0])
def test_unrestricted_block_matches_sample_loop(amplitude):
    # The broadband rotations equal the oracle drawn from the seed alone.
    # The 100-sample bit hold starts and ends on rotation boundaries at
    # P = 100, and mid-rotation at P = 80 and 150, where the run of 88 and
    # 47 rotations ends 40 and 50 samples into its last bit's hold.
    for period in (100, 80, 150):
        n_rot = -(-7000 // period)
        noise = ExcitationGenerator.broadband(amplitude, seed=3, dt=0.01, period=period,
                                              rotations=n_rot)
        assert noise.hold == 100
        got = np.vstack([noise.sample(j) for j in range(n_rot)])
        want = broadband_loop(amplitude, 3, 0.01, n_rot * period)
        assert got.shape == want.shape == (n_rot * period, 3)
        assert np.array_equal(got, want), period
        assert np.all(np.abs(got) <= amplitude)


def test_unrestricted_zero_amplitude_is_exact_zero():
    noise = ExcitationGenerator.broadband(0.0, seed=1, dt=0.01, period=P, rotations=10)
    assert all(np.all(noise.sample(j) == 0.0) for j in range(10))


def test_output_projection_scale_equivariance():
    # Scaling all outputs by c > 0 scales the projected coefficients by c
    # exactly (projection linearity), leaving the feedback law's argmin
    # structure intact for fixed Q.
    basis = build_basis(P)
    rng = np.random.default_rng(4)
    y = rng.normal(size=P * 3)
    for c in (2.0, 0.25, 1e3):
        assert np.allclose(project_output(c * y, basis),
                           c * project_output(y, basis), rtol=1e-12, atol=1e-12)
