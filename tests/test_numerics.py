"""Kernel-level checks: RLS vs batch weighted LS, Penrose conditions,
Riccati residuals, and Parseval consistency of the Welch estimator."""

import warnings

import numpy as np
import pytest

from ipcsim.numerics import (
    DareNonConvergence,
    RlsState,
    pinv,
    rls_update_batch,
    solve_dare,
    welch_psd,
)
from reference import qr_estimate, rls_fold_qr, rls_update, spectral_radius


# ---------------------------------------------------------------------------
# RLS
# ---------------------------------------------------------------------------

def batch_weighted_ls(xs, ys, lam, init_info):
    """Direct normal-equations oracle, including the decayed init ridge."""
    k = len(xs)
    n_reg = xs[0].shape[0]
    info = (lam**k) * init_info * np.eye(n_reg)
    rhs = np.zeros((n_reg, ys[0].shape[0]))
    for t, (x, y) in enumerate(zip(xs, ys)):
        w = lam ** (k - 1 - t)
        info += w * np.outer(x, x)
        rhs += w * np.outer(x, y)
    return np.linalg.solve(info, rhs).T


def test_rls_recovers_true_row_noise_free():
    rng = np.random.default_rng(7)
    n_reg, n_out = 8, 1
    xi_true = rng.normal(size=(n_out, n_reg))
    state = RlsState.fresh(n_out, n_reg, lam=0.99999, init_info=1e-10)
    for _ in range(10 * n_reg):
        x = rng.normal(size=n_reg)
        state, est = rls_update(state, x, xi_true @ x)
    # Oracle: plain normal equations on the same (noise-free) data.
    err = np.linalg.norm(est - xi_true) / np.linalg.norm(xi_true)
    assert err < 1e-6


def test_rls_zero_targets_stay_zero():
    rng = np.random.default_rng(3)
    state = RlsState.fresh(2, 5, lam=0.999)
    for _ in range(40):
        state, est = rls_update(state, rng.normal(size=5), np.zeros(2))
    assert np.all(est == 0.0)


def test_rls_lambda_construction_bounds():
    RlsState.fresh(1, 4, lam=0.99999)  # the shipped near-unity value
    with pytest.raises(ValueError):
        RlsState.fresh(1, 4, lam=0.5)
    with pytest.raises(ValueError):
        RlsState.fresh(1, 4, lam=0.9)


def test_rls_rejects_bad_inputs():
    state = RlsState.fresh(1, 4, lam=0.999)
    with pytest.raises(ValueError):
        rls_update(state, np.array([1.0, 2.0, 3.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        rls_update(state, np.array([1.0, np.nan, 0.0, 0.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        rls_update(state, np.ones(4), np.array([np.inf]))


@pytest.mark.parametrize("n_reg,n_out,lam", [(3, 1, 0.999), (12, 2, 0.99), (40, 1, 0.99999)])
def test_rls_matches_batch_on_every_prefix(n_reg, n_out, lam):
    rng = np.random.default_rng(n_reg)
    init_info = 1e-3
    state = RlsState.fresh(n_out, n_reg, lam=lam, init_info=init_info)
    xs, ys = [], []
    for _ in range(3 * n_reg):
        x = rng.normal(size=n_reg)
        y = rng.normal(size=n_out)
        xs.append(x)
        ys.append(y)
        state, est = rls_update(state, x, y)
        oracle = batch_weighted_ls(xs, ys, lam, init_info)
        assert np.linalg.norm(est - oracle) <= 1e-8 * max(1.0, np.linalg.norm(oracle))


def test_rls_information_matrix_stays_symmetric_positive_definite():
    rng = np.random.default_rng(11)
    state = RlsState.fresh(1, 6, lam=0.999)
    for _ in range(50):
        state, _ = rls_update(state, rng.normal(size=6), rng.normal(size=1))
        s = state.info[..., :6]
        assert np.all(np.isfinite(state.info))
        assert np.array_equal(s, s.mT)
        assert np.all(np.linalg.eigvalsh(s) > 0.0)


def test_rls_overflowing_rows_read_as_nan_estimate():
    # Finite rows beyond about 1e154 overflow the Gram product. The fold
    # warns of nothing, and the estimate reads NaN, which the controller's
    # model projection and Riccati solve then count as a failed DARE.
    state = RlsState.fresh(1, 4, lam=0.999, stack=(3,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = rls_update_batch(state, np.full((3, 5, 4), 1e200), np.ones((3, 5, 1)))
        assert not np.isfinite(state.info).all()
        assert np.isnan(state.estimate).all()


def test_rls_overflow_of_one_recursion_leaves_the_others():
    # Only the blade whose S overflows loses its estimate, for good: the
    # other two blades match separate folds bit for bit, and a later fold
    # of ordinary rows keeps the overflowed blade at NaN.
    rng = np.random.default_rng(3)
    stacked = RlsState.fresh(1, 4, lam=0.999, stack=(3,))
    separate = [RlsState.fresh(1, 4, lam=0.999) for _ in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e200, 1.0):
            xs, ys = rng.normal(size=(3, 5, 4)), rng.normal(size=(3, 5, 1))
            xs[1] *= scale
            stacked = rls_update_batch(stacked, xs, ys)
            separate = [rls_update_batch(s, x, y) for s, x, y in zip(separate, xs, ys)]
            assert np.isnan(stacked.estimate[1]).all()
            for i in (0, 2):
                assert np.array_equal(stacked.info[i], separate[i].info)


def test_rls_zero_row_fold_returns_the_state_unchanged():
    # An empty block folds through the general path: lam^0 S plus an empty
    # Gram product, and a zero correction, give back [S | Theta'] bit for bit.
    rng = np.random.default_rng(5)
    fresh = RlsState.fresh(1, 6, lam=0.999, stack=(3,))
    folded = rls_update_batch(fresh, rng.normal(size=(3, 20, 6)), rng.normal(size=(3, 20, 1)))
    for state in (fresh, folded):
        same = rls_update_batch(state, np.zeros((3, 0, 6)), np.zeros((3, 0, 1)))
        assert same.info.tobytes() == state.info.tobytes() and same.lam == state.lam


def test_rls_batch_equals_sequential():
    rng = np.random.default_rng(21)
    n_reg, n_out = 10, 1
    xs = rng.normal(size=(57, n_reg))
    ys = rng.normal(size=(57, n_out))
    seq = RlsState.fresh(n_out, n_reg, lam=0.999)
    for x, y in zip(xs, ys):
        seq, _ = rls_update(seq, x, y)
    batched = RlsState.fresh(n_out, n_reg, lam=0.999)
    batched = rls_update_batch(batched, xs[:20], ys[:20])
    batched = rls_update_batch(batched, xs[20:], ys[20:])
    assert np.allclose(batched.estimate, seq.estimate, atol=1e-10, rtol=1e-8)


def test_stacked_rls_batch_is_bitwise_separate_calls():
    # Three blades' recursions folded in one stacked Gram product equal
    # three separate folds bit for bit, block after block.
    rng = np.random.default_rng(31)
    n_reg = 42
    stacked = RlsState.fresh(1, n_reg, lam=0.99999, stack=(3,))
    separate = [RlsState.fresh(1, n_reg, lam=0.99999) for _ in range(3)]
    for m in (79, 100, 100, 1):
        xs = rng.normal(size=(3, m, n_reg))
        ys = rng.normal(size=(3, m, 1))
        stacked = rls_update_batch(stacked, xs, ys)
        separate = [rls_update_batch(s, x, y) for s, x, y in zip(separate, xs, ys)]
        for i in range(3):
            assert np.array_equal(stacked.estimate[i], separate[i].estimate)
            assert np.array_equal(stacked.info[i], separate[i].info)


def random_folds(rng, n_folds, n_reg=42):
    """Stacked (3, 100, n_reg) blocks of a noisy random regression."""
    xi = rng.normal(size=(3, 1, n_reg))
    for _ in range(n_folds):
        xs = rng.normal(size=(3, 100, n_reg))
        yield xs, xs @ xi.mT + 0.1 * rng.normal(size=(3, 100, 1))


def hankel_folds(rng, n_folds, p=21):
    """Stacked (3, 100, 2p) blocks of sliding windows [u | y] of a noise-free
    second-order channel per blade, driven by a held random-sign input and
    targeting the next y, like an LC01 (turbulence-free) run. Each window's
    y-half is a linear function of its u-half and two initial states, so 19
    of the 42 directions hold only the decayed prior: cond(S) passes 1e12."""
    n = n_folds * 100 + p
    u = rng.choice([-1.0, 1.0], size=(3, n // 10 + 1)).repeat(10, axis=1)[:, :n]
    y = np.zeros((3, n))
    for t in range(2, n):
        y[:, t] = 1.6 * y[:, t - 1] - 0.8 * y[:, t - 2] + 6.0 * u[:, t - 1]
    window = np.arange(100)[:, None] + np.arange(p)
    for f in range(n_folds):
        t0 = p + 100 * f
        rows = window + (t0 - p)
        yield (np.concatenate([u[:, rows], y[:, rows]], axis=-1),
               y[:, t0:t0 + 100, None])


@pytest.mark.parametrize("folds", [random_folds, hankel_folds])
def test_information_fold_matches_qr_oracle(folds):
    # The information fold against the square-root (QR) fold over 1,000
    # stacked (3, 100, 42) folds. Tolerances, all relative:
    # - S against R'R: 1e-12 (2.8e-14 measured);
    # - random data, estimates: 1e-12 (1.1e-14 measured);
    # - Hankel data, whose cond(S) reaches 1.6e12: estimates within 1e-7
    #   (1.0e-8 measured; solving S Theta' = b at each read instead of
    #   carrying Theta reaches 3e-5), and one-step predictions X Theta'
    #   within 1e-12 of |y| (7e-14 measured).
    rng = np.random.default_rng(5)
    n_reg, lam = 42, 0.99999
    state = RlsState.fresh(1, n_reg, lam=lam, stack=(3,))
    factor = np.sqrt(state.info)  # [sqrt(init_info) I | 0], the fresh [R | z]
    for xs, ys in folds(rng, 1000):
        state = rls_update_batch(state, xs, ys)
        factor = rls_fold_qr(factor, lam, xs, ys)
        r = factor[..., :n_reg]
        assert np.linalg.norm(state.info[..., :n_reg] - r.mT @ r) <= 1e-12 * np.linalg.norm(r.mT @ r)
        estimate, oracle = state.estimate, qr_estimate(factor)
        error = np.linalg.norm(estimate - oracle) / np.linalg.norm(oracle)
        if folds is random_folds:
            assert error <= 1e-12
        else:
            assert error <= 1e-7
            prediction = xs @ (estimate - oracle).mT
            assert np.linalg.norm(prediction) <= 1e-12 * np.linalg.norm(ys)
    if folds is hankel_folds:
        assert np.linalg.cond(state.info[..., :n_reg]).max() >= 1e12


def test_stacked_rls_batch_rejects_mismatched_stack():
    state = RlsState.fresh(1, 4, lam=0.999, stack=(3,))
    with pytest.raises(ValueError):
        rls_update_batch(state, np.ones((2, 5, 4)), np.ones((2, 5, 1)))
    with pytest.raises(ValueError):
        rls_update_batch(state, np.ones((5, 4)), np.ones((5, 1)))


# ---------------------------------------------------------------------------
# pinv
# ---------------------------------------------------------------------------

def test_pinv_identity():
    assert np.allclose(pinv(np.eye(4)), np.eye(4), atol=1e-12)


def test_pinv_left_inverse_of_tall_full_rank():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(9, 4))
    assert np.allclose(pinv(m) @ m, np.eye(4), atol=1e-10)


def test_pinv_rank_deficient_penrose_1():
    rng = np.random.default_rng(6)
    m = rng.normal(size=(8, 2)) @ rng.normal(size=(2, 4))  # rank 2
    mp = pinv(m)
    assert np.allclose(m @ mp @ m, m, atol=1e-10)


def test_pinv_zero_matrix():
    assert np.all(pinv(np.zeros((3, 5))) == 0.0)
    assert pinv(np.zeros((3, 5))).shape == (5, 3)


def test_pinv_penrose_conditions_all_rank_profiles():
    rng = np.random.default_rng(42)
    for rows in (1, 4, 11, 20):
        for cols in (1, 5, 13, 20):
            for rank in {1, min(rows, cols) // 2, min(rows, cols)}:
                if rank < 1:
                    continue
                m = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
                mp = pinv(m)
                assert np.allclose(m @ mp @ m, m, atol=1e-10)
                assert np.allclose(mp @ m @ mp, mp, atol=1e-10)
                assert np.allclose((m @ mp).T, m @ mp, atol=1e-10)
                assert np.allclose((mp @ m).T, mp @ m, atol=1e-10)


# ---------------------------------------------------------------------------
# DARE
# ---------------------------------------------------------------------------

def test_dare_scalar_matches_quadratic_root():
    # For a=0.5, b=1, q=r=1 the fixed point solves P^2 - 0.25 P - 1 = 0.
    sol = solve_dare(np.array([[0.5]]), np.array([[1.0]]), np.eye(1), np.eye(1), tol=1e-13)
    p_closed_form = (0.25 + np.sqrt(0.25**2 + 4.0)) / 2.0
    # Independent scalar fixed-point iteration to 1e-12.
    p = 1.0
    for _ in range(10000):
        p_next = 1.0 + 0.25 * p - 0.25 * p * p / (1.0 + p)
        if abs(p_next - p) < 1e-12 * abs(p_next):
            break
        p = p_next
    assert abs(sol.cost_matrix[0, 0] - p_closed_form) < 1e-10
    assert abs(sol.cost_matrix[0, 0] - p) < 1e-9


def test_dare_deadbeat_plant():
    q = np.diag([2.0, 3.0])
    sol = solve_dare(np.zeros((2, 2)), np.eye(2), q, np.eye(2))
    assert np.allclose(sol.cost_matrix, q, atol=1e-9)
    assert np.allclose(sol.gain, 0.0, atol=1e-12)


def test_dare_random_stable_systems_stabilize():
    # Acceptance-grade property: 100 seeded instances, residual and rho checks.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, 6))
        a *= 0.9 / max(spectral_radius(a), 1e-9)
        b = rng.normal(size=(6, 2))
        q = np.eye(6)
        r = np.eye(2)
        sol = solve_dare(a, b, q, r)
        assert sol.residual < 1e-9
        assert spectral_radius(a - b @ sol.gain) < 1.0
        # Riccati equation residual directly, against the invariant bound.
        p = sol.cost_matrix
        rhs = a.T @ p @ a - a.T @ p @ b @ np.linalg.solve(r + b.T @ p @ b, b.T @ p @ a) + q
        assert np.linalg.norm(p - rhs) / np.linalg.norm(p) <= 1e-9
        assert np.allclose(p, p.T, atol=1e-10 * np.linalg.norm(p))
        assert np.min(np.linalg.eigvalsh(p)) > -1e-9


def test_dare_nonconvergence_reports_residual():
    # Uncontrollable unstable mode: no stabilizing solution exists.
    a = np.diag([1.5, 0.2])
    b = np.array([[0.0], [1.0]])
    with pytest.raises(DareNonConvergence) as exc:
        solve_dare(a, b, np.eye(2), np.eye(1), max_iter=50)
    assert exc.value.residual > 0.0
    assert exc.value.iterations == 50


def test_dare_warm_start_agrees_with_cold_start():
    rng = np.random.default_rng(123)
    a = rng.normal(size=(4, 4))
    a *= 0.8 / spectral_radius(a)
    b = rng.normal(size=(4, 2))
    cold = solve_dare(a, b, np.eye(4), np.eye(2))
    warm = solve_dare(a, b, np.eye(4), np.eye(2), p0=cold.cost_matrix + 1e-3)
    assert np.allclose(cold.cost_matrix, warm.cost_matrix, atol=1e-6)
    assert warm.iterations <= cold.iterations


def test_dare_leaves_its_inputs_unchanged():
    # The recursion starts from Q or P0 without copying them; it only rebinds
    # its iterate, so neither input changes and the result is a new array.
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 4))
    a *= 0.8 / spectral_radius(a)
    b, q, r = rng.normal(size=(4, 2)), np.eye(4), np.eye(2)
    p0 = 2.0 * np.eye(4)
    for warm in (None, p0):
        sol = solve_dare(a, b, q, r, p0=warm)
        assert sol.cost_matrix is not q and sol.cost_matrix is not p0
    assert np.array_equal(q, np.eye(4)) and np.array_equal(p0, 2.0 * np.eye(4))


def random_blade_stack(seed, n_stack=3, n=6, m=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_stack, n, n))
    a *= 0.9 / np.array([spectral_radius(x) for x in a])[:, None, None]
    b = rng.normal(size=(n_stack, n, m))
    q = np.stack([np.diag(rng.uniform(0.5, 2.0, size=n)) for _ in range(n_stack)])
    r = np.stack([np.diag(rng.uniform(0.5, 2.0, size=m)) for _ in range(n_stack)])
    return a, b, q, r


def block_diagonal(stack):
    n_stack, n, m = stack.shape
    out = np.zeros((n_stack * n, n_stack * m))
    for i, block in enumerate(stack):
        out[i * n:(i + 1) * n, i * m:(i + 1) * m] = block
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_dare_matches_block_diagonal_solve(seed):
    # A stack of problems iterates as the block-diagonal system they form:
    # same gain, same iteration count, same (whole-stack) residual.
    a, b, q, r = random_blade_stack(seed)
    stacked = solve_dare(a, b, q, r)
    dense = solve_dare(*(block_diagonal(x) for x in (a, b, q, r)))
    gain = block_diagonal(stacked.gain)
    assert stacked.gain.shape == (3, 2, 6)
    assert np.linalg.norm(gain - dense.gain) <= 1e-12 * np.linalg.norm(dense.gain)
    assert stacked.iterations == dense.iterations
    # The residual is a difference of nearly equal iterates over their norm,
    # so rounding shows in it magnified by about 1 / tol = 1e9.
    assert stacked.residual == pytest.approx(dense.residual, rel=1e-6)
    assert np.allclose(block_diagonal(stacked.cost_matrix), dense.cost_matrix,
                       rtol=1e-12, atol=1e-12 * np.abs(dense.cost_matrix).max())


def test_stacked_dare_with_one_unstabilizable_slice_fails():
    a, b, q, r = random_blade_stack(4, m=1)
    # Slice 1: an unstable mode the input cannot reach.
    a[1] = np.diag([1.5, 0.2, 0.1, 0.0, 0.3, 0.4])
    b[1] = 0.0
    b[1, 1:, 0] = 1.0
    with pytest.raises(DareNonConvergence) as exc:
        solve_dare(a, b, q, r, max_iter=80)
    assert exc.value.iterations == 80
    # The other slices alone converge.
    keep = [0, 2]
    assert solve_dare(a[keep], b[keep], q[keep], r[keep]).residual <= 1e-9


# ---------------------------------------------------------------------------
# Welch PSD
# ---------------------------------------------------------------------------

def integrated_power(psd):
    return float(np.trapezoid(psd.power, psd.frequencies))


def test_welch_sinusoid_parseval():
    fs = 100.0
    t = np.arange(0, 400.0, 1.0 / fs)
    a = 2.0
    x = a * np.sin(2.0 * np.pi * 0.16 * t)
    psd = welch_psd(x, fs)
    assert abs(integrated_power(psd) - a**2 / 2.0) <= 0.10 * (a**2 / 2.0)


def test_welch_white_noise_variance():
    fs = 100.0
    sigma = 1.7
    for seed in range(50):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, sigma, size=40000)
        psd = welch_psd(x, fs)
        assert abs(integrated_power(psd) - sigma**2) <= 0.15 * sigma**2


def test_welch_zero_signal():
    psd = welch_psd(np.zeros(4096), fs=100.0)
    assert np.all(psd.power == 0.0)


def test_welch_grid_and_positivity():
    rng = np.random.default_rng(2)
    psd = welch_psd(rng.normal(size=8192), fs=100.0)
    assert np.all(psd.power >= 0.0)
    assert np.all(np.diff(psd.frequencies) > 0.0)
    assert psd.frequencies[0] == 0.0
    assert psd.frequencies[-1] == 50.0


def test_welch_short_signal_error_names_length():
    with pytest.raises(ValueError, match="2048"):
        welch_psd(np.zeros(100), fs=100.0)


def test_welch_parseval_on_random_signals():
    fs = 50.0
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        # Band-limited-ish random signal: white noise through a moving average.
        x = np.convolve(rng.normal(size=30000), np.ones(5) / 5.0, mode="same")
        psd = welch_psd(x, fs, segment_length=1024)
        var = float(np.var(x))
        assert abs(integrated_power(psd) - var) <= 0.10 * var
