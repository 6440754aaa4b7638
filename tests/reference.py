"""Dense MIMO reference for the controller's model projection (test oracle).

This is the lifted one-rotation predictor built as full P x P block
matrices over all three blades, and its projection onto the Kronecker
basis phi = u_f (x) I_3. The package projects per blade instead
(`ipcsim.control.projected_blocks`); this path stays as the oracle for the
predictor-fidelity criterion, whose true plant has cross-blade input
coupling, and for the per-blade equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ipcsim.control import BasisProjection
from ipcsim.numerics import pinv
from ipcsim.sysid import MarkovEstimate

N_BLADES = 3


def kron_basis(basis: BasisProjection):
    """(phi, phi_pinv) for three blades: phi = u_f (x) I_3."""
    phi = np.kron(basis.u_f, np.eye(N_BLADES))
    return phi, pinv(phi)


def markov_blocks(rows: np.ndarray):
    """Diagonal (p, 3, 3) block sequences (M_u[j] = C A~^j B, M_y[j] = C A~^j L)
    from (3, 2p) per-blade Markov rows.

    Index j is the output lag minus one: M_u[0] = CB multiplies the most
    recent input. Off-diagonal coupling is not modelled (per-blade SISO).
    """
    p = rows.shape[1] // 2
    mu = np.zeros((p, N_BLADES, N_BLADES))
    my = np.zeros((p, N_BLADES, N_BLADES))
    for i in range(N_BLADES):
        # Row layout is oldest-lag first: entry m holds C A~^(p-1-m) (.)
        mu[:, i, i] = rows[i, :p][::-1]
        my[:, i, i] = rows[i, p:][::-1]
    return mu, my


@dataclass(frozen=True)
class LiftedModel:
    """One-rotation-ahead predictor in lifted form.

    dY[next rot] = gamma_ku dU[this rot] + gamma_ky dY[this rot]
                 + h_hat dU[next rot]

    h_hat is strictly block-lower-triangular (causality); the leading
    (P - p) * r columns of gamma_ku are zero (finite predictor memory).
    """

    gamma_ku: np.ndarray
    gamma_ky: np.ndarray
    h_hat: np.ndarray
    period: int
    p: int


def markov_blocks_from_xi(xi: np.ndarray, p: int, n_in: int = N_BLADES,
                          n_out: int = N_BLADES):
    """Split an oracle-format Markov matrix into (p, l, r) / (p, l, l) blocks.

    xi columns run oldest lag first: block m is C A~^(p-1-m) B, so block
    index j (= lag - 1) reads from position p - 1 - j.
    """
    xi = np.asarray(xi, dtype=float)
    mu = np.empty((p, n_out, n_in))
    my = np.empty((p, n_out, n_out))
    for j in range(p):
        m = p - 1 - j
        mu[j] = xi[:, m * n_in:(m + 1) * n_in]
        my[j] = xi[:, p * n_in + m * n_out: p * n_in + (m + 1) * n_out]
    return mu, my


def _resolve_blocks(est, p: int):
    if isinstance(est, MarkovEstimate):
        if est.p != p:
            raise ValueError(f"estimate window p={est.p} does not match requested p={p}")
        mu, my = markov_blocks(est.rows)
    else:
        mu, my = est
        mu = np.asarray(mu, dtype=float)
        my = np.asarray(my, dtype=float)
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(my))):
        raise ValueError("Markov blocks contain non-finite entries")
    return mu, my


def _band_matrix(blocks: np.ndarray, period: int, offsets) -> np.ndarray:
    """Block matrix with blocks[j] on block-diagonal offset offsets[j]."""
    p, l, r = blocks.shape
    out = np.zeros((period * l, period * r))
    view = out.reshape(period, l, period, r)
    rows_all = np.arange(period)
    for j, off in enumerate(offsets):
        if off >= 0:
            rows = rows_all[: period - off]
            cols = rows + off
        else:
            rows = rows_all[-off:]
            cols = rows + off
        if rows.size:
            view[rows, :, cols, :] = blocks[j]
    return out


def _toeplitz_parts(mu, my, period, p):
    """(Gamma~ K_u, Gamma~ K_y, H~) from truncated Markov blocks."""
    # Gamma~ K_u block (s, m) = C A~^(s + P - 1 - m) B: offset P - 1 - j for lag j.
    gku = _band_matrix(mu, period, [period - 1 - j for j in range(p)])
    gky = _band_matrix(my, period, [period - 1 - j for j in range(p)])
    # H~ block (s, m) = C A~^(s - m - 1) B: strictly lower, offset -(j + 1).
    h_t = _band_matrix(mu, period, [-(j + 1) for j in range(p)])
    return gku, gky, h_t


def _forward_substitute(my: np.ndarray, rhs: np.ndarray, period: int) -> np.ndarray:
    """Solve (I - G~) X = rhs by block forward substitution.

    G~ is strictly block-lower-triangular with band blocks my[d-1] at lag d,
    so I - G~ is unit triangular and the substitution is exact: zero
    patterns of rhs above the band propagate untouched into X.
    """
    p, l, _ = my.shape
    # Wide row [my[p-1] ... my[0]] aligned with ascending history blocks.
    wide = np.hstack(list(my[::-1]))
    x = rhs.copy()
    for s in range(1, period):
        d = min(s, p)
        x[s * l:(s + 1) * l] += wide[:, (p - d) * l:] @ x[(s - d) * l: s * l]
    return x


def assemble_lifted(est, period: int, p: int) -> LiftedModel:
    """Expand Markov parameters into the corrected lifted predictor.

    The output recursion correction (I - G~)^-1 is applied by solving the
    unit-lower-triangular system rather than forming the inverse. est may be
    a MarkovEstimate or a (mu, my) pair of (p, l, r)/(p, l, l) block arrays
    (e.g. from markov_blocks_from_xi for oracle parameters).
    """
    mu, my = _resolve_blocks(est, p)
    gku, gky, h_t = _toeplitz_parts(mu, my, period, p)
    rhs = np.hstack([gku, gky, h_t])
    sol = _forward_substitute(my, rhs, period)
    if not np.all(np.isfinite(sol)):
        raise ValueError("lifted-model triangular solve produced non-finite values")
    n_u = gku.shape[1]
    n_y = gky.shape[1]
    return LiftedModel(
        gamma_ku=sol[:, :n_u],
        gamma_ky=sol[:, n_u:n_u + n_y],
        h_hat=sol[:, n_u + n_y:],
        period=period,
        p=p,
    )


def predict_lifted(lifted: LiftedModel, du_prev: np.ndarray, dy_prev: np.ndarray,
                   du_curr: np.ndarray) -> np.ndarray:
    """One-rotation-ahead output prediction from rotation-aligned windows.

    Windows are sample-major (P, channels) or already stacked; returns the
    stacked (P * l,) prediction for the next rotation.
    """
    return (
        lifted.gamma_ku @ np.asarray(du_prev, dtype=float).reshape(-1)
        + lifted.gamma_ky @ np.asarray(dy_prev, dtype=float).reshape(-1)
        + lifted.h_hat @ np.asarray(du_curr, dtype=float).reshape(-1)
    )


def _bar_matrices(t_u, t_y, h_bar):
    nc = ncy = 4 * N_BLADES
    dim = 2 * ncy + nc
    a_bar = np.zeros((dim, dim))
    a_bar[:ncy, :ncy] = np.eye(ncy)
    a_bar[:ncy, ncy:ncy + nc] = t_u
    a_bar[:ncy, ncy + nc:] = t_y
    a_bar[ncy + nc:, ncy:ncy + nc] = t_u
    a_bar[ncy + nc:, ncy + nc:] = t_y
    b_bar = np.vstack([h_bar, np.eye(nc), h_bar])
    return a_bar, b_bar


def project_state_space(lifted: LiftedModel, basis: BasisProjection):
    """Rotation-level state-space pair (A_bar, B_bar) on [Ybar; dtheta; dYbar].

    A_bar is (8l + 4r) square (36 x 36 for the three-blade case); the middle
    block row is zero and B_bar's middle block is the identity.
    """
    phi, phi_pinv = kron_basis(basis)
    t_u = phi_pinv @ lifted.gamma_ku @ phi
    t_y = phi_pinv @ lifted.gamma_ky @ phi
    h_bar = phi_pinv @ lifted.h_hat @ phi
    return _bar_matrices(t_u, t_y, h_bar)
