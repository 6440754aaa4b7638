"""Shared numerical kernels.

Information-form recursive least squares with exponential forgetting on
the information matrix S beside the estimate, one Gram product and one
solve per fold; Moore-Penrose
pseudo-inverse; a discrete algebraic Riccati solver based on the Riccati
difference recursion; and Welch spectral estimation. The RLS fold and the
Riccati solver accept stacks of independent problems along leading axes.

All functions are pure or return fresh state; nothing here holds shared
mutable state.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RlsState",
    "rls_update_batch",
    "pinv",
    "DareSolution",
    "DareNonConvergence",
    "solve_dare",
    "PsdEstimate",
    "welch_psd",
]


def _is_int(value) -> bool:
    """An int (Python or numpy), not a bool: the check for count-like settings."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _real(name: str, value) -> None:
    """Raise ValueError, naming the setting, unless value is a finite real
    number (Python or numpy) and not a bool: the check for float settings."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


# ---------------------------------------------------------------------------
# Recursive least squares (information form)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RlsState:
    """State of an exponentially weighted least-squares recursion.

    The information matrix S = lam^k * init_info * I + sum_t lam^(k-t)
    x_t x_t' (Haykin, Adaptive Filter Theory), positive definite through the
    decayed ridge, beside the estimate Theta, which solves
    S Theta' = sum_t lam^(k-t) x_t y_t' and is carried, not solved per read.

    Leading axes, if any, stack independent recursions that share lam (one
    per blade in the identification engine); they are folded together.

    Attributes:
        info: (..., n_reg, n_reg + n_out) the augmented matrix [S | Theta'];
            Theta is NaN for good once its S is not finite or invertible.
        lam: forgetting factor. Values at or below 0.9 are rejected; the
            recursion is meant for near-unity forgetting.
    """

    info: np.ndarray
    lam: float

    def __post_init__(self):
        if not (0.9 < self.lam <= 1.0):
            raise ValueError(
                f"forgetting factor must satisfy 0.9 < lambda <= 1, got {self.lam}"
            )

    @property
    def n_reg(self) -> int:
        return self.info.shape[-2]

    @property
    def n_out(self) -> int:
        return self.info.shape[-1] - self.n_reg

    @property
    def estimate(self) -> np.ndarray:
        """(..., n_out, n_reg) weighted least-squares solution Theta, a copy."""
        return self.info[..., self.n_reg:].mT.copy()

    @staticmethod
    def fresh(n_out: int, n_reg: int, lam: float, init_info: float = 1e-3,
              stack: tuple = ()) -> "RlsState":
        """Zero estimate with information matrix init_info * I, for each of
        the independent recursions indexed by `stack`."""
        if init_info <= 0.0:
            raise ValueError("init_info must be positive")
        info = np.zeros(stack + (n_reg, n_reg + n_out))
        info[..., :n_reg] = init_info * np.eye(n_reg)
        return RlsState(info=info, lam=float(lam))


def rls_update_batch(state: RlsState, regressors: np.ndarray, targets: np.ndarray) -> RlsState:
    """Fold a block of consecutive samples with one batched Gram product.

    regressors (..., m, n_reg) and targets (..., m, n_out) carry the state's
    leading axes; rows are ordered oldest first. The result is the exact
    exponentially weighted least-squares solution over all data seen so far
    (including the init_info ridge decayed by lam^k); folding the rows one
    at a time or in any split gives the same solution up to rounding. With
    the rows weighted once by W = diag(lam^(age/2)) and their residuals
    r = W (y - X Theta'), (W X)' [W X | r] gives S <- lam^m S + (W X)' W X
    and the correction Theta' += S^-1 (W X)' r. Solving for the correction
    from residuals, not for Theta from b, confines the rounding of S
    (cond(S) nears 1/eps on noise-free runs) to the correction.

    A recursion whose new S is not finite or invertible (rows beyond about
    1e154 overflow it) gets an all-NaN estimate, kept by later folds; the
    controller counts a failed DARE. The other stacked recursions keep theirs.
    """
    regressors = np.asarray(regressors, dtype=float)
    targets = np.asarray(targets, dtype=float)
    stack = state.info.shape[:-2]
    if regressors.ndim != len(stack) + 2 or targets.ndim != len(stack) + 2:
        raise ValueError(f"regressors and targets need shape {stack} + (rows, columns)")
    m = regressors.shape[-2]
    if targets.shape[-2] != m:
        raise ValueError("regressors and targets disagree on the number of rows")
    if (regressors.shape[:-2] != stack or targets.shape[:-2] != stack
            or regressors.shape[-1] != state.n_reg or targets.shape[-1] != state.n_out):
        raise ValueError("batch dimensions do not match the RLS state")
    n_reg = state.n_reg
    weights = np.power(state.lam, np.arange(m - 1, -1, -1, dtype=float) / 2.0)  # newest last
    rows = weights[:, None] * np.concatenate([regressors, targets], axis=-1)
    if not np.isfinite(rows).all():  # so are the inputs: 0 < weight <= 1
        raise ValueError("batch contains non-finite entries")
    theta = state.info[..., n_reg:]
    with np.errstate(over="ignore", invalid="ignore"):
        rows[..., n_reg:] -= rows[..., :n_reg] @ theta
        info = rows[..., :n_reg].mT @ rows
        info[..., :n_reg] += state.lam ** m * state.info[..., :n_reg]
        info[..., n_reg:] = theta + _solve_or_nan(info[..., :n_reg], info[..., n_reg:])
    return RlsState(info=info, lam=state.lam)


def _solve_or_nan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the stacked systems a x = b; all-NaN x for each one whose a is
    singular or not finite, the others solved as if alone."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        if a.ndim == 2:
            return np.full(b.shape, np.nan)
        return np.stack([_solve_or_nan(ai, bi) for ai, bi in zip(a, b)])


# ---------------------------------------------------------------------------
# Moore-Penrose pseudo-inverse
# ---------------------------------------------------------------------------

def pinv(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse via SVD.

    Singular values at or below 1e-12 * max(m.shape) * sigma_max are
    treated as zero. An all-zero matrix maps to an all-zero pseudo-inverse.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("pinv requires a finite matrix")
    if m.size == 0:
        return np.zeros(m.T.shape)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    cutoff = 1e-12 * max(m.shape) * s[0]
    inv_s = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vt.T * inv_s) @ u.T


# ---------------------------------------------------------------------------
# Discrete algebraic Riccati equation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DareSolution:
    """Converged Riccati solution: cost matrix, gain, and diagnostics."""

    cost_matrix: np.ndarray
    gain: np.ndarray
    residual: float
    iterations: int


class DareNonConvergence(RuntimeError):
    """Riccati recursion did not meet the residual tolerance.

    Carries the last iterate so callers can decide to reuse a previous gain.
    """

    def __init__(self, residual: float, iterations: int):
        super().__init__(
            f"DARE recursion not converged after {iterations} iterations "
            f"(relative residual {residual:.3e})"
        )
        self.residual = residual
        self.iterations = iterations


def solve_dare(a, b, q, r, tol: float = 1e-9, max_iter: int = 500,
               p0: np.ndarray | None = None) -> DareSolution:
    """Solve P = A'PA - A'PB(R + B'PB)^-1 B'PA + Q by fixed-point iteration.

    Starts from P0 = Q (or a supplied warm start) and iterates the Riccati
    difference recursion until the relative residual
    ||P - f(P)||_F / ||P||_F drops below tol. Returns the stabilizing gain
    K = (R + B'PB)^-1 B'PA of the last iterate, within tol of the fixed
    point. Raises DareNonConvergence if the tolerance is not met within
    max_iter, which happens in particular when (A, B) is not stabilizable.

    Inputs may stack independent problems along leading axes, (..., n, n)
    etc. They iterate together under one Frobenius residual taken over the
    whole stack, which is the residual of the block-diagonal system they
    form; so the stack converges or fails as that one system would.
    """
    a, b, q, r = (np.asarray(m, dtype=float) for m in (a, b, q, r))
    p = q if p0 is None else np.asarray(p0, dtype=float)
    residual = np.inf
    # An iterate that overflows is reported by the non-finite check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iter + 1):
            bp, ap = b.mT @ p, a.mT @ p
            gain = np.linalg.solve(r + bp @ b, bp @ a)
            p_next = q + ap @ a - ap @ b @ gain
            p_next = 0.5 * (p_next + p_next.mT)
            denom = max(np.linalg.norm(p_next), 1e-300)
            residual = np.linalg.norm(p_next - p) / denom
            p = p_next
            if residual <= tol:
                return DareSolution(cost_matrix=p, gain=gain, residual=residual, iterations=it)
            if not np.isfinite(p).all():
                raise DareNonConvergence(float("inf"), it)
    raise DareNonConvergence(residual, max_iter)


# ---------------------------------------------------------------------------
# Welch power spectral density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsdEstimate:
    """One-sided averaged-periodogram PSD.

    power integrates (trapezoidally) to approximately the signal variance;
    frequencies run from 0 to fs/2 inclusive.
    """

    frequencies: np.ndarray
    power: np.ndarray


def welch_psd(signal: np.ndarray, fs: float, segment_length: int = 2048) -> PsdEstimate:
    """Averaged modified periodogram (one-sided), deterministic for fixed input.

    Each segment is mean-detrended and Hann-windowed; segments overlap by
    half and are averaged. segment_length must be even so the frequency
    grid spans [0, fs/2] exactly.
    """
    signal = np.asarray(signal, dtype=float).reshape(-1)
    n = signal.shape[0]
    if segment_length % 2 != 0 or segment_length < 4:
        raise ValueError("segment_length must be an even integer >= 4")
    if n < segment_length:
        raise ValueError(
            f"signal of length {n} is too short: at least {segment_length} samples required"
        )

    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment_length) / segment_length)
    step = segment_length // 2
    n_segments = 1 + (n - segment_length) // step
    scale = 1.0 / (fs * np.sum(window**2))

    accum = np.zeros(segment_length // 2 + 1)
    for s in range(n_segments):
        seg = signal[s * step: s * step + segment_length]
        seg = seg - seg.mean()
        spec = np.fft.rfft(window * seg)
        accum += (spec.real**2 + spec.imag**2) * scale
    accum /= n_segments
    # One-sided: double everything except DC and Nyquist.
    accum[1:-1] *= 2.0
    freqs = np.fft.rfftfreq(segment_length, d=1.0 / fs)
    return PsdEstimate(frequencies=freqs, power=accum)
