"""Repetitive control synthesis on the identified per-blade model.

The model has the structure the identification gives it: three decoupled
SISO blade predictors. Per rotation, each blade's Markov row is correlated
with the 1P/2P sine/cosine basis (two shifted copies of u_f: the previous
rotation's inputs and the current rotation's), the p-tap output recursion
is run on the 12 resulting columns in blocks of p samples (one p x p
in-block inverse and one carry matrix per blade and rotation), and the
result is projected with pinv(u_f). That gives each blade's 4 x 4 blocks
T_u, T_y and H_bar of the one-rotation predictor in coefficient space,
without forming the lifted P x P response matrices. Each blade's blocks
make its own 12-state rotation-level pair (A_bar, B_bar) on
[Ybar; dtheta; dYbar], and the three pairs are closed together by one
stacked Riccati recursion with a (4 x 12) state-feedback gain per blade;
the controller holds the pairs and rewrites only their T_u, T_y and H_bar
blocks. The per-rotation coefficient update is, per blade,

    theta[j+1] = alpha * theta[j] - beta * K_f [Ybar[j]; dtheta[j]; dYbar[j]]

with restricted excitation added in coefficient space, so the commanded
pitch only ever carries 1P and 2P content.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .numerics import DareNonConvergence, _is_int, _real, pinv, solve_dare
from .plant import N_BLADES, azimuth
from .sysid import IdentificationEngine

__all__ = [
    "BasisProjection",
    "build_basis",
    "rotation_commands",
    "project_output",
    "shifted_bases",
    "projected_blocks",
    "update_theta",
    "ExcitationGenerator",
    "ControllerTuning",
    "LOG_COLUMNS",
    "RepetitiveController",
]

N_HARM = 4  # 1P sin, 1P cos, 2P sin, 2P cos
N_COEFF = N_HARM * N_BLADES

# One row of `RepetitiveController.log` per rotation, in this order;
# `dare_iterations` comes last, so the y_bar block keeps its columns.
LOG_COLUMNS = (("rotation", "theta_norm", "delta_theta_norm", "dare_residual",
                "dare_failures", "clamp_events")
               + tuple(f"y_bar_{i}" for i in range(N_COEFF)) + ("dare_iterations",))


# ---------------------------------------------------------------------------
# Basis projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BasisProjection:
    """1P/2P sine/cosine basis over one rotation and its pseudo-inverse.

    u_f rows are [sin psi, cos psi, sin 2 psi, cos 2 psi] at
    psi_k = 2 pi k / P for k = 1..P (the final row sits exactly at 2 pi).
    Coefficient vectors over the three blades are harmonic-major: entry
    3 h + b holds harmonic h of blade b, i.e. [1P-sin (3), 1P-cos (3),
    2P-sin (3), 2P-cos (3)].
    """

    u_f: np.ndarray
    u_f_pinv: np.ndarray
    period: int


def build_basis(period: int) -> BasisProjection:
    if period < 8:
        raise ValueError("period must be >= 8 to resolve the 2P harmonic")
    psi = azimuth(period)
    u_f = np.column_stack([np.sin(psi), np.cos(psi), np.sin(2 * psi), np.cos(2 * psi)])
    return BasisProjection(u_f=u_f, u_f_pinv=pinv(u_f), period=period)


def rotation_commands(basis: BasisProjection, coeffs: np.ndarray) -> np.ndarray:
    """(P, 3) command block for one rotation from basis-space coefficients."""
    return basis.u_f @ np.asarray(coeffs, dtype=float).reshape(N_HARM, N_BLADES)


def project_output(y_period: np.ndarray, basis: BasisProjection) -> np.ndarray:
    """1P/2P sine/cosine coefficients of one rotation of outputs.

    Accepts the stacked (3P,) vector or a (P, 3) block, sample-major.
    """
    y = np.asarray(y_period, dtype=float)
    if y.size != basis.period * N_BLADES:
        raise ValueError(
            f"expected one full rotation of outputs ({basis.period * N_BLADES} values), "
            f"got {y.size}"
        )
    return (basis.u_f_pinv @ y.reshape(basis.period, N_BLADES)).reshape(-1)


# ---------------------------------------------------------------------------
# Per-blade projected model
# ---------------------------------------------------------------------------

def shifted_bases(u_f: np.ndarray, p: int):
    """(prev, curr, band): what `projected_blocks` needs of the basis for a
    p-tap Markov row, built once per controller and only read after. Needs
    1 <= p < P.

    prev, curr: (p, S, 4) copies of u_f aligned with an oldest-first row,
    over the rotation's P samples zero-padded to S, a whole number of
    blocks of p. Row entry m weighs the sample p - m steps back, so at
    sample s of a rotation it reads sample s + m - p. Where that index is
    negative the sample lies in the previous rotation: `prev[m, s]` holds
    u_f at the wrapped index and `curr[m, s]` is zero. Otherwise `curr`
    holds it and `prev` is zero.

    band: (p, 2p) gather index of the output recursion seen from one block
    of p samples. Entry [i, c] is the row entry that weighs column c of
    [previous block | this block] at sample i of this block, or p (a zero
    tap) where the recursion does not reach.
    """
    period = u_f.shape[0]
    if not 1 <= p < period:
        raise ValueError(f"predictor window must satisfy 1 <= p < P={period}, got {p}")
    samples = np.arange(-(-period // p) * p)
    k = np.arange(p)[:, None] + samples[None, :] - p
    wrapped = np.where((samples < period)[:, None], u_f[k % period], 0.0)
    before = (k < 0)[..., None]
    lag = np.arange(2 * p)[None, :] - np.arange(p)[:, None]
    band = np.where((lag >= 0) & (lag < p), lag, p)
    return np.where(before, wrapped, 0.0), np.where(before, 0.0, wrapped), band


def projected_blocks(rows: np.ndarray, shifts, basis: BasisProjection):
    """Per-blade (3, 4, 4) blocks (T_u, T_y, H_bar) from (3, 2p) Markov rows.

    Blade b predicts the next rotation's output differences as
    (I - G_b)^-1 (Gamma_u,b dU_prev + Gamma_y,b dY_prev + H_b dU_next), with
    G_b the strictly causal output recursion. With inputs and outputs
    restricted to the basis, the Gamma/H products are the rows correlated
    with the shifted bases. The recursion runs over the rotation in blocks
    of p samples on all 12 columns at once, batched over the blades: within
    a block it is the inverse of a unit lower-triangular p x p matrix,
    across blocks a carry from the previous block. pinv(u_f) projects the
    result back to coefficients.
    """
    prev, curr, band = shifts
    p, n_samples = prev.shape[:2]
    row_u, row_y = rows[:, :p], rows[:, p:]
    # x[b, s]: blade b, sample s, columns [T_u | T_y | H_bar] before projection.
    x = np.concatenate([(row @ shift.reshape(p, -1)).reshape(N_BLADES, n_samples, N_HARM)
                        for row, shift in ((row_u, prev), (row_y, prev), (row_u, curr))],
                       axis=2)
    # band_taps[b]: blade b's recursion over [previous block | this block].
    taps = np.concatenate([row_y, np.zeros((N_BLADES, 1))], axis=1)  # zero tap at index p
    band_taps = np.take(taps, band, axis=1)
    try:
        in_block = np.linalg.inv(np.eye(p) - band_taps[:, :, p:])
    except np.linalg.LinAlgError:  # taps so large the elimination underflows
        in_block = np.full((N_BLADES, p, p), np.nan)
    carry = in_block @ band_taps[:, :, :p]
    x = in_block[:, None] @ x.reshape(N_BLADES, n_samples // p, p, -1)
    for j in range(1, n_samples // p):
        x[:, j] += carry @ x[:, j - 1]
    proj = basis.u_f_pinv @ x.reshape(N_BLADES, n_samples, -1)[:, :basis.period]
    return proj[..., :4], proj[..., 4:8], proj[..., 8:]


# ---------------------------------------------------------------------------
# Theta update
# ---------------------------------------------------------------------------

def update_theta(theta: np.ndarray, gain: np.ndarray, y_bar: np.ndarray,
                 delta_theta: np.ndarray, delta_y_bar: np.ndarray,
                 tuning: ControllerTuning):
    """theta[j+1] = alpha theta[j] - beta K_f [Ybar; dtheta; dYbar], clamped.

    Returns (theta_next, clamped): whether the clamp acted. Coefficient
    vectors are (4 harmonic x 3 blade) arrays flattened in C order
    (harmonic-major); blade b's gain[b] (4 x 12) acts on [Ybar[:, b];
    dtheta[:, b]; dYbar[:, b]]. The infinity-norm clamp at
    tuning.theta_cap_deg stands in for real actuator limits.
    """
    # blade_states[b] is blade b's 12-state column.
    blade_states = np.reshape((y_bar, delta_theta, delta_y_bar), (3 * N_HARM, N_BLADES)).T
    feedback = (gain @ blade_states[:, :, None])[:, :, 0].T.reshape(-1)
    theta_next = tuning.alpha * theta - tuning.beta * feedback
    capped = np.clip(theta_next, -tuning.theta_cap_deg, tuning.theta_cap_deg)
    return capped, bool((capped != theta_next).any())


# ---------------------------------------------------------------------------
# Excitation
# ---------------------------------------------------------------------------

EXCITATION_POLE = 0.8  # one-pole filter of the restricted excitation, per rotation
# Broadband uftipc excitation: low-pass cutoff and bit hold time.
UFTIPC_CUTOFF_HZ = 1.0
UFTIPC_BIT_TIME_S = 1.0


class ExcitationGenerator:
    """Filtered pseudo-random binary excitation of a whole run.

    One independent +-1 stream per channel (distinct child seeds of `seed`),
    each bit held for `hold` steps counted from step 0 of the run and
    smoothed by the one-pole filter z = pole z + (1 - pole) bit. Rounding is
    monotone, so |z| <= 1 and |eta| <= amplitude hold exactly. The defaults
    are the restricted excitation: one step per rotation in the N_COEFF
    basis coefficients, slow enough that the commanded spectrum stays near
    1P/2P. `broadband` builds the uftipc pitch noise. The run's `rotations`
    are drawn and filtered at construction, with one draw per channel and
    one pass of the filter over plain floats; `sample(j)` reads rotation j.
    """

    def __init__(self, amplitude: float, seed, rotations: int, channels: int = N_COEFF,
                 steps: int = 1, hold: int = 1, pole: float = EXCITATION_POLE):
        if amplitude < 0.0:
            raise ValueError("amplitude must be non-negative")
        self.steps, self.hold = steps, hold
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        n = rotations * steps
        self._rows = np.empty((n, channels))
        for c, s in enumerate(seed.spawn(channels)):
            bits = 2 * np.random.default_rng(s).integers(0, 2, size=-(-n // hold)) - 1
            z, col = 0.0, []
            for bit in bits.tolist():
                w = (1.0 - pole) * bit
                for _ in range(hold):
                    z = pole * z + w
                    col.append(z)
            self._rows[:, c] = col[:n]  # the last bit may be held past the run
        self._rows *= amplitude
        self._rows.flags.writeable = False  # `sample` hands out views of it

    @classmethod
    def broadband(cls, amplitude: float, seed, dt: float, period: int,
                  rotations: int) -> ExcitationGenerator:
        """uftipc per-sample pitch noise on the three blades: bits held for
        UFTIPC_BIT_TIME_S, low-pass filtered at UFTIPC_CUTOFF_HZ."""
        return cls(amplitude, seed, rotations, channels=N_BLADES, steps=period,
                   hold=max(1, round(UFTIPC_BIT_TIME_S / dt)),
                   pole=float(np.exp(-2.0 * np.pi * UFTIPC_CUTOFF_HZ * dt)))

    def sample(self, j: int) -> np.ndarray:
        """(steps, channels) excitation of rotation j, read-only."""
        return self._rows[j * self.steps:(j + 1) * self.steps]


# ---------------------------------------------------------------------------
# Orchestrating controller
# ---------------------------------------------------------------------------

@dataclass
class ControllerTuning:
    """Shipped defaults; overridable per load case. Every field is checked
    at construction (finite, in range, an int where one is meant)."""

    alpha: float = 1.0
    beta: float = 0.3
    q_y: float = 1.0
    q_dtheta: float = 0.0
    q_dy: float = 1.0
    r_scale: float = 5e-7
    excitation_amplitude: float = 0.1
    warmup_rotations: int = 20
    theta_cap_deg: float = 4.0
    forgetting: float = 0.99999
    dare_tol: float = 1e-9
    dare_max_iter: int = 500

    def __post_init__(self):
        for f in fields(self):
            _real(f"tuning.{f.name}", getattr(self, f.name))
        for name in ("warmup_rotations", "dare_max_iter"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"tuning.{name} must be an integer, got {getattr(self, name)!r}")
        rules = (
            ("alpha", 0.0 <= self.alpha <= 1.0, "lie in [0, 1]"),
            ("beta", 0.0 <= self.beta <= 1.0, "lie in [0, 1]"),
            ("q_y", self.q_y >= 0.0, "be >= 0"),
            ("q_dtheta", self.q_dtheta >= 0.0, "be >= 0"),
            ("q_dy", self.q_dy >= 0.0, "be >= 0"),
            ("r_scale", self.r_scale > 0.0, "be > 0"),
            ("excitation_amplitude", self.excitation_amplitude >= 0.0, "be >= 0"),
            ("warmup_rotations", self.warmup_rotations >= 0, "be >= 0"),
            ("theta_cap_deg", self.theta_cap_deg > 0.0, "be > 0"),
            ("forgetting", 0.9 < self.forgetting <= 1.0, "lie in (0.9, 1]"),
            ("dare_tol", self.dare_tol > 0.0, "be > 0"),
            ("dare_max_iter", self.dare_max_iter >= 1, "be >= 1"),
        )
        for name, ok, rule in rules:
            if not ok:
                raise ValueError(f"tuning.{name} must {rule}, got {getattr(self, name)!r}")


class RepetitiveController:
    """Per-rotation adaptive repetitive controller.

    Drives the identification engine on the recorded histories, rebuilds
    the projected model and gain once per rotation (warm-starting the
    Riccati recursion from the previous cost matrix), and updates the
    coefficient vector. Excitation stays on for the entire run of `rotations`:
    the restricted excitation, or `broadband` in its place (uftipc).
    """

    def __init__(self, p: int, period: int, tuning: ControllerTuning, seed: int,
                 rotations: int, broadband: ExcitationGenerator | None = None):
        self.p = p
        self.period = period
        self.tuning = tuning
        self.basis = build_basis(period)
        self._shifts = shifted_bases(self.basis.u_f, p)
        self.engine = IdentificationEngine(p, period, lam=tuning.forgetting)
        self.excitation = (ExcitationGenerator(tuning.excitation_amplitude, seed, rotations)
                           if broadband is None else None)
        self.broadband = broadband
        q = np.diag([tuning.q_y] * N_HARM + [tuning.q_dtheta] * N_HARM + [tuning.q_dy] * N_HARM)
        self.q = np.broadcast_to(q, (N_BLADES,) + q.shape)
        self.r = np.broadcast_to(tuning.r_scale * np.eye(N_HARM), (N_BLADES, N_HARM, N_HARM))
        # Per-blade (A_bar, B_bar) on [Ybar; dtheta; dYbar], which no solve_dare
        # result refers to; each rotation rewrites their T_u, T_y, H_bar blocks.
        self._a_bar = np.zeros((N_BLADES, 3 * N_HARM, 3 * N_HARM))
        self._a_bar[:, :N_HARM, :N_HARM] = np.eye(N_HARM)
        self._b_bar = np.zeros((N_BLADES, 3 * N_HARM, N_HARM))
        self._b_bar[:, N_HARM:2 * N_HARM] = np.eye(N_HARM)
        self.theta = np.zeros(N_COEFF)
        self.delta_theta = np.zeros(N_COEFF)
        self.gain = np.zeros((N_BLADES, N_HARM, 3 * N_HARM))  # kept while the DARE fails
        self.clamp_events = 0
        self.dare_failures = 0
        self.log: list[list] = []  # one row per rotation, columns as LOG_COLUMNS
        self._y_bar_prev = None
        self._p_warm = None
        self._last_residual = np.nan

    def rotation_commands(self, j: int) -> np.ndarray:
        """(P, 3) commanded pitch for rotation j from the current theta."""
        if self.broadband is None:
            return rotation_commands(self.basis, self.theta + self.excitation.sample(j)[0])
        return rotation_commands(self.basis, self.theta) + self.broadband.sample(j)

    def finish_rotation(self, j: int, u_hist: np.ndarray, y_hist: np.ndarray) -> None:
        """Identification + model + gain + theta update at a rotation boundary.

        u_hist / y_hist are run-length history arrays holding samples
        [0, (j+1) P). A Riccati recursion that does not converge keeps the
        previous gain (zero before the first success) and is counted. The
        log records the rotation's Riccati iterations, 0 before warm-up.
        """
        upto = (j + 1) * self.period
        self.engine.ingest(u_hist, y_hist, upto)
        y_bar = project_output(y_hist[j * self.period: upto], self.basis)
        delta_y_bar = (np.zeros(N_COEFF) if self._y_bar_prev is None
                       else y_bar - self._y_bar_prev)

        iterations = 0
        if j + 1 > self.tuning.warmup_rotations:
            t_u, t_y, h_bar = projected_blocks(self.engine.rows, self._shifts, self.basis)
            a_bar, b_bar, n = self._a_bar, self._b_bar, N_HARM
            a_bar[:, :n, n:2 * n] = a_bar[:, 2 * n:, n:2 * n] = t_u
            a_bar[:, :n, 2 * n:] = a_bar[:, 2 * n:, 2 * n:] = t_y
            b_bar[:, :n] = b_bar[:, 2 * n:] = h_bar
            try:
                sol = solve_dare(a_bar, b_bar, self.q, self.r, tol=self.tuning.dare_tol,
                                 max_iter=self.tuning.dare_max_iter, p0=self._p_warm)
            except DareNonConvergence as exc:
                self.dare_failures += 1
                iterations = exc.iterations
            else:
                self.gain, self._p_warm = sol.gain, sol.cost_matrix
                self._last_residual = sol.residual
                iterations = sol.iterations
            theta, clamped = update_theta(self.theta, self.gain, y_bar, self.delta_theta,
                                          delta_y_bar, self.tuning)
            self.theta, self.delta_theta = theta, theta - self.theta
            self.clamp_events += clamped

        self._y_bar_prev = y_bar
        self.log.append([
            j, float(np.linalg.norm(self.theta)), float(np.linalg.norm(self.delta_theta)),
            float(self._last_residual), self.dare_failures, self.clamp_events,
            *y_bar.tolist(), iterations,
        ])
