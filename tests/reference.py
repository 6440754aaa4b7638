"""Reference implementations kept as test oracles.

Per-sample twins of the package's batched paths: a ring buffer serving
rotor-period differences and per-blade regressors, one-sample RLS and
identification steps, the square-root (QR) RLS fold on the factor [R | z]
(`rls_fold_qr`, and `qr_rls_update_batch`, which runs a load case on it),
the actuator fault map applied per sample
(`apply_actuator_fault`), a one-sample plant step, the plant block advanced one
sample at a time (`advance_block_loop`), the jittered periodic disturbance
stepped one sample at a time (`jittered_periodic_block_loop`), the uftipc
broadband excitation drawn and filtered one sample at a time from its seed
(`broadband_loop`), the Coleman transform pair (`coleman_forward`,
`coleman_inverse`) and one sample of MBC-IPC.
The package folds a whole rotation at once (`IdentificationEngine.ingest`,
`SurrogatePlant.advance_block`, `ipcsim.baselines.mbc_ipc_span`); these
stay the oracles for the equivalence tests and the acceptance criteria.
`projected_blocks_loop` is the sample-by-sample twin of the controller's
blocked output recursion. `AllocatingController` is the controller's
rotation step as it was before the controller and its identification engine
worked in place: every intermediate allocated (`rls_fold_concatenating`,
`projected_blocks_concatenating`, `bar_matrices`,
`update_theta_concatenating`, `solve_dare_unshared`); the shipped step must
match it bit for bit.

The dense MIMO reference for the controller's model projection: the lifted
one-rotation predictor built as full P x P block matrices over all three
blades, and its projection onto the Kronecker basis phi = u_f (x) I_3. The
package projects per blade instead (`ipcsim.control.projected_blocks`);
this path stays as the oracle for the predictor-fidelity criterion, whose
true plant has cross-blade input coupling, and for the per-blade
equivalence tests.

Ground truth and analysis helpers that the package itself never calls:
`dense_matrices`, the plant's per-blade arrays assembled into the dense
MIMO matrices (block-diagonal A, C and L, and B with its cross-blade input
coupling), on which the helpers below work; `a_tilde` (the predictor-form
transition A - L C) and `dc_gain_matrix` of a plant, the exact predictor
Markov parameters `markov_oracle` and its per-blade row
`markov_oracle_siso`, `relative_errors` of an identification engine against
that oracle, `spectral_radius`, `per_rotation_band_power`, the
per-rotation 1P+2P load power of a series, and `series_time` and
`series_azimuth`, a run result's sample times and rotor azimuth rebuilt
from its config (a run stores neither).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ipcsim.baselines import KI, KP, LEAK, MbcIpcState
from ipcsim.control import (
    UFTIPC_BIT_TIME_S,
    UFTIPC_CUTOFF_HZ,
    BasisProjection,
    RepetitiveController,
    project_output,
)
from ipcsim.numerics import DareNonConvergence, DareSolution, RlsState, pinv, rls_update_batch
from ipcsim.plant import (
    BLADE_OFFSETS,
    N_BLADES,
    FaultScenario,
    _maybe_switch_blade_fault,
    azimuth,
    build_plant,
)

_CHANNELS = {"u1": ("u", 0), "u2": ("u", 1), "u3": ("u", 2),
             "y1": ("y", 0), "y2": ("y", 1), "y3": ("y", 2)}


# ---------------------------------------------------------------------------
# Per-sample twins
# ---------------------------------------------------------------------------

class PeriodicBuffer:
    """Ring storage of the last P + p samples of (u, y), addressed by the
    absolute sample index, serving rotor-period differences and regressors."""

    def __init__(self, period: int, window: int):
        if period < 1 or window < 1:
            raise ValueError("period and window must be positive")
        self.period = period
        self.window = window
        # One slot beyond P + p: the target sample k is pushed before the
        # window ending at k-1 (reaching back to k - P - p) is served.
        self.capacity = period + window + 1
        self._u = np.zeros((self.capacity, N_BLADES))
        self._y = np.zeros((self.capacity, N_BLADES))
        self._count = 0  # total samples pushed; sample k lives at k % capacity

    def push(self, u, y) -> int:
        """Append one sample; returns its absolute index."""
        k = self._count
        slot = k % self.capacity
        self._u[slot] = u
        self._y[slot] = y
        self._count += 1
        return k

    def _fetch(self, kind: str, blade0: int, k: int) -> float:
        if k < 0 or k >= self._count or k < self._count - self.capacity:
            raise ValueError(
                f"sample {k} not buffered (held range "
                f"[{max(0, self._count - self.capacity)}, {self._count - 1}])"
            )
        arr = self._u if kind == "u" else self._y
        return arr[k % self.capacity, blade0]

    def delta(self, channel: str, k: int) -> float:
        """s[k] - s[k-P] for the named channel ('u1'..'u3', 'y1'..'y3')."""
        if channel not in _CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        if k < self.period:
            raise ValueError(
                f"periodic difference needs k >= {self.period} (one full rotation of warm-up)"
            )
        kind, blade0 = _CHANNELS[channel]
        return self._fetch(kind, blade0, k) - self._fetch(kind, blade0, k - self.period)

    def regressor(self, blade: int, k: int) -> np.ndarray:
        """[du_i over (k-p, k] | dy_i over (k-p, k]], oldest first (length 2p)."""
        if blade not in (1, 2, 3):
            raise ValueError("blade must be 1, 2 or 3")
        p = self.window
        if k - p + 1 < self.period:
            raise ValueError(
                f"regressor at k={k} needs history back to sample {k - p + 1 - self.period}; "
                f"first valid k is {self.period + p - 1}"
            )
        u_chan, y_chan = f"u{blade}", f"y{blade}"
        out = np.empty(2 * p)
        for s in range(p):
            out[s] = self.delta(u_chan, k - p + 1 + s)
            out[p + s] = self.delta(y_chan, k - p + 1 + s)
        return out


def rls_update(state: RlsState, regressor, target):
    """One recursive least-squares step, as a one-row rls_update_batch.

    Returns the updated state together with its estimate.
    """
    new_state = rls_update_batch(state, np.reshape(regressor, (1, -1)),
                                 np.reshape(target, (1, -1)))
    return new_state, new_state.estimate


def identify_step(state: RlsState, regressors, dy) -> RlsState:
    """One identification step on a blade-stacked RLS state (as held by
    IdentificationEngine): one separate rls_update per blade.

    regressors: three 2p-vectors (windows ending at k-1); dy: the three
    periodic output differences at sample k.
    """
    dy = np.asarray(dy, dtype=float).reshape(N_BLADES)
    blades = [
        rls_update(RlsState(state.info[i], state.lam), regressors[i], dy[i: i + 1])[0]
        for i in range(N_BLADES)
    ]
    return RlsState(info=np.stack([b.info for b in blades]), lam=state.lam)


def rls_fold_qr(factor, lam: float, regressors, targets):
    """The square-root (QR) RLS fold, the oracle for `rls_update_batch`.

    Carries the augmented factor [R | z] of the QR-RLS array form (Haykin,
    Adaptive Filter Theory), R upper triangular with R'R = S and R'z = b,
    and never forms S: the new [R | z] is the top n_reg rows of the QR of
    [lam^(m/2) [R | z]; lam^(age/2) [X | y]]. Read the estimate with
    `qr_estimate`.
    """
    n_reg, m = factor.shape[-2], regressors.shape[-2]
    weights = np.power(lam, np.arange(m - 1, -1, -1, dtype=float) / 2.0)
    rows = weights[:, None] * np.concatenate([regressors, targets], axis=-1)
    stacked = np.concatenate([lam ** (m / 2.0) * factor, rows], axis=-2)
    return np.linalg.qr(stacked, mode="r")[..., :n_reg, :]


def qr_estimate(factor):
    """(..., n_out, n_reg) estimate R^-1 z of an augmented QR-RLS factor."""
    n_reg = factor.shape[-2]
    return np.linalg.solve(factor[..., :n_reg], factor[..., n_reg:]).mT


def qr_rls_update_batch():
    """A stand-in for `rls_update_batch` that folds one recursion, started
    fresh, with `rls_fold_qr`: it keeps that recursion's [R | z] and returns
    states [R'R | Theta'] carrying the QR oracle's estimate. Patched into
    `ipcsim.sysid`, it runs a whole load case on the square-root fold."""
    factor = None

    def update(state: RlsState, regressors, targets) -> RlsState:
        nonlocal factor
        if factor is None:
            factor = np.sqrt(state.info)  # [sqrt(init_info) I | 0], the fresh [R | z]
        factor = rls_fold_qr(factor, state.lam, regressors, targets)
        r = factor[..., :state.n_reg]
        return RlsState(info=np.concatenate([r.mT @ r, qr_estimate(factor).mT], axis=-1),
                        lam=state.lam)

    return update


def advance_block_loop(plant, u_eff: np.ndarray, d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Advance n samples one at a time; returns the n output rows.

    Sample-by-sample twin of `SurrogatePlant.advance_block`, which computes
    the same block in closed form from its lifted per-blade operator.
    y[t] uses the pre-update state, then x steps forward (innovation
    form: the same e[t] drives both equations).
    """
    u_eff = np.atleast_2d(u_eff)
    n = u_eff.shape[0]
    a, b, c, l_obs = dense_matrices(plant)
    drive = u_eff @ b.T + e @ l_obs.T
    y = np.empty((n, N_BLADES))
    x = plant.x
    ct = c.T
    for t in range(n):
        y[t] = x @ ct
        x = a @ x + drive[t]
    plant.x = x
    y += plant.dist_gain[None, :] * d + e
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("plant state diverged (non-finite)")
    return y


def jittered_periodic_block_loop(dist, k: int, n: int) -> np.ndarray:
    """Jittered periodic disturbance of samples k .. k + n - 1, stepped one
    sample at a time from sample 0.

    Per-sample twin of `DisturbanceModel.periodic_block` with
    `period_jitter` > 0, which lays out the run's phase in one call. It reads
    no state of the model: it draws one rate per rotation from its own
    generator on the model's jitter stream (the second child spawned from
    the model's integer seed) and carries its own phase.
    """
    period = dist.period
    rng = np.random.default_rng(np.random.SeedSequence(dist.seed).spawn(2)[1])
    phase, rate, phases = 0.0, 1.0, np.empty(n)
    for t in range(k + n):
        if t % period == 0:
            rate = 1.0 + dist.period_jitter * rng.uniform(-1.0, 1.0)
        if t >= k:
            phases[t - k] = phase
        phase += 2.0 * np.pi * rate / period
    ph = phases[:, None]
    return (dist.amp_1p * np.sin(ph + dist.phase_1p + BLADE_OFFSETS)
            + dist.amp_2p * np.sin(2.0 * ph + dist.phase_2p + 2.0 * BLADE_OFFSETS))


def broadband_loop(amplitude: float, seed: int, dt: float, n: int) -> np.ndarray:
    """The uftipc broadband excitation built from the seed alone, one sample
    at a time on numpy rows.

    Twin of `ExcitationGenerator.broadband`, which draws each stream's bits
    for the whole run at once and filters them over plain floats: three child
    streams of `seed`, one scalar `integers(0, 2)` draw per stream at every
    multiple of the bit hold, the one-pole filter, and a clip to +-1 before
    scaling. Returns the first n samples of the run as an (n, 3) array.
    """
    hold = max(1, round(UFTIPC_BIT_TIME_S / dt))
    a = float(np.exp(-2.0 * np.pi * UFTIPC_CUTOFF_HZ * dt))
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(N_BLADES)]
    out = np.empty((n, N_BLADES))
    z = np.zeros(N_BLADES)
    for k in range(n):
        if k % hold == 0:
            bits = np.array([2.0 * r.integers(0, 2) - 1.0 for r in rngs])
        z = a * z + (1.0 - a) * bits
        out[k] = z
    return amplitude * np.clip(out, -1.0, 1.0)


def apply_actuator_fault(u_cmd: np.ndarray, fault: FaultScenario, k) -> np.ndarray:
    """Map commanded pitch to effective pitch under the actuator fault.

    Per-sample twin of `FaultScenario.actuator_map`. Accepts a single
    command (shape (3,), scalar k) or a block of commands (shape (n, 3) with
    k the sample index of the first row). Identity before the onset sample;
    PAS pins the faulty entry at the stuck angle, PAD scales it by
    (1 - parameter). Blade-stiffness and healthy scenarios leave the command
    untouched.
    """
    u_cmd = np.asarray(u_cmd, dtype=float)
    if not np.all(np.isfinite(u_cmd)):
        raise ValueError("u_cmd contains non-finite entries")
    if fault.kind in ("healthy", "blade_stiffness"):
        return u_cmd.copy()
    single = u_cmd.ndim == 1
    u = u_cmd.reshape(-1, N_BLADES).copy()
    ks = int(k) + np.arange(u.shape[0])
    active = ks >= fault.onset_sample
    f = fault.blade0
    if fault.kind == "pas":
        u[active, f] = fault.parameter
    else:  # pad
        u[active, f] *= 1.0 - fault.parameter
    return u[0] if single else u


def step(plant, u_cmd, disturbance, fault, k: int) -> np.ndarray:
    """One sample of the closed plant: fault map, state update, output.

    k must increment by one per call (the innovation stream is sequential).
    """
    _maybe_switch_blade_fault(plant, fault, k)
    u_eff = apply_actuator_fault(np.asarray(u_cmd, dtype=float).reshape(N_BLADES), fault, k)
    d = disturbance.periodic_block(k, 1)
    e = disturbance.innovation_block(k, 1)
    return plant.advance_block(u_eff[None, :], d, e)[0]


def coleman_forward(y: np.ndarray, psi: float) -> tuple[float, float]:
    """Rotating blade quantities -> fixed-frame (tilt, yaw) components."""
    if not np.isfinite(psi):
        raise ValueError("azimuth must be finite")
    angles = psi + BLADE_OFFSETS
    y = np.asarray(y, dtype=float).reshape(3)
    tilt = (2.0 / 3.0) * float(y @ np.cos(angles))
    yaw = (2.0 / 3.0) * float(y @ np.sin(angles))
    return tilt, yaw


def coleman_inverse(tilt: float, yaw: float, psi: float) -> np.ndarray:
    """Fixed-frame commands -> per-blade pitch (transpose convention)."""
    angles = psi + BLADE_OFFSETS
    return tilt * np.cos(angles) + yaw * np.sin(angles)


def mbc_ipc_step(state: MbcIpcState, y: np.ndarray, psi: float, dt: float):
    """One sample of MBC-IPC: Coleman forward, PI, Coleman inverse.

    Per-sample twin of `ipcsim.baselines.mbc_ipc_span`'s controller.
    Returns (state, commanded pitch).
    """
    tilt, yaw = coleman_forward(y, psi)
    bound = state.authority_deg
    state.tilt_int = float(np.clip(state.tilt_int + dt * (KI * tilt - LEAK * state.tilt_int),
                                   -bound, bound))
    state.yaw_int = float(np.clip(state.yaw_int + dt * (KI * yaw - LEAK * state.yaw_int),
                                  -bound, bound))
    u_tilt = KP * tilt + state.tilt_int
    u_yaw = KP * yaw + state.yaw_int
    u = coleman_inverse(u_tilt, u_yaw, psi)
    return state, np.clip(u, -bound, bound)


# ---------------------------------------------------------------------------
# Plant ground truth and analysis helpers
# ---------------------------------------------------------------------------

def dense_matrices(plant):
    """Dense (A, B, C, L) of the plant's per-blade arrays.

    A (6, 6), C (3, 6) and L (6, 3) are block-diagonal over the blades;
    B (6, 3) keeps the cross-blade input coupling. Blade i owns states
    2i and 2i + 1, as in `plant.x`.
    """
    eye = np.eye(N_BLADES)
    a = np.einsum("ij,irs->irjs", eye, plant.a).reshape(2 * N_BLADES, 2 * N_BLADES)
    c = np.einsum("ij,js->ijs", eye, plant.c).reshape(N_BLADES, 2 * N_BLADES)
    l_obs = np.einsum("ij,is->isj", eye, plant.l_obs).reshape(2 * N_BLADES, N_BLADES)
    return a, plant.b.reshape(2 * N_BLADES, N_BLADES), c, l_obs


def a_tilde(plant) -> np.ndarray:
    """Predictor-form transition matrix A - L C."""
    a, _, c, l_obs = dense_matrices(plant)
    return a - l_obs @ c


def dc_gain_matrix(plant) -> np.ndarray:
    """Steady-state gain C (I - A)^-1 B."""
    a, b, c, _ = dense_matrices(plant)
    return c @ np.linalg.solve(np.eye(a.shape[0]) - a, b)


def markov_oracle(plant, p: int) -> np.ndarray:
    """Exact predictor Markov matrix [C Ã^{p-1} B ... C B | C Ã^{p-1} L ... C L].

    Ground truth for the identification stage; shape
    (n_outputs, p * (n_inputs + n_outputs)).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    at = a_tilde(plant)
    _, b, c, l_obs = dense_matrices(plant)
    l, r = c.shape[0], b.shape[1]
    blocks_u = np.empty((p, l, r))
    blocks_y = np.empty((p, l, l))
    cat = c
    for j in range(p):
        blocks_u[j] = cat @ b
        blocks_y[j] = cat @ l_obs
        cat = cat @ at
    out = np.empty((l, p * (r + l)))
    for m in range(p):
        out[:, m * r:(m + 1) * r] = blocks_u[p - 1 - m]
        out[:, p * r + m * l: p * r + (m + 1) * l] = blocks_y[p - 1 - m]
    return out


def markov_oracle_siso(plant, p: int, blade: int) -> np.ndarray:
    """Blade-restricted oracle row (1 x 2p): the (i, i) entries of each block."""
    full = markov_oracle(plant, p)
    i = blade - 1
    r = l = N_BLADES
    u_part = [full[i, m * r + i] for m in range(p)]
    y_part = [full[i, p * r + m * l + i] for m in range(p)]
    return np.array(u_part + y_part)


def relative_errors(engine, oracle_rows: np.ndarray) -> np.ndarray:
    """Per-blade ||row - oracle|| / ||oracle|| of an IdentificationEngine
    against a (3, 2p) oracle."""
    return (np.linalg.norm(engine.rows - oracle_rows, axis=1)
            / np.linalg.norm(oracle_rows, axis=1))


def spectral_radius(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(m, dtype=float)))))


def per_rotation_band_power(y: np.ndarray, period: int, u_f: np.ndarray) -> np.ndarray:
    """Per-rotation 1P+2P power of each blade load.

    Projects each rotation of y onto the four sine/cosine basis columns and
    sums squared coefficients; shape (n_rotations, n_blades). Works on any
    controller's output series, so recovery transients are comparable
    across strategies.
    """
    y = np.asarray(y, dtype=float)
    n_rot = y.shape[0] // period
    y = y[: n_rot * period].reshape(n_rot, period, -1)
    # Least-squares coefficients per rotation: (U_f' U_f)^-1 U_f' y_rot.
    gram_inv = np.linalg.inv(u_f.T @ u_f)
    coeffs = np.einsum("hk,rkb->rhb", gram_inv @ u_f.T, y)
    return np.sum(coeffs**2, axis=1)


def series_time(result) -> np.ndarray:
    """(n,) sample times k * dt of a `RunResult`, rebuilt from its config."""
    return np.arange(len(result.y)) * build_plant(**result.config.plant).dt


def series_azimuth(result) -> np.ndarray:
    """(n,) rotor azimuth of a `RunResult`, `azimuth(P)` once per rotation."""
    period = build_plant(**result.config.plant).period_samples
    return np.tile(azimuth(period), len(result.y) // period)


# ---------------------------------------------------------------------------
# Dense lifted model projection
# ---------------------------------------------------------------------------


def projected_blocks_loop(rows: np.ndarray, shifts, basis: BasisProjection):
    """Sample-by-sample twin of `ipcsim.control.projected_blocks`: the p-tap
    output recursion stepped over the rotation one sample at a time.

    Takes the package's `shifted_bases`; its (p, S, 4) copies are read as
    (P, p, 4), without the padding past sample P.
    """
    prev, curr = (m[:, :basis.period].transpose(1, 0, 2) for m in shifts[:2])
    p = prev.shape[1]
    row_u, row_y = rows[:, :p], rows[:, p:]
    # x[s, b]: sample s, blade b, columns [T_u | T_y | H_bar] before projection.
    x = np.concatenate([row_u @ prev, row_y @ prev, row_u @ curr], axis=2)
    taps = row_y[:, None, :]
    for s in range(1, basis.period):
        d = min(s, p)
        x[s] += (taps[:, :, p - d:] @ x[s - d:s].transpose(1, 0, 2))[:, 0]
    proj = basis.u_f_pinv @ x.reshape(basis.period, -1)
    proj = proj.reshape(4, N_BLADES, 12).transpose(1, 0, 2)
    return proj[..., :4], proj[..., 4:8], proj[..., 8:]


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
    mu, my = (np.asarray(m, dtype=float) for m in est)
    if mu.shape[0] != p:
        raise ValueError(f"Markov blocks hold {mu.shape[0]} lags, not p={p}")
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
    unit-lower-triangular system rather than forming the inverse. est is a
    (mu, my) pair of (p, l, r)/(p, l, l) block arrays (from markov_blocks
    for per-blade rows, or markov_blocks_from_xi for oracle parameters).
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


def scatter_blades(stack: np.ndarray) -> np.ndarray:
    """Per-blade (3, m, n) matrices placed into the dense path's layout.

    Per-blade index 4 j + h (block j of [Ybar; dtheta; dYbar], harmonic h)
    of blade b is index 12 j + 3 h + b of the harmonic-major vectors that
    _bar_matrices stacks; entries coupling two blades are zero.
    """
    n_blades, m, n = stack.shape
    out = np.zeros((n_blades * m, n_blades * n))
    for b in range(n_blades):
        rows, cols = (4 * N_BLADES * (i // 4) + N_BLADES * (i % 4) + b
                      for i in (np.arange(m), np.arange(n)))
        out[np.ix_(rows, cols)] = stack[b]
    return out


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


# ---------------------------------------------------------------------------
# The controller's rotation step before its buffers
# ---------------------------------------------------------------------------


def bar_matrices(t_u, t_y, h_bar):
    """Per-blade rotation-level pairs (A_bar, B_bar) on [Ybar; dtheta; dYbar].

    From (..., 4, 4) blocks: A_bar is (..., 12, 12) with a zero middle block
    row, and B_bar is (..., 12, 4) with the identity as its middle block.
    Built fresh per call; `RepetitiveController` rewrites the same blocks of
    the pair it holds.
    """
    n = 4
    a_bar = np.zeros(t_u.shape[:-2] + (3 * n, 3 * n))
    a_bar[..., :n, :n] = np.eye(n)
    a_bar[..., :n, n:2 * n] = t_u
    a_bar[..., :n, 2 * n:] = t_y
    a_bar[..., 2 * n:, n:2 * n] = t_u
    a_bar[..., 2 * n:, 2 * n:] = t_y
    b_bar = np.concatenate([h_bar, np.broadcast_to(np.eye(n), h_bar.shape), h_bar], axis=-2)
    return a_bar, b_bar


def rls_fold_concatenating(state: RlsState, regressors, targets) -> RlsState:
    """Twin of `rls_update_batch` that concatenates the weighted [X | y],
    the residuals and the new [S | Theta'] instead of writing in place."""
    m, n_reg = regressors.shape[-2], state.n_reg
    weights = np.power(state.lam, np.arange(m - 1, -1, -1, dtype=float) / 2.0)
    rows = weights[:, None] * np.concatenate([regressors, targets], axis=-1)
    theta = state.info[..., n_reg:]
    residuals = rows[..., n_reg:] - rows[..., :n_reg] @ theta
    gram = rows[..., :n_reg].mT @ np.concatenate([rows[..., :n_reg], residuals], axis=-1)
    s = gram[..., :n_reg] + state.lam ** m * state.info[..., :n_reg]
    return RlsState(info=np.concatenate([s, theta + np.linalg.solve(s, gram[..., n_reg:])], axis=-1),
                    lam=state.lam)


def projected_blocks_concatenating(rows: np.ndarray, shifts, basis: BasisProjection):
    """Twin of `ipcsim.control.projected_blocks` that allocates every
    intermediate: the three correlations concatenated, the zero tap and the
    identity built per call. Reads only prev, curr and band of `shifts`."""
    prev, curr, band = shifts[:3]
    p, n_samples = prev.shape[:2]
    row_u, row_y = rows[:, :p], rows[:, p:]
    x = np.concatenate([(row @ shift.reshape(p, -1)).reshape(N_BLADES, n_samples, 4)
                        for row, shift in ((row_u, prev), (row_y, prev), (row_u, curr))],
                       axis=2)
    padded = np.concatenate([row_y, np.zeros((N_BLADES, 1))], axis=1)
    band_taps = np.take(padded, band, axis=1)
    try:
        in_block = np.linalg.inv(np.eye(p) - band_taps[:, :, p:])
    except np.linalg.LinAlgError:
        in_block = np.full((N_BLADES, p, p), np.nan)
    carry = in_block @ band_taps[:, :, :p]
    x = in_block[:, None] @ x.reshape(N_BLADES, n_samples // p, p, -1)
    for j in range(1, n_samples // p):
        x[:, j] += carry @ x[:, j - 1]
    proj = basis.u_f_pinv @ x.reshape(N_BLADES, n_samples, -1)[:, :basis.period]
    return proj[..., :4], proj[..., 4:8], proj[..., 8:]


def update_theta_concatenating(theta, gain, y_bar, delta_theta, delta_y_bar, tuning):
    """Twin of `ipcsim.control.update_theta` that concatenates the blade
    states and feeds the gain their transposed view."""
    blade_states = np.concatenate([np.asarray(v, dtype=float).reshape(4, N_BLADES)
                                   for v in (y_bar, delta_theta, delta_y_bar)])
    feedback = (gain @ blade_states.T[:, :, None])[:, :, 0].T.reshape(-1)
    theta_next = tuning.alpha * theta - tuning.beta * feedback
    capped = np.clip(theta_next, -tuning.theta_cap_deg, tuning.theta_cap_deg)
    return capped, bool(np.any(capped != theta_next))


def solve_dare_unshared(a, b, q, r, tol: float, max_iter: int, p0=None) -> DareSolution:
    """Twin of `ipcsim.numerics.solve_dare` whose Riccati step forms B'P
    and A'P twice each."""
    p = q.copy() if p0 is None else np.asarray(p0, dtype=float).copy()
    residual = np.inf
    for it in range(1, max_iter + 1):
        gain = np.linalg.solve(r + b.mT @ p @ b, b.mT @ p @ a)
        p_next = q + a.mT @ p @ a - a.mT @ p @ b @ gain
        p_next = 0.5 * (p_next + p_next.mT)
        residual = np.linalg.norm(p_next - p) / max(np.linalg.norm(p_next), 1e-300)
        p = p_next
        if residual <= tol:
            return DareSolution(cost_matrix=p, gain=gain, residual=residual, iterations=it)
        if not np.all(np.isfinite(p)):
            raise DareNonConvergence(float("inf"), it)
    raise DareNonConvergence(residual, max_iter)


class AllocatingController(RepetitiveController):
    """`RepetitiveController` whose rotation step allocates every
    intermediate, as it did before the controller and its identification
    engine held buffers: the periodic differences stacked and windowed per
    ingest, the concatenating fold, the concatenating projection, a fresh
    (A_bar, B_bar) from `bar_matrices`, the concatenating theta update and
    the unshared Riccati step. The buffered step must match it bit for bit.

    The shipped step still differs in four places: the engine's own
    difference buffer and its window view, the fold's residuals subtracted
    inside its weighted rows and its one Gram product, the controller's held
    (A_bar, B_bar), and the Riccati step that forms B'P and A'P once. Its
    projection and theta update compute as the twins here do.
    """

    def _ingest(self, u_hist, y_hist, upto: int) -> None:
        eng = self.engine
        t0, t1 = eng._next_t, int(upto)
        if t1 <= t0:
            return
        P, p = eng.period, eng.p
        diff = np.stack([(u_hist[t0 - p: t1] - u_hist[t0 - p - P: t1 - P]).T,
                         (y_hist[t0 - p: t1] - y_hist[t0 - p - P: t1 - P]).T], axis=1)
        n_rows = t1 - t0
        blade, signal, sample = diff.strides
        windows = np.lib.stride_tricks.as_strided(
            diff, (N_BLADES, n_rows, 2, p), (blade, sample, signal, sample), writeable=False)
        eng.state = rls_fold_concatenating(eng.state, windows.reshape(N_BLADES, n_rows, 2 * p),
                                           diff[:, 1, p:, None])
        eng._next_t = t1

    def finish_rotation(self, j: int, u_hist, y_hist) -> None:
        upto = (j + 1) * self.period
        self._ingest(u_hist, y_hist, upto)
        y_bar = project_output(y_hist[j * self.period: upto], self.basis)
        delta_y_bar = np.zeros(12) if self._y_bar_prev is None else y_bar - self._y_bar_prev
        iterations = 0
        if j + 1 > self.tuning.warmup_rotations:
            blocks = projected_blocks_concatenating(self.engine.rows, self._shifts, self.basis)
            a_bar, b_bar = bar_matrices(*blocks)
            try:
                sol = solve_dare_unshared(a_bar, b_bar, self.q, self.r, self.tuning.dare_tol,
                                          self.tuning.dare_max_iter, p0=self._p_warm)
            except DareNonConvergence as exc:
                self.dare_failures += 1
                iterations = exc.iterations
            else:
                self.gain, self._p_warm = sol.gain, sol.cost_matrix
                self._last_residual = sol.residual
                iterations = sol.iterations
            theta, clamped = update_theta_concatenating(self.theta, self.gain, y_bar,
                                                        self.delta_theta, delta_y_bar,
                                                        self.tuning)
            self.theta, self.delta_theta = theta, theta - self.theta
            self.clamp_events += clamped
        self._y_bar_prev = y_bar
        self.log.append([
            j, float(np.linalg.norm(self.theta)), float(np.linalg.norm(self.delta_theta)),
            float(self._last_residual), self.dare_failures, self.clamp_events,
            *y_bar.tolist(), iterations,
        ])
