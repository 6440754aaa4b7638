"""Comparison controllers.

The collective baseline (cpc) commands zero differential pitch (the
surrogate has no rotor-speed loop to regulate, so the operating-point
collective is the zero vector); the harness pushes a zero command block
through the plant, and its load SD defines the denominator of every rSD
figure.

MBC-IPC transforms the three blade loads into fixed-frame tilt/yaw
components with the Coleman transformation, applies a leaky PI per channel,
and maps the commands back to per-blade pitch. It reads loads only: faults
are invisible to it, which is exactly the mechanism that degrades it in the
faulty scenarios (the stuck/derated blade contaminates the transform).

MBC-IPC feeds back every sample, but between clamp events its loop is
linear and periodic in the rotation: `mbc_ipc_span` walks a run's fault
regimes (`FaultScenario.regimes`) and lifts a regime's whole rotations in
chunks (`_lifted_chunk`) by one operator that it builds per regime
(`_rotation_operator`). A rotation in which a clamp would act, or one of
the two that a fault onset cuts a rotation into, runs as one loop over
plain floats (`_loop_rotation`) from the same state and draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .plant import BLADE_OFFSETS, N_BLADES, azimuth

__all__ = [
    "MbcIpcState",
    "mbc_ipc_span",
]

# Tilt/yaw leaky-PI gains, frozen across scenarios: tuned once on the
# healthy case for deep 1P cancellation.
KP = 3.5e-4
KI = 6.0e-4
LEAK = 0.05
# Most rotations lifted at once: at P = 100 a chunk's transient arrays stay
# under 1 MB (`_lifted_chunk`).
_CHUNK = 32


@dataclass
class MbcIpcState:
    """Tilt/yaw leaky-PI state with anti-windup at the pitch authority bound.

    The gains are the module's KP, KI and LEAK. The loop is 1P-only, so the
    2P content is untouched and roughly half to two thirds of the total load
    SD is what it removes. The proportional path carries the broadband
    response to measurement noise.
    """

    authority_deg: float = 4.0
    tilt_int: float = 0.0
    yaw_int: float = 0.0

    def __post_init__(self):
        # A NaN bound would make every clamp a silent no-op.
        if not (math.isfinite(self.authority_deg) and self.authority_deg > 0.0):
            raise ValueError(f"authority_deg must be finite and positive, "
                             f"got {self.authority_deg!r}")


def _coleman_rows(period: int) -> tuple:
    """(cos_rows, sin_rows), two (P, 3) arrays: row s holds the cosines and
    sines of the three blade angles at azimuth 2 pi (s + 1) / P."""
    angles = azimuth(period)[:, None] + BLADE_OFFSETS
    return np.cos(angles), np.sin(angles)


def mbc_ipc_span(state: MbcIpcState, plant, fault, dist, k0: int, n: int,
                 u_cmd: np.ndarray, y: np.ndarray) -> None:
    """Run MBC-IPC in closed loop with the plant over samples k0 .. k0 + n - 1.

    Per sample: Coleman forward of the previous load row (y[k0 - 1], zero at
    k0 = 0), the leaky tilt/yaw PI with anti-windup, Coleman inverse, the
    clamp at the pitch authority, the actuator fault map, then one step of
    the innovation-form plant. The azimuth of sample k is 2 pi (k % P + 1) / P,
    P being the rotor period in samples.
    Writes rows k0 .. k0 + n - 1 of u_cmd (the commanded pitch) and y, and
    advances `state`, `plant` and `dist`.

    Each fault regime's whole rotations are lifted in chunks of up to _CHUNK
    rotations, drawn at once, by the regime's lifted rotation, built at its
    first whole rotation. A chunk keeps its longest prefix in which no
    clamp acts; its next rotation runs as a loop from the same state and
    draws, and lifting resumes with one rotation, doubling per fully lifted
    chunk. A rotation that an onset splits runs as a loop per regime. Raises
    ValueError on a non-finite command and FloatingPointError when the plant
    state is non-finite.
    """
    period = plant.period_samples
    for lo, hi, amap in fault.regimes(plant, k0, n):
        k, end, size, op = k0 + lo, k0 + hi, _CHUNK, None
        while k < end:
            if k % period or end - k < period:  # part of a rotation, cut by the onset
                stop = min(end, k - k % period + period)
                _loop_rotation(state, plant, amap, dist.periodic_block(k, stop - k),
                               dist.innovation_block(k, stop - k), k, u_cmd, y)
                k = stop
                continue
            if op is None:  # the regime's first whole rotation; an extreme plant overflows op
                with np.errstate(over="ignore", invalid="ignore"):
                    op = _rotation_operator(plant, amap)
            drawn = min(size, (end - k) // period) * period
            d, e = dist.periodic_block(k, drawn), dist.innovation_block(k, drawn)
            while len(d):  # the drawn rotations, lifted or, where a clamp acts, looped
                m = min(size * period, len(d))
                done = _lifted_chunk(state, plant, op, d[:m], e[:m], k, u_cmd, y) * period
                if done == m:
                    size = min(2 * size, _CHUNK)
                else:  # the rotation from k + done clamps: the loop runs it
                    rows = slice(done, done + period)
                    _loop_rotation(state, plant, amap, d[rows], e[rows], k + done, u_cmd, y)
                    size, done = 1, done + period
                k, d, e = k + done, d[done:], e[done:]


def _rotation_operator(plant, amap: tuple) -> tuple:
    """(steps, to_end, forced): one rotation of the clamp-free loop under the
    actuator map amap = (offset, scale), lifted (Bittanti & Colaneri,
    Periodic Systems, 2009). State z = [x (6), previous load row (3),
    tilt_int, yaw_int], per-sample input v = [g .* d + e (3), e (3), 1]. All
    three act on row vectors: steps[s] (P, 18, 14) maps [v; z] at sample s to
    [z'; u], the next state and the command. Built backwards from the last
    sample, `forced` (6 P, 11) maps the rotation's rows [g .* d + e, e] to its
    forced response f, and `to_end` (23, 11) maps [z; f; 1] to its end state.
    """
    period, eye3, (offset, scale) = plant.period_samples, np.eye(N_BLADES), amap
    to_blades = np.stack(_coleman_rows(period), axis=2)
    to_fixed = (2.0 / 3.0) * to_blades.transpose(0, 2, 1)
    decay, gain = 1.0 - plant.dt * LEAK, plant.dt * KI
    b = plant.b.reshape(6, 3)
    # Column form, [z'; u] = step[s] @ [v; z]: the integrators, then u, from z.
    step = np.zeros((period, 14, 18))
    step[:, 9:11, 13:16], step[:, 9:11, 16:] = gain * to_fixed, decay * np.eye(2)
    step[:, 11:, 13:16] = (KP + gain) * to_blades @ to_fixed
    step[:, 11:, 16:] = decay * to_blades
    # x' = A x + B (scale .* u + offset) + L e, and y = C x + g .* d + e.
    step[:, :6, 7:] = (b * scale) @ step[:, 11:, 7:]
    step[:, :6, 7:13] += np.einsum("ij,ikl->ikjl", eye3, plant.a).reshape(6, 6)
    step[:, :6, 3:6] = np.einsum("ij,ik->ikj", eye3, plant.l_obs).reshape(6, 3)
    step[:, :6, 6] = b @ offset
    step[:, 6:9, :3] = eye3
    step[:, 6:9, 7:13] = np.einsum("ij,il->ijl", eye3, plant.c).reshape(3, 6)
    # `after` maps the state after sample s to the rotation's end.
    after, to_input = np.eye(11), np.empty((period, 11, 7))
    for s in range(period - 1, -1, -1):
        to_input[s], after = np.hsplit(after @ step[s, :11], [7])
    forced = to_input[:, :, :6].transpose(0, 2, 1).reshape(6 * period, 11)
    to_end = np.vstack([after.T, np.eye(11), to_input[:, :, 6].sum(axis=0)])
    return step.transpose(0, 2, 1).copy(), to_end, forced


def _lifted_chunk(state, plant, op, d, e, k, u_cmd, y) -> int:
    """Advance whole rotations from sample k in one fault state by the lifted
    loop op (`_rotation_operator`), from their draws d and e: the end map
    takes each rotation's start state from the one before, and one product
    per sample then steps all of them together. Returns how many it ran: the
    rotations before the first in which a clamp would act (a command or
    integrator beyond the authority) or a value is non-finite. State and
    rows are left at the start of that rotation."""
    period, bound = plant.period_samples, state.authority_deg
    m = len(d) // period
    steps, to_end, forced = op
    z = np.concatenate([plant.x, y[k - 1] if k else np.zeros(N_BLADES),
                        (state.tilt_int, state.yaw_int)])
    with np.errstate(over="ignore", invalid="ignore"):  # an extreme plant overflows the operator
        we = np.hstack([plant.dist_gain * d + e, e]).reshape(m, period, 6)
        buf = np.empty((period + 1, m, 21))  # row s: [v_s | z_s | u_(s-1)] of every rotation
        buf[:period, :, :6], buf[:period, :, 6] = we.transpose(1, 0, 2), 1.0
        # Rows [z_r; f_r; 1]: rotation r's start state, its forced response, 1.
        zf = np.ones((m, 23))
        zf[:, 11:22] = we.reshape(m, -1) @ forced
        for r in range(m):  # only the end state is carried from rotation to rotation
            zf[r, :11] = z
            z = zf[r] @ to_end
        buf[0, :, 7:18] = zf[:, :11]
        for s in range(period):
            np.matmul(buf[s, :, :18], steps[s], out=buf[s + 1, :, 7:])
        # A NaN fails the bound too; the loads and the carried state must be finite.
        peak = np.abs(buf[1:, :, 13:]).max(axis=0)  # loads, integrators, commands
        ends = np.vstack([zf[1:, :11], z])
        ok = ((peak[:, 3:].max(axis=1) <= bound) & np.isfinite(peak[:, :3]).all(axis=1)
              & np.isfinite(ends).all(axis=1))
    done = m if ok.all() else int(ok.argmin())
    if done:
        out = buf[1:, :done].transpose(1, 0, 2)
        u_cmd[k:k + done * period] = out[:, :, 18:].reshape(-1, N_BLADES)
        y[k:k + done * period] = out[:, :, 13:16].reshape(-1, N_BLADES)
        z = ends[done - 1]
        state.tilt_int, state.yaw_int = float(z[9]), float(z[10])
        plant.x = z[:6].copy()
    return done


def _loop_rotation(state, plant, amap, d, e, k, u_cmd, y) -> None:
    """Rows k .. k + len(d) - 1, inside one rotation and one fault regime,
    under the actuator map amap = (offset, scale), as one loop over plain
    floats, clamps included, from their draws d and e."""
    dt, bound = plant.dt, state.authority_deg
    kp, ki, leak = KP, KI, LEAK
    (a0, a1, a2, a3), (a4, a5, a6, a7), (a8, a9, a10, a11) = plant.a.reshape(N_BLADES, -1).tolist()
    (c0, c1), (c2, c3), (c4, c5) = plant.c.tolist()
    (l0, l1), (l2, l3), (l4, l5) = plant.l_obs.tolist()
    (b0, b1, b2, b3, b4, b5), (b6, b7, b8, b9, b10, b11), (b12, b13, b14, b15, b16, b17) = (
        plant.b.reshape(N_BLADES, -1).tolist())
    (o0, o1, o2), (s0, s1, s2) = amap
    x0, x1, x2, x3, x4, x5 = plant.x.tolist()
    y0, y1, y2 = y[k - 1].tolist() if k else (0.0, 0.0, 0.0)
    ti, yi = state.tilt_int, state.yaw_int
    cos_rows, sin_rows = _coleman_rows(plant.period_samples)
    lo, hi = k % plant.period_samples, k % plant.period_samples + len(d)
    # Per sample: the Coleman rows, e, and the output offset g .* d + e as the plant adds it.
    rows = np.concatenate([cos_rows[lo:hi], sin_rows[lo:hi], e, plant.dist_gain * d + e],
                          axis=1).tolist()
    u_out, y_out = [], []
    for cb0, cb1, cb2, sb0, sb1, sb2, e0, e1, e2, w0, w1, w2 in rows:
        tilt = (2.0 / 3.0) * (y0 * cb0 + y1 * cb1 + y2 * cb2)
        yaw = (2.0 / 3.0) * (y0 * sb0 + y1 * sb1 + y2 * sb2)
        ti += dt * (ki * tilt - leak * ti)
        ti = bound if ti > bound else (-bound if ti < -bound else ti)
        yi += dt * (ki * yaw - leak * yi)
        yi = bound if yi > bound else (-bound if yi < -bound else yi)
        ut, uy = kp * tilt + ti, kp * yaw + yi
        u0, u1, u2 = ut * cb0 + uy * sb0, ut * cb1 + uy * sb1, ut * cb2 + uy * sb2
        u0 = bound if u0 > bound else (-bound if u0 < -bound else u0)
        u1 = bound if u1 > bound else (-bound if u1 < -bound else u1)
        u2 = bound if u2 > bound else (-bound if u2 < -bound else u2)
        if u0 != u0 or u1 != u1 or u2 != u2:  # NaN survives the clamp
            if not all(map(math.isfinite, (x0, x1, x2, x3, x4, x5))):
                raise FloatingPointError("plant state diverged (non-finite)")
            raise ValueError("u_cmd contains non-finite entries")
        u_out += u0, u1, u2
        m0, m1, m2 = u0 * s0 + o0, u1 * s1 + o1, u2 * s2 + o2
        y0 = (c0 * x0 + c1 * x1) + w0
        y1 = (c2 * x2 + c3 * x3) + w1
        y2 = (c4 * x4 + c5 * x5) + w2
        y_out += y0, y1, y2
        x0, x1 = (a0 * x0 + a1 * x1 + ((m0 * b0 + m1 * b1 + m2 * b2) + e0 * l0),
                  a2 * x0 + a3 * x1 + ((m0 * b3 + m1 * b4 + m2 * b5) + e0 * l1))
        x2, x3 = (a4 * x2 + a5 * x3 + ((m0 * b6 + m1 * b7 + m2 * b8) + e1 * l2),
                  a6 * x2 + a7 * x3 + ((m0 * b9 + m1 * b10 + m2 * b11) + e1 * l3))
        x4, x5 = (a8 * x4 + a9 * x5 + ((m0 * b12 + m1 * b13 + m2 * b14) + e2 * l4),
                  a10 * x4 + a11 * x5 + ((m0 * b15 + m1 * b16 + m2 * b17) + e2 * l5))
    plant.x = np.array([x0, x1, x2, x3, x4, x5])
    if not np.all(np.isfinite(plant.x)):
        raise FloatingPointError("plant state diverged (non-finite)")
    state.tilt_int, state.yaw_int = ti, yi
    u_cmd[k:k + len(d)] = np.array(u_out).reshape(-1, N_BLADES)
    y[k:k + len(d)] = np.array(y_out).reshape(-1, N_BLADES)
