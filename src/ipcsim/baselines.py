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

MBC-IPC feeds back every sample, so it cannot be lifted to the rotation
level like the repetitive controller. `mbc_ipc_rotation` instead runs one
rotation of controller, actuator fault map and plant as one loop over plain
floats. The disturbance and innovations are drawn once per rotation and
the affine fault map (`FaultScenario.actuator_map`) once per fault state;
what does not change between rotations is built once: the Coleman cos/sin
rows per P, and the plant's per-blade float blocks, cached by the plant
until the blade-stiffness switch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .plant import BLADE_OFFSETS, N_BLADES, _maybe_switch_blade_fault, azimuth

__all__ = [
    "MbcIpcState",
    "mbc_ipc_rotation",
]

# Tilt/yaw leaky-PI gains, frozen across scenarios: tuned once on the
# healthy case for deep 1P cancellation.
KP = 3.5e-4
KI = 6.0e-4
LEAK = 0.05


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


@lru_cache(maxsize=8)
def _coleman_rows(period: int) -> tuple:
    """(cos_rows, sin_rows) of one rotation: row s holds the three blade
    angles of azimuth 2 pi (s + 1) / P, as tuples of floats."""
    angles = azimuth(period)[:, None] + BLADE_OFFSETS
    return tuple(map(tuple, np.cos(angles).tolist())), tuple(map(tuple, np.sin(angles).tolist()))


def mbc_ipc_rotation(state: MbcIpcState, plant, fault, dist, k0: int,
                     u_cmd: np.ndarray, y: np.ndarray) -> None:
    """Run MBC-IPC in closed loop with the plant for the rotation starting at k0.

    Per sample: Coleman forward of the previous load row (y[k0 - 1], zero at
    k0 = 0), the leaky tilt/yaw PI with anti-windup, Coleman inverse, the
    clamp at the pitch authority, the actuator fault map, then one step of
    the innovation-form plant. The azimuth of sample k0 + s is
    2 pi (s + 1) / P. Writes rows k0 .. k0 + P - 1 of u_cmd
    (the commanded pitch) and y, and advances `state`, `plant` and `dist`.

    The rotation is split at the fault onset, so a blade-stiffness switch
    lands on its exact sample. Raises ValueError on a non-finite command
    and FloatingPointError when the plant state is non-finite.
    """
    period = plant.period_samples
    dt = plant.dt
    bound = state.authority_deg
    kp, ki, leak = KP, KI, LEAK
    cos_rows, sin_rows = _coleman_rows(period)
    d = dist.periodic_block(k0, period)
    e = dist.innovation_block(k0, period)
    e_rows = e.tolist()

    x0, x1, x2, x3, x4, x5 = plant.x.tolist()
    y0, y1, y2 = y[k0 - 1].tolist() if k0 else (0.0, 0.0, 0.0)
    ti, yi = state.tilt_int, state.yaw_int
    u_out, y_out = [], []
    for lo, hi in fault.segments(k0, period):
        _maybe_switch_blade_fault(plant, fault, k0 + lo)
        a, c, l, b = plant._blade_floats()
        (a0, a1, a2, a3), (a4, a5, a6, a7), (a8, a9, a10, a11) = a
        (c0, c1), (c2, c3), (c4, c5) = c
        (l0, l1), (l2, l3), (l4, l5) = l
        (b0, b1, b2, b3, b4, b5), (b6, b7, b8, b9, b10, b11), (b12, b13, b14, b15, b16, b17) = b
        (o0, o1, o2), (s0, s1, s2) = fault.actuator_map(k0 + lo)
        # Output offset g .* d + e, as the plant adds it.
        w_rows = (plant.dist_gain * d[lo:hi] + e[lo:hi]).tolist()
        for (cb0, cb1, cb2), (sb0, sb1, sb2), (e0, e1, e2), (w0, w1, w2) in zip(
                cos_rows[lo:hi], sin_rows[lo:hi], e_rows[lo:hi], w_rows):
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
    u_cmd[k0:k0 + period] = np.array(u_out).reshape(period, N_BLADES)
    y[k0:k0 + period] = np.array(y_out).reshape(period, N_BLADES)
