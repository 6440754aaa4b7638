"""Surrogate three-blade turbine plant.

A discrete-time linear innovation-form model with three near-decoupled
second-order blade channels, rotor-periodic 1P/2P blade-load disturbances,
white innovation noise, and injectable actuator / blade faults:

    x[k+1] = A x[k] + B u_eff[k] + L e[k]
    y[k]   = C x[k] + g .* d[k] + e[k]

u_eff is the commanded pitch after the actuator fault map, d is the
deterministic rotor-periodic disturbance (injected at the output, per-blade
gain g), and e is the zero-mean white innovation. Pitch in degrees, loads in
abstract blade-load units; pitching up unloads the blade (negative DC gain).

The blades do not share states: the plant stores each blade's channel on a
leading blade axis (`a` (3, 2, 2), `b` (3, 2, 3), `c` (3, 2), `l_obs`
(3, 2)), and only B couples the blades, through the input. The plant is
time-invariant between fault switches, so `SurrogatePlant.advance_block`
does not step sample by sample: it lifts an n-sample block to one operator
per blade (Bamieh et al., Systems & Control Letters 1991),

    y_b = O_b x0_b + T_b drive_b,    x_b <- A_b^n x0_b + R_b drive_b,

with drive_b = u_eff B_b' + e_b L_b' over the block, and caches it per n
until the next blade-fault switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import _is_int

__all__ = [
    "SurrogatePlant",
    "DisturbanceModel",
    "FaultScenario",
    "build_plant",
]

N_BLADES = 3


# ---------------------------------------------------------------------------
# Fault scenarios
# ---------------------------------------------------------------------------

FAULT_KINDS = ("healthy", "pas", "pad", "blade_stiffness")


@dataclass(frozen=True)
class FaultScenario:
    """One fault affecting a single blade/actuator from onset_sample onwards.

    kind: "healthy" (no fault), "pas" (actuator stuck at `parameter` deg),
    "pad" (actuator effectiveness scaled by 1 - parameter), or
    "blade_stiffness" (stiffness scale a = parameter).
    """

    kind: str = "healthy"
    blade_index: int = 3
    onset_sample: int = 0
    parameter: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if isinstance(self.blade_index, bool) or self.blade_index not in (1, 2, 3):
            raise ValueError("blade_index must be 1, 2 or 3 (exactly one faulty blade)")
        if not np.isfinite(self.parameter):
            raise ValueError(f"fault parameter must be finite, got {self.parameter!r}")
        if self.kind == "pad" and not (0.0 < self.parameter <= 1.0):
            raise ValueError("PAD scale must satisfy 0 < parameter <= 1")
        if self.kind == "blade_stiffness" and not (0.0 < self.parameter <= 1.0):
            raise ValueError("blade stiffness scale must satisfy 0 < parameter <= 1")

    @property
    def blade0(self) -> int:
        """Zero-based faulty blade index."""
        return self.blade_index - 1

    def actuator_map(self, k: int) -> tuple:
        """Per-blade (offset, scale) float tuples of the actuator fault map
        at sample k, u_eff = u * scale + offset: identity before the onset
        and for healthy and blade-stiffness; from it on, PAS pins the faulty
        blade at the stuck angle `parameter` and PAD scales it by 1 - parameter."""
        offset, scale = [0.0] * N_BLADES, [1.0] * N_BLADES
        if k >= self.onset_sample and self.kind == "pas":
            offset[self.blade0], scale[self.blade0] = float(self.parameter), 0.0
        elif k >= self.onset_sample and self.kind == "pad":
            scale[self.blade0] = 1.0 - self.parameter
        return tuple(offset), tuple(scale)

    def segments(self, k0: int, n: int) -> tuple:
        """The (lo, hi) ranges, relative to k0, of the n-sample block from k0:
        cut at the onset when it falls strictly inside, so that each range
        sees one fault state."""
        cut = self.onset_sample - k0
        return ((0, cut), (cut, n)) if self.kind != "healthy" and 0 < cut < n else ((0, n),)


# ---------------------------------------------------------------------------
# Disturbance model
# ---------------------------------------------------------------------------

@dataclass
class DisturbanceModel:
    """Rotor-periodic blade loads plus white innovation noise.

    Blade i sees amp_1p[i]*sin(psi + phase_1p[i] + i*2pi/3) plus the 2P
    analogue with doubled blade offset (a rotating load pattern sampled at
    the three blades). The periodic table is computed once and indexed
    modulo P, so d[k] == d[k-P] holds bit-exactly. Innovations are drawn
    sequentially from a generator spawned from `seed` at the first draw.
    """

    amp_1p: np.ndarray = field(default_factory=lambda: np.full(N_BLADES, 500.0))
    phase_1p: np.ndarray = field(default_factory=lambda: np.zeros(N_BLADES))
    amp_2p: np.ndarray = field(default_factory=lambda: np.full(N_BLADES, 150.0))
    phase_2p: np.ndarray = field(default_factory=lambda: np.zeros(N_BLADES))
    sigma_e: float = 0.0
    seed: int = 0
    period_jitter: float = 0.0  # robustness mode: +-fraction rotor-speed wobble

    def __post_init__(self):
        for name in ("amp_1p", "phase_1p", "amp_2p", "phase_2p"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float).reshape(N_BLADES))
        arrays = (self.amp_1p, self.phase_1p, self.amp_2p, self.phase_2p)
        if not (all(np.all(np.isfinite(v)) for v in arrays) and np.isfinite(self.sigma_e)):
            raise ValueError("disturbance amplitudes, phases and sigma_e must be finite")
        if self.sigma_e < 0.0:
            raise ValueError("sigma_e must be non-negative")
        if not (0.0 <= self.period_jitter < 0.5):
            raise ValueError("period_jitter must lie in [0, 0.5)")
        self._table = None
        self._table_period = None
        self._next_k = 0
        self._phase = 0.0
        self._phase_next_k = 0
        self._rate_scale = 1.0

    @cached_property
    def _generators(self):
        """(innovation, jitter) generators, both spawned at the first draw.

        Not at construction: numpy.random loads on first use (about 6 MB and
        15 ms), and load-case validation builds a model for every case.
        """
        base = (self.seed if isinstance(self.seed, np.random.SeedSequence)
                else np.random.SeedSequence(self.seed))
        return tuple(np.random.default_rng(s) for s in base.spawn(2))

    def _periodic_load(self, psi: np.ndarray) -> np.ndarray:
        """(n, 3) deterministic blade loads at the (n, 1) rotor phases psi."""
        offs = 2.0 * np.pi * np.arange(N_BLADES)[None, :] / N_BLADES
        return (self.amp_1p[None, :] * np.sin(psi + self.phase_1p[None, :] + offs)
                + self.amp_2p[None, :] * np.sin(2.0 * psi + self.phase_2p[None, :] + 2.0 * offs))

    def periodic_table(self, period: int) -> np.ndarray:
        """(P, 3) table of the deterministic component over one rotation."""
        if self._table is None or self._table_period != period:
            self._table = self._periodic_load(2.0 * np.pi * np.arange(period)[:, None] / period)
            self._table_period = period
        return self._table

    def periodic_block(self, k: int, n: int, period: int) -> np.ndarray:
        if self.period_jitter == 0.0:
            table = self.periodic_table(period)
            idx = (k + np.arange(n)) % period
            return table[idx]
        # Jittered rotor speed: the disturbance phase advances at a rate
        # redrawn once per nominal rotation, while the controller's azimuth
        # schedule stays on the nominal grid. Sequential access only.
        if k != self._phase_next_k:
            raise ValueError(
                f"jittered disturbance is sequential: expected k={self._phase_next_k}"
            )
        # One uniform draw per rotation boundary inside the block; the rate
        # before the first boundary carries over from the previous block.
        first = (-k) % period
        wobble = self._generators[1].uniform(-1.0, 1.0, size=len(range(first, n, period)))
        scales = np.concatenate([[self._rate_scale], 1.0 + self.period_jitter * wobble])
        rate = scales[(np.arange(n) - first + period) // period]
        # add.accumulate sums left to right, as the per-sample recursion does.
        acc = np.add.accumulate(np.concatenate([[self._phase], 2.0 * np.pi * rate / period]))
        phases = acc[:n]
        self._phase = float(acc[n])
        self._rate_scale = float(scales[-1])
        self._phase_next_k = k + n
        return self._periodic_load(phases[:, None])

    def innovation_block(self, k: int, n: int) -> np.ndarray:
        """Next n innovation rows; k must continue the stream."""
        if k != self._next_k:
            raise ValueError(
                f"innovation stream is sequential: expected k={self._next_k}, got {k}"
            )
        self._next_k += n
        if self.sigma_e == 0.0:
            return np.zeros((n, N_BLADES))
        return self._generators[0].normal(0.0, self.sigma_e, size=(n, N_BLADES))


# ---------------------------------------------------------------------------
# Plant
# ---------------------------------------------------------------------------

@dataclass
class SurrogatePlant:
    """Innovation-form surrogate with per-blade second-order channels.

    Blade i's channel is a[i] (2, 2), b[i] (2, 3), c[i] (2,) and l_obs[i]
    (2,); its states are x[2i:2i + 2]. b[i] takes all three pitch inputs,
    the only coupling between blades.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    l_obs: np.ndarray
    dt: float
    period_samples: int
    x: np.ndarray = field(default_factory=lambda: np.zeros(6))
    dist_gain: np.ndarray = field(default_factory=lambda: np.ones(N_BLADES))
    # Construction parameters, kept so blade faults can rebuild a channel.
    nat_freq_hz: np.ndarray = field(default_factory=lambda: np.full(N_BLADES, 7.0))
    damping: float = 0.7
    dc_gain: float = -1500.0
    predictor_poles: tuple = (0.40, 0.35)
    # Operators derived from the matrices: the lifted operator of each
    # block length n under key n, and the per-blade float blocks of the
    # fused MBC loop under "blade_floats". Built at first use, cleared when
    # a blade fault changes a, c and l_obs (`_maybe_switch_blade_fault`).
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _lifted_operator(self, n: int) -> np.ndarray:
        """(3, n + 2, 2 + 2n) stack [[O_b, T_b], [A_b^n, R_b]] of one n-sample block.

        Blade b's operator maps [x0_b; drive_b] (its two states, then its
        two drive columns sample by sample) to [y_b; x_b after n samples].
        Row t of [O_b, T_b] is [c_b A_b^t, ..., c_b A_b^0, 0, ...], and
        [A_b^n, R_b] is [A_b^n, ..., A_b^0].
        """
        op = self._derived.get(n)
        if op is None:
            powers = [np.broadcast_to(np.eye(2), self.a.shape)]  # powers[k] = A_b^k
            for _ in range(n):
                powers.append(self.a @ powers[-1])
            # Newest power first: [A_b^n, ..., A_b^0] side by side, (3, 2, 2n + 2).
            falling = np.stack(powers[::-1], axis=2).reshape(N_BLADES, 2, -1)
            op = np.zeros((N_BLADES, n + 2, 2 + 2 * n))
            op[:, n:] = falling
            obs = self.c[:, None, :] @ falling  # [c_b A_b^n, ..., c_b A_b^0]
            for t in range(n):
                op[:, t, :2 * t + 2] = obs[:, 0, 2 * (n - t):]
            self._derived[n] = op
        return op

    def _blade_floats(self) -> tuple:
        """The plant's matrices as per-blade tuples of Python floats.

        Returns (a, c, l, b): for blade i, a[i] = (a00, a01, a10, a11),
        c[i] and l[i] its output and observer pairs, and b[i] its two input
        rows, row by row. Cached with the lifted operators.
        """
        floats = self._derived.get("blade_floats")
        if floats is None:
            floats = self._derived["blade_floats"] = tuple(
                tuple(map(tuple, m.reshape(N_BLADES, -1).tolist()))
                for m in (self.a, self.c, self.l_obs, self.b)
            )
        return floats

    def advance_block(self, u_eff: np.ndarray, d: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Advance n samples; returns the n output rows.

        y[t] uses the pre-update state, then x steps forward (innovation
        form: the same e[t] drives both equations). Computed in closed form
        by the per-blade lifted operator of an n-sample block.
        """
        u_eff = np.atleast_2d(u_eff)
        n = u_eff.shape[0]
        # drive[t, b] = B_b u_eff[t] + L_b e[t, b], the (n, 3, 2) blade drive.
        drive = ((u_eff @ self.b.reshape(-1, N_BLADES).T).reshape(n, N_BLADES, 2)
                 + e[:, :, None] * self.l_obs)
        # v[b] = [x0_b; drive_b], blade b's states first, then its drive pairs.
        v = np.concatenate([self.x.reshape(N_BLADES, 2),
                            drive.transpose(1, 0, 2).reshape(N_BLADES, -1)], axis=1)
        out = (self._lifted_operator(n) @ v[:, :, None])[:, :, 0]
        self.x = out[:, n:].reshape(-1)
        # The loop's intermediate states are not formed, so check the
        # outputs too: a state that overflowed on the way shows there.
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("plant state diverged (non-finite)")
        return out[:, :n].T + self.dist_gain[None, :] * d + e


def _second_order_channel(nat_freq_hz: float, damping: float, dt: float, dc_gain: float,
                          poles) -> tuple:
    """(a, c, l) of one blade: discrete 2x2 block with poles rho*exp(+-j theta)
    and prescribed DC gain, and the observer gain placing eig(a - l c) at
    `poles`.

    Controllable canonical form: A = [[a1, a2], [1, 0]], b enters the first
    state. C = [c, c] keeps the first Markov parameter CB nonzero.
    """
    wn = 2.0 * np.pi * nat_freq_hz
    rho = np.exp(-damping * wn * dt)
    theta = wn * np.sqrt(max(1.0 - damping**2, 0.0)) * dt
    a1 = 2.0 * rho * np.cos(theta)
    a2 = -rho * rho
    a_blk = np.array([[a1, a2], [1.0, 0.0]])
    c_val = dc_gain * (1.0 - a1 - a2) / 2.0
    c_blk = np.array([c_val, c_val])
    return a_blk, c_blk, _place_observer(a_blk, c_blk, poles)


def _place_observer(a_blk: np.ndarray, c_blk: np.ndarray, poles) -> np.ndarray:
    """Observer gain putting eig(A - l c) at the requested pole pair.

    For the 2x2 canonical block both characteristic coefficients are affine
    in l, so placement is an exact 2x2 linear solve.
    """
    a1, a2 = a_blk[0, 0], a_blk[0, 1]
    c1, c2 = c_blk
    mu1, mu2 = poles
    tr_des, det_des = mu1 + mu2, mu1 * mu2
    # tr(A - l c) = a1 - l1 c1 - l2 c2, det(A - l c) = c2 l1 + (a2 c1 - a1 c2) l2 - a2
    mat = np.array([[-c1, -c2], [c2, a2 * c1 - a1 * c2]])
    rhs = np.array([tr_des - a1, det_des + a2])
    return np.linalg.solve(mat, rhs)


def build_plant(nat_freq_hz: float = 7.0, damping: float = 0.7, dc_gain: float = -1500.0,
                coupling: float = 0.05, predictor_poles=(0.40, 0.35), dt: float = 0.01,
                period_samples: int = 100) -> SurrogatePlant:
    """Surrogate with explicit channel parameters (all blades identical).

    The defaults are the reference surrogate: 7 Hz well-damped blade modes
    (innovation-to-load noise gain stays near one), -1500 units/deg DC gain,
    5% input cross-coupling, dt = 0.01 s, P = 100 (1 s rotor period).
    Raises ValueError for a parameter the model cannot be built from.
    """
    for name, value in (("nat_freq_hz", nat_freq_hz), ("damping", damping), ("dt", dt)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"plant {name} must be finite and > 0, got {value!r}")
    if not (np.isfinite(dc_gain) and dc_gain != 0.0):
        raise ValueError(f"plant dc_gain must be finite and nonzero, got {dc_gain!r}")
    if not np.isfinite(coupling):
        raise ValueError(f"plant coupling must be finite, got {coupling!r}")
    poles = tuple(predictor_poles)
    if not (len(poles) == 2 and all(np.isfinite(mu) and abs(mu) < 1.0 for mu in poles)):
        raise ValueError(f"plant predictor_poles must be two finite values with |mu| < 1, "
                         f"got {predictor_poles!r}")
    if not _is_int(period_samples) or period_samples < 8:
        raise ValueError(f"plant period_samples must be an integer >= 8, got {period_samples!r}")
    nat = np.full(N_BLADES, float(nat_freq_hz))
    a, c, l_obs = map(np.stack, zip(*(_second_order_channel(f, damping, dt, dc_gain, poles)
                                      for f in nat)))
    # Pitch input j drives the first state of blade j fully, of the others by `coupling`.
    b = np.zeros((N_BLADES, 2, N_BLADES))
    b[:, 0] = np.where(np.eye(N_BLADES, dtype=bool), 1.0, coupling)
    return SurrogatePlant(
        a=a, b=b, c=c, l_obs=l_obs, dt=dt, period_samples=period_samples,
        nat_freq_hz=nat, damping=damping, dc_gain=dc_gain, predictor_poles=poles,
    )


def _maybe_switch_blade_fault(plant: SurrogatePlant, fault: FaultScenario, k: int) -> None:
    """At a blade-stiffness onset (k == onset sample), restiffen the faulty
    blade's channel in place.

    Its natural frequency scales by sqrt(a) and its output-disturbance gain
    by 1/a; its DC gain is kept and the other blades are untouched. Clears
    the operators derived from the old channel.
    """
    if fault.kind != "blade_stiffness" or k != fault.onset_sample:
        return
    i = fault.blade0
    plant.nat_freq_hz[i] *= np.sqrt(fault.parameter)
    plant.a[i], plant.c[i], plant.l_obs[i] = _second_order_channel(
        plant.nat_freq_hz[i], plant.damping, plant.dt, plant.dc_gain, plant.predictor_poles)
    plant.dist_gain[i] /= fault.parameter
    plant._derived.clear()
