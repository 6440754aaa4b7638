"""Online predictor-based identification of per-blade Markov parameters.

The rotor-period difference of every signal removes the exactly periodic
disturbance from the regression, leaving the predictor-form relation

    dy[t] = Xi_(i) [du_i[t-p..t-1] | dy_i[t-p..t-1]] + de[t]

per blade i. One recursive least-squares problem runs per blade (the blade
loads are treated as mutually independent); regressors are built from the
*commanded* pitch, so actuator faults surface as changes in the identified
parameters, which is what the adapting controller consumes.

Alignment convention (documented here and exercised in tests): the target
at sample t is regressed on the window ending at t-1, i.e. the stacked-
window relation with window start t-p. Oldest sample first in the window.
"""

from __future__ import annotations

import numpy as np

from .numerics import RlsState, rls_update, rls_update_batch

__all__ = [
    "PeriodicBuffer",
    "MarkovEstimate",
    "identify_step",
    "IdentificationEngine",
]

N_BLADES = 3

_CHANNELS = {"u1": ("u", 0), "u2": ("u", 1), "u3": ("u", 2),
             "y1": ("y", 0), "y2": ("y", 1), "y3": ("y", 2)}


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


class MarkovEstimate:
    """Per-blade RLS states and the assembled Markov rows.

    Row i (1 x 2p) is [C A~^(p-1) B ... C B | C A~^(p-1) L ... C L] for the
    blade-i SISO predictor, exactly the blade-i RLS estimate.
    """

    def __init__(self, p: int, period: int, lam: float = 0.99999,
                 init_info: float = 1e-3, states=None):
        self.p = p
        self.period = period
        self.lam = lam
        if states is None:
            states = [RlsState.fresh(1, 2 * p, lam=lam, init_info=init_info)
                      for _ in range(N_BLADES)]
        self.states = list(states)

    @property
    def rows(self) -> np.ndarray:
        """(3, 2p) matrix whose row i is blade i's estimate."""
        return np.vstack([s.estimate[0] for s in self.states])

    def blade_row(self, blade: int) -> np.ndarray:
        return self.states[blade - 1].estimate[0].copy()


def identify_step(est: MarkovEstimate, regressors, dy, k: int) -> MarkovEstimate:
    """One identification step: one RLS update per blade.

    regressors: three 2p-vectors (windows ending at k-1); dy: the three
    periodic output differences at sample k.
    """
    dy = np.asarray(dy, dtype=float).reshape(N_BLADES)
    new_states = []
    for i in range(N_BLADES):
        state, _ = rls_update(est.states[i], regressors[i], dy[i: i + 1])
        new_states.append(state)
    return MarkovEstimate(est.p, est.period, lam=est.lam, states=new_states)


class IdentificationEngine:
    """Batched identification over full run history arrays.

    Consumes sample ranges of the recorded (u_cmd, y) series and folds each
    range into the per-blade RLS factors with a single weighted QR. This is
    the same exponentially weighted least-squares recursion as per-sample
    identify_step (QR stacking is associative); the equivalence is covered
    by tests.
    """

    def __init__(self, p: int, period: int, lam: float = 0.99999, init_info: float = 1e-3):
        self.estimate = MarkovEstimate(p, period, lam=lam, init_info=init_info)
        self.p = p
        self.period = period
        self._next_t = period + p  # first sample with a full regressor window

    def ingest(self, u_hist: np.ndarray, y_hist: np.ndarray, upto: int) -> None:
        """Fold all not-yet-processed targets with index < upto.

        u_hist/y_hist are the run-length history arrays, valid through
        index upto-1.
        """
        t0, t1 = self._next_t, int(upto)
        if t1 <= t0:
            return
        P, p = self.period, self.p
        du = u_hist[t0 - p: t1] - u_hist[t0 - p - P: t1 - P]
        dy = y_hist[t0 - p: t1] - y_hist[t0 - p - P: t1 - P]
        # Window for target t spans [t-p, t-1]; du rows here start at t0-p.
        n_rows = t1 - t0
        new_states = []
        for i in range(N_BLADES):
            wu = np.lib.stride_tricks.sliding_window_view(du[: p + n_rows - 1, i], p)
            wy = np.lib.stride_tricks.sliding_window_view(dy[: p + n_rows - 1, i], p)
            regs = np.hstack([wu[:n_rows], wy[:n_rows]])
            targets = dy[p:, i: i + 1]
            new_states.append(rls_update_batch(self.estimate.states[i], regs, targets))
        self.estimate = MarkovEstimate(p, P, lam=self.estimate.lam, states=new_states)
        self._next_t = t1

    def relative_errors(self, oracle_rows: np.ndarray) -> np.ndarray:
        """Per-blade ||row - oracle|| / ||oracle|| against a (3, 2p) oracle."""
        rows = self.estimate.rows
        return np.array([
            np.linalg.norm(rows[i] - oracle_rows[i]) / np.linalg.norm(oracle_rows[i])
            for i in range(N_BLADES)
        ])
