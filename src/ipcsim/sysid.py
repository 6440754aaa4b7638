"""Online predictor-based identification of per-blade Markov parameters.

The rotor-period difference of every signal removes the exactly periodic
disturbance from the regression, leaving the predictor-form relation

    dy[t] = Xi_(i) [du_i[t-p..t-1] | dy_i[t-p..t-1]] + de[t]

per blade i. One recursive least-squares problem runs per blade (the blade
loads are treated as mutually independent); the three are stacked along a
leading blade axis and folded together. Regressors are built from the
*commanded* pitch, so actuator faults surface as changes in the identified
parameters, which is what the adapting controller consumes.

Alignment convention (documented here and exercised in tests): the target
at sample t is regressed on the window ending at t-1, i.e. the stacked-
window relation with window start t-p. Oldest sample first in the window.
"""

from __future__ import annotations

import numpy as np

from .numerics import RlsState, rls_update_batch
from .plant import N_BLADES

__all__ = ["IdentificationEngine"]


class IdentificationEngine:
    """Batched identification over full run history arrays.

    Consumes sample ranges of the recorded (u_cmd, y) series and folds each
    range into the three blades' stacked information matrices and estimates
    with a single weighted Gram product and one stacked solve. Folding per
    rotation gives the same exponentially weighted least-squares solution as
    folding sample by sample, up to rounding; the equivalence is covered by
    tests.
    """

    def __init__(self, p: int, period: int, lam: float = 0.99999):
        self.state = RlsState.fresh(1, 2 * p, lam=lam, stack=(N_BLADES,))
        self.p = p
        self.period = period
        self._next_t = period + p  # first sample with a full regressor window

    @property
    def rows(self) -> np.ndarray:
        """(3, 2p) Markov rows, the RLS state's estimate; row i is blade
        i's [C A~^(p-1) B ... C B | C A~^(p-1) L ... C L]."""
        return self.state.estimate[:, 0]

    def ingest(self, u_hist: np.ndarray, y_hist: np.ndarray, upto: int) -> None:
        """Fold all not-yet-processed targets with index < upto.

        u_hist/y_hist are the run-length history arrays, valid through
        index upto-1.
        """
        t0, t1 = self._next_t, int(upto)
        if t1 <= t0:
            return
        P, p = self.period, self.p
        n_rows = t1 - t0
        # diff[b, 0] / diff[b, 1]: periodic differences of blade b's u / y
        # from sample t0 - p.
        diff = np.empty((N_BLADES, 2, n_rows + p))
        np.subtract(u_hist[t0 - p: t1].T, u_hist[t0 - p - P: t1 - P].T, out=diff[:, 0])
        np.subtract(y_hist[t0 - p: t1].T, y_hist[t0 - p - P: t1 - P].T, out=diff[:, 1])
        # windows[b, r, k]: signal k of blade b over [t0 + r - p, t0 + r - 1]
        # (a view; the reshape makes the one copy).
        blade, signal, sample = diff.strides
        windows = np.ndarray((N_BLADES, n_rows, 2, p), buffer=diff,
                             strides=(blade, sample, signal, sample))
        regressors = windows.reshape(N_BLADES, n_rows, 2 * p)
        self.state = rls_update_batch(self.state, regressors, diff[:, 1, p:, None])
        self._next_t = t1
