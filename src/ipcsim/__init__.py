"""Fault-tolerant individual pitch control on a surrogate three-blade rotor.

Online per-blade identification of predictor Markov parameters feeds a
per-rotation repetitive control law whose excitation is restricted to the
1P/2P rotor harmonics; baseline collective and Coleman-transform IPC
controllers, fault injection, metrics, and a deterministic campaign runner
round out the package. The root re-exports exactly each module's `__all__`.
"""

from .baselines import *
from .control import *
from .harness import *
from .metrics import *
from .numerics import *
from .plant import *
from .sysid import *

__version__ = "0.1.0"
