"""Fault-tolerant individual pitch control on a surrogate three-blade rotor.

Online per-blade identification of predictor Markov parameters feeds a
per-rotation repetitive control law whose excitation is restricted to the
1P/2P rotor harmonics; baseline collective and Coleman-transform IPC
controllers, fault injection, metrics, and a deterministic campaign runner
round out the package.
"""

from .baselines import MbcIpcState
from .control import (
    BasisProjection,
    ControllerTuning,
    ExcitationGenerator,
    RepetitiveController,
    build_basis,
    project_output,
    update_theta,
)
from .harness import (
    CampaignReport,
    ComparisonTable,
    ConfigError,
    LoadCaseConfig,
    RunResult,
    compare,
    default_campaign,
    load_config_file,
    run_campaign,
    run_load_case,
)
from .metrics import adc, band_energy_ratio, metric_windows, rsd
from .numerics import (
    DareNonConvergence,
    DareSolution,
    PsdEstimate,
    RlsState,
    pinv,
    solve_dare,
    welch_psd,
)
from .plant import (
    DisturbanceModel,
    FaultScenario,
    SurrogatePlant,
    build_plant,
)
from .sysid import IdentificationEngine

__version__ = "0.1.0"
