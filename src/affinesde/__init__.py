"""Almost-sure regime classification for affine SDEs dX = AX dt + sigma(t) dB,
with exact-in-distribution Monte-Carlo verification."""

from .model import (ConstantDrift, DiffusionSpec, ExpDecay, LogPower,
                    PeriodicDrift, PowerLaw, QuadratureError)
from .criteria import (FinitenessRuling, RegimeVerdict, classify,
                       criterion_report, decide_I, decide_Sprime, limit_Lh)
from .simulate import SimConfig, prepare, simulate_X, step_covariance
from .stats import RegimeEvidence, compare

__version__ = "0.1.0"

__all__ = [
    "ConstantDrift", "DiffusionSpec", "ExpDecay", "LogPower",
    "PeriodicDrift", "PowerLaw", "QuadratureError",
    "FinitenessRuling", "RegimeVerdict", "classify", "criterion_report",
    "decide_I", "decide_Sprime", "limit_Lh",
    "SimConfig", "prepare", "simulate_X",
    "step_covariance",
    "RegimeEvidence", "compare",
    "__version__",
]
