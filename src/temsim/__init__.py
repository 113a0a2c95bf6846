"""temsim: truncated Euler-Maruyama simulation of a regime-switching
Ait-Sahalia-type rate model with delayed volatility and Poisson jumps.
"""

from .config import two_regime_demo
from .engine import Grid, SimulationError, resolve_grid
from .estimators import (
    ConvergenceReport,
    EstimatorResult,
    SchemeComparison,
    barrier_option_price,
    bond_price,
    moment_curves,
    scheme_comparison,
    strong_error,
)
from .model import (
    AssumptionReport,
    InitialSegment,
    ModelSpec,
    RegimeParams,
    VolatilitySpec,
    build_volatility,
    constant_segment,
    khasminskii_check,
    sigmoid_volatility,
    validate_assumptions,
)
from .noise import make_noise
from .regime import (
    GeneratorMatrix,
    matrix_exponential,
    sample_chain_path,
)
from .rng import path_streams, substream
from .schemes import PathState, simulate_tem_path
from .truncation import (
    StepProfileWarning,
    TruncationError,
    TruncationPolicy,
    default_mu_for,
    psi,
    truncation_band,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "ConvergenceReport",
    "EstimatorResult",
    "GeneratorMatrix",
    "Grid",
    "InitialSegment",
    "ModelSpec",
    "PathState",
    "RegimeParams",
    "SchemeComparison",
    "SimulationError",
    "StepProfileWarning",
    "TruncationError",
    "TruncationPolicy",
    "VolatilitySpec",
    "barrier_option_price",
    "bond_price",
    "build_volatility",
    "constant_segment",
    "default_mu_for",
    "khasminskii_check",
    "make_noise",
    "matrix_exponential",
    "moment_curves",
    "path_streams",
    "psi",
    "resolve_grid",
    "sample_chain_path",
    "scheme_comparison",
    "sigmoid_volatility",
    "simulate_tem_path",
    "strong_error",
    "substream",
    "truncation_band",
    "two_regime_demo",
    "validate_assumptions",
]
