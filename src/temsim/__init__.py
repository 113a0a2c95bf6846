"""temsim: truncated Euler-Maruyama simulation of a regime-switching
Ait-Sahalia-type rate model with delayed volatility and Poisson jumps.
"""

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
    diffusion_g,
    drift_f,
    jump_h,
    khasminskii_check,
    khasminskii_integrand,
    sigmoid_volatility,
    two_regime_demo,
    validate_assumptions,
)
from .noise import make_noise
from .regime import (
    GeneratorMatrix,
    TransitionMatrix,
    matrix_exponential,
    sample_chain_path,
)
from .rng import path_streams, substream
from .schemes import (
    PathState,
    bem_step,
    simulate_tem_path,
    tem_step,
)
from .truncation import (
    StepProfileWarning,
    TruncationError,
    TruncationPolicy,
    default_mu_for,
    delta_star_search,
    psi,
    truncated_diffusion,
    truncated_drift,
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
    "TransitionMatrix",
    "TruncationError",
    "TruncationPolicy",
    "VolatilitySpec",
    "barrier_option_price",
    "bem_step",
    "bond_price",
    "build_volatility",
    "constant_segment",
    "default_mu_for",
    "delta_star_search",
    "diffusion_g",
    "drift_f",
    "jump_h",
    "khasminskii_check",
    "khasminskii_integrand",
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
    "tem_step",
    "truncated_diffusion",
    "truncated_drift",
    "truncation_band",
    "two_regime_demo",
    "validate_assumptions",
]
