"""temsim: truncated Euler-Maruyama simulation of a regime-switching
Ait-Sahalia-type rate model with delayed volatility and Poisson jumps.

The exports load on first use (PEP 562): ``import temsim`` loads no numpy
and no engine, and ``temsim.bond_price`` imports ``temsim.estimators``.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the submodule that defines it
_EXPORTS = {
    "ConvergenceReport": "estimators",
    "EstimatorResult": "estimators",
    "GeneratorMatrix": "regime",
    "Grid": "engine",
    "InitialSegment": "model",
    "ModelSpec": "model",
    "PathState": "schemes",
    "RegimeParams": "model",
    "SchemeComparison": "estimators",
    "SimulationError": "engine",
    "StepProfileWarning": "truncation",
    "TruncationError": "truncation",
    "TruncationPolicy": "truncation",
    "VolatilitySpec": "model",
    "barrier_option_price": "estimators",
    "bond_price": "estimators",
    "build_volatility": "model",
    "constant_segment": "model",
    "default_mu_for": "truncation",
    "khasminskii_check": "model",
    "matrix_exponential": "regime",
    "moment_curves": "estimators",
    "path_streams": "rng",
    "psi": "truncation",
    "resolve_grid": "engine",
    "scheme_comparison": "estimators",
    "sigmoid_volatility": "model",
    "simulate_tem_path": "schemes",
    "strong_error": "estimators",
    "substream": "rng",
    "truncation_band": "truncation",
    "two_regime_demo": "config",
    "validate_assumptions": "model",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
