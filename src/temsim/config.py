"""Config-file parsing and resolution.

A run is described by one YAML file with four sections: ``model``,
``truncation``, ``simulation``, and ``experiment``. Every field has a
documented default except the model itself, which must be given either
explicitly or through a named preset. Validation errors name the offending
field by its dotted path.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np
import yaml

from .model import (
    InitialSegment,
    ModelSpec,
    RegimeParams,
    build_volatility,
    constant_segment,
)
from .regime import GeneratorMatrix
from .truncation import TruncationPolicy, default_mu_for

_REQUIRED = object()


class ConfigError(ValueError):
    """Config problem, carrying the dotted path of the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


MODEL_PRESETS: dict[str, dict] = {
    "two_regime_demo": {
        "regimes": [
            {"alpha_m1": 0.3, "alpha_0": 0.2, "alpha_1": 0.1,
             "alpha_2": 0.5, "alpha_3": 1.0},
            {"alpha_m1": 0.2, "alpha_0": 0.3, "alpha_1": 0.2,
             "alpha_2": 0.6, "alpha_3": 2.0},
        ],
        "rho": 2.0,
        "theta": 1.25,
        "tau": 1.0,
        "jump_intensity": 1.0,
        "initial_regime": 1,
        "include_inverse_drift": True,
        "volatility": {"name": "sigmoid_s5"},
        "initial_segment": {"kind": "constant", "value": 0.02},
        "generator": [[-2.0, 2.0], [1.0, -1.0]],
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    strike: float = 0.01
    barrier: float = 1.0
    step_ladder: tuple[float, ...] = ()
    reference_delta: Optional[float] = None
    p: float = 2.0


@dataclass(frozen=True)
class RunConfig:
    spec: ModelSpec
    policy: TruncationPolicy
    delta: float
    horizon: float
    num_paths: int
    seed: int
    threads: int
    experiment: ExperimentConfig
    resolved: dict = field(repr=False, default_factory=dict)


def load_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fobj:
        raw = yaml.safe_load(fobj)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping of sections")
    return raw


def _section(raw: dict, name: str, required: bool = False) -> dict:
    value = raw.get(name)
    if value is None:
        if required:
            raise ConfigError(name, "section is required")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(name, "section must be a mapping")
    return value


def _number(section: dict, key: str, path: str, default=_REQUIRED,
            minimum=None, exclusive=False, maximum=None) -> float:
    if key not in section or section[key] is None:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}", "field is required")
        return default
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {value!r}")
    value = float(value)
    if minimum is not None:
        if exclusive and value <= minimum:
            raise ConfigError(f"{path}.{key}", f"must be > {minimum}, got {value}")
        if not exclusive and value < minimum:
            raise ConfigError(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}.{key}", f"must be <= {maximum}, got {value}")
    return value


def _integer(section: dict, key: str, path: str, default=_REQUIRED,
             minimum=None) -> int:
    value = _number(section, key, path, default=default, minimum=minimum)
    if value != int(value):
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {value}")
    return int(value)


def _boolean(section: dict, key: str, path: str, default: bool) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.{key}", f"expected true/false, got {value!r}")
    return value


def _merge_preset(model_raw: dict) -> dict:
    preset_name = model_raw.get("preset")
    if preset_name is None:
        return dict(model_raw)
    if preset_name not in MODEL_PRESETS:
        raise ConfigError(
            "model.preset",
            f"unknown preset {preset_name!r}; known: {sorted(MODEL_PRESETS)}",
        )
    merged = copy.deepcopy(MODEL_PRESETS[preset_name])
    for key, value in model_raw.items():
        if key == "preset":
            continue
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = value
    return merged


def _parse_regimes(model: dict) -> list[RegimeParams]:
    raw = model.get("regimes")
    if raw is None:
        raise ConfigError("model.regimes", "field is required")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("model.regimes", "expected a nonempty list of mappings")
    regimes = []
    for idx, entry in enumerate(raw):
        path = f"model.regimes[{idx}]"
        if not isinstance(entry, dict):
            raise ConfigError(path, "expected a mapping of coefficients")
        kwargs = {}
        for name in ("alpha_m1", "alpha_0", "alpha_1", "alpha_2", "alpha_3"):
            kwargs[name] = _number(entry, name, path, minimum=0.0)
        try:
            regimes.append(RegimeParams(**kwargs))
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    return regimes


def _parse_generator(model: dict, num_regimes: int) -> GeneratorMatrix:
    raw = model.get("generator")
    if raw is None:
        raise ConfigError("model.generator", "field is required")
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 1:
        if arr.size != num_regimes * num_regimes:
            raise ConfigError(
                "model.generator",
                f"flat row-major generator needs {num_regimes * num_regimes} "
                f"entries, got {arr.size}",
            )
        arr = arr.reshape(num_regimes, num_regimes)
    if arr.shape != (num_regimes, num_regimes):
        raise ConfigError(
            "model.generator",
            f"expected a {num_regimes}x{num_regimes} matrix, got shape {arr.shape}",
        )
    try:
        return GeneratorMatrix(arr)
    except ValueError as exc:
        raise ConfigError("model.generator", str(exc)) from exc


def _parse_volatility(model: dict):
    vol = model.get("volatility", {"name": "sigmoid_s5"})
    if not isinstance(vol, dict):
        raise ConfigError("model.volatility", "expected a mapping with a 'name'")
    name = vol.get("name")
    if not isinstance(name, str):
        raise ConfigError("model.volatility.name", "field is required")
    level = _number(vol, "level", "model.volatility", default=0.25, minimum=0.0)
    bound = vol.get("bound")
    if bound is not None:
        bound = _number(vol, "bound", "model.volatility", minimum=0.0, exclusive=True)
    try:
        return build_volatility(name, level=level, bound=bound), {
            "name": name, **({"level": level} if name == "constant" else {}),
            **({"bound": bound} if bound is not None else {}),
        }
    except ValueError as exc:
        raise ConfigError("model.volatility.name", str(exc)) from exc


def _parse_segment(model: dict) -> tuple[InitialSegment, dict]:
    seg = model.get("initial_segment", {"kind": "constant", "value": 0.02})
    if not isinstance(seg, dict):
        raise ConfigError("model.initial_segment", "expected a mapping")
    kind = seg.get("kind", "constant")
    if kind != "constant":
        raise ConfigError(
            "model.initial_segment.kind",
            f"unknown kind {kind!r}; config files support 'constant' "
            "(custom callables are available through the library API)",
        )
    value = _number(seg, "value", "model.initial_segment", default=0.02,
                    minimum=0.0, exclusive=True)
    segment = constant_segment(value)
    hc = _number(seg, "holder_constant", "model.initial_segment",
                 default=segment.holder_constant, minimum=0.0, exclusive=True)
    he = _number(seg, "holder_exponent", "model.initial_segment",
                 default=segment.holder_exponent, minimum=0.0, exclusive=True,
                 maximum=1.0)
    segment = InitialSegment(eval=segment.eval, holder_constant=hc,
                             holder_exponent=he, name=segment.name)
    return segment, {"kind": "constant", "value": value,
                     "holder_constant": hc, "holder_exponent": he}


def resolve_config(
    raw: dict,
    *,
    seed: Optional[int] = None,
    threads: Optional[int] = None,
    no_inverse_drift: bool = False,
    psi_exponent: Optional[float] = None,
) -> RunConfig:
    """Materialize a raw config dict into validated model/policy/run objects.

    Keyword arguments are command-line overrides and take precedence over
    the file; file values take precedence over defaults.
    """
    model_raw = _merge_preset(_section(raw, "model", required=True))
    if no_inverse_drift:
        model_raw["include_inverse_drift"] = False

    regimes = _parse_regimes(model_raw)
    volatility, vol_echo = _parse_volatility(model_raw)
    segment, seg_echo = _parse_segment(model_raw)
    generator = _parse_generator(model_raw, len(regimes))
    rho = _number(model_raw, "rho", "model")
    theta = _number(model_raw, "theta", "model")
    tau = _number(model_raw, "tau", "model", default=1.0, minimum=0.0, exclusive=True)
    lam = _number(model_raw, "jump_intensity", "model", default=1.0, minimum=0.0)
    initial_regime = _integer(model_raw, "initial_regime", "model", default=1, minimum=1)
    include_inverse = _boolean(model_raw, "include_inverse_drift", "model", True)
    try:
        spec = ModelSpec(
            regimes=tuple(regimes), rho=rho, theta=theta, tau=tau,
            jump_intensity=lam, volatility=volatility, initial_segment=segment,
            generator=generator, initial_regime=initial_regime,
            include_inverse_drift=include_inverse,
        )
    except ValueError as exc:
        raise ConfigError("model", str(exc)) from exc

    trunc = _section(raw, "truncation")
    q = psi_exponent if psi_exponent is not None else _number(
        trunc, "psi_exponent", "truncation", default=0.25, minimum=0.0, exclusive=True)
    mu_preset = trunc.get("mu", "auto")
    if mu_preset not in ("auto", "3u2", "power_fit"):
        raise ConfigError("truncation.mu",
                          f"unknown preset {mu_preset!r}; known: auto, 3u2, power_fit")
    delta_star = trunc.get("delta_star")
    if delta_star is not None:
        delta_star = _number(trunc, "delta_star", "truncation",
                             minimum=0.0, exclusive=True)
    try:
        policy = default_mu_for(spec, psi_exponent=q, mu_preset=mu_preset,
                                delta_star=delta_star)
    except ValueError as exc:
        raise ConfigError("truncation", str(exc)) from exc

    sim = _section(raw, "simulation")
    delta = _number(sim, "delta", "simulation", default=1e-3, minimum=0.0,
                    exclusive=True)
    horizon = _number(sim, "horizon", "simulation", default=2.0, minimum=0.0)
    num_paths = _integer(sim, "num_paths", "simulation", default=1000, minimum=1)
    file_seed = _integer(sim, "seed", "simulation", default=0, minimum=0)
    if seed is not None and seed < 0:
        raise ConfigError("simulation.seed", f"must be >= 0, got {seed}")
    run_seed = int(seed) if seed is not None else file_seed
    file_threads = sim.get("threads")
    if file_threads is not None:
        file_threads = _integer(sim, "threads", "simulation", minimum=1)
    if threads is not None:
        if threads < 1:
            raise ConfigError("simulation.threads", f"must be >= 1, got {threads}")
        run_threads = int(threads)
    elif file_threads is not None:
        run_threads = file_threads
    else:
        run_threads = os.cpu_count() or 1

    exp = _section(raw, "experiment")
    ladder = exp.get("step_ladder", [])
    if ladder is None:
        ladder = []
    if not isinstance(ladder, list):
        raise ConfigError("experiment.step_ladder", "expected a list of steps")
    for idx, value in enumerate(ladder):
        if not isinstance(value, (int, float)) or value <= 0:
            raise ConfigError(f"experiment.step_ladder[{idx}]",
                              f"expected a positive step, got {value!r}")
    reference_delta = exp.get("reference_delta")
    if reference_delta is not None:
        reference_delta = _number(exp, "reference_delta", "experiment",
                                  minimum=0.0, exclusive=True)
    experiment = ExperimentConfig(
        strike=_number(exp, "strike", "experiment", default=0.01, minimum=0.0),
        barrier=_number(exp, "barrier", "experiment", default=1.0, minimum=0.0,
                        exclusive=True),
        step_ladder=tuple(float(v) for v in ladder),
        reference_delta=reference_delta,
        p=_number(exp, "p", "experiment", default=2.0, minimum=1.0),
    )

    resolved = {
        "model": {
            "regimes": [
                {"alpha_m1": r.alpha_m1, "alpha_0": r.alpha_0, "alpha_1": r.alpha_1,
                 "alpha_2": r.alpha_2, "alpha_3": r.alpha_3}
                for r in spec.regimes
            ],
            "rho": spec.rho,
            "theta": spec.theta,
            "tau": spec.tau,
            "jump_intensity": spec.jump_intensity,
            "initial_regime": spec.initial_regime,
            "include_inverse_drift": spec.include_inverse_drift,
            "volatility": vol_echo,
            "initial_segment": seg_echo,
            "generator": [[float(v) for v in row] for row in spec.generator.entries],
        },
        "truncation": {
            "psi_exponent": policy.psi_exponent,
            "mu": policy.mu.name,
            "delta_star": policy.delta_star,
        },
        "simulation": {
            "delta": delta,
            "horizon": horizon,
            "num_paths": num_paths,
            "seed": run_seed,
            "threads": run_threads,
        },
        "experiment": {
            "strike": experiment.strike,
            "barrier": experiment.barrier,
            "step_ladder": list(experiment.step_ladder),
            "reference_delta": experiment.reference_delta,
            "p": experiment.p,
        },
    }
    return RunConfig(
        spec=spec, policy=policy, delta=delta, horizon=horizon,
        num_paths=num_paths, seed=run_seed, threads=run_threads,
        experiment=experiment, resolved=resolved,
    )
