"""Config-file parsing and resolution.

A run is described by one YAML file with four sections: ``model``,
``truncation``, ``simulation``, and ``experiment``. Every field has a
documented default except the model itself, which must be given either
explicitly or through a named preset. Validation errors name the offending
field by its dotted path.
"""

from __future__ import annotations

import copy
import math
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
import yaml

from .model import (
    CONSTANT_LEVEL,
    InitialSegment,
    ModelSpec,
    RegimeParams,
    build_volatility,
    constant_segment,
)
from .regime import GeneratorMatrix
from .truncation import MU_PRESETS, TruncationPolicy, default_mu_for

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
class RunConfig:
    spec: ModelSpec
    policy: TruncationPolicy
    delta: float
    horizon: float
    num_paths: int
    seed: int
    threads: int
    strike: float
    barrier: float
    step_ladder: tuple[float, ...]
    reference_delta: Optional[float]
    p: float
    resolved: dict = field(repr=False, default_factory=dict)


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fobj:
            raw = yaml.safe_load(fobj)
    # ValueError: a file that is not UTF-8, or an integer over 4300 digits
    except (OSError, yaml.YAMLError, ValueError) as exc:
        raise ConfigError("--config", str(exc)) from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping of sections")
    return raw


@contextmanager
def _owned_at(path: str):
    """An owner's refusal in the block (a ValueError) as a ConfigError at ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _section(raw: dict, name: str, required: bool = False, **flags) -> dict:
    """Section ``name`` with the given command-line values written over its
    fields (a flag of None was not given)."""
    value = raw.get(name)
    if value is None:
        if required:
            raise ConfigError(name, "section is required")
        value = {}
    if not isinstance(value, dict):
        raise ConfigError(name, "section must be a mapping")
    return {**value, **{key: v for key, v in flags.items() if v is not None}}


def _only(section: dict, path: str, known) -> None:
    """Reject a key of ``section`` outside ``known``, such as a mistyped field."""
    for key in section:
        if key not in known:
            where = f"{path}.{key}" if path else str(key)
            raise ConfigError(where, f"unknown field; known: {', '.join(known)}")


def _number(section: dict, key, path: str, default=_REQUIRED, minimum=None,
            exclusive=False, maximum=None, integer=False):
    """The finite number at ``section[key]`` (an integer key names a list
    entry), or ``default`` when it is absent or null. With ``integer`` the
    value must be integral and comes back as an exact ``int``."""
    where = f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"
    value = section.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(where, "field is required")
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(where, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError as exc:
        raise ConfigError(where, "integer out of range") from exc
    if not math.isfinite(number):
        raise ConfigError(where, f"expected a finite number, got {number}")
    if integer:
        if number != int(number):
            raise ConfigError(where, f"expected an integer, got {number}")
        number = value if isinstance(value, int) else int(number)
    if minimum is not None:
        if exclusive and number <= minimum:
            raise ConfigError(where, f"must be > {minimum}, got {number}")
        if not exclusive and number < minimum:
            raise ConfigError(where, f"must be >= {minimum}, got {number}")
    if maximum is not None and number > maximum:
        raise ConfigError(where, f"must be <= {maximum}, got {number}")
    return number


def _integer(section: dict, key: str, path: str, default=_REQUIRED,
             minimum=None) -> int:
    return _number(section, key, path, default=default, minimum=minimum, integer=True)


def _boolean(section: dict, key: str, path: str, default: bool) -> bool:
    value = section.get(key)
    if value is None:
        return default
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
    # null keeps a preset field's value; any other field stays, to be read or rejected
    for key, value in model_raw.items():
        if key == "preset" or (value is None and key in merged):
            continue
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update((k, v) for k, v in value.items()
                               if v is not None or k not in merged[key])
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
        names = ("alpha_m1", "alpha_0", "alpha_1", "alpha_2", "alpha_3")
        _only(entry, path, names)
        # _number refuses every value RegimeParams would
        regimes.append(RegimeParams(**{name: _number(entry, name, path, minimum=0.0)
                                       for name in names}))
    return regimes


def _parse_generator(model: dict, num_regimes: int) -> GeneratorMatrix:
    raw = model.get("generator")
    if raw is None:
        raise ConfigError("model.generator", "field is required")
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows, strings, a mapping
        raise ConfigError("model.generator",
                          f"expected a matrix of numbers, got {raw!r}") from exc
    if arr.shape != (num_regimes, num_regimes):
        raise ConfigError(
            "model.generator",
            f"expected a {num_regimes}x{num_regimes} matrix, got shape {arr.shape}",
        )
    with _owned_at("model.generator"):
        return GeneratorMatrix(arr)


def _parse_volatility(model: dict):
    vol = model.get("volatility")
    if vol is None:
        vol = {"name": "sigmoid_s5"}
    if not isinstance(vol, dict):
        raise ConfigError("model.volatility", "expected a mapping with a 'name'")
    _only(vol, "model.volatility", ("name", "level"))
    name = vol.get("name")
    if not isinstance(name, str):
        raise ConfigError("model.volatility.name", "field is required")
    echo = {"name": name}
    if name == "constant":
        echo["level"] = _number(vol, "level", "model.volatility",
                                default=CONSTANT_LEVEL, minimum=0.0)
    with _owned_at("model.volatility.name"):
        volatility = build_volatility(**echo)
    if name != "constant" and vol.get("level") is not None:
        raise ConfigError("model.volatility.level",
                          f"applies only to the 'constant' volatility, not {name!r}")
    return volatility, echo


def _parse_segment(model: dict) -> tuple[InitialSegment, dict]:
    seg = model.get("initial_segment")
    if seg is None:
        seg = {}
    if not isinstance(seg, dict):
        raise ConfigError("model.initial_segment", "expected a mapping")
    kind = seg.get("kind")
    if kind not in (None, "constant"):
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
    segment = InitialSegment(eval=segment.eval, holder_constant=hc, holder_exponent=he)
    echo = {"kind": "constant", "value": value,
            "holder_constant": hc, "holder_exponent": he}
    _only(seg, "model.initial_segment", echo)
    return segment, echo


def _read_model(model_raw: dict) -> tuple[ModelSpec, dict]:
    """The model and its echo from a ``model`` section with its preset merged in."""
    regimes = _parse_regimes(model_raw)
    volatility, vol_echo = _parse_volatility(model_raw)
    segment, seg_echo = _parse_segment(model_raw)
    generator = _parse_generator(model_raw, len(regimes))
    scalars = {
        "rho": _number(model_raw, "rho", "model"),
        "theta": _number(model_raw, "theta", "model"),
        "tau": _number(model_raw, "tau", "model", default=1.0, minimum=0.0,
                       exclusive=True),
        "jump_intensity": _number(model_raw, "jump_intensity", "model", default=1.0,
                                  minimum=0.0),
        "initial_regime": _integer(model_raw, "initial_regime", "model", default=1,
                                   minimum=1),
        "include_inverse_drift": _boolean(model_raw, "include_inverse_drift", "model",
                                          True),
    }
    with _owned_at("model"):
        spec = ModelSpec(regimes=tuple(regimes), volatility=volatility,
                         initial_segment=segment, generator=generator, **scalars)
    model = {**scalars, "regimes": [asdict(r) for r in regimes],
             "volatility": vol_echo, "initial_segment": seg_echo,
             "generator": generator.entries.tolist()}
    _only(model_raw, "model", ("preset", *model))
    return spec, model


def two_regime_demo() -> ModelSpec:
    """The built-in two-regime instance of the docs and tests: the
    ``two_regime_demo`` preset, read as a config file's model is."""
    return _read_model(_merge_preset({"preset": "two_regime_demo"}))[0]


def resolve_config(
    raw: dict,
    *,
    seed: Optional[int] = None,
    threads: Optional[int] = None,
) -> RunConfig:
    """Materialize a raw config dict into validated model/policy/run objects.

    ``seed`` and ``threads`` are the command-line overrides: each is written
    over its ``simulation`` field and read by the same rules, so a flag
    takes precedence over the file and file values over defaults. The
    values read are the echo in ``RunConfig.resolved``.
    """
    _only(raw, "", ("model", "truncation", "simulation", "experiment"))
    spec, model = _read_model(_merge_preset(_section(raw, "model", required=True)))

    # the fields the file sets; default_mu_for owns the defaults of the rest
    trunc = _section(raw, "truncation")
    _only(trunc, "truncation", ("psi_exponent", "mu", "delta_star"))
    given = {
        "psi_exponent": _number(trunc, "psi_exponent", "truncation", default=None,
                                minimum=0.0, exclusive=True),
        "mu_preset": trunc.get("mu"),
        "delta_star": _number(trunc, "delta_star", "truncation", default=None),
    }
    if given["mu_preset"] not in (None, *MU_PRESETS):
        raise ConfigError("truncation.mu", f"unknown preset {given['mu_preset']!r}; "
                          f"known: {', '.join(MU_PRESETS)}")
    with _owned_at("truncation"):
        policy = default_mu_for(spec, **{key: value for key, value in given.items()
                                         if value is not None})
    truncation = {"psi_exponent": policy.psi_exponent, "mu": policy.mu.name,
                  "delta_star": policy.delta_star}

    sim = _section(raw, "simulation", seed=seed, threads=threads)
    simulation = {
        "delta": _number(sim, "delta", "simulation", default=1e-3, minimum=0.0,
                         exclusive=True),
        "horizon": _number(sim, "horizon", "simulation", default=2.0, minimum=0.0),
        "num_paths": _integer(sim, "num_paths", "simulation", default=1000, minimum=1),
        "seed": _integer(sim, "seed", "simulation", default=0, minimum=0),
        "threads": _integer(sim, "threads", "simulation",
                            default=os.cpu_count() or 1, minimum=1),
    }
    _only(sim, "simulation", simulation)

    exp = _section(raw, "experiment")
    ladder = exp.get("step_ladder")
    if not isinstance(ladder, (list, type(None))):
        raise ConfigError("experiment.step_ladder", "expected a list of steps")
    ladder = dict(enumerate(ladder or []))
    experiment = {
        "strike": _number(exp, "strike", "experiment", default=0.01, minimum=0.0),
        "barrier": _number(exp, "barrier", "experiment", default=1.0, minimum=0.0,
                           exclusive=True),
        "step_ladder": [_number(ladder, idx, "experiment.step_ladder", minimum=0.0,
                                exclusive=True) for idx in ladder],
        "reference_delta": _number(exp, "reference_delta", "experiment", default=None,
                                   minimum=0.0, exclusive=True),
        "p": _number(exp, "p", "experiment", default=2.0, minimum=1.0),
    }
    _only(exp, "experiment", experiment)

    return RunConfig(
        spec=spec, policy=policy, **simulation,
        **{**experiment, "step_ladder": tuple(experiment["step_ladder"])},
        resolved={"model": model, "truncation": truncation,
                  "simulation": simulation, "experiment": experiment},
    )
