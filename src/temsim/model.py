"""Model parameterization and coefficient functions.

The state equation is an Ait-Sahalia-type short-rate model whose
coefficients switch with a finite-state Markov chain, with a
delayed-argument volatility multiplier and a Poisson jump term:

    drift      f(x, i) = a_m1(i)/x - a_0(i) + a_1(i) x - a_2(i) x^rho
    diffusion  phi(x(t - tau), i) * g(x),   g(x) = x^theta
    jump       h(x, i) = a_3(i) x          (per Poisson increment)

The drift is defined on x >= 0 only, and the step rules keep it there:
the truncated EM step takes it inside the band [1/u, u], and the
backward EM solve on (0, inf), or frozen at its z = 0 value below zero.
The other coefficients are extended off the positive half-line so that
every scheme step is total: g and h vanish for x < 0, and the volatility
multiplier at a negative delayed value equals its value at zero.
:class:`CoefficientTables` is the one definition of f, f', g and h,
evaluated over arrays.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .regime import GeneratorMatrix


@dataclass(frozen=True)
class RegimeParams:
    """Per-regime coefficients of the drift/jump terms.

    The model form wants the four drift coefficients strictly positive;
    construction only requires them nonnegative so that degenerate test
    configurations (zeroed drift) remain expressible, and
    :func:`validate_assumptions` reports the strict check separately.
    """

    alpha_m1: float
    alpha_0: float
    alpha_1: float
    alpha_2: float
    alpha_3: float

    def __post_init__(self):
        for name in ("alpha_m1", "alpha_0", "alpha_1", "alpha_2", "alpha_3"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class VolatilitySpec:
    """Bounded volatility multiplier ``phi(y, i)`` of the delayed value.

    ``eval`` maps (delayed value, 1-based regime) to a nonnegative level no
    larger than ``bound_sigma``, with ``eval(y, i) == eval(0, i)`` for y < 0.
    ``eval_vec``, when provided, is the same map over numpy arrays and is
    used by the batch simulation engine; otherwise the scalar form is
    broadcast (slower, but equivalent). ``num_regimes`` says the map is
    defined for regimes ``1..num_regimes`` only; ``None`` means any regime.
    """

    bound_sigma: float
    eval: Callable[[float, int], float]
    eval_vec: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = "custom"
    num_regimes: Optional[int] = None

    def __post_init__(self):
        if not (self.bound_sigma > 0.0 and math.isfinite(self.bound_sigma)):
            raise ValueError("bound_sigma must be a positive finite real")
        if self.num_regimes is not None and self.num_regimes < 1:
            raise ValueError("num_regimes must be None or at least 1")

    def evaluate_many(self, y: np.ndarray, regimes: np.ndarray) -> np.ndarray:
        if self.eval_vec is not None:
            return self.eval_vec(y, regimes)
        out = np.empty(y.shape, dtype=float)
        flat_y, flat_r, flat_o = y.ravel(), regimes.ravel(), out.ravel()
        for j in range(flat_y.size):
            flat_o[j] = self.eval(float(flat_y[j]), int(flat_r[j]))
        return out


@dataclass(frozen=True)
class InitialSegment:
    """Initial history ``xi(t)`` on [-tau, 0], positive and Hoelder continuous."""

    eval: Callable[[float], float]
    holder_constant: float = 1.0
    holder_exponent: float = 1.0

    def __post_init__(self):
        # written so that NaN fails: it compares false with every number
        if not 0.0 < self.holder_constant < math.inf:
            raise ValueError(
                f"holder_constant must be positive and finite, got {self.holder_constant}")
        if not 0.0 < self.holder_exponent <= 1.0:
            raise ValueError("holder_exponent must lie in (0, 1]")


def constant_segment(value: float) -> InitialSegment:
    if not value > 0.0:
        raise ValueError(f"initial segment must be positive, got {value}")
    return InitialSegment(eval=_ConstantFn(value))


class _ConstantFn:
    """Picklable constant callable (lambdas would break process pools);
    ``many`` is the constant over the shape of an array."""

    def __init__(self, value: float):
        self.value = float(value)

    def __call__(self, *_args):
        return self.value

    def many(self, y, _regimes):
        return np.full(np.shape(y), self.value, dtype=float)


@dataclass(frozen=True)
class ModelSpec:
    """Full parameterization of the rate model, chain generator included."""

    regimes: tuple[RegimeParams, ...]
    rho: float
    theta: float
    tau: float
    jump_intensity: float
    volatility: VolatilitySpec
    initial_segment: InitialSegment
    generator: GeneratorMatrix
    initial_regime: int = 1
    include_inverse_drift: bool = True

    def __post_init__(self):
        object.__setattr__(self, "regimes", tuple(self.regimes))
        if not self.regimes:
            raise ValueError("at least one regime is required")
        for name in ("rho", "theta", "tau", "jump_intensity"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rho <= 1.0:
            raise ValueError("rho must exceed 1")
        if self.theta <= 1.0:
            raise ValueError("theta must exceed 1")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.jump_intensity < 0.0:
            raise ValueError("jump_intensity must be nonnegative")
        if not 1 <= self.initial_regime <= len(self.regimes):
            raise ValueError("initial_regime outside the state space")
        if self.generator.num_states != len(self.regimes):
            raise ValueError(
                f"generator is {self.generator.num_states}x{self.generator.num_states} "
                f"but there are {len(self.regimes)} regimes"
            )
        vol_regimes = self.volatility.num_regimes
        if vol_regimes is not None and vol_regimes < self.generator.num_states:
            raise ValueError(
                f"volatility {self.volatility.name!r} defines regimes 1..{vol_regimes} "
                f"but the generator has {self.generator.num_states} states"
            )

    @property
    def num_regimes(self) -> int:
        return len(self.regimes)


class CoefficientTables:
    """The coefficient kernel: f, f', g, h and their truncations over arrays.

    This is the only definition of the coefficients: the simulation engine
    steps on it, and ``validate`` and the growth check evaluate it. ``ridx``
    holds 0-based regime indices. A value at one point is the kernel on a
    width-1 array, as in ``tables.drift(np.array([x]), np.array([i - 1]))[0]``:
    that runs the numpy loops of a simulation's rows, where a 0-d operand
    would take numpy's scalar ``pow``, whose last bit can differ.
    """

    def __init__(self, spec: ModelSpec):
        self.a_m1 = np.array([r.alpha_m1 for r in spec.regimes])
        self.a0 = np.array([r.alpha_0 for r in spec.regimes])
        self.a1 = np.array([r.alpha_1 for r in spec.regimes])
        self.a2 = np.array([r.alpha_2 for r in spec.regimes])
        self.a3 = np.array([r.alpha_3 for r in spec.regimes])
        self.rho = spec.rho
        self.theta = spec.theta
        self.include_inverse = spec.include_inverse_drift

    def drift(self, x: np.ndarray, ridx: np.ndarray) -> np.ndarray:
        """f at ``x >= +0`` (or NaN): the drift is defined on the half-line only."""
        out = self.a1[ridx] * x - self.a0[ridx] - self.a2[ridx] * x ** self.rho
        if self.include_inverse:
            out = out + self.a_m1[ridx] / x
        return out

    def drift_derivative(self, x: np.ndarray, ridx: np.ndarray) -> np.ndarray:
        """f' at ``x >= +0`` (or NaN), the only points the implicit solve
        takes it at."""
        out = self.a1[ridx] - self.a2[ridx] * self.rho * x ** (self.rho - 1.0)
        if self.include_inverse:
            out = out - self.a_m1[ridx] / (x * x)
        return out

    def diffusion(self, x: np.ndarray) -> np.ndarray:
        """g at ``x``: x^theta for x >= 0, zero below, NaN at NaN."""
        return np.maximum(x, _ZERO) ** self.theta

    def jump(self, x: np.ndarray, ridx: np.ndarray) -> np.ndarray:
        return np.where(x > _ZERO, self.a3[ridx] * x, _ZERO)

    def truncated(self, x, ridx, lower, upper) -> tuple[np.ndarray, np.ndarray]:
        """The truncated drift and diffusion factor at ``x``.

        The drift is taken at ``x`` clamped into the band ``[lower, upper]``
        and the diffusion factor at ``x`` clamped from above only; the two
        share the upper clamp.
        """
        below = np.minimum(x, upper)
        return self.drift(np.maximum(below, lower), ridx), self.diffusion(below)

    def gather(self, ridx: np.ndarray) -> "CoefficientTables":
        """Tables whose row j holds the coefficients of regime indices ``ridx[j]``.

        Passing a row number as ``ridx`` to the result reads a contiguous
        row, made once here, instead of gathering on every call. Without
        the 1/x term nothing reads ``a_m1``, so the result's is None and a
        read of it fails.
        """
        rows = copy.copy(self)
        rows.a_m1 = list(self.a_m1[ridx]) if self.include_inverse else None
        for name in ("a0", "a1", "a2", "a3"):
            setattr(rows, name, list(getattr(self, name)[ridx]))
        return rows


# 0-d zero: the same comparisons and fills as the literal 0.0, with cheaper
# ufunc calls (a Python float operand costs a conversion on every call)
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


# -- built-in volatility functions -------------------------------------------

_SIGMOID_SCALE = (0.5, 0.25)


def sigmoid_volatility_vec(y: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Vectorized two-regime sigmoid volatility (regimes 1 and 2)."""
    y = np.asarray(y, dtype=float)
    scale = np.where(np.asarray(i) == 1, _SIGMOID_SCALE[0], _SIGMOID_SCALE[1])
    nonnegative = y >= 0.0
    yp = np.where(nonnegative, y, 0.0)
    # (1 + e^y - e^-y)/(e^y + e^-y) rewritten as tanh(y) + sech-type term,
    # stable for arbitrarily large y
    ratio = np.tanh(yp) + np.exp(-yp) / (1.0 + np.exp(-2.0 * yp))
    return scale * np.where(nonnegative, ratio, 0.5)


# sup of (1 + e^y - e^-y)/(e^y + e^-y) over y >= 0, attained at y = arcsinh(2);
# the y -> inf limit is 1, but the curve overshoots through the 1/cosh term
_SIGMOID_RATIO_SUP = math.sqrt(5.0) / 2.0


def sigmoid_volatility(y: float, i: int) -> float:
    """Two-regime sigmoid volatility level for a delayed value ``y``.

    Regime 1 starts at 1/4 at y = 0, peaks at sqrt(5)/4 near y = 1.44 and
    settles toward 1/2; regime 2 runs at half those levels. Negative
    delayed values take the regime's constant y = 0 level.
    """
    if i not in (1, 2):
        raise ValueError("the built-in sigmoid volatility has regimes 1 and 2")
    return float(sigmoid_volatility_vec(np.float64(y), np.int64(i)))


def _constant_vol(level: float):
    if not level >= 0.0:
        raise ValueError(f"constant volatility level must be >= 0, got {level}")
    constant = _ConstantFn(level)
    return VolatilitySpec(
        bound_sigma=level if level > 0.0 else 1.0,
        eval=constant,
        eval_vec=constant.many,
        name="constant" if level > 0.0 else "zero",
    )


CONSTANT_LEVEL = 0.25  # the ``constant`` volatility's level when none is given


def build_volatility(name: str, level: float = CONSTANT_LEVEL) -> VolatilitySpec:
    """Construct a volatility by registered name.

    Names: ``sigmoid_s5`` (two-regime sigmoid, exact bound sqrt(5)/4),
    ``constant`` (flat ``level``), ``zero``.
    """
    if name == "sigmoid_s5":
        return VolatilitySpec(
            bound_sigma=0.5 * _SIGMOID_RATIO_SUP,
            eval=sigmoid_volatility,
            eval_vec=sigmoid_volatility_vec,
            name="sigmoid_s5",
            num_regimes=len(_SIGMOID_SCALE),
        )
    if name == "constant":
        return _constant_vol(level)
    if name == "zero":
        return _constant_vol(0.0)
    raise ValueError(f"unknown volatility name {name!r}; "
                     "known: sigmoid_s5, constant, zero")


# -- assumption validation ----------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


# points of the dense sampling grids of validate_assumptions
_PROBE_POINTS = 10_000


def validate_assumptions(spec: ModelSpec) -> tuple[CheckResult, ...]:
    """Check the standing model hypotheses, returning one result per check
    (never raising).

    The volatility bound, its negative-argument extension, and the initial
    segment's positivity and Hoelder continuity are sampled on dense grids
    (heuristic, not symbolic); coefficient positivity and the exponent
    balance 1 + rho > 2 theta are exact arithmetic.
    """
    checks: list[CheckResult] = []

    strict = all(
        r.alpha_m1 > 0 and r.alpha_0 > 0 and r.alpha_1 > 0 and r.alpha_2 > 0
        for r in spec.regimes
    )
    checks.append(CheckResult(
        "coefficient_positivity", strict,
        "" if strict else "some drift coefficient is zero (degenerate spec)",
    ))

    balance = 1.0 + spec.rho > 2.0 * spec.theta
    checks.append(CheckResult(
        "exponent_balance", balance,
        f"1 + rho = {1.0 + spec.rho:g} vs 2 theta = {2.0 * spec.theta:g}",
    ))

    ys = np.concatenate([np.linspace(-20.0, 20.0, _PROBE_POINTS - 12),
                         [-1e8, -1e4, -1e2, 1e2, 1e4, 1e8, 0.0]])
    regimes = np.arange(1, spec.num_regimes + 1)
    bound_ok, ext_ok, vol_err = True, True, ""
    try:
        for i in regimes:
            vals = spec.volatility.evaluate_many(ys, np.full(ys.shape, i))
            if np.any(vals < 0.0) or np.any(vals > spec.volatility.bound_sigma + 1e-15):
                bound_ok = False
            at_zero = spec.volatility.eval(0.0, int(i))
            neg = vals[ys < 0.0]
            if neg.size and np.abs(neg - at_zero).max() > 1e-15:
                ext_ok = False
    except Exception as exc:  # report, never abort
        bound_ok = ext_ok = False
        vol_err = f"evaluation failed: {exc}"
    checks.append(CheckResult("volatility_bounded", bound_ok, vol_err))
    checks.append(CheckResult(
        "volatility_negative_extension", ext_ok,
        "" if ext_ok else "eval(y<0, i) differs from eval(0, i)",
    ))

    ts = np.linspace(-spec.tau, 0.0, _PROBE_POINTS)
    seg = spec.initial_segment
    try:
        xi = np.array([seg.eval(float(t)) for t in ts])
        positive = bool(np.all(xi > 0.0))
        holder = True
        for stride in (1, 10, 100, 1000):
            dt = ts[stride:] - ts[:-stride]
            dxi = np.abs(xi[stride:] - xi[:-stride])
            if np.any(dxi > seg.holder_constant * dt**seg.holder_exponent + 1e-12):
                holder = False
        seg_err = ""
    except Exception as exc:
        positive = holder = False
        seg_err = f"evaluation failed: {exc}"
    checks.append(CheckResult("initial_segment_positive", positive, seg_err))
    checks.append(CheckResult("initial_segment_hoelder", holder, seg_err))

    return tuple(checks)


# -- one-sided growth (moment-bound) check ------------------------------------

def _growth_functional(x, spec: ModelSpec, y, ridx, p: float) -> np.ndarray:
    """x f(x,i) + (p-1)/2 * (phi(y,i) g(x))^2 over broadcast arrays."""
    tables = CoefficientTables(spec)
    phi = spec.volatility.evaluate_many(*np.broadcast_arrays(y, ridx + 1))
    return x * tables.drift(x, ridx) + 0.5 * (p - 1.0) * (phi * tables.diffusion(x)) ** 2


def khasminskii_check(spec: ModelSpec, p: float = 2.0) -> tuple[bool, float]:
    """Grid test that the growth functional stays below K4 (1 + x^2).

    Returns ``(holds, fitted_k4)`` where ``fitted_k4`` is the largest ratio
    of the functional to ``1 + x^2`` over the grid. The bound is judged to
    hold when that maximum is finite, attained away from the upper grid
    edge, and not still increasing there.
    """
    if p < 2.0:
        raise ValueError("p must be >= 2")
    xs = np.geomspace(1e-2, 1e2, 401)
    ys = np.linspace(-5.0, 5.0, 21)

    # axes (x, regime, y); the worst regime and delayed value per x
    ridx = np.arange(spec.num_regimes)[None, :, None]
    growth = _growth_functional(xs[:, None, None], spec, ys[None, None, :], ridx, p)
    ratios = growth.max(axis=(1, 2)) / (1.0 + xs * xs)

    k4 = float(ratios.max())
    arg = int(ratios.argmax())
    holds = bool(
        np.all(np.isfinite(ratios))
        and arg < xs.size - 1
        and ratios[-1] <= ratios[-2]
    )
    return holds, k4
