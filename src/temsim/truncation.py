"""Step-size-dependent truncation of the superlinear coefficients.

A dominating function ``mu`` bounds the coefficient magnitudes over bands
``[1/r, r]``; its inverse composed with a decreasing step profile
``psi(delta) = delta^-q`` yields the truncation band for each step size.
Inside the band the truncated coefficients equal the raw ones; outside,
arguments are clamped to the band edges, which caps every coefficient
evaluation at ``psi(delta)``.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import CoefficientTables, ModelSpec


class TruncationError(ValueError):
    """Raised when a policy cannot be constructed or a step size is inadmissible."""


class StepProfileWarning(UserWarning):
    """Emitted once, when a policy is built, if psi violates the
    quarter-power admissibility bound."""


class _Mu3U2:
    """mu(u) = 3 u^2, the closed form used with the built-in demo model."""

    name = "3u2"

    def __call__(self, r):
        return 3.0 * r * r

    def inverse(self, u):
        return np.sqrt(u / 3.0)


class _MuPower:
    """mu(u) = c * u^m with a grid-fitted constant."""

    name = "power_fit"

    def __init__(self, c: float, m: float):
        self.c = float(c)
        self.m = float(m)

    def __call__(self, r):
        return self.c * r**self.m

    def inverse(self, u):
        return (u / self.c) ** (1.0 / self.m)


# the names ``default_mu_for`` takes as ``mu_preset``
MU_PRESETS = ("auto", _Mu3U2.name, _MuPower.name)


@dataclass(frozen=True)
class TruncationPolicy:
    """Dominating function, step profile exponent, and admissible step bound.

    ``mu`` is callable and carries its ``inverse`` and ``name`` (see
    :class:`_Mu3U2` and :class:`_MuPower`). Building a policy whose profile
    breaks the quarter-power condition warns (:class:`StepProfileWarning`);
    a copy unpickled in a worker process does not warn again.
    """

    mu: _Mu3U2 | _MuPower
    psi_exponent: float
    delta_star: float

    def __post_init__(self):
        _check_exponent(self.psi_exponent)
        if not 0.0 < self.delta_star < 1.0:
            raise TruncationError("delta_star must lie in (0, 1)")
        if not self.quarter_power:
            # name the first caller outside this module, past the dataclass
            # __init__ that calls this method
            frame, level = sys._getframe(2), 3
            while frame.f_code.co_filename == __file__:
                frame, level = frame.f_back, level + 1
            warnings.warn(f"psi exponent {self.psi_exponent:g} exceeds 1/4: delta^(1/4) "
                          "psi(delta) > 1 for every delta < 1", StepProfileWarning,
                          stacklevel=level)

    @property
    def quarter_power(self) -> bool:
        """Whether ``psi = delta^-q`` meets the quarter-power condition
        ``delta^(1/4) psi(delta) <= 1`` on (0, 1): exactly when q <= 1/4."""
        return self.psi_exponent <= 0.25


def _check_exponent(q: float) -> None:
    # written so that NaN fails: it compares false with every number
    if not 0.0 < q < math.inf:
        raise TruncationError(f"psi_exponent must be positive and finite, got {q!r}")


def _profile(delta: float, q: float) -> float:
    """``delta^-q`` at a step ``delta`` > 0, as a Python float power: the one
    place the power is taken and the step checked, for :func:`psi` and
    :func:`band_edge`. A power past the largest float is refused, by name."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    try:
        return float(delta) ** -q
    except OverflowError:
        raise TruncationError(f"psi_exponent {q:g} takes delta^-q past the largest "
                              f"float at step {delta:g}") from None


def psi(delta: float, policy: TruncationPolicy) -> float:
    """Step profile ``delta^-q`` at a step."""
    return _profile(delta, policy.psi_exponent)


def band_edge(mu: _Mu3U2 | _MuPower, q: float, delta: float):
    """Upper band edge ``u = mu.inverse(delta^-q)`` at a step."""
    return mu.inverse(_profile(delta, q))


def truncation_band(delta: float, policy: TruncationPolicy) -> tuple[float, float]:
    """Clamp interval ``[1/u, u]`` with ``u = mu.inverse(psi(delta))``."""
    if delta > policy.delta_star * (1.0 + 1e-12):
        raise TruncationError(
            f"delta = {delta:g} exceeds the admissible bound delta_star = "
            f"{policy.delta_star:g}"
        )
    upper = float(band_edge(policy.mu, policy.psi_exponent, delta))
    # written so that NaN fails: it compares false with every number
    if not upper > 1.0:
        raise TruncationError(
            f"truncation band degenerate at delta = {delta:g} (upper edge {upper:g})"
        )
    return 1.0 / upper, upper


def _band_sups(tables: CoefficientTables,
               ridx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grid edges ``r`` >= 1 and the sup of |f| and g over each band [1/r, r],
    over the regime indices ``ridx``: the grid is symmetric in log about
    x = 1 and the bands are nested, so each sup is a running maximum
    outward from x = 1. A power past the largest float gives an infinite or
    NaN sup, with no numpy warning."""
    xs = np.geomspace(1e-3, 1e3, 4001)
    with np.errstate(over="ignore", invalid="ignore"):
        drifts = tables.drift(xs, ridx)
        sup = np.maximum(tables.diffusion(xs), np.abs(drifts).max(axis=0))
    mid = xs.size // 2
    return xs[mid:], np.maximum(np.maximum.accumulate(sup[mid:]),
                                np.maximum.accumulate(sup[mid::-1]))


def _verify_domination(mu: Callable, r: np.ndarray, band_sup: np.ndarray) -> None:
    # a band [1/u, u] with r[k] <= u <= r[k+1] lies inside band k+1, and
    # mu(u) >= mu(r[k]): checking these pairs covers every u, not only r;
    # written so that a NaN sup fails
    bad = ~(band_sup[1:] <= mu(r[:-1]) * (1.0 + 1e-9))
    if bad.any():
        k = int(np.argmax(bad))
        raise TruncationError(
            f"mu({r[k]:g}) = {float(mu(r[k])):g} does not dominate the "
            f"coefficient sup {band_sup[k + 1]:g} on [1/{r[k + 1]:g}, {r[k + 1]:g}]"
        )


def _delta_star_search(admissible: Callable[[float], bool]) -> float:
    lo, hi = 1e-12, 1.0 - 1e-9
    if not admissible(lo):
        raise TruncationError("no admissible step bound found above 1e-12")
    if admissible(hi):
        return hi
    while hi - lo > 1e-6 * max(lo, 1e-3):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def default_mu_for(spec: ModelSpec, psi_exponent: float = 0.25,
                   mu_preset: str = "auto",
                   delta_star: float | None = None) -> TruncationPolicy:
    """Build a truncation policy for a model.

    ``mu_preset``:
      * ``"3u2"`` -- the closed form mu(u) = 3 u^2 (valid for the built-in
        demo model); verified against the coefficients before use.
      * ``"power_fit"`` -- mu(u) = c * u^(max(rho, theta) + 1) with c fitted
        by grid maximization of the coefficient sup.
      * ``"auto"`` -- 3u2 if it dominates this model's coefficients, else
        the power fit.

    The default profile exponent 1/4 is the largest satisfying the
    quarter-power step condition; larger values (e.g. 2/3) are accepted but
    make the policy warn once, here. ``delta_star`` is searched for, or
    given and held to the same rule: a band ``[1/u, u]`` with u > 1 and,
    with the 1/x term, a positive drift below it.
    """
    if mu_preset not in MU_PRESETS:
        raise TruncationError(f"unknown mu preset {mu_preset!r}")
    _check_exponent(psi_exponent)
    tables = CoefficientTables(spec)
    ridx = np.arange(spec.num_regimes)[:, None]
    r, band_sup = _band_sups(tables, ridx)

    mu = None
    if mu_preset != _MuPower.name:
        candidate = _Mu3U2()
        try:
            _verify_domination(candidate, r, band_sup)
            mu = candidate
        except TruncationError:
            if mu_preset == candidate.name:
                raise
    if mu is None:
        m = max(spec.rho, spec.theta) + 1.0
        # dominates by construction, in the sense of _verify_domination
        with np.errstate(over="ignore", invalid="ignore"):
            c = float((band_sup[1:] / r[:-1] ** m).max()) * (1.0 + 1e-6)
        if not math.isfinite(c):
            raise TruncationError(
                f"power-fit mu(u) = c u^m has no finite constant c at the exponent "
                f"m = max(rho, theta) + 1 = {m:g}: the coefficient sup or r^m is "
                "past the largest float")
        mu = _MuPower(c, m)

    def admissible(delta: float) -> bool:
        # written so that NaN fails: it compares false with every number
        if not float(band_edge(mu, psi_exponent, delta)) > 1.0:
            return False
        if spec.include_inverse_drift:
            xs = np.geomspace(delta * 1e-3, delta * (1.0 - 1e-9), 128)
            if np.any(tables.drift(xs, ridx) <= 0.0):
                return False
        return True

    # an override is held to the policy's range before the rule takes it
    policy = TruncationPolicy(mu=mu, psi_exponent=psi_exponent, delta_star=float(
        _delta_star_search(admissible) if delta_star is None else delta_star))
    if delta_star is not None and not admissible(policy.delta_star):
        raise TruncationError(f"delta_star override {delta_star:g} is not admissible: "
                              "its band is degenerate, or a drift is not positive below it")
    return policy
