"""Time steppers and single-path simulation.

The exported observable of a simulation is the piecewise-constant step
process: constant on each ``[t_k, t_{k+1})`` with the grid value at its
left end. Delay lookups are pure integer shifts (``k - M``), never
interpolation, because the step always divides the delay exactly.

A single path is row ``path_index`` of its run's batch draw, so the
coordinates ``(seed, path, delta)`` that a :class:`SimulationError` names
replay it: ``simulate_tem_path(spec, policy, delta, horizon, seed=seed,
path_index=path)`` draws the same noise and fails at the same node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import engine
from .engine import resolve_grid
from .model import CoefficientTables, ModelSpec
from .truncation import TruncationPolicy, truncation_band


@dataclass(frozen=True)
class PathState:
    """A simulated trajectory on the grid k = -M..K (column j is node j - M),
    with the increments ``brownian[k]``, ``poisson[k]`` of step k to k+1
    when it was simulated from drawn noise."""

    delta: float
    tau_steps: int
    values: np.ndarray
    regimes: np.ndarray
    brownian: Optional[np.ndarray] = None
    poisson: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.values.ndim != 1:
            raise ValueError("values must be a 1-d array")
        if self.regimes.shape != (self.num_steps + 1,):
            raise ValueError("regimes must cover nodes 0..K")

    @property
    def num_steps(self) -> int:
        return self.values.size - self.tau_steps - 1

    def value(self, k: int) -> float:
        """Grid value at node k, for k in -M..K."""
        if not -self.tau_steps <= k <= self.num_steps:
            raise IndexError(f"node {k} outside -{self.tau_steps}..{self.num_steps}")
        return float(self.values[k + self.tau_steps])

    def delayed_value(self, k: int) -> float:
        """Value one delay back from node k (exact index shift by M)."""
        return self.value(k - self.tau_steps)

    def regime(self, k: int) -> int:
        if not 0 <= k <= self.num_steps:
            raise IndexError(f"node {k} outside 0..{self.num_steps}")
        return int(self.regimes[k])

    def step_value(self, t: float) -> float:
        """The step process at time t in [-tau, horizon]."""
        if t < -self.tau_steps * self.delta - 1e-12 or t > self.horizon + 1e-12:
            raise ValueError(f"time {t} outside the simulated range")
        k = min(math.floor(t / self.delta + 1e-12), self.num_steps)
        return self.value(max(k, -self.tau_steps))

    @property
    def horizon(self) -> float:
        return self.num_steps * self.delta


def _step_inputs(state: PathState, k: int, d_poisson: int, spec: ModelSpec):
    """Width-1 state, regime index, volatility and jump count of node k, for
    the step rules (a count of zero is a step without jumps)."""
    r = state.regime(k)
    spec.regime(r)
    phi = spec.volatility.evaluate_many(np.array([state.delayed_value(k)]), np.array([r]))
    return np.array([state.value(k)]), r - 1, phi, float(d_poisson) if d_poisson else None


def tem_step(state: PathState, k: int, d_brownian: float, d_poisson: int,
             spec: ModelSpec, policy: TruncationPolicy) -> float:
    """One truncated-EM update from node k given the step's increments."""
    x, ridx, phi, d_n = _step_inputs(state, k, d_poisson, spec)
    lower, upper = truncation_band(state.delta, policy)
    return float(engine.tem_update(x, CoefficientTables(spec), ridx, phi, d_brownian,
                                   d_n, k, state.delta, lower, upper)[0])


def bem_step(state: PathState, k: int, d_brownian: float, d_poisson: int,
             spec: ModelSpec) -> float:
    """One backward-EM update: drift implicit, diffusion and jump explicit."""
    x, ridx, phi, d_n = _step_inputs(state, k, d_poisson, spec)
    return float(engine.bem_update(x, CoefficientTables(spec), ridx, phi, d_brownian,
                                   d_n, k, state.delta, spec.include_inverse_drift)[0])


def simulate_tem_path(
    spec: ModelSpec,
    policy: TruncationPolicy,
    delta: float,
    horizon: float,
    seed: int,
    path_index: int = 0,
) -> PathState:
    """Simulate one truncated-EM path on [-tau, horizon]: path
    ``path_index`` of the run seeded ``seed`` (row ``path_index`` of its
    batch draw), a pure function of those two and the grid. A
    :class:`SimulationError` carries ``seed`` and ``path_index`` as its
    replay coordinates. The step snaps to an exact fraction of the delay
    and the horizon to a multiple of the step; read the effective values
    off the returned state.
    """
    grid = resolve_grid(spec.tau, delta, horizon)
    brownian, poisson, regimes = engine.draw_batch_noise(
        spec, grid, seed, [path_index]).arrays()
    values = engine.simulate_tem_batch(
        spec, policy, grid, engine.noise_blocks(brownian, poisson, regimes),
        seed=seed, path_indices=[path_index])
    return PathState(delta=grid.delta, tau_steps=grid.tau_steps, values=values[0],
                     regimes=regimes[0], brownian=brownian[0], poisson=poisson[0])
