"""Single-path simulation and the step process it exports.

The exported observable of a simulation is the piecewise-constant step
process: constant on each ``[t_k, t_{k+1})`` with the grid value at its
left end. The step always divides the delay exactly, so the engine's delay
lookups are integer shifts (``k - M``), never interpolation.

A single path is row ``path_index`` of its run's batch draw, so the
coordinates ``(seed, path, delta)`` that a :class:`SimulationError` names
replay it: ``simulate_tem_path(spec, policy, delta, horizon, seed=seed,
path_index=path)`` draws the same noise and fails at the same node.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .engine import resolve_grid
from .model import ModelSpec
from .truncation import TruncationPolicy


@dataclass(frozen=True)
class PathState:
    """A simulated trajectory on the grid k = -M..K (column j is node j - M),
    with the increments ``brownian[k]``, ``poisson[k]`` of step k to k+1."""

    delta: float
    tau_steps: int
    values: np.ndarray
    regimes: np.ndarray
    brownian: np.ndarray
    poisson: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 1:
            raise ValueError("values must be a 1-d array")
        if self.regimes.shape != (self.num_steps + 1,):
            raise ValueError("regimes must cover nodes 0..K")

    @property
    def num_steps(self) -> int:
        return self.values.size - self.tau_steps - 1


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
    # the whole noise as one block, kept with the replay coordinates of its draw
    noise = engine.draw_batch_noise(spec, grid, seed, [path_index], grid.num_steps)
    brownian, poisson, regimes = block = next(iter(noise))
    values = engine.simulate_tem_batch(spec, policy, grid, replace(noise, blocks=[block]))
    return PathState(delta=grid.delta, tau_steps=grid.tau_steps, values=values[0],
                     regimes=regimes[0], brownian=brownian[0], poisson=poisson[0])
