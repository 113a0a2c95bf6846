"""The Brownian and Poisson increments of one path, drawn from its own
substreams.

Nothing is recorded: a path's noise is a pure function of its master seed,
its path index and its grid, so a path is replayed by drawing it again
from those coordinates (the ones a :class:`~temsim.engine.SimulationError`
names).
"""

from __future__ import annotations

import math

import numpy as np

from .rng import PathStreams


def draw_increments(streams: PathStreams, sqrt_dt, mean_jumps,
                    brownian: np.ndarray, poisson: np.ndarray) -> None:
    """Fill one path's Brownian row (normals scaled by ``sqrt_dt``) and
    Poisson row (counts of mean ``mean_jumps``) from its own substreams.
    The single-path and batch draws both take their rows from here. The
    in-place scaling gives the bits of ``standard_normal(k) * sqrt_dt``
    without a temporary row."""
    streams.brownian.standard_normal(out=brownian)
    brownian *= sqrt_dt
    poisson[:] = streams.poisson.poisson(mean_jumps, poisson.size)


def make_noise(delta: float, num_steps: int, jump_intensity: float,
               streams: PathStreams) -> tuple[np.ndarray, np.ndarray]:
    """The Brownian and Poisson rows, ``num_steps`` long each, of one path.

    Both channels come from disjoint per-path substreams in ``streams``,
    so they are mutually independent and independent of the chain
    uniforms. Regimes are not drawn here.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    if jump_intensity < 0.0:
        raise ValueError("jump_intensity must be nonnegative")
    brownian, poisson = np.empty(num_steps), np.empty(num_steps, dtype=np.int64)
    draw_increments(streams, np.sqrt(delta), jump_intensity * delta, brownian, poisson)
    return brownian, poisson
