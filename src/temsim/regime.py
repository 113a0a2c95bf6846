"""Markov regime chain: generator matrices, one-step transition matrices,
and the grid-based chain sampler.

States are labelled ``1..N`` throughout the public API. The chain is
simulated on the same time grid as the state process: the one-step
transition matrix is the matrix exponential of ``delta * generator``, and
each step consumes a single uniform draw via cumulative-row selection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_GENERATOR_TOL = 1e-10

# Time steps per block of the batch step loops (here and in the engine):
# bounds the contiguous (block, P) scratch those loops step through.
BLOCK_STEPS = 256


class GeneratorError(ValueError):
    """Raised for matrices that are not valid chain generators."""


@dataclass(frozen=True)
class GeneratorMatrix:
    """Transition-rate matrix: nonnegative off-diagonal, zero row sums."""

    entries: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.entries, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] < 1:
            raise GeneratorError("generator must be a square matrix")
        if not np.all(np.isfinite(q)):
            raise GeneratorError("generator entries must be finite")
        off = q[~np.eye(q.shape[0], dtype=bool)]
        if off.size and off.min() < -_GENERATOR_TOL:
            raise GeneratorError("off-diagonal rates must be nonnegative")
        row_sums = q.sum(axis=1)
        if np.abs(row_sums).max() > _GENERATOR_TOL:
            raise GeneratorError("generator rows must sum to zero")
        q = q.copy()
        q.flags.writeable = False
        object.__setattr__(self, "entries", q)

    @property
    def num_states(self) -> int:
        return self.entries.shape[0]


def matrix_exponential(generator: GeneratorMatrix, delta: float) -> np.ndarray:
    """One-step transition matrix ``exp(delta * generator)``, row-stochastic.

    Uses scaling-and-squaring with a fixed 13-term Taylor series after the
    scaled matrix has sup-norm at most 1/2, which keeps the truncation error
    near machine precision for any generator.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    a = delta * generator.entries
    n = a.shape[0]
    norm = np.abs(a).sum(axis=1).max()
    squarings = 0
    if norm > 0.5:
        squarings = int(np.ceil(np.log2(norm / 0.5)))
        a = a / (2.0**squarings)
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 14):
        term = term @ a / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    # exact arithmetic preserves row sums and nonnegativity; roundoff can
    # leave eps-scale violations, which we repair
    result = np.clip(result, 0.0, None)
    rows = result.sum(axis=1)
    if np.abs(rows - 1.0).max() > 1e-12:
        result = result / rows[:, None]
    return result


def _march_chain(transition: np.ndarray, initial_state,
                 uniforms: np.ndarray) -> np.ndarray:
    """Chain paths of shape (P, K+1) from the (P, K) ``uniforms``, started
    in ``initial_state``: one state for every path, or one per path.

    From state i, a step moves to the smallest state j whose cumulative row
    probability strictly exceeds the step's uniform u; if u is at or beyond
    the cumulative sum through state N-1, it moves to the last state.
    Equality with a partial sum therefore moves to the next state (the lower
    bound of each branch is inclusive).
    """
    n = transition.shape[0]
    num_paths, num_steps = uniforms.shape
    paths = np.empty((num_paths, num_steps + 1), dtype=np.int64)
    paths[:, 0] = initial_state
    outside = (paths[:, 0] < 1) | (paths[:, 0] > n)
    if outside.any():
        raise ValueError(f"state {paths[outside, 0][0]} outside 1..{n}")
    if num_steps == 0:
        return paths
    cum = np.cumsum(transition, axis=1)[:, : n - 1]
    # 0-based states; per block, tabulate each step's successor of every
    # state at once (the count of partial sums <= u). A step on which every
    # state is its own successor on every path moves no path, so only the
    # other steps are looked up, and the rows between them are filled with
    # the states they keep
    states = paths[:, 0] - 1
    identity = np.arange(n)[:, None]
    cols = np.arange(num_paths)
    size = min(num_steps, BLOCK_STEPS)
    block = np.empty((size, num_paths), dtype=np.int64)
    for start in range(0, num_steps, size):
        stop = min(start + size, num_steps)
        u = uniforms[:, start:stop].T
        successor = np.count_nonzero(cum[:, None, None, :] <= u[None, :, :, None],
                                     axis=-1)
        # the least and greatest successor of each state and step over the
        # paths: reductions, where a (N, B, P) comparison raised peak memory
        moves = ((successor.min(axis=2) != identity)
                 | (successor.max(axis=2) != identity)).any(axis=0)
        filled = 0
        for j in np.flatnonzero(moves).tolist():
            block[filled:j] = states
            states = successor[states, j, cols]
            filled = j
        block[filled : stop - start] = states
        paths[:, start + 1 : stop + 1] = block[: stop - start].T + 1
    return paths


def sample_chain_path(
    generator: GeneratorMatrix,
    initial_state: int,
    delta: float,
    num_steps: int,
    stream: np.random.Generator,
) -> np.ndarray:
    """Regime trajectory of length ``num_steps + 1`` on the grid ``k * delta``:
    one row of :func:`sample_chain_paths_batch` on ``stream``'s uniforms."""
    if num_steps < 0:
        raise ValueError("num_steps must be >= 0")
    uniforms = stream.random(num_steps)[None, :]
    return _march_chain(matrix_exponential(generator, delta), initial_state, uniforms)[0]


def sample_chain_paths_batch(
    generator: GeneratorMatrix,
    initial_state,
    delta: float,
    num_steps: int,
    uniforms: np.ndarray,
) -> np.ndarray:
    """Vectorized chain sampling for many paths sharing one grid.

    ``uniforms`` has shape (num_paths, num_steps); the returned array has
    shape (num_paths, num_steps + 1). Path p consumes uniforms[p] exactly as
    :func:`sample_chain_path` consumes its stream's draws. ``initial_state``
    is one state for every path or one per path, so a chain can be marched
    block by block from where the last block ended.
    """
    if np.ndim(uniforms) != 2 or uniforms.shape[1] != num_steps:
        raise ValueError("uniforms must have shape (num_paths, num_steps)")
    return _march_chain(matrix_exponential(generator, delta), initial_state, uniforms)

