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
    initial = np.full(num_paths, initial_state, dtype=np.int64)
    outside = (initial < 1) | (initial > n)
    if outside.any():
        raise ValueError(f"state {initial[outside][0]} outside 1..{n}")
    cum = np.cumsum(transition, axis=1)[:, : n - 1]
    # the partial sums of a row never decrease, so state i stays on u
    # exactly when cum[i, i-1] <= u < cum[i, i] (the first state has no
    # lower end, the last no upper end), and a step on which every uniform
    # lies in every state's interval moves no path. The rule is applied on
    # the other steps only, on their uniforms gathered once (0-based
    # states: the count of partial sums <= u), and each state found is
    # repeated over the nodes up to the next such step
    low = np.diagonal(cum, -1).max(initial=-np.inf)
    high = np.diagonal(cum).min(initial=np.inf)
    moves = np.flatnonzero((uniforms.min(axis=0) < low) | (uniforms.max(axis=0) >= high))
    states = initial - 1
    kept = [states]
    for u in uniforms[:, moves].T[:, :, None]:
        states = (cum.take(states, axis=0) <= u).sum(axis=1)
        kept.append(states)
    held = np.stack(kept, axis=1)
    held += 1
    return np.repeat(held, np.diff(np.r_[0, moves + 1, num_steps + 1]), axis=1)


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

