"""Vectorized path-simulation engine.

Simulates batches of paths on a shared uniform grid. One path is the
special case of a batch of width one, so a single path
(:func:`temsim.schemes.simulate_tem_path`) and the Monte Carlo estimators
all run through the same arithmetic. Each path draws its noise from its
own counter-based substreams, so results are independent of batch
boundaries, and a batch draws it one block of steps at a time as the
schemes consume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import rng
from .model import _ZERO, CoefficientTables, ModelSpec  # noqa: F401 (re-exported)
from .noise import draw_increments
from .regime import sample_chain_paths_batch
from .truncation import TruncationPolicy, truncation_band


# 0-d operands of the implicit solve: the same arithmetic as the floats,
# cheaper ufunc calls
_HALF, _ONE, _TINY = np.asarray(0.5), np.asarray(1.0), np.asarray(1e-300)
_F_TOL, _BRACKET_TOL = np.asarray(1e-14), np.asarray(1e-15)

# Time steps per block of the march (:func:`_march`): bounds the contiguous
# (block, P) scratch it steps through.
BLOCK_STEPS = 256


class SimulationError(RuntimeError):
    """Raised when a simulation produces non-finite values or a solve fails.

    Carries the replay coordinates (master seed, path index, delta) needed
    to regenerate the offending path in isolation: ``delta`` is the step
    its noise was drawn on, and a run on that noise coarsened by
    ``factor`` > 1 (:func:`coarsen_batch`) failed at ``step`` of its own grid.
    """

    def __init__(self, message: str, *, path_index: int | None = None,
                 step: int | None = None, seed: int | None = None,
                 delta: float | None = None, factor: int = 1):
        super().__init__(message)
        self.path_index = path_index
        self.step = step
        self.seed = seed
        self.delta = delta
        self.factor = factor


@dataclass(frozen=True)
class Grid:
    """Resolved uniform grid: ``delta`` divides the delay exactly.

    Nodes are ``t_k = k * delta`` for k = -tau_steps .. num_steps; the
    initial segment fills k <= 0.
    """

    delta: float
    tau_steps: int
    num_steps: int


class ArgumentError(ValueError):
    """An argument refused before any path is drawn; ``argument`` names the
    parameter, and a step list is ``coarse_deltas`` in every estimator."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument

    def __reduce__(self):  # whole through a pool's pickle, not from the message alone
        return type(self), (self.argument, str(self))


# The most float64 values one numpy array holds: its size in bytes must fit
# numpy's index type
ARRAY_LEN_MAX = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def resolve_grid(tau: float, delta: float, horizon: float) -> Grid:
    """Snap a requested step to ``tau / M`` and the horizon to a multiple.

    The delay must span a whole number of steps; the requested ``delta`` is
    rounded to the nearest ``tau / M`` and the horizon to the nearest
    multiple of the effective step. A grid of more nodes (M + K + 1) than a
    numpy array holds is an :class:`ArgumentError`, before any array is
    made. It names the length or the step of the count that overflows,
    whichever is larger, a step counting as one over it: ``tau`` or
    ``delta`` for the M steps of the delay, ``horizon`` or the step for
    the K steps of the horizon. A step that is the whole delay (M = 1) is
    ``tau``'s.
    """
    if not (0.0 < delta < math.inf and 0.0 <= horizon < math.inf):
        raise ValueError(f"need a finite delta > 0 and a finite horizon >= 0, "
                         f"got delta={delta!r}, horizon={horizon!r}")
    if tau / delta >= ARRAY_LEN_MAX:
        message = _too_many_nodes("the delay", tau, delta)
        raise ArgumentError("tau", message) if tau * delta > 1.0 else \
            ArgumentError("delta", message)
    m = max(1, round(tau / delta))
    eff = tau / m
    if m + horizon / eff >= ARRAY_LEN_MAX:
        message = _too_many_nodes("the horizon", horizon, eff)
        raise (ArgumentError("horizon", message) if horizon * eff > 1.0 else
               ArgumentError("delta", message) if m > 1 else ArgumentError("tau", message))
    k = round(horizon / eff)
    return Grid(delta=eff, tau_steps=m, num_steps=k)


def _too_many_nodes(what: str, length: float, step: float) -> str:
    return (f"{what} {length:g} spans {length / step:.3g} steps of {step:g}: more "
            f"nodes than a numpy array holds ({ARRAY_LEN_MAX})")


# The largest mean numpy's Poisson sampler takes ("lam value too large" above it)
POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)

# Steps per noise draw: a chunk holds its noise one block of this many
# steps at a time, a multiple of the march block of :func:`_march`
DRAW_STEPS = 4 * BLOCK_STEPS


@dataclass(frozen=True)
class NoiseBlocks:
    """The noise of P paths over K steps, one block of steps at a time.

    Iterating yields ``(brownian, poisson, regimes)`` per block of b
    consecutive steps: the increments, shape (P, b), and the regimes at
    the block's b + 1 nodes, its first node through the next block's
    first. A drawn source (:func:`draw_batch_noise`) yields its blocks
    once and carries the ``seed``, ``path_indices`` and step ``delta`` it
    was drawn for, the replay coordinates its runs' errors name; a source
    of its blocks coarsened by ``factor`` (:func:`coarsen_batch`) keeps
    them and records the factor. A list of blocks, such as
    ``NoiseBlocks(shape, [(brownian, poisson, regimes)])``, yields them
    any number of times and carries none.
    """

    shape: tuple[int, int]
    blocks: Iterable
    seed: Optional[int] = None
    path_indices: Optional[np.ndarray] = None
    delta: Optional[float] = None
    factor: int = 1

    @property
    def size(self) -> int:
        """Path-steps covered: P * K."""
        return self.shape[0] * self.shape[1]

    def __iter__(self) -> Iterator:
        return iter(self.blocks)

    def tap(self, keep: Callable) -> "NoiseBlocks":
        """The same blocks, each passed to ``keep`` as it is yielded."""
        def tapped():
            for block in self.blocks:
                keep(block)
                yield block
                del block
        return replace(self, blocks=tapped())


def draw_batch_noise(
    spec: ModelSpec,
    grid: Grid,
    master_seed: int,
    path_indices: np.ndarray,
    block_steps: Optional[int] = None,
) -> NoiseBlocks:
    """Per-path noise for a batch, drawn one block of ``block_steps`` steps
    (default :data:`DRAW_STEPS`) at a time as the blocks are consumed.

    Row p is drawn from the substreams of ``path_indices[p]`` alone, and
    each block continues those streams and the chain where the last one
    stopped, so a row depends neither on the other rows nor on the block
    size; a single path is the width-1 draw. A Poisson mean
    ``jump_intensity * delta`` that numpy's sampler would refuse is refused
    first, before any stream is built.
    """
    mean_jumps = spec.jump_intensity * grid.delta
    if not mean_jumps <= POISSON_MEAN_MAX:
        raise SimulationError(f"jump_intensity {spec.jump_intensity:g} at step "
                              f"{grid.delta:g} gives a Poisson mean of {mean_jumps:g}, "
                              f"above numpy's limit {POISSON_MEAN_MAX:g}")
    streams = [rng.path_streams(master_seed, int(idx)) for idx in path_indices]
    return NoiseBlocks((len(streams), grid.num_steps),
                       _drawn_blocks(spec, grid, streams, block_steps or DRAW_STEPS,
                                     mean_jumps),
                       master_seed, path_indices, grid.delta)


def _drawn_blocks(spec, grid, streams, size, mean_jumps):
    p, k = len(streams), grid.num_steps
    sqrt_dt = np.sqrt(grid.delta)
    states = spec.initial_regime
    # one block of no steps when k = 0: the regime at node 0
    for start in range(0, max(k, 1), size):
        width = min(size, k - start)
        # the chain first, its uniforms freed before the increments exist,
        # so a block holds three (P, width) arrays at a time; each channel
        # has its own substream, so the order moves no value
        uniforms = np.empty((p, width))
        for row, path in enumerate(streams):
            path.chain.random(out=uniforms[row])
        regimes = sample_chain_paths_batch(
            spec.generator, states, grid.delta, width, uniforms
        )
        del uniforms
        # a copy: a view would keep this block's regimes alive
        states = regimes[:, -1].copy()
        brownian = np.empty((p, width))
        poisson = np.empty((p, width), dtype=np.int64)
        for row, path in enumerate(streams):
            draw_increments(path, sqrt_dt, mean_jumps, brownian[row], poisson[row])
        yield brownian, poisson, regimes
        del brownian, poisson, regimes


def initial_values(spec: ModelSpec, grid: Grid) -> np.ndarray:
    """Initial-segment values at nodes k = -M..0 (length M+1)."""
    # keep rounded node times inside the segment's domain [-tau, 0]
    ts = np.clip(np.arange(-grid.tau_steps, 1) * grid.delta, -spec.tau, 0.0)
    return np.array([spec.initial_segment.eval(float(t)) for t in ts])


def _march(spec, grid, tables, noise, step) -> np.ndarray:
    """Block loop shared by the TEM and BEM schemes: the method of steps.

    Pulls the noise from ``noise`` (:class:`NoiseBlocks`) one block at a
    time and steps through each in march blocks of ``B <= M`` steps: the
    delay spans M steps, so the delayed values of the next B steps are
    nodes already computed. Each march block evaluates the volatility on
    the (P, B) delayed slice once, gathers the regime coefficients once,
    and copies its noise into contiguous (B, P) scratch. Then
    ``step(x, rows, j, phi, d_b, d_n, node)`` maps the length-P state ``x``
    at ``node`` (step j of the block, coefficients ``rows``) to the next
    one; ``d_n`` is None on a step where no path jumps, which each block
    finds with one call. Each new state is copied into (B, P) scratch, and
    the block is written back into the (P, M+K+1) result with one
    transposed copy. A non-finite value is a :class:`SimulationError`.
    """
    m, k = grid.tau_steps, grid.num_steps
    num_paths = noise.shape[0]
    if noise.shape[1] != k:
        raise ValueError(f"noise covers {noise.shape[1]} steps, the grid {k}")

    values = np.empty((num_paths, m + k + 1))
    values[:, : m + 1] = initial_values(spec, grid)[None, :]
    size = max(1, min(m, BLOCK_STEPS))
    d_b = np.empty((size, num_paths))
    # Poisson counts as floats: the same products, without a mixed-type call
    d_n = np.empty((size, num_paths))
    block = np.empty((size, num_paths))
    x = values[:, m].copy()
    start = 0
    # overflow to inf is caught by the finiteness check before the return
    with np.errstate(over="ignore", invalid="ignore"):
        for brownian, poisson, regimes in noise:
            width = np.shape(brownian)[-1]
            if brownian.shape != (num_paths, width) or poisson.shape != brownian.shape:
                raise ValueError("noise arrays must have shape (num_paths, num_steps)")
            if regimes.shape != (num_paths, width + 1):
                raise ValueError("regimes must have shape (num_paths, num_steps + 1)")
            for lo in range(0, width, size):
                hi = min(lo + size, width)
                phi = spec.volatility.evaluate_many(
                    values[:, start:start + hi - lo], regimes[:, lo:hi])
                phi = np.ascontiguousarray(phi.T)
                rows = tables.gather(np.ascontiguousarray(regimes[:, lo:hi].T) - 1)
                np.copyto(d_b[: hi - lo], brownian[:, lo:hi].T)
                np.copyto(d_n[: hi - lo], poisson[:, lo:hi].T)
                jumps = d_n[: hi - lo].any(axis=1).tolist()
                for j, (phi_j, d_b_j, d_n_j, jumped) in enumerate(
                        zip(phi, d_b, d_n, jumps)):
                    x = step(x, rows, j, phi_j, d_b_j, d_n_j if jumped else None,
                             start + j)
                    block[j] = x
                values[:, m + start + 1 : m + start + hi - lo + 1] = block[: hi - lo].T
                start += hi - lo
            # no reference to a spent block while the next one is drawn,
            # here or in a generator feeding this loop: a chunk holds one block
            del brownian, poisson, regimes
    if start != k:
        # a drawn source is spent by the first run through it
        raise ValueError(f"noise blocks covered {start} of {k} steps")
    _check_finite(values, m, noise)
    return values


def tem_update(x, rows, ridx, phi, d_b, d_n, _node, delta, lower, upper):
    """The truncated-EM step rule of :func:`_march`, with the drift and
    diffusion truncated to the band ``[lower, upper]``; ``d_n`` is None on
    a step without jumps."""
    fd, gd = rows.truncated(x, ridx, lower, upper)
    out = x + fd * delta + phi * gd * d_b
    if d_n is not None:
        out += rows.jump(x, ridx) * d_n
    return out


def bem_update(x, rows, ridx, phi, d_b, d_n, node, delta, noise):
    """The backward-EM step rule of :func:`_march` (see :func:`simulate_bem_batch`);
    a failed solve names the replay coordinates of ``noise``."""
    target = x + phi * rows.diffusion(x) * d_b
    if d_n is not None:
        target += rows.jump(x, ridx) * d_n
    return implicit_drift_solve(rows, ridx, target, delta, noise, node)


def simulate_tem_batch(
    spec: ModelSpec,
    policy: TruncationPolicy,
    grid: Grid,
    noise: NoiseBlocks,
) -> np.ndarray:
    """Truncated EM trajectories, shape (P, M+K+1); column j is node j - M,
    driven by ``noise`` (:class:`NoiseBlocks`), whose replay coordinates a
    :class:`SimulationError` names.

    Each step is :func:`tem_update`, with the volatility at the value one
    delay back.
    """
    # 0-d arrays: the same products as Python floats, cheaper ufunc operands
    lower, upper = map(np.asarray, truncation_band(grid.delta, policy))
    step = partial(tem_update, delta=np.asarray(grid.delta), lower=lower, upper=upper)
    return _march(spec, grid, CoefficientTables(spec), noise, step)


def simulate_bem_batch(
    spec: ModelSpec,
    grid: Grid,
    noise: NoiseBlocks,
) -> np.ndarray:
    """Backward (drift-implicit) EM trajectories with explicit noise terms,
    driven by ``noise`` (:class:`NoiseBlocks`), whose replay coordinates a
    :class:`SimulationError` names.

    Each step solves ``z - delta * f(z, r) = x + phi * g(x) * dB + h(x) * dN``
    for z. With the inverse drift term present the root is confined to
    (0, inf), which keeps every iterate strictly positive. Without it the
    reduced model is free to cross zero, so the equation is solved on the
    whole line with the drift frozen at its boundary value for z <= 0
    (the same extension pattern the other coefficients use); this matches
    the truncated scheme's limit field below zero, which is what makes the
    two schemes comparable there. Uniqueness needs
    ``delta < 1 / max(alpha_1)``.
    """
    tables = CoefficientTables(spec)
    max_a1 = float(tables.a1.max())
    if max_a1 > 0.0 and grid.delta >= 1.0 / max_a1:
        raise SimulationError(
            f"delta = {grid.delta:g} too large for a unique implicit solve "
            f"(needs delta < {1.0 / max_a1:g})",
            seed=noise.seed, delta=noise.delta, factor=noise.factor,
        )
    step = partial(bem_update, delta=grid.delta, noise=noise)
    return _march(spec, grid, tables, noise, step)


def implicit_drift_solve(
    tables: CoefficientTables,
    ridx: np.ndarray,
    target: np.ndarray,
    delta: float,
    noise: NoiseBlocks,
    step: int,
) -> np.ndarray:
    """Solve ``z - delta * drift(z, r) = target`` elementwise.

    Safeguarded Newton iteration inside a sign-changing bracket, falling
    back to bisection whenever a Newton proposal leaves the bracket. The
    residual is strictly increasing in z for admissible deltas, so the
    bracketed root is unique. ``ridx`` indexes the coefficient arrays of
    ``tables``: regime indices, or a row number of gathered tables
    (:meth:`CoefficientTables.gather`). With the tables' inverse drift term
    the root lies in (0, inf), else on the whole line (see :func:`simulate_bem_batch`).

    Both bracket ends take one residual call, and the iteration stops
    before the slope once every row has settled. A row's iterates do not
    depend on the other rows of the batch. A failed row is named at
    ``step`` by the replay coordinates of ``noise`` (:class:`NoiseBlocks`).
    """
    # 0-d step: the same products as the float, a cheaper ufunc operand
    step_size = np.asarray(delta)

    abs_target = np.abs(target)
    if tables.include_inverse:
        # every iterate is +0 or more: the lower bracket end starts
        # positive and only shrinks, and each iterate lies inside the bracket
        def residual(z):
            return z - step_size * tables.drift(z, ridx) - target

        def slope_at(z):
            return _ONE - step_size * tables.drift_derivative(z, ridx)

        # residual -> -inf as z -> 0+ through the a_m1/z term
        lo = np.minimum(np.maximum(abs_target, 1e-8), 0.5)
        lower = (lambda end: end * 0.125), 400, "positive lower"
    else:
        # boundary-value extension: drift frozen at its z = 0 value below zero
        def residual(z):
            return z - step_size * tables.drift(np.maximum(z, _ZERO), ridx) - target

        def slope_at(z):
            return np.where(
                z > _ZERO,
                _ONE - step_size * tables.drift_derivative(np.maximum(z, _TINY), ridx),
                _ONE,
            )

        lo = np.minimum(target, 0.0) - 1.0
        lower = (lambda end: 2.0 * end - 1.0), 200, "lower"

    def widen(end, res, fails, grow, tries, kind):
        """Grow ``end`` on the failing rows until no row fails, given the
        residual ``res`` at ``end``. ``fails`` counts a NaN residual as
        failing, so a non-finite target raises here, at its step."""
        for _ in range(tries):
            bad = fails(res)
            if not bad.any():
                return end
            end = np.where(bad, grow(end), end)
            res = residual(end)
        raise _path_error(f"implicit solve found no {kind} bracket end at step {step}",
                          np.argmax(fails(res)), step, noise)

    hi = abs_target + 1.0
    # one residual call for both ends; the widening loops run only for a
    # batch with a failing row
    at_lo, at_hi = residual(np.stack((lo, hi)))
    lo = widen(lo, at_lo, lambda res: ~(res < 0.0), *lower)
    hi = widen(hi, at_hi, lambda res: ~(res > 0.0),
               lambda end: 2.0 * end + 1.0, 200, "upper")

    z = _HALF * (lo + hi)
    active = np.ones(z.shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            f = residual(z)
            # a settled row never reads its bracket again
            np.putmask(lo, f < _ZERO, z)
            np.putmask(hi, f >= _ZERO, z)
            near = _ONE + np.abs(z)
            active &= ~((np.abs(f) <= _F_TOL * (near + abs_target))
                        | ((hi - lo) <= _BRACKET_TOL * near))
            if not np.count_nonzero(active):
                break
            proposal = z - f / slope_at(z)
            # a proposal strictly inside the bracket is finite (NaN fails both)
            inside = (proposal > lo) & (proposal < hi)
            np.copyto(z, np.where(inside, proposal, _HALF * (lo + hi)), where=active)
    return z


def _check_finite(values, m, noise):
    finite = np.isfinite(values)
    if finite.all():
        return
    row, col = np.argwhere(~finite)[0]
    node = int(col) - m
    raise _path_error(f"non-finite value at node {node}", row, node, noise)


def _path_error(what, row, step, noise) -> SimulationError:
    """The error ``what`` at ``step`` of batch row ``row`` of a run on
    ``noise``, named by its path index and, when the noise was drawn from a
    seed, by the replay coordinates of that draw: without a seed they would
    replay nothing. A factor > 1 is named after the drawn step ``delta``."""
    seed, delta, factor = noise.seed, noise.delta, noise.factor
    indices = noise.path_indices
    idx = int(row) if indices is None else int(np.asarray(indices)[row])
    replay = "" if seed is None else (
        f" (replay: seed={seed}, path={idx}, delta={delta:g}"
        + (f", factor={factor})" if factor > 1 else ")"))
    return SimulationError(f"{what} of path {idx}{replay}", path_index=idx, step=step,
                           seed=seed, delta=delta, factor=factor)


def coarsen_batch(
    brownian: np.ndarray,
    poisson: np.ndarray,
    regimes: np.ndarray,
    factor: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noise on a grid ``factor`` times coarser.

    Brownian and Poisson increments are sums over blocks of ``factor``
    steps, so the total jump count is kept exactly; the regime at a coarse
    node is the fine regime at the same node. The results are new arrays,
    so coarse noise does not keep its fine noise alive.
    """
    k = brownian.shape[-1]
    if k % factor:
        raise ValueError(f"{k} fine steps not divisible by coarsening factor {factor}")
    return (
        brownian.reshape(*brownian.shape[:-1], k // factor, factor).sum(axis=-1),
        poisson.reshape(*poisson.shape[:-1], k // factor, factor).sum(axis=-1),
        regimes[:, ::factor].copy(),
    )
