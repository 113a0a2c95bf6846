"""Monte Carlo estimators built on the batch engine: bond prices, barrier
options, scheme comparisons, and empirical strong-convergence orders.

Paths are processed in fixed-size chunks; per-path statistics are gathered
in path order and reduced once at the end, so estimates are bitwise
reproducible for a given master seed regardless of worker count or
completion order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import engine
from .engine import Grid, SimulationError, resolve_grid
from .model import ModelSpec
from .truncation import TruncationPolicy

CHUNK_SIZE = 128


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    std_error: float
    num_paths: int
    confidence_95: tuple[float, float]

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "EstimatorResult":
        n = samples.size
        if n and samples.min() == samples.max():
            # degenerate estimator: the mean of identical samples is that
            # value exactly (float reductions would smear it by ulps)
            value = float(samples[0])
            return cls(estimate=value, std_error=0.0, num_paths=n,
                       confidence_95=(value, value))
        mean = float(samples.mean())
        se = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return cls(estimate=mean, std_error=se, num_paths=n,
                   confidence_95=(mean - 1.96 * se, mean + 1.96 * se))


@dataclass(frozen=True)
class ConvergenceReport:
    step_sizes: np.ndarray
    errors: np.ndarray
    std_errors: np.ndarray
    fitted_order: float
    p: float
    num_paths: int
    reference_delta: float

    def __post_init__(self):
        ss = np.asarray(self.step_sizes, dtype=float)
        if ss.size != np.asarray(self.errors).size:
            raise ValueError("step_sizes and errors must have equal length")
        if ss.size > 1 and not np.all(np.diff(ss) < 0.0):
            raise ValueError("step_sizes must be strictly decreasing")


@dataclass(frozen=True)
class SchemeComparison:
    delta: float
    num_paths: int
    mean: float
    std_error: float
    confidence_95: tuple[float, float]
    max: float
    quantiles: dict[float, float]


class ArgumentError(ValueError):
    """An estimator argument refused before any path is drawn; ``argument``
    names the parameter, and a step list is ``coarse_deltas`` in every estimator."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument


def _run_chunks(worker: Callable, num_paths: int, threads: int) -> list:
    """Apply a picklable chunk worker to every path range, in order."""
    if num_paths < 1:
        raise ValueError(f"num_paths must be at least 1, got {num_paths}")
    ranges = [(lo, min(lo + CHUNK_SIZE, num_paths))
              for lo in range(0, num_paths, CHUNK_SIZE)]
    if threads > 1 and len(ranges) > 1:
        # imported here: a run without a pool does not load it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, len(ranges))) as pool:
            return list(pool.map(worker, ranges))
    return [worker(r) for r in ranges]


def _chunk(spec, policy, grid, seed, reduce, levels, path_range):
    """The chunk pipeline of every estimator: run TEM on ``grid`` over the
    noise of the paths in ``path_range``, drawn one block at a time, and
    return ``reduce(nodes, runs)``, a tuple of per-path arrays.

    ``levels`` declares the runs on that noise as ``(simulate, factor)``
    pairs: each noise block is coarsened by ``factor`` for its level as the
    TEM run draws it (factor 1 keeps the block itself) and kept with its
    Poisson counts and regimes narrowed (:func:`_narrow`), which are widened
    back as the level's run pulls the block, and ``runs`` yields
    ``simulate(noise)`` of each level in order, so a reduction holds one
    level's values at a time. Each level's noise carries the replay
    coordinates of the drawn noise and its factor. ``nodes`` and each run
    are the values at nodes 0..K, the initial segment sliced off.
    """
    indices = np.arange(*path_range)
    # a draw block of whole coarse steps at every level
    lcm = math.lcm(*(factor for _, factor in levels))
    noise = engine.draw_batch_noise(spec, grid, seed, indices,
                                    -(-engine.DRAW_STEPS // lcm) * lcm)
    kept = [[] for _ in levels]

    def keep_block(block):
        for blocks, (_, factor) in zip(kept, levels):
            brownian, poisson, regimes = (block if factor == 1 else
                                          engine.coarsen_batch(*block, factor))
            blocks.append((brownian, _narrow(poisson), _narrow(regimes)))

    nodes = engine.simulate_tem_batch(spec, policy, grid,
                                      noise.tap(keep_block))[:, grid.tau_steps:]
    runs = (simulate(replace(noise, shape=(len(indices), grid.num_steps // factor),
                             blocks=_widened(blocks),
                             factor=factor))[:, grid.tau_steps // factor:]
            for (simulate, factor), blocks in zip(levels, kept))
    return reduce(nodes, runs)


def _narrow(counts: np.ndarray) -> np.ndarray:
    """Kept Poisson counts or regimes, which are never negative, in the
    narrowest signed integer type that holds their maximum: exact, and an
    eighth of int64 where every value is below 128."""
    top = int(counts.max(initial=0))
    return counts.astype(next(dtype for dtype in (np.int8, np.int16, np.int32, np.int64)
                              if top <= np.iinfo(dtype).max))


def _widened(blocks: list):
    """Each kept block as it is pulled, its counts and regimes int64 again:
    a run sees the arrays of the draw. A block leaves ``blocks`` as it is
    pulled, so the run's spent blocks are freed as it goes."""
    while blocks:
        brownian, poisson, regimes = blocks.pop(0)
        yield brownian, poisson.astype(np.int64), regimes.astype(np.int64)


def _samples(spec, policy, grid, seed, reduce, levels, num_paths, threads) -> tuple:
    """Each per-path array of :func:`_chunk` over ``num_paths`` paths, in path order."""
    worker = partial(_chunk, spec, policy, grid, seed, reduce, levels)
    return tuple(map(np.concatenate, zip(*_run_chunks(worker, num_paths, threads))))


def _discount(delta, nodes, _runs) -> tuple:
    return (np.exp(-(nodes[:, :-1].sum(axis=1) * delta)),)


def bond_price(
    spec: ModelSpec,
    policy: TruncationPolicy,
    delta: float,
    horizon: float,
    num_paths: int,
    master_seed: int,
    threads: int = 1,
) -> EstimatorResult:
    """Estimate ``E[exp(-integral of the rate path)]`` at the horizon.

    The step-process integral is the exact left-rectangle sum of grid
    values times the step, so a constant path prices to exp(-x T) exactly.
    """
    grid = resolve_grid(spec.tau, delta, horizon)
    return EstimatorResult.from_samples(*_samples(
        spec, policy, grid, master_seed, partial(_discount, grid.delta), (), num_paths,
        threads))


def _knock_out(strike, barrier, nodes, _runs) -> tuple:
    payoff = np.maximum(nodes[:, -1] - strike, 0.0)
    return (payoff * (nodes.max(axis=1) < barrier),)


def barrier_option_price(
    spec: ModelSpec,
    policy: TruncationPolicy,
    delta: float,
    horizon: float,
    strike: float,
    barrier: float,
    num_paths: int,
    master_seed: int,
    threads: int = 1,
) -> EstimatorResult:
    """Knock-out call: pays (x(T) - strike)+ unless the path ever reaches the barrier.

    The supremum of the step process over [0, T] equals the maximum of the
    grid values, so the knockout indicator is exact for the exported
    observable; a barrier at or below the initial value prices to zero, and
    a barrier at +inf never knocks out.
    """
    # written so that NaN fails: it compares false with every number
    if not 0.0 <= strike < math.inf:
        raise ValueError(f"strike must be finite and >= 0, got {strike}")
    if not barrier > 0.0:
        raise ValueError(f"barrier must be > 0 (inf: no knock-out), got {barrier}")
    grid = resolve_grid(spec.tau, delta, horizon)
    return EstimatorResult.from_samples(*_samples(
        spec, policy, grid, master_seed, partial(_knock_out, strike, barrier),
        (), num_paths, threads))


def _sup_distance(run: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Each row's largest ``|run - other|``, the difference and its absolute
    value taken in place in the run's own values."""
    diff = np.subtract(run, other, out=run)
    return np.abs(diff, out=diff).max(axis=1)


def _tem_bem_distance(tem, runs) -> tuple:
    return (_sup_distance(next(runs), tem),)


def scheme_comparison(
    spec: ModelSpec,
    policy: TruncationPolicy,
    delta: float,
    horizon: float,
    num_paths: int,
    master_seed: int,
    threads: int = 1,
) -> SchemeComparison:
    """Pathwise sup-distance between TEM and BEM under shared noise. A
    horizon that leaves the grid no step is an error: it would measure
    nothing."""
    grid = resolve_grid(spec.tau, delta, horizon)
    if not grid.num_steps:
        raise ArgumentError("horizon", f"horizon {horizon:g} leaves the grid no step: "
                                       "every distance would read 0")
    # BEM on the blocks the TEM run drew, kept whole (factor 1)
    bem = (partial(engine.simulate_bem_batch, spec, grid), 1)
    (distances,) = _samples(spec, policy, grid, master_seed, _tem_bem_distance, (bem,),
                            num_paths, threads)
    base = EstimatorResult.from_samples(distances)
    return SchemeComparison(
        delta=grid.delta,
        num_paths=num_paths,
        mean=base.estimate,
        std_error=base.std_error,
        confidence_95=base.confidence_95,
        max=float(distances.max()),
        quantiles={q: float(np.quantile(distances, q)) for q in (0.1, 0.5, 0.9)},
    )


def _coupled_grids(spec: ModelSpec, coarse_deltas: Sequence[float],
                   reference_delta: float, horizon: float) -> tuple[Grid, list[tuple[Grid, int]]]:
    """Reference grid plus (coarse grid, coarsening factor) per level; at
    least one level, and no two levels may share a grid."""
    refuse = partial(ArgumentError, "coarse_deltas")
    if not coarse_deltas:
        raise refuse("no step to compare: the step list is empty")
    ref = resolve_grid(spec.tau, reference_delta, horizon)
    levels, given = [], {}
    for delta in coarse_deltas:
        snapped = resolve_grid(spec.tau, delta, horizon)
        if snapped.tau_steps in given:
            raise refuse(f"steps {given[snapped.tau_steps]:g} and {delta:g} both "
                         f"snap to tau/{snapped.tau_steps} = {snapped.delta:g}")
        given[snapped.tau_steps] = delta
        if ref.tau_steps % snapped.tau_steps:
            raise refuse(f"step {delta:g} (tau/{snapped.tau_steps}) is not an integer "
                         f"multiple of the reference step tau/{ref.tau_steps}")
        factor = ref.tau_steps // snapped.tau_steps
        if ref.num_steps % factor:
            raise refuse(f"horizon {horizon:g} does not align step {delta:g} with "
                         "the reference grid")
        grid = Grid(delta=snapped.delta, tau_steps=snapped.tau_steps,
                    num_steps=ref.num_steps // factor)
        levels.append((grid, factor))
    return ref, levels


def _tem_runs(spec, policy, levels) -> tuple:
    """Each level's declared run: TEM on its grid, on the noise coarsened by its factor."""
    return tuple((partial(engine.simulate_tem_batch, spec, policy, grid), factor)
                 for grid, factor in levels)


def _sup_errors(factors, fine, runs) -> tuple:
    # no name holds a run's values while the next run is pulled (a loop
    # variable would), so a chunk holds one run's values at a time
    return tuple(_sup_distance(next(runs), fine[:, ::factor]) for factor in factors)


def strong_error(
    spec: ModelSpec,
    policy: TruncationPolicy,
    coarse_deltas: Sequence[float],
    reference_delta: float,
    horizon: float,
    p: float,
    num_paths: int,
    master_seed: int,
    threads: int = 1,
) -> ConvergenceReport:
    """Empirical strong error of coarse steps against a fine reference.

    Every path is simulated once at the reference step; each coarse path
    reuses that path's Brownian/Poisson increments (block-summed) and its
    regime values at the coarse nodes, so coarse and reference solutions
    are pathwise coupled. The error sample per path and level is the
    maximum over the coarse nodes of the absolute difference; the report
    carries the p-th-moment error per level and the least-squares slope of
    log2(error) against log2(step). An empty ladder, a horizon that leaves
    the reference grid no step, and a level on the reference grid are
    errors: each would measure nothing. So is a p whose power of a level's
    sup errors underflows to 0 or overflows: its error would read 0 or inf.
    """
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")
    if num_paths < 2:
        raise ArgumentError("num_paths", "num_paths must be at least 2 for a standard "
                            f"error, got {num_paths}")
    deltas_desc = sorted(map(float, coarse_deltas), reverse=True)
    ref_grid, levels = _coupled_grids(spec, deltas_desc, reference_delta, horizon)
    if not ref_grid.num_steps:
        raise ArgumentError("horizon", f"horizon {horizon:g} leaves the reference grid no "
                                       "step: every error would read 0")
    for delta, (_, factor) in zip(deltas_desc, levels):
        if factor == 1:
            raise ArgumentError("coarse_deltas", f"step {delta:g} snaps to the reference "
                                f"step {ref_grid.delta:g}: its error would read 0")
    sups = np.stack(_samples(spec, policy, ref_grid, master_seed,
                             partial(_sup_errors, [factor for _, factor in levels]),
                             _tem_runs(spec, policy, levels), num_paths, threads))

    step_sizes = np.array([g.delta for g, _ in levels])
    # an overflowed power or mean is refused below, by name: no numpy warning
    with np.errstate(over="ignore"):
        powered = sups**p
        mean_powered = powered.mean(axis=1)
    for delta, mean, level in zip(step_sizes, mean_powered, sups):
        # an under- or overflowed power would print an error of 0 or inf
        if not math.isfinite(mean) or (mean == 0.0 and level.any()):
            raise SimulationError(f"p = {p:g} takes the mean p-th power at step {delta:g} "
                                  f"to {mean:g} (largest sup error {level.max():g})")
    se_powered = powered.std(axis=1, ddof=1) / np.sqrt(num_paths)
    errors = mean_powered ** (1.0 / p)
    # delta method for the 1/p root of a sample mean
    with np.errstate(divide="ignore", invalid="ignore"):
        std_errors = np.where(mean_powered > 0.0,
                              se_powered / p * mean_powered ** (1.0 / p - 1.0), 0.0)

    if step_sizes.size >= 2 and np.all(errors > 0.0):
        slope = np.polyfit(np.log2(step_sizes), np.log2(errors), 1)[0]
    else:
        slope = float("nan")
    return ConvergenceReport(
        step_sizes=step_sizes,
        errors=errors,
        std_errors=std_errors,
        fitted_order=float(slope),
        p=p,
        num_paths=num_paths,
        reference_delta=ref_grid.delta,
    )


def _moments(p, fine, runs) -> tuple:
    # map, not a loop variable: each run's values are dropped before the next
    return (np.abs(fine) ** p, *map(lambda values: np.abs(values) ** p, runs))


def moment_curves(
    spec: ModelSpec,
    policy: TruncationPolicy,
    deltas: Sequence[float],
    horizon: float,
    p: float,
    num_paths: int,
    master_seed: int,
    threads: int = 1,
) -> dict[float, np.ndarray]:
    """Sample p-th absolute moments of the scheme on [0, horizon] per step size.

    All step sizes are driven by one shared fine noise record per path
    (the finest requested step), so the curves are pathwise coupled.
    Returns, per effective step, the moment at each of its grid nodes: the
    mean of the per-path rows in path order, so it does not depend on the
    chunk size.
    """
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p}")
    # an empty list fails in _coupled_grids, before its reference is read
    fine_grid, levels = _coupled_grids(spec, list(deltas), min(deltas, default=math.nan),
                                       horizon)
    # the finest step (factor 1) is the TEM run's own grid: its moments are the nodes'
    coarse = [(grid, factor) for grid, factor in levels if factor > 1]
    rows = _samples(spec, policy, fine_grid, master_seed, partial(_moments, p),
                    _tem_runs(spec, policy, coarse), num_paths, threads)
    by_factor = dict(zip([1] + [factor for _, factor in coarse], rows))
    return {grid.delta: by_factor[factor].mean(axis=0) for grid, factor in levels}
