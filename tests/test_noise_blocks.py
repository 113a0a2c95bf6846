"""Noise drawn one block at a time.

A chunk draws its noise per block of steps as the march consumes it, so it
never holds a whole path's noise. The rows drawn block by block must equal
whole-row draws from the same streams byte for byte, whatever the block
size; coarsening block by block must equal coarsening the whole arrays;
and a converge-shaped chunk must stay within the memory of its values,
its coarse noise and a few blocks.
"""

import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temsim import engine, estimators, rng
from temsim.config import two_regime_demo
from temsim.engine import BLOCK_STEPS, Grid, NoiseBlocks, coarsen_batch, draw_batch_noise
from temsim.regime import sample_chain_paths_batch
from temsim.truncation import default_mu_for

# frequent jumps, so the Poisson rows are not all zero
SPEC = replace(two_regime_demo(), jump_intensity=40.0, tau=0.05)


def whole_row_draw(spec, grid, seed, indices):
    """Each path's rows in one draw per stream, and the chain in one march."""
    k = grid.num_steps
    rows = []
    for idx in indices:
        streams = rng.path_streams(seed, int(idx))
        rows.append((streams.brownian.standard_normal(k) * np.sqrt(grid.delta),
                     streams.poisson.poisson(spec.jump_intensity * grid.delta, k),
                     streams.chain.random(k)))
    brownian, poisson, uniforms = (np.array(channel).reshape(len(rows), k)
                                   for channel in zip(*rows))
    regimes = sample_chain_paths_batch(spec.generator, spec.initial_regime,
                                       grid.delta, k, uniforms)
    return brownian, poisson, regimes


def joined(blocks):
    """Blocks joined along the steps: Brownian (P,K), Poisson (P,K) and the
    regimes (P,K+1), each block's last node being the next block's first."""
    brownian, poisson, regimes = zip(*blocks)
    return (np.concatenate(brownian, axis=1), np.concatenate(poisson, axis=1),
            np.concatenate([r[:, :-1] for r in regimes] + [regimes[-1][:, -1:]],
                           axis=1))


def block_size(kind, k):
    """A block size of the given kind for ``k`` steps."""
    if kind == "K":
        return max(k, 1)
    if kind == "non-divisor":
        # every size divides k = 0: take 2 there
        return next((size for size in range(2, k + 3) if k % size), 2)
    return kind


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from([1, 7, BLOCK_STEPS, "K", "non-divisor"]),
       num_paths=st.integers(1, 4), k=st.integers(0, 700),
       seed=st.integers(0, 2**40), first=st.integers(0, 2**40))
def test_block_draw_equals_whole_row_draw(kind, num_paths, k, seed, first):
    grid = Grid(delta=SPEC.tau / 10, tau_steps=10, num_steps=k)
    indices = np.arange(first, first + num_paths)
    size = block_size(kind, k)
    noise = draw_batch_noise(SPEC, grid, seed, indices, size)
    blocks = list(noise)
    assert noise.shape == (num_paths, k)
    assert [b.shape[1] for b, _, _ in blocks] == \
        [min(size, k - start) for start in range(0, max(k, 1), size)]
    got = joined(blocks)
    for drawn, whole in zip(got, whole_row_draw(SPEC, grid, seed, indices)):
        assert drawn.dtype == whole.dtype
        assert drawn.tobytes() == whole.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(factor=st.sampled_from([1, 2, 3, 4, 8, 64]), groups=st.integers(1, 12),
       num_blocks=st.integers(0, 8), extra=st.integers(0, 11),
       num_paths=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_block_coarsening_equals_whole_coarsening(factor, groups, num_blocks, extra,
                                                  num_paths, seed):
    # a block of whole groups, and a horizon ending in a shorter last block
    block = factor * groups
    k = block * num_blocks + factor * min(extra, groups - 1)
    grid = Grid(delta=SPEC.tau / 10, tau_steps=10, num_steps=k)
    indices = np.arange(num_paths)
    coarse = [coarsen_batch(*b, factor)
              for b in draw_batch_noise(SPEC, grid, seed, indices, block)]
    by_block = joined(coarse)
    # the whole noise as one block, as a single path draws it
    whole = coarsen_batch(*next(iter(draw_batch_noise(SPEC, grid, seed, indices, k))),
                          factor)
    for a, b in zip(by_block, whole):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    # coarse noise kept for a level must not keep its fine block alive
    fine = next(iter(draw_batch_noise(SPEC, grid, seed, indices, block)))
    if factor > 1:
        assert not any(np.shares_memory(c, f)
                       for c, f in zip(coarsen_batch(*fine, factor), fine))


def test_block_not_divisible_by_factor_is_rejected():
    grid = Grid(delta=SPEC.tau / 10, tau_steps=10, num_steps=12)
    blocks = draw_batch_noise(SPEC, grid, 1, np.arange(2), 6)
    with pytest.raises(ValueError, match="not divisible"):
        [coarsen_batch(*b, 4) for b in blocks]


def test_drawn_noise_runs_once():
    grid = Grid(delta=SPEC.tau / 10, tau_steps=10, num_steps=30)
    policy = default_mu_for(SPEC, psi_exponent=0.25)
    noise = draw_batch_noise(SPEC, grid, 1, np.arange(2), 8)
    engine.simulate_tem_batch(SPEC, policy, grid, noise)
    with pytest.raises(ValueError, match="covered 0 of 30 steps"):
        engine.simulate_tem_batch(SPEC, policy, grid, noise)


def test_replay_coordinates_travel_with_the_noise():
    """A drawn source, its tap and each level source a chunk builds from it
    carry the seed, path indices and step of the draw, which an error in
    any of their runs names, and each level source records its factor."""
    grid = Grid(delta=SPEC.tau / 10, tau_steps=10, num_steps=40)
    policy = default_mu_for(SPEC, psi_exponent=0.25)
    drawn = draw_batch_noise(SPEC, grid, 9, np.arange(4, 7))

    def coordinates(noise):
        return noise.seed, list(noise.path_indices), noise.delta, noise.factor

    tapped = drawn.tap(lambda _block: None)
    assert coordinates(drawn) == coordinates(tapped) == (9, [4, 5, 6], grid.delta, 1)
    seen = []

    def simulate(noise):
        seen.append(noise)
        # the level's values on its grid, initial segment included
        return np.zeros((noise.shape[0],
                         grid.tau_steps // noise.factor + noise.shape[1] + 1))

    estimators._chunk(SPEC, policy, grid, 9, (),
                      ((simulate, 1, estimators._sup_distance),
                       (simulate, 4, estimators._sup_distance)), (4, 7))
    assert [noise.shape for noise in seen] == [(3, 40), (3, 10)]
    assert [coordinates(noise) for noise in seen] == [(9, [4, 5, 6], grid.delta, 1),
                                                      (9, [4, 5, 6], grid.delta, 4)]


@pytest.mark.parametrize("short", ["brownian", "poisson", "regimes"])
def test_block_of_the_wrong_shape_rejected(short):
    grid = Grid(delta=SPEC.tau / 10, tau_steps=10, num_steps=6)
    block = {"brownian": np.zeros((2, 6)), "poisson": np.zeros((2, 6), dtype=np.int64),
             "regimes": np.ones((2, 7), dtype=np.int64)}
    block[short] = block[short][:1]  # one row short
    noise = NoiseBlocks((2, 6), [tuple(block.values())])
    with pytest.raises(ValueError, match="must have shape"):
        engine.simulate_bem_batch(SPEC, grid, noise)


def test_noise_must_span_the_grid():
    grid = Grid(delta=SPEC.tau / 10, tau_steps=10, num_steps=30)
    noise = draw_batch_noise(SPEC, Grid(grid.delta, 10, 20), 1, np.arange(2))
    with pytest.raises(ValueError, match="noise covers 20 steps, the grid 30"):
        engine.simulate_bem_batch(SPEC, grid, noise)


def test_converge_chunk_holds_blocks_not_paths():
    """A converge-shaped chunk (P = 16, M = 2048, K = 4096, factors 8 to 64)
    allocates at most its values, its coarse noise and a few blocks of P
    values: per draw block its (P, DRAW_STEPS) noise arrays, per march
    block the (P, BLOCK_STEPS) scratch and the gathered coefficient rows,
    whose Python objects weigh more than their data at P = 16. Allocating
    the whole noise of the paths again, as a single draw, breaks this."""
    spec = replace(two_regime_demo(), include_inverse_drift=False, tau=0.25)
    policy = default_mu_for(spec, psi_exponent=0.25)
    num_paths, m, k = 16, 2048, 4096
    ref, levels = estimators._coupled_grids(
        spec, [spec.tau * f / m for f in (64, 32, 16, 8)], spec.tau / m, 2 * spec.tau)
    runs = estimators._tem_runs(spec, policy, levels, estimators._sup_distance)
    factors = [factor for _, factor, _ in runs]
    assert (ref.tau_steps, ref.num_steps, factors) == (m, k, [64, 32, 16, 8])
    chunk = partial(estimators._chunk, spec, policy, ref, 3, (), runs, (0, num_paths))
    chunk()  # first-call allocations that stay
    tracemalloc.start()
    try:
        chunk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    values = num_paths * (m + k + 1) * 8
    coarse = sum(num_paths * (k // f * 2 + k // f + 1) * 8 for f in factors)
    blocks = 8 * num_paths * engine.DRAW_STEPS * 8 + 32 * num_paths * BLOCK_STEPS * 8
    assert peak < values + coarse + blocks
