"""The blocked engine loops against the per-step loops they replaced.

``reference_tem`` and ``reference_bem`` are the per-step loops of the
original ``simulate_tem_batch`` and ``simulate_bem_batch``, kept verbatim.
The block loop must reproduce them bit for bit at every block edge: delays
shorter than, equal to and longer than one block, horizons that end inside
a block, one path and many, negative iterates, and a volatility without a
vectorised form.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from temsim.engine import (
    CoefficientTables,
    Grid,
    draw_batch_noise,
    implicit_drift_solve,
    initial_values,
    simulate_bem_batch,
    simulate_tem_batch,
)
from temsim.model import VolatilitySpec, two_regime_demo
from temsim.regime import (
    GeneratorMatrix,
    sample_chain_path,
    sample_chain_paths_batch,
)
from temsim.truncation import default_mu_for, truncation_band


def reference_tem(spec, policy, grid, brownian, poisson, regimes):
    lower, upper = truncation_band(grid.delta, policy)
    tables = CoefficientTables(spec)
    m, k = grid.tau_steps, grid.num_steps
    num_paths = brownian.shape[0]

    values = np.empty((num_paths, m + k + 1))
    values[:, : m + 1] = initial_values(spec, grid)[None, :]
    ridx = regimes - 1
    # overflow to inf is caught by the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(k):
            x = values[:, m + step]
            delayed = values[:, step]
            r = ridx[:, step]
            clamped = np.clip(x, lower, upper)
            fd = tables.drift(clamped, r)
            gd = tables.diffusion(np.minimum(x, upper))
            phi = spec.volatility.evaluate_many(delayed, regimes[:, step])
            jump = tables.jump(x, r)
            values[:, m + step + 1] = (
                x + fd * grid.delta + phi * gd * brownian[:, step]
                + jump * poisson[:, step]
            )
    return values


def reference_bem(spec, grid, brownian, poisson, regimes):
    tables = CoefficientTables(spec)
    positive_domain = spec.include_inverse_drift
    m, k = grid.tau_steps, grid.num_steps
    num_paths = brownian.shape[0]

    values = np.empty((num_paths, m + k + 1))
    values[:, : m + 1] = initial_values(spec, grid)[None, :]
    ridx = regimes - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(k):
            x = values[:, m + step]
            delayed = values[:, step]
            r = ridx[:, step]
            phi = spec.volatility.evaluate_many(delayed, regimes[:, step])
            target = (
                x + phi * tables.diffusion(x) * brownian[:, step]
                + tables.jump(x, r) * poisson[:, step]
            )
            values[:, m + step + 1] = implicit_drift_solve(
                tables, r, target, grid.delta, positive_domain,
                context=(None, None, step),
            )
    return values


def scalar_only_volatility(y: float, i: int) -> float:
    return 0.1 * i * (1.0 + math.tanh(max(y, 0.0)))


SCALAR_VOL = VolatilitySpec(bound_sigma=0.4, eval=scalar_only_volatility)

# (M, K): delays below, at and above one block, horizons ending mid-block
SHAPES = [(1, 5), (7, 23), (256, 700), (257, 300), (1000, 600)]


def run_pair(spec, policy, m, k, num_paths, seed):
    grid = Grid(delta=spec.tau / m, tau_steps=m, num_steps=k)
    noise = draw_batch_noise(spec, grid, seed, np.arange(num_paths))
    tem = simulate_tem_batch(spec, policy, grid, *noise, check=False)
    assert np.array_equal(tem, reference_tem(spec, policy, grid, *noise),
                          equal_nan=True)
    bem = simulate_bem_batch(spec, grid, *noise, check=False)
    assert np.array_equal(bem, reference_bem(spec, grid, *noise), equal_nan=True)
    return tem


@pytest.mark.parametrize("num_paths", [1, 3, 130])
@pytest.mark.parametrize("m,k", SHAPES)
@pytest.mark.parametrize("inverse", [True, False])
def test_blocked_schemes_match_per_step_loops(m, k, num_paths, inverse):
    spec = two_regime_demo(include_inverse_drift=inverse, tau=0.01 * m)
    q = 2.0 / 3.0 if inverse else 0.25
    policy = default_mu_for(spec, psi_exponent=q, mu_preset="3u2")
    tem = run_pair(spec, policy, m, k, num_paths, seed=m + num_paths)
    if not inverse and num_paths == 130 and k > 100:
        assert (tem < 0.0).any()  # the narrow band drives iterates negative


@pytest.mark.parametrize("num_paths", [1, 3])
@pytest.mark.parametrize("m,k", [(7, 23), (257, 300)])
def test_python_fallback_volatility_matches(m, k, num_paths):
    spec = replace(two_regime_demo(tau=0.01 * m), volatility=SCALAR_VOL)
    policy = default_mu_for(spec, psi_exponent=2.0 / 3.0, mu_preset="3u2")
    run_pair(spec, policy, m, k, num_paths, seed=11)


@pytest.mark.parametrize("num_paths", [1, 3, 130])
@pytest.mark.parametrize("num_steps", [1, 255, 256, 257, 700])
def test_batch_chain_matches_single_path_sampler(num_steps, num_paths):
    gen = GeneratorMatrix(np.array([[-3.0, 2.0, 1.0],
                                    [1.0, -2.0, 1.0],
                                    [0.5, 0.5, -1.0]]))
    seeds = np.arange(num_paths) + 1000 * num_steps
    uniforms = np.array([np.random.default_rng(s).random(num_steps) for s in seeds])
    batch = sample_chain_paths_batch(gen, 2, 0.05, num_steps, uniforms)
    single = np.array([
        sample_chain_path(gen, 2, 0.05, num_steps, np.random.default_rng(s))
        for s in seeds
    ])
    assert np.array_equal(batch, single)
