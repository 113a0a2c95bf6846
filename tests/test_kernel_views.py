"""Width-1 evaluations of the kernel equal its rows, bit for bit.

The simulation engine steps on ``CoefficientTables`` and the step rules
``tem_update``/``bem_update`` over whole rows of paths. A value at one
point is the same kernel on a one-element array, and it must be exactly
(``==``) what the kernel gives for that point inside a row, so that a
point value, ``validate`` and the growth check see the arithmetic the
simulations run.
"""


from dataclasses import replace

import numpy as np
import pytest

from temsim.config import two_regime_demo
from temsim.engine import (
    CoefficientTables,
    NoiseBlocks,
    bem_update,
    draw_batch_noise,
    resolve_grid,
    simulate_bem_batch,
    simulate_tem_batch,
    tem_update,
)
from temsim.model import (
    ModelSpec,
    RegimeParams,
    _growth_functional,
    build_volatility,
    constant_segment,
)
from temsim.regime import GeneratorMatrix
from temsim.truncation import default_mu_for, truncation_band

DELTA = 1e-3


def three_regime_spec():
    """A non-demo model: rho = 1.5, theta = 1.2, three regimes."""
    return ModelSpec(
        regimes=(
            RegimeParams(0.4, 0.1, 0.3, 0.7, 0.5),
            RegimeParams(0.1, 0.5, 0.05, 1.2, 1.5),
            RegimeParams(0.9, 0.2, 0.6, 0.3, 0.0),
        ),
        rho=1.5, theta=1.2, tau=1.0, jump_intensity=2.0,
        volatility=build_volatility("constant", 0.3),
        initial_segment=constant_segment(0.4),
        generator=GeneratorMatrix(np.array([[-2.0, 1.0, 1.0],
                                            [0.5, -1.0, 0.5],
                                            [1.0, 2.0, -3.0]])),
    )


def _policy(spec, mu_preset):
    return default_mu_for(spec, psi_exponent=2.0 / 3.0, mu_preset=mu_preset)


CASES = {
    "demo": (two_regime_demo(), "3u2"),
    "demo_no_inverse": (replace(two_regime_demo(), include_inverse_drift=False), "3u2"),
    "three_regime_power_fit": (three_regime_spec(), "power_fit"),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    spec, mu_preset = CASES[request.param]
    return spec, _policy(spec, mu_preset)


def probe_points(lower, upper):
    """Random points of both signs, a log sweep, and the band edges +- 1 ulp."""
    rng = np.random.default_rng(2024)
    edges = np.array([lower, upper])
    edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    return np.concatenate([rng.uniform(-5.0, 5.0, 600), np.geomspace(1e-3, 1e3, 300),
                           edges, -edges])


def width1(fn, xs, *args):
    """``fn`` at each point of ``xs``, each on its own one-element array."""
    return np.array([fn(np.array([x]), *args)[0] for x in xs])


def test_coefficient_views_equal_kernel_bitwise(case):
    spec, policy = case
    lower, upper = truncation_band(DELTA, policy)
    xs = probe_points(lower, upper)
    # the drift is defined on x >= 0, the only points the step rules take it at
    domain = xs[xs >= 0.0]
    tables = CoefficientTables(spec)
    assert np.array_equal(width1(tables.diffusion, xs), tables.diffusion(xs))
    for i in range(spec.num_regimes):
        ridx = np.full(xs.size, i)
        one = np.array([i])
        assert np.array_equal(width1(tables.drift, domain, one),
                              tables.drift(domain, np.full(domain.size, i)))
        assert np.array_equal(width1(tables.jump, xs, one), tables.jump(xs, ridx))
        fd, gd = tables.truncated(xs, ridx, lower, upper)
        clamped = np.minimum(np.maximum(xs, lower), upper)
        assert np.array_equal(fd, tables.drift(clamped, ridx))
        assert np.array_equal(gd, tables.diffusion(np.minimum(xs, upper)))
        assert np.array_equal(
            width1(lambda x: tables.truncated(x, one, lower, upper)[0], xs), fd)
        assert np.array_equal(
            width1(lambda x: tables.truncated(x, one, lower, upper)[1], xs), gd)


def test_khasminskii_integrand_equals_kernel_bitwise(case):
    # the growth functional at one point, on the grid khasminskii_check
    # reduces, and from the kernel's coefficients
    spec, _ = case
    xs = np.geomspace(1e-2, 1e2, 301)
    ys = np.array([-1.0, 0.0, 1.44])
    tables = CoefficientTables(spec)
    grid = _growth_functional(xs[:, None, None], spec, ys[None, None, :],
                              np.arange(spec.num_regimes)[None, :, None], 4.0)
    for i in range(spec.num_regimes):
        ridx = np.full(xs.size, i)
        for j, y in enumerate(ys):
            phi = spec.volatility.evaluate_many(np.full(xs.size, y), ridx + 1)
            expected = xs * tables.drift(xs, ridx) + 0.5 * 3.0 * (phi * tables.diffusion(xs)) ** 2
            got = width1(_growth_functional, xs, spec, np.array([y]), np.array([i]), 4.0)
            assert np.array_equal(got, expected)
            assert np.array_equal(grid[:, i, j], expected)


def test_step_views_equal_batch_bitwise(case):
    # each step rule on one path's width-1 row reproduces that path's row
    # of the batch
    spec, policy = case
    grid = resolve_grid(spec.tau, 0.02, 1.0)
    m = grid.tau_steps
    # the whole noise as one block, as a single path draws it
    brownian, poisson, regimes = whole = next(iter(
        draw_batch_noise(spec, grid, 7, np.arange(12), grid.num_steps)))
    noise = NoiseBlocks(brownian.shape, [whole])
    tem = simulate_tem_batch(spec, policy, grid, noise)
    bem = simulate_bem_batch(spec, grid, noise)
    tables = CoefficientTables(spec)
    lower, upper = truncation_band(grid.delta, policy)

    def row_step(update, values, p, k, *args):
        node = slice(k, k + 1)
        phi = spec.volatility.evaluate_many(values[p, node], regimes[p, node])
        d_n = poisson[p, node].astype(float) if poisson[p, k] else None
        return update(values[p, m + k:m + k + 1], tables, regimes[p, node] - 1, phi,
                      brownian[p, node], d_n, k, grid.delta, *args)[0]

    for p in range(12):
        got = [row_step(tem_update, tem, p, k, lower, upper) for k in range(grid.num_steps)]
        assert np.array_equal(got, tem[p, m + 1:])
    for p in range(4):
        got = [row_step(bem_update, bem, p, k, noise) for k in range(grid.num_steps)]
        assert np.array_equal(got, bem[p, m + 1:])
