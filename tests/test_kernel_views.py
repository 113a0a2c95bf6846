"""The scalar coefficient and step functions are width-1 views of the kernel.

The simulation engine steps on ``CoefficientTables`` over whole rows of
paths. Every scalar function must return exactly (``==``) what the kernel
gives for the same point inside such a row, so that ``validate`` and the
scalar API check the arithmetic the simulations run. The property test
checks the truncation cap ``max(|f_delta|, g_delta) <= psi(delta)`` of the
kernel for random models, not only the demo.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from temsim.engine import (
    CoefficientTables,
    draw_batch_noise,
    noise_blocks,
    resolve_grid,
    simulate_bem_batch,
    simulate_tem_batch,
)
from temsim.model import (
    ModelSpec,
    RegimeParams,
    build_volatility,
    constant_segment,
    diffusion_g,
    drift_f,
    jump_h,
    khasminskii_integrand,
    two_regime_demo,
)
from temsim.regime import GeneratorMatrix
from temsim.schemes import PathState, bem_step, tem_step
from temsim.truncation import (
    StepProfileWarning,
    default_mu_for,
    psi,
    truncated_diffusion,
    truncated_drift,
    truncation_band,
)

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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepProfileWarning)
        return default_mu_for(spec, psi_exponent=2.0 / 3.0, mu_preset=mu_preset)


CASES = {
    "demo": (two_regime_demo(), "3u2"),
    "demo_no_inverse": (two_regime_demo(include_inverse_drift=False), "3u2"),
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


def scalar(fn, xs, *args):
    return np.array([fn(float(x), *args) for x in xs])


def test_coefficient_views_equal_kernel_bitwise(case):
    spec, policy = case
    lower, upper = truncation_band(DELTA, policy)
    xs = probe_points(lower, upper)
    tables = CoefficientTables(spec)
    assert np.array_equal(scalar(diffusion_g, xs, spec), tables.diffusion(xs))
    assert np.array_equal(scalar(truncated_diffusion, xs, DELTA, spec, policy),
                          tables.diffusion(np.minimum(xs, upper)))
    for i in range(1, spec.num_regimes + 1):
        ridx = np.full(xs.size, i - 1)
        assert np.array_equal(scalar(drift_f, xs, i, spec), tables.drift(xs, ridx))
        assert np.array_equal(scalar(jump_h, xs, i, spec), tables.jump(xs, ridx))
        clamped = np.minimum(np.maximum(xs, lower), upper)
        assert np.array_equal(scalar(truncated_drift, xs, i, DELTA, spec, policy),
                              tables.drift(clamped, ridx))


def test_khasminskii_integrand_equals_kernel_bitwise(case):
    spec, _ = case
    xs = np.geomspace(1e-2, 1e2, 301)
    tables = CoefficientTables(spec)
    for i in range(1, spec.num_regimes + 1):
        ridx = np.full(xs.size, i - 1)
        for y in (-1.0, 0.0, 1.44):
            phi = spec.volatility.evaluate_many(np.full(xs.size, y), ridx + 1)
            expected = xs * tables.drift(xs, ridx) + 0.5 * 3.0 * (phi * tables.diffusion(xs)) ** 2
            got = scalar(khasminskii_integrand, xs, y, i, 4.0, spec)
            assert np.array_equal(got, expected)


def test_step_views_equal_batch_bitwise(case):
    spec, policy = case
    grid = resolve_grid(spec.tau, 0.02, 1.0)
    m = grid.tau_steps
    brownian, poisson, regimes = draw_batch_noise(spec, grid, 7, np.arange(12)).arrays()
    noise = noise_blocks(brownian, poisson, regimes)
    tem = simulate_tem_batch(spec, policy, grid, noise)
    bem = simulate_bem_batch(spec, grid, noise)

    def state(values, p):
        return PathState(delta=grid.delta, tau_steps=m, values=values[p], regimes=regimes[p])

    for p in range(12):
        got = [tem_step(state(tem, p), k, brownian[p, k], poisson[p, k], spec, policy)
               for k in range(grid.num_steps)]
        assert np.array_equal(got, tem[p, m + 1:])
    for p in range(4):
        got = [bem_step(state(bem, p), k, brownian[p, k], poisson[p, k], spec)
               for k in range(grid.num_steps)]
        assert np.array_equal(got, bem[p, m + 1:])


def test_views_keep_named_errors():
    spec = two_regime_demo()
    policy = _policy(spec, "3u2")
    with pytest.raises(ValueError, match="regime 0"):
        jump_h(1.0, 0, spec)
    with pytest.raises(ValueError, match="regime 3"):
        truncated_drift(1.0, 3, DELTA, spec, policy)
    with pytest.raises(ValueError, match="x = 0"):
        khasminskii_integrand(0.0, 0.0, 1, 2.0, spec)


coefficient = st.floats(0.01, 2.0)


@st.composite
def models(draw):
    regimes = draw(st.lists(
        st.builds(RegimeParams, coefficient, coefficient, coefficient, coefficient,
                  st.floats(0.0, 2.0)),
        min_size=1, max_size=3))
    n = len(regimes)
    generator = np.ones((n, n)) - n * np.eye(n)
    spec = ModelSpec(
        regimes=tuple(regimes),
        rho=draw(st.floats(1.05, 3.0)),
        theta=draw(st.floats(1.01, 2.5)),
        tau=1.0, jump_intensity=1.0,
        volatility=build_volatility("constant", 0.3),
        initial_segment=constant_segment(0.5),
        generator=GeneratorMatrix(generator),
        include_inverse_drift=draw(st.booleans()),
    )
    policy = default_mu_for(spec, psi_exponent=draw(st.sampled_from([0.25, 0.5, 2.0 / 3.0])),
                            mu_preset=draw(st.sampled_from(["auto", "power_fit"])))
    return spec, policy


def steep_power_fit_model():
    """A model whose coefficient sup outgrows c u^m just above u = 1.27.

    Fitting c on the edges of a 200-point band grid missed that peak
    between two edges, and the truncated drift exceeded psi(delta) by 0.5 %.
    """
    spec = ModelSpec(
        regimes=(RegimeParams(1.15, 0.33, 1.45, 1.8, 0.9),
                 RegimeParams(1.75, 1.2, 0.5, 2.0, 1.5)),
        rho=3.0, theta=1.6, tau=1.0, jump_intensity=1.0,
        volatility=build_volatility("constant", 0.3),
        initial_segment=constant_segment(0.5),
        generator=GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]])),
    )
    return spec, default_mu_for(spec, psi_exponent=0.5, mu_preset="power_fit")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(model=models(), xs=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20))
@example(model=steep_power_fit_model(), xs=[1.0])
def test_truncation_cap_holds_for_random_models(model, xs):
    # every step on a dense log grid up to delta_star, at the band edges of
    # that step (where the cap is tightest) and at the drawn points
    spec, policy = model
    deltas = np.geomspace(1e-6, policy.delta_star, 2000)
    bands = np.array([truncation_band(d, policy) for d in deltas])
    caps = np.array([psi(d, policy) for d in deltas])[:, None]
    lower, upper = bands[:, :1], bands[:, 1:]
    points = np.hstack([bands, np.broadcast_to(xs, (deltas.size, len(xs)))])
    tables = CoefficientTables(spec)
    for r in range(spec.num_regimes):
        drift, diffusion = tables.truncated(points, r, lower, upper)
        assert np.all(diffusion <= caps * (1.0 + 1e-12))
        assert np.all(np.abs(drift) <= caps * (1.0 + 1e-12))
