"""The blocked engine loops and the implicit solve against the code they
replaced.

``reference_tem`` and ``reference_bem`` are the per-step loops of the
original ``simulate_tem_batch`` and ``simulate_bem_batch``,
``reference_solve`` is the original ``implicit_drift_solve`` and
``reference_chain`` the original per-step ``sample_chain_path``, all kept
verbatim. The block loop must reproduce them bit for bit at every block
edge: delays shorter than, equal to and longer than one block, horizons
that end inside a block, one path and many, negative iterates, and a
volatility without a vectorised form. The solve must reproduce
``reference_solve`` bit for bit, errors included, on targets of every
scale, in both domains and at the largest admissible step. The batch
chain sampler must reproduce ``reference_chain`` on every path. No result
may depend on the memory layout of the arrays passed in.
"""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temsim.config import two_regime_demo
from temsim import rng
from temsim.engine import (
    POISSON_MEAN_MAX,
    CoefficientTables,
    Grid,
    NoiseBlocks,
    SimulationError,
    draw_batch_noise,
    implicit_drift_solve,
    initial_values,
    resolve_grid,
    simulate_bem_batch,
    simulate_tem_batch,
)
from temsim.model import InitialSegment, RegimeParams, VolatilitySpec, constant_segment
from temsim.regime import (
    GeneratorMatrix,
    matrix_exponential,
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


def reference_solve(
    tables: CoefficientTables,
    ridx: np.ndarray,
    target: np.ndarray,
    delta: float,
    positive_domain: bool,
    context: tuple = (None, None, None),
) -> np.ndarray:
    """The original ``implicit_drift_solve``, kept verbatim."""
    seed, path_indices, step = context

    if positive_domain:
        def residual(z):
            return z - delta * tables.drift(z, ridx) - target

        def slope_at(z):
            return 1.0 - delta * tables.drift_derivative(z, ridx)
    else:
        # boundary-value extension: drift frozen at its z = 0 value below zero
        def residual(z):
            return z - delta * tables.drift(np.maximum(z, 0.0), ridx) - target

        def slope_at(z):
            return np.where(
                z > 0.0,
                1.0 - delta * tables.drift_derivative(np.maximum(z, 1e-300), ridx),
                1.0,
            )

    def no_root(kind, still_bad):
        row = int(np.argmax(still_bad))
        idx = row if path_indices is None else int(np.asarray(path_indices)[row])
        raise SimulationError(
            f"implicit solve found no {kind} bracket end at step {step} of "
            f"path {idx} (replay: seed={seed}, path={idx}, delta={delta:g})",
            path_index=idx, step=step, seed=seed, delta=delta,
        )

    if positive_domain:
        # residual -> -inf as z -> 0+ through the a_m1/z term
        lo = np.clip(np.abs(target), 1e-8, 0.5)
        for _ in range(400):
            res = residual(lo)
            bad = ~(res < 0.0)  # NaN counts as bad
            if not bad.any():
                break
            lo = np.where(bad, lo * 0.125, lo)
        else:
            no_root("positive lower", ~(residual(lo) < 0.0))
    else:
        lo = np.minimum(target, 0.0) - 1.0
        for _ in range(200):
            bad = residual(lo) >= 0.0
            if not bad.any():
                break
            lo = np.where(bad, 2.0 * lo - 1.0, lo)
        else:
            no_root("lower", residual(lo) >= 0.0)
    hi = np.abs(target) + 1.0
    for _ in range(200):
        bad = residual(hi) <= 0.0
        if not bad.any():
            break
        hi = np.where(bad, 2.0 * hi + 1.0, hi)
    else:
        no_root("upper", residual(hi) <= 0.0)

    z = 0.5 * (lo + hi)
    active = np.ones(z.shape, dtype=bool)
    for _ in range(200):
        f = residual(z)
        lo = np.where(active & (f < 0.0), z, lo)
        hi = np.where(active & (f >= 0.0), z, hi)
        slope = slope_at(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            proposal = z - f / slope
        inside = np.isfinite(proposal) & (proposal > lo) & (proposal < hi)
        z_next = np.where(inside, proposal, 0.5 * (lo + hi))
        settled = (np.abs(f) <= 1e-14 * (1.0 + np.abs(z) + np.abs(target))) | (
            (hi - lo) <= 1e-15 * (1.0 + np.abs(z))
        )
        z = np.where(active & ~settled, z_next, z)
        active &= ~settled
        if not active.any():
            break
    return z


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
            values[:, m + step + 1] = reference_solve(
                tables, r, target, grid.delta, positive_domain,
                context=(None, None, step),
            )
    return values


def reference_chain(
    generator: GeneratorMatrix,
    initial_state: int,
    delta: float,
    num_steps: int,
    stream: np.random.Generator,
) -> np.ndarray:
    """Regime trajectory of length ``num_steps + 1`` on the grid ``k * delta``."""
    if num_steps < 0:
        raise ValueError("num_steps must be >= 0")
    if not 1 <= initial_state <= generator.num_states:
        raise ValueError("initial_state outside the state space")
    path = np.empty(num_steps + 1, dtype=np.int64)
    path[0] = initial_state
    if num_steps == 0:
        return path
    transition = matrix_exponential(generator, delta)
    uniforms = stream.random(num_steps)
    cum = np.cumsum(transition, axis=1)[:, : generator.num_states - 1]
    state = initial_state
    for k in range(num_steps):
        state = 1 + int(np.count_nonzero(cum[state - 1] <= uniforms[k]))
        path[k + 1] = state
    return path


def scalar_only_volatility(y: float, i: int) -> float:
    return 0.1 * i * (1.0 + math.tanh(max(y, 0.0)))


SCALAR_VOL = VolatilitySpec(bound_sigma=0.4, eval=scalar_only_volatility)

# (M, K): delays below, at and above one block, horizons ending mid-block
SHAPES = [(1, 5), (7, 23), (256, 700), (257, 300), (1000, 600)]


def run_pair(spec, policy, m, k, num_paths, seed):
    grid = Grid(delta=spec.tau / m, tau_steps=m, num_steps=k)
    # the whole noise as one block, as a single path draws it
    noise = next(iter(draw_batch_noise(spec, grid, seed, np.arange(num_paths), k)))
    tem = simulate_tem_batch(spec, policy, grid, NoiseBlocks(noise[0].shape, [noise]))
    assert np.array_equal(tem, reference_tem(spec, policy, grid, *noise),
                          equal_nan=True)
    bem = simulate_bem_batch(spec, grid, NoiseBlocks(noise[0].shape, [noise]))
    assert np.array_equal(bem, reference_bem(spec, grid, *noise), equal_nan=True)
    return tem


@pytest.mark.parametrize("num_paths", [1, 3, 130])
@pytest.mark.parametrize("m,k", SHAPES)
@pytest.mark.parametrize("inverse", [True, False])
def test_blocked_schemes_match_per_step_loops(m, k, num_paths, inverse):
    spec = replace(two_regime_demo(), include_inverse_drift=inverse, tau=0.01 * m)
    q = 2.0 / 3.0 if inverse else 0.25
    policy = default_mu_for(spec, psi_exponent=q, mu_preset="3u2")
    tem = run_pair(spec, policy, m, k, num_paths, seed=m + num_paths)
    if not inverse and num_paths == 130 and k > 100:
        assert (tem < 0.0).any()  # the narrow band drives iterates negative


@pytest.mark.parametrize("num_paths", [1, 3])
@pytest.mark.parametrize("m,k", [(7, 23), (257, 300)])
def test_python_fallback_volatility_matches(m, k, num_paths):
    spec = replace(two_regime_demo(), tau=0.01 * m, volatility=SCALAR_VOL)
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
        reference_chain(gen, 2, 0.05, num_steps, np.random.default_rng(s))
        for s in seeds
    ])
    assert np.array_equal(batch, single)
    views = np.array([
        sample_chain_path(gen, 2, 0.05, num_steps, np.random.default_rng(s))
        for s in seeds
    ])
    assert np.array_equal(views, single)


# large alpha_0 makes the residual at the starting lower end nonnegative
# (the lower widening loop runs); with a large alpha_m1, or with a step just
# below 1 / alpha_1 and a small alpha_2, it is nonpositive at the starting
# upper end (the upper widening loop runs). rho = 1.7 takes numpy's general
# pow, where the demo's rho = 2 takes its square.
LOOP_SPEC = replace(
    two_regime_demo(),
    regimes=(RegimeParams(0.3, 5000.0, 10.0, 1e-3, 1.0),
             RegimeParams(5000.0, 0.1, 10.0, 1e-3, 2.0)),
    rho=1.7,
)


def solve_targets(seed):
    """Targets of both signs from 1e-6 to 1e150, with 0.0 and -0.0."""
    sweep = np.logspace(-6, 150, 157)
    drawn = 10.0 ** np.random.default_rng(seed).uniform(-6, 150, 200)
    magnitudes = np.concatenate([sweep, drawn])
    return np.concatenate([magnitudes, -magnitudes, [0.0, -0.0]])


def starting_ends_fail(tables, ridx, target, delta, positive_domain):
    """Whether some row fails at the starting lower or upper bracket end,
    which is when the solve's widening loops run."""
    def residual(z):
        return z - delta * tables.drift(z if positive_domain else np.maximum(z, 0.0),
                                        ridx) - target
    with np.errstate(all="ignore"):
        if positive_domain:
            lower_fails = ~(residual(np.clip(np.abs(target), 1e-8, 0.5)) < 0.0)
        else:
            lower_fails = residual(np.minimum(target, 0.0) - 1.0) >= 0.0
        upper_fails = residual(np.abs(target) + 1.0) <= 0.0
    return lower_fails.any(), upper_fails.any()


def solve_outcome(solve, *args, **kwargs):
    """The solve's result, or its error's message and replay fields."""
    try:
        with np.errstate(all="ignore"):
            return solve(*args, **kwargs)
    except SimulationError as err:
        return (str(err), err.path_index, err.step, err.seed, err.delta,
                type(err.delta))


def assert_same_outcome(tables, ridx, target, delta):
    """The solve against the reference on the domain its tables carry, at
    step 0 of noise without replay coordinates."""
    got = solve_outcome(implicit_drift_solve, tables, ridx, target, delta,
                        NoiseBlocks((target.size, 0), ()), 0)
    want = solve_outcome(reference_solve, tables, ridx, target, delta,
                         tables.include_inverse)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, want, equal_nan=True)
    return want


def solve_case(spec, positive_domain, delta, gathered, seed):
    spec = replace(spec, include_inverse_drift=positive_domain)
    tables = CoefficientTables(spec)
    if delta == "max":  # the largest admissible step
        delta = float(np.nextafter(1.0 / tables.a1.max(), 0.0))
    target = solve_targets(seed)
    ridx = np.random.default_rng(seed).integers(0, spec.num_regimes, target.size)
    if gathered:  # the engine's form: one row of gathered coefficient tables
        return tables.gather(ridx[None, :]), 0, target, delta
    return tables, ridx, target, delta


@pytest.mark.parametrize("gathered", [False, True])
@pytest.mark.parametrize("delta", [1e-3, 0.05, "max"])
@pytest.mark.parametrize("positive_domain", [True, False])
@pytest.mark.parametrize("spec", [two_regime_demo(), LOOP_SPEC], ids=["demo", "loops"])
def test_solve_matches_reference(spec, positive_domain, delta, gathered):
    tables, ridx, target, delta = solve_case(spec, positive_domain, delta, gathered,
                                             seed=7)
    result = assert_same_outcome(tables, ridx, target, delta)
    assert isinstance(result, np.ndarray)
    if positive_domain:
        assert (result[np.isfinite(result)] > 0.0).all()


@pytest.mark.parametrize("positive_domain", [True, False])
def test_solve_widening_loops_match_reference(positive_domain):
    spec = replace(LOOP_SPEC, include_inverse_drift=positive_domain)
    tables = CoefficientTables(spec)
    delta = float(np.nextafter(1.0 / tables.a1.max(), 0.0))
    magnitudes = np.logspace(-6, 6, 61)
    target = np.concatenate([magnitudes, -magnitudes, [0.0, -0.0]])
    for regime in (0, 1):
        ridx = np.full(target.size, regime)
        lower, upper = starting_ends_fail(tables, ridx, target, delta, positive_domain)
        # regime 1 (large alpha_0) widens the lower end; regime 2 (large
        # alpha_m1) and, without the 1/x term, the step widen the upper end
        assert lower if regime == 0 else upper
        assert_same_outcome(tables, ridx, target, delta)
        rows = tables.gather(ridx[None, :])
        assert_same_outcome(rows, 0, target, delta)


@pytest.mark.parametrize("positive_domain", [True, False])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solve_non_finite_target_matches_reference(bad, positive_domain):
    spec = replace(two_regime_demo(), include_inverse_drift=positive_domain)
    tables = CoefficientTables(spec)
    target = np.linspace(0.01, 2.0, 9)
    target[5] = bad
    ridx = np.arange(target.size) % 2
    indices = np.arange(40, 40 + target.size)
    noise = NoiseBlocks((target.size, 0), (), seed=3, path_indices=indices, delta=1e-3)
    got = solve_outcome(implicit_drift_solve, tables, ridx, target, 1e-3, noise, 17)
    want = solve_outcome(reference_solve, tables, ridx, target, 1e-3, positive_domain,
                         context=(3, indices, 17))
    # the residual at an end is NaN or of the wrong sign, so every
    # non-finite target is a named error at its step, with the replay
    # coordinates of path 45
    kind = "upper" if bad == np.inf else "positive lower" if positive_domain else "lower"
    assert isinstance(got, tuple)
    message, path, step, seed, delta, delta_type = got
    assert f"no {kind} bracket end at step 17 of path 45" in message
    assert (path, step, seed, delta, delta_type) == (45, 17, 3, 1e-3, float)
    if positive_domain and bad != np.inf:
        assert got == want  # no negative residual below a NaN or -inf target
    else:
        # the original solve took a NaN residual as a bracket end and
        # returned a non-finite row without an error
        assert not np.isfinite(want[5])


@pytest.mark.parametrize("gathered", [False, True])
@pytest.mark.parametrize("positive_domain", [True, False])
def test_solve_on_a_0d_target_is_the_width_1_solve(positive_domain, gathered):
    # a 0-d target raised "return arrays must be of ArrayType" from the
    # bracket ends' preallocated outputs
    spec = replace(two_regime_demo(), include_inverse_drift=positive_domain)
    tables = CoefficientTables(spec)
    rows, ridx = (tables.gather(np.array([[1]])), 0) if gathered else (tables, np.asarray(1))
    noise = NoiseBlocks((1, 0), ())
    for value in (0.7, -0.3, 0.0, 1e6):
        got = implicit_drift_solve(rows, ridx, np.asarray(value), 1e-3, noise, 0)
        want = implicit_drift_solve(rows, ridx, np.array([value]), 1e-3, noise, 0)
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got.tobytes() == want.tobytes()
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match="bracket end at step 0 of path 0$"):
            implicit_drift_solve(rows, ridx, np.asarray(np.nan), 1e-3, noise, 0)


def test_bem_evaluation_counts_are_pinned(monkeypatch):
    # the traced benchmark's exact BEM counts, in tier 1: the solve's
    # iterates set how many times it evaluates the drift and its slope
    counts = {"drift": 0, "drift_derivative": 0}
    for name in counts:
        def counted(self, x, ridx, _method=getattr(CoefficientTables, name), _name=name):
            counts[_name] += 1
            return _method(self, x, ridx)
        monkeypatch.setattr(CoefficientTables, name, counted)
    spec = two_regime_demo()
    grid = resolve_grid(spec.tau, 0.01, 2.0)
    simulate_bem_batch(spec, grid, draw_batch_noise(spec, grid, 3, np.arange(32)))
    assert counts == {"drift": 1092, "drift_derivative": 692}


@pytest.mark.parametrize("state", [{}, {"divide": "raise", "invalid": "raise"}],
                         ids=["default", "raise"])
def test_bem_march_restores_the_error_state(state):
    # the march ignores division by zero once for all its solves and gives
    # the caller's error state back, on a return and on an error; a lower
    # bracket end shrunk to +0 on the way to the error warns nothing
    spec = two_regime_demo()
    grid = resolve_grid(spec.tau, 0.01, 0.2)
    huge = replace(spec, initial_segment=constant_segment(1.0e300))
    with np.errstate(**state):
        before = np.geterr()
        simulate_bem_batch(spec, grid, draw_batch_noise(spec, grid, 3, np.arange(4)))
        assert np.geterr() == before
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(SimulationError,
                               match="no positive lower bracket end at step 0 of path 0"):
                simulate_bem_batch(huge, grid,
                                   draw_batch_noise(huge, grid, 3, np.arange(4)))
        assert np.geterr() == before
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def relayout(a, layout):
    """``a``'s values in another memory layout: Fortran order, a strided view
    into a larger buffer, or a view with negative strides."""
    if layout == "fortran":
        return np.asfortranarray(a)
    if layout == "strided":
        buffer = np.zeros((2 * a.shape[0] + 1, 3 * a.shape[1] + 2), dtype=a.dtype)
        buffer[1::2, 2::3] = a
        return buffer[1::2, 2::3]
    return np.ascontiguousarray(a[::-1, ::-1])[::-1, ::-1]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(layout=st.sampled_from(["fortran", "strided", "reversed"]),
       num_paths=st.integers(1, 6), m=st.sampled_from([1, 3, 20]),
       k=st.integers(0, 45), seed=st.integers(0, 2**16), inverse=st.booleans())
def test_results_do_not_depend_on_array_layout(layout, num_paths, m, k, seed, inverse):
    spec = replace(two_regime_demo(), include_inverse_drift=inverse, tau=0.01 * m)
    policy = default_mu_for(spec, psi_exponent=2.0 / 3.0, mu_preset="3u2")
    grid = Grid(delta=spec.tau / m, tau_steps=m, num_steps=k)
    arrays = next(iter(draw_batch_noise(spec, grid, seed, np.arange(num_paths), k)))
    noise = NoiseBlocks(arrays[0].shape, [arrays])
    moved = NoiseBlocks(arrays[0].shape, [tuple(relayout(a, layout) for a in arrays)])
    assert np.array_equal(simulate_tem_batch(spec, policy, grid, moved),
                          simulate_tem_batch(spec, policy, grid, noise))
    assert np.array_equal(simulate_bem_batch(spec, grid, moved),
                          simulate_bem_batch(spec, grid, noise))
    uniforms = np.random.default_rng(seed).random((num_paths, k))
    assert np.array_equal(
        sample_chain_paths_batch(spec.generator, 2, grid.delta, k,
                                 relayout(uniforms, layout)),
        sample_chain_paths_batch(spec.generator, 2, grid.delta, k, uniforms))


def test_poisson_mean_past_numpy_limit_refused_before_any_stream(monkeypatch):
    # numpy refused the mean itself ("lam value too large") inside a chunk's
    # first draw: a traceback at exit 1 in every command that simulates
    grid = Grid(delta=1.0, tau_steps=1, num_steps=3)
    at_limit = replace(two_regime_demo(), tau=1.0, jump_intensity=POISSON_MEAN_MAX)
    _, poisson, _ = next(iter(draw_batch_noise(at_limit, grid, 0, np.arange(2))))
    assert poisson.shape == (2, 3) and np.all(poisson > 0)

    def no_streams(*_args):
        raise AssertionError("a stream was built before the Poisson mean was checked")

    monkeypatch.setattr(rng, "path_streams", no_streams)
    for intensity, shown in ((np.nextafter(POISSON_MEAN_MAX, np.inf), "9.22337e+18"),
                             (1e300, "1e+300")):
        spec = replace(at_limit, jump_intensity=intensity)
        with pytest.raises(SimulationError, match=f"^jump_intensity {re.escape(shown)} "
                                                  "at step 1 gives a Poisson mean of "):
            draw_batch_noise(spec, grid, 0, np.arange(2))


def test_non_finite_value_named_at_its_lowest_row_and_first_node():
    # each march block is checked as it is written back: the error still
    # names the lowest row with a non-finite value at that row's first, as
    # a scan of the whole result does, though a higher row failed in an
    # earlier block
    spec = replace(two_regime_demo(), tau=0.03)
    policy = default_mu_for(spec, psi_exponent=2.0 / 3.0, mu_preset="3u2")
    grid = Grid(delta=0.01, tau_steps=3, num_steps=20)
    brownian, poisson, regimes = next(iter(
        draw_batch_noise(spec, grid, 4, np.arange(5), grid.num_steps)))
    brownian[3, 1] = math.nan    # row 3 from node 2, in the first march block
    brownian[1, 13] = math.inf   # row 1 from node 14, in the fifth
    noise = NoiseBlocks(brownian.shape, [(brownian, poisson, regimes)], seed=4,
                        path_indices=np.arange(10, 15), delta=grid.delta)
    with pytest.raises(SimulationError, match=r"^non-finite value at node 14 of path 11 "
                                              r"\(replay: seed=4, path=11, delta=0.01\)$"):
        simulate_tem_batch(spec, policy, grid, noise)
    brownian[1, 13] = 0.0
    with pytest.raises(SimulationError, match="^non-finite value at node 2 of path 13 "):
        simulate_tem_batch(spec, policy, grid, noise)


def test_non_finite_initial_segment_named_at_its_node():
    # the segment is checked once, before the march: every row holds it,
    # so row 0 is named, at the segment's node
    segment = InitialSegment(eval=lambda t: math.nan if -0.015 < t < -0.005 else 0.5)
    spec = replace(two_regime_demo(), tau=0.03, initial_segment=segment)
    policy = default_mu_for(spec, psi_exponent=2.0 / 3.0, mu_preset="3u2")
    grid = Grid(delta=0.01, tau_steps=3, num_steps=2)
    blocks = next(iter(draw_batch_noise(spec, grid, 4, np.arange(3), grid.num_steps)))
    noise = NoiseBlocks(blocks[0].shape, [blocks])
    with pytest.raises(SimulationError, match="^non-finite value at node -1 of path 0$"):
        simulate_tem_batch(spec, policy, grid, noise)
