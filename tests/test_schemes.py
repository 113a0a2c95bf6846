import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import temsim.engine as engine
from temsim.config import two_regime_demo
from temsim.engine import CoefficientTables, Grid, SimulationError, resolve_grid
from temsim.estimators import _coupled_grids
from temsim.model import (
    ModelSpec,
    RegimeParams,
    build_volatility,
    constant_segment,
)
from temsim.regime import GeneratorMatrix
from temsim.schemes import PathState, simulate_tem_path
from temsim.truncation import default_mu_for, truncation_band

DEMO = two_regime_demo()
POLICY = default_mu_for(DEMO, psi_exponent=2 / 3)


def degenerate_spec(alpha_3=(0.0, 2.0), include_inverse=False):
    """Zeroed drift and volatility; only the jump channel is live."""
    return ModelSpec(
        regimes=tuple(RegimeParams(0.0, 0.0, 0.0, 0.0, a3) for a3 in alpha_3),
        rho=2.0, theta=1.25, tau=1.0, jump_intensity=1.0,
        volatility=build_volatility("zero"),
        initial_segment=constant_segment(0.5),
        generator=GeneratorMatrix(np.zeros((len(alpha_3), len(alpha_3)))),
        initial_regime=1, include_inverse_drift=include_inverse,
    )


def overflow_model():
    """Jumps of twice the state at rate 2000, which overflow within two time
    units, and its policy: the CI's overflow model."""
    spec = ModelSpec(
        regimes=(RegimeParams(0.0, 0.0, 0.0, 0.0, 2.0),),
        rho=2.0, theta=1.25, tau=1.0, jump_intensity=2000.0,
        volatility=build_volatility("zero"),
        initial_segment=constant_segment(1.0),
        generator=GeneratorMatrix(np.zeros((1, 1))),
        initial_regime=1, include_inverse_drift=False,
    )
    return spec, default_mu_for(spec, psi_exponent=2 / 3, mu_preset="power_fit")


def one_block(brownian, poisson, regimes):
    """Whole noise arrays as one block, without replay coordinates."""
    return engine.NoiseBlocks(np.shape(brownian), [(brownian, poisson, regimes)])


def whole_noise(spec, grid, seed, path_indices):
    """The paths' whole noise drawn as one block, as a single path draws it."""
    return next(iter(engine.draw_batch_noise(spec, grid, seed, path_indices,
                                             grid.num_steps)))


def one_path_noise(spec, grid, seed, path_index):
    """Path ``path_index``'s noise, one row each, as drawn in its run, as one
    block without the draw's replay coordinates."""
    return one_block(*whole_noise(spec, grid, seed, [path_index]))


def tem_from(state, k, d_brownian, d_poisson, spec=DEMO, policy=POLICY):
    """The TEM step from node k of ``state``: ``engine.tem_update`` on its
    width-1 row, with the volatility at node k - M."""
    m, node = state.tau_steps, slice(k, k + 1)
    phi = spec.volatility.evaluate_many(state.values[node], state.regimes[node])
    d_n = np.array([float(d_poisson)]) if d_poisson else None
    return engine.tem_update(
        state.values[m + k:m + k + 1], CoefficientTables(spec), state.regimes[node] - 1,
        phi, np.array([d_brownian]), d_n, k, state.delta,
        *truncation_band(state.delta, policy))[0]


def one_step(spec, delta, d_poisson=0, regime=1, policy=None):
    """Node 1 of one path stepped once from its initial segment, without a
    Brownian increment: TEM under ``policy``, or BEM without one."""
    grid = resolve_grid(spec.tau, delta, delta)
    noise = one_block(np.zeros((1, 1)), np.full((1, 1), d_poisson),
                      np.full((1, 2), regime))
    if policy is None:
        return engine.simulate_bem_batch(spec, grid, noise)[0, -1]
    return engine.simulate_tem_batch(spec, policy, grid, noise)[0, -1]


def single_regime_ode_spec(initial=1.0):
    return ModelSpec(
        regimes=(RegimeParams(0.3, 0.2, 0.1, 0.5, 0.0),),
        rho=2.0, theta=1.25, tau=1.0, jump_intensity=0.0,
        volatility=build_volatility("zero"),
        initial_segment=constant_segment(initial),
        generator=GeneratorMatrix(np.zeros((1, 1))),
        initial_regime=1, include_inverse_drift=True,
    )


class TestResolveGrid:
    def test_exact_fraction(self):
        grid = resolve_grid(1.0, 1e-3, 2.0)
        assert grid.tau_steps == 1000
        assert grid.delta == 1.0 / 1000
        assert grid.num_steps == 2000

    def test_snapping(self):
        grid = resolve_grid(1.0, 0.0012, 1.0)
        assert grid.tau_steps == 833
        assert grid.delta == pytest.approx(1.0 / 833)
        assert grid.num_steps == round(1.0 / grid.delta)

    def test_horizon_snaps_to_multiple(self):
        grid = resolve_grid(1.0, 0.25, 1.1)
        assert grid.num_steps == 4
        assert grid.num_steps * grid.delta == pytest.approx(1.0)

    def test_zero_horizon(self):
        grid = resolve_grid(1.0, 0.1, 0.0)
        assert grid.num_steps == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            resolve_grid(1.0, -0.1, 1.0)

    @pytest.mark.parametrize("delta, horizon", [
        (math.inf, 1.0), (math.nan, 1.0), (0.1, math.inf), (0.1, math.nan)])
    def test_non_finite_step_or_horizon_rejected(self, delta, horizon):
        # an infinite step used to run silently at delta = tau
        with pytest.raises(ValueError, match="finite delta > 0 and a finite horizon"):
            resolve_grid(1.0, delta, horizon)


class TestPathState:
    def make_state(self):
        values = np.array([0.02, 0.02, 0.02, 0.03, 0.05, 0.04])
        regimes = np.array([1, 2, 2, 1])
        return PathState(delta=0.5, tau_steps=2, values=values, regimes=regimes,
                         brownian=np.zeros(3), poisson=np.zeros(3, dtype=np.int64))

    def test_indexing(self):
        state = self.make_state()
        assert state.num_steps == 3
        assert state.value(-2) == 0.02
        assert state.value(0) == 0.02
        assert state.value(3) == 0.04
        with pytest.raises(IndexError):
            state.value(4)

    def test_delay_lookup_is_exact_index_shift(self):
        # constant history must be reproduced bit-exactly at the delay offset
        state = simulate_tem_path(DEMO, POLICY, 1e-2, 1.0,
                                  seed=3, path_index=0)
        for k in range(0, 40):
            assert state.value(k - state.tau_steps) == 0.02


class TestTemStep:
    def test_zero_noise_is_pure_drift(self):
        state = simulate_tem_path(DEMO, POLICY, 1e-3, 0.1,
                                  seed=1, path_index=0)
        m, band = state.tau_steps, truncation_band(state.delta, POLICY)
        for k in (0, 10, 50):
            x = state.values[m + k:m + k + 1]
            drift = CoefficientTables(DEMO).truncated(x, state.regimes[k:k + 1] - 1, *band)[0]
            assert tem_from(state, k, 0.0, 0) == (x + drift * state.delta)[0]

    def test_golden_composition(self):
        # independent re-derivation: clamp band sqrt(psi/3) at delta=1e-3,
        # q=2/3; x = 0.02 sits below the band so the drift argument clamps
        state = simulate_tem_path(DEMO, POLICY, 1e-3, 0.1,
                                  seed=1, path_index=0)
        upper = math.sqrt(100.0 / 3.0)
        lower = 1.0 / upper
        fd = 0.3 / lower - 0.2 + 0.1 * lower - 0.5 * lower**2
        gd = 0.02**1.25
        y = 0.02
        phi = 0.5 * (1.0 + (math.exp(y) - math.exp(-y))) / (math.exp(y) + math.exp(-y))
        expected = 0.02 + fd * 1e-3 + phi * gd * 0.01
        got = tem_from(state, 0, 0.01, 0)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.021553922591485482, rel=1e-12)

    def test_isolated_jump_channel(self):
        # zeroed drift/volatility, regime 2 doubles per count: 0.5 + 2*(2*0.5)
        assert one_step(degenerate_spec(), 0.1, d_poisson=2, regime=2, policy=POLICY) == 2.5

    def test_matches_engine_recursion(self):
        state = simulate_tem_path(DEMO, POLICY, 1e-2, 0.5,
                                  seed=99, path_index=0)
        for k in range(state.num_steps):
            nxt = tem_from(state, k, state.brownian[k], state.poisson[k])
            assert nxt == state.value(k + 1)


class TestSimulateTem:
    def test_zero_horizon_returns_history_only(self):
        state = simulate_tem_path(DEMO, POLICY, 1e-2, 0.0,
                                  seed=0, path_index=0)
        assert state.num_steps == 0
        assert state.values.size == state.tau_steps + 1
        assert np.all(state.values == 0.02)

    def test_deterministic_under_seed(self):
        a = simulate_tem_path(DEMO, POLICY, 1e-3, 1.0, seed=5, path_index=7)
        b = simulate_tem_path(DEMO, POLICY, 1e-3, 1.0, seed=5, path_index=7)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.regimes, b.regimes)

    def test_replay_from_noise_record(self):
        # the noise rows a path carries drive the engine to its values
        a = simulate_tem_path(DEMO, POLICY, 1e-3, 1.0, seed=5, path_index=7)
        grid = resolve_grid(DEMO.tau, 1e-3, 1.0)
        b = engine.simulate_tem_batch(DEMO, POLICY, grid, one_block(
            a.brownian[None, :], a.poisson[None, :], a.regimes[None, :]))
        assert b[0].tobytes() == a.values.tobytes()

    def test_pure_function_of_noise(self):
        grid = resolve_grid(DEMO.tau, 1e-2, 1.0)
        noise = one_path_noise(DEMO, grid, 1, 1)
        runs = [engine.simulate_tem_batch(DEMO, POLICY, grid, noise)
                for _ in range(3)]
        assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[1], runs[2])

    def test_noise_grid_mismatch_rejected(self):
        noise = engine.draw_batch_noise(DEMO, resolve_grid(DEMO.tau, 1e-2, 1.0), 0, [0])
        with pytest.raises(ValueError, match="noise covers 100 steps, the grid 1000"):
            engine.simulate_tem_batch(DEMO, POLICY, resolve_grid(DEMO.tau, 1e-3, 1.0),
                                      noise)

    def test_single_path_is_row_of_batch_draw(self):
        # the single path draws row p of the run's batch noise, bit for bit,
        # and regenerating it from (seed, path, delta) reproduces the values
        grid = resolve_grid(DEMO.tau, 0.021, 0.5)  # snaps to tau / 48
        rows = whole_noise(DEMO, grid, 31, np.arange(5))
        for idx in (0, 4):
            state = simulate_tem_path(DEMO, POLICY, 0.021, 0.5, seed=31, path_index=idx)
            for got, batch in zip((state.brownian, state.poisson, state.regimes), rows):
                assert got.tobytes() == batch[idx].tobytes()
            assert state.delta == grid.delta
            replay = simulate_tem_path(DEMO, POLICY, state.delta, 0.5,
                                       seed=31, path_index=idx)
            assert replay.values.tobytes() == state.values.tobytes()

    def test_zero_noise_equals_explicit_euler(self):
        spec = single_regime_ode_spec()
        policy = default_mu_for(spec, psi_exponent=2 / 3)
        k = 64
        grid = resolve_grid(spec.tau, 1.0 / 64, 1.0)
        values = engine.simulate_tem_batch(spec, policy, grid, one_block(
            np.zeros((1, k)), np.zeros((1, k), dtype=np.int64),
            np.ones((1, k + 1), dtype=np.int64)))[0]
        tables, band = CoefficientTables(spec), truncation_band(grid.delta, policy)
        x = np.array([1.0])
        for k_idx in range(64):
            x = x + tables.truncated(x, np.array([0]), *band)[0] * grid.delta
            assert values[grid.tau_steps + k_idx + 1] == x[0]

    def test_batch_equals_single_paths_bitwise(self):
        grid = resolve_grid(DEMO.tau, 1e-2, 0.5)
        noise = engine.draw_batch_noise(DEMO, grid, 99, np.arange(6))
        batch = engine.simulate_tem_batch(DEMO, POLICY, grid, noise)
        for idx in range(6):
            single = simulate_tem_path(DEMO, POLICY, 1e-2, 0.5,
                                       seed=99, path_index=idx)
            np.testing.assert_array_equal(batch[idx], single.values)

    def test_moments_finite_both_steps(self):
        # p = 4 moments of the full jump model stay finite and NaN-free
        for delta in (1e-2, 1e-3):
            grid = resolve_grid(DEMO.tau, delta, 2.0)
            noise = engine.draw_batch_noise(DEMO, grid, 17, np.arange(64))
            values = engine.simulate_tem_batch(DEMO, POLICY, grid, noise)
            assert np.isfinite(values).all()
            assert np.isfinite((np.abs(values) ** 4).mean())


class TestBem:
    def test_zero_drift_fixed_point(self):
        assert one_step(degenerate_spec(), 0.25) == 0.5

    def test_quadratic_drift_closed_form(self):
        # f(z) = -z^2: implicit equation z + delta z^2 = x has the root
        # (-1 + sqrt(1 + 4 delta x)) / (2 delta)
        spec = ModelSpec(
            regimes=(RegimeParams(0.0, 0.0, 0.0, 1.0, 0.0),),
            rho=2.0, theta=1.25, tau=1.0, jump_intensity=0.0,
            volatility=build_volatility("zero"),
            initial_segment=constant_segment(1.0),
            generator=GeneratorMatrix(np.zeros((1, 1))),
            initial_regime=1, include_inverse_drift=False,
        )
        expected = (-1.0 + math.sqrt(1.0 + 4.0 * 0.1 * 1.0)) / (2.0 * 0.1)
        assert one_step(spec, 0.1) == pytest.approx(expected, rel=1e-10)

    def test_linear_pull_matches_backward_euler(self):
        # with only alpha_0 active the update is z = x - delta alpha_0
        spec = ModelSpec(
            regimes=(RegimeParams(0.0, 0.3, 0.0, 0.0, 0.0),),
            rho=2.0, theta=1.25, tau=1.0, jump_intensity=0.0,
            volatility=build_volatility("zero"),
            initial_segment=constant_segment(1.0),
            generator=GeneratorMatrix(np.zeros((1, 1))),
            initial_regime=1, include_inverse_drift=False,
        )
        assert one_step(spec, 0.1) == pytest.approx(1.0 - 0.03, rel=1e-12)

    def test_positivity_with_inverse_drift(self):
        grid = resolve_grid(DEMO.tau, 1e-3, 1.0)
        values = engine.simulate_bem_batch(
            DEMO, grid, engine.draw_batch_noise(DEMO, grid, 21, [0]))
        assert np.all(values > 0.0)

    def test_batch_equals_single_bitwise(self):
        grid = resolve_grid(DEMO.tau, 1e-2, 0.5)
        noise = engine.draw_batch_noise(DEMO, grid, 4, np.arange(3))
        batch = engine.simulate_bem_batch(DEMO, grid, noise)
        for idx in range(3):
            single = engine.simulate_bem_batch(
                DEMO, grid, engine.draw_batch_noise(DEMO, grid, 4, [idx]))
            np.testing.assert_array_equal(batch[idx], single[0])

    def test_step_size_guard(self):
        spec = ModelSpec(
            regimes=(RegimeParams(0.1, 0.1, 4.0, 0.5, 0.0),),
            rho=2.0, theta=1.25, tau=1.0, jump_intensity=0.0,
            volatility=build_volatility("zero"),
            initial_segment=constant_segment(1.0),
            generator=GeneratorMatrix(np.zeros((1, 1))),
            initial_regime=1, include_inverse_drift=True,
        )
        # delta = tau/M snaps to 1/3 > 1/alpha_1 = 1/4
        grid = resolve_grid(spec.tau, 1 / 3, 1.0)
        with pytest.raises(SimulationError):
            engine.simulate_bem_batch(spec, grid,
                                      engine.draw_batch_noise(spec, grid, 0, [0]))

    def test_shared_noise_with_tem_small_gap(self):
        grid = resolve_grid(DEMO.tau, 1e-3, 1.0)
        noise = one_path_noise(DEMO, grid, 8, 0)
        tem = engine.simulate_tem_batch(DEMO, POLICY, grid, noise)
        bem = engine.simulate_bem_batch(DEMO, grid, noise)
        gap = np.abs(tem - bem).max()
        assert 0.0 < gap < 0.2


class TestNonFiniteDetection:
    def test_overflowing_jumps_reported_with_replay_info(self):
        spec, policy = overflow_model()
        grid = resolve_grid(1.0, 1e-2, 2.0)
        noise = engine.draw_batch_noise(spec, grid, 55, np.arange(2))
        with pytest.raises(SimulationError) as err:
            engine.simulate_tem_batch(spec, policy, grid, noise)
        assert err.value.seed == 55
        assert err.value.path_index in (0, 1)
        assert "replay" in str(err.value)

    @pytest.mark.parametrize("scheme", ["tem", "bem"])
    def test_replay_coordinates_only_with_a_seed(self, scheme):
        # a NaN Brownian increment in row 1: without a seed there is nothing
        # to replay, so neither the non-finite check nor the implicit solve's
        # bracket search may name coordinates
        grid = resolve_grid(DEMO.tau, 0.01, 0.1)
        brownian = np.zeros((2, grid.num_steps))
        brownian[1, 3] = math.nan
        poisson = np.zeros(brownian.shape, dtype=np.int64)
        regimes = np.ones((2, grid.num_steps + 1), dtype=np.int64)

        def run(rows, **ids):
            noise = replace(one_block(brownian[rows], poisson[rows], regimes[rows]),
                            **ids)
            with pytest.raises(SimulationError) as err:
                if scheme == "tem":
                    engine.simulate_tem_batch(DEMO, POLICY, grid, noise)
                else:
                    engine.simulate_bem_batch(DEMO, grid, noise)
            return err.value

        unseeded = run(slice(None))
        assert unseeded.path_index == 1
        assert "of path 1" in str(unseeded) and "replay:" not in str(unseeded)
        seeded = run(slice(1, 2), seed=3, path_indices=[5], delta=grid.delta)
        assert (seeded.seed, seeded.path_index) == (3, 5)
        assert str(seeded).endswith(" of path 5 (replay: seed=3, path=5, delta=0.01)")

    def test_replayed_record_names_its_seed(self):
        # the coordinates a batch failure names regenerate the failing
        # path, which fails at the same node with the same message
        spec, policy = overflow_model()
        grid = resolve_grid(1.0, 1e-2, 2.0)
        indices = np.arange(3, 6)
        with pytest.raises(SimulationError) as batch_err:
            engine.simulate_tem_batch(spec, policy, grid,
                                      engine.draw_batch_noise(spec, grid, 55, indices))
        seed, path, delta = re.search(r"\(replay: seed=(\d+), path=(\d+), delta=([^)]+)\)",
                                      str(batch_err.value)).groups()
        assert (int(seed), int(path)) == (55, 3)
        with pytest.raises(SimulationError) as err:
            simulate_tem_path(spec, policy, float(delta), 2.0,
                              seed=int(seed), path_index=int(path))
        assert (err.value.seed, err.value.path_index, err.value.step) == \
            (55, 3, batch_err.value.step)
        assert str(err.value) == str(batch_err.value)

    def test_coarse_level_failure_names_its_draw(self):
        # a converge level runs on the reference noise coarsened by its
        # factor: its error names the step the noise was drawn on and the
        # factor, and drawing at that step and coarsening by that factor
        # fails at the same node again
        spec, policy = overflow_model()
        assert_coarse_failure_names_its_draw(
            spec, partial(engine.simulate_tem_batch, spec, policy))

    def test_bem_coarse_failure_names_its_draw(self):
        # BEM on coarsened noise fails in its implicit solve, whose bracket
        # error names the same coordinates as the non-finite check
        spec, _ = overflow_model()
        err = assert_coarse_failure_names_its_draw(
            spec, partial(engine.simulate_bem_batch, spec))
        assert str(err).startswith("implicit solve found no upper bracket end")


def assert_coarse_failure_names_its_draw(spec, simulate):
    """``simulate(grid, noise)`` on the overflow model's noise drawn at
    2^-10 and coarsened by 8 fails naming that draw, and fails at the same
    step again on the noise its coordinates draw; returns the error."""
    ref, [(coarse, factor)] = _coupled_grids(spec, [2**-7], 2**-10, 2.0)
    drawn = engine.draw_batch_noise(spec, ref, 55, np.arange(3))
    # the level source estimators._chunk builds
    level = replace(drawn, shape=(3, coarse.num_steps), factor=factor,
                    blocks=[engine.coarsen_batch(*b, factor) for b in drawn])
    with pytest.raises(SimulationError) as err:
        simulate(coarse, level)
    found = re.search(r" of path (\d+) \(replay: seed=(\d+), path=(\d+), "
                      r"delta=([^,]+), factor=(\d+)\)$", str(err.value))
    assert found, str(err.value)
    seed, path, replayed_factor = (int(found.group(i)) for i in (2, 3, 5))
    assert (seed, found.group(4), replayed_factor) == (55, f"{ref.delta:g}", 8)
    assert (err.value.seed, err.value.path_index, err.value.delta,
            err.value.factor) == (55, path, ref.delta, 8)

    again = engine.draw_batch_noise(
        spec, resolve_grid(spec.tau, float(found.group(4)), 2.0), seed, [path])
    blocks = [engine.coarsen_batch(*b, replayed_factor) for b in again]
    with pytest.raises(SimulationError) as replayed:
        simulate(coarse, engine.NoiseBlocks((1, coarse.num_steps), blocks))
    assert replayed.value.step == err.value.step
    return err.value
