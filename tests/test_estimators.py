import dataclasses
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from temsim import engine, estimators
from temsim.config import two_regime_demo
from temsim.engine import SimulationError
from temsim.estimators import (
    ArgumentError,
    ConvergenceReport,
    EstimatorResult,
    barrier_option_price,
    bond_price,
    moment_curves,
    scheme_comparison,
    strong_error,
)
from temsim.model import (
    ModelSpec,
    RegimeParams,
    build_volatility,
    constant_segment,
)
from temsim.regime import BLOCK_STEPS, GeneratorMatrix
from temsim.truncation import default_mu_for

DEMO = two_regime_demo()
POLICY = default_mu_for(DEMO, psi_exponent=2 / 3)


def constant_path_spec(level=0.02):
    """All channels dead: every path is identically the initial level."""
    return ModelSpec(
        regimes=(RegimeParams(0.0, 0.0, 0.0, 0.0, 0.0),),
        rho=2.0, theta=1.25, tau=1.0, jump_intensity=0.0,
        volatility=build_volatility("zero"),
        initial_segment=constant_segment(level),
        generator=GeneratorMatrix(np.zeros((1, 1))),
        initial_regime=1, include_inverse_drift=False,
    )


def ode_spec(initial=1.0):
    return ModelSpec(
        regimes=(RegimeParams(0.3, 0.2, 0.1, 0.5, 0.0),),
        rho=2.0, theta=1.25, tau=1.0, jump_intensity=0.0,
        volatility=build_volatility("zero"),
        initial_segment=constant_segment(initial),
        generator=GeneratorMatrix(np.zeros((1, 1))),
        initial_regime=1, include_inverse_drift=True,
    )


CONST_SPEC = constant_path_spec()
CONST_POLICY = default_mu_for(CONST_SPEC, psi_exponent=2 / 3,
                              mu_preset="power_fit")


@pytest.mark.parametrize("estimate", [
    lambda n: bond_price(DEMO, POLICY, 1e-2, 0.5, n, 0),
    lambda n: barrier_option_price(DEMO, POLICY, 1e-2, 0.5, 0.0, 2.0, n, 0),
    lambda n: scheme_comparison(DEMO, POLICY, 1e-2, 0.5, n, 0),
    lambda n: strong_error(DEMO, POLICY, [2**-5], 2**-7, 0.5, 2.0, n, 0),
    lambda n: moment_curves(DEMO, POLICY, [2**-5], 0.5, 2.0, n, 0),
], ids=["bond", "barrier", "comparison", "strong_error", "moments"])
@pytest.mark.parametrize("num_paths", [0, -3])
def test_entry_points_reject_empty_path_counts(estimate, num_paths):
    with pytest.raises(ValueError, match="num_paths"):
        estimate(num_paths)


def test_strong_error_needs_two_paths():
    with pytest.raises(ValueError, match="num_paths must be at least 2"):
        strong_error(DEMO, POLICY, [2**-5], 2**-7, 0.5, 2.0, 1, 0)


class TestEstimatorResult:
    def test_interval_definition(self):
        result = EstimatorResult.from_samples(np.array([1.0, 2.0, 3.0]))
        assert result.estimate == pytest.approx(2.0)
        se = np.std([1.0, 2.0, 3.0], ddof=1) / math.sqrt(3)
        assert result.std_error == pytest.approx(se)
        assert result.confidence_95[0] == pytest.approx(2.0 - 1.96 * se)
        assert result.confidence_95[1] == pytest.approx(2.0 + 1.96 * se)


class TestBondPrice:
    def test_constant_path_closed_form(self):
        result = bond_price(CONST_SPEC, CONST_POLICY, 1e-3, 1.0, 32, 0)
        assert result.estimate == pytest.approx(math.exp(-0.02), rel=1e-13)
        assert result.std_error == 0.0

    def test_deterministic_ode_against_quadrature(self):
        # zero volatility: the price is exp(-integral of the Euler path);
        # reference integral from a fine fourth-order solution
        spec = ode_spec()
        policy = default_mu_for(spec, psi_exponent=2 / 3)
        result = bond_price(spec, policy, 1e-4, 1.0, 8, 0)

        def f(x):
            return 0.3 / x - 0.2 + 0.1 * x - 0.5 * x * x

        n = 2**14
        dt = 1.0 / n
        xs = np.empty(n + 1)
        xs[0] = 1.0
        x = 1.0
        for _ in range(n):
            k1 = f(x); k2 = f(x + 0.5 * dt * k1)
            k3 = f(x + 0.5 * dt * k2); k4 = f(x + dt * k3)
            x += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
            xs[_ + 1] = x
        integral = np.trapezoid(xs, dx=dt)
        assert result.estimate == pytest.approx(math.exp(-integral), abs=1e-4)

    def test_bond_in_unit_interval_for_positive_paths(self):
        result = bond_price(DEMO, POLICY, 1e-2, 1.0, 64, 3)
        assert 0.0 < result.estimate <= 1.0

    def test_bitwise_reproducible_and_thread_invariant(self):
        a = bond_price(DEMO, POLICY, 1e-2, 1.0, 300, 11, threads=1)
        b = bond_price(DEMO, POLICY, 1e-2, 1.0, 300, 11, threads=2)
        assert a == b

    def test_std_error_scaling(self):
        small = bond_price(DEMO, POLICY, 1e-2, 1.0, 600, 5)
        large = bond_price(DEMO, POLICY, 1e-2, 1.0, 1200, 5)
        ratio = small.std_error / large.std_error
        assert math.sqrt(2.0) * 0.9 <= ratio <= math.sqrt(2.0) * 1.1

    def test_two_step_sizes_statistically_consistent(self):
        # same seed set at two step sizes: estimates within each other's
        # three-standard-error bands. Uses an in-band start: from 0.02 the
        # sub-band rise field differs across steps, a systematic transient
        # bias that dwarfs the Monte Carlo error at these step sizes.
        spec = dataclasses.replace(two_regime_demo(), initial_segment=constant_segment(1.0))
        policy = default_mu_for(spec, psi_exponent=2 / 3)
        coarse = bond_price(spec, policy, 1e-2, 2.0, 500, 14)
        fine = bond_price(spec, policy, 1e-3, 2.0, 500, 14)
        gap = abs(coarse.estimate - fine.estimate)
        assert gap <= 3.0 * max(coarse.std_error, fine.std_error)


class TestBarrierOption:
    def test_immediate_knockout_prices_zero(self):
        result = barrier_option_price(DEMO, POLICY, 1e-2, 1.0, 0.01, 0.02, 64, 0)
        assert result.estimate == 0.0
        assert result.std_error == 0.0

    def test_constant_path_payoff(self):
        spec = constant_path_spec(0.05)
        policy = default_mu_for(spec, psi_exponent=2 / 3, mu_preset="power_fit")
        result = barrier_option_price(spec, policy, 1e-2, 1.0, 0.03, 1.0, 16, 0)
        assert result.estimate == pytest.approx(0.02, abs=1e-15)

    def test_unbounded_barrier_zero_strike_is_terminal_mean(self):
        from temsim import engine
        result = barrier_option_price(DEMO, POLICY, 1e-2, 1.0, 0.0, np.inf, 200, 9)
        grid = engine.resolve_grid(DEMO.tau, 1e-2, 1.0)
        chunks = []
        for lo in range(0, 200, 128):
            idx = np.arange(lo, min(lo + 128, 200))
            noise = engine.draw_batch_noise(DEMO, grid, 9, idx)
            values = engine.simulate_tem_batch(DEMO, POLICY, grid, noise)
            chunks.append(values[:, -1])
        terminal = np.concatenate(chunks)
        assert result.estimate == terminal.mean()

    def test_payoffs_nonnegative(self):
        result = barrier_option_price(DEMO, POLICY, 1e-2, 1.0, 0.5, 2.0, 128, 21)
        assert result.estimate >= 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            barrier_option_price(DEMO, POLICY, 1e-2, 1.0, -0.1, 1.0, 8, 0)
        with pytest.raises(ValueError):
            barrier_option_price(DEMO, POLICY, 1e-2, 1.0, 0.1, 0.0, 8, 0)


NON_FINITE_INPUTS = {
    "strike": lambda bad: barrier_option_price(DEMO, POLICY, 1e-2, 1.0, bad, 1.0, 8, 0),
    "barrier": lambda bad: barrier_option_price(DEMO, POLICY, 1e-2, 1.0, 0.1, bad, 8, 0),
    "p": lambda bad: strong_error(DEMO, POLICY, [2**-5], 2**-7, 1.0, bad, 8, 0),
    "moments-p": lambda bad: moment_curves(DEMO, POLICY, [2**-5], 1.0, bad, 8, 0),
}


@pytest.mark.parametrize("case,bad", [
    (case, bad) for case in NON_FINITE_INPUTS for bad in (math.nan, math.inf, -math.inf)
    # a barrier at +inf never knocks out: a plain call, priced above
    if (case, bad) != ("barrier", math.inf)
])
def test_non_finite_input_rejected_before_any_path(case, bad, monkeypatch):
    """A NaN strike or barrier priced to NaN, or to 0.0 with SE 0.0, and a
    NaN p gave NaN errors: each is an error naming the input, raised before
    any path is drawn."""
    def no_paths(*_args):
        raise AssertionError("paths simulated before the inputs were checked")

    monkeypatch.setattr(estimators, "_run_chunks", no_paths)
    name = case.rsplit("-", 1)[-1]
    with pytest.raises(ValueError, match=f"^{name} must be "):
        NON_FINITE_INPUTS[case](bad)


class TestStrongError:
    @pytest.mark.parametrize("ladder", [[2**-6], [2**-4, 2**-6]])
    def test_step_on_the_reference_grid_rejected(self, ladder, monkeypatch):
        # a level on the reference grid is compared with itself: its error
        # read 0.0 and the fitted order NaN, and the run succeeded
        def no_paths(*_args):
            raise AssertionError("paths simulated before the ladder was checked")

        monkeypatch.setattr(estimators, "_run_chunks", no_paths)
        with pytest.raises(ValueError, match="^step 0.015625 snaps to the reference "
                                             "step 0.015625: its error would read 0$"):
            strong_error(DEMO, POLICY, ladder, 2**-6, 1.0, 2.0, 16, 0)

    @pytest.mark.parametrize("ladder, horizon, match", [
        # the empty ladder ran every reference path, then failed in np.stack
        ([], 1.0, "^no step to compare: the step list is empty$"),
        # horizon 0 read error 0.0 on every level and fitted order NaN
        ([0.0078125, 0.00390625], 0.0,
         "^horizon 0 leaves the reference grid no step: every error would read 0$"),
    ])
    def test_nothing_to_measure_rejected(self, ladder, horizon, match, monkeypatch):
        def no_paths(*_args):
            raise AssertionError("paths simulated before the run was checked")

        monkeypatch.setattr(estimators, "_run_chunks", no_paths)
        with pytest.raises(ValueError, match=match):
            strong_error(NO_INVERSE, POLICY, ladder, 0.0009765625, horizon, 2.0, 8, 0)

    def test_underflowed_power_rejected(self):
        # the sups are near 0.08, so their 400th powers underflowed to 0: it
        # printed error 0.0 on both levels and fitted order NaN, exit 0
        policy = default_mu_for(NO_INVERSE, psi_exponent=0.25)
        ladder, reference = [0.0078125, 0.00390625], 0.0009765625
        report = strong_error(NO_INVERSE, policy, ladder, reference, 0.5, 2.0, 16, 3)
        assert report.errors == pytest.approx([0.0833, 0.0501], abs=1e-4)
        with pytest.raises(SimulationError, match=r"^p = 400 takes the mean p-th power at "
                                                  r"step 0.0078125 to 0 \(largest sup "
                                                  r"error 0.0863746\)$"):
            strong_error(NO_INVERSE, policy, ladder, reference, 0.5, 400.0, 16, 3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_power_rejected(self, monkeypatch):
        # sups of 10 at p = 400 printed error inf; the refusal names the
        # overflow, so numpy's overflow warning is not printed above it
        monkeypatch.setattr(estimators, "_samples", lambda *_args: (np.full(4, 10.0),))
        with pytest.raises(SimulationError, match=r"to inf \(largest sup error 10\)$"):
            strong_error(DEMO, POLICY, [2**-5], 2**-7, 0.5, 400.0, 4, 0)

    def test_zero_sups_at_a_large_power_read_zero(self):
        # a constant path's sups are all 0: its error is 0 at any p
        report = strong_error(CONST_SPEC, CONST_POLICY, [2**-3, 2**-4], 2**-6, 0.5,
                              400.0, 4, 0)
        assert report.errors.tolist() == [0.0, 0.0]

    def test_zero_noise_euler_order_one(self):
        spec = ode_spec()
        policy = default_mu_for(spec, psi_exponent=2 / 3)
        ladder = [2**-4, 2**-5, 2**-6, 2**-7]
        report = strong_error(spec, policy, ladder, 2**-10, 1.0, 2.0, 4, 0)
        assert report.fitted_order == pytest.approx(1.0, abs=0.1)

    def test_sorted_decreasing_and_lengths(self):
        report = strong_error(DEMO, POLICY, [2**-7, 2**-5, 2**-6], 2**-9, 1.0,
                              2.0, 8, 1)
        assert np.all(np.diff(report.step_sizes) < 0)
        assert report.errors.size == 3

    def test_monotone_within_bands(self):
        report = strong_error(DEMO, POLICY, [2**-5, 2**-6, 2**-7, 2**-8],
                              2**-11, 1.0, 2.0, 128, 4)
        for j in range(len(report.errors) - 1):
            assert report.errors[j] + 2 * report.std_errors[j] >= \
                report.errors[j + 1] - 2 * report.std_errors[j + 1]

    def test_non_dyadic_ladder_rejected(self):
        with pytest.raises(ValueError, match="0.3"):
            strong_error(DEMO, POLICY, [0.3], 0.125, 1.0, 2.0, 8, 0)

    def test_misaligned_reference_rejected(self):
        with pytest.raises(ValueError):
            strong_error(DEMO, POLICY, [1 / 3], 1 / 9, 1.0, 2.0, 8, 0)

    def test_nan_paths_abort_with_replay_record(self):
        spec = ModelSpec(
            regimes=(RegimeParams(0.0, 0.0, 0.0, 0.0, 2.0),),
            rho=2.0, theta=1.25, tau=1.0, jump_intensity=3000.0,
            volatility=build_volatility("zero"),
            initial_segment=constant_segment(1.0),
            generator=GeneratorMatrix(np.zeros((1, 1))),
            initial_regime=1, include_inverse_drift=False,
        )
        policy = default_mu_for(spec, psi_exponent=2 / 3, mu_preset="power_fit")
        with pytest.raises(SimulationError, match="replay"):
            strong_error(spec, policy, [2**-4], 2**-8, 2.0, 2.0, 8, 13)

    def test_report_type_invariants(self):
        with pytest.raises(ValueError):
            ConvergenceReport(step_sizes=np.array([0.1, 0.2]),
                              errors=np.array([1.0, 2.0]),
                              std_errors=np.array([0.0, 0.0]),
                              fitted_order=0.5, p=2.0, num_paths=1,
                              reference_delta=0.01)


class TestSchemeComparison:
    def test_zero_drift_schemes_identical(self):
        # both schemes reduce to the same explicit recursion when the drift
        # vanishes and paths stay inside the truncation band (mild jumps)
        spec = ModelSpec(
            regimes=(RegimeParams(0.0, 0.0, 0.0, 0.0, 0.1),
                     RegimeParams(0.0, 0.0, 0.0, 0.0, 0.2)),
            rho=2.0, theta=1.25, tau=1.0, jump_intensity=1.0,
            volatility=build_volatility("sigmoid_s5"),
            initial_segment=constant_segment(0.5),
            generator=GeneratorMatrix(np.array([[-2.0, 2.0], [1.0, -1.0]])),
            initial_regime=1, include_inverse_drift=False,
        )
        policy = default_mu_for(spec, psi_exponent=2 / 3, mu_preset="power_fit")
        result = scheme_comparison(spec, policy, 1e-2, 1.0, 32, 0)
        assert result.mean == 0.0
        assert result.max == 0.0

    def test_deterministic_report(self):
        a = scheme_comparison(DEMO, POLICY, 1e-2, 0.5, 64, 3)
        b = scheme_comparison(DEMO, POLICY, 1e-2, 0.5, 64, 3)
        assert a == b

    def test_distance_shrinks_with_step(self):
        spec = dataclasses.replace(two_regime_demo(), include_inverse_drift=False)
        policy = default_mu_for(spec, psi_exponent=0.25)
        coarse = scheme_comparison(spec, policy, 1e-2, 1.0, 96, 5)
        fine = scheme_comparison(spec, policy, 2.5e-3, 1.0, 96, 5)
        assert fine.mean < coarse.mean

    @pytest.mark.parametrize("horizon", [0.0, 0.004])
    def test_horizon_without_a_step_rejected(self, horizon, monkeypatch):
        # horizon 0, and 0.004 (K = 0 at delta 1e-2), read mean, max and
        # every quantile 0.0 with std error 0.0
        def no_paths(*_args):
            raise AssertionError("paths simulated before the horizon was checked")

        monkeypatch.setattr(estimators, "_run_chunks", no_paths)
        with pytest.raises(ArgumentError, match=f"^horizon {horizon:g} leaves the grid no "
                                                "step: every distance would read 0$") as info:
            scheme_comparison(DEMO, POLICY, 1e-2, horizon, 8, 0)
        assert info.value.argument == "horizon"

    def test_quantiles_ordered(self):
        result = scheme_comparison(DEMO, POLICY, 1e-2, 0.5, 64, 3)
        assert result.quantiles[0.1] <= result.quantiles[0.5] <= result.quantiles[0.9]
        assert result.quantiles[0.9] <= result.max


class TestMomentCurves:
    def test_coupled_curves_cover_each_grid(self):
        curves = moment_curves(DEMO, POLICY, [1e-2, 1e-3], 1.0, 4.0, 64, 2)
        assert len(curves) == 2
        for delta, curve in curves.items():
            assert curve.size == round(1.0 / delta) + 1
            assert np.isfinite(curve).all()

    def test_matches_direct_average(self):
        from temsim import engine
        curves = moment_curves(DEMO, POLICY, [1e-2], 0.5, 4.0, 40, 8)
        grid = engine.resolve_grid(DEMO.tau, 1e-2, 0.5)
        noise = engine.draw_batch_noise(DEMO, grid, 8, np.arange(40))
        values = engine.simulate_tem_batch(DEMO, POLICY, grid, noise)
        direct = (np.abs(values[:, grid.tau_steps:]) ** 4).mean(axis=0)
        assert np.array_equal(curves[grid.delta], direct)

    def test_steps_on_one_grid_rejected(self):
        # 1/0.0078 rounds to 128 steps per delay, the grid of 0.0078125
        with pytest.raises(ValueError, match=r"steps 0.0078 and 0.0078125 both snap "
                                             r"to tau/128 = 0.0078125"):
            moment_curves(DEMO, POLICY, [0.0078, 0.0078125], 0.5, 2.0, 4, 0)

    def test_empty_step_list_rejected(self):
        # min() of the empty list failed first, with no word of the steps
        with pytest.raises(ValueError, match="the step list is empty"):
            moment_curves(DEMO, POLICY, [], 0.5, 2.0, 4, 0)


NO_INVERSE = dataclasses.replace(two_regime_demo(), include_inverse_drift=False)
# a pool worker unpickles its array form, a bound method
CONSTANT_VOL = dataclasses.replace(DEMO, volatility=build_volatility("constant"))
# about 120 jumps per step of 1e-2, tiny jumps: the kept Poisson counts of a
# block at 1e-2 fall on both sides of 127 (int8 and int16 blocks), and at
# 2e-2 near 240 (int16)
JUMPY = dataclasses.replace(
    DEMO, jump_intensity=12000.0,
    regimes=tuple(dataclasses.replace(r, alpha_3=1e-6) for r in DEMO.regimes))


def strong_error_at(spec, policy, delta, horizon, num_paths, seed, threads=1):
    """Two coarse levels of a reference a quarter of ``delta``."""
    return strong_error(spec, policy, [2 * delta, delta], delta / 4, horizon, 2.0,
                        num_paths, seed, threads)


def barrier_at(spec, policy, delta, horizon, num_paths, seed, threads=1):
    # a barrier some paths reach: 0.24 against the unbounded call's 0.33
    return barrier_option_price(spec, policy, delta, horizon, 0.01, 0.5, num_paths,
                                seed, threads)


def moment_curves_at(spec, policy, delta, horizon, num_paths, seed, threads=1):
    return moment_curves(spec, policy, [2 * delta, delta], horizon, 3.0,
                         num_paths, seed, threads)


def comparable(result):
    """``result`` with its arrays as bytes, so ``==`` compares them bit for bit."""
    if isinstance(result, dict):
        return {key: value.tobytes() for key, value in result.items()}
    if isinstance(result, ConvergenceReport):
        return {field.name: np.asarray(getattr(result, field.name)).tobytes()
                for field in dataclasses.fields(result)}
    return result


@pytest.mark.parametrize("estimate,spec,psi_exponent", [
    (bond_price, DEMO, 2 / 3),
    (barrier_at, DEMO, 2 / 3),
    (scheme_comparison, DEMO, 2 / 3),
    (scheme_comparison, NO_INVERSE, 0.25),
    (strong_error_at, DEMO, 2 / 3),
    (moment_curves_at, DEMO, 2 / 3),
    (scheme_comparison, CONSTANT_VOL, 2 / 3),
    (scheme_comparison, JUMPY, 2 / 3),
    (strong_error_at, JUMPY, 2 / 3),
], ids=["bond", "barrier", "compare", "compare-no-inverse", "strong-error", "moments",
        "compare-constant-volatility", "compare-jumpy", "strong-error-jumpy"])
def test_results_do_not_depend_on_chunk_size(estimate, spec, psi_exponent, monkeypatch):
    """A path's result must not depend on the batch it runs in, although the
    implicit solve iterates until every row of its batch has settled, and
    every reduction runs over per-path rows in path order. Nor may it depend
    on the block its noise is drawn in (rounded up to whole coarse steps)."""
    policy = default_mu_for(spec, psi_exponent=psi_exponent)
    results = []
    for size, draw_steps in ((1, 1), (7, 7), (128, 1000), (1000, 48)):
        monkeypatch.setattr(estimators, "CHUNK_SIZE", size)
        monkeypatch.setattr(engine, "DRAW_STEPS", draw_steps)
        results.append(comparable(estimate(spec, policy, 1e-2, 0.5, 130, 21)))
    monkeypatch.undo()
    results.append(comparable(estimate(spec, policy, 1e-2, 0.5, 130, 21, threads=2)))
    assert all(result == results[0] for result in results[1:])


@pytest.mark.parametrize("values, dtype", [
    ([0, 127], np.int8), ([3, 128], np.int16),
    ([32767], np.int16), ([1, 32768], np.int32),
    ([2**31 - 1], np.int32), ([0, 2**31], np.int64),
    ([], np.int8),
])
def test_kept_counts_narrow_exactly(values, dtype):
    # a kept block of counts or regimes is stored in the narrowest signed
    # type that holds its maximum, and widened back to the int64 it was drawn as
    counts = np.array([values, values[::-1]], dtype=np.int64)
    narrow = estimators._narrow(counts)
    assert narrow.dtype == dtype
    assert narrow.tolist() == counts.tolist()
    brownian = np.ones(counts.shape)
    ((b, n, r),) = estimators._widened([(brownian, narrow, narrow)])
    assert b is brownian
    for wide in (n, r):
        assert wide.dtype == np.int64 and np.array_equal(wide, counts)


@pytest.mark.parametrize("estimate", [scheme_comparison, strong_error_at],
                         ids=["compare", "strong-error"])
def test_narrow_kept_noise_changes_no_result(estimate, monkeypatch):
    """Jump-heavy runs keep Poisson blocks on both sides of 127, and give
    the bits they give with their kept noise left int64."""
    policy = default_mu_for(JUMPY, psi_exponent=2 / 3)
    monkeypatch.setattr(estimators, "CHUNK_SIZE", 7)
    monkeypatch.setattr(engine, "DRAW_STEPS", 7)
    narrow, maxima = estimators._narrow, []

    def spy(counts):
        maxima.append(int(counts.max(initial=0)))
        return narrow(counts)

    monkeypatch.setattr(estimators, "_narrow", spy)
    narrowed = comparable(estimate(JUMPY, policy, 1e-2, 0.5, 130, 21))
    # a regime is 1 or 2: a larger maximum is a block of Poisson counts
    assert min(top for top in maxima if top > 2) <= 127 < max(maxima)
    monkeypatch.setattr(estimators, "_narrow", lambda counts: counts)
    assert comparable(estimate(JUMPY, policy, 1e-2, 0.5, 130, 21)) == narrowed


def test_converge_chunk_memory():
    """The traced peak of a strong-error run stays within its values, its
    kept noise with narrow counts and regimes, one draw block and a slack:
    17.8 MB. It peaks at 12.4 MB; with a kept block held until its level's
    run ended, the chain's uniforms drawn with the increments, a
    coefficient row per step and the volatility's temporaries it peaked at
    14.3 MB, with a level's values held through the next level's run too
    at 15.9 MB, and with its counts and regimes kept int64 too at 21.4 MB."""
    paths, ladder, reference, horizon = 64, [2 / 1024, 4 / 1024], 1 / 1024, 8.0
    policy = default_mu_for(NO_INVERSE, psi_exponent=0.25)
    grid = engine.resolve_grid(NO_INVERSE.tau, reference, horizon)
    m, k, draw = grid.tau_steps, grid.num_steps, engine.DRAW_STEPS
    factors = [round(delta / grid.delta) for delta in ladder]
    values = paths * (m + k + 1) * 8
    # per level: float64 Brownian sums, int8 counts and int8 regimes, which
    # carry one more node per draw block
    kept = sum(paths * (k // f * 10 + k // draw) for f in factors)
    # a draw block: Brownian increments, chain uniforms, counts, regimes
    block = 4 * paths * draw * 8
    # slack: a coarse run's values, its difference and the march's scratch
    slack = values * 3 // 2
    tracemalloc.start()
    try:
        strong_error(NO_INVERSE, policy, ladder, reference, horizon, 2.0, paths, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= values + kept + block + slack


def test_bond_chunk_memory():
    """The traced peak of a bond chunk (the shipped demo: P = 128, M = 1000,
    K = 2000) stays within its values, three (P, D) draw arrays, eight
    (P, B) arrays of march scratch and a 1 MB slack: 9.3 MB. It peaks at
    8.8 MB. Before the chain's uniforms were freed ahead of the increments,
    the coefficient rows made once per regime change and the volatility
    taken in two scratch arrays, it peaked at 11.4 MB."""
    paths, grid = estimators.CHUNK_SIZE, engine.resolve_grid(DEMO.tau, 1e-3, 2.0)
    m, k = grid.tau_steps, grid.num_steps
    chunk = partial(estimators._chunk, DEMO, POLICY, grid, 1,
                    partial(estimators._discount, grid.delta), (), (0, paths))
    chunk()  # first-call allocations that stay
    tracemalloc.start()
    try:
        chunk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    values = paths * (m + k + 1) * 8
    # Brownian increments, Poisson counts and regimes; the chain's
    # uniforms are freed before the increments are drawn
    draw = 3 * paths * engine.DRAW_STEPS * 8
    # the noise copies, the new states, the volatility's two scratch
    # arrays, its transposed copy and the regime indices
    march = 8 * paths * BLOCK_STEPS * 8
    assert peak <= values + draw + march + 1_000_000


@pytest.mark.parametrize("estimator", ["strong_error", "moment_curves"])
def test_one_run_of_values_held_at_a_time(monkeypatch, estimator):
    """When the last level's march starts, the level before it has been
    reduced and its (P, (M+K)/f + 1) values dropped: traced memory then
    exceeds that at the start of the level's own march by its reduction
    only (a sup per path, or a moment per path and node)."""
    paths, ladder, reference, horizon = 64, [2 / 1024, 4 / 1024], 1 / 1024, 8.0
    policy = default_mu_for(NO_INVERSE, psi_exponent=0.25)
    grid = engine.resolve_grid(NO_INVERSE.tau, reference, horizon)
    # strong_error runs its coarse levels from the coarsest (factor 4), so
    # the values dropped are factor 4's; moment_curves runs them as given
    # (factor 2 first), after the reference step's moments, which it takes
    # from the TEM run's own nodes
    first = 4 if estimator == "strong_error" else 2
    values = paths * ((grid.tau_steps + grid.num_steps) // first + 1) * 8
    reduced = paths * 8 * (1 if estimator == "strong_error"
                           else grid.num_steps // first + 1)
    at_entry = []
    march = engine.simulate_tem_batch

    def traced(*args):
        at_entry.append(tracemalloc.get_traced_memory()[0])
        return march(*args)

    monkeypatch.setattr(engine, "simulate_tem_batch", traced)
    tracemalloc.start()
    try:
        if estimator == "strong_error":
            strong_error(NO_INVERSE, policy, ladder, reference, horizon, 2.0, paths, 3)
        else:
            moment_curves(NO_INVERSE, policy, [reference, *ladder], horizon, 2.0, paths, 3)
    finally:
        tracemalloc.stop()
    # the reference march, then one per coarse level
    assert len(at_entry) == 3
    assert at_entry[2] - at_entry[1] < reduced + values // 2
