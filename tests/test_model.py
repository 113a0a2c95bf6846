import dataclasses
import math

import numpy as np
import pytest

from temsim.config import two_regime_demo
from temsim.model import (
    CoefficientTables,
    ModelSpec,
    RegimeParams,
    VolatilitySpec,
    _growth_functional,
    build_volatility,
    constant_segment,
    khasminskii_check,
    sigmoid_volatility,
    sigmoid_volatility_vec,
    validate_assumptions,
)
from temsim.regime import GeneratorMatrix

DEMO = two_regime_demo()


# the coefficients at one point: the kernel on a width-1 array, regime i
# 1-based
def drift(x, i, spec=DEMO):
    return float(CoefficientTables(spec).drift(np.array([x]), np.array([i - 1]))[0])


def diffusion(x, spec=DEMO):
    return float(CoefficientTables(spec).diffusion(np.array([x]))[0])


def jump(x, i, spec=DEMO):
    return float(CoefficientTables(spec).jump(np.array([x]), np.array([i - 1]))[0])


def make_spec(**overrides):
    base = dict(
        regimes=(RegimeParams(0.3, 0.2, 0.1, 0.5, 1.0),
                 RegimeParams(0.2, 0.3, 0.2, 0.6, 2.0)),
        rho=2.0,
        theta=1.25,
        tau=1.0,
        jump_intensity=1.0,
        volatility=build_volatility("sigmoid_s5"),
        initial_segment=constant_segment(0.02),
        generator=GeneratorMatrix(np.array([[-2.0, 2.0], [1.0, -1.0]])),
        initial_regime=1,
        include_inverse_drift=True,
    )
    base.update(overrides)
    return ModelSpec(**base)


class TestDrift:
    def test_demo_regime1_at_one(self):
        # 0.3 - 0.2 + 0.1 - 0.5
        assert drift(1.0, 1, DEMO) == pytest.approx(-0.3, abs=1e-15)

    def test_demo_regime1_small_argument(self):
        expected = 0.3 / 0.02 - 0.2 + 0.1 * 0.02 - 0.5 * 0.02**2
        assert drift(0.02, 1, DEMO) == pytest.approx(expected, rel=1e-14)
        assert drift(0.02, 1, DEMO) == pytest.approx(14.8018, rel=1e-10)

    def test_symmetric_cancellation(self):
        spec = make_spec(regimes=(RegimeParams(0.7, 0.7, 0.7, 0.7, 0.0),),
                         generator=GeneratorMatrix(np.array([[0.0]])))
        assert drift(1.0, 1, spec) == pytest.approx(0.0, abs=1e-15)

    def test_zero_without_inverse(self):
        spec = dataclasses.replace(two_regime_demo(), include_inverse_drift=False)
        assert drift(0.0, 1, spec) == pytest.approx(-0.2)

    def test_asymptotic_signs_every_regime(self):
        for i in (1, 2):
            assert drift(1e6, i, DEMO) < 0.0
            assert drift(1e-6, i, DEMO) > 0.0


class TestDiffusionAndJump:
    def test_unit(self):
        assert diffusion(1.0, DEMO) == 1.0

    def test_small_argument(self):
        expected = math.exp(1.25 * math.log(0.02))
        assert diffusion(0.02, DEMO) == pytest.approx(expected, rel=1e-13)

    def test_negative_branch_vanishes(self):
        assert diffusion(-0.5, DEMO) == 0.0
        assert jump(-1.0, 1, DEMO) == 0.0
        for x in (-10.0, -1e-9, -1e6):
            assert diffusion(x, DEMO) == 0.0
            assert jump(x, 2, DEMO) == 0.0

    def test_jump_scale_regime2(self):
        assert jump(0.5, 2, DEMO) == pytest.approx(1.0, abs=1e-15)

    def test_jump_at_zero(self):
        assert jump(0.0, 1, DEMO) == 0.0


class TestSigmoidVolatility:
    def test_at_zero(self):
        assert sigmoid_volatility(0.0, 1) == pytest.approx(0.25, abs=1e-15)
        assert sigmoid_volatility(0.0, 2) == pytest.approx(0.125, abs=1e-15)

    def test_negative_levels(self):
        assert sigmoid_volatility(-3.0, 2) == 0.125
        assert sigmoid_volatility(-1e8, 1) == 0.25

    def test_asymptote(self):
        assert sigmoid_volatility(20.0, 1) == pytest.approx(0.5, abs=1e-8)
        assert sigmoid_volatility(20.0, 2) == pytest.approx(0.25, abs=1e-8)

    def test_continuity_at_zero(self):
        for i, level in ((1, 0.25), (2, 0.125)):
            assert sigmoid_volatility(1e-14, i) == pytest.approx(level, abs=1e-12)
            assert sigmoid_volatility(-1e-14, i) == level

    def test_matches_printed_formula(self):
        for y in (0.0, 0.02, 0.5, 1.0, 3.0, 10.0):
            direct = 0.5 * (1.0 + (math.exp(y) - math.exp(-y))) / (math.exp(y) + math.exp(-y))
            assert sigmoid_volatility(y, 1) == pytest.approx(direct, rel=1e-14)
            assert sigmoid_volatility(y, 2) == pytest.approx(direct / 2.0, rel=1e-14)

    def test_large_arguments_do_not_overflow(self):
        with np.errstate(over="raise"):
            assert sigmoid_volatility(750.0, 1) == 0.5
            assert sigmoid_volatility(1e12, 2) == 0.25

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            sigmoid_volatility(0.0, 3)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        ys = rng.uniform(-30, 30, 500)
        regimes = rng.integers(1, 3, 500)
        vec = sigmoid_volatility_vec(ys, regimes)
        scal = np.array([sigmoid_volatility(float(y), int(i))
                         for y, i in zip(ys, regimes)])
        np.testing.assert_array_equal(vec, scal)

    # the expression sigmoid_volatility_vec evaluates in its scratch arrays
    @staticmethod
    def expression(y, i):
        y = np.asarray(y, dtype=float)
        scale = np.where(np.asarray(i) == 1, 0.5, 0.25)
        nonnegative = y >= 0.0
        yp = np.where(nonnegative, y, 0.0)
        ratio = np.tanh(yp) + np.exp(-yp) / (1.0 + np.exp(-2.0 * yp))
        return scale * np.where(nonnegative, ratio, 0.5)

    EDGES = (0.0, -0.0, -3.0, 1.44, 800.0, 1e308, math.inf, -math.inf, math.nan)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("i", [1, 2])
    @pytest.mark.parametrize("y", EDGES)
    def test_zero_dimensional_bits_equal_the_expression(self, y, i):
        # the 0-d path sigmoid_volatility, and so validate, takes
        want = np.float64(self.expression(np.float64(y), np.int64(i))).tobytes()
        got = sigmoid_volatility_vec(np.float64(y), np.int64(i))
        assert np.shape(got) == ()
        assert np.float64(got).tobytes() == want
        assert np.float64(sigmoid_volatility(y, i)).tobytes() == want

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_array_bits_equal_the_expression(self):
        rng = np.random.default_rng(8)
        values = rng.normal(0.0, 3.0, (64, 600))
        values[0, : len(self.EDGES)] = self.EDGES
        regimes = rng.integers(1, 3, values.shape)
        # the march passes a strided (P, B) slice of its values
        for y, i in ((values, regimes), (values[:, 100:356], regimes[:, :256]),
                     (values[0], 2), (1.44, regimes[:3, :4])):
            want = self.expression(y, i)
            got = sigmoid_volatility_vec(y, i)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_bound_holds_on_random_sample(self):
        rng = np.random.default_rng(17)
        ys = rng.uniform(-1e6, 1e6, 100_000)
        for i in (1, 2):
            vals = DEMO.volatility.evaluate_many(ys, np.full(ys.shape, i))
            assert np.all(vals >= 0.0)
            assert np.all(vals <= DEMO.volatility.bound_sigma)
        # regime 2 runs at half the regime-1 level, bound sqrt(5)/8
        vals2 = DEMO.volatility.evaluate_many(ys, np.full(ys.shape, 2))
        assert np.all(vals2 <= math.sqrt(5.0) / 8.0)

    def test_bound_is_attained_sup(self):
        # peak at y = arcsinh(2): value sqrt(5)/4 for regime 1
        peak = math.asinh(2.0)
        assert sigmoid_volatility(peak, 1) == pytest.approx(
            math.sqrt(5.0) / 4.0, rel=1e-12)
        assert DEMO.volatility.bound_sigma == pytest.approx(
            math.sqrt(5.0) / 4.0, rel=1e-15)


class TestVolatilityRegistry:
    def test_names(self):
        assert build_volatility("sigmoid_s5").name == "sigmoid_s5"
        assert build_volatility("constant", level=0.3).eval(5.0, 1) == 0.3
        assert build_volatility("zero").eval(1.0, 2) == 0.0
        with pytest.raises(ValueError):
            build_volatility("nope")

    def test_bound_positive_required(self):
        with pytest.raises(ValueError):
            VolatilitySpec(bound_sigma=0.0, eval=lambda y, i: 0.0)

    @pytest.mark.parametrize("level", [-0.5, math.nan])
    def test_negative_or_nan_constant_level_rejected(self, level):
        # both used to build a volatility named "zero" with bound 1.0 that
        # evaluated to the level itself
        with pytest.raises(ValueError, match=f"constant volatility level must be "
                                             f">= 0, got {level}"):
            build_volatility("constant", level)


class TestConstruction:
    def test_regime_params_reject_negative(self):
        with pytest.raises(ValueError):
            RegimeParams(-0.1, 0.2, 0.1, 0.5, 0.0)
        with pytest.raises(ValueError):
            RegimeParams(0.1, 0.2, 0.1, 0.5, -0.5)

    def test_exponents_must_exceed_one(self):
        with pytest.raises(ValueError):
            make_spec(rho=1.0)
        with pytest.raises(ValueError):
            make_spec(theta=0.9)

    def test_tau_positive(self):
        with pytest.raises(ValueError):
            make_spec(tau=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["rho", "theta", "tau", "jump_intensity"])
    def test_non_finite_scalars_rejected(self, name, value):
        # NaN passes every `<=` check, and tau = inf used to fail only later,
        # converting the delay to a step count
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            dataclasses.replace(DEMO, **{name: value})

    def test_initial_regime_in_space(self):
        with pytest.raises(ValueError):
            make_spec(initial_regime=3)

    def test_generator_shape_must_match(self):
        with pytest.raises(ValueError):
            make_spec(generator=GeneratorMatrix(np.array([[0.0]])))

    def test_volatility_regime_count_must_match(self):
        three = dict(
            regimes=(RegimeParams(0.3, 0.2, 0.1, 0.5, 1.0),) * 3,
            generator=GeneratorMatrix(np.array([[-2.0, 1.0, 1.0],
                                                [1.0, -2.0, 1.0],
                                                [1.0, 1.0, -2.0]])),
        )
        with pytest.raises(ValueError, match=r"volatility 'sigmoid_s5' defines "
                                             r"regimes 1\.\.2 but the generator has 3"):
            make_spec(**three)
        assert make_spec(**three, volatility=build_volatility("constant")).num_regimes == 3

    def test_initial_segment_positive(self):
        # NaN passed `value <= 0.0` and `holder_constant <= 0.0`; a NaN
        # constant then passed the Hoelder check of any segment
        from temsim.model import InitialSegment
        for value in (0.0, math.nan):
            with pytest.raises(ValueError, match="initial segment must be positive"):
                constant_segment(value)
            with pytest.raises(ValueError, match="holder_constant must be positive"):
                InitialSegment(eval=lambda t: 1.0 + abs(t) ** 0.2, holder_constant=value)

    def test_holder_constant_must_be_finite(self):
        # an infinite constant passed the Hoelder check of any segment: this
        # one reads PASS with inf and FAIL with 1.0
        from temsim.model import InitialSegment

        def rough(t):
            return 0.02 + abs(t + 0.5) ** 0.2
        checks = validate_assumptions(dataclasses.replace(
            DEMO, initial_segment=InitialSegment(eval=rough, holder_constant=1.0)))
        assert "initial_segment_hoelder" in {c.name for c in checks if not c.passed}
        with pytest.raises(ValueError, match="holder_constant must be positive and finite"):
            InitialSegment(eval=rough, holder_constant=math.inf)


class TestValidateAssumptions:
    def test_demo_passes(self):
        checks = validate_assumptions(DEMO)
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]

    def test_exponent_balance_violation(self):
        # 1 + 1.5 < 2 * 1.5
        checks = validate_assumptions(make_spec(rho=1.5, theta=1.5))
        failed = {c.name for c in checks if not c.passed}
        assert "exponent_balance" in failed

    def test_volatility_bound_violation(self):
        bad = VolatilitySpec(bound_sigma=0.5,
                             eval=lambda y, i: 1.5 if y > 10 else 0.25)
        checks = validate_assumptions(make_spec(volatility=bad))
        failed = {c.name for c in checks if not c.passed}
        assert "volatility_bounded" in failed

    def test_negative_extension_violation(self):
        bad = VolatilitySpec(bound_sigma=0.5,
                             eval=lambda y, i: 0.25 if y >= 0 else 0.1)
        checks = validate_assumptions(make_spec(volatility=bad))
        failed = {c.name for c in checks if not c.passed}
        assert "volatility_negative_extension" in failed

    def test_hoelder_violation(self):
        from temsim.model import InitialSegment
        jumpy = InitialSegment(
            eval=lambda t: 1.0 if t < -0.5 else 2.0,
            holder_constant=0.5, holder_exponent=1.0,
        )
        checks = validate_assumptions(make_spec(initial_segment=jumpy))
        failed = {c.name for c in checks if not c.passed}
        assert "initial_segment_hoelder" in failed

    def test_degenerate_coefficients_flagged_not_fatal(self):
        spec = make_spec(regimes=(RegimeParams(0.0, 0.0, 0.0, 0.5, 0.0),),
                         generator=GeneratorMatrix(np.array([[0.0]])))
        checks = validate_assumptions(spec)
        failed = {c.name for c in checks if not c.passed}
        assert "coefficient_positivity" in failed

    def test_report_never_raises_on_broken_eval(self):
        def broken(y, i):
            raise RuntimeError("boom")

        checks = validate_assumptions(
            make_spec(volatility=VolatilitySpec(bound_sigma=0.5, eval=broken)))
        assert not all(c.passed for c in checks)


class TestKhasminskii:
    def test_integrand_hand_value(self):
        # 1 * f(1,1) + ((2-1)/2) * (phi(0,1) * g(1))^2 = -0.3 + 0.03125
        value = _growth_functional(np.array([1.0]), DEMO, np.array([0.0]), np.array([0]), 2.0)
        assert value[0] == pytest.approx(-0.26875, abs=1e-14)

    @pytest.mark.parametrize("p", [2.0, 4.0, 8.0])
    def test_demo_holds(self, p):
        holds, k4 = khasminskii_check(DEMO, p=p)
        assert holds
        assert math.isfinite(k4)

    def test_violating_exponents_detected(self):
        # 1 + rho = 3 <= 2 * theta = 5: diffusion dominates, ratio grows
        spec = make_spec(theta=2.5)
        holds, _ = khasminskii_check(spec, p=2.0)
        assert not holds

    def test_rejects_p_below_two(self):
        with pytest.raises(ValueError):
            khasminskii_check(DEMO, p=1.5)
