import math
import warnings

import numpy as np
import pytest

from temsim.model import RegimeParams, build_volatility, constant_segment, drift_f, \
    diffusion_g, two_regime_demo, ModelSpec
from temsim.regime import GeneratorMatrix
from temsim.truncation import (
    StepProfileWarning,
    TruncationError,
    TruncationPolicy,
    default_mu_for,
    delta_star_search,
    psi,
    truncated_diffusion,
    truncated_drift,
    truncation_band,
)

DEMO = two_regime_demo()


def demo_policy(q=2 / 3):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StepProfileWarning)
        return default_mu_for(DEMO, psi_exponent=q)


POLICY = demo_policy()


class TestDefaultMu:
    def test_demo_uses_closed_form(self):
        assert POLICY.mu.name == "3u2"
        assert POLICY.mu(2.0) == pytest.approx(12.0)
        assert POLICY.mu.inverse(12.0) == pytest.approx(2.0)

    def test_inverse_identity(self):
        for r in (1.0, 2.0, 10.0):
            assert POLICY.mu.inverse(POLICY.mu(r)) == pytest.approx(r, rel=1e-12)

    def test_domination_at_band_one(self):
        # sup over [1,1] is max(|f(1,1)|, |f(1,2)|, g(1)) = max(0.3, 0.5, 1.0)
        assert abs(drift_f(1.0, 1, DEMO)) == pytest.approx(0.3)
        assert abs(drift_f(1.0, 2, DEMO)) == pytest.approx(0.5)
        assert diffusion_g(1.0, DEMO) == 1.0
        assert POLICY.mu(1.0) == pytest.approx(3.0)
        assert max(0.3, 0.5, 1.0) <= POLICY.mu(1.0)

    def test_power_fit_dominates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepProfileWarning)
            policy = default_mu_for(DEMO, psi_exponent=2 / 3, mu_preset="power_fit")
        assert policy.mu.name == "power_fit"
        xs = np.geomspace(1e-2, 1e2, 200)
        for r in (1.5, 4.0, 50.0):
            band = xs[(xs >= 1.0 / r) & (xs <= r)]
            sup = max(
                max(abs(drift_f(float(x), i, DEMO)) for x in band for i in (1, 2)),
                max(diffusion_g(float(x), DEMO) for x in band),
            )
            assert sup <= policy.mu(r) * (1.0 + 1e-9)

    def test_unknown_preset(self):
        with pytest.raises(TruncationError):
            default_mu_for(DEMO, mu_preset="cubic")


class TestPsi:
    def test_demo_profile_value(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepProfileWarning)
            assert psi(1e-3, POLICY) == pytest.approx(100.0, rel=1e-12)

    def test_quarter_power_boundary(self):
        policy = demo_policy(q=0.25)
        value = psi(1e-4, policy)
        assert value == pytest.approx(10.0, rel=1e-12)
        assert 1e-4**0.25 * value == pytest.approx(1.0, rel=1e-12)

    def test_unit_step(self):
        for q in (0.25, 2 / 3):
            assert psi(1.0, demo_policy(q)) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            psi(0.0, POLICY)
        with pytest.raises(ValueError):
            psi(-1.0, POLICY)

    def test_warns_only_above_quarter(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", StepProfileWarning)
            psi(1e-4, demo_policy(q=0.25))  # no warning
        with pytest.warns(StepProfileWarning):
            psi(1e-3, demo_policy(q=2 / 3))


class TestTruncatedCoefficients:
    def test_drift_above_band(self):
        upper = math.sqrt(100.0 / 3.0)
        expected = 0.3 / upper - 0.2 + 0.1 * upper - 0.5 * upper**2
        assert truncated_drift(10.0, 1, 1e-3, DEMO, POLICY) == pytest.approx(
            expected, rel=1e-13)
        assert expected == pytest.approx(-16.237, abs=5e-4)

    def test_drift_inside_band_unchanged(self):
        assert truncated_drift(1.0, 1, 1e-3, DEMO, POLICY) == drift_f(1.0, 1, DEMO)

    def test_drift_below_band_clamps_positive(self):
        lower = 1.0 / math.sqrt(100.0 / 3.0)
        expected = drift_f(lower, 1, DEMO)
        assert truncated_drift(-5.0, 1, 1e-3, DEMO, POLICY) == pytest.approx(
            expected, rel=1e-13)
        assert expected > 0.0

    def test_diffusion_upper_clamp(self):
        upper = math.sqrt(100.0 / 3.0)
        assert truncated_diffusion(10.0, 1e-3, DEMO, POLICY) == pytest.approx(
            math.exp(1.25 * math.log(upper)), rel=1e-13)

    def test_diffusion_negative_and_inside(self):
        assert truncated_diffusion(-0.3, 1e-3, DEMO, POLICY) == 0.0
        assert truncated_diffusion(1.0, 1e-3, DEMO, POLICY) == 1.0

    def test_no_lower_clamp_for_diffusion(self):
        assert truncated_diffusion(0.01, 1e-3, DEMO, POLICY) == diffusion_g(0.01, DEMO)

    def test_step_beyond_delta_star_rejected(self):
        with pytest.raises(TruncationError):
            truncated_drift(1.0, 1, 0.5, DEMO, POLICY)

    def test_cap_property_randomized(self):
        # |f_delta| v g_delta <= psi(delta) on random arguments, both profiles
        rng = np.random.default_rng(99)
        for q in (0.25, 2 / 3):
            policy = demo_policy(q)
            xs = rng.uniform(-100.0, 100.0, 50_000)
            regimes = rng.integers(1, 3, 50_000)
            deltas = rng.uniform(1e-6, policy.delta_star, 50_000)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StepProfileWarning)
                for x, i, d in zip(xs[:2000], regimes[:2000], deltas[:2000]):
                    cap = psi(float(d), policy) * (1.0 + 1e-12)
                    fd = abs(truncated_drift(float(x), int(i), float(d), DEMO, policy))
                    gd = truncated_diffusion(float(x), float(d), DEMO, policy)
                    assert max(fd, gd) <= cap

    def test_band_monotone_in_delta(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepProfileWarning)
            l1, u1 = truncation_band(1e-4, POLICY)
            l2, u2 = truncation_band(1e-2, POLICY)
        assert l1 < l2 and u1 > u2  # smaller step, wider band

    def test_drift_continuous_at_clamp_edges(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepProfileWarning)
            lower, upper = truncation_band(1e-3, POLICY)
        for edge in (lower, upper):
            left = truncated_drift(edge - 1e-9, 1, 1e-3, DEMO, POLICY)
            right = truncated_drift(edge + 1e-9, 1, 1e-3, DEMO, POLICY)
            assert abs(left - right) < 1e-6


class TestDeltaStar:
    def test_demo_profile(self):
        # band condition: psi(d) > mu(1) = 3, i.e. d < 3^(-3/2); drift
        # positivity near zero is slacker for the demo coefficients
        assert POLICY.delta_star == pytest.approx(3.0**-1.5, abs=1e-5)
        assert delta_star_search(DEMO, POLICY) == pytest.approx(3.0**-1.5, abs=1e-5)

    def test_quarter_profile(self):
        policy = demo_policy(q=0.25)
        assert policy.delta_star == pytest.approx(3.0**-4, abs=1e-5)

    def test_without_inverse_only_band_condition(self):
        spec = two_regime_demo(include_inverse_drift=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepProfileWarning)
            policy = default_mu_for(spec, psi_exponent=2 / 3)
        assert policy.delta_star == pytest.approx(3.0**-1.5, abs=1e-5)

    def test_drift_positivity_shrinks_delta_star(self):
        # huge constant outflow: f(x) = 0.3/x - 100 + ... is positive only
        # for x below roughly 0.003
        spec = ModelSpec(
            regimes=(RegimeParams(0.3, 100.0, 0.1, 0.5, 0.0),),
            rho=2.0, theta=1.25, tau=1.0, jump_intensity=0.0,
            volatility=build_volatility("zero"),
            initial_segment=constant_segment(0.02),
            generator=GeneratorMatrix(np.zeros((1, 1))),
            initial_regime=1, include_inverse_drift=True,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepProfileWarning)
            policy = default_mu_for(spec, psi_exponent=2 / 3, mu_preset="power_fit")
        assert policy.delta_star < 0.004

    def test_delta_star_override_validated(self):
        with pytest.raises(TruncationError):
            default_mu_for(DEMO, psi_exponent=2 / 3, delta_star=0.9)


class TestGrowthPreservation:
    def test_truncated_growth_constant_stable_across_deltas(self):
        # x f_delta(x,i) + (p-1)/2 (sigma g_delta(x))^2 <= K5 (1 + x^2)
        # with K5 not growing as delta shrinks
        p = 2.0
        sigma = DEMO.volatility.bound_sigma
        xs = np.concatenate([-np.geomspace(1e-3, 1e3, 80), np.geomspace(1e-3, 1e3, 80)])
        k5 = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StepProfileWarning)
            for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
                worst = -np.inf
                for x in xs:
                    for i in (1, 2):
                        fd = truncated_drift(float(x), i, delta, DEMO, POLICY)
                        gd = truncated_diffusion(float(x), delta, DEMO, POLICY)
                        val = x * fd + 0.5 * (p - 1.0) * (sigma * gd) ** 2
                        worst = max(worst, val / (1.0 + x * x))
                k5.append(worst)
        k5 = np.array(k5)
        assert np.all(np.isfinite(k5))
        assert k5.max() < 5.0
        # no systematic growth as the step shrinks
        assert k5[-1] <= k5.max() * (1.0 + 1e-9)


class TestPolicyType:
    def test_field_validation(self):
        with pytest.raises(TruncationError):
            TruncationPolicy(mu=POLICY.mu, psi_exponent=0.0, delta_star=0.1)
        with pytest.raises(TruncationError):
            TruncationPolicy(mu=POLICY.mu, psi_exponent=0.25, delta_star=1.5)
