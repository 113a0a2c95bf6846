import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from temsim.config import two_regime_demo
from temsim.engine import CoefficientTables
from temsim.model import RegimeParams, build_volatility, constant_segment, ModelSpec
from temsim.regime import GeneratorMatrix
from temsim.truncation import (
    StepProfileWarning,
    TruncationError,
    TruncationPolicy,
    band_edge,
    default_mu_for,
    psi,
    truncation_band,
)

DEMO = two_regime_demo()
TABLES = CoefficientTables(DEMO)


def demo_policy(q=2 / 3):
    return default_mu_for(DEMO, psi_exponent=q)


POLICY = demo_policy()


def drift(x, i):
    """The demo's regime-``i`` drift at ``x``, on a width-1 array."""
    return float(TABLES.drift(np.array([x]), np.array([i - 1]))[0])


def truncated(x, i, delta, policy=POLICY):
    """The demo's truncated drift and diffusion factor at ``x`` in regime
    ``i``, on a width-1 array."""
    band = truncation_band(delta, policy)
    fd, gd = TABLES.truncated(np.array([x]), np.array([i - 1]), *band)
    return float(fd[0]), float(gd[0])


def outflow_spec(alpha_0, tau=1.0):
    """One regime with drift 0.3/x - alpha_0 + 0.1 x - 0.5 x^2, positive
    only below a root that falls as the constant outflow alpha_0 grows."""
    return ModelSpec(
        regimes=(RegimeParams(0.3, alpha_0, 0.1, 0.5, 0.0),),
        rho=2.0, theta=1.25, tau=tau, jump_intensity=0.0,
        volatility=build_volatility("zero"),
        initial_segment=constant_segment(0.02),
        generator=GeneratorMatrix(np.zeros((1, 1))),
        initial_regime=1, include_inverse_drift=True,
    )


def capped(xs, ridx, deltas, policy, tables=TABLES):
    """Whether ``max(|f_delta|, g_delta) <= psi(delta)`` at every sample, each
    with the band of its own step."""
    caps = deltas ** -policy.psi_exponent
    uppers = policy.mu.inverse(caps)
    fd, gd = tables.truncated(xs, ridx, 1.0 / uppers, uppers)
    return bool(np.all(np.maximum(np.abs(fd), gd) <= caps * (1.0 + 1e-12)))


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
        assert abs(drift(1.0, 1)) == pytest.approx(0.3)
        assert abs(drift(1.0, 2)) == pytest.approx(0.5)
        assert TABLES.diffusion(np.array([1.0]))[0] == 1.0
        assert POLICY.mu(1.0) == pytest.approx(3.0)
        assert max(0.3, 0.5, 1.0) <= POLICY.mu(1.0)

    def test_power_fit_dominates(self):
        policy = default_mu_for(DEMO, psi_exponent=2 / 3, mu_preset="power_fit")
        assert policy.mu.name == "power_fit"
        xs = np.geomspace(1e-2, 1e2, 200)
        for r in (1.5, 4.0, 50.0):
            band = xs[(xs >= 1.0 / r) & (xs <= r)]
            sup = max(np.abs(TABLES.drift(band, np.array([[0], [1]]))).max(),
                      TABLES.diffusion(band).max())
            assert sup <= policy.mu(r) * (1.0 + 1e-9)

    def test_unknown_preset(self):
        with pytest.raises(TruncationError):
            default_mu_for(DEMO, mu_preset="cubic")

    @pytest.mark.parametrize("exponent", ["rho", "theta"])
    def test_power_fit_past_the_largest_float_is_refused_by_name(self, exponent):
        # r^m overflowed, so mu's constant was NaN under three numpy
        # RuntimeWarnings, its band read [nan, nan] and delta_star 0.999999999
        spec = replace(DEMO, **{exponent: 1.0e300})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for preset in ("auto", "power_fit"):
                with pytest.raises(TruncationError, match=r"^power-fit mu\(u\) = c u\^m has "
                                   r"no finite constant c at the exponent m = max\(rho, "
                                   r"theta\) \+ 1 = 1e\+300: "):
                    default_mu_for(spec, mu_preset=preset)
            # the closed form is refused as before, now without the warnings
            with pytest.raises(TruncationError, match=r"^mu\(1\) = 3 does not dominate "
                                                      "the coefficient sup inf on "):
                default_mu_for(spec, mu_preset="3u2")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_nan_coefficient_sup_is_not_dominated(self):
        # without the x^rho term, 0 * x^rho is NaN past the largest float: a
        # NaN sup compared false with mu, so 3u2 was taken to dominate it
        regimes = tuple(replace(r, alpha_2=0.0) for r in DEMO.regimes)
        spec = replace(DEMO, regimes=regimes, rho=1.0e300)
        with pytest.raises(TruncationError, match=r"^mu\(1\) = 3 does not dominate "
                                                  "the coefficient sup nan on "):
            default_mu_for(spec, mu_preset="3u2")

    def test_nan_band_edge_is_not_admissible(self, monkeypatch):
        # `upper <= 1.0` let a NaN edge through: the band came out [nan, nan]
        # and the delta_star search took every step as admissible
        from temsim import truncation
        monkeypatch.setattr(truncation, "band_edge", lambda *_args: math.nan)
        with pytest.raises(TruncationError, match="^truncation band degenerate at "
                                                  r"delta = 0.001 \(upper edge nan\)$"):
            truncation_band(1e-3, POLICY)
        with pytest.raises(TruncationError, match="^no admissible step bound found "):
            default_mu_for(DEMO)


class TestPsi:
    def test_demo_profile_value(self):
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
        # NaN passed `delta <= 0.0`, so psi and the band came out NaN
        for delta in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="delta must be positive"):
                psi(delta, POLICY)
            with pytest.raises(ValueError, match="delta must be positive"):
                band_edge(POLICY.mu, POLICY.psi_exponent, delta)
            with pytest.raises(ValueError, match="delta must be positive"):
                truncation_band(delta, POLICY)

    def test_overflowing_profile_is_refused_by_name(self):
        # 1e-12^-26 is past the largest float: float ** raised OverflowError
        # out of default_mu_for's delta_star search, a traceback in every command
        with pytest.warns(StepProfileWarning):
            steep = replace(POLICY, psi_exponent=26.0)
        for call in (lambda: psi(1e-12, steep),
                     lambda: band_edge(POLICY.mu, 26.0, 1e-12),
                     lambda: default_mu_for(DEMO, psi_exponent=26.0)):
            with pytest.raises(TruncationError, match="^psi_exponent 26 takes delta"
                                                      r"\^-q past the largest float at "
                                                      "step 1e-12$"):
                call()
        # just below the edge of the floats the power is taken
        assert band_edge(POLICY.mu, 25.6, 1e-12) > 1.0

    def test_band_edge_takes_the_profile_of_psi(self):
        # one power for both: the edge is mu's inverse of psi, bit for bit,
        # and psi is a Python float, which validate prints
        deltas = np.random.default_rng(3).uniform(1e-6, POLICY.delta_star, 500)
        for policy in (POLICY, default_mu_for(DEMO, mu_preset="power_fit")):
            for delta in deltas.tolist():
                assert type(psi(delta, policy)) is float
                assert band_edge(policy.mu, policy.psi_exponent, delta) == \
                    policy.mu.inverse(psi(delta, policy))

    def test_does_not_warn(self):
        # the policy decides the quarter-power rule once, when it is built
        with warnings.catch_warnings():
            warnings.simplefilter("error", StepProfileWarning)
            psi(1e-3, POLICY)
            truncation_band(1e-3, POLICY)


class TestTruncatedCoefficients:
    def test_drift_above_band(self):
        upper = math.sqrt(100.0 / 3.0)
        expected = 0.3 / upper - 0.2 + 0.1 * upper - 0.5 * upper**2
        assert truncated(10.0, 1, 1e-3)[0] == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(-16.237, abs=5e-4)

    def test_drift_inside_band_unchanged(self):
        assert truncated(1.0, 1, 1e-3)[0] == drift(1.0, 1)

    def test_drift_below_band_clamps_positive(self):
        lower = 1.0 / math.sqrt(100.0 / 3.0)
        expected = drift(lower, 1)
        assert truncated(-5.0, 1, 1e-3)[0] == pytest.approx(expected, rel=1e-13)
        assert expected > 0.0

    def test_diffusion_upper_clamp(self):
        upper = math.sqrt(100.0 / 3.0)
        assert truncated(10.0, 1, 1e-3)[1] == pytest.approx(
            math.exp(1.25 * math.log(upper)), rel=1e-13)

    def test_diffusion_negative_and_inside(self):
        assert truncated(-0.3, 1, 1e-3)[1] == 0.0
        assert truncated(1.0, 1, 1e-3)[1] == 1.0

    def test_no_lower_clamp_for_diffusion(self):
        assert truncated(0.01, 1, 1e-3)[1] == TABLES.diffusion(np.array([0.01]))[0]

    def test_step_beyond_delta_star_rejected(self):
        with pytest.raises(TruncationError):
            truncated(1.0, 1, 0.5)

    def test_cap_property_randomized(self):
        # |f_delta| v g_delta <= psi(delta) on random arguments, both profiles
        rng = np.random.default_rng(99)
        for q in (0.25, 2 / 3):
            policy = demo_policy(q)
            xs = rng.uniform(-100.0, 100.0, 50_000)
            regimes = rng.integers(1, 3, 50_000)
            deltas = rng.uniform(1e-6, policy.delta_star, 50_000)
            assert capped(xs[:2000], regimes[:2000] - 1, deltas[:2000], policy)

    def test_band_monotone_in_delta(self):
        l1, u1 = truncation_band(1e-4, POLICY)
        l2, u2 = truncation_band(1e-2, POLICY)
        assert l1 < l2 and u1 > u2  # smaller step, wider band

    def test_drift_continuous_at_clamp_edges(self):
        lower, upper = truncation_band(1e-3, POLICY)
        for edge in (lower, upper):
            left = truncated(edge - 1e-9, 1, 1e-3)[0]
            right = truncated(edge + 1e-9, 1, 1e-3)[0]
            assert abs(left - right) < 1e-6


class TestDeltaStar:
    def test_demo_profile(self):
        # band condition: psi(d) > mu(1) = 3, i.e. d < 3^(-3/2); drift
        # positivity near zero is slacker for the demo coefficients
        assert POLICY.delta_star == pytest.approx(3.0**-1.5, abs=1e-5)

    def test_quarter_profile(self):
        policy = demo_policy(q=0.25)
        assert policy.delta_star == pytest.approx(3.0**-4, abs=1e-5)

    def test_without_inverse_only_band_condition(self):
        spec = replace(two_regime_demo(), include_inverse_drift=False)
        policy = default_mu_for(spec, psi_exponent=2 / 3)
        assert policy.delta_star == pytest.approx(3.0**-1.5, abs=1e-5)

    def test_drift_positivity_shrinks_delta_star(self):
        # huge constant outflow: f(x) = 0.3/x - 100 + ... is positive only
        # for x below roughly 0.003
        policy = default_mu_for(outflow_spec(100.0), psi_exponent=2 / 3,
                                mu_preset="power_fit")
        assert policy.delta_star < 0.004

    def test_delta_star_override_validated(self):
        with pytest.raises(TruncationError):
            default_mu_for(DEMO, psi_exponent=2 / 3, delta_star=0.9)

    def test_delta_star_override_meets_the_search_rule(self):
        # the band is wide enough at 0.0605, but the drift turns negative
        # below it: the bound the search refuses is refused when given too
        spec = outflow_spec(5.0, tau=0.0604)
        searched = default_mu_for(spec, psi_exponent=2 / 3, mu_preset="power_fit")
        assert searched.delta_star == pytest.approx(0.0600504, rel=1e-6)
        with pytest.raises(TruncationError, match="override 0.0605 is not admissible"):
            default_mu_for(spec, psi_exponent=2 / 3, mu_preset="power_fit",
                           delta_star=0.0605)
        # the searched bound, echoed in a header, resolves again
        again = default_mu_for(spec, psi_exponent=2 / 3, mu_preset="power_fit",
                               delta_star=searched.delta_star)
        assert again.delta_star == searched.delta_star


class TestGrowthPreservation:
    def test_truncated_growth_constant_stable_across_deltas(self):
        # x f_delta(x,i) + (p-1)/2 (sigma g_delta(x))^2 <= K5 (1 + x^2)
        # with K5 not growing as delta shrinks
        p = 2.0
        sigma = DEMO.volatility.bound_sigma
        xs = np.concatenate([-np.geomspace(1e-3, 1e3, 80), np.geomspace(1e-3, 1e3, 80)])
        k5 = []
        for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            # rows: regimes 1 and 2
            fd, gd = TABLES.truncated(xs, np.array([[0], [1]]),
                                      *truncation_band(delta, POLICY))
            val = xs * fd + 0.5 * (p - 1.0) * (sigma * gd) ** 2
            k5.append((val / (1.0 + xs * xs)).max())
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

    @pytest.mark.parametrize("q", [math.nan, math.inf, 0.0, -0.25])
    def test_exponent_must_be_positive_and_finite(self, q):
        # NaN gave the band (nan, nan), blamed on the first path's node 1;
        # inf gave (0, inf), which truncates nothing; q <= 0 failed in the
        # delta_star search as "no admissible step bound"
        for build in (lambda: TruncationPolicy(mu=POLICY.mu, psi_exponent=q,
                                               delta_star=0.1),
                      lambda: default_mu_for(DEMO, psi_exponent=q)):
            with pytest.raises(TruncationError,
                               match="psi_exponent must be positive and finite"):
                build()

    def test_warns_only_above_quarter(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", StepProfileWarning)
            quarter = demo_policy(q=0.25)  # no warning
        assert quarter.quarter_power
        with pytest.warns(StepProfileWarning, match="exceeds 1/4"):
            wide = demo_policy(q=2 / 3)
        assert not wide.quarter_power
        # every q above 1/4 breaks the condition at small enough steps
        with pytest.warns(StepProfileWarning):
            edge = TruncationPolicy(mu=POLICY.mu, psi_exponent=np.nextafter(0.25, 1.0),
                                    delta_star=0.01)
        assert not edge.quarter_power

    def test_warning_names_the_caller(self):
        # the line that builds the policy, not one inside temsim.truncation
        with pytest.warns(StepProfileWarning) as searched:
            demo_policy(q=2 / 3)
        with pytest.warns(StepProfileWarning) as direct:
            TruncationPolicy(mu=POLICY.mu, psi_exponent=0.5, delta_star=0.01)
        for caught in (searched, direct):
            assert [w.filename for w in caught
                    if w.category is StepProfileWarning] == [__file__]

    def test_unpickled_policy_does_not_warn_again(self):
        # a pool worker receives the policy pickled: it must not warn once
        # per worker
        with warnings.catch_warnings():
            warnings.simplefilter("error", StepProfileWarning)
            copy = pickle.loads(pickle.dumps(POLICY))
        assert copy.psi_exponent == POLICY.psi_exponent and not copy.quarter_power


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
