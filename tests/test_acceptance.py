"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Heavier criteria use the documented experiment
configurations (see README and configs/); statistical criteria run at
fixed seeds so the suite is deterministic.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import temsim.engine as engine
from temsim.cli import main
from temsim.config import two_regime_demo
from temsim.estimators import (
    barrier_option_price,
    bond_price,
    moment_curves,
    scheme_comparison,
    strong_error,
)
from temsim.model import (
    CoefficientTables,
    ModelSpec,
    RegimeParams,
    build_volatility,
    constant_segment,
)
from temsim.regime import (
    GeneratorMatrix,
    matrix_exponential,
    sample_chain_path,
)
from temsim.rng import substream
from temsim.schemes import simulate_tem_path
from temsim.truncation import default_mu_for, truncation_band

TAU = 1.0
THREADS = 2


def report(number: int, description: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{status}: criterion {number} - {description}{suffix}")
    return ok


def single_regime_ode_spec():
    return ModelSpec(
        regimes=(RegimeParams(0.3, 0.2, 0.1, 0.5, 0.0),),
        rho=2.0, theta=1.25, tau=TAU, jump_intensity=0.0,
        volatility=build_volatility("zero"),
        initial_segment=constant_segment(1.0),
        generator=GeneratorMatrix(np.zeros((1, 1))),
        initial_regime=1, include_inverse_drift=True,
    )


def test_criterion_1_strong_order_one_half():
    # demo model without the 1/x drift term; dyadic ladder against a
    # reference eight levels finer; theory-default step profile
    spec = replace(two_regime_demo(), include_inverse_drift=False)
    policy = default_mu_for(spec, psi_exponent=0.25)
    ladder = [TAU * 2.0**-e for e in range(7, 12)]
    rep = strong_error(spec, policy, ladder, TAU * 2.0**-14, 2.0, 2.0,
                       1000, 20240, threads=THREADS)
    ok = 0.3 <= rep.fitted_order <= 0.7
    assert report(1, "empirical strong order in [0.3, 0.7]", ok,
                  f"fitted {rep.fitted_order:.3f}"), rep.errors


def test_criterion_2_tem_bem_distance_decreases():
    spec = replace(two_regime_demo(), include_inverse_drift=False)
    policy = default_mu_for(spec, psi_exponent=0.25)
    coarse = scheme_comparison(spec, policy, 1e-3, 2.0, 500, 777,
                               threads=THREADS)
    fine = scheme_comparison(spec, policy, 2.5e-4, 2.0, 500, 777,
                             threads=THREADS)
    decreasing = fine.mean < coarse.mean
    separated = fine.confidence_95[1] < coarse.confidence_95[0]
    ok = decreasing and separated
    assert report(
        2, "TEM-BEM sup distance decreases with the step", ok,
        f"{coarse.mean:.4f}+-{1.96 * coarse.std_error:.4f} -> "
        f"{fine.mean:.4f}+-{1.96 * fine.std_error:.4f}")


def test_criterion_3_markov_chain_correctness():
    generator = GeneratorMatrix(np.array([[-2.0, 2.0], [1.0, -1.0]]))

    # (a) one-step matrix against the closed form from eigenvalues {0, -3}
    closed = np.eye(2) + (1.0 - np.exp(-3.0 * 1e-3)) / 3.0 * generator.entries
    got = matrix_exponential(generator, 1e-3)
    part_a = np.abs(got - closed).max() <= 1e-9

    # (b) occupation fractions against the stationary law (1/3, 2/3)
    path = sample_chain_path(generator, 1, 0.01, 100_000, substream(42, 0, 2))
    occupation = np.bincount(path, minlength=3)[1:] / path.size
    part_b = np.abs(occupation - np.array([1 / 3, 2 / 3])).max() <= 0.02

    # (c) semigroup property on random generators
    rng = np.random.default_rng(2718)
    part_c = True
    for _ in range(100):
        n = int(rng.integers(1, 6))
        rates = rng.uniform(0.05, 4.0, (n, n))
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=1))
        g = GeneratorMatrix(rates)
        d1, d2 = rng.uniform(0.01, 1.0, 2)
        whole = matrix_exponential(g, d1 + d2)
        split = matrix_exponential(g, d1) @ matrix_exponential(g, d2)
        if np.abs(whole - split).max() > 1e-10:
            part_c = False
            break

    ok = part_a and part_b and part_c
    assert report(3, "Markov chain machinery correct", ok,
                  f"a={part_a} b={part_b} c={part_c}")


def test_criterion_4_truncation_cap():
    spec = two_regime_demo()
    tables = CoefficientTables(spec)
    rng = np.random.default_rng(31415)
    ok = True
    for q, samples in ((2.0 / 3.0, 100_000), (0.25, 20_000)):
        policy = default_mu_for(spec, psi_exponent=q)
        xs = rng.uniform(-100.0, 100.0, samples)
        regimes = rng.integers(1, 3, samples)
        deltas = rng.uniform(1e-6, policy.delta_star, samples)
        # each sample against the band and psi(delta) = delta^-q of its own step
        caps = deltas ** -q
        uppers = policy.mu.inverse(caps)
        fd, gd = tables.truncated(xs, regimes - 1, 1.0 / uppers, uppers)
        ok &= bool(np.all(np.maximum(np.abs(fd), gd) <= caps * (1.0 + 1e-12)))
        # band-interior identity with the raw coefficients, exact
        lower, upper = truncation_band(1e-3, policy)
        inside = np.linspace(lower * 1.001, upper * 0.999, 23)
        for ridx in (0, 1):
            fd, gd = tables.truncated(inside, ridx, lower, upper)
            ok &= np.array_equal(fd, tables.drift(inside, ridx))
            ok &= np.array_equal(gd, tables.diffusion(inside))
    assert report(4, "truncated coefficients capped by psi(delta), "
                     "identity inside the band", ok)


def test_criterion_5_deterministic_euler_reduction():
    spec = single_regime_ode_spec()
    policy = default_mu_for(spec, psi_exponent=2.0 / 3.0)

    def f(x):
        return 0.3 / x - 0.2 + 0.1 * x - 0.5 * x * x

    fine_n = 2**12
    dt = 1.0 / fine_n
    reference = np.empty(fine_n + 1)
    reference[0] = 1.0
    x = 1.0
    for k in range(fine_n):
        k1 = f(x); k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2); k4 = f(x + dt * k3)
        x += dt * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        reference[k + 1] = x

    errors = []
    for e in (5, 6, 7, 8):
        state = simulate_tem_path(spec, policy, 2.0**-e, 1.0,
                                  seed=0, path_index=0)
        values = state.values[state.tau_steps:]
        sub = reference[:: fine_n // state.num_steps]
        errors.append(np.abs(values - sub).max())
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    ok = bool(np.all((ratios >= 1.8) & (ratios <= 2.2)))
    assert report(5, "zero-noise error halves with the step", ok,
                  "ratios " + np.array2string(ratios, precision=3))


def test_criterion_6_moment_stability():
    # in-band start, diffusive channels only: the p = 4 moment curves of the
    # two coupled step sizes must agree; the jump channel at these steps is
    # tail-dominated and is exercised by criteria 1-2 instead
    spec = replace(two_regime_demo(), jump_intensity=0.0,
                   initial_segment=constant_segment(1.0))
    policy = default_mu_for(spec, psi_exponent=2.0 / 3.0)
    curves = moment_curves(spec, policy, [1e-2, 1e-3], 2.0, 4.0, 2000, 2024,
                           threads=THREADS)
    finite = all(np.isfinite(c).all() for c in curves.values())
    peaks = {d: float(c.max()) for d, c in curves.items()}
    values = sorted(peaks.values())
    rel = (values[1] - values[0]) / values[1]
    ok = finite and rel <= 0.25
    assert report(6, "p=4 moments finite and step-stable", ok,
                  f"max moments {peaks}, rel diff {rel:.3%}")


def test_criterion_7_estimator_sanity():
    # (a) constant degenerate path prices the bond in closed form
    const_spec = ModelSpec(
        regimes=(RegimeParams(0.0, 0.0, 0.0, 0.0, 0.0),),
        rho=2.0, theta=1.25, tau=TAU, jump_intensity=0.0,
        volatility=build_volatility("zero"),
        initial_segment=constant_segment(0.02),
        generator=GeneratorMatrix(np.zeros((1, 1))),
        initial_regime=1, include_inverse_drift=False,
    )
    const_policy = default_mu_for(const_spec, psi_exponent=2.0 / 3.0,
                                  mu_preset="power_fit")
    bond = bond_price(const_spec, const_policy, 1e-3, 1.0, 64, 0)
    part_a = (abs(bond.estimate - math.exp(-0.02)) <= 1e-13
              and bond.std_error == 0.0)

    # (b) barrier at the initial value knocks every path out immediately
    demo = two_regime_demo()
    demo_policy = default_mu_for(demo, psi_exponent=2.0 / 3.0)
    knocked = barrier_option_price(demo, demo_policy, 1e-2, 1.0, 0.01, 0.02,
                                   256, 5, threads=THREADS)
    part_b = knocked.estimate == 0.0 and knocked.std_error == 0.0

    # (c) doubling the paths shrinks the standard error by sqrt(2) +- 10%
    small = bond_price(demo, demo_policy, 1e-2, 1.0, 2000, 9, threads=THREADS)
    large = bond_price(demo, demo_policy, 1e-2, 1.0, 4000, 9, threads=THREADS)
    ratio = small.std_error / large.std_error
    part_c = math.sqrt(2.0) * 0.9 <= ratio <= math.sqrt(2.0) * 1.1

    ok = part_a and part_b and part_c
    assert report(7, "estimator closed forms and error scaling", ok,
                  f"a={part_a} b={part_b} c={part_c} (ratio {ratio:.3f})")


def test_criterion_8_cli_reproducibility(tmp_path):
    base_model = {"preset": "two_regime_demo"}
    configs = {
        "validate": {
            "model": base_model,
            "truncation": {"psi_exponent": 2.0 / 3.0},
        },
        "simulate": {
            "model": base_model,
            "truncation": {"psi_exponent": 2.0 / 3.0},
            "simulation": {"delta": 1e-3, "horizon": 2.0, "seed": 4},
        },
        "converge": {
            "model": {**base_model, "include_inverse_drift": False},
            "truncation": {"psi_exponent": 2.0 / 3.0},
            "simulation": {"delta": 1e-2, "horizon": 1.0, "num_paths": 150,
                           "seed": 4},
            "experiment": {"step_ladder": [0.0625, 0.03125],
                           "reference_delta": 0.00390625, "p": 2.0},
        },
        "compare-schemes": {
            "model": base_model,
            "truncation": {"psi_exponent": 2.0 / 3.0},
            "simulation": {"delta": 1e-2, "horizon": 1.0, "num_paths": 150,
                           "seed": 4},
        },
        "price-bond": {
            "model": base_model,
            "truncation": {"psi_exponent": 2.0 / 3.0},
            "simulation": {"delta": 1e-2, "horizon": 1.0, "num_paths": 300,
                           "seed": 4},
        },
        "price-barrier": {
            "model": base_model,
            "truncation": {"psi_exponent": 2.0 / 3.0},
            "simulation": {"delta": 1e-2, "horizon": 1.0, "num_paths": 300,
                           "seed": 4},
            "experiment": {"strike": 0.01, "barrier": 5.0},
        },
    }
    ok = True
    details = []
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg))
        outputs = []
        for attempt in ("a", "b"):
            out_path = tmp_path / f"{command}.{attempt}.csv"
            code = main([command, "--config", str(cfg_path), "--threads",
                         str(THREADS), "--out", str(out_path)])
            if code != 0:
                ok = False
                details.append(f"{command}: exit {code}")
                break
            outputs.append(out_path.read_bytes())
        else:
            if outputs[0] != outputs[1]:
                ok = False
                details.append(f"{command}: outputs differ")
    assert report(8, "every CLI command byte-identical on rerun", ok,
                  "; ".join(details))
