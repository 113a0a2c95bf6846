"""The composed law of the simulated process against a closed form.

With jumps only (zero drift and volatility), a step maps X to
X (1 + a3(r) dN), where dN is the step's Poisson count and r the regime at
the step's left node. The counts are independent of the chain, so
m_k[j] = E[X_k 1{r_k = j}] follows m_{k+1} = (m_k * (1 + a3 lambda delta)) T
with T = exp(delta Q), and E[X_K] is the sum of m_K. A coarse level runs
on the fine counts summed and the fine regimes at its own nodes, so the
same recursion holds at its step: this checks the Poisson draw, the
chain, the coarsening, the jump coefficient and the step rule together.
Each regime's term m_K[j] checks the chain's law on its own, which the sum
can hide. With zero drift and no jumps, a step adds phi * g * dB with dB
independent of all before it, so E[X_K] = x_0 whatever the volatility and
the band do.

The count's variance equals its mean, so E[(1 + a3 dN)^2] is
(1 + a3 lambda delta)^2 + a3^2 lambda delta, and the second moments
E[X_k^2 1{r_k = j}] follow the same recursion with that factor: a count of
the right mean and the wrong law (one of at most one jump) fails it. With
zero drift and no 1/x term, BEM's implicit solve returns its explicit
target, so BEM meets the same closed forms.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from temsim import estimators
from temsim.engine import (
    NoiseBlocks,
    coarsen_batch,
    draw_batch_noise,
    resolve_grid,
    simulate_bem_batch,
    simulate_tem_batch,
)
from temsim.estimators import moment_curves
from temsim.model import ModelSpec, RegimeParams, build_volatility, constant_segment
from temsim.regime import GeneratorMatrix, matrix_exponential
from temsim.truncation import default_mu_for, truncation_band

ALPHA_3 = np.array([0.05, 0.6])
INTENSITY = 4.0
GENERATOR = GeneratorMatrix(np.array([[-2.0, 2.0], [1.0, -1.0]]))
JUMPS_ONLY = ModelSpec(
    regimes=tuple(RegimeParams(0.0, 0.0, 0.0, 0.0, a3) for a3 in ALPHA_3),
    rho=2.0, theta=1.25, tau=1.0, jump_intensity=INTENSITY,
    volatility=build_volatility("zero"), initial_segment=constant_segment(1.0),
    generator=GENERATOR, initial_regime=1, include_inverse_drift=False,
)


def exact_moments(spec, delta, num_steps, power=1):
    """m_K[j] = E[X_K^power 1{r_K = j + 1}] of the jumps-only scheme ``spec``
    at step ``delta`` after ``num_steps`` steps, from X_0 = 1; ``power`` is
    1 or 2."""
    transition = matrix_exponential(spec.generator, delta)
    alpha_3 = np.array([r.alpha_3 for r in spec.regimes])
    growth = 1.0 + alpha_3 * spec.jump_intensity * delta
    if power == 2:
        growth = growth**2 + alpha_3**2 * spec.jump_intensity * delta
    m = np.zeros(len(spec.regimes))
    m[spec.initial_regime - 1] = 1.0
    for _ in range(num_steps):
        m = (m * growth) @ transition
    return m


def z_score(samples, exact):
    return (samples.mean() - exact) / (samples.std() / np.sqrt(samples.size))


def test_every_moment_curves_level_has_the_exact_mean():
    """The last node of each level of one coupled run, 10^4 paths: the
    finest from the TEM run's own values, the coarser two from its noise
    coarsened by 2 and 4. At seed 7 z is -0.44, -0.24 and -0.10. Dropping
    one fine Poisson count per coarse step (exact mean at 2 delta 2.93, not
    9.62) or sampling the chain with T(2 delta) (10.19 becomes 11.16) fails
    it."""
    policy = default_mu_for(JUMPS_ONLY, psi_exponent=2 / 3)
    delta, num_paths = 2.0**-6, 10**4
    deltas = [4 * delta, 2 * delta, delta]
    first, second = (moment_curves(JUMPS_ONLY, policy, deltas, 1.5, p, num_paths, 7,
                                   threads=2) for p in (1.0, 2.0))
    assert sorted(first) == sorted(deltas)
    for step, curve in first.items():
        # every path stays at or above 1, so |X| is X
        mean = curve[-1]
        std_error = np.sqrt((second[step][-1] - mean**2) / num_paths)
        z = (mean - exact_moments(JUMPS_ONLY, step, len(curve) - 1).sum()) / std_error
        assert abs(z) < 3.0, (step, z)


def test_each_regime_has_its_exact_moment_at_every_level():
    """E[X_K 1{r_K = j}] per regime, 10^4 paths at delta = 2^-6 over 16
    steps and on that noise coarsened by 2 and 4, with jumps at intensity
    16. r_K is read off the drawn regimes through a tap, as the chunk
    pipeline reads them. At seed 7 |z| is at most 1.6. The chain stepped
    with T(2 delta) reaches z = 22, a coarse step's regime taken at the
    last fine node of the step z = 12.6 (regime 2 at factor 4)."""
    spec = replace(JUMPS_ONLY, jump_intensity=16.0)
    policy = default_mu_for(spec, psi_exponent=2 / 3)
    delta, horizon, num_paths = 2.0**-6, 0.25, 10**4
    grid = resolve_grid(spec.tau, delta, horizon)
    blocks = []
    noise = draw_batch_noise(spec, grid, 7, np.arange(num_paths)).tap(blocks.append)
    fine = simulate_tem_batch(spec, policy, grid, noise)
    regime = blocks[-1][2][:, -1]
    for factor in (1, 2, 4):
        coarse = resolve_grid(spec.tau, factor * delta, horizon)
        values = fine if factor == 1 else simulate_tem_batch(
            spec, policy, coarse,
            NoiseBlocks((num_paths, coarse.num_steps),
                        [coarsen_batch(*block, factor) for block in blocks]))
        exact = exact_moments(spec, coarse.delta, coarse.num_steps)
        for j, m in enumerate(exact, start=1):
            z = z_score(values[:, -1] * (regime == j), m)
            assert abs(z) < 3.0, (factor, j, z)


MARTINGALE = replace(JUMPS_ONLY, regimes=(RegimeParams(0.0, 0.0, 0.0, 0.0, 0.0),) * 2,
                     jump_intensity=0.0, volatility=build_volatility("sigmoid_s5"))


def _last_node(values, _fine=None):
    return values[:, -1]


def test_zero_drift_is_a_martingale_at_every_level():
    """E[X_K] = 1 at delta = 2^-6 and at factors 2 and 4 of one chunk's
    noise, 10^4 paths over horizon 1, with the delayed sigmoid volatility.
    At q = 1/2 the band's upper edge is 1.63 at 2^-6 and 1.15 at 2^-4, so
    g is clamped on a share of the steps. At seed 7 z is -1.07 to -1.22.
    The diffusion taken at the post-step state adds about
    phi^2 g g' delta per step: z = 35 to 44."""
    policy = default_mu_for(MARTINGALE, psi_exponent=0.5)
    delta, horizon, num_paths = 2.0**-6, 1.0, 10**4
    grid = resolve_grid(MARTINGALE.tau, delta, horizon)
    levels = tuple((partial(simulate_tem_batch, MARTINGALE, policy,
                            resolve_grid(MARTINGALE.tau, factor * delta, horizon)), factor,
                    _last_node)
                   for factor in (2, 4))
    lasts = estimators._chunk(MARTINGALE, policy, grid, 7, (_last_node,), levels,
                              (0, num_paths))
    for factor, last in zip((1, 2, 4), lasts):
        z = z_score(last, 1.0)
        assert abs(z) < 3.0, (factor, z)
        # the band binds: paths end above its upper edge, where g is clamped
        assert (last > truncation_band(factor * delta, policy)[1]).mean() > 0.05


def test_each_regime_has_its_exact_second_moment_at_every_level():
    """E[X_K^2 1{r_K = j}] per regime, 2 x 10^4 paths at delta = 2^-5 over 8
    steps and on that noise coarsened by 2 and 4, with a3 halved to
    (0.025, 0.3) and jumps at intensity 24: lambda delta = 3/4, so the
    count's square adds a3^2 (lambda delta)^2 to regime 2's growth, 3 % of
    it per step. At seed 7 |z| is at most 1.8. One Bernoulli count of the
    same mean per fine step reaches z = -15.7 (regime 2 at factor 1) and
    passes every first-moment check. X_K^2 is heavy-tailed: over seeds 1 to
    20 the largest |z| passes 3 at one seed (3.6)."""
    spec = replace(JUMPS_ONLY, jump_intensity=24.0,
                   regimes=tuple(RegimeParams(0.0, 0.0, 0.0, 0.0, a3 / 2) for a3 in ALPHA_3))
    policy = default_mu_for(spec, psi_exponent=2 / 3)
    delta, horizon, num_paths = 2.0**-5, 0.25, 2 * 10**4
    grid = resolve_grid(spec.tau, delta, horizon)
    blocks = []
    noise = draw_batch_noise(spec, grid, 7, np.arange(num_paths)).tap(blocks.append)
    fine = simulate_tem_batch(spec, policy, grid, noise)
    regime = blocks[-1][2][:, -1]
    zs = []
    for factor in (1, 2, 4):
        coarse = resolve_grid(spec.tau, factor * delta, horizon)
        values = fine if factor == 1 else simulate_tem_batch(
            spec, policy, coarse,
            NoiseBlocks((num_paths, coarse.num_steps),
                        [coarsen_batch(*block, factor) for block in blocks]))
        exact = exact_moments(spec, coarse.delta, coarse.num_steps, power=2)
        zs += [z_score(values[:, -1]**2 * (regime == j), m)
               for j, m in enumerate(exact, start=1)]
    assert np.abs(zs).max() < 3.0, zs


@pytest.mark.parametrize("spec, horizon", [(JUMPS_ONLY, 1.5), (MARTINGALE, 1.0)],
                         ids=["jumps-only", "martingale"])
def test_bem_meets_the_exact_mean(spec, horizon):
    """E[X_K] of BEM, run as the chunk's level of factor 1, 10^4 paths at
    delta = 2^-6: the jumps-only family at intensity 4 over horizon 1.5,
    and the zero-drift martingale with the delayed sigmoid volatility over
    horizon 1. At seed 7 z is -0.44 and -1.12. The martingale's closed form
    is the jumps-only recursion with no jumps: 1."""
    policy = default_mu_for(spec, psi_exponent=0.5)
    delta, num_paths = 2.0**-6, 10**4
    grid = resolve_grid(spec.tau, delta, horizon)
    bem = (partial(simulate_bem_batch, spec, grid), 1, _last_node)
    (last,) = estimators._chunk(spec, policy, grid, 7, (), (bem,), (0, num_paths))
    z = z_score(last, exact_moments(spec, delta, grid.num_steps).sum())
    assert abs(z) < 3.0, z
