"""The composed law of the simulated process against a closed form.

With jumps only (zero drift and volatility), a step maps X to
X (1 + a3(r) dN), where dN is the step's Poisson count and r the regime at
the step's left node. The counts are independent of the chain, so
m_k[j] = E[X_k 1{r_k = j}] follows m_{k+1} = (m_k * (1 + a3 lambda delta)) T
with T = exp(delta Q), and E[X_K] is the sum of m_K. A coarse level runs
on the fine counts summed and the fine regimes at its own nodes, so the
same recursion holds at its step: this checks the Poisson draw, the
chain, the coarsening, the jump coefficient and the step rule together.
"""

import numpy as np

from temsim.estimators import moment_curves
from temsim.model import ModelSpec, RegimeParams, build_volatility, constant_segment
from temsim.regime import GeneratorMatrix, matrix_exponential
from temsim.truncation import default_mu_for

ALPHA_3 = np.array([0.05, 0.6])
INTENSITY = 4.0
GENERATOR = GeneratorMatrix(np.array([[-2.0, 2.0], [1.0, -1.0]]))
JUMPS_ONLY = ModelSpec(
    regimes=tuple(RegimeParams(0.0, 0.0, 0.0, 0.0, a3) for a3 in ALPHA_3),
    rho=2.0, theta=1.25, tau=1.0, jump_intensity=INTENSITY,
    volatility=build_volatility("zero"), initial_segment=constant_segment(1.0),
    generator=GENERATOR, initial_regime=1, include_inverse_drift=False,
)


def exact_mean(delta, num_steps):
    """E[X_K] of the scheme at step ``delta`` after ``num_steps`` steps, from X_0 = 1."""
    transition = matrix_exponential(GENERATOR, delta)
    growth = 1.0 + ALPHA_3 * INTENSITY * delta
    m = np.zeros(len(ALPHA_3))
    m[JUMPS_ONLY.initial_regime - 1] = 1.0
    for _ in range(num_steps):
        m = (m * growth) @ transition
    return m.sum()


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
        z = (mean - exact_mean(step, len(curve) - 1)) / std_error
        assert abs(z) < 3.0, (step, z)

