"""The step rules against the formulas they replaced, bit for bit.

``ReferenceTables`` keeps the earlier coefficient formulas verbatim: the
drift's power term as ``sign(x) |x|^rho``, ``|x|`` in the drift's
derivative, and ``where`` masks in the diffusion and the jump. The
reference TEM rule clamps the drift's argument from below first, takes the
diffusion's own upper clamp and adds the jump term on every step; the
reference BEM rule adds it on every step too, and runs the solve on the
reference tables. The rules of the engine skip the jump term on a step
where no path of the row jumps, as the block loop does. On finite outputs
the two must agree byte for byte, on rows that mix values inside the band,
on both sides of it, at its edges, at +-0.0, subnormals and negatives; with
an infinite or NaN state the same positions must be non-finite (an
infinite state times a zero count is NaN in the reference, infinite in the
engine), and BEM must raise in both.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temsim.config import two_regime_demo
from temsim.engine import (
    CoefficientTables,
    Grid,
    NoiseBlocks,
    SimulationError,
    bem_update,
    implicit_drift_solve,
    initial_values,
    simulate_bem_batch,
    simulate_tem_batch,
    tem_update,
)
from temsim.estimators import CHUNK_SIZE
from temsim.model import constant_segment
from temsim.truncation import default_mu_for, truncation_band

DELTA = 1e-3
# noise without replay coordinates: a failed solve at step 0 names its batch row
UNDRAWN = NoiseBlocks((0, 0), ())


class ReferenceTables(CoefficientTables):
    """The coefficient formulas the step rules used to run on."""

    def drift(self, x, ridx):
        power = np.sign(x) * np.abs(x) ** self.rho
        out = self.a1[ridx] * x - self.a0[ridx] - self.a2[ridx] * power
        if self.include_inverse:
            out = out + self.a_m1[ridx] / x
        return out

    def drift_derivative(self, x, ridx):
        out = self.a1[ridx] - self.a2[ridx] * self.rho * np.abs(x) ** (self.rho - 1.0)
        if self.include_inverse:
            out = out - self.a_m1[ridx] / (x * x)
        return out

    def diffusion(self, x):
        return np.where(x > 0.0, np.maximum(x, 0.0) ** self.theta, 0.0)

    def jump(self, x, ridx):
        return np.where(x > 0.0, self.a3[ridx] * x, 0.0)

    def truncated_drift(self, x, ridx, lower, upper):
        return self.drift(np.minimum(np.maximum(x, lower), upper), ridx)

    def truncated_diffusion(self, x, upper):
        return self.diffusion(np.minimum(x, upper))


def reference_tem_update(x, rows, ridx, phi, d_b, d_n, delta, lower, upper):
    fd = rows.truncated_drift(x, ridx, lower, upper)
    gd = rows.truncated_diffusion(x, upper)
    return x + fd * delta + phi * gd * d_b + rows.jump(x, ridx) * d_n


def reference_bem_update(x, rows, ridx, phi, d_b, d_n, delta):
    target = x + phi * rows.diffusion(x) * d_b + rows.jump(x, ridx) * d_n
    return implicit_drift_solve(rows, ridx, target, delta, UNDRAWN, 0)


def case(spec, psi_exponent):
    policy = default_mu_for(spec, psi_exponent=psi_exponent, mu_preset="power_fit")
    return spec, truncation_band(DELTA, policy)


# the demo (rho = 2 takes numpy's square) with and without the 1/x term, and
# rho = 1.7, theta = 3 (numpy's general pow, an odd-integer theta)
CASES = [
    case(two_regime_demo(), 2 / 3),
    case(replace(two_regime_demo(), include_inverse_drift=False), 0.25),
    case(replace(two_regime_demo(), rho=1.7, theta=3.0), 2 / 3),
]

TINY = 5e-324


def states(lower, upper, non_finite):
    near_edges = [lower, upper, np.nextafter(upper, 0.0), np.nextafter(upper, np.inf),
                  np.nextafter(lower, 0.0), np.nextafter(lower, np.inf)]
    parts = [
        st.floats(lower, upper),                      # inside the band
        st.floats(0.0, lower, exclude_min=True),      # below it, positive
        st.floats(upper, 1e6),                        # above it
        st.floats(-1e6, 0.0, exclude_max=True),       # negative
        st.sampled_from([0.0, -0.0, TINY, -TINY, 1e-310, -1e-310, *near_edges]),
    ]
    if non_finite:
        parts.append(st.sampled_from([math.nan, math.inf, -math.inf]))
    return st.one_of(*parts)


@st.composite
def step_rows(draw, non_finite=False):
    spec, (lower, upper) = draw(st.sampled_from(CASES))
    width = draw(st.integers(1, 12))
    x = np.array(draw(st.lists(states(lower, upper, non_finite),
                               min_size=width, max_size=width)))
    if non_finite and np.isfinite(x).all():
        x[draw(st.integers(0, width - 1))] = draw(st.sampled_from([math.nan, math.inf,
                                                                   -math.inf]))
    floats = lambda lo, hi: np.array(draw(st.lists(st.floats(lo, hi), min_size=width,
                                                   max_size=width)))
    phi, d_b = floats(0.0, 0.6), floats(-0.5, 0.5)
    if draw(st.booleans()):
        d_n = np.zeros(width)
    else:
        d_n = np.array(draw(st.lists(st.integers(0, 3), min_size=width,
                                     max_size=width)), dtype=float)
    ridx = np.array(draw(st.lists(st.integers(0, spec.num_regimes - 1),
                                  min_size=width, max_size=width)))
    return spec, lower, upper, x, phi, d_b, d_n, ridx


def engine_rows(tables, ridx):
    """The block loop's form: one row of gathered coefficient tables."""
    return tables.gather(ridx[None, :]), 0


def assert_same_bits(got, want):
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert got[finite].tobytes() == want[finite].tobytes()


def outcome(rule, *args):
    try:
        with np.errstate(all="ignore"):
            return rule(*args)
    except SimulationError as err:
        return err


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=step_rows())
def test_step_rules_match_reference_bitwise(rows):
    spec, lower, upper, x, phi, d_b, d_n, ridx = rows
    live, j = engine_rows(CoefficientTables(spec), ridx)
    ref, _ = engine_rows(ReferenceTables(spec), ridx)
    jumps = d_n if d_n.any() else None
    lower, upper, delta = np.asarray(lower), np.asarray(upper), np.asarray(DELTA)
    with np.errstate(all="ignore"):
        got = tem_update(x, live, j, phi, d_b, jumps, 0, delta, lower, upper)
        want = reference_tem_update(x, ref, j, phi, d_b, d_n, delta, lower, upper)
    assert np.isfinite(want).all()
    assert got.tobytes() == want.tobytes()

    got = outcome(bem_update, x, live, j, phi, d_b, jumps, 0, DELTA, UNDRAWN)
    want = outcome(reference_bem_update, x, ref, j, phi, d_b, d_n, DELTA)
    if isinstance(want, SimulationError):
        assert str(got) == str(want)
    else:
        assert isinstance(got, np.ndarray)
        assert_same_bits(got, want)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=step_rows(non_finite=True))
def test_non_finite_states_stay_non_finite(rows):
    spec, lower, upper, x, phi, d_b, d_n, ridx = rows
    live, j = engine_rows(CoefficientTables(spec), ridx)
    ref, _ = engine_rows(ReferenceTables(spec), ridx)
    jumps = d_n if d_n.any() else None
    lower, upper, delta = np.asarray(lower), np.asarray(upper), np.asarray(DELTA)
    with np.errstate(all="ignore"):
        got = tem_update(x, live, j, phi, d_b, jumps, 0, delta, lower, upper)
        want = reference_tem_update(x, ref, j, phi, d_b, d_n, delta, lower, upper)
    assert not np.isfinite(want[~np.isfinite(x)]).any()
    assert_same_bits(got, want)

    # a non-finite target has no bracket end; which end fails first may
    # differ, the error may not
    assert isinstance(outcome(bem_update, x, live, j, phi, d_b, jumps, 0, DELTA, UNDRAWN),
                      SimulationError)
    assert isinstance(outcome(reference_bem_update, x, ref, j, phi, d_b, d_n, DELTA),
                      SimulationError)


@pytest.mark.parametrize("spec,band", CASES[:2])
def test_diffusion_is_nan_at_nan(spec, band):
    # g(x) = max(x, 0)^theta propagates NaN; the masked form returned 0.0
    policy = default_mu_for(spec, psi_exponent=0.5)
    tables = CoefficientTables(spec)
    nan = np.array([math.nan])
    assert math.isnan(tables.diffusion(nan)[0])
    assert math.isnan(tables.truncated(nan, 0, *truncation_band(DELTA, policy))[1][0])
    xs = np.array([math.nan, -math.inf, -1.0, -0.0, 0.0, TINY, 1.0, math.inf])
    got = tables.diffusion(xs)
    assert math.isnan(got[0])
    assert got[1:].tobytes() == ReferenceTables(spec).diffusion(xs)[1:].tobytes()


def switching_blocks():
    """(B, P) regime indices: no switch, a path switching every step, and
    one switch on the last step only."""
    steps, paths = 9, 5
    still = np.zeros((steps, paths), dtype=np.int64)
    every = still.copy()
    every[:, 2] = np.arange(steps) % 2
    last = still.copy()
    last[-1, 4] = 1
    return {"none": (still, 1), "every step": (every, steps), "last step": (last, 2)}


@pytest.mark.parametrize("spec", [spec for spec, _ in CASES[:2]])
@pytest.mark.parametrize("block", list(switching_blocks()))
def test_gathered_rows_equal_the_per_step_gather(spec, block):
    # a row is made only at a step where some path's regime differs from
    # the step before, and the steps between share it
    ridx, made = switching_blocks()[block]
    tables = CoefficientTables(spec)
    rows = tables.gather(ridx)
    names = ["a0", "a1", "a2", "a3"] + (["a_m1"] if spec.include_inverse_drift else [])
    for name in names:
        gathered = getattr(rows, name)
        assert len(gathered) == len(ridx)
        for j, step in enumerate(ridx):
            per_step = getattr(tables, name)[step]
            assert gathered[j].flags.c_contiguous
            assert gathered[j].tobytes() == per_step.tobytes()
        assert len({id(row) for row in gathered}) == made


@pytest.mark.parametrize("spec", [spec for spec, _ in CASES[:2]])
def test_gathered_rows_carry_the_inverse_coefficient_only_with_its_term(spec):
    # without the 1/x term nothing reads a_m1, so the rows carry none and a
    # read of it fails instead of returning a coefficient nothing uses
    tables = CoefficientTables(spec)
    ridx = np.array([[0, 1, 1], [1, 0, 0]])
    rows = tables.gather(ridx)
    for name in ("a0", "a1", "a2", "a3"):
        assert [list(row) for row in getattr(rows, name)] == \
            [list(row) for row in getattr(tables, name)[ridx]]
    if spec.include_inverse_drift:
        assert [list(row) for row in rows.a_m1] == [list(row) for row in tables.a_m1[ridx]]
    else:
        assert rows.a_m1 is None
        with pytest.raises(TypeError):
            rows.a_m1[0]


# the march at the estimators' chunk width against the reference rules
# stepped one node at a time: consecutive steps of the engine share its
# block scratch, which a single call of a rule cannot show. rho = 1.7 keeps
# the demo's theta, so that 1 + rho > 2 theta and the paths stay finite
MARCH_SPECS = {
    "rho 2": two_regime_demo(),
    "rho 2 without 1/x": replace(two_regime_demo(), include_inverse_drift=False),
    "rho 1.7": replace(two_regime_demo(), rho=1.7),
    "rho 1.7 without 1/x": replace(two_regime_demo(), rho=1.7, include_inverse_drift=False),
}
MARCH_DELTA = 0.01


def hand_built_noise(num_paths, num_steps, widths, seed):
    """Noise of ``num_paths`` rows in draw blocks of ``widths`` steps: wide
    Brownian increments that carry states across both band edges, jumps on
    every third step only, and regimes that switch at random."""
    rng = np.random.default_rng(seed)
    brownian = rng.normal(0.0, 3.0 * math.sqrt(MARCH_DELTA), (num_paths, num_steps))
    poisson = np.zeros((num_paths, num_steps), dtype=np.int64)
    poisson[:, ::3] = rng.poisson(0.05, (num_paths, len(range(0, num_steps, 3))))
    regimes = rng.integers(1, 3, (num_paths, num_steps + 1))
    blocks, start = [], 0
    for width in widths:
        blocks.append((brownian[:, start:start + width], poisson[:, start:start + width],
                       regimes[:, start:start + width + 1]))
        start += width
    assert start == num_steps
    return brownian, poisson, regimes, NoiseBlocks((num_paths, num_steps), blocks)


def reference_march(spec, grid, update, brownian, poisson, regimes):
    """``update(x, tables, ridx, phi, d_b, d_n)`` from node 0 to node K, one
    node at a time on the reference tables, every path at once."""
    tables = ReferenceTables(spec)
    m = grid.tau_steps
    values = np.empty((brownian.shape[0], m + grid.num_steps + 1))
    values[:, : m + 1] = initial_values(spec, grid)
    for k in range(grid.num_steps):
        phi = spec.volatility.evaluate_many(values[:, k], regimes[:, k])
        values[:, m + k + 1] = update(values[:, m + k], tables, regimes[:, k] - 1, phi,
                                      brownian[:, k], poisson[:, k].astype(float))
    return values


@pytest.mark.parametrize("tau_steps", [1, 4])
@pytest.mark.parametrize("name", list(MARCH_SPECS))
def test_march_at_chunk_width_matches_reference_steps_bitwise(name, tau_steps):
    spec = replace(MARCH_SPECS[name], tau=tau_steps * MARCH_DELTA,
                   initial_segment=constant_segment(1.0))
    policy = default_mu_for(spec, psi_exponent=2 / 3, mu_preset="power_fit")
    grid = Grid(delta=MARCH_DELTA, tau_steps=tau_steps, num_steps=30)
    lower, upper = truncation_band(grid.delta, policy)
    brownian, poisson, regimes, noise = hand_built_noise(CHUNK_SIZE, 30, (7, 1, 22),
                                                         seed=tau_steps)
    jumped = poisson.any(axis=0)
    assert jumped.any() and not jumped.all()

    with np.errstate(all="ignore"):
        tem = simulate_tem_batch(spec, policy, grid, noise)
        want = reference_march(
            spec, grid, lambda x, tables, ridx, phi, d_b, d_n: reference_tem_update(
                x, tables, ridx, phi, d_b, d_n, np.asarray(grid.delta), np.asarray(lower),
                np.asarray(upper)),
            brownian, poisson, regimes)
    assert tem.shape == (CHUNK_SIZE, tau_steps + 31)
    # the band binds on both sides somewhere in the march
    assert (tem < lower).any() and (tem > upper).any()
    assert tem.tobytes() == want.tobytes()

    with np.errstate(all="ignore"):
        bem = simulate_bem_batch(spec, grid, noise)
        want = reference_march(
            spec, grid, lambda x, tables, ridx, phi, d_b, d_n: reference_bem_update(
                x, tables, ridx, phi, d_b, d_n, grid.delta),
            brownian, poisson, regimes)
    assert bem.tobytes() == want.tobytes()
