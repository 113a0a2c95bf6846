import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from temsim.engine import BLOCK_STEPS
from temsim.regime import (
    GeneratorError,
    GeneratorMatrix,
    _march_chain,
    matrix_exponential,
    sample_chain_path,
    sample_chain_paths_batch,
)
from temsim.rng import substream
from test_engine_blocks import reference_chain

DEMO_GENERATOR = GeneratorMatrix(np.array([[-2.0, 2.0], [1.0, -1.0]]))


def demo_transition_closed_form(delta: float) -> np.ndarray:
    # eigenvalues of the demo generator are 0 and -3, so
    # exp(delta G) = I + (1 - exp(-3 delta))/3 * G
    g = DEMO_GENERATOR.entries
    return np.eye(2) + (1.0 - np.exp(-3.0 * delta)) / 3.0 * g


def one_step(state: int, transition: np.ndarray, u: float) -> int:
    """The sampler's next state from ``state`` on the single uniform ``u``."""
    return int(_march_chain(transition, state, np.array([[u]]))[0, 1])


def reference_march(transition: np.ndarray, initial_state,
                    uniforms: np.ndarray) -> np.ndarray:
    """The block march that looked up every step, kept verbatim but for its
    initial-state check: the march that steps only where a path can switch
    must reproduce it bit for bit."""
    n = transition.shape[0]
    num_paths, num_steps = uniforms.shape
    paths = np.empty((num_paths, num_steps + 1), dtype=np.int64)
    paths[:, 0] = initial_state
    if num_steps == 0:
        return paths
    cum = np.cumsum(transition, axis=1)[:, : n - 1]
    states = paths[:, 0] - 1
    cols = np.arange(num_paths)
    size = min(num_steps, BLOCK_STEPS)
    block = np.empty((size, num_paths), dtype=np.int64)
    for start in range(0, num_steps, size):
        stop = min(start + size, num_steps)
        u = uniforms[:, start:stop].T
        successor = np.count_nonzero(cum[:, None, None, :] <= u[None, :, :, None],
                                     axis=-1)
        for j in range(stop - start):
            states = successor[states, j, cols]
            block[j] = states
        paths[:, start + 1 : stop + 1] = block[: stop - start].T + 1
    return paths


def random_generator(rng, n: int) -> GeneratorMatrix:
    rates = rng.uniform(0.1, 3.0, (n, n))
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    return GeneratorMatrix(rates)


class TestGeneratorMatrix:
    def test_rejects_nonzero_row_sums(self):
        with pytest.raises(GeneratorError):
            GeneratorMatrix(np.array([[-1.0, 0.5], [1.0, -1.0]]))

    def test_rejects_negative_rates(self):
        with pytest.raises(GeneratorError):
            GeneratorMatrix(np.array([[0.5, -0.5], [1.0, -1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(GeneratorError):
            GeneratorMatrix(np.array([[-1.0, 1.0]]))


class TestMatrixExponential:
    def test_demo_against_closed_form(self):
        result = matrix_exponential(DEMO_GENERATOR, 1e-3)
        np.testing.assert_allclose(result,
                                   demo_transition_closed_form(1e-3),
                                   rtol=0.0, atol=1e-9)

    def test_printed_demo_digits(self):
        result = matrix_exponential(DEMO_GENERATOR, 1e-3)
        expected = np.array([[0.9980030, 0.0019970], [0.0009985, 0.9990015]])
        np.testing.assert_allclose(result, expected, atol=5e-8)

    def test_twenty_term_series_oracle(self):
        delta = 0.05
        a = delta * DEMO_GENERATOR.entries
        series = np.eye(2)
        term = np.eye(2)
        for k in range(1, 21):
            term = term @ a / k
            series = series + term
        result = matrix_exponential(DEMO_GENERATOR, delta)
        np.testing.assert_allclose(result, series, rtol=0.0, atol=1e-13)

    def test_tiny_step_is_identity(self):
        result = matrix_exponential(DEMO_GENERATOR, 1e-12)
        np.testing.assert_allclose(result, np.eye(2), atol=1e-10)

    def test_zero_generator_exact_identity(self):
        result = matrix_exponential(GeneratorMatrix(np.zeros((3, 3))), 1.0)
        assert np.array_equal(result, np.eye(3))

    def test_rows_stochastic(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            p = matrix_exponential(random_generator(rng, n), rng.uniform(0.01, 2.0))
            assert np.all(p >= 0.0)
            assert np.all(p <= 1.0)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            g = random_generator(rng, n)
            d1, d2 = rng.uniform(0.01, 0.5, 2)
            whole = matrix_exponential(g, d1 + d2)
            split = matrix_exponential(g, d1) @ matrix_exponential(g, d2)
            np.testing.assert_allclose(whole, split, atol=1e-10)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            matrix_exponential(DEMO_GENERATOR, 0.0)


class TestChainSampling:
    def test_selection_rule_demo(self):
        p = matrix_exponential(DEMO_GENERATOR, 1e-3)
        assert one_step(1, p, 0.5) == 1
        assert one_step(1, p, 0.999) == 2
        assert one_step(2, p, 0.0) == 1

    def test_identity_matrix_absorbs(self):
        p = np.eye(3)
        for state in (1, 2, 3):
            for u in (0.0, 0.3, 0.999999):
                assert one_step(state, p, u) == state

    def test_boundary_equality_moves_to_next_state(self):
        # cumulative sums are [0.3, 1.0]: u exactly 0.3 selects state 2
        p = np.array([[0.3, 0.7], [0.5, 0.5]])
        assert one_step(1, p, 0.3) == 2
        assert one_step(1, p, 0.2999999999) == 1

    def test_deterministic_in_inputs(self):
        p = matrix_exponential(DEMO_GENERATOR, 0.01)
        assert all(one_step(1, p, 0.42) == one_step(1, p, 0.42)
                   for _ in range(5))

    def test_path_length_zero(self):
        stream = substream(0, 0, 2)
        path = sample_chain_path(DEMO_GENERATOR, 2, 0.01, 0, stream)
        assert path.tolist() == [2]

    def test_zero_generator_constant_path(self):
        stream = substream(0, 0, 2)
        path = sample_chain_path(GeneratorMatrix(np.zeros((2, 2))), 2, 0.01, 50, stream)
        assert np.all(path == 2)

    def test_occupation_matches_stationary(self):
        stream = substream(123, 0, 2)
        path = sample_chain_path(DEMO_GENERATOR, 1, 0.01, 100_000, stream)
        occupation = np.bincount(path, minlength=3)[1:] / path.size
        np.testing.assert_allclose(occupation, [1 / 3, 2 / 3], atol=0.02)

    def test_batch_matches_scalar(self):
        num_steps = 200
        uniforms = np.vstack([
            substream(9, idx, 2).random(num_steps) for idx in range(4)
        ])
        batch = sample_chain_paths_batch(DEMO_GENERATOR, 1, 0.01, num_steps, uniforms)
        for idx in range(4):
            scalar = reference_chain(DEMO_GENERATOR, 1, 0.01, num_steps,
                                     substream(9, idx, 2))
            np.testing.assert_array_equal(batch[idx], scalar)

    @pytest.mark.parametrize("state", [0, -1, 3])
    def test_state_outside_space_rejected(self, state):
        # 0 and -1 would index the table of partial sums and give wrong paths
        uniforms = substream(0, 0, 2).random((2, 5))
        with pytest.raises(ValueError, match="outside 1..2"):
            sample_chain_paths_batch(DEMO_GENERATOR, state, 0.01, 5, uniforms)
        with pytest.raises(ValueError, match="outside 1..2"):
            sample_chain_path(DEMO_GENERATOR, state, 0.01, 5, substream(0, 0, 2))

    @pytest.mark.parametrize("shape", [(5,), (1, 2, 5), (2, 4)])
    def test_uniforms_shape_rejected(self, shape):
        uniforms = substream(0, 0, 2).random(shape)
        with pytest.raises(ValueError, match="shape"):
            sample_chain_paths_batch(DEMO_GENERATOR, 1, 0.01, 5, uniforms)

    def test_empirical_one_step_frequencies(self):
        # one vectorized step from each state, a million draws
        p = matrix_exponential(DEMO_GENERATOR, 0.3)
        rng = np.random.default_rng(31)
        n = 1_000_000
        for state in (1, 2):
            uniforms = rng.random((n, 1))
            nxt = sample_chain_paths_batch(DEMO_GENERATOR, state, 0.3, 1, uniforms)[:, 1]
            for j in (1, 2):
                freq = np.mean(nxt == j)
                prob = p[state - 1, j - 1]
                se = np.sqrt(prob * (1.0 - prob) / n)
                assert abs(freq - prob) <= 3.0 * se + 1e-12


# the largest double below 1.0, the top of a uniform draw's range
_BELOW_ONE = np.nextafter(1.0, 0.0)


@st.composite
def chain_cases(draw):
    """A generator, a step, a start and uniforms for :func:`_march_chain`.

    The rates are slow (a switch every few thousand steps) or fast (one on
    most steps); a state may be absorbing, or the whole generator zero. A
    drawn share of the uniforms is replaced by the transition's partial
    sums, where the selection rule moves to the next state, by 0.0 and by
    the largest double below 1.0.
    """
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rates = rng.uniform(0.1, 3.0, (n, n)) * draw(st.sampled_from([0.02, 1.0, 60.0]))
    shape = draw(st.sampled_from(["full", "absorbing", "zero"]))
    if shape == "absorbing":
        rates[draw(st.integers(0, n - 1))] = 0.0
    elif shape == "zero":
        rates[:] = 0.0
    np.fill_diagonal(rates, 0.0)
    np.fill_diagonal(rates, -rates.sum(axis=1))
    transition = matrix_exponential(GeneratorMatrix(rates),
                                    draw(st.sampled_from([2.0**-14, 1e-3, 1e-2, 2.0**-7])))
    num_paths = draw(st.integers(1, 5))
    num_steps = draw(st.sampled_from([0, 1, 255, 256, 257, 1025]))
    uniforms = rng.random((num_paths, num_steps))
    edges = np.concatenate([np.cumsum(transition, axis=1).ravel(), [0.0, _BELOW_ONE]])
    edges = edges[edges < 1.0]
    placed = rng.random(uniforms.shape) < draw(st.sampled_from([0.0, 0.01, 0.5, 1.0]))
    uniforms[placed] = rng.choice(edges, placed.sum())
    if draw(st.booleans()):
        initial = int(rng.integers(1, n + 1))
    else:
        initial = rng.integers(1, n + 1, num_paths)
    return transition, initial, uniforms


class TestChainMarch:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(chain_cases())
    def test_matches_reference_march(self, case):
        transition, initial, uniforms = case
        np.testing.assert_array_equal(_march_chain(transition, initial, uniforms),
                                      reference_march(transition, initial, uniforms))

    def test_every_step_moves(self):
        # fast rates at 2^-7: some path switches on every step, so no step
        # is skipped
        generator = GeneratorMatrix(np.array([[-40.0, 40.0], [20.0, -20.0]]))
        transition = matrix_exponential(generator, 2.0**-7)
        uniforms = substream(17, 0, 2).random((128, 1025))
        expected = reference_march(transition, 1, uniforms)
        assert (np.diff(expected, axis=1) != 0).any(axis=0).all()
        np.testing.assert_array_equal(
            sample_chain_paths_batch(generator, 1, 2.0**-7, 1025, uniforms), expected)
