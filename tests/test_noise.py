import math

import numpy as np
import pytest

from temsim.engine import coarsen_batch
from temsim.noise import make_noise
from temsim.rng import CHANNEL_BROWNIAN, CHANNEL_CHAIN, CHANNEL_POISSON, \
    path_streams, substream


class TestStreams:
    def test_reproducible(self):
        a = substream(42, 3, CHANNEL_BROWNIAN).standard_normal(8)
        b = substream(42, 3, CHANNEL_BROWNIAN).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_channels_distinct(self):
        draws = {
            ch: substream(42, 0, ch).random(6).tolist()
            for ch in (CHANNEL_BROWNIAN, CHANNEL_POISSON, CHANNEL_CHAIN)
        }
        assert draws[CHANNEL_BROWNIAN] != draws[CHANNEL_POISSON]
        assert draws[CHANNEL_BROWNIAN] != draws[CHANNEL_CHAIN]

    def test_paths_distinct(self):
        a = substream(42, 0, CHANNEL_BROWNIAN).random(6)
        b = substream(42, 1, CHANNEL_BROWNIAN).random(6)
        assert not np.array_equal(a, b)

    def test_negative_path_rejected(self):
        with pytest.raises(ValueError):
            substream(1, -1, 0)


class TestMakeNoise:
    def test_zero_intensity_no_jumps(self):
        _, poisson = make_noise(0.01, 500, 0.0, path_streams(0, 0))
        assert np.all(poisson == 0)

    def test_poisson_mean(self):
        # mean of increments is lambda * delta; tolerance 3 standard errors
        _, poisson = make_noise(0.01, 1_000_000, 1.0, path_streams(123, 0))
        tol = 3.0 * np.sqrt(0.01 / 1_000_000)
        assert abs(poisson.mean() - 0.01) <= tol

    def test_brownian_variance(self):
        brownian, _ = make_noise(0.01, 1_000_000, 0.0, path_streams(7, 0))
        assert brownian.var() == pytest.approx(0.01, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_noise(0.0, 10, 1.0, path_streams(0, 0))
        with pytest.raises(ValueError):
            make_noise(0.01, 10, -1.0, path_streams(0, 0))

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, delta):
        # NaN passes a `delta <= 0` check and would scale every increment
        # to NaN
        with pytest.raises(ValueError, match="positive and finite"):
            make_noise(delta, 3, 1.0, path_streams(0, 0))


class TestCoarsen:
    def test_factor_one_returns_copies(self):
        # factor 1 keeps every value, in new arrays like every other factor
        rng = np.random.default_rng(3)
        b, p = rng.standard_normal((2, 16)), rng.poisson(1.0, (2, 16))
        r = rng.integers(1, 3, (2, 17))
        coarse = coarsen_batch(b, p, r, 1)
        for c, f in zip(coarse, (b, p, r)):
            np.testing.assert_array_equal(c, f)
            assert c.dtype == f.dtype and not np.shares_memory(c, f)

    def test_block_sums(self):
        brownian = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, -0.5, 2.0, 1.0]])
        poisson = np.array([[1, 0, 2, 1], [0, 0, 3, 0]])
        coarse_b, coarse_p, _ = coarsen_batch(brownian, poisson,
                                              np.ones((2, 5), dtype=np.int64), 2)
        np.testing.assert_array_equal(coarse_b, [[3.0, 7.0], [0.0, 3.0]])
        np.testing.assert_array_equal(coarse_p, [[1, 3], [0, 3]])
        assert coarse_p.dtype == poisson.dtype

    def test_conservation_exact(self):
        rows = [make_noise(2**-10, 2**12, 2.0, path_streams(5, idx)) for idx in range(3)]
        brownian, poisson = map(np.array, zip(*rows))
        regimes = np.ones((3, 2**12 + 1), dtype=np.int64)
        for factor in (2, 8, 64):
            coarse_b, coarse_p, _ = coarsen_batch(brownian, poisson, regimes, factor)
            np.testing.assert_array_equal(coarse_p.sum(axis=1), poisson.sum(axis=1))
            np.testing.assert_allclose(coarse_b.sum(axis=1), brownian.sum(axis=1),
                                       rtol=1e-12)

    def test_regime_subsampling(self):
        regimes = np.arange(18).reshape(2, 9)
        _, _, coarse = coarsen_batch(np.zeros((2, 8)), np.zeros((2, 8), dtype=np.int64),
                                     regimes, 4)
        np.testing.assert_array_equal(coarse, [[0, 4, 8], [9, 13, 17]])

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="not divisible"):
            coarsen_batch(np.zeros((2, 10)), np.zeros((2, 10), dtype=np.int64),
                          np.ones((2, 11), dtype=np.int64), 3)
