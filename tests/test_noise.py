import dataclasses
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from temsim.engine import coarsen_batch
from temsim.noise import (
    NoiseIncrements,
    load_noise,
    make_noise,
    save_noise,
)
from temsim.rng import CHANNEL_BROWNIAN, CHANNEL_CHAIN, CHANNEL_POISSON, \
    path_streams, substream

# the f64 delta field of a record header follows magic, version, seed and
# path index
DELTA_OFFSET = struct.calcsize("<4sIQQ")
# and its u64 step count follows delta, delay steps and jump intensity
K_OFFSET = struct.calcsize("<4sIQQdQd")


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
        noise = make_noise(0.01, 500, 0.0, path_streams(0, 0))
        assert np.all(noise.poisson == 0)

    def test_poisson_mean(self):
        # mean of increments is lambda * delta; tolerance 3 standard errors
        noise = make_noise(0.01, 1_000_000, 1.0, path_streams(123, 0))
        tol = 3.0 * np.sqrt(0.01 / 1_000_000)
        assert abs(noise.poisson.mean() - 0.01) <= tol

    def test_brownian_variance(self):
        noise = make_noise(0.01, 1_000_000, 0.0, path_streams(7, 0))
        assert noise.brownian.var() == pytest.approx(0.01, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_noise(0.0, 10, 1.0, path_streams(0, 0))
        with pytest.raises(ValueError):
            make_noise(0.01, 10, -1.0, path_streams(0, 0))
        with pytest.raises(ValueError):
            NoiseIncrements(delta=0.01, brownian=np.zeros(3),
                            poisson=np.array([0, -1, 0]))

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="positive and finite"):
            NoiseIncrements(delta=delta, brownian=np.zeros(3),
                            poisson=np.zeros(3, dtype=np.int64))
        # nor can such a record be made for replay: not by replacing the
        # step of a drawn record, not by loading a saved one whose delta
        # field reads NaN or inf
        noise = make_noise(0.01, 4, 1.0, path_streams(0, 0))
        with pytest.raises(ValueError, match="positive and finite"):
            dataclasses.replace(noise, delta=delta)
        buffer = io.BytesIO()
        save_noise(noise, buffer, seed=0, path_index=0, tau_steps=100,
                   jump_intensity=1.0)
        record = bytearray(buffer.getvalue())
        struct.pack_into("<d", record, DELTA_OFFSET, delta)
        with pytest.raises(ValueError, match="positive and finite"):
            load_noise(io.BytesIO(bytes(record)))


class TestCoarsen:
    def test_identity_factor(self):
        b, p = np.zeros((2, 16)), np.zeros((2, 16), dtype=np.int64)
        r = np.ones((2, 17), dtype=np.int64)
        coarse = coarsen_batch(b, p, r, 1)
        assert all(c is f for c, f in zip(coarse, (b, p, r)))

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
        brownian = np.array([noise.brownian for noise in rows])
        poisson = np.array([noise.poisson for noise in rows])
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


class TestBinaryRecord:
    def test_round_trip(self):
        noise = make_noise(0.001, 64, 1.5, path_streams(77, 4))
        noise = NoiseIncrements(noise.delta, noise.brownian, noise.poisson,
                                regimes=np.random.default_rng(0).integers(1, 3, 65))
        buffer = io.BytesIO()
        save_noise(noise, buffer, seed=77, path_index=4, tau_steps=1000,
                   jump_intensity=1.5)
        buffer.seek(0)
        loaded, header = load_noise(buffer)
        np.testing.assert_array_equal(loaded.brownian, noise.brownian)
        np.testing.assert_array_equal(loaded.poisson, noise.poisson)
        np.testing.assert_array_equal(loaded.regimes, noise.regimes)
        assert loaded.delta == noise.delta
        assert header == {"seed": 77, "path_index": 4, "delta": 0.001,
                          "tau_steps": 1000, "jump_intensity": 1.5}

    def test_round_trip_without_regimes(self):
        noise = make_noise(0.5, 3, 0.0, path_streams(0, 0))
        buffer = io.BytesIO()
        save_noise(noise, buffer, seed=0, path_index=0, tau_steps=2,
                   jump_intensity=0.0)
        buffer.seek(0)
        loaded, _ = load_noise(buffer)
        assert loaded.regimes is None

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            load_noise(io.BytesIO(b"JUNKJUNKJUNKJUNK" * 8))

    @pytest.mark.parametrize("with_regimes", [False, True])
    def test_truncated_record_rejected(self, with_regimes):
        noise = make_noise(0.01, 4, 1.0, path_streams(3, 1))
        if with_regimes:
            noise = NoiseIncrements(noise.delta, noise.brownian, noise.poisson,
                                    regimes=np.ones(5, dtype=np.int64))
        buffer = io.BytesIO()
        save_noise(noise, buffer, seed=3, path_index=1, tau_steps=100,
                   jump_intensity=1.0)
        record = buffer.getvalue()
        assert len(record) == 57 + 16 * 4 + (8 * 5 if with_regimes else 0)
        for cut in range(len(record)):
            with pytest.raises(ValueError, match="noise record truncated"):
                load_noise(io.BytesIO(record[:cut]))
        loaded, _ = load_noise(io.BytesIO(record))
        assert loaded.num_steps == 4

    @pytest.mark.parametrize("num_steps", [2**62, 2**64 - 1])
    def test_impossible_step_count_rejected(self, num_steps):
        # a one-step record (a 16-byte body) whose header claims num_steps;
        # 8 * num_steps bytes fit no index
        buffer = io.BytesIO()
        save_noise(make_noise(0.01, 1, 1.0, path_streams(3, 1)), buffer, seed=3,
                   path_index=1, tau_steps=100, jump_intensity=1.0)
        record = bytearray(buffer.getvalue())
        struct.pack_into("<Q", record, K_OFFSET, num_steps)
        with pytest.raises(ValueError,
                           match=f"noise record truncated: read 16 of {8 * num_steps} bytes"):
            load_noise(io.BytesIO(bytes(record)))


U64_MAX = 2**64 - 1
U64 = st.integers(0, U64_MAX)


@st.composite
def records(draw):
    k = draw(st.integers(0, 300))
    return NoiseIncrements(
        delta=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        brownian=draw(arrays(np.float64, k, elements=st.floats(width=64))),
        poisson=draw(arrays(np.int64, k, elements=st.integers(0, 2**63 - 1))),
        regimes=draw(st.none() | arrays(np.int64, k + 1, elements=st.integers(1, 8))),
    )


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(noise=records(), seed=U64, path_index=U64, tau_steps=U64,
       jump_intensity=st.floats(min_value=0.0, allow_infinity=False))
@example(noise=NoiseIncrements(1e-3, np.full(300, -0.0), np.full(300, 2**63 - 1),
                               np.ones(301, dtype=np.int64)),
         seed=U64_MAX, path_index=U64_MAX, tau_steps=U64_MAX, jump_intensity=0.0)
@example(noise=NoiseIncrements(0.5, np.zeros(0), np.zeros(0, dtype=np.int64)),
         seed=0, path_index=0, tau_steps=0, jump_intensity=0.0)
def test_record_round_trip(noise, seed, path_index, tau_steps, jump_intensity):
    # every field survives save/load bit for bit, NaN and -0.0 increments too
    buffer = io.BytesIO()
    save_noise(noise, buffer, seed=seed, path_index=path_index,
               tau_steps=tau_steps, jump_intensity=jump_intensity)
    buffer.seek(0)
    loaded, header = load_noise(buffer)
    assert buffer.read() == b""
    assert loaded.brownian.tobytes() == noise.brownian.tobytes()
    assert loaded.poisson.tobytes() == noise.poisson.tobytes()
    if noise.regimes is None:
        assert loaded.regimes is None
    else:
        assert loaded.regimes.tobytes() == noise.regimes.tobytes()
    assert header == {"seed": seed, "path_index": path_index, "delta": noise.delta,
                      "tau_steps": tau_steps, "jump_intensity": jump_intensity}
