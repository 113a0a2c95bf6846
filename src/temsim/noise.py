"""Noise records for path simulation: Brownian and Poisson increments plus
the regime value at each grid node, with a binary replay format.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Optional

import numpy as np

from .rng import PathStreams

_MAGIC = b"TEMN"
_VERSION = 1


@dataclass(frozen=True)
class NoiseIncrements:
    """Per-step randomness of one path on a uniform grid of step ``delta``.

    ``brownian[k]`` and ``poisson[k]`` drive the step from node k to k+1;
    ``regimes`` (when attached) holds the chain value at nodes 0..K.
    """

    delta: float
    brownian: np.ndarray
    poisson: np.ndarray
    regimes: Optional[np.ndarray] = None

    def __post_init__(self):
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta!r}")
        b = np.asarray(self.brownian, dtype=float)
        n = np.asarray(self.poisson, dtype=np.int64)
        if b.ndim != 1 or n.ndim != 1 or b.shape != n.shape:
            raise ValueError("brownian and poisson must be 1-d arrays of equal length")
        if n.size and n.min() < 0:
            raise ValueError("poisson increments must be nonnegative")
        object.__setattr__(self, "brownian", b)
        object.__setattr__(self, "poisson", n)
        if self.regimes is not None:
            r = np.asarray(self.regimes, dtype=np.int64)
            if r.shape != (b.size + 1,):
                raise ValueError("regimes must have one entry per grid node (K+1)")
            object.__setattr__(self, "regimes", r)

    @property
    def num_steps(self) -> int:
        return self.brownian.size


def draw_increments(streams: PathStreams, sqrt_dt, mean_jumps,
                    brownian: np.ndarray, poisson: np.ndarray) -> None:
    """Fill one path's Brownian row (normals scaled by ``sqrt_dt``) and
    Poisson row (counts of mean ``mean_jumps``) from its own substreams.
    The single-path and batch draws both take their rows from here. The
    in-place scaling gives the bits of ``standard_normal(k) * sqrt_dt``
    without a temporary row."""
    streams.brownian.standard_normal(out=brownian)
    brownian *= sqrt_dt
    poisson[:] = streams.poisson.poisson(mean_jumps, poisson.size)


def make_noise(delta: float, num_steps: int, jump_intensity: float,
               streams: PathStreams) -> NoiseIncrements:
    """Draw the Brownian/Poisson channels for one path.

    Both channels come from disjoint per-path substreams in ``streams``,
    so they are mutually independent and independent of the chain
    uniforms. Regimes are not drawn here.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if jump_intensity < 0.0:
        raise ValueError("jump_intensity must be nonnegative")
    brownian, poisson = np.empty(num_steps), np.empty(num_steps, dtype=np.int64)
    draw_increments(streams, np.sqrt(delta), jump_intensity * delta, brownian, poisson)
    return NoiseIncrements(delta=delta, brownian=brownian, poisson=poisson)


# -- binary replay records -----------------------------------------------------
#
# Little-endian layout:
#   magic   4s   b"TEMN"
#   version u32
#   seed    u64  master seed of the run
#   path    u64  path index within the run
#   delta   f64
#   M       u64  delay steps (tau / delta)
#   lambda  f64  jump intensity
#   K       u64  number of increments
#   flags   u8   bit 0: regimes present
# followed by K float64 Brownian increments, K int64 Poisson increments,
# and (if flagged) K+1 int64 regime values.

_HEADER = struct.Struct("<4sIQQdQdQB")


def save_noise(noise: NoiseIncrements, fobj: BinaryIO, *, seed: int,
               path_index: int, tau_steps: int, jump_intensity: float) -> None:
    has_regimes = noise.regimes is not None
    fobj.write(_HEADER.pack(
        _MAGIC, _VERSION, seed, path_index, noise.delta, tau_steps,
        jump_intensity, noise.num_steps, 1 if has_regimes else 0,
    ))
    fobj.write(noise.brownian.astype("<f8").tobytes())
    fobj.write(noise.poisson.astype("<i8").tobytes())
    if has_regimes:
        fobj.write(noise.regimes.astype("<i8").tobytes())


_READ_PIECE = 1 << 20


def _read(fobj: BinaryIO, size: int) -> bytes:
    """``size`` bytes of ``fobj``, read at most 1 MiB at a time: a header
    that declares more bytes than the stream holds, however many, fails as
    a truncated record, not in an overflow or a huge allocation."""
    pieces, got = [], 0
    while got < size:
        piece = fobj.read(min(size - got, _READ_PIECE))
        if not piece:
            break
        pieces.append(piece)
        got += len(piece)
    if got != size:
        raise ValueError(f"noise record truncated: read {got} of {size} bytes")
    return b"".join(pieces)


def load_noise(fobj: BinaryIO) -> tuple[NoiseIncrements, dict]:
    magic, version, seed, path_index, delta, tau_steps, lam, k, flags = \
        _HEADER.unpack(_read(fobj, _HEADER.size))
    if magic != _MAGIC:
        raise ValueError("not a noise record (bad magic)")
    if version != _VERSION:
        raise ValueError(f"unsupported noise record version {version}")
    brownian = np.frombuffer(_read(fobj, 8 * k), dtype="<f8").astype(float)
    poisson = np.frombuffer(_read(fobj, 8 * k), dtype="<i8").astype(np.int64)
    regimes = None
    if flags & 1:
        regimes = np.frombuffer(_read(fobj, 8 * (k + 1)), dtype="<i8").astype(np.int64)
    noise = NoiseIncrements(delta=delta, brownian=brownian, poisson=poisson,
                            regimes=regimes)
    header = {"seed": seed, "path_index": path_index, "delta": delta,
              "tau_steps": tau_steps, "jump_intensity": lam}
    return noise, header
