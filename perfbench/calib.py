"""Fixed reference work that measures how fast the host runs right now.

A fresh interpreter imports numpy and, in ``--procs`` worker processes like
temsim's chunk pool, steps batches of delayed paths with small numpy
operations (a regime gather, a clamp, a drift, a delayed diffusion and a jump
per step, as a TEM step loop does), then sweeps an array larger than a core's
share of the cache through memory, as the reference-step chunks of a
convergence run do. It never changes, so the time it takes moves only with
the host; run.py interleaves it with the timed passes (see README.md).

    python3 perfbench/calib.py --procs 2
"""

import argparse
from concurrent.futures import ProcessPoolExecutor

import numpy as np

CHUNKS = 4
PATHS = 128
DELAY = 1000
STEPS = 2000
STREAM_COLUMNS = 20_000  # 128 x 20000 x 8 B = 20 MB
STREAM_SWEEPS = 4


def chunk(index: int) -> float:
    rng = np.random.default_rng(index)
    noise = rng.standard_normal((PATHS, STEPS)) * 0.03
    jumps = rng.poisson(0.02, (PATHS, STEPS))
    regimes = rng.integers(0, 2, (PATHS, STEPS))
    rate = np.array([0.04, 0.08])
    values = np.empty((PATHS, DELAY + STEPS + 1))
    values[:, :DELAY + 1] = 0.05
    for k in range(STEPS):
        x = values[:, DELAY + k]
        clamped = np.clip(x, 1e-6, 1e3)
        drift = 0.5 * (rate[regimes[:, k]] - clamped) - 0.2 * clamped * clamped
        diffusion = 0.3 * np.abs(values[:, k]) ** 0.75
        values[:, DELAY + k + 1] = (x + drift * 1e-3 + diffusion * noise[:, k]
                                    + 0.01 * jumps[:, k])
    big = np.full((PATHS, STREAM_COLUMNS), 0.5)
    for _ in range(STREAM_SWEEPS):
        big = np.sqrt(big * 1.0001 + 0.25)
    return float(values[:, DELAY:].sum() + big[:, ::97].sum())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--procs", type=int, default=1)
    args = parser.parse_args()
    if args.procs > 1:
        with ProcessPoolExecutor(max_workers=args.procs) as pool:
            values = list(pool.map(chunk, range(CHUNKS)))
    else:
        values = [chunk(i) for i in range(CHUNKS)]
    if not all(np.isfinite(values)):
        raise SystemExit("calibration produced a non-finite value")


if __name__ == "__main__":
    main()
