"""Golden SHA-256 digests of CLI outputs on small configs.

Speed and refactoring work must keep every output byte-identical. A change
that alters an output on purpose updates the digest here and says which
outputs changed and why. The configs put the delay block edges in several
places: delays of 20, 128, 250, 256, 500, 512 and 1000 steps, horizons
that are not a multiple of the block, and runs with and without the 1/x
drift term.

The digests were pinned with numpy 2.4 on x86-64. Other numpy releases may
use other implementations of exp, tanh and pow, whose last bits can
differ, so the test runs only on the numpy release it was pinned with.
"""

import hashlib

import numpy as np
import pytest
import yaml

from temsim.cli import main

DEMO = {"preset": "two_regime_demo"}
WIDE = {"psi_exponent": 2.0 / 3.0}

CASES = {
    "price-bond": {
        "model": DEMO, "truncation": WIDE,
        "simulation": {"delta": 1e-3, "horizon": 0.6, "num_paths": 40,
                       "seed": 4, "threads": 1},
    },
    "price-barrier": {
        "model": DEMO, "truncation": WIDE,
        "simulation": {"delta": 0.05, "horizon": 2.9, "num_paths": 300,
                       "seed": 5, "threads": 1},
        "experiment": {"strike": 0.0, "barrier": 2.0},
    },
    "compare-schemes": {
        "model": DEMO, "truncation": WIDE,
        "simulation": {"delta": 4e-3, "horizon": 1.2, "num_paths": 20,
                       "seed": 6, "threads": 1},
    },
    # without the 1/x term BEM iterates cross zero, so this case runs the
    # implicit solve's boundary-value extension (about 92 % of its nodes)
    "compare-schemes-no-inverse": {
        "model": {**DEMO, "include_inverse_drift": False},
        "truncation": {"psi_exponent": 0.25},
        "simulation": {"delta": 4e-3, "horizon": 1.2, "num_paths": 20,
                       "seed": 9, "threads": 1},
    },
    "converge": {
        "model": {**DEMO, "include_inverse_drift": False},
        "truncation": {"psi_exponent": 0.25},
        "simulation": {"horizon": 1.5, "num_paths": 20, "seed": 7,
                       "threads": 1},
        "experiment": {"step_ladder": [0.0078125, 0.00390625],
                       "reference_delta": 0.001953125, "p": 2.0},
    },
    "simulate": {
        "model": DEMO, "truncation": WIDE,
        "simulation": {"delta": 2e-3, "horizon": 1.3, "seed": 8},
    },
}

# a case that is not named after its command names it here
COMMAND = {"compare-schemes-no-inverse": "compare-schemes"}

GOLDEN = {
    "price-bond":
        "c1e6ce13f9e51677fdc733fff7f1ed69168220fe73c3cc1bc916c15172a5ef3d",
    "price-barrier":
        "e4119d47f21c5a143340e30e6ac00213daf3ec95049615bc044742cddd9064de",
    "compare-schemes":
        "f0ae19a77d1af56e25c12ffc4349b3267e90183c31e468c5dada587191ec03e0",
    "compare-schemes-no-inverse":
        "d2b312dbb3399fa62ffc63e176a85befd5ffd4b81de0bcb87db2300b3c051a96",
    "converge":
        "a639ce881ab682eda96ffdde2cad8f2367c706e9a39d960a85a545f4919a6e01",
    "simulate":
        "902fa63ce83d0abc8506d70cbcaf04805a66e2f401f64f7c2118a84cb91d3362",
}


def run_digest(case, tmp_path):
    cfg = tmp_path / f"{case}.yaml"
    cfg.write_text(yaml.safe_dump(CASES[case]))
    out = tmp_path / f"{case}.csv"
    command = COMMAND.get(case, case)
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


GOLDEN_NUMPY = "2.4"


@pytest.mark.skipif(not np.__version__.startswith(GOLDEN_NUMPY + "."),
                    reason=f"digests pinned with numpy {GOLDEN_NUMPY}")
@pytest.mark.parametrize("command", sorted(CASES))
def test_cli_output_digest(command, tmp_path):
    assert run_digest(command, tmp_path) == GOLDEN[command]
