"""The benchmark's layer tracing against the temsim names it patches.

``perfbench/layers.py`` replaces temsim functions and methods by name and
argument position. A renamed or deleted target, or a changed argument
position, would crash a traced benchmark run (``--trace 1``). These tests
trace a ``simulate`` and a small ``price-bond`` through ``install_full``
and check that each writes the same bytes as an untraced run, that every
layer was seen with the work the config implies, and that ``restore`` puts
every original back.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
import yaml

import temsim
from temsim.cli import main
from temsim.config import two_regime_demo
from temsim.engine import resolve_grid

LAYERS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

DEMO = {"preset": "two_regime_demo"}
WIDE = {"psi_exponent": 2.0 / 3.0}

# single process: install_full times each chunk with a wrapper that cannot
# be pickled to a pool worker
CASES = {
    "simulate": {
        "model": DEMO, "truncation": WIDE,
        "simulation": {"delta": 2e-3, "horizon": 0.3, "seed": 8},
    },
    "price-bond": {
        "model": DEMO, "truncation": WIDE,
        "simulation": {"delta": 1e-3, "horizon": 0.2, "num_paths": 20,
                       "seed": 4, "threads": 1},
    },
}


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def temsim_namespaces():
    """Every attribute of every loaded temsim module, by identity."""
    return {(name, attr): id(value)
            for name, mod in list(sys.modules.items())
            if name == "temsim" or name.startswith("temsim.")
            for attr, value in vars(mod).items()}


def run_cli(command, tmp_path, tag):
    cfg = tmp_path / f"{command}.yaml"
    cfg.write_text(yaml.safe_dump(CASES[command]))
    out = tmp_path / f"{command}-{tag}.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("command", sorted(CASES))
def test_traced_run_writes_the_untraced_bytes(command, tmp_path):
    layers = load_layers()
    untraced = run_cli(command, tmp_path, "untraced")
    # Patches.function looks each name up on the lazy package too, which
    # loads and caches the export: load them all before the snapshot, so
    # the test holds on its own as in the full suite
    for name in temsim.__all__:
        getattr(temsim, name)
    before = temsim_namespaces()
    methods = {attr: temsim.engine.CoefficientTables.__dict__[attr]
               for attr in ("drift", "drift_derivative")}
    evaluate_many = temsim.model.VolatilitySpec.__dict__["evaluate_many"]

    rec, patches = layers.Recorder(), layers.Patches()
    layers.install_full(rec, patches)
    try:
        traced = run_cli(command, tmp_path, "traced")
    finally:
        patches.restore()

    assert traced == untraced
    assert temsim_namespaces() == before
    assert all(temsim.engine.CoefficientTables.__dict__[attr] is method
               for attr, method in methods.items())
    assert temsim.model.VolatilitySpec.__dict__["evaluate_many"] is evaluate_many

    sim = CASES[command]["simulation"]
    steps = resolve_grid(two_regime_demo().tau, sim["delta"], sim["horizon"]).num_steps
    path_steps = sim.get("num_paths", 1) * steps
    # one chain span per batch (none nested), each counting its own steps
    assert rec.calls["regime.chain"] == 1
    assert rec.work["regime.chain"] == path_steps
    assert rec.work["engine.draw_noise"] == path_steps
    assert rec.work["engine.tem"] == path_steps
    assert rec.calls["rng.path_streams"] == sim.get("num_paths", 1)
    assert rec.counts["rng.substream"] == 3 * sim.get("num_paths", 1)
    assert rec.calls["model.volatility"] >= 1
    assert rec.calls["config"] >= 1
    if command == "simulate":
        assert rec.calls["schemes.path"] == 1
    else:
        assert rec.calls["estimators.estimate"] == rec.calls["estimators.chunk"] == 1
