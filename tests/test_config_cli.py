import ast
import copy
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from temsim import cli, engine, estimators, export
from temsim.cli import main
from temsim.config import (
    MODEL_PRESETS,
    ConfigError,
    load_config,
    resolve_config,
    two_regime_demo,
)
from temsim.engine import SimulationError
from temsim.model import InitialSegment, ModelSpec, VolatilitySpec
from temsim.regime import GeneratorMatrix
from temsim.schemes import simulate_tem_path
from temsim.truncation import truncation_band

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


def write_config(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return str(path)


def demo_config(**sim):
    return {
        "model": {"preset": "two_regime_demo"},
        "truncation": {"psi_exponent": 2.0 / 3.0},
        "simulation": {"delta": 0.01, "horizon": 0.5, "num_paths": 20,
                       "seed": 3, "threads": 1, **sim},
    }


class TestResolveConfig:
    def test_preset_expands_to_demo_spec(self, tmp_path):
        run = resolve_config(load_config(write_config(tmp_path, demo_config())))
        ys, rs = np.linspace(-1.0, 3.0, 9), np.array([1, 2] * 4 + [1])

        def comparable(value):
            if isinstance(value, GeneratorMatrix):
                return value.entries.tolist()
            if isinstance(value, VolatilitySpec):
                return (value.name, value.bound_sigma, value.num_regimes,
                        value.evaluate_many(ys, rs).tolist())
            if isinstance(value, InitialSegment):
                return (value.holder_constant, value.holder_exponent,
                        value.eval(-0.5), value.eval(0.0))
            return value

        demo = two_regime_demo()
        for spec_field in fields(ModelSpec):
            assert comparable(getattr(run.spec, spec_field.name)) == \
                comparable(getattr(demo, spec_field.name)), spec_field.name
        assert run.seed == 3 and run.num_paths == 20

    def test_preset_field_override(self, tmp_path):
        cfg = demo_config()
        cfg["model"]["jump_intensity"] = 0.0
        cfg["model"]["initial_segment"] = {"value": 0.5}
        run = resolve_config(load_config(write_config(tmp_path, cfg)))
        assert run.spec.jump_intensity == 0.0
        assert run.spec.initial_segment.eval(-0.5) == 0.5

    def test_flag_overrides_beat_file(self, tmp_path):
        raw = load_config(write_config(tmp_path, demo_config()))
        run = resolve_config(raw, seed=99, threads=4)
        assert run.seed == 99
        assert run.threads == 4

    @pytest.mark.parametrize("threads", [0, -3])
    def test_non_positive_threads_flag_rejected(self, tmp_path, threads):
        raw = load_config(write_config(tmp_path, demo_config()))
        with pytest.raises(ConfigError, match="simulation.threads"):
            resolve_config(raw, threads=threads)

    def test_integers_read_exactly(self, tmp_path):
        big = 2**53 + 1  # float(big) == 2**53
        raw = load_config(write_config(tmp_path, demo_config(seed=big, num_paths=big)))
        run = resolve_config(raw)
        assert (run.seed, run.num_paths) == (big, big)
        assert run.resolved["simulation"]["seed"] == big
        assert resolve_config(raw, seed=big + 2).seed == big + 2
        for value, message in ((10**400, "integer out of range"),
                               (2.5, "expected an integer"),
                               (True, "expected a number")):
            with pytest.raises(ConfigError, match=f"simulation.seed: {message}"):
                resolve_config(load_config(write_config(tmp_path, demo_config(seed=value))))
            with pytest.raises(ConfigError, match=f"simulation.seed: {message}"):
                resolve_config(raw, seed=value)
        # past 4300 digits the YAML loader itself refuses the literal
        path = tmp_path / "digits.yaml"
        path.write_text("model: {preset: two_regime_demo}\n"
                        "simulation: {seed: " + "9" * 5000 + "}\n")
        with pytest.raises(ConfigError):
            resolve_config(load_config(str(path)))

    def test_empty_config_names_missing_section(self, tmp_path):
        with pytest.raises(ConfigError, match="model"):
            resolve_config({})

    def test_missing_field_path(self):
        with pytest.raises(ConfigError, match="model.regimes"):
            resolve_config({"model": {"rho": 2.0}})
        minimal = {
            "model": {
                "regimes": [{"alpha_m1": 0.3, "alpha_0": 0.2, "alpha_1": 0.1,
                             "alpha_2": 0.5, "alpha_3": 1.0}],
                "generator": [[0.0]],
                "theta": 1.25,
            }
        }
        with pytest.raises(ConfigError, match="model.rho"):
            resolve_config(minimal)

    def test_regime_field_errors_are_indexed(self):
        cfg = {"model": {
            "regimes": [{"alpha_m1": 0.3, "alpha_0": 0.2, "alpha_1": 0.1,
                         "alpha_2": 0.5}],
            "rho": 2.0, "theta": 1.25, "generator": [[0.0]],
        }}
        with pytest.raises(ConfigError, match=r"model.regimes\[0\].alpha_3"):
            resolve_config(cfg)

    def test_flat_generator_rejected(self):
        # the generator is a matrix, written one way: as its rows
        cfg = {"model": {
            "preset": "two_regime_demo",
            "generator": [-2.0, 2.0, 1.0, -1.0],
        }}
        with pytest.raises(ConfigError, match=r"^model\.generator: expected a 2x2 "
                                              r"matrix, got shape \(4,\)$"):
            resolve_config(cfg)

    def test_bad_generator_shape(self):
        cfg = {"model": {"preset": "two_regime_demo", "generator": [1.0, 2.0]}}
        with pytest.raises(ConfigError, match="model.generator"):
            resolve_config(cfg)

    def test_volatility_without_third_regime_rejected(self, tmp_path, capsys):
        cfg = demo_config()
        cfg["model"]["regimes"] = [
            {"alpha_m1": 0.3, "alpha_0": 0.2, "alpha_1": 0.1, "alpha_2": 0.5,
             "alpha_3": 1.0}] * 3
        cfg["model"]["generator"] = [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0],
                                     [1.0, 1.0, -2.0]]
        path = write_config(tmp_path, cfg)
        assert main(["price-bond", "--config", path]) == 2
        assert "volatility 'sigmoid_s5' defines regimes 1..2" in capsys.readouterr().err

    def test_unknown_preset_and_volatility(self):
        with pytest.raises(ConfigError, match="model.preset"):
            resolve_config({"model": {"preset": "mystery"}})
        cfg = {"model": {"preset": "two_regime_demo",
                         "volatility": {"name": "mystery"}}}
        with pytest.raises(ConfigError, match="model.volatility"):
            resolve_config(cfg)

    @pytest.mark.parametrize("preset", [True, False], ids=["preset", "explicit"])
    @pytest.mark.parametrize("path", [
        ("model", "include_inverse_drift"),
        ("truncation", "mu"),
        ("model", "volatility"),
        ("model", "initial_segment"),
        ("model", "initial_segment", "kind"),
    ], ids=".".join)
    def test_null_field_means_default(self, path, preset):
        """A null field reads as its default, whether the model comes from a
        preset or is written out in full."""
        model = {"preset": "two_regime_demo"} if preset else \
            copy.deepcopy(MODEL_PRESETS["two_regime_demo"])
        raw = {"model": model, "truncation": {"psi_exponent": 2.0 / 3.0}}
        *parents, key = path
        section = raw
        for name in parents:
            section = section.setdefault(name, {})
        section.pop(key, None)
        absent = copy.deepcopy(raw)
        section[key] = None
        assert resolve_config(raw).resolved == resolve_config(absent).resolved

    @pytest.mark.parametrize("name", ["sigmoid_s5", "zero"])
    @pytest.mark.parametrize("level", [-1.0, 0.3])
    def test_level_applies_only_to_constant(self, name, level):
        cfg = {"model": {"preset": "two_regime_demo",
                         "volatility": {"name": name, "level": level}}}
        with pytest.raises(ConfigError, match=r"model\.volatility\.level: applies "
                           r"only to the 'constant' volatility"):
            resolve_config(cfg)
        cfg["model"]["volatility"]["level"] = None
        assert resolve_config(cfg).resolved["model"]["volatility"] == {"name": name}

    def test_constant_level_is_range_checked(self):
        cfg = {"model": {"preset": "two_regime_demo",
                         "volatility": {"name": "constant", "level": -1.0}}}
        with pytest.raises(ConfigError, match=r"model\.volatility\.level: must be >= 0"):
            resolve_config(cfg)

    def test_resolved_echo_contains_defaults(self, tmp_path):
        run = resolve_config(load_config(write_config(tmp_path, demo_config())))
        echo = run.resolved
        assert echo["truncation"]["delta_star"] == run.policy.delta_star
        assert echo["simulation"]["horizon"] == 0.5
        assert echo["experiment"]["strike"] == 0.01

    def test_exponent_violation_is_config_error(self):
        cfg = {"model": {"preset": "two_regime_demo", "rho": 0.5}}
        with pytest.raises(ConfigError, match="model"):
            resolve_config(cfg)


class TestCliCommands:
    def run_cli(self, args):
        return main(args)

    def test_validate_demo_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, demo_config())
        code = self.run_cli(["validate", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS exponent_balance" in out
        assert "WARN quarter_power_step_profile" in out
        assert "PASS truncated_coefficient_cap" in out
        assert "INFO delta_star" in out

    def test_validate_quarter_profile_no_warning(self, tmp_path, capsys):
        cfg = demo_config()
        cfg["truncation"]["psi_exponent"] = 0.25
        path = write_config(tmp_path, cfg)
        code = self.run_cli(["validate", "--config", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS quarter_power_step_profile" in out

    @pytest.mark.parametrize("mu", ["3u2", "power_fit"])
    def test_validate_audits_the_band_the_simulation_takes(self, tmp_path, capsys,
                                                           monkeypatch, mu):
        # the cap check built its bands by a rule of its own, so a band rule
        # that broke the cap still read PASS
        def too_wide(delta, policy):
            lower, upper = truncation_band(delta, policy)
            return lower, 10.0 * upper

        cfg = demo_config()
        cfg["truncation"]["mu"] = mu
        path = write_config(tmp_path, cfg)
        assert self.run_cli(["validate", "--config", path]) == 0
        monkeypatch.setattr(cli, "truncation_band", too_wide)
        assert self.run_cli(["validate", "--config", path]) == 3
        out = capsys.readouterr().out
        assert "FAIL truncated_coefficient_cap" in out
        assert "PASS band_interior_identity" in out

    def test_validate_failing_assumption_exit_code(self, tmp_path, capsys):
        cfg = demo_config()
        cfg["model"]["rho"] = 2.0
        cfg["model"]["theta"] = 1.6  # 1 + 2 < 2 * 1.6
        path = write_config(tmp_path, cfg)
        code = self.run_cli(["validate", "--config", path])
        assert code == 3
        assert "FAIL exponent_balance" in capsys.readouterr().out

    def test_empty_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        code = self.run_cli(["simulate", "--config", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "model" in err

    def test_missing_config_file(self, capsys):
        assert self.run_cli(["simulate", "--config", "/nonexistent.yaml"]) == 2
        assert capsys.readouterr().err == ("config error: --config: [Errno 2] No such "
                                           "file or directory: '/nonexistent.yaml'\n")

    @pytest.mark.parametrize("content,shown", [
        ("", "Is a directory"),
        ("model: [\n", "while parsing a flow node"),
        pytest.param("simulation: {seed: " + "9" * 5000 + "}\n",
                     "Exceeds the limit (4300 digits)",
                     marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                              reason="no integer digit limit")),
    ], ids=["directory", "yaml", "digits"])
    def test_config_read_and_parse_failures_name_the_flag(self, content, shown, tmp_path,
                                                          capsys):
        # the read and YAML failures printed no field, and the 4300-digit
        # literal was reported at <root>
        path = tmp_path / "run.yaml"
        if content:
            path.write_text(content)
        else:
            path.mkdir()
        assert self.run_cli(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --config: ") and shown in err, err

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_overflowing_step_profile_is_config_error(self, command, tmp_path, capsys):
        # delta_star's search takes 1e-12^-26 past the largest float: float **
        # raised OverflowError out of the config read, a traceback at exit 1
        cfg = demo_config()
        cfg["truncation"]["psi_exponent"] = 26
        assert self.run_cli([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: truncation: psi_exponent 26 takes delta^-q past the largest "
            "float at step 1e-12\n")

    @pytest.mark.parametrize("command", ["validate", "price-bond", "simulate"])
    @pytest.mark.parametrize("exponent", ["rho", "theta"])
    def test_power_fit_past_the_largest_float_is_config_error(self, exponent, command,
                                                             tmp_path, capsys):
        # mu's fitted constant came out NaN under three numpy RuntimeWarnings:
        # validate printed a band of [nan, nan] at exit 3, and the runs failed
        # at node 1 with replay coordinates, exit 4
        cfg = demo_config(num_paths=4, horizon=0.1)
        cfg["model"][exponent] = 1.0e300
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run_cli([command, "--config", path]) == 2
        assert capsys.readouterr().err == (
            "config error: truncation: power-fit mu(u) = c u^m has no finite constant c "
            "at the exponent m = max(rho, theta) + 1 = 1e+300: the coefficient sup or "
            "r^m is past the largest float\n")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_bem_bracket_shrunk_to_zero_fails_without_warnings(self, tmp_path, capsys):
        # the lower bracket end, shrunk by 1/8 on every try, reached +0 and
        # divided by zero on each try after, printing some 40 numpy
        # RuntimeWarnings before the solve raised
        cfg = demo_config(num_paths=4, horizon=0.1)
        cfg["model"]["initial_segment"] = {"value": 1.0e300}
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run_cli(["compare-schemes", "--config", path]) == 4
        assert capsys.readouterr().err == (
            "numerical error: implicit solve found no positive lower bracket end at step 0 "
            "of path 0 (replay: seed=3, path=0, delta=0.01)\n")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("command", ["simulate", "price-bond"])
    def test_poisson_mean_past_numpy_limit_is_numerical_failure(self, command, tmp_path,
                                                                capsys):
        # numpy refused the mean inside the draw ("lam value too large"): a
        # traceback at exit 1
        cfg = demo_config(num_paths=4, horizon=0.1)
        cfg["model"]["jump_intensity"] = 1.0e300
        assert self.run_cli([command, "--config", write_config(tmp_path, cfg)]) == 4
        assert capsys.readouterr().err == (
            "numerical error: jump_intensity 1e+300 at step 0.01 gives a Poisson mean of "
            "1e+298, above numpy's limit 9.22337e+18\n")

    @pytest.mark.parametrize("command,section,key,value,field", [
        ("simulate", "simulation", "horizon", 1.0e300, "simulation.horizon"),
        ("validate", "model", "tau", 1.0e300, "model.tau"),
        # the delay, shorter than the step, is the step: 1e299 steps of 1e-300
        ("price-bond", "model", "tau", 1.0e-300, "model.tau"),
        ("compare-schemes", "simulation", "delta", 1.0e-300, "simulation.delta"),
        ("price-barrier", "simulation", "horizon", 2**63, "simulation.horizon"),
        ("converge", "experiment", "reference_delta", 1.0e-300,
         "experiment.reference_delta"),
        ("converge", "experiment", "step_ladder", [0.02, 1.0e-300],
         "experiment.step_ladder"),
    ])
    def test_grid_numpy_cannot_index_refused(self, command, section, key, value, field,
                                             tmp_path, capsys, monkeypatch):
        # numpy raised "Maximum allowed dimension exceeded" as the arrays
        # were made (a traceback, exit 1), and validate passed
        def no_noise(*_args):
            raise AssertionError("noise drawn before the grid was checked")

        monkeypatch.setattr(engine, "draw_batch_noise", no_noise)
        cfg = demo_config(num_paths=4, horizon=0.1)
        cfg["experiment"] = {"step_ladder": [0.02, 0.01], "reference_delta": 0.005}
        cfg[section][key] = value
        assert self.run_cli([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert re.fullmatch(rf"config error: {re.escape(field)}: the (delay|horizon) "
                            r"\S+ spans \S+ steps of \S+: more nodes than a numpy array "
                            r"holds \(\d+\)\n", capsys.readouterr().err)

    @pytest.mark.parametrize("num_paths", [1.0e300, 2**63])
    @pytest.mark.parametrize("command", ["converge", "compare-schemes", "price-bond",
                                         "price-barrier"])
    def test_path_count_numpy_cannot_index_refused(self, command, num_paths, tmp_path,
                                                   capsys, monkeypatch):
        # _run_chunks listed every chunk range before any worker ran: a
        # MemoryError, exit 1
        def no_noise(*_args):
            raise AssertionError("noise drawn before the path count was checked")

        monkeypatch.setattr(engine, "draw_batch_noise", no_noise)
        cfg = demo_config(num_paths=num_paths, horizon=0.1)
        cfg["experiment"] = {"step_ladder": [0.02, 0.01], "reference_delta": 0.005}
        assert self.run_cli([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error: simulation.num_paths: num_paths {num_paths:.3g} is more "
            "samples than a numpy array holds (1152921504606846975)\n")

    @pytest.mark.parametrize("command,model,sim,experiment,shown", [
        # jumps of rate 2^63 take the distances near 1e168, whose squares overflow
        ("compare-schemes", {"jump_intensity": 2**63}, {"num_paths": 4, "horizon": 0.1},
         {}, "the summary of 4 samples is not finite: mean 8.91102e+167, standard "
             "error inf"),
        # CI's overflow-power config at p = 200: the mean power is a float, its
        # spread is not
        ("converge", {}, {"num_paths": 16, "horizon": 2.0},
         {"step_ladder": [0.0625, 0.03125], "reference_delta": 0.0078125, "p": 200.0},
         "p = 200 takes the standard error at step 0.0625 to inf (largest sup error "),
        # and at p = 2000 the mean power itself overflows
        ("converge", {}, {"num_paths": 16, "horizon": 2.0},
         {"step_ladder": [0.0625, 0.03125], "reference_delta": 0.0078125, "p": 2000.0},
         "p = 2000 takes the mean p-th power at step 0.0625 to inf (largest sup error "),
    ], ids=["compare-schemes", "converge", "converge-power"])
    def test_non_finite_summary_is_numerical_failure(self, command, model, sim,
                                                     experiment, shown, tmp_path, capsys):
        # each printed std_error inf (compare-schemes also ci_low -inf) at
        # exit 0, under numpy's "overflow encountered in square"
        cfg = demo_config(**sim)
        cfg["model"].update(model)
        cfg["experiment"] = experiment
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert self.run_cli([command, "--config", path]) == 4
        assert capsys.readouterr().err.startswith(f"numerical error: {shown}")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_every_argument_error_maps_to_a_field(self):
        # each parameter an ArgumentError names in src/, directly or through
        # partial(ArgumentError, name), has its config field in cli._FIELDS
        named = set()
        for source in (SRC / "temsim").glob("*.py"):
            for node in ast.walk(ast.parse(source.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                args = node.args
                if isinstance(node.func, ast.Name) and node.func.id == "partial" and \
                        args and isinstance(args[0], ast.Name) and \
                        args[0].id == "ArgumentError":
                    args = args[1:]
                elif not (isinstance(node.func, ast.Name)
                          and node.func.id == "ArgumentError"):
                    continue
                assert args and isinstance(args[0], ast.Constant), \
                    f"{source.name}:{node.lineno} names its argument by no literal"
                named.add(args[0].value)
        assert {"p", "strike", "barrier", "num_paths"} <= named
        assert named <= set(cli._FIELDS), named - set(cli._FIELDS)

    @pytest.mark.parametrize("out", ["missing/bond.csv", "."])
    def test_unwritable_out_refused_before_the_run(self, out, tmp_path, capsys,
                                                   monkeypatch):
        # the whole run happened, and then open raised: a traceback, exit 1
        def no_config(*_args, **_kwargs):
            raise AssertionError("config resolved before --out was checked")

        monkeypatch.setattr(cli, "resolve_config", no_config)
        cfg = write_config(tmp_path, demo_config())
        out = str(tmp_path / out)
        assert self.run_cli(["price-bond", "--config", cfg, "--out", out]) == 2
        assert "config error: --out: " in capsys.readouterr().err

    def test_simulate_row_count(self, tmp_path):
        cfg = write_config(tmp_path, demo_config(delta=0.02, horizon=0.1))
        out = tmp_path / "path.csv"
        assert self.run_cli(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = [l for l in lines if l and not l.startswith("#")]
        # header row plus M + K + 1 data rows (tau/delta = 50, horizon 5 steps)
        assert rows[0] == "k,t,X,regime,dB,dN"
        assert len(rows) - 1 == 50 + 5 + 1

    def test_simulate_snaps_and_reports_step(self, tmp_path):
        cfg = write_config(tmp_path, demo_config(delta=0.021, horizon=0.1))
        out = tmp_path / "path.csv"
        self.run_cli(["simulate", "--config", cfg, "--out", str(out)])
        text = out.read_text()
        assert "# effective_delta: 0.020833333333333332" in text  # tau / 48

    def test_price_bond_output_shape(self, tmp_path):
        cfg = write_config(tmp_path, demo_config())
        out = tmp_path / "bond.csv"
        assert self.run_cli(["price-bond", "--config", cfg, "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "estimate,std_error,ci_low,ci_high,num_paths"
        fields = rows[1].split(",")
        assert 0.0 < float(fields[0]) <= 1.0
        assert fields[4] == "20"

    def test_price_barrier_knockout(self, tmp_path):
        cfg = demo_config()
        cfg["experiment"] = {"strike": 0.01, "barrier": 0.02}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "barrier.csv"
        assert self.run_cli(["price-barrier", "--config", path,
                             "--out", str(out)]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[1].split(",")[0] == "0.0"

    def test_converge_requires_ladder(self, tmp_path, capsys):
        # the library refuses the empty ladder, so the reference step is given
        cfg = demo_config()
        cfg["experiment"] = {"reference_delta": 0.0009765625}
        path = write_config(tmp_path, cfg)
        assert self.run_cli(["converge", "--config", path]) == 2
        assert ("config error: experiment.step_ladder: no step to compare: the step "
                "list is empty") in capsys.readouterr().err

    def test_converge_horizon_without_a_step_rejected(self, tmp_path, capsys,
                                                      monkeypatch):
        # it printed error 0.0 on every level and a NaN fitted order, exit 0
        def no_paths(*_args):
            raise AssertionError("paths simulated before the horizon was checked")

        monkeypatch.setattr(estimators, "_run_chunks", no_paths)
        cfg = demo_config(horizon=0.0, num_paths=8)
        cfg["model"]["include_inverse_drift"] = False
        cfg["experiment"] = {"step_ladder": [0.0078125, 0.00390625],
                             "reference_delta": 0.0009765625}
        path = write_config(tmp_path, cfg)
        assert self.run_cli(["converge", "--config", path]) == 2
        assert ("config error: simulation.horizon: horizon 0 leaves the reference "
                "grid no step") in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", [0.0, 0.004])
    def test_compare_schemes_horizon_without_a_step_rejected(self, horizon, tmp_path,
                                                             capsys, monkeypatch):
        # it printed mean, max and every quantile 0.0, exit 0; 0.004 rounds
        # to no step at delta 1e-2
        def no_paths(*_args):
            raise AssertionError("paths simulated before the horizon was checked")

        monkeypatch.setattr(estimators, "_run_chunks", no_paths)
        path = write_config(tmp_path, demo_config(delta=1e-2, horizon=horizon, num_paths=8))
        assert self.run_cli(["compare-schemes", "--config", path]) == 2
        assert (f"config error: simulation.horizon: horizon {horizon:g} leaves the grid "
                "no step: every distance would read 0") in capsys.readouterr().err

    def test_converge_non_dyadic_ladder_rejected(self, tmp_path, capsys):
        cfg = demo_config()
        cfg["experiment"] = {"step_ladder": [0.3], "reference_delta": 0.125}
        path = write_config(tmp_path, cfg)
        assert self.run_cli(["converge", "--config", path]) == 2
        assert "0.3" in capsys.readouterr().err

    def test_converge_steps_on_one_grid_rejected_before_any_path(
            self, tmp_path, capsys, monkeypatch):
        def no_paths(*_args):
            raise AssertionError("paths simulated before the ladder was checked")

        monkeypatch.setattr(estimators, "_run_chunks", no_paths)
        cfg = demo_config()
        # the first two steps both snap to tau/128
        cfg["experiment"] = {"step_ladder": [0.0078125, 0.0078, 0.00390625],
                             "reference_delta": 0.0009765625}
        path = write_config(tmp_path, cfg)
        assert self.run_cli(["converge", "--config", path]) == 2
        assert ("config error: experiment.step_ladder: steps 0.0078125 and 0.0078 "
                "both snap to tau/128 = 0.0078125") in capsys.readouterr().err

    def test_converge_step_on_the_reference_grid_rejected(self, tmp_path, capsys):
        # it printed error 0.0 for the level and a NaN fitted order, exit 0
        cfg = demo_config(horizon=0.5, num_paths=8)
        cfg["model"]["include_inverse_drift"] = False
        cfg["experiment"] = {"step_ladder": [0.0078125, 0.001953125],
                             "reference_delta": 0.001953125}
        path = write_config(tmp_path, cfg)
        assert self.run_cli(["converge", "--config", path]) == 2
        assert ("config error: experiment.step_ladder: step 0.00195312 snaps to the "
                "reference step 0.00195312") in capsys.readouterr().err

    def test_converge_inadmissible_step_is_numerical_failure(self, tmp_path, capsys):
        # the step at fault is the reference step, not the ladder: exit 4,
        # as every other command does on an inadmissible step
        cfg = demo_config(delta=0.2, horizon=2.0)
        cfg["truncation"]["psi_exponent"] = 0.25
        cfg["experiment"] = {"step_ladder": [0.4, 0.2], "reference_delta": 0.025}
        path = write_config(tmp_path, cfg)
        assert self.run_cli(["converge", "--config", path]) == 4
        assert capsys.readouterr().err.startswith(
            "numerical error: delta = 0.025 exceeds the admissible bound delta_star")

    def test_converge_single_path_rejected(self, tmp_path, capsys):
        cfg = demo_config(num_paths=1)
        cfg["experiment"] = {"step_ladder": [0.0625], "reference_delta": 0.015625}
        path = write_config(tmp_path, cfg)
        assert self.run_cli(["converge", "--config", path]) == 2
        assert "simulation.num_paths" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["price-bond", "price-barrier", "compare-schemes"])
    def test_single_path_standard_error_rejected(self, command, tmp_path, capsys,
                                                 monkeypatch):
        # one path printed std_error 0.0 and a zero-width interval at exit 0
        def no_paths(*_args):
            raise AssertionError("paths simulated before the run was checked")

        monkeypatch.setattr(estimators, "_run_chunks", no_paths)
        path = write_config(tmp_path, demo_config(num_paths=1))
        assert self.run_cli([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("config error: simulation.num_paths: num_paths must be "
                                "at least 2 for a standard error, got 1\n")

    def test_converge_underflowed_power_is_numerical_failure(self, tmp_path, capsys):
        # the 400th powers of sups near 0.08 underflowed: it printed error
        # 0.0 on both levels and fitted order NaN, exit 0
        cfg = demo_config(horizon=0.5, num_paths=16)
        cfg["model"]["include_inverse_drift"] = False
        cfg["truncation"]["psi_exponent"] = 0.25
        cfg["experiment"] = {"step_ladder": [0.0078125, 0.00390625],
                             "reference_delta": 0.0009765625, "p": 400.0}
        path = write_config(tmp_path, cfg)
        assert self.run_cli(["converge", "--config", path]) == 4
        assert capsys.readouterr().err.startswith(
            "numerical error: p = 400 takes the mean p-th power at step 0.0078125 to 0")

    def test_converge_writes_fitted_order_footer(self, tmp_path):
        cfg = demo_config()
        cfg["simulation"]["num_paths"] = 8
        cfg["experiment"] = {"step_ladder": [0.125, 0.0625],
                             "reference_delta": 0.015625, "p": 2.0}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "conv.csv"
        assert self.run_cli(["converge", "--config", path, "--out", str(out)]) == 0
        text = out.read_text()
        assert "delta,error,std_error" in text
        assert "# fitted_order = " in text

    def test_compare_schemes_output(self, tmp_path):
        cfg = write_config(tmp_path, demo_config())
        out = tmp_path / "cmp.csv"
        assert self.run_cli(["compare-schemes", "--config", cfg,
                             "--out", str(out)]) == 0
        text = out.read_text()
        for stat in ("mean,", "max,", "q10,", "q50,", "q90,"):
            assert stat in text

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        cfg = demo_config()
        cfg["model"]["regimes"] = [
            {"alpha_m1": 0.0, "alpha_0": 0.0, "alpha_1": 0.0, "alpha_2": 0.0,
             "alpha_3": 2.0},
            {"alpha_m1": 0.0, "alpha_0": 0.0, "alpha_1": 0.0, "alpha_2": 0.0,
             "alpha_3": 2.0},
        ]
        cfg["model"]["include_inverse_drift"] = False
        cfg["model"]["jump_intensity"] = 5000.0
        cfg["model"]["initial_segment"] = {"value": 10.0}
        cfg["simulation"]["horizon"] = 2.0
        path = write_config(tmp_path, cfg)
        code = self.run_cli(["simulate", "--config", path])
        assert code == 4
        assert "numerical error" in capsys.readouterr().err

    def test_simulate_failure_carries_replay_coordinates(self, tmp_path, capsys):
        # jumps of 2x the state at rate 2000 overflow within two time units;
        # every command names (seed, path, delta), and regenerating that
        # path from Python fails at the node the message names
        cfg = {
            "model": {
                "regimes": [{"alpha_m1": 0.0, "alpha_0": 0.0, "alpha_1": 0.0,
                             "alpha_2": 0.0, "alpha_3": 2.0}],
                "rho": 2.0, "theta": 1.25, "tau": 1.0, "jump_intensity": 2000.0,
                "volatility": {"name": "zero"}, "include_inverse_drift": False,
                "initial_segment": {"value": 1.0}, "generator": [[0.0]],
            },
            "truncation": {"psi_exponent": 2.0 / 3.0, "mu": "power_fit"},
            "simulation": {"delta": 0.01, "horizon": 2.0, "num_paths": 4,
                           "seed": 55, "threads": 1},
            "experiment": {"strike": 0.01, "barrier": 1.5,
                           "step_ladder": [0.04, 0.02], "reference_delta": 0.005},
        }
        path = write_config(tmp_path, cfg)
        run = resolve_config(load_config(path))
        replays = {}
        for command in ("simulate", "price-bond", "price-barrier",
                        "compare-schemes", "converge"):
            assert self.run_cli([command, "--config", path]) == 4, command
            err = capsys.readouterr().err
            found = re.search(r"at node (\d+) of path \d+ \(replay: seed=(\d+), "
                              r"path=(\d+), delta=([^)]+)\)", err)
            assert found, (command, err)
            node, seed, path_index = map(int, found.groups()[:3])
            delta = float(found.group(4))
            replays[command] = (node, seed, path_index, delta)
            with pytest.raises(SimulationError) as replayed:
                simulate_tem_path(run.spec, run.policy, delta, run.horizon,
                                  seed=seed, path_index=path_index)
            assert (replayed.value.step, replayed.value.seed,
                    replayed.value.path_index) == (node, seed, path_index), command
        assert replays["simulate"] == (192, 55, 0, 0.01)
        assert replays["converge"] == (237, 55, 0, 0.005)

    @pytest.mark.parametrize("command,threads,psi_exponent,expected", [
        ("validate", 1, 2.0 / 3.0, 1),
        ("price-bond", 2, 2.0 / 3.0, 1),
        ("price-bond", 2, 0.25, 0),
    ])
    def test_step_profile_warning_once_per_command(self, tmp_path, command, threads,
                                                   psi_exponent, expected):
        # the policy warns when it is built; the pool's workers unpickle it,
        # so neither they nor their chunks (three here) warn again
        cfg = demo_config(num_paths=300, horizon=0.05)
        cfg["truncation"]["psi_exponent"] = psi_exponent
        path = write_config(tmp_path, cfg)
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC),
                                                          env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "temsim.cli", command, "--config", path,
             "--threads", str(threads)],
            capture_output=True, text=True, env=env, timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stderr.count("StepProfileWarning") == expected, done.stderr
        # the warning names the line that built the policy
        assert "truncation.py" not in done.stderr, done.stderr

    def test_pooled_outputs_differ_only_in_the_threads_line(self, tmp_path):
        # two chunks of paths: --threads 1 runs them in this process,
        # --threads 2 in a pool; only the echoed thread count may differ
        cfg = demo_config(num_paths=130, horizon=0.08)
        cfg["experiment"] = {"step_ladder": [0.02, 0.01], "reference_delta": 0.005}
        path = write_config(tmp_path, cfg)
        for command in ("converge", "compare-schemes", "price-bond", "price-barrier"):
            outputs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{command}-{threads}.csv"
                assert self.run_cli([command, "--config", path, "--threads", threads,
                                     "--out", str(out)]) == 0
                outputs.append(out.read_text().splitlines())
            one, two = outputs
            assert len(one) == len(two), command
            assert [(a, b) for a, b in zip(one, two) if a != b] == [
                ("#     threads: 1", "#     threads: 2")], command

    def test_delta_star_override_meets_the_search_rule(self, tmp_path, capsys):
        # the search stops at 0.0600504, below which the drift of this
        # model is positive: a run at 0.0604 is refused, and a bound given
        # above the search's is a config error, not a run the search refuses
        cfg = {
            "model": {"regimes": [{"alpha_m1": 0.3, "alpha_0": 5.0, "alpha_1": 0.1,
                                   "alpha_2": 0.5, "alpha_3": 0.0}],
                      "rho": 2.0, "theta": 1.25, "tau": 0.0604, "jump_intensity": 0.0,
                      "volatility": {"name": "zero"}, "generator": [[0.0]]},
            "truncation": {"psi_exponent": 2.0 / 3.0, "mu": "power_fit"},
            "simulation": {"delta": 0.0604, "horizon": 0.2416, "num_paths": 4,
                           "seed": 1, "threads": 1},
        }
        searched = write_config(tmp_path, cfg, "searched.yaml")
        assert self.run_cli(["price-bond", "--config", searched]) == 4
        assert "exceeds the admissible bound delta_star = 0.0600504" in \
            capsys.readouterr().err
        cfg["truncation"]["delta_star"] = 0.0605
        given = write_config(tmp_path, cfg, "given.yaml")
        for command in ("validate", "price-bond"):
            assert self.run_cli([command, "--config", given]) == 2, command
            assert "config error: truncation: delta_star override 0.0605 is not " \
                "admissible" in capsys.readouterr().err, command

    def test_seed_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, demo_config())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.run_cli(["simulate", "--config", cfg, "--out", str(a)])
        self.run_cli(["simulate", "--config", cfg, "--seed", "4",
                      "--out", str(b)])
        assert a.read_text() != b.read_text()

    def test_shipped_configs_resolve(self):
        for name in ("two_regime.yaml", "convergence.yaml"):
            run = resolve_config(load_config(str(REPO_CONFIGS / name)))
            assert run.spec.num_regimes == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_non_positive_threads_flag_exit_code(self, tmp_path, capsys, threads):
        cfg = write_config(tmp_path, demo_config())
        assert self.run_cli(["price-bond", "--config", cfg, "--threads", threads]) == 2
        assert "simulation.threads" in capsys.readouterr().err

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, demo_config())
        assert self.run_cli(["simulate", "--config", cfg, "--seed", "-3"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_header_echo_reproducibility(self, tmp_path):
        # the echoed config in the header resolves to the same run, field
        # for field
        def echoed(lines):
            return yaml.safe_load("\n".join(
                line[len("#   "):] for line in lines if line.startswith("#   ")))

        cfg = write_config(tmp_path, demo_config())
        out = tmp_path / "bond.csv"
        self.run_cli(["price-bond", "--config", cfg, "--seed", "12",
                      "--out", str(out)])
        echo = echoed(out.read_text().splitlines())
        rerun = resolve_config(echo)
        assert rerun.seed == 12
        assert rerun.policy.delta_star == pytest.approx(
            echo["truncation"]["delta_star"], rel=1e-12)
        assert rerun.resolved == echo
        for name in ("two_regime.yaml", "convergence.yaml"):
            run = resolve_config(load_config(str(REPO_CONFIGS / name)))
            echo = echoed(export.config_header(run.resolved, "converge"))
            assert echo == run.resolved
            assert resolve_config(echo).resolved == run.resolved, name

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("field", [
        "model.rho", "model.tau", "model.jump_intensity",
        "model.initial_segment.value", "experiment.strike", "experiment.barrier",
        "experiment.p", "simulation.delta", "simulation.horizon",
        "truncation.psi_exponent",
    ])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, field, value):
        cfg = demo_config()
        *sections, key = field.split(".")
        node = cfg
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = float(value)
        path = write_config(tmp_path, cfg)
        assert self.run_cli(["price-barrier", "--config", path]) == 2
        assert f"config error: {field}: expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("generator", [
        [[-2.0, 2.0], [1.0]], "abc", [["x", 2.0], [1.0, -1.0]], {"rows": 2},
    ], ids=["ragged", "string", "string-entry", "mapping"])
    def test_malformed_generator_exit_code(self, tmp_path, capsys, generator):
        cfg = demo_config()
        cfg["model"]["generator"] = generator
        path = write_config(tmp_path, cfg)
        assert self.run_cli(["simulate", "--config", path]) == 2
        assert "config error: model.generator: " in capsys.readouterr().err

    @pytest.mark.parametrize("where,key", [
        ("", "simulaton"), ("model", "jump_intensty"), ("truncation", "psi_exponnet"),
        ("simulation", "dleta"), ("experiment", "stirke"), ("model.regimes[1]", "alpha3"),
        ("model.volatility", "levle"), ("model.volatility", "bound"),
        ("model.initial_segment", "vaule"),
    ])
    def test_unknown_field_exit_code(self, tmp_path, capsys, where, key):
        """A mistyped field is a config error, not a run on its default."""
        cfg = demo_config()
        cfg["model"]["regimes"] = copy.deepcopy(MODEL_PRESETS["two_regime_demo"]["regimes"])
        node = cfg
        for name in filter(None, re.split(r"[.\[\]]", where)):
            node = node[int(name)] if name.isdigit() else node.setdefault(name, {})
        field = f"{where}.{key}" if where else key
        for value in (0.5, None):  # a null typo is no default either
            node[key] = value
            path = write_config(tmp_path, cfg)
            assert self.run_cli(["simulate", "--config", path]) == 2
            assert f"config error: {field}: unknown field; known: " in \
                capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--psi-exponent", "0.25"],
                                       ["--no-inverse-drift"]], ids=lambda f: f[0])
    def test_config_fields_have_no_flags(self, tmp_path, capsys, flags):
        """``truncation.psi_exponent`` and ``model.include_inverse_drift``
        are read from the config file only."""
        cfg = write_config(tmp_path, demo_config())
        with pytest.raises(SystemExit) as done:
            self.run_cli(["validate", "--config", cfg, *flags])
        assert done.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["file", "flag"])
    def test_seed_read_exactly(self, tmp_path, capsys, where):
        def run(seed):
            cfg = demo_config(horizon=0.05)
            if where == "file":
                cfg["simulation"]["seed"] = seed
            flags = ["--seed", str(seed)] if where == "flag" else []
            path = write_config(tmp_path, cfg)
            return self.run_cli(["simulate", "--config", path, *flags,
                                 "--out", str(tmp_path / "path.csv")])

        seed = 2**53 + 1
        assert run(seed) == 0
        assert f"#     seed: {seed}" in (tmp_path / "path.csv").read_text().splitlines()
        assert run(10**400) == 2
        assert "simulation.seed: integer out of range" in capsys.readouterr().err
