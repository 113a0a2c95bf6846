"""Command-line front end.

One subcommand per entry of ``_COMMANDS``. One YAML config file describes
the run; command-line flags override file values and are read by the same
rules, file values override defaults. Exit codes: 0 on success, 2 for
configuration problems, 3 for failed validation checks, 4 for numerical
failures.
"""

from __future__ import annotations

import argparse
import os
import sys

# temsim's BLAS calls are tiny N x N products and a least-squares fit, so a
# CLI process and its forked pool workers start no OpenBLAS thread pool. The
# default only takes effect before numpy loads, and a value the user set wins;
# a host process that imported numpy already keeps its environment.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import export
from .config import ConfigError, RunConfig, load_config, resolve_config
from .engine import SimulationError, resolve_grid
from .estimators import (
    ArgumentError,
    barrier_option_price,
    bond_price,
    scheme_comparison,
    strong_error,
)
from .model import CoefficientTables, validate_assumptions
from .schemes import simulate_tem_path
from .truncation import TruncationError, psi, truncation_band

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

# the config field that sets each argument an ArgumentError names
_FIELDS = {"barrier": "experiment.barrier", "coarse_deltas": "experiment.step_ladder",
           "delta": "simulation.delta", "horizon": "simulation.horizon",
           "num_paths": "simulation.num_paths", "p": "experiment.p",
           "reference_delta": "experiment.reference_delta", "strike": "experiment.strike",
           "tau": "model.tau"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="temsim",
        description="Truncated EM simulation of a regime-switching jump "
                    "rate model with delayed volatility",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", required=True, help="YAML config file")
        cmd.add_argument("--seed", type=int, default=None, help="master seed override")
        cmd.add_argument("--threads", type=int, default=None,
                         help="worker processes (default: machine parallelism)")
        cmd.add_argument("--out", default=None, help="output file (default: stdout)")
    return parser


def cmd_validate(run: RunConfig) -> tuple[list[str], int]:
    lines = []

    checks = validate_assumptions(run.spec)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        suffix = f" ({check.detail})" if check.detail and not check.passed else ""
        lines.append(f"{status} {check.name}{suffix}")

    lines.append(f"INFO delta_star = {run.policy.delta_star!r}")
    grid = resolve_grid(run.spec.tau, run.delta, run.horizon)
    lines.append(f"INFO effective_delta = {grid.delta!r}")

    lower, upper = truncation_band(grid.delta, run.policy)
    lines.append(f"INFO psi(delta) = {psi(grid.delta, run.policy)!r}")
    lines.append(f"INFO band = [{lower!r}, {upper!r}]")
    if run.policy.quarter_power:
        lines.append("PASS quarter_power_step_profile")
    else:
        lines.append("WARN quarter_power_step_profile (psi_exponent = "
                     f"{run.resolved['truncation']['psi_exponent']!r} > 0.25)")

    # randomized cap check: every truncated coefficient stays below psi(delta),
    # with the cap and band the simulation takes at each step
    rng = np.random.default_rng(12345)
    xs = rng.uniform(-50.0, 50.0, 2000)
    ridx = rng.integers(0, run.spec.num_regimes, xs.size)
    deltas = rng.uniform(1e-6, run.policy.delta_star, xs.size).tolist()
    caps = np.array([psi(d, run.policy) for d in deltas])
    lowers, uppers = np.array([truncation_band(d, run.policy) for d in deltas]).T
    tables = CoefficientTables(run.spec)
    fd, gd = tables.truncated(xs, ridx, lowers, uppers)
    cap_ok = bool(np.all(np.maximum(np.abs(fd), gd) <= caps * (1.0 + 1e-12)))
    inside = np.linspace(lower * 1.01, upper * 0.99, 7)
    interior_ok = np.array_equal(tables.truncated(inside, 0, lower, upper)[0],
                                 tables.drift(inside, 0))
    lines.append(("PASS" if cap_ok else "FAIL") + " truncated_coefficient_cap")
    lines.append(("PASS" if interior_ok else "FAIL") + " band_interior_identity")
    passed = all(c.passed for c in checks) and cap_ok and interior_ok
    return lines, EXIT_OK if passed else EXIT_VALIDATION


def cmd_simulate(run: RunConfig) -> tuple[list[str], int]:
    state = simulate_tem_path(run.spec, run.policy, run.delta, run.horizon,
                              seed=run.seed)
    return export.render_path_csv(state), EXIT_OK


def cmd_converge(run: RunConfig) -> tuple[list[str], int]:
    if run.reference_delta is None:
        raise ConfigError("experiment.reference_delta", "required for converge")
    report = strong_error(
        run.spec, run.policy, list(run.step_ladder), run.reference_delta,
        run.horizon, run.p, run.num_paths, run.seed, threads=run.threads,
    )
    return export.render_convergence_csv(report), EXIT_OK


def cmd_compare_schemes(run: RunConfig) -> tuple[list[str], int]:
    result = scheme_comparison(
        run.spec, run.policy, run.delta, run.horizon, run.num_paths, run.seed,
        threads=run.threads,
    )
    return export.render_comparison_csv(result), EXIT_OK


def cmd_price_bond(run: RunConfig) -> tuple[list[str], int]:
    result = bond_price(run.spec, run.policy, run.delta, run.horizon,
                        run.num_paths, run.seed, threads=run.threads)
    return export.render_price_csv(result), EXIT_OK


def cmd_price_barrier(run: RunConfig) -> tuple[list[str], int]:
    result = barrier_option_price(
        run.spec, run.policy, run.delta, run.horizon, run.strike, run.barrier,
        run.num_paths, run.seed, threads=run.threads,
    )
    return export.render_price_csv(result), EXIT_OK


_COMMANDS = {
    "validate": (cmd_validate, "audit model assumptions and the truncation policy"),
    "simulate": (cmd_simulate, "simulate one path and write it as CSV"),
    "converge": (cmd_converge, "strong-error study over the configured step ladder"),
    "compare-schemes": (cmd_compare_schemes, "pathwise TEM vs BEM distance at one step size"),
    "price-bond": (cmd_price_bond, "Monte Carlo bond price"),
    "price-barrier": (cmd_price_barrier, "Monte Carlo knock-out barrier option price"),
}


def _check_out(path: str) -> None:
    """Refuse an ``--out`` path that ``open`` would refuse, before the run."""
    if os.path.isdir(path):
        raise ConfigError("--out", f"{path} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError("--out", f"{parent} is not a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    try:
        if args.out:
            _check_out(args.out)
        run = resolve_config(load_config(args.config), seed=args.seed,
                             threads=args.threads)
        lines, code = handler(run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArgumentError as exc:
        print(f"config error: {_FIELDS[exc.argument]}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, TruncationError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    output = "\n".join(export.config_header(run.resolved, args.command) + lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fobj:
            fobj.write(output)
    else:
        sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
