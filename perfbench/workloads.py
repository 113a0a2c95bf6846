"""The benchmark's workloads.

A workload turns a seed into config files (written from the shipped
``configs/*.yaml`` templates) and into the CLI invocations of one pass.
Each invocation carries the path-steps it simulates, counted from the
config, and a check that its output is plausible for any seed. Bit-exact
checks (golden digests, repeatability, thread invariance) live in run.py.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

import yaml

DEMO_TEMPLATE = os.path.join("configs", "two_regime.yaml")
CONVERGENCE_TEMPLATE = os.path.join("configs", "convergence.yaml")
TEMPLATES = (DEMO_TEMPLATE, CONVERGENCE_TEMPLATE)

# The workload seed whose outputs are pinned by golden.json.
GOLDEN_SEED = 0
# Delay of the two_regime_demo preset; both templates use that preset.
DEMO_TAU = 1.0


@dataclass(frozen=True)
class Invocation:
    """One CLI command of a pass."""

    name: str            # unique within the workload; keys golden.json
    command: str         # temsim subcommand
    config: str          # generated YAML file
    threads: int
    path_steps: int      # simulated path-steps, counted from the config
    check: Callable[[str, int], Optional[str]]  # (output, threads) -> error or None

    def argv(self, out_path: str, threads: Optional[int] = None) -> list[str]:
        threads = self.threads if threads is None else threads
        return [self.command, "--config", self.config,
                "--threads", str(threads), "--out", out_path]

    def chunk_bytes(self, chunk_size: int) -> int:
        """Computed working set of one chunk of this invocation: P paths times
        8-byte elements of the state arrays (M+K+1 nodes each; TEM and BEM
        for compare-schemes), the Brownian, Poisson and chain-uniform arrays
        (K each) and the regimes (K+1). 0 for validate, which simulates none."""
        if self.command == "validate":
            return 0
        with open(self.config, "r", encoding="utf-8") as fobj:
            raw = yaml.safe_load(fobj)
        sim = raw["simulation"]
        delta = raw["experiment"]["reference_delta"] if self.command == "converge" \
            else sim["delta"]
        m, k = grid_steps(delta, sim["horizon"])
        paths = 1 if self.command == "simulate" else min(chunk_size, sim["num_paths"])
        states = 2 if self.command == "compare-schemes" else 1
        return paths * 8 * (states * (m + k + 1) + 3 * k + (k + 1))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    num_paths: int       # paths per pooled invocation
    build: Callable[["Workload", str, str, int], list[Invocation]]

    def invocations(self, root: str, workdir: str, seed: int) -> list[Invocation]:
        """Write this seed's configs into ``workdir``; return one pass."""
        return self.build(self, root, workdir, seed)


def grid_steps(delta: float, horizon: float, tau: float = DEMO_TAU) -> tuple[int, int]:
    """(M, K): delay steps and horizon steps, snapped as temsim snaps them."""
    m = max(1, round(tau / delta))
    return m, round(horizon * m / tau)


def _load_template(root: str, template: str) -> dict:
    with open(os.path.join(root, template), "r", encoding="utf-8") as fobj:
        return yaml.safe_load(fobj)


def _write_config(workdir: str, name: str, raw: dict) -> str:
    path = os.path.join(workdir, f"{name}.yaml")
    with open(path, "w", encoding="utf-8") as fobj:
        yaml.safe_dump(raw, fobj, sort_keys=True)
    return path


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds hash through SHA-512, so this is stable across processes
    return random.Random(f"temsim-perfbench:{workload}:{seed}")


# -- output checks -------------------------------------------------------------


def _rows(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def _echo_check(text: str, command: str, seed: int, threads: int) -> Optional[str]:
    lines = text.splitlines()
    if not lines or lines[0] != f"# command: {command}":
        return f"output does not start with '# command: {command}'"
    for key, value in (("seed", seed), ("threads", threads)):
        if f"#     {key}: {value}" not in lines:
            return f"config echo lacks {key}: {value}"
    return None


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def price_check(command: str, seed: int, num_paths: int, nonnegative: bool):
    def check(text: str, threads: int) -> Optional[str]:
        err = _echo_check(text, command, seed, threads)
        if err:
            return err
        rows = _rows(text)
        if len(rows) != 2 or rows[0] != "estimate,std_error,ci_low,ci_high,num_paths":
            return "unexpected price table"
        est, se, lo, hi, n = rows[1].split(",")
        est, se, lo, hi = float(est), float(se), float(lo), float(hi)
        if not _finite((est, se, lo, hi)) or int(n) != num_paths:
            return f"non-finite estimate or wrong path count: {rows[1]}"
        if se < 0.0 or not lo <= est <= hi:
            return f"inconsistent confidence interval: {rows[1]}"
        if (est < 0.0) if nonnegative else (est <= 0.0):
            return f"estimate out of range: {est}"
        return None
    return check


def compare_check(seed: int, num_paths: int, delta: float):
    def check(text: str, threads: int) -> Optional[str]:
        err = _echo_check(text, "compare-schemes", seed, threads)
        if err:
            return err
        rows = _rows(text)
        if not rows or rows[0] != "stat,value":
            return "unexpected comparison table"
        stats = dict(row.split(",") for row in rows[1:])
        if int(stats.get("num_paths", -1)) != num_paths or float(stats["delta"]) != delta:
            return "wrong num_paths or delta in comparison"
        order = [float(stats[k]) for k in ("q10", "q50", "q90", "max")]
        if not _finite(order) or not 0.0 <= order[0] <= order[1] <= order[2] <= order[3]:
            return f"distance quantiles out of order: {order}"
        if not 0.0 <= float(stats["mean"]) <= order[3]:
            return "mean distance outside [0, max]"
        return None
    return check


def converge_check(seed: int, ladder: list[float]):
    def check(text: str, threads: int) -> Optional[str]:
        err = _echo_check(text, "converge", seed, threads)
        if err:
            return err
        rows = _rows(text)
        if not rows or rows[0] != "delta,error,std_error":
            return "unexpected convergence table"
        table = [[float(v) for v in row.split(",")] for row in rows[1:]]
        if [r[0] for r in table] != sorted(ladder, reverse=True):
            return "convergence rows do not match the step ladder"
        if not all(r[1] > 0.0 and r[2] >= 0.0 and _finite(r) for r in table):
            return "non-positive or non-finite strong error"
        last = text.splitlines()[-1]
        if not last.startswith("# fitted_order = ") or not math.isfinite(
                float(last.split("=")[1])):
            return "missing or non-finite fitted order"
        return None
    return check


def validate_check(seed: int):
    def check(text: str, threads: int) -> Optional[str]:
        err = _echo_check(text, "validate", seed, threads)
        if err:
            return err
        rows = _rows(text)
        if any(row.startswith("FAIL") for row in rows):
            return "validate reported a failed check"
        if "PASS truncated_coefficient_cap" not in rows:
            return "validate lacks the coefficient-cap check"
        return None
    return check


def simulate_check(seed: int, nodes: int):
    def check(text: str, threads: int) -> Optional[str]:
        err = _echo_check(text, "simulate", seed, threads)
        if err:
            return err
        rows = _rows(text)
        if not rows or rows[0] != "k,t,X,regime,dB,dN" or len(rows) != nodes + 1:
            return f"expected {nodes} path rows"
        if not _finite(float(row.split(",")[2]) for row in rows[1:]):
            return "non-finite path value"
        return None
    return check


# -- workload builders ---------------------------------------------------------


def _demo(root: str, seed: int, num_paths: Optional[int] = None) -> dict:
    raw = _load_template(root, DEMO_TEMPLATE)
    raw["simulation"]["seed"] = seed
    if num_paths is not None:
        raw["simulation"]["num_paths"] = num_paths
    return raw


def build_price(w: Workload, root: str, workdir: str, seed: int) -> list[Invocation]:
    rng = _rng(w.name, seed)
    master = rng.randrange(1, 2**31)
    raw = _demo(root, master, w.num_paths)
    raw["experiment"].update(strike=round(rng.uniform(0.005, 0.03), 4),
                             barrier=round(rng.uniform(0.8, 2.0), 3))
    sim = raw["simulation"]
    _, k = grid_steps(sim["delta"], sim["horizon"])
    config = _write_config(workdir, w.name, raw)
    return [
        Invocation("price-bond", "price-bond", config, w.threads, w.num_paths * k,
                   price_check("price-bond", master, w.num_paths, False)),
        Invocation("price-barrier", "price-barrier", config, w.threads, w.num_paths * k,
                   price_check("price-barrier", master, w.num_paths, True)),
        *interactive_invocations(root, workdir, seed),
    ]


def build_compare(w: Workload, root: str, workdir: str, seed: int) -> list[Invocation]:
    master = _rng(w.name, seed).randrange(1, 2**31)
    raw = _demo(root, master, w.num_paths)
    sim = raw["simulation"]
    _, k = grid_steps(sim["delta"], sim["horizon"])
    config = _write_config(workdir, w.name, raw)
    return [Invocation("compare-schemes", "compare-schemes", config, w.threads,
                       2 * w.num_paths * k,  # TEM and BEM over the same noise
                       compare_check(master, w.num_paths, sim["delta"]))]


def build_converge(w: Workload, root: str, workdir: str, seed: int) -> list[Invocation]:
    master = _rng(w.name, seed).randrange(1, 2**31)
    raw = _load_template(root, CONVERGENCE_TEMPLATE)
    raw["simulation"].update(num_paths=w.num_paths, seed=master)
    horizon = raw["simulation"]["horizon"]
    exp = raw["experiment"]
    _, k_ref = grid_steps(exp["reference_delta"], horizon)
    k_levels = sum(grid_steps(d, horizon)[1] for d in exp["step_ladder"])
    config = _write_config(workdir, w.name, raw)
    return [Invocation("converge", "converge", config, w.threads,
                       w.num_paths * (k_ref + k_levels),
                       converge_check(master, list(exp["step_ladder"])))]


SIMULATE_RUNS = 3
INTERACTIVE = "interactive"  # names the seeds and configs of these commands


def interactive_invocations(root: str, workdir: str, seed: int) -> list[Invocation]:
    """validate plus single-path simulate runs, each single-process."""
    rng = _rng(INTERACTIVE, seed)
    masters = [rng.randrange(1, 2**31) for _ in range(1 + SIMULATE_RUNS)]
    raw = _demo(root, masters[0])  # validate and simulate ignore num_paths
    config = _write_config(workdir, f"{INTERACTIVE}-validate", raw)
    invocations = [Invocation("validate", "validate", config, 1, 0,
                              validate_check(masters[0]))]
    sim = raw["simulation"]
    m, k = grid_steps(sim["delta"], sim["horizon"])
    for idx, master in enumerate(masters[1:]):
        raw["simulation"]["seed"] = master
        config = _write_config(workdir, f"{INTERACTIVE}-simulate{idx}", raw)
        invocations.append(Invocation(
            f"simulate{idx}", "simulate", config, 1, k,
            simulate_check(master, m + k + 1)))
    return invocations


# Why each workload exists; the same sentences go into BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            "price", "bond and barrier prices on many short cache-resident chunks (streams, "
            "chain, TEM steps, pool fan-out), then validate and single-path simulate runs",
            threads=2, num_paths=1000, build=build_price),
        Workload(
            "converge", "2^-14 reference ladder, two 185 MB chunks against a 105 MiB "
            "L3: memory traffic, the 32768-step loop and coarsening; a chunk merge serialises it",
            threads=2, num_paths=256, build=build_converge),
        Workload(
            "compare", "the only workload with the BEM implicit solve, about 79% of its "
            "time; a BEM change shows here and nowhere else",
            threads=2, num_paths=512, build=build_compare),
    )
}
