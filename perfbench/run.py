#!/usr/bin/env python3
"""temsim benchmark: end-to-end CLI timings and per-layer traced figures.

Run from the root of a temsim checkout:

    python3 perfbench/run.py --workload price --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --write-golden

``--trace 0`` runs each CLI invocation of the workload as a fresh process,
as users run it, and reports the end-to-end metrics. ``--trace 1`` runs
the same invocations inside this process with temsim's layers wrapped (see
layers.py) and reports the per-layer metrics. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
README.md in this directory says why each workload exists and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import layers
from workloads import GOLDEN_SEED, TEMPLATES, WORKLOADS, Invocation, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_FILE = os.path.join(HERE, "golden.json")
CLI_ENTRY = os.path.join("src", "temsim", "cli.py")

MIN_PASSES = 3        # timed passes per run, however long each takes
SETUP_PROBES_FIRST = 3  # then SETUP_PROBES_PER_PASS before each further pass
SETUP_PROBES_PER_PASS = 2
INVOCATION_TIMEOUT_S = 150.0

# Median wall and CPU time of calib.py on the host the bounds were tuned on
# (2 vCPUs of an Intel Xeon VM, CPython 3.11, numpy 2.4). Each pass's wall
# and CPU times are scaled by these references over the calibrations run next
# to that pass, so they read as seconds on that host; see README.md.
CALIB_PROCS = 2
CALIB_REFERENCE_WALL_S = 0.64
CALIB_REFERENCE_CPU_S = 1.08
CALIB_SHARE = 0.25  # calibration time after each pass, as a share of the pass

END_TO_END = {
    "wall_s": ("s", "lower"),
    "path_steps_per_s": ("1/s", "higher"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class CheckoutError(RuntimeError):
    pass


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fobj:
        return fobj.read()


def load_golden() -> dict:
    try:
        with open(GOLDEN_FILE, "r", encoding="utf-8") as fobj:
            return json.load(fobj)["digests"]
    except FileNotFoundError:
        return {}


@dataclass
class Tally:
    """Invocations attempted and the failures among them."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def record(self, where: str, errors: list) -> None:
        self.attempted += 1
        if errors:
            self.failures.append(f"{where}: {'; '.join(errors)}")


def output_errors(inv: Invocation, code, text, expected: dict,
                  threads: int) -> list:
    """Exit code, plausibility and digest of one invocation's output.

    ``expected`` maps invocation names to digests; a missing entry is filled
    in, so the first pass pins the digests the later passes must repeat.
    """
    if code != 0:
        return [f"exit code {code}"]
    if text is None:
        return ["no output file"]
    errors = []
    problem = inv.check(text, threads)
    if problem:
        errors.append(problem)
    want = expected.setdefault(inv.name, digest(text))
    if want != digest(text):
        errors.append("output digest differs from the pinned one")
    return errors


# -- fresh-process runs (trace 0) ----------------------------------------------


@dataclass(frozen=True)
class ProcessUsage:
    wall_s: float
    cpu_s: float       # user + sys of the process and every child it reaped
    rss_mb: float      # largest resident set of any single one of them
    code: int


def _kill_group(pgid: int, fired: threading.Event) -> None:
    fired.set()
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(cmd: list, root: str, env: dict, err_path: str) -> ProcessUsage:
    """Run ``cmd`` to completion and measure it with wait4.

    wait4 reports the resource use of this one child together with the
    children it reaped (temsim's pool workers), so the peak RSS is per
    invocation rather than RUSAGE_CHILDREN's running maximum over all.
    """
    fired = threading.Event()
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, _kill_group, (proc.pid, fired))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if fired.is_set():
        _kill_group(proc.pid, fired)  # pool workers the killed CLI left behind
    return ProcessUsage(wall, usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0, proc.returncode)


@dataclass(frozen=True)
class PassResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    path_steps: int


class ProcessRunner:
    def __init__(self, root: str, workdir: str):
        self.root, self.workdir = root, workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.err_path = os.path.join(workdir, "stderr.txt")

    def cli_pass(self, invocations: list, expected: dict, tally: Tally,
                 label: str) -> PassResult:
        usages = []
        for inv in invocations:
            out = os.path.join(self.workdir, f"{inv.name}.csv")
            if os.path.exists(out):
                os.remove(out)
            cmd = [sys.executable, "-m", "temsim.cli", *inv.argv(out)]
            usage = run_process(cmd, self.root, self.env, self.err_path)
            usages.append(usage)
            text = read_text(out) if os.path.exists(out) else None
            errors = output_errors(inv, usage.code, text, expected, inv.threads)
            if usage.code != 0:
                errors.append(read_text(self.err_path).strip()[-300:])
            tally.record(f"{label} {inv.name}", errors)
        return PassResult(
            wall_s=sum(u.wall_s for u in usages),
            cpu_s=sum(u.cpu_s for u in usages),
            rss_mb=max(u.rss_mb for u in usages),
            path_steps=sum(inv.path_steps for inv in invocations),
        )

    def calibrate(self) -> ProcessUsage:
        cmd = [sys.executable, os.path.join(HERE, "calib.py"), "--procs", str(CALIB_PROCS)]
        usage = run_process(cmd, self.root, self.env, self.err_path)
        if usage.code != 0:
            raise CheckoutError(f"calibration exited with {usage.code}: "
                                f"{read_text(self.err_path)[-2000:]}")
        return usage

    def setup_probe(self, config: str) -> float:
        cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), config]
        usage = run_process(cmd, self.root, self.env, self.err_path)
        if usage.code != 0:
            raise CheckoutError(f"set-up probe exited with {usage.code}: "
                                f"{read_text(self.err_path)[-2000:]}")
        return usage.wall_s


def end_to_end_run(w: Workload, root: str, workdir: str, seed: int,
                   seconds: float, tally: Tally) -> dict:
    runner = ProcessRunner(root, workdir)
    golden = load_golden().get(w.name, {})

    # The first pass runs the golden seed's inputs, which are the same size
    # as every seed's: it checks bit-identity with golden.json on every run
    # and is timed like the others.
    golden_dir = os.path.join(workdir, "golden")
    os.makedirs(golden_dir, exist_ok=True)
    golden_invs = w.invocations(root, golden_dir, GOLDEN_SEED)
    missing = [inv.name for inv in golden_invs if inv.name not in golden]
    if missing:
        tally.failures.append(f"golden.json has no digest for {w.name}: {missing}")

    invocations = w.invocations(root, workdir, seed)
    expected = dict(golden) if seed == GOLDEN_SEED else {}
    setup_config = invocations[0].config
    setups = [runner.setup_probe(setup_config) for _ in range(SETUP_PROBES_FIRST)]

    # calib.py runs before the first pass and after every pass, about
    # CALIB_SHARE of a pass's time each time, so the host speed of each pass
    # is read from the calibrations on either side of it
    def calibrate(pass_wall_s: float) -> list:
        block = [runner.calibrate()]
        while sum(u.wall_s for u in block) < CALIB_SHARE * pass_wall_s:
            block.append(runner.calibrate())
        return block

    blocks = [calibrate(0.0)]
    start = time.perf_counter()
    passes = [runner.cli_pass(golden_invs, dict(golden), tally, "golden")]
    blocks.append(calibrate(passes[-1].wall_s))
    cycle_s = time.perf_counter() - start
    # a further pass starts only if it is expected to end within the run
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start + cycle_s < seconds):
        cycle_start = time.perf_counter()
        setups += [runner.setup_probe(setup_config) for _ in range(SETUP_PROBES_PER_PASS)]
        passes.append(runner.cli_pass(invocations, expected, tally,
                                      f"pass {len(passes)}"))
        blocks.append(calibrate(passes[-1].wall_s))
        cycle_s = time.perf_counter() - cycle_start

    med = statistics.median
    calibs = [u.wall_s for block in blocks for u in block]
    pairs = [before + after for before, after in zip(blocks, blocks[1:])]
    # a factor > 1 means the host ran faster than the reference host
    factors = [CALIB_REFERENCE_WALL_S / med(u.wall_s for u in pair) for pair in pairs]
    cpu_factors = [CALIB_REFERENCE_CPU_S / med(u.cpu_s for u in pair) for pair in pairs]
    print(f"  {w.name:12s} calibration        {med(calibs):14.6g} s    "
          f"median of {len(calibs)} (min {min(calibs):.6g}, max {max(calibs):.6g}); "
          f"host-speed factors {min(factors):.4g} to {max(factors):.4g} (wall), "
          f"{min(cpu_factors):.4g} to {max(cpu_factors):.4g} (CPU)")
    raw = {
        "wall_s": [p.wall_s for p in passes],
        "path_steps_per_s": [p.path_steps / p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p.rss_mb for p in passes],
    }
    scaled = {
        "wall_s": [v * f for v, f in zip(raw["wall_s"], factors)],
        "path_steps_per_s": [v / f for v, f in zip(raw["path_steps_per_s"], factors)],
        "cpu_s": [v * f for v, f in zip(raw["cpu_s"], cpu_factors)],
        "setup_s": [v * CALIB_REFERENCE_WALL_S / med(calibs) for v in setups],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    result = {}
    for name, values in scaled.items():
        result[name] = med(values)
        print(f"  {w.name:12s} {name:18s} {result[name]:14.6g} {END_TO_END[name][0]:4s} "
              f"median of {len(values)}, as measured {med(raw[name]):.6g} "
              f"(min {min(raw[name]):.6g}, max {max(raw[name]):.6g})")
    return result


# -- in-process traced runs (trace 1) --------------------------------------------


def _header_without_threads(text: str) -> list:
    return [line for line in text.splitlines()
            if line.startswith("#") and not line.lstrip("# ").startswith("threads:")]


def _data_rows(text: str) -> list:
    return [line for line in text.splitlines() if not line.startswith("#")]


def thread_invariance_errors(pooled: str, single: str) -> list:
    errors = []
    if _data_rows(pooled) != _data_rows(single):
        errors.append("data rows differ between the pooled and single-process runs")
    if _header_without_threads(pooled) != _header_without_threads(single):
        errors.append("CSV headers differ in more than the threads line")
    return errors


def in_process_pass(invocations: list, workdir: str, threads, tag: str,
                    install, root_spans: bool = False):
    """Run every invocation through ``temsim.cli.main`` in this process with
    ``install(recorder, patches)`` applied, at ``threads`` or, when that is
    None, at each invocation's own; returns the recorder, the
    (exit code, output) of each invocation and the summed wall time."""
    from temsim import cli

    rec, patches = layers.Recorder(), layers.Patches()
    install(rec, patches)
    outputs, wall_ns = {}, 0
    try:
        for inv in invocations:
            out = os.path.join(workdir, f"{inv.name}-{tag}.csv")
            if os.path.exists(out):
                os.remove(out)
            start = time.perf_counter_ns()
            if root_spans:
                rec.enter(layers.ROOT_PREFIX + inv.command)
            try:
                code = cli.main(inv.argv(out, threads))
            except Exception as exc:  # a crash fails the invocation, not the run
                code = f"{type(exc).__name__}: {exc}"
            finally:
                if root_spans:
                    rec.exit()
            wall_ns += time.perf_counter_ns() - start
            outputs[inv.name] = (code, read_text(out) if os.path.exists(out) else None)
    finally:
        patches.restore()
    return rec, outputs, wall_ns


def traced_run(w: Workload, root: str, workdir: str, seed: int, seconds: float,
               tally: Tally) -> dict:
    import warnings

    from temsim.truncation import StepProfileWarning

    # the demo profile warns on every run; the warning is not an output
    warnings.filterwarnings("ignore", category=StepProfileWarning)
    invocations = w.invocations(root, workdir, seed)
    expected = dict(load_golden().get(w.name, {})) if seed == GOLDEN_SEED else {}
    # single-process outputs differ from the pooled ones in the threads line
    expected_single = {inv.name: expected[inv.name] for inv in invocations
                       if inv.threads == 1 and inv.name in expected}
    start = time.perf_counter()

    # Pass A, threaded as timed end to end: the pool wall of each estimator
    # call, and the outputs the single-process passes must reproduce.
    rec_a, pooled, _ = in_process_pass(
        invocations, workdir, None, "pooled",
        lambda rec, patches: layers.install_pool(rec, patches, wrap_chunks=False))
    for inv in invocations:
        tally.record(f"pooled {inv.name}",
                     output_errors(inv, *pooled[inv.name], expected, inv.threads))

    per_pass, reference, pair_s = [], None, 0.0
    while not per_pass or time.perf_counter() - start + pair_s < seconds:
        label = f"pass {len(per_pass)}"
        pair_start = time.perf_counter()
        # Pass B: single process, only the pool and its chunks timed: chunk
        # busy time and the untraced baseline of the tracing overhead.
        rec_b, single, wall_b = in_process_pass(
            invocations, workdir, 1, "single",
            lambda rec, patches: layers.install_pool(rec, patches, wrap_chunks=True))
        # Pass C: single process, every layer traced.
        rec_c, traced, wall_c = in_process_pass(
            invocations, workdir, 1, "traced", layers.install_full, root_spans=True)
        for inv in invocations:
            tally.record(f"{label} single {inv.name}",
                         output_errors(inv, *single[inv.name], expected_single, 1))
            errors = output_errors(inv, *traced[inv.name], expected_single, 1)
            text = traced[inv.name][1] or ""
            errors += thread_invariance_errors(pooled[inv.name][1] or "", text)
            if text != single[inv.name][1]:
                errors.append("traced output differs from the untraced one")
            tally.record(f"{label} traced {inv.name}", errors)

        metrics = layers.layer_metrics(
            rec_c, invocations=len(invocations),
            validates=sum(inv.command == "validate" for inv in invocations),
            pool_walls_ns=[entry[0] for entry in rec_a.pool_calls],
            pool_threads=w.threads,
            busy=[(entry[1], entry[2]) for entry in rec_b.pool_calls],
            wall_ns=wall_c, single_wall_ns=wall_b)
        exact = {k: metrics[k] for k in layers.EXACT}
        if reference is None:
            reference = exact
        elif exact != reference:
            tally.failures.append(f"{label}: counts did not repeat: {exact} != {reference}")
        per_pass.append(metrics)
        pair_s = time.perf_counter() - pair_start

    result = {k: statistics.median(m[k] for m in per_pass) for k in layers.UNITS}
    result.update(reference)  # exact counts: the same in every pass
    for name, value in result.items():
        print(f"  {w.name:12s} {name:36s} {value:14.6g} {layers.UNITS[name][0]:12s} "
              f"median of {len(per_pass)}")
    return result


# -- context, golden digests, entry point ----------------------------------------


def _read_first(path: str, default: str = "unknown") -> str:
    try:
        with open(path, "r", encoding="utf-8") as fobj:
            return fobj.read().strip()
    except OSError:
        return default


def run_context(root: str, workdir: str, w: Workload, seed: int) -> dict:
    from temsim.estimators import CHUNK_SIZE

    model = "unknown"
    for line in _read_first("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    ctx_dir = os.path.join(workdir, "context")
    os.makedirs(ctx_dir, exist_ok=True)
    return {
        "workload": w.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l3_cache": _read_first("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "threads": w.threads,
        "chunk_working_set_mb_computed": {
            inv.name: round(inv.chunk_bytes(CHUNK_SIZE) / 1e6, 3)
            for inv in w.invocations(root, ctx_dir, seed)
        },
    }


def write_golden(root: str, workdir: str) -> int:
    runner = ProcessRunner(root, workdir)
    digests, tally = {}, Tally()
    for w in WORKLOADS.values():
        digests[w.name] = {}
        runner.cli_pass(w.invocations(root, workdir, GOLDEN_SEED), digests[w.name],
                        tally, f"golden {w.name}")
    if tally.failures:
        print("\n".join(tally.failures), file=sys.stderr)
        return 1
    payload = {
        "seed": GOLDEN_SEED,
        "pinned_with": {"python": platform.python_version(),
                        "numpy": importlib.metadata.version("numpy")},
        "digests": digests,
    }
    with open(GOLDEN_FILE, "w", encoding="utf-8") as fobj:
        json.dump(payload, fobj, indent=2, sort_keys=True)
        fobj.write("\n")
    print(f"wrote {GOLDEN_FILE}")
    return 0


def check_checkout(root: str) -> None:
    for rel in (CLI_ENTRY, *TEMPLATES):
        if not os.path.isfile(os.path.join(root, rel)):
            raise CheckoutError(f"{rel} not found: run from the root of a temsim checkout")


def run_workload(w: Workload, root: str, workdir: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    wdir = os.path.join(workdir, w.name)
    os.makedirs(wdir, exist_ok=True)
    print("context " + json.dumps(run_context(root, wdir, w, seed), sort_keys=True))
    tally = Tally()
    if trace:
        values = traced_run(w, root, wdir, seed, seconds, tally)
        units = {k: u for k, (u, _) in layers.UNITS.items()}
    else:
        values = end_to_end_run(w, root, wdir, seed, seconds, tally)
        units = {k: u for k, (u, _) in END_TO_END.items()}
    for failure in tally.failures:
        print(f"FAILED {w.name} {failure}", file=sys.stderr)
    failed = len(tally.failures)
    print(f"  {w.name:12s} failed_fraction    {failed / max(1, tally.attempted):14.6g} "
          f"({failed} of {tally.attempted} invocations)")
    return {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="re-pin golden.json from this checkout's outputs")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    try:
        check_checkout(root)
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        if args.write_golden:
            return write_golden(root, workdir)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(WORKLOADS[name], root, workdir, args.seed,
                                      args.seconds, bool(args.trace))
                   for name in names}
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
