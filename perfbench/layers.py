"""Per-layer tracing for the in-process runs of the benchmark.

temsim itself is not modified. ``install_full`` and ``install_pool`` replace
functions of its modules, in every ``temsim.*`` namespace that holds them,
with wrappers that record spans and counts into a ``Recorder``;
``Patches.restore`` puts the originals back. A span's
self time is its duration minus the time of the spans it encloses. Spans
are aggregated per name as they close (the hot spans, such as one
volatility evaluation per time step, run tens of thousands of times).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

ROOT_PREFIX = "cli."        # one root span per invocation: cli.<command>
OBSERVE = "trace.observe"   # the tracer's own work on the arrays it sees


class Recorder:
    """Span and count aggregates of one traced pass."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.calls = Counter()
        self.work = Counter()    # path-steps, evaluations, paths
        self.counts = Counter()  # events counted at layer boundaries
        self.pool_calls = []     # per _run_chunks call: [wall_ns, busy_ns, chunks]
        self._stack = []         # open spans: [name, start_ns, child_ns]

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter_ns(), 0])

    def exit(self) -> int:
        name, start, child = self._stack.pop()
        dur = time.perf_counter_ns() - start
        self.incl_ns[name] += dur
        self.self_ns[name] += dur - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def top(self):
        return self._stack[-1][0] if self._stack else None


def _spanned(rec: Recorder, name: str, fn, work=None, observe=None):
    """Wrap ``fn`` in a span; ``work(args, kwargs)`` adds to rec.work[name]
    and ``observe(args, kwargs, result)`` runs inside an OBSERVE span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if work is not None:
            rec.work[name] += work(args, kwargs)
        if observe is not None:
            rec.enter(OBSERVE)
            try:
                observe(args, kwargs, result)
            finally:
                rec.exit()
        return result
    return wrapper


def _counted(rec: Recorder, fn, key_for):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        key = key_for(rec.top())
        if key is not None:
            rec.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Patches:
    """Replaced attributes of temsim, restorable in reverse order."""

    def __init__(self):
        self._saved = []

    def function(self, module: str, attr: str, make) -> None:
        """Replace ``module.attr`` in every temsim namespace that imported it."""
        original = getattr(sys.modules[module], attr)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "temsim" or name.startswith("temsim.")) and \
                    getattr(mod, attr, None) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def method(self, module: str, cls: str, attr: str, make) -> None:
        owner = getattr(sys.modules[module], cls)
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install_pool(rec: Recorder, patches: Patches, wrap_chunks: bool) -> None:
    """Time each ``_run_chunks`` call; with ``wrap_chunks`` (single-process
    runs only: the wrapped worker cannot be pickled) also time each chunk."""
    def make(run_chunks):
        @functools.wraps(run_chunks)
        def pool(worker, num_paths, threads):
            entry = [0, 0, 0]
            rec.pool_calls.append(entry)
            if wrap_chunks:
                def chunk(path_range):
                    rec.enter("estimators.chunk")
                    try:
                        return worker(path_range)
                    finally:
                        entry[1] += rec.exit()
                        entry[2] += 1
                        rec.work["estimators.chunk"] += path_range[1] - path_range[0]
                inner = chunk
            else:
                inner = worker
            rec.enter("estimators.pool")
            try:
                return run_chunks(inner, num_paths, threads)
            finally:
                entry[0] = rec.exit()
        return pool
    patches.function("temsim.estimators", "_run_chunks", make)


def install_full(rec: Recorder, patches: Patches) -> None:
    """Spans and counts at every layer boundary the benchmark reports."""
    import numpy as np
    from temsim import truncation
    truncation_band = truncation.truncation_band

    def fn(module, attr, name, work=None, observe=None):
        patches.function(module, attr,
                         lambda f: _spanned(rec, name, f, work, observe))

    for attr in ("load_config", "resolve_config"):
        fn("temsim.config", attr, "config")
    fn("temsim.truncation", "default_mu_for", "truncation.default_mu")
    fn("temsim.rng", "path_streams", "rng.path_streams")
    patches.function("temsim.rng", "substream",
                     lambda f: _counted(rec, f, lambda _top: "rng.substream"))

    def batch_steps(args, kwargs):
        return len(_arg(args, kwargs, 3, "path_indices")) * \
            _arg(args, kwargs, 1, "grid").num_steps
    fn("temsim.engine", "draw_batch_noise", "engine.draw_noise", work=batch_steps)
    fn("temsim.noise", "make_noise", "engine.draw_noise",
       work=lambda a, kw: _arg(a, kw, 1, "num_steps"))
    fn("temsim.regime", "sample_chain_paths_batch", "regime.chain",
       work=lambda a, kw: _arg(a, kw, 4, "uniforms").size)
    fn("temsim.regime", "sample_chain_path", "regime.chain",
       work=lambda a, kw: _arg(a, kw, 3, "num_steps"))

    def observe_tem(args, kwargs, values):
        policy = _arg(args, kwargs, 1, "policy")
        grid = _arg(args, kwargs, 2, "grid")
        m, k = grid.tau_steps, grid.num_steps
        lower, upper = truncation_band(grid.delta, policy)
        x = values[:, m:m + k]
        rec.counts["tem.clamp_low"] += int(np.count_nonzero(x < lower))
        rec.counts["tem.clamp_high"] += int(np.count_nonzero(x > upper))
        rec.counts["tem.negative"] += int(np.count_nonzero(values[:, m + 1:] < 0.0))
    fn("temsim.engine", "simulate_tem_batch", "engine.tem",
       work=lambda a, kw: _arg(a, kw, 3, "brownian").size, observe=observe_tem)

    def bem_steps(args, kwargs, values):
        rec.counts["bem.steps"] += _arg(args, kwargs, 1, "grid").num_steps
    fn("temsim.engine", "simulate_bem_batch", "engine.bem",
       work=lambda a, kw: _arg(a, kw, 2, "brownian").size, observe=bem_steps)
    for attr, key in (("drift", "bem.drift"), ("drift_derivative", "bem.slope")):
        patches.method("temsim.engine", "CoefficientTables", attr,
                       lambda f, key=key: _counted(
                           rec, f, lambda top: key if top == "engine.bem" else None))
    fn("temsim.engine", "coarsen_batch", "engine.coarsen",
       work=lambda a, kw: _arg(a, kw, 0, "brownian").size)
    patches.method("temsim.model", "VolatilitySpec", "evaluate_many",
                   lambda f: _spanned(rec, "model.volatility", f,
                                      work=lambda a, kw: a[1].size))

    for attr in ("bond_price", "barrier_option_price", "scheme_comparison",
                 "strong_error"):
        fn("temsim.estimators", attr, "estimators.estimate")
    install_pool(rec, patches, wrap_chunks=True)

    fn("temsim.schemes", "simulate_tem_path", "schemes.path")
    for attr in ("config_header", "render_path_csv", "render_price_csv",
                 "render_convergence_csv", "render_comparison_csv"):
        fn("temsim.export", attr, "export.render")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, invocations: int, validates: int,
                  pool_walls_ns: list[int], pool_threads: int,
                  busy: list[tuple[int, int]], wall_ns: int,
                  single_wall_ns: int) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    ``busy`` holds (chunk busy ns, chunks) per estimator call of the
    single-process pass, ``pool_walls_ns`` the wall of the same calls in the
    pool pass, ``wall_ns``/``single_wall_ns`` the traced and untraced
    single-process pass walls.
    """
    s, inc, calls, work, cnt = rec.self_ns, rec.incl_ns, rec.calls, rec.work, rec.counts
    estimates = calls["estimators.estimate"]
    ideal_ns = [b / max(1, min(pool_threads, c)) for b, c in busy]
    workers_x_wall = sum(max(1, min(pool_threads, c)) * w
                         for (_, c), w in zip(busy, pool_walls_ns))
    tem_steps = work["engine.tem"]
    layer_self = sum(v for k, v in s.items()
                     if k != OBSERVE and (not k.startswith(ROOT_PREFIX) or k == "cli.validate"))
    return {
        "config.resolve_s": _ratio(s["config"], invocations) / 1e9,
        "truncation.default_mu_s": _ratio(inc["truncation.default_mu"],
                                          calls["truncation.default_mu"]) / 1e9,
        "rng.path_streams_us": _ratio(inc["rng.path_streams"], calls["rng.path_streams"]) / 1e3,
        "rng.streams_per_path": _ratio(cnt["rng.substream"], calls["rng.path_streams"]),
        "engine.draw_noise_ns_per_path_step": _ratio(s["engine.draw_noise"],
                                                     work["engine.draw_noise"]),
        "regime.chain_ns_per_path_step": _ratio(inc["regime.chain"], work["regime.chain"]),
        "engine.tem_ns_per_path_step": _ratio(inc["engine.tem"], tem_steps),
        "engine.tem_path_steps": tem_steps,
        "model.volatility_ns_per_eval": _ratio(s["model.volatility"],
                                               work["model.volatility"]),
        "engine.bem_ns_per_path_step": _ratio(inc["engine.bem"], work["engine.bem"]),
        "engine.bem_drift_evals_per_step": _ratio(cnt["bem.drift"], cnt["bem.steps"]),
        "engine.bem_slope_evals_per_step": _ratio(cnt["bem.slope"], cnt["bem.steps"]),
        "engine.coarsen_ns_per_fine_step": _ratio(inc["engine.coarsen"],
                                                  work["engine.coarsen"]),
        "estimators.reduce_s": _ratio(s["estimators.chunk"] + s["estimators.estimate"]
                                      + s["estimators.pool"], estimates) / 1e9,
        "estimators.chunks": _ratio(calls["estimators.chunk"], estimates),
        "estimators.paths_per_chunk": _ratio(work["estimators.chunk"],
                                             calls["estimators.chunk"]),
        "estimators.pool_efficiency": _ratio(sum(b for b, _ in busy), workers_x_wall),
        "estimators.pool_overhead_s": _ratio(sum(pool_walls_ns) - sum(ideal_ns),
                                             len(pool_walls_ns)) / 1e9,
        "schemes.path_s": _ratio(inc["schemes.path"], calls["schemes.path"]) / 1e9,
        "export.render_s": _ratio(inc["export.render"], invocations) / 1e9,
        "cli.validate_s": _ratio(s["cli.validate"], validates) / 1e9,
        "truncation.clamp_low_frac": _ratio(cnt["tem.clamp_low"], tem_steps),
        "truncation.clamp_high_frac": _ratio(cnt["tem.clamp_high"], tem_steps),
        "engine.negative_frac": _ratio(cnt["tem.negative"], tem_steps),
        "trace.coverage": _ratio(layer_self, wall_ns - inc[OBSERVE]),
        "trace.overhead_ratio": _ratio(wall_ns, single_wall_ns),
        "trace.single_process_wall_s": single_wall_ns / 1e9,
    }


# Metrics that must repeat exactly: counts of work and events.
EXACT = (
    "rng.streams_per_path", "engine.tem_path_steps", "engine.bem_drift_evals_per_step",
    "engine.bem_slope_evals_per_step", "estimators.chunks", "estimators.paths_per_chunk",
    "truncation.clamp_low_frac", "truncation.clamp_high_frac", "engine.negative_frac",
)

# name -> (unit, better); the per_layer list of BENCHMARK.json.
UNITS = {
    "config.resolve_s": ("s/call", "lower"),
    "truncation.default_mu_s": ("s/call", "lower"),
    "rng.path_streams_us": ("us/path", "lower"),
    "rng.streams_per_path": ("streams/path", "lower"),
    "engine.draw_noise_ns_per_path_step": ("ns/path-step", "lower"),
    "regime.chain_ns_per_path_step": ("ns/path-step", "lower"),
    "engine.tem_ns_per_path_step": ("ns/path-step", "lower"),
    "engine.tem_path_steps": ("count", "higher"),
    "model.volatility_ns_per_eval": ("ns/eval", "lower"),
    "engine.bem_ns_per_path_step": ("ns/path-step", "lower"),
    "engine.bem_drift_evals_per_step": ("evals/step", "lower"),
    "engine.bem_slope_evals_per_step": ("evals/step", "lower"),
    "engine.coarsen_ns_per_fine_step": ("ns/fine-step", "lower"),
    "estimators.reduce_s": ("s/call", "lower"),
    "estimators.chunks": ("count", "lower"),
    "estimators.paths_per_chunk": ("paths/chunk", "higher"),
    "estimators.pool_efficiency": ("ratio", "higher"),
    "estimators.pool_overhead_s": ("s/call", "lower"),
    "schemes.path_s": ("s/path", "lower"),
    "export.render_s": ("s/call", "lower"),
    "cli.validate_s": ("s/call", "lower"),
    "truncation.clamp_low_frac": ("ratio", "lower"),
    "truncation.clamp_high_frac": ("ratio", "lower"),
    "engine.negative_frac": ("ratio", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.single_process_wall_s": ("s", "lower"),
}
