"""Plain-text/CSV rendering of runs and estimates.

``cli.main`` writes every artifact as the '#'-prefixed echo of the fully
resolved configuration (``config_header``), so any output file can be
reproduced from its own header, then the command's own lines (``render_*``).
Floats are written with shortest round-trip formatting and no timestamps or
environment data are included, keeping reruns byte-identical.
"""

from __future__ import annotations

import yaml

from .estimators import ConvergenceReport, EstimatorResult, SchemeComparison
from .schemes import PathState


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def config_header(resolved: dict, command: str) -> list[str]:
    dumped = yaml.safe_dump(resolved, sort_keys=True, default_flow_style=False)
    lines = [f"# command: {command}", "# config:"]
    lines += [f"#   {line}" for line in dumped.splitlines()]
    return lines


def render_path_csv(state: PathState) -> list[str]:
    """Rows (k, t, X, regime, dB, dN) over the whole grid -M..K.

    Regime and increment columns are zero-filled where undefined: the chain
    starts at node 0 (earlier rows echo the initial regime) and increments
    belong to steps 0..K-1.
    """
    lines = []
    lines.append(f"# effective_delta: {state.delta!r}")
    lines.append(f"# tau_steps: {state.tau_steps}")
    lines.append(f"# num_steps: {state.num_steps}")
    lines.append("k,t,X,regime,dB,dN")
    m, k_max = state.tau_steps, state.num_steps
    for k in range(-m, k_max + 1):
        regime = state.regimes[k] if k >= 0 else state.regimes[0]
        if 0 <= k < k_max:
            db = state.brownian[k]
            dn = int(state.poisson[k])
        else:
            db, dn = 0.0, 0
        lines.append(
            f"{k},{_fmt(k * state.delta)},{_fmt(state.value(k))},{regime},"
            f"{_fmt(float(db))},{dn}"
        )
    return lines


def render_price_csv(result: EstimatorResult) -> list[str]:
    lines = []
    lines.append("estimate,std_error,ci_low,ci_high,num_paths")
    lines.append(
        f"{_fmt(result.estimate)},{_fmt(result.std_error)},"
        f"{_fmt(result.confidence_95[0])},{_fmt(result.confidence_95[1])},"
        f"{result.num_paths}"
    )
    return lines


def render_convergence_csv(report: ConvergenceReport) -> list[str]:
    lines = []
    lines.append(f"# reference_delta: {report.reference_delta!r}")
    lines.append(f"# p: {report.p!r}")
    lines.append(f"# num_paths: {report.num_paths}")
    lines.append("delta,error,std_error")
    for delta, err, se in zip(report.step_sizes, report.errors, report.std_errors):
        lines.append(f"{_fmt(float(delta))},{_fmt(float(err))},{_fmt(float(se))}")
    lines.append(f"# fitted_order = {_fmt(float(report.fitted_order))}")
    return lines


def render_comparison_csv(result: SchemeComparison) -> list[str]:
    lines = []
    lines.append("stat,value")
    lines.append(f"delta,{_fmt(result.delta)}")
    lines.append(f"num_paths,{result.num_paths}")
    lines.append(f"mean,{_fmt(result.mean)}")
    lines.append(f"std_error,{_fmt(result.std_error)}")
    lines.append(f"ci_low,{_fmt(result.confidence_95[0])}")
    lines.append(f"ci_high,{_fmt(result.confidence_95[1])}")
    lines.append(f"max,{_fmt(result.max)}")
    for q, value in sorted(result.quantiles.items()):
        lines.append(f"q{int(round(q * 100))},{_fmt(value)}")
    return lines
