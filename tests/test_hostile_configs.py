"""No config value ends in a traceback.

A derandomized search takes one of the shipped configs, made small and
fully explicit (its resolved echo), sets one of its leaves to one hostile
value and runs one command through ``cli.main``. Every outcome must be a
documented one: exit 0 with finite data rows, exit 2 naming a field, exit
3, or exit 4 with its message. The search runs in a child interpreter under
an address-space limit, so a regression that allocates without bound fails
the test instead of exhausting the machine. Run this file as a script to
run the search alone.
"""

import contextlib
import copy
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from functools import lru_cache
from pathlib import Path

import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from temsim import cli
from temsim.config import load_config, resolve_config
from temsim.estimators import CHUNK_SIZE

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
COMMANDS = ("validate", "simulate", "converge", "compare-schemes", "price-bond",
            "price-barrier")
# the values of the ROADMAP sweep
HOSTILE = (math.nan, math.inf, -math.inf, -1, 0, 1.0e-300, 1.0e300, -1.0e300, 2**63,
           "a string", None, True, [], {}, 3, 0.5, 1)
# bytes: the search's own peak address space is about 160 MB
ADDRESS_SPACE = 1 << 30
# the child's whole search, explicit examples included
TIMEOUT_S = 300


@lru_cache(maxsize=None)
def _small(name: str) -> dict:
    """The shipped config ``name``, made small, as its resolved echo."""
    raw = load_config(str(ROOT / "configs" / f"{name}.yaml"))
    raw["simulation"] = {**raw.get("simulation", {}), "delta": 0.01, "horizon": 0.1,
                         "num_paths": 4, "threads": 1}
    raw["experiment"] = {**raw.get("experiment", {}), "step_ladder": [0.02, 0.01],
                         "reference_delta": 0.005}
    return resolve_config(raw).resolved


def _leaves(node, path=()):
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _at_most_one_chunk(leaf, value) -> bool:
    """A drawn ``num_paths`` stays at or below one chunk: a larger count that
    its refusal missed would run chunk after chunk."""
    return leaf != ("simulation", "num_paths") or \
        not (isinstance(value, (int, float)) and value > CHUNK_SIZE)


@st.composite
def variants(draw):
    config = draw(st.sampled_from(("two_regime", "convergence")))
    leaf = draw(st.sampled_from(list(_leaves(_small(config)))))
    value = draw(st.sampled_from([v for v in HOSTILE if _at_most_one_chunk(leaf, v)]))
    return config, leaf, value, draw(st.sampled_from(COMMANDS))


def run_variant(config, leaf, value, command, workdir: Path):
    """``cli.main`` on the small ``config`` with ``leaf`` set to ``value``:
    (exit code, output, stderr)."""
    cfg = copy.deepcopy(_small(config))
    node = cfg
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    path, out = workdir / "run.yaml", workdir / "out.csv"
    path.write_text(yaml.safe_dump(cfg))
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(path), "--out", str(out)])
    return code, out.read_text() if out.exists() else "", err.getvalue()


def check_outcome(code, output, err):
    # the CLI's own message is its last line, below any numpy warning
    message = err.splitlines()[-1] if err else ""
    if code == 0:
        for line in output.splitlines():
            if line.startswith("#"):
                continue
            for token in re.split(r"[\s,=\[\]()]+", line):
                with contextlib.suppress(ValueError):
                    assert math.isfinite(float(token)), line
    elif code == 2:
        assert re.match(r"config error: (model|truncation|simulation|experiment)\b\S*: ",
                        message), err
    elif code == 4:
        assert message.startswith("numerical error: "), err
    else:
        assert code == 3, (code, err)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(variant=variants())
# grids numpy cannot index: each raised "Maximum allowed dimension exceeded"
@example(variant=("two_regime", ("simulation", "horizon"), 1.0e300, "simulate"))
@example(variant=("two_regime", ("model", "tau"), 1.0e300, "price-bond"))
@example(variant=("convergence", ("model", "tau"), 1.0e-300, "simulate"))
@example(variant=("two_regime", ("simulation", "delta"), 1.0e-300, "price-barrier"))
# path counts whose samples numpy cannot index: the list of every chunk
# range raised MemoryError
@example(variant=("two_regime", ("simulation", "num_paths"), 1.0e300, "price-bond"))
@example(variant=("convergence", ("simulation", "num_paths"), 2**63, "compare-schemes"))
def search(variant):
    with tempfile.TemporaryDirectory() as workdir:
        check_outcome(*run_variant(*variant, Path(workdir)))


def test_no_hostile_value_ends_in_a_traceback(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, __file__], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    assert done.returncode == 0, done.stdout + done.stderr


if __name__ == "__main__":
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))
    from temsim.truncation import StepProfileWarning

    warnings.simplefilter("ignore", StepProfileWarning)
    search()
