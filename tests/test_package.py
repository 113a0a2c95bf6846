import ast
import os
import subprocess
import sys
from pathlib import Path

import yaml

import temsim

ROOT = Path(__file__).resolve().parent.parent

# public on purpose although nothing in the package or the benchmark uses
# them yet
UNUSED_EXPORTS = {
    # the moment-bound grid check; `validate` is to report it
    "model.khasminskii_check",
    # the p-th moment curves of acceptance criterion 6
    "estimators.moment_curves",
    # the library's demo model: README's Library example and the tests'
    # fixture (the package reads it only as the preset's name, a string)
    "config.two_regime_demo",
}
SOURCES = sorted(path for path in (ROOT / "src" / "temsim").glob("*.py")
                 if path.name != "__init__.py")


def test_all_names_resolve_once():
    # every exported name exists on the package, and none is listed twice
    assert len(set(temsim.__all__)) == len(temsim.__all__)
    assert [name for name in temsim.__all__ if not hasattr(temsim, name)] == []


def used_names(paths, strings=False):
    """Every name and attribute in the given files, and with ``strings``
    every string constant too: the benchmark patches functions by their
    names as strings."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def public_surface():
    """``(qualified name, name)`` of every public module-level function and
    class of the package, and of every public method of those classes."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for path in SOURCES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, defs) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
                for member in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef) and \
                            not member.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{member.name}", member.name


def test_every_export_has_a_caller_outside_tests():
    # public API that only the tests call is wired in or deleted, exported
    # or not; a string in the package (a preset's name, a message) is not a call
    used = used_names(SOURCES) | used_names(sorted((ROOT / "perfbench").glob("*.py")),
                                            strings=True)
    assert set(temsim.__all__) <= {name for _, name in public_surface()}
    unused = {qualified for qualified, name in public_surface() if name not in used}
    assert unused == UNUSED_EXPORTS


def fresh_interpreter(code, **env):
    """The stdout of ``code`` run in a new interpreter that imports temsim from
    this checkout, with OPENBLAS_NUM_THREADS removed and then ``env`` set."""
    child = {key: value for key, value in os.environ.items()
             if key != "OPENBLAS_NUM_THREADS"}
    child["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([child["PYTHONPATH"]] if child.get("PYTHONPATH") else []))
    child.update(env)
    return subprocess.run([sys.executable, "-c", code], env=child, capture_output=True,
                          text=True, check=True).stdout.split()


# what an import leaves behind: whether numpy and the process pool are
# loaded, whether os.environ is unchanged, and OPENBLAS_NUM_THREADS
REPORT = """
import os, sys
before = dict(os.environ)
import {module}
print("numpy" in sys.modules, "concurrent.futures" in sys.modules,
      dict(os.environ) == before, os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def test_package_import_is_lazy_and_leaves_the_environment():
    assert fresh_interpreter(REPORT.format(module="temsim")) == \
        ["False", "False", "True", "None"]


def test_estimators_import_leaves_the_environment_and_no_pool():
    # a host process (the benchmark, a notebook) that imports the library
    # keeps its environment for what it starts next; the pool module loads
    # only where a run forks a pool
    assert fresh_interpreter(REPORT.format(module="temsim.estimators")) == \
        ["True", "False", "True", "None"]


def test_cli_import_defaults_single_threaded_blas_and_loads_no_pool():
    # the CLI starts no OpenBLAS thread pool unless the user asks for one
    assert fresh_interpreter(REPORT.format(module="temsim.cli")) == \
        ["True", "False", "False", "1"]
    assert fresh_interpreter(REPORT.format(module="temsim.cli"),
                             OPENBLAS_NUM_THREADS="3") == ["True", "False", "True", "3"]



def test_pooled_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    # a pooled price-bond writes the same bytes under the CLI's
    # single-threaded BLAS default and under a user's OPENBLAS_NUM_THREADS=2
    raw = yaml.safe_load((ROOT / "configs" / "two_regime.yaml").read_text())
    raw["simulation"].update(num_paths=300, horizon=0.05)
    config = tmp_path / "small.yaml"
    config.write_text(yaml.safe_dump(raw))
    outputs = []
    for env in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        out = tmp_path / f"bond-{len(outputs)}.csv"
        argv = ["price-bond", "--config", str(config), "--threads", "2", "--out", str(out)]
        fresh_interpreter(f"import sys; from temsim.cli import main; sys.exit(main({argv!r}))",
                          **env)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
