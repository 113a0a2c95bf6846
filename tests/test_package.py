import ast
from pathlib import Path

import temsim

ROOT = Path(__file__).resolve().parent.parent

# exported on purpose although nothing in the package or the benchmark uses
# them yet
UNUSED_EXPORTS = {
    # the moment-bound grid check; `validate` is to report it
    "khasminskii_check",
    # the p-th moment curves of acceptance criterion 6
    "moment_curves",
    # the library's demo model: README's Library example and the tests'
    # fixture (the package reads it only as the preset's name, a string)
    "two_regime_demo",
}


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


def test_every_export_has_a_caller_outside_tests():
    # public API that only the tests call is wired in or deleted; a string
    # in the package (a preset's name, a message) is not a call
    sources = [path for path in (ROOT / "src" / "temsim").glob("*.py")
               if path.name != "__init__.py"]
    used = used_names(sources) | used_names(sorted((ROOT / "perfbench").glob("*.py")),
                                            strings=True)
    unused = {name for name in temsim.__all__ if name not in used}
    assert unused == UNUSED_EXPORTS
