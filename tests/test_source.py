"""Checks on the library source itself."""

import ast
import re
from pathlib import Path

import jordanflow

LIBRARY = Path(jordanflow.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

#: Public names that no CLI path and no benchmark reaches.  Each states one
#: of the paper's sets for a line (recurrent, chain recurrent, unstable) and
#: delegates to the rule the CLI uses.
STATED_FOR_LINES = ("recurrent_membership", "chain_recurrent_membership", "unstable_set_index")


def test_no_assert_statements():
    """``python -O`` strips ``assert``, so no library check may be one:
    internal invariants raise ``InvariantViolated`` instead."""
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []


def _names(node):
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreached_public_names(library, bench_text):
    """Public top-level ``def``s and ``class``es of ``library`` that nothing
    reaches.  Reached are: every definition in ``cli.py``, every name in a
    module-level statement, every name in ``bench_text``, the names in
    ``STATED_FOR_LINES``, and every definition a reached one refers to.
    ``__init__.py`` re-exports and reaches nothing."""
    defs, reached = {}, set(STATED_FOR_LINES)
    for path in sorted(library.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
                if path.name == "cli.py":
                    reached.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _names(node)
    reached |= {name for name in defs if re.search(rf"\b{name}\b", bench_text)}
    todo = list(reached & defs.keys())
    while todo:
        for node in defs[todo.pop()]:
            new = (_names(node) & defs.keys()) - reached
            reached |= new
            todo += new
    return sorted(name for name in defs if not name.startswith("_") and name not in reached)


def test_every_public_name_is_reached():
    """The library is what the CLI and the benchmark reach.  A public
    function that only tests call restates library code (call that code
    instead) or is a reference for it (it belongs in ``tests/oracles.py``).
    ``bench/*.py`` is read as text, as ``test_bench_spans.py`` reads it."""
    bench_text = "\n".join(p.read_text() for p in sorted(BENCH.glob("*.py")))
    assert unreached_public_names(LIBRARY, bench_text) == []


def test_unreached_name_is_found(tmp_path):
    (tmp_path / "cli.py").write_text("from .a import used\n\n\ndef main():\n    used()\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return helper()\n\n\ndef helper():\n    pass\n\n\n"
        "def only_tests():\n    return helper()\n"
    )
    assert unreached_public_names(tmp_path, "") == ["only_tests"]
    assert unreached_public_names(tmp_path, "a.only_tests()") == []


def matrixcore_imports(source):
    """Names that ``source`` imports from ``jordanflow.matrixcore``; a
    whole-module import counts as ``matrixcore``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "matrixcore":
                names |= {a.name for a in node.names}
            else:
                names |= {a.name for a in node.names if a.name == "matrixcore"}
        elif isinstance(node, ast.Import):
            names |= {"matrixcore" for a in node.names if a.name.endswith("matrixcore")}
    return names


def test_cli_does_no_matrix_math():
    """The CLI reads its certificates from library objects and re-implements
    no library math: from ``matrixcore`` it takes the tolerance policy only."""
    assert matrixcore_imports((LIBRARY / "cli.py").read_text()) <= {"TolerancePolicy"}


def test_matrixcore_import_is_found():
    assert matrixcore_imports(
        "from .matrixcore import TolerancePolicy, matrix_exp\n"
        "from . import matrixcore\nimport jordanflow.matrixcore\n"
    ) == {"TolerancePolicy", "matrix_exp", "matrixcore"}
