"""Checks on the library source itself."""

import ast
from pathlib import Path

import jordanflow


def test_no_assert_statements():
    """``python -O`` strips ``assert``, so no library check may be one:
    internal invariants raise ``InvariantViolated`` instead."""
    found = []
    for path in sorted(Path(jordanflow.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert found == []
