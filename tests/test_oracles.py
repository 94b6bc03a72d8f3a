"""The oracles stay independent of the code they check."""

import ast
from pathlib import Path

import oracles


def test_no_private_library_imports():
    """``tests/oracles.py`` freezes its own copies of library internals
    instead of importing them: an underscore name from ``jordanflow`` would
    make an oracle agree with the code it is meant to check."""
    tree = ast.parse(Path(oracles.__file__).read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jordanflow"):
            private += [a.name for a in node.names if a.name.startswith("_")]
        if isinstance(node, ast.Import):
            private += [
                a.name for a in node.names
                if a.name.startswith("jordanflow") and "._" in a.name
            ]
    assert private == []
