"""The oracles stay independent of the code they check."""

import ast
import importlib
import types
from pathlib import Path

import oracles


def private_library_names(source):
    """Underscore names ``source`` takes from ``jordanflow``: imported by
    name, or read as attributes of an imported ``jordanflow`` module
    (``import jordanflow.flags as fl`` and then ``fl._orthonormalize``)."""
    tree = ast.parse(source)
    private, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("jordanflow"):
            private += [a.name for a in node.names if a.name.startswith("_")]
            parent = importlib.import_module(node.module)
            modules |= {
                a.asname or a.name
                for a in node.names
                if isinstance(getattr(parent, a.name, None), types.ModuleType)
            }
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("jordanflow"):
                    if "._" in a.name:
                        private.append(a.name)
                    modules.add(a.asname or a.name.split(".")[0])
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        if node.attr.startswith("_") and not node.attr.endswith("__"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                private.append(node.attr)
    return private


def test_no_private_library_imports():
    """``tests/oracles.py`` freezes its own copies of library internals
    instead of importing them: an underscore name from ``jordanflow`` would
    make an oracle agree with the code it is meant to check."""
    assert private_library_names(Path(oracles.__file__).read_text()) == []


def test_private_names_are_found():
    """Each way of reaching a library internal is reported."""
    cases = {
        "from jordanflow.flags import _orthonormalize": ["_orthonormalize"],
        "import jordanflow.flags as fl\nfl._orthonormalize": ["_orthonormalize"],
        "from jordanflow import flags\nflags._fixed": ["_fixed"],
        "import jordanflow\njordanflow.flags._census": ["_census"],
        "import jordanflow._version": ["jordanflow._version"],
        "import jordanflow.flags as fl\nfl.Flag\nfl.__name__": [],
        "import numpy as np\nnp._NoValue": [],
    }
    for source, expected in cases.items():
        assert private_library_names(source) == expected, source
