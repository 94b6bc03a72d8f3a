"""Every name the benchmark's span recorder wraps still resolves.

``bench/tracing.py`` looks its spans up by (module, attribute) when a traced
run installs them, so a refactor that moves one of those names would only
fail there.  This reads the table from the source without importing (or
otherwise touching) ``bench/``.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _spans():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no SPANS table")


@pytest.mark.parametrize("name, module, attr", _spans())
def test_span_target_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_counted_targets_resolve():
    """The two names ``Tracer.install`` counts calls of besides the spans."""
    import scipy.linalg

    from jordanflow.floquet import PeriodicCoefficient

    assert callable(scipy.linalg.schur)
    assert callable(PeriodicCoefficient.value)
