"""Machine-readable reports: canonical JSON emission and schema loading.

Reports are deterministic: floats are printed with 17 significant digits
(lossless for doubles), dict key order is fixed by construction, and every
numerical verdict travels with its margin.  parse -> emit is the identity on
report bytes.  The writer dispatches each list on the type of its first
element and writes each flat tuple of exact ints or exact floats once per
call, however many places share that tuple object: a census builds its
thousands of assignments from a few hundred shared row tuples.  The row
memo is keyed on the tuple's identity and lives for one call only.
"""

from __future__ import annotations

import hashlib
import json
import math
from importlib import resources

import numpy as np

from .errors import InputError

SCHEMA_VERSION = "jf-schema-2"


def _fmt_float(x):
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise InputError("reports cannot carry NaN/inf")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def dumps_canonical(obj, indent=0):
    """Serialize to JSON with fixed float formatting; byte-stable."""
    return _dumps(obj, indent, {}, {})


_FLAT = (bool, int, float, np.floating, np.integer)


def _dumps(obj, indent, keys, rows):
    """The recursion behind ``dumps_canonical``.  Exact built-in types are
    dispatched on ``type``; subclasses and numpy values take the isinstance
    chain.  A list is dispatched on the type of its first element, so a list
    of containers is laid out without scanning it for leaves.  Two caches
    live for one call: ``keys`` holds the JSON text of ``str`` dict keys, and
    ``rows`` maps ``id(row)`` to (row, text) for each flat tuple of exact
    ints or exact floats.  The entry holds the row, so no other object can
    take its id before the call returns, and a tuple of such elements cannot
    change, so one id is one text.  Lists can change and are written each
    time they occur; memoizing them would also keep every row text of a
    parsed report alive.  Each container joins its own fragments: a
    fragment list for the whole report would hold every piece of it alive
    until the end and raise the peak memory."""
    kind = type(obj)
    if kind is float:
        return _fmt_float(obj)
    if kind is int:
        return str(obj)
    if kind is str:
        return json.dumps(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if kind is not dict and kind is not list and kind is not tuple:
        if isinstance(obj, dict):
            kind = dict
        elif isinstance(obj, (list, tuple)):
            obj = list(obj)
        elif isinstance(obj, np.ndarray):
            return _dumps(obj.tolist(), indent, keys, rows)
        else:
            return _scalar(obj)
    if not obj:
        return "{}" if kind is dict else "[]"
    inner = " " * (indent + 2)
    if kind is dict:
        parts = ["{\n"]
        for k, v in obj.items():
            if type(k) is str:
                text = keys.get(k)
                if text is None:
                    text = keys[k] = json.dumps(k)
            else:
                text = json.dumps(str(k))
            leaf = type(v)
            if leaf is int:
                value = str(v)
            elif leaf is bool:
                value = "true" if v else "false"
            else:
                value = _dumps(v, indent + 2, keys, rows)
            parts += (inner, text, ": ", value, ",\n")
        parts[-1] = "\n" + inner[2:] + "}"
        return "".join(parts)
    first = type(obj[0])
    if first is int or first is float:
        if all(type(v) is first for v in obj):
            text = "[" + ", ".join(map(str if first is int else _fmt_float, obj)) + "]"
            if kind is tuple:
                rows[id(obj)] = (obj, text)
            return text
    if isinstance(obj[0], _FLAT) and all(isinstance(v, _FLAT) for v in obj):
        return "[" + ", ".join(map(_scalar, obj)) + "]"
    parts = ["[\n"]
    for v in obj:
        # a live entry's id is its own row's, whatever v is
        hit = rows.get(id(v))
        text = hit[1] if hit is not None else _dumps(v, indent + 2, keys, rows)
        parts += (inner, text, ",\n")
    parts[-1] = "\n" + inner[2:] + "]"
    return "".join(parts)


def _scalar(x):
    """A leaf by the isinstance chain: flat-row elements, numpy scalars and
    subclasses of the built-in types."""
    if isinstance(x, bool):
        return json.dumps(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _fmt_float(x)
    if isinstance(x, str):
        return json.dumps(x)
    raise InputError(f"cannot serialize {type(x)!r} into a report")


def sha256_of(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def matrix_rows(m):
    return [[float(x) for x in row] for row in np.asarray(m, dtype=float)]


def tolerances_dict(pol):
    return {
        "cluster_tol": pol.cluster_tol,
        "residual_tol": pol.residual_tol,
        "sim_tol": pol.sim_tol,
    }


CONVENTIONS = {
    "eigenvalue_clustering": "relative: |a-b| < cluster_tol * max(1, |a|, |b|)",
    "rate_order": "decreasing (hyperbolic eigenvalues sorted largest first)",
    "projective_metric": "chordal: d([x],[y]) = min(|x-y|, |x+y|), unit reps",
    "float_format": "17 significant digits",
}


def spectrum_dict(data):
    return {
        "cluster_tol": data.cluster_tol,
        "clusters": [
            {
                "eigenvalue": [c.eigenvalue.real, c.eigenvalue.imag],
                "multiplicity": c.multiplicity,
                "conjugate_pair": bool(c.is_pair),
            }
            for c in data.clusters
        ],
        "residuals": {k: float(v) for k, v in data.residuals.items()},
    }


def components_table(components):
    """One dict per component; assignments stay tuples (they render as
    lists)."""
    return [
        {
            "index": i + 1,
            "assignment": c.assignment,
            "dim": c.dim_component,
            "n_w": c.dim_unstable,
            "stable_dim": c.dim_stable,
            "attractor": c.is_attractor,
            "repeller": c.is_repeller,
        }
        for i, c in enumerate(components)
    ]


def load_schema(name):
    """One of decompose / analyze / chain_oracle / floquet."""
    text = (
        resources.files("jordanflow.schemas").joinpath(f"{name}.schema.json").read_text()
    )
    return json.loads(text)
