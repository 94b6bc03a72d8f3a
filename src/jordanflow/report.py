"""Machine-readable reports: canonical JSON emission and schema loading.

Reports are deterministic: floats are printed with 17 significant digits
(lossless for doubles), dict key order is fixed by construction, and every
numerical verdict travels with its margin.  parse -> emit is the identity on
report bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from importlib import resources

import numpy as np

from .errors import InputError

SCHEMA_VERSION = "jf-schema-1"


def _fmt_float(x):
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise InputError("reports cannot carry NaN/inf")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def dumps_canonical(obj, indent=0):
    """Serialize to JSON with fixed float formatting; byte-stable."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps_canonical(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (bool, int, float, np.floating, np.integer)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps_canonical(v) for v in seq) + "]"
        items = [f"{pad}  {dumps_canonical(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return dumps_canonical(obj.tolist(), indent)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InputError(f"cannot serialize {type(obj)!r} into a report")


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
    out = []
    for i, c in enumerate(components):
        out.append(
            {
                "index": i + 1,
                "assignment": [list(r) for r in c.assignment],
                "cluster_rates": [float(r) for r in c.rates],
                "dim": c.dim_component,
                "n_w": c.dim_unstable,
                "stable_dim": c.dim_stable,
                "attractor": bool(c.is_attractor),
                "repeller": bool(c.is_repeller),
            }
        )
    return out


def load_schema(name):
    """One of decompose / analyze / chain_oracle / floquet."""
    text = (
        resources.files("jordanflow.schemas").joinpath(f"{name}.schema.json").read_text()
    )
    return json.loads(text)
