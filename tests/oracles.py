"""Independent numerical oracles.

Each oracle computes the same quantity as a library operation by a
different algorithm (interpolation instead of Schur/Sylvester, truncated
series instead of Pade, closed forms instead of decompositions).  Tests
freeze expected values from these, never from the code path under test.
"""

import json
import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from jordanflow.errors import InputError


def hermite_projection(a, cluster_values, all_values):
    """Generalized eigenprojection via Lagrange-Hermite interpolation.

    ``all_values`` lists (eigenvalue, algebraic multiplicity) for the whole
    spectrum (complex, conjugates listed separately); ``cluster_values`` is
    the subset the projection should select.  The projection is p(A) for the
    polynomial p of degree < n with p == 1 at the cluster (flat to order m)
    and p == 0 elsewhere.
    """
    a = np.asarray(a, dtype=float)
    deg = sum(m for _, m in all_values)
    rows, rhs = [], []
    cluster = [complex(v) for v in cluster_values]
    for lam, mult in all_values:
        lam = complex(lam)
        want = 1.0 if any(abs(lam - c) < 1e-9 for c in cluster) else 0.0
        for j in range(mult):
            row = np.zeros(deg, dtype=complex)
            for k in range(j, deg):
                row[k] = math.factorial(k) / math.factorial(k - j) * lam ** (k - j)
            rows.append(row)
            rhs.append(want if j == 0 else 0.0)
    coeffs = np.linalg.solve(np.array(rows), np.array(rhs))
    out = np.zeros(a.shape, dtype=complex)
    eye = np.eye(a.shape[0])
    for c in reversed(coeffs):
        out = out @ a + c * eye
    assert np.max(np.abs(out.imag)) < 1e-8
    return out.real


def exp_series(a, terms=60):
    """Truncated exponential series with 16-fold argument scaling."""
    a = np.asarray(a, dtype=float) / 16.0
    n = a.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    for _ in range(4):
        out = out @ out
    return out


def rotation_scale_exp(a, b, t):
    """Closed form exp(t * X4(a, b)): scaled plane rotation + expansion."""
    c, s = math.cos(b * t), math.sin(b * t)
    out = np.zeros((3, 3))
    out[:2, :2] = math.exp(-a * t) * np.array([[c, -s], [s, c]])
    out[2, 2] = math.exp(2 * a * t)
    return out


def companion(coeffs):
    """Companion matrix of a monic polynomial x^n + c[n-1] x^(n-1) + ... + c[0]."""
    n = len(coeffs)
    m = np.zeros((n, n))
    m[1:, :-1] = np.eye(n - 1)
    m[:, -1] = [-c for c in coeffs]
    return m


def contingency_tables_bruteforce(row_sums, col_sums):
    """All nonneg integer matrices with given margins, by raw product scan."""
    import itertools

    rows = len(row_sums)
    cols = len(col_sums)
    out = []
    ranges = [range(min(row_sums[i], col_sums[j]) + 1) for i in range(rows) for j in range(cols)]
    for flat in itertools.product(*ranges):
        t = [flat[i * cols : (i + 1) * cols] for i in range(rows)]
        if all(sum(t[i]) == row_sums[i] for i in range(rows)) and all(
            sum(t[i][j] for i in range(rows)) == col_sums[j] for j in range(cols)
        ):
            out.append(tuple(tuple(r) for r in t))
    return out


def pair_counts_bruteforce(table, rates):
    """(component, unstable, stable) dimensions of a Morse component by a
    quadruple loop over pairs of (increment, cluster) slots: a slot of rate
    a in an earlier increment paired with a slot of rate b in a later one
    lies in the component (same cluster), the unstable set (b > a) or the
    stable set (otherwise, ties included)."""
    rows = len(table)
    cols = len(rates)
    dim_c = dim_u = dim_s = 0
    for i in range(rows):
        for i2 in range(i + 1, rows):
            for ja in range(cols):
                for jb in range(cols):
                    pairs = table[i][ja] * table[i2][jb]
                    if not pairs:
                        continue
                    if jb == ja:
                        dim_c += pairs
                    elif rates[jb] > rates[ja]:
                        dim_u += pairs
                    else:
                        dim_s += pairs
    return dim_c, dim_u, dim_s


def _fmt_float_reference(x):
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise InputError("reports cannot carry NaN/inf")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".17g")


def dumps_canonical_reference(obj, indent=0):
    """Canonical report JSON by plain isinstance recursion, one call per
    value: the byte-level reference for ``report.dumps_canonical``."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(k))}: {dumps_canonical_reference(v, indent + 2)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (bool, int, float, np.floating, np.integer)) for v in seq)
        if flat:
            return "[" + ", ".join(dumps_canonical_reference(v) for v in seq) + "]"
        items = [f"{pad}  {dumps_canonical_reference(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, np.ndarray):
        return dumps_canonical_reference(obj.tolist(), indent)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float_reference(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InputError(f"cannot serialize {type(obj)!r} into a report")


def chain_graph_dense(pts, g1, eps, leg_doublings):
    """The (eps, T)-chain graph from one dense N x N cosine matrix per leg.

    The construction ``projective.chain_oracle`` used before its k-d tree:
    ``pts`` are the grid's unit rows, ``g1`` the flow over the first leg.
    Returns (bool CSR adjacency, marked, covering radius).
    """
    resolution = len(pts)
    cos_thresh = 1.0 - 0.5 * eps * eps
    adj = sp.csr_matrix((resolution, resolution), dtype=bool)
    step = g1.copy()
    for _ in range(leg_doublings + 1):
        img = pts @ step.T
        img /= np.linalg.norm(img, axis=1)[:, None]
        cos = np.abs(img @ pts.T)
        adj = (adj + sp.csr_matrix(cos > cos_thresh)).tocsr()
        step = step @ step
        step /= max(np.abs(step).max(), 1e-300)
    del cos, img

    ncomp, labels = connected_components(adj, directed=True, connection="strong")
    size = np.bincount(labels, minlength=ncomp)
    selfloop = adj.diagonal()
    cyclic = np.zeros(ncomp, dtype=bool)
    cyclic[size >= 2] = True
    cyclic[labels[selfloop]] = True
    marked = cyclic[labels]

    # covering radius of the grid: max nearest-neighbor chordal distance
    cos_grid = np.abs(pts @ pts.T)
    np.fill_diagonal(cos_grid, -1.0)
    nn_cos = cos_grid.max(axis=1)
    covering = float(np.sqrt(max(0.0, 2.0 - 2.0 * nn_cos.min())))
    return adj, marked, covering
