"""Independent numerical oracles.

Each oracle computes the same quantity as a library operation by a
different algorithm (interpolation instead of Schur/Sylvester, truncated
series instead of Pade, closed forms instead of decompositions).  Tests
freeze expected values from these, never from the code path under test.
"""

import json
import math

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from jordanflow.errors import (
    IllConditioned,
    InputError,
    NonConvergence,
    RankAmbiguous,
    StiffnessSuspected,
)
from jordanflow.flags import _orthonormalize, _rank_with_margin
from jordanflow.floquet import (
    MIN_STEPS,
    STIFFNESS_BUDGET,
    FundamentalSolution,
    PeriodicCoefficient,
)
from jordanflow.matrixcore import (
    DEFAULT_POLICY,
    MAX_DIM,
    SpectralCluster,
    SpectralData,
    _cluster_eigenvalues,
    as_square_matrix,
    complex_spectrum,
    opnorm,
)


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


def greedy_assignment_reference(increments, mults, reverse=False):
    """The census attractor (``reverse``: repeller) table as
    ``enumerate_morse_components`` found it before reading the extremes off
    the pair counts: fill increments in order from the sorted pool of
    cluster slots."""
    cols = len(mults)
    pool = list(range(cols))
    if reverse:
        pool = pool[::-1]
    table = [[0] * cols for _ in increments]
    order = iter(j for j in pool for _ in range(mults[j]))
    for i, delta in enumerate(increments):
        for _ in range(delta):
            table[i][next(order)] += 1
    return tuple(tuple(r) for r in table)


def cell_assignment_reference(flag, filt, pol, reverse=False):
    """``flags._cell_assignment`` with the inclusion-exclusion written out
    entry by entry, as it was before the table became a second difference
    of the rank array.  Returns (table, worst margin) or raises the same
    errors."""
    n = filt.n
    blocks = filt.blocks if not reverse else filt.blocks[::-1]
    mults = filt.mults if not reverse else filt.mults[::-1]
    q = np.hstack(blocks)
    y = np.linalg.solve(q, flag.basis)
    scale = max(1.0, opnorm(y))
    starts = np.cumsum((0, *mults))
    dlist = list(flag.dims.dims) + [n]
    k = len(mults)
    ranks = np.zeros((len(dlist) + 1, k + 1), dtype=int)
    worst_margin = math.inf
    for i, d in enumerate(dlist, start=1):
        for j in range(1, k + 1):
            if i == len(dlist):
                ranks[i, j] = starts[j]
                continue
            sub = y[: starts[j], :d]
            r, margin = _rank_with_margin(sub, scale, pol)
            worst_margin = min(worst_margin, margin)
            ranks[i, j] = r
    if worst_margin < 5.0:
        raise RankAmbiguous(
            "a Bruhat rank decision fell within a factor of 5 of its "
            "singular-value threshold",
            margins={"worst_sigma_over_threshold": worst_margin},
        )
    table = []
    for i in range(1, len(dlist) + 1):
        row = []
        for j in range(1, k + 1):
            row.append(
                int(ranks[i, j] - ranks[i - 1, j] - ranks[i, j - 1] + ranks[i - 1, j - 1])
            )
        table.append(tuple(row))
    if reverse:
        table = [row[::-1] for row in table]
    table = tuple(tuple(r) for r in table)
    if any(x < 0 for row in table for x in row):
        raise IllConditioned(
            "rank pattern is not monotone; flag classification unreliable",
            margins={"worst_sigma_over_threshold": worst_margin},
        )
    return table, worst_margin


def height_lyapunov_reference(flag, h_matrix, pol=None):
    """``flags.height_lyapunov`` with its own frame, as it was before it
    built through the rate filtration: clusters sorted by real part, their
    bases stacked, each row weighted by its cluster's real part."""
    pol = pol or DEFAULT_POLICY
    h_matrix = as_square_matrix(h_matrix, "H")
    data = complex_spectrum(h_matrix, pol)
    clusters = sorted(data.clusters, key=lambda c: -c.eigenvalue.real)
    c_frame = np.hstack([c.basis for c in clusters])
    d_rates = np.concatenate(
        [np.full(c.multiplicity, c.eigenvalue.real) for c in clusters]
    )
    y = np.linalg.solve(c_frame, flag.basis)
    yo = _orthonormalize(y)
    val = 0.0
    for d in flag.dims.dims:
        cols = yo[:, :d]
        val += float(np.sum(d_rates[:, None] * cols**2))
    return -val


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


def complex_spectrum_ordered_schur(a, pol=None):
    """Clustered complex spectrum of a real matrix with real eigenprojections.

    The construction ``matrixcore.complex_spectrum`` used before it reordered
    one Schur form: one ordered ``scipy.linalg.schur`` call per cluster,
    selecting the cluster with a Python callback.

    Projections are computed cluster by cluster on the real Schur form: the
    selected Schur ordering puts the cluster's invariant subspace first, a
    Sylvester solve block-diagonalizes, and the projector follows without any
    contour integration.

    Raises NonConvergence if the QR iteration fails and IllConditioned if the
    computed projections violate their invariants at residual_tol scale
    (two clusters too entangled to separate).
    """
    pol = pol or DEFAULT_POLICY
    a = as_square_matrix(a, "A", max_dim=MAX_DIM)
    n = a.shape[0]
    scale = max(1.0, opnorm(a))

    try:
        w = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc

    groups = _cluster_eigenvalues(w, pol.cluster_tol)

    # Canonical representative: mean of (Re, |Im|) over the members; a cluster
    # is a conjugate pair when the representative keeps a genuine imaginary
    # part at clustering scale.
    reps = []
    for idx in groups:
        members = w[idx]
        re = float(np.mean(members.real))
        im = float(np.mean(np.abs(members.imag)))
        is_pair = im > pol.cluster_tol * max(1.0, abs(complex(re, im)))
        reps.append((complex(re, im if is_pair else 0.0), is_pair, members))
    # deterministic order: decreasing real part, then increasing |Im|
    order = sorted(range(len(reps)), key=lambda k: (-reps[k][0].real, reps[k][0].imag))

    flat = w.copy()

    def cluster_of(z):
        return int(np.argmin(np.abs(flat - z)))

    idx_to_group = {}
    for gi, idx in enumerate(groups):
        for i in idx:
            idx_to_group[i] = gi

    clusters = []
    for gi in order:
        lam, is_pair, members = reps[gi]
        m = len(groups[gi])

        def select(x, y, _gi=gi):
            return idx_to_group[cluster_of(complex(x, y))] == _gi

        try:
            t, z, sdim = sla.schur(a, output="real", sort=select)
        except Exception as exc:  # pragma: no cover - LAPACK failure path
            raise NonConvergence(f"ordered Schur factorization failed: {exc}") from exc
        if sdim != m:
            raise IllConditioned(
                f"Schur reordering selected {sdim} eigenvalues for a cluster "
                f"of multiplicity {m} near {lam}; clusters are not separable "
                f"at cluster_tol={pol.cluster_tol}",
                margins={"selected": sdim, "expected": m},
            )
        if m == n:
            basis = z
            left = z.T
            proj = np.eye(n)
            block = t
        else:
            t11 = t[:m, :m]
            t12 = t[:m, m:]
            t22 = t[m:, m:]
            # block-diagonalize: T11 Y - Y T22 = -T12
            y = sla.solve_sylvester(t11, -t22, -t12)
            basis = z[:, :m]
            left = basis.T - y @ z[:, m:].T
            proj = basis @ left
            block = t11
        clusters.append(
            SpectralCluster(
                eigenvalue=lam,
                multiplicity=m,
                projection=proj,
                is_pair=is_pair,
                members=tuple(members.tolist()),
                basis=basis,
                left=left,
                block=block,
            )
        )

    projs = [c.projection for c in clusters]
    res = {
        "sum": opnorm(sum(projs) - np.eye(n)),
        "idempotent": max(opnorm(p @ p - p) for p in projs),
        "commute": max(opnorm(a @ p - p @ a) for p in projs),
    }
    disjoint = 0.0
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            disjoint = max(disjoint, opnorm(projs[i] @ projs[j]))
    res["disjoint"] = disjoint
    worst = max(res.values())
    if worst > pol.residual_tol * scale * n * 10:
        raise IllConditioned(
            "spectral projections violate their invariants "
            f"(worst residual {worst:.3e}); eigenvalue clusters separated by "
            "roughly cluster_tol cannot be resolved — widen cluster_tol",
            margins=res,
        )
    # nearly-parallel invariant subspaces make every downstream residual_tol
    # certificate unattainable; report instead of guessing
    pnorm = max(opnorm(c.projection) for c in clusters)
    if pnorm > 0.1 / pol.residual_tol:
        raise IllConditioned(
            f"spectral projection norm {pnorm:.3e} exceeds "
            f"0.1/residual_tol; clusters too entangled to separate at "
            f"cluster_tol={pol.cluster_tol} — widen cluster_tol",
            margins={"projection_norm": pnorm, **res},
        )
    return SpectralData(
        matrix=a, clusters=tuple(clusters), cluster_tol=pol.cluster_tol, residuals=res
    )


def _coefficient_value_reference(coef, t):
    """X(t) of a ``PeriodicCoefficient`` at one time, as
    ``PeriodicCoefficient.value`` computed it before the coefficient table."""
    x = coef.a0.copy()
    w = 2.0 * math.pi / coef.period
    for k, a, b in coef.harmonics:
        x += a * math.cos(w * k * t) + b * math.sin(w * k * t)
    return x


def _rk4_step(coef, t, g, h):
    k1 = _coefficient_value_reference(coef, t) @ g
    k2 = _coefficient_value_reference(coef, t + h / 2) @ (g + (h / 2) * k1)
    k3 = _coefficient_value_reference(coef, t + h / 2) @ (g + (h / 2) * k2)
    k4 = _coefficient_value_reference(coef, t + h) @ (g + h * k3)
    return g + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate_fundamental_reference(coef, steps):
    """RK4 fundamental solution, one step at a time.

    The construction ``floquet.integrate_fundamental`` used before its
    per-block coefficient table: 13 coefficient evaluations, 12 matrix
    products and one 2-norm per step.  Returns the same
    ``FundamentalSolution`` or raises the same errors.
    """
    if not isinstance(coef, PeriodicCoefficient):
        raise InputError("integrate_fundamental needs a PeriodicCoefficient")
    steps = int(steps)
    if steps < MIN_STEPS:
        raise InputError(f"steps must be >= {MIN_STEPS}")
    n = coef.n
    T = coef.period
    h = T / steps
    g = np.eye(n)
    samples = np.empty((steps + 1, n, n))
    derivs = np.empty_like(samples)
    samples[0] = g
    derivs[0] = _coefficient_value_reference(coef, 0.0) @ g
    drift = 0.0
    err = 0.0
    for i in range(steps):
        t = i * h
        full = _rk4_step(coef, t, g, h)
        half = _rk4_step(coef, t, g, h / 2)
        half = _rk4_step(coef, t + h / 2, half, h / 2)
        err += opnorm(full - half) / 15.0
        g = full
        det = np.linalg.det(g)
        if det <= 0 or not np.isfinite(det):
            raise StiffnessSuspected(
                f"determinant {det} at t={t + h}; step size unusable"
            )
        drift += abs(det - 1.0)
        g = g * det ** (-1.0 / n)
        samples[i + 1] = g
        derivs[i + 1] = _coefficient_value_reference(coef, t + h) @ g
    if err > STIFFNESS_BUDGET * max(1.0, float(np.max(np.abs(samples)))):
        raise StiffnessSuspected(
            f"accumulated error estimate {err:.3e} exceeds budget "
            f"{STIFFNESS_BUDGET:.1e}; increase steps"
        )
    return FundamentalSolution(
        coefficient=coef,
        steps=steps,
        samples=samples,
        derivatives=derivs,
        det_drift=float(drift),
        error_estimate=float(err),
    )
