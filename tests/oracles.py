"""Independent numerical oracles.

Each oracle computes the same quantity as a library operation by a
different algorithm (interpolation instead of Schur/Sylvester, truncated
series instead of Pade, closed forms instead of decompositions), or is a
construction the library does not need that a test checks the library
against (wedge representations, Pluecker coordinates, unipotent limits, the
skew-product step).  Tests freeze expected values from these, never from
the code path under test.
"""

import itertools
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
from jordanflow.flags import Flag, random_flag, simulate_flag
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
    as_square_matrix,
    complex_spectrum,
    nilpotency_index,
    opnorm,
)
from jordanflow.projective import ProjectivePoint


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


def orthonormalize_reference(b):
    """QR with positive diagonal; leading-column spans are preserved, so the
    nested subspaces of a flag survive re-orthonormalization.  A frozen copy
    of ``flags._orthonormalize``."""
    q, r = np.linalg.qr(b)
    sign = np.sign(np.diag(r))
    sign[sign == 0] = 1.0
    return q * sign


def rank_with_margin_reference(mat, tol_scale, pol):
    """(rank, worst sigma/threshold ratio) of one rank decision.  A frozen
    copy of ``flags._rank_with_margin``."""
    if mat.size == 0:
        return 0, math.inf
    sv = np.linalg.svd(mat, compute_uv=False)
    thresh = pol.residual_tol * max(1.0, tol_scale)
    rank = int(np.sum(sv > thresh))
    margin = math.inf
    for s in sv:
        ratio = s / thresh if s > thresh else thresh / max(s, 1e-300)
        margin = min(margin, ratio)
    return rank, margin


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
            r, margin = rank_with_margin_reference(sub, scale, pol)
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


def component_defect_reference(flag, component, filt):
    """Coordinate-mass mismatch and invariance residual of the flag against
    the component, one flag at a time.  A frozen copy of
    ``flags.component_defect`` as it was before the defects of a stack of
    flags were computed together."""
    q = filt.transform
    y = np.linalg.solve(q, flag.basis)
    yo = orthonormalize_reference(y)
    starts = filt.row_starts()
    k = len(filt.mults)
    cum = np.cumsum(component.assignment, axis=0)
    worst = 0.0
    rates = filt.row_rates[:, None]
    model_norm = max(1.0, max(abs(r) for r in filt.rates))
    for i, d in enumerate(flag.dims.dims):
        cols = yo[:, :d]
        for j in range(k):
            mass = float(np.sum(cols[starts[j] : starts[j + 1], :] ** 2))
            worst = max(worst, abs(mass - cum[i, j]))
        hv = rates * cols
        resid = hv - cols @ (cols.T @ hv)
        worst = max(worst, float(np.linalg.norm(resid)) / model_norm)
    return worst


def simulation_check_reference(dec, cls, dims, starts, seed, horizon, pol=None):
    """``flags.simulation_check`` one start at a time, as it was before the
    starts became one stack: ``random_flag`` draws each start, each leg's
    end flag is ``simulate_flag``'s, the prediction is
    ``cell_assignment_reference``'s table and the defect
    ``component_defect_reference``'s."""
    pol = pol or DEFAULT_POLICY
    filt, comps = cls.filtration, cls.components
    tables = [c.assignment for c in comps]
    rng = np.random.default_rng(seed)
    matches = [0, 0]
    worst = 0.0
    for _ in range(starts):
        f0 = random_flag(filt.n, dims, rng)
        for i, (reverse, t) in enumerate(((False, horizon), (True, -horizon))):
            table, _ = cell_assignment_reference(f0, filt, pol, reverse)
            if table not in tables:
                raise IllConditioned(f"rank pattern {table} matches no Morse component")
            end = simulate_flag(dec, f0, [t])[-1]
            defect = component_defect_reference(end, comps[tables.index(table)], filt)
            worst = max(worst, defect)
            if defect <= pol.sim_tol:
                matches[i] += 1
    return matches[0], matches[1], worst


def rate_groups_reference(spectral, continuous, pol):
    """Spectral clusters grouped by exponential rate, decreasing, as
    (mean rate, clusters) pairs.  A frozen copy of the grouping that
    ``projective._group_by_rate`` did before the rate frame absorbed it."""
    if continuous:
        rates = [c.eigenvalue.real for c in spectral.clusters]
    else:
        rates = [math.log(abs(c.eigenvalue)) for c in spectral.clusters]
    items = list(zip(rates, spectral.clusters))
    items.sort(key=lambda rc: -rc[0])
    groups = []
    for rate, c in items:
        if groups and abs(groups[-1][0][-1] - rate) < pol.cluster_tol * max(
            1.0, abs(rate), abs(groups[-1][0][-1])
        ):
            groups[-1][0].append(rate)
            groups[-1][1].append(c)
        else:
            groups.append(([rate], [c]))
    return [(float(np.mean(rates)), cs) for rates, cs in groups]


def component_coordinates_reference(p, dec, pol):
    """Norms of the oblique rate-group components of the representative of
    [p]: each group's summed spectral projection applied to it."""
    groups = rate_groups_reference(dec.spectral, dec.continuous, pol)
    return np.array(
        [
            np.linalg.norm(np.sum([c.projection for c in cs], axis=0) @ p.rep)
            for _, cs in groups
        ]
    )


def stable_set_index_reference(p, dec, pol=None):
    """Index of the projective component whose stable set contains [p], by
    projection norms: the first (largest-rate) oblique component above
    residual_tol.  The classifier ``projective.stable_set_index`` used
    before a line was classified as a Bruhat cell of signature (1)."""
    pol = pol or DEFAULT_POLICY
    coords = component_coordinates_reference(p, dec, pol)
    for i, c in enumerate(coords):
        if c > pol.residual_tol:
            return i
    return len(coords) - 1  # unreachable for unit vectors


def unstable_set_index_reference(p, dec, pol=None):
    """Dual of stable_set_index_reference: the last oblique component above
    residual_tol (alpha-limit)."""
    pol = pol or DEFAULT_POLICY
    coords = component_coordinates_reference(p, dec, pol)
    for i in range(len(coords) - 1, -1, -1):
        if coords[i] > pol.residual_tol:
            return i
    return 0


def recurrent_membership_reference(p, dec, pol=None, tol=None):
    """Is [p] recurrent?  The point test, linear in the distance to the
    recurrent set: the representative x spans an invariant line of the
    hyperbolic factor, ||H x - x x^T H x|| <= tol * max(1, ||H||), and
    |N x| <= tol * max(1, ||N||); h and u - I in discrete time."""
    pol = pol or DEFAULT_POLICY
    tol = pol.residual_tol if tol is None else tol
    if dec.continuous:
        hyper, nil = dec.H, dec.N
    else:
        hyper, nil = dec.h, dec.u - np.eye(len(p.rep))
    x = p.rep
    hx = hyper @ x
    moved = np.linalg.norm(hx - x * (x @ hx)) / max(1.0, np.linalg.norm(hyper, 2))
    kernel = np.linalg.norm(nil @ x) / max(1.0, np.linalg.norm(nil, 2))
    return bool(moved <= tol and kernel <= tol)


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
    yo = orthonormalize_reference(y)
    val = 0.0
    for d in flag.dims.dims:
        cols = yo[:, :d]
        val += float(np.sum(d_rates[:, None] * cols**2))
    return -val


def projective_distance(p, q):
    """Chordal metric d([x],[y]) = min(|x-y|, |x+y|) on unit representatives."""
    x, y = p.rep, q.rep
    return float(min(np.linalg.norm(x - y), np.linalg.norm(x + y)))


def unipotent_limit(p, n_mat, pol=None):
    """Two-sided limit of exp(tN)[x]: the class [N^k x] for the last k with
    N^k x != 0.  The returned point is fixed by the unipotent flow."""
    pol = pol or DEFAULT_POLICY
    n_mat = as_square_matrix(n_mat, "N")
    nilpotency_index(n_mat, pol)  # NotNilpotent if it is not
    x = p.rep
    scale = max(1.0, opnorm(n_mat))
    best = x
    power = x
    for k in range(1, n_mat.shape[0] + 1):
        power = n_mat @ power
        if np.linalg.norm(power) <= pol.residual_tol * np.linalg.norm(x) * scale**k:
            break
        best = power
    return ProjectivePoint(best)


def wedge_basis(n, p):
    """Lexicographic p-index sets; the basis order of the wedge space."""
    return list(itertools.combinations(range(n), p))


def wedge_representation(g, p):
    """Matrix of v1^...^vp -> g v1^...^g vp on the lexicographic wedge basis.

    Entry [I, J] is the minor det(g[I, J]); multiplicativity
    rho(g1 g2) = rho(g1) rho(g2) is Cauchy-Binet.
    """
    g = as_square_matrix(g, "g")
    combos = wedge_basis(g.shape[0], p)
    idx = np.array(combos)
    out = np.empty((len(combos), len(combos)))
    for j, cols in enumerate(combos):
        sub = g[:, cols]
        out[:, j] = np.linalg.det(sub[idx, :])
    return out


def _sorted_with_sign(seq):
    """Sort distinct indices, returning (tuple, permutation sign)."""
    s = list(seq)
    inv = sum(
        1 for a in range(len(s)) for b in range(a + 1, len(s)) if s[a] > s[b]
    )
    return tuple(sorted(s)), (-1 if inv % 2 else 1)


def wedge_infinitesimal(x, p):
    """Derived representation: v1^...^vp -> sum_i v1^...^X vi^...^vp."""
    x = as_square_matrix(x, "X")
    n = x.shape[0]
    combos = wedge_basis(n, p)
    pos = {c: i for i, c in enumerate(combos)}
    out = np.zeros((len(combos), len(combos)))
    for j, cols in enumerate(combos):
        colset = set(cols)
        for i, ji in enumerate(cols):
            for k in range(n):
                if k == ji:
                    out[j, j] += x[ji, ji]
                    continue
                if k in colset:
                    continue
                replaced = list(cols)
                replaced[i] = k
                target, sign = _sorted_with_sign(replaced)
                out[pos[target], j] += sign * x[k, ji]
    return out


def plucker_embed(basis):
    """Projectivized wedge of a subspace basis, in lexicographic wedge
    coordinates: coordinate I is det(B[I, :]).

    Accepts a Flag (top subspace is used: pass ``flag.subspace(i)`` for a
    specific level) or an n x p basis matrix.  Equivariant: the class of
    i(gV) equals rho(g) i(V).
    """
    if isinstance(basis, Flag):
        basis = basis.subspace(len(basis.dims.dims) - 1)
    b = np.asarray(basis, dtype=float)
    n, p = b.shape
    if not 1 <= p <= n - 1:
        raise InputError(f"subspace dimension {p} outside 1..{n - 1}")
    idx = np.array(wedge_basis(n, p))
    return ProjectivePoint(np.linalg.det(b[idx, :]))


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


def _insert_after(d, key, items):
    """A copy of the dict ``d`` with ``items`` placed right after ``key``
    (nowhere if ``key`` is missing)."""
    out = {}
    for k, v in d.items():
        out[k] = v
        if k == key:
            out.update(items)
    return out


def _only_index(components, flag):
    """The ``index`` of the one component whose ``flag`` is true."""
    (index,) = [c["index"] for c in components if c[flag]]
    return index


def down_convert_report(text):
    """jf-schema-2 report text -> the jf-schema-1 text of the same report.

    jf-schema-2 states each fact once; this puts back the jf-schema-1 copies
    from the one copy that stays, in jf-schema-1 key order, and writes with
    ``dumps_canonical_reference``:
    - ``schema`` jf-schema-2/<command> becomes jf-schema-1/<command>;
    - every component gets ``cluster_rates`` after ``assignment``: the
      eigen rates (``classification.eigen_rates`` in ``analyze``, the
      top-level ``eigen_rates`` in ``floquet``, which jf-schema-1 lacks) with
      equal neighbours merged, since cluster rates strictly decrease (each
      run's length must be the cluster's multiplicity, which every
      assignment's column sums also give);
    - ``classification`` gets ``structurally_stable`` (= ``h_regular``)
      after ``conformal``, and ``attractor_index`` / ``repeller_index`` (the
      ``index`` of the one component flagged ``attractor`` / ``repeller``)
      after ``eigen_rates``.
    A report that lost one of these facts raises or converts to other bytes.
    """
    doc = json.loads(text)
    version, command = doc["schema"].split("/")
    if version != "jf-schema-2":
        raise ValueError(f"not a jf-schema-2 report: {doc['schema']!r}")
    doc["schema"] = f"jf-schema-1/{command}"
    if command == "floquet":
        rates = doc.pop("eigen_rates")
    elif command == "analyze":
        cls = doc["classification"]
        rates = cls["eigen_rates"]
        comps = doc["components"]
        cls = _insert_after(cls, "conformal", {"structurally_stable": cls["h_regular"]})
        doc["classification"] = _insert_after(cls, "eigen_rates", {
            "attractor_index": _only_index(comps, "attractor"),
            "repeller_index": _only_index(comps, "repeller"),
        })
    if doc.get("components") is not None:
        runs = [(r, len(list(group))) for r, group in itertools.groupby(rates)]
        clusters = [r for r, _ in runs]
        for c in doc["components"]:
            if [sum(col) for col in zip(*c["assignment"])] != [m for _, m in runs]:
                raise ValueError(f"component {c['index']}: the eigen rates do not "
                                 "repeat each cluster rate by its multiplicity")
        doc["components"] = [
            _insert_after(c, "assignment", {"cluster_rates": clusters})
            for c in doc["components"]
        ]
    return dumps_canonical_reference(doc) + "\n"


def unit_rows(img):
    """Rows divided by their norms.  Rows of entries below 2^-400 are
    multiplied by 2^600 first (exact), so that their norm does not underflow;
    a zero row becomes NaN."""
    img = img.copy()
    img[np.abs(img).max(axis=1) < 2.0**-400] *= 2.0**600
    return img / np.linalg.norm(img, axis=1)[:, None]


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
        cos = np.abs(unit_rows(pts @ step.T) @ pts.T)
        adj = (adj + sp.csr_matrix(cos > cos_thresh)).tocsr()
        step = step @ step
        step /= max(np.abs(step).max(), 1e-300)
    del cos

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


#: a batched product's |cos| within this of the threshold is decided again
#: by ``_abs_cos``; the two differed by at most 1.1e-16 on random P^1 flows
_COS_BAND = 1e-13
#: window rows times the width one block of ``window_edges_reference`` tests
_BLOCK_PAIRS = 2**18


def _abs_cos(a, b):
    """|a_k . b_k| row by row, as a stacked matmul of 1 x n by n x 1 rounds
    it.  That is the gemm's rounding of |A @ B.T| at most shapes (einsum and
    (a*b).sum round otherwise), but not all: OpenBLAS's Haswell kernel puts
    a few entries one ulp apart at N = 2100 and 3500 on P^1."""
    return np.abs(np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0])


def window_edges_reference(img, pts, eps, cos_thresh):
    """Bool CSR of the pairs (i, j) with |img_i . pts_j| > cos_thresh on P^1.

    The P^1 leg builder ``projective.chain_oracle`` used before its arcs,
    frozen here.  Grid line j sits at angle pi j / N, so every line within
    chordal eps of an image lies in a cyclic window of grid indices around
    the image's angle.  One batched product decides the pairs farther than
    ``_COS_BAND`` from the threshold, and ``_abs_cos``, which rounds like
    the gemm, the rest.  A row that is not finite gets no edges.
    """
    resolution = len(pts)
    # grid steps within chordal eps of a line; 2 more cover the floor of the
    # image's angle and the round-off of that angle and of the cosine
    steps = 2.0 * math.asin(min(eps, math.sqrt(2.0)) / 2.0) * resolution / math.pi
    width = min(2 * (math.ceil(steps) + 2) + 1, resolution)
    windows = np.lib.stride_tricks.sliding_window_view(
        np.vstack([pts, pts[:width]]), (width, 2)
    )[:, 0]
    block_rows = max(1, _BLOCK_PAIRS // width)
    counts = np.zeros(len(img) + 1, dtype=np.int32)
    cols = []
    for start in range(0, len(img), block_rows):
        sub = img[start : start + block_rows]
        live = np.flatnonzero(np.isfinite(sub).all(axis=1))
        x = sub[live]
        below = np.floor(np.arctan2(x[:, 1], x[:, 0]) * resolution / np.pi)
        lo = (below.astype(np.intp) - width // 2) % resolution
        fast = np.abs(np.matmul(windows[lo], x[:, :, None])[:, :, 0])
        keep = fast > cos_thresh + _COS_BAND
        r, k = np.nonzero(~keep & (fast >= cos_thresh - _COS_BAND))
        keep[r, k] = _abs_cos(x[r], pts[(lo[r] + k) % resolution]) > cos_thresh
        r, k = np.nonzero(keep)
        counts[start + 1 + live] = keep.sum(axis=1)
        cols.append(((lo[r] + k) % resolution).astype(np.int32))
    indices = np.concatenate(cols)
    leg = sp.csr_matrix(
        (np.ones(len(indices), dtype=bool), indices, np.cumsum(counts, dtype=np.int32)),
        shape=(len(img), resolution),
    )
    leg.sort_indices()
    return leg


def cluster_eigenvalues_union_find(w, cluster_tol):
    """Group eigenvalues by relative distance, conjugate-closed.

    Union-find over the eigenvalue list; two eigenvalues merge when either
    one (or the conjugate of one) is within cluster_tol * max(1, |.|) of the
    other.  Folding the conjugate into the merge rule guarantees every
    cluster of a real matrix is closed under conjugation.

    The clustering ``matrixcore.complex_spectrum`` used before its Boolean
    transitive closure; returns the index lists of the clusters, ordered by
    first member.
    """
    n = len(w)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    for i in range(n):
        for j in range(i + 1, n):
            gap = cluster_tol * max(1.0, abs(w[i]), abs(w[j]))
            if abs(w[i] - w[j]) < gap or abs(np.conj(w[i]) - w[j]) < gap:
                union(i, j)

    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


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

    groups = cluster_eigenvalues_union_find(w, pol.cluster_tol)

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
    products and one 2-norm per step, projected by the determinant of each
    sample.  The batched step matrices of ``integrate_fundamental`` round
    differently, so its samples agree with these up to rounding.
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


def _det_by_elimination(a):
    """Determinant by Gaussian elimination with partial pivoting, in the
    dtype of ``a`` (LAPACK's ``det`` has no long double)."""
    a = a.copy()
    d = a.dtype.type(1)
    for j in range(a.shape[0]):
        p = j + int(np.argmax(np.abs(a[j:, j])))
        if p != j:
            a[[j, p]] = a[[p, j]]
            d = -d
        d *= a[j, j]
        a[j + 1 :, j:] -= np.outer(a[j + 1 :, j] / a[j, j], a[j, j:])
    return d


def integrate_fundamental_extended(coef, steps):
    """The samples of ``integrate_fundamental_reference`` carried in
    ``np.longdouble``: the same RK4 steps on the same float64 values of X,
    each sample projected by its own determinant.

    Where long double has a 64-bit significand (x86-64) it rounds 2^11 times
    finer than float64, so it stands in for exact arithmetic on flows whose
    samples are ill-conditioned, where the float64 reference's projection by
    the determinant of each sample is off by far more than rounding.
    """
    n = coef.n
    h = coef.period / steps
    g = np.eye(n, dtype=np.longdouble)
    samples = [g]
    for i in range(steps):
        g = _rk4_step(coef, i * h, g, h)
        g = g / _det_by_elimination(g) ** (np.longdouble(1) / n)
        samples.append(g)
    return np.array(samples)


def skew_step(fund, fd, s, x, t):
    """One move of the skew-product flow over the circle R / (mT)Z:
    (s, x) -> (s + t, rho_s(t) x) with rho_s(t) = g(t + s) g(s)^(-1)."""
    rho = fund.at(s + t) @ np.linalg.inv(fund.at(s))
    s_new = (s + t) % fd.skew_period
    if isinstance(x, ProjectivePoint):
        return s_new, ProjectivePoint(rho @ x.rep)
    if isinstance(x, Flag):
        return s_new, Flag(orthonormalize_reference(rho @ x.basis), x.dims)
    raise InputError("skew_step moves ProjectivePoint or Flag values")
