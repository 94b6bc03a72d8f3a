"""Dynamics of linear flows on real projective space.

The hyperbolic Jordan factor sorts the space into finitely many projective
eigenspaces; those are the finest Morse decomposition.  This module computes
the components, classifies points into stable/unstable sets, evaluates
unipotent limits, decides recurrence and chain recurrence, simulates
trajectories with mandatory renormalization, and runs a brute-force
(eps, T)-chain oracle on a grid for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import GridTooLarge, InputError, NotNilpotent
from .jordan import AdditiveJordan, MultiplicativeJordan
from .matrixcore import (
    DEFAULT_POLICY,
    as_square_matrix,
    matrix_exp,
    nilpotency_index,
    opnorm,
)

__all__ = [
    "ProjectivePoint",
    "projective_distance",
    "RateComponent",
    "ProjectiveMorseDecomposition",
    "morse_components_projective",
    "stable_set_index",
    "unstable_set_index",
    "unipotent_limit",
    "recurrent_membership",
    "chain_recurrent_membership",
    "simulate_projective",
    "ChainGraph",
    "chain_oracle",
]

#: coordinates below this magnitude count as zero for sign canonicalization
_SIGN_EPS = 1e-12

MAX_GRID = 20000

#: bytes ``chain_oracle`` may spend on the edges of its chain graph
CHAIN_PAIR_BUDGET = 512 * 2**20
#: peak bytes per edge, measured with ru_maxrss on P^1 and P^2 at N = 3000
#: with every pair an edge: the adjacency before and after a leg is added,
#: the leg's block CSRs and their stack, and one block's transients
_EDGE_BYTES = 24
#: candidate pairs one tree query may return; bounds the transient pair
#: records, gathered rows and cosines of a block of image rows
_BLOCK_PAIRS = 2**18


class ProjectivePoint:
    """A line in R^n: unit representative with the first nonzero coordinate
    positive, so equal points have identical reps (hashable, grid-dedupable).
    """

    __slots__ = ("rep",)

    def __init__(self, vector):
        v = np.asarray(vector, dtype=float).reshape(-1)
        if v.size < 2 or not np.all(np.isfinite(v)):
            raise InputError("projective point needs a finite vector, n >= 2")
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise InputError("zero vector does not define a projective point")
        v = v / norm
        for x in v:
            if abs(x) > _SIGN_EPS:
                if x < 0:
                    v = -v
                break
        rep = v.copy()
        rep.setflags(write=False)
        object.__setattr__(self, "rep", rep)

    @property
    def n(self):
        return self.rep.size

    def __setattr__(self, *a):
        raise AttributeError("ProjectivePoint is immutable")

    def __eq__(self, other):
        return isinstance(other, ProjectivePoint) and np.array_equal(
            self.rep, other.rep
        )

    def __hash__(self):
        return hash(self.rep.tobytes())

    def __repr__(self):
        return f"ProjectivePoint({np.array2string(self.rep, precision=6)})"


def projective_distance(p, q, metric=None):
    """Chordal metric d([x],[y]) = min(|x-y|, |x+y|) on unit representatives.

    With an InvariantMetric the same formula is evaluated in the M-norm on
    M-normalized representatives, so an elliptic factor acts by isometries.
    """
    x, y = p.rep, q.rep
    if metric is None:
        return float(min(np.linalg.norm(x - y), np.linalg.norm(x + y)))
    m = metric.gram
    x = x / math.sqrt(x @ m @ x)
    y = y / math.sqrt(y @ m @ y)
    d1 = x - y
    d2 = x + y
    return float(min(math.sqrt(d1 @ m @ d1), math.sqrt(d2 @ m @ d2)))


# ---------------------------------------------------------------------------
# Morse components from the hyperbolic part
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateComponent:
    """One projective Morse component: the eigenspace of the hyperbolic part
    for one exponential rate.

    ``value`` is the eigenvalue of h (discrete time: modulus) or H
    (continuous time: real part); ``rate`` is the common exponential rate
    (log value for discrete time, the value itself for continuous).
    ``projection`` is the spectral (generally oblique) projector onto the
    eigenspace; ``basis`` an orthonormal basis of it.
    """

    value: float
    rate: float
    multiplicity: int
    basis: np.ndarray
    projection: np.ndarray


@dataclass(frozen=True)
class ProjectiveMorseDecomposition:
    """Ordered (decreasing rate) projective eigenspaces of the hyperbolic part."""

    components: tuple
    continuous: bool
    cluster_tol: float

    @property
    def attractor_index(self):
        return 0

    @property
    def repeller_index(self):
        return len(self.components) - 1

    def distances(self, points):
        """Chordal distances (components x points) from unit row points."""
        pts = np.atleast_2d(points)
        inside = np.stack(
            [np.linalg.norm(pts @ c.basis, axis=1) for c in self.components]
        )
        return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * inside))

    def distance_to_component(self, p, i):
        """Chordal distance from a point to the i-th projective eigenspace."""
        return float(self.distances(p.rep)[i, 0])

    def component_coordinates(self, p):
        """Norms of the oblique eigenspace components of the representative."""
        return np.array(
            [np.linalg.norm(c.projection @ p.rep) for c in self.components]
        )


def _cluster_rates(spectral, continuous):
    """Exponential rate of each spectral cluster: the real part in continuous
    time, log |lambda| in discrete time."""
    if continuous:
        return [c.eigenvalue.real for c in spectral.clusters]
    return [math.log(abs(c.eigenvalue)) for c in spectral.clusters]


def _group_by_rate(spectral, continuous, pol):
    """Group spectral clusters by exponential rate, decreasing.

    Rates merge under the same relative rule as eigenvalues do; coincident
    moduli of distinct eigenvalue clusters (e.g. 2 and -2) land in one group.
    """
    items = list(zip(_cluster_rates(spectral, continuous), spectral.clusters))
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


def _as_decomposition(dec):
    if isinstance(dec, (AdditiveJordan, MultiplicativeJordan)):
        return dec
    raise InputError(f"need an AdditiveJordan or MultiplicativeJordan, got {type(dec)!r}")


def morse_components_projective(dec, pol=None):
    """The finest Morse decomposition of the induced flow on P(R^n).

    Components are the projective eigenspaces of the hyperbolic Jordan factor
    ordered by decreasing rate; the first is the attractor, the last the
    repeller, and their union is the chain recurrent set.
    """
    pol = pol or DEFAULT_POLICY
    dec = _as_decomposition(dec)
    cont = isinstance(dec, AdditiveJordan)
    comps = []
    for rate, clusters in _group_by_rate(dec.spectral, cont, pol):
        proj = np.sum([c.projection for c in clusters], axis=0)
        stacked = np.hstack([c.basis for c in clusters])
        mult = sum(c.multiplicity for c in clusters)
        # orthonormal basis of the (possibly oblique) sum of cluster ranges
        u, s, _ = np.linalg.svd(stacked, full_matrices=False)
        basis = u[:, :mult]
        comps.append(
            RateComponent(
                value=rate if cont else math.exp(rate),
                rate=rate,
                multiplicity=mult,
                basis=basis,
                projection=proj,
            )
        )
    md = ProjectiveMorseDecomposition(
        components=tuple(comps), continuous=cont, cluster_tol=pol.cluster_tol
    )
    assert sum(c.multiplicity for c in md.components) == dec.spectral.n
    return md


def _as_md(dec_or_md, pol):
    if isinstance(dec_or_md, ProjectiveMorseDecomposition):
        return dec_or_md
    return morse_components_projective(dec_or_md, pol)


def stable_set_index(p, dec, pol=None):
    """Index of the component whose stable set contains [p].

    The omega-limit of [v] lies in the projective eigenspace of the first
    (largest-rate) nonzero oblique component of v.
    """
    pol = pol or DEFAULT_POLICY
    md = _as_md(dec, pol)
    coords = md.component_coordinates(p)
    for i, c in enumerate(coords):
        if c > pol.residual_tol:
            return i
    return len(coords) - 1  # unreachable for unit vectors


def unstable_set_index(p, dec, pol=None):
    """Dual of stable_set_index: last nonzero component (alpha-limit)."""
    pol = pol or DEFAULT_POLICY
    md = _as_md(dec, pol)
    coords = md.component_coordinates(p)
    for i in range(len(coords) - 1, -1, -1):
        if coords[i] > pol.residual_tol:
            return i
    return 0


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


def _invariance_residual(m, b):
    """||M B - B B^T M B|| / max(1, ||M||): how far the span of the
    orthonormal columns of B is from being M-invariant."""
    mb = m @ b
    return opnorm(mb - b @ (b.T @ mb)) / max(1.0, opnorm(m))


def recurrent_membership(p, dec, pol=None, tol=None):
    """Is [p] recurrent?  Requires the representative to sit in a single
    eigenspace of the hyperbolic part and be fixed by the unipotent part."""
    pol = pol or DEFAULT_POLICY
    dec = _as_decomposition(dec)
    tol = pol.residual_tol if tol is None else tol
    if not chain_recurrent_membership(p, dec, pol, tol):
        return False
    if dec.continuous:
        return bool(np.linalg.norm(dec.N @ p.rep) <= tol * max(1.0, opnorm(dec.N)))
    return _invariance_residual(dec.u, p.rep[:, None]) <= tol


def chain_recurrent_membership(p, dec, pol=None, tol=None):
    """Is [p] chain recurrent?  True iff it sits in a single eigenspace of
    the hyperbolic part (the unipotent factor is invisible to chains)."""
    pol = pol or DEFAULT_POLICY
    dec = _as_decomposition(dec)
    tol = pol.residual_tol if tol is None else tol
    hyper = dec.H if dec.continuous else dec.h
    return _invariance_residual(hyper, p.rep[:, None]) <= tol


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _normalized_power(m, k):
    """m^k rescaled to unit spectral-ish norm at every multiply.

    Projectively exact; avoids overflow for long discrete legs.
    """
    n = m.shape[0]
    if k < 0:
        m = np.linalg.inv(m)
        k = -k
    result = np.eye(n)
    base = m / max(np.abs(m).max(), 1e-300)
    while k:
        if k & 1:
            result = result @ base
            result /= max(np.abs(result).max(), 1e-300)
        base = base @ base
        base /= max(np.abs(base).max(), 1e-300)
        k >>= 1
    return result


def _step_matrix(dec, dt):
    """Flow increment over time dt (continuous: exp, discrete: power)."""
    if isinstance(dec, AdditiveJordan):
        return matrix_exp(dt * dec.X)
    if float(dt) != int(dt):
        raise InputError("discrete flow needs integer time steps")
    return _normalized_power(dec.g, int(dt))


def _rate_spread(dec):
    """Gap between the fastest and slowest exponential rates of the flow;
    this, not the matrix norm, is what exhausts floating-point range."""
    rates = _cluster_rates(dec.spectral, dec.continuous)
    return float(max(rates) - min(rates))


def _substep_plan(dec, dt):
    """Split an increment so one application never spans more than ~e^15 of
    dynamic range; renormalizing between substeps is projectively exact and
    keeps subdominant directions above the floating-point floor."""
    spread = _rate_spread(dec)
    if isinstance(dec, AdditiveJordan):
        k = max(1, math.ceil(abs(dt) * spread / 15.0))
        return k, dt / k
    step = int(dt)
    if step == 0:
        return 1, 0
    per = max(1, int(15.0 / max(spread, 1e-9)))
    k = max(1, math.ceil(abs(step) / per))
    base = step // k
    return k, base  # remainder handled by caller


def _advance(dec, v_or_b, dt, cache, renorm):
    """Apply the flow over dt with substepping; renorm re-normalizes."""
    if dt == 0:
        return v_or_b
    k, sub = _substep_plan(dec, dt)
    if isinstance(dec, AdditiveJordan):
        pieces = [float(sub)] * k
    else:
        pieces = [int(sub)] * k
        rem = int(dt) - int(sub) * k
        if rem:
            pieces.append(rem)
    out = v_or_b
    for piece in pieces:
        if piece == 0:
            continue
        key = float(piece)
        if key not in cache:
            cache[key] = _step_matrix(dec, piece)
        out = renorm(cache[key] @ out)
    return out


def _trajectory(dec, x, t_grid, renorm):
    """States x(t) over t_grid from x(0) = x; one step cache per trajectory."""
    out = []
    t_prev = 0.0
    cache = {}
    for t in t_grid:
        x = _advance(dec, x, t - t_prev, cache, renorm)
        out.append(x)
        t_prev = t
    return out


def simulate_projective(dec, p0, t_grid):
    """Trajectory [g^t x0] over t_grid, renormalized at every step.

    Uses the exact flow map per increment (matrix exponential or powers),
    never an ODE stepper, so there is no integrator error to calibrate.
    """
    dec = _as_decomposition(dec)

    def renorm(v):
        nv = np.linalg.norm(v)
        if not np.isfinite(nv) or nv == 0.0:
            raise InputError("trajectory left representable range")
        return v / nv

    return [ProjectivePoint(v) for v in _trajectory(dec, p0.rep.copy(), t_grid, renorm)]


# ---------------------------------------------------------------------------
# brute-force (eps, T)-chain oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainGraph:
    """Grid discretization of the chain relation.

    An edge x -> y is present when d(g^s x, y) < eps for some leg s in
    ``leg_times`` (all >= the minimum jump time, doubling up to the budget;
    chains need arbitrarily long legs, a single leg time provably misses
    unipotent recurrence).  ``marked`` flags grid points lying on a directed
    cycle, i.e. in a strongly connected component witnessing an
    (eps, T)-chain back to itself.  ``edges`` is the adjacency as a
    canonical (sorted, duplicate-free) bool CSR matrix, row -> column.
    """

    points: np.ndarray
    eps: float
    min_time: float
    leg_times: tuple
    edges: object
    marked: np.ndarray
    covering_radius: float


def projective_grid(n, resolution):
    """Deterministic grid on P^(n-1): uniform angles on the circle, a
    sign-quotiented Fibonacci sphere for n = 3."""
    if n == 2:
        theta = np.pi * np.arange(resolution) / resolution
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif n == 3:
        i = np.arange(resolution)
        z = 1.0 - (2.0 * i + 1.0) / resolution
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        golden = np.pi * (3.0 - np.sqrt(5.0))
        phi = golden * i
        pts = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    else:
        raise GridTooLarge(f"chain oracle supports n in (2, 3); got n={n}")
    # sign canonicalization, vectorized: flip rows whose first significant
    # coordinate is negative
    sign = np.ones(len(pts))
    undecided = np.ones(len(pts), dtype=bool)
    for j in range(pts.shape[1]):
        decide = undecided & (np.abs(pts[:, j]) > _SIGN_EPS)
        sign[decide & (pts[:, j] < 0)] = -1.0
        undecided &= ~decide
    return pts * sign[:, None]


def _abs_cos(a, b):
    """|a_k . b_k| row by row, bitwise equal to the entries of |A @ B.T|
    (a stacked matmul rounds like the gemm; einsum and (a*b).sum do not)."""
    return np.abs(np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0])


def _chain_candidates(n, resolution, eps):
    """Candidate pairs one leg's tree queries return: N * (N*f + 1), where f
    is the fraction of P^(n-1) within chordal distance eps of a point.  A
    leg's edges are the candidates that pass the strict cosine test."""
    if eps >= math.sqrt(2.0):
        f = 1.0
    elif n == 2:
        f = 4.0 / math.pi * math.asin(eps / 2.0)
    else:
        f = eps * eps / 2.0
    return resolution * (resolution * f + 1.0)


def _leg_edges(img, pts, tree, radius, cos_thresh, block_rows):
    """Bool CSR of the pairs (i, j) with |img_i . pts_j| > cos_thresh.

    Image rows are queried against the +-grid ``tree`` in blocks of
    ``block_rows``, so the pair records of one block are alive at a time.
    A row that is not finite (a point the step matrix sent to 0) gets no
    edges, as the NaN cosines of a dense product would give it.
    """
    from scipy.spatial import cKDTree  # loaded by chain_oracle already

    resolution = len(pts)
    blocks = []
    for start in range(0, resolution, block_rows):
        sub = img[start : start + block_rows]
        rows = cols = np.empty(0, dtype=np.intp)
        live = np.flatnonzero(np.isfinite(sub).all(axis=1))
        if live.size:
            pairs = cKDTree(sub[live]).sparse_distance_matrix(
                tree, radius, output_type="ndarray"
            )
            rows = live[pairs["i"]]
            cols = pairs["j"] % resolution
            keep = _abs_cos(sub[rows], pts[cols]) > cos_thresh
            rows, cols = rows[keep], cols[keep]
        blocks.append(
            sp.csr_matrix(
                (np.ones(len(rows), dtype=bool), (rows, cols)),
                shape=(len(sub), resolution),
            )
        )
    return sp.vstack(blocks, format="csr")


def chain_oracle(dec, resolution, eps, min_time, pol=None, leg_doublings=11):
    """Mark grid points that admit an (eps, T)-chain back to themselves.

    Builds the chain graph over leg times T * 2^k (k = 0..leg_doublings) and
    marks strongly connected components containing a cycle.  As resolution
    grows and eps shrinks the marked set converges to the chain recurrent
    set fix(h^t) on the tested families.

    Each leg's edges come from k-d tree queries of its images against the
    grid and its negatives, a bounded block of image rows at a time, so the
    cost is O(N * legs) tree queries and O(edges) memory.  An input whose
    estimated edges, min(N^2, legs * candidates per leg), would take more
    than ``CHAIN_PAIR_BUDGET`` bytes is refused before anything is allocated.
    """
    pol = pol or DEFAULT_POLICY
    dec = _as_decomposition(dec)
    n = dec.spectral.n
    if n not in (2, 3):
        raise GridTooLarge(f"chain oracle supports n in (2, 3); got n={n}")
    if not 8 <= resolution <= MAX_GRID:
        raise GridTooLarge(f"resolution {resolution} outside 8..{MAX_GRID}")
    if not (0 < eps < math.inf and 0 < min_time < math.inf):
        raise InputError("eps and min_time must be positive and finite")
    if leg_doublings < 0:
        raise InputError(f"leg_doublings must be >= 0; got {leg_doublings}")
    candidates = _chain_candidates(n, resolution, eps)
    edges = min(resolution * resolution, (leg_doublings + 1) * candidates)
    if edges * _EDGE_BYTES > CHAIN_PAIR_BUDGET:
        raise GridTooLarge(
            f"~{edges * _EDGE_BYTES / 2**20:.0f} MiB of chain-graph edges at "
            f"resolution {resolution}, eps {eps}, {leg_doublings + 1} legs; "
            f"budget {CHAIN_PAIR_BUDGET / 2**20:.0f} MiB"
        )
    block_rows = max(1, int(_BLOCK_PAIRS * resolution // candidates))
    # imported here: scipy.spatial adds ~0.2 s to every CLI start
    from scipy.spatial import cKDTree

    pts = projective_grid(n, resolution)
    g1 = _step_matrix(dec, min_time)
    # a line [p] is within chordal eps of an image iff p or -p is.  The
    # radius is padded past the cosine's round-off, so every pair the strict
    # test accepts is a candidate; from sqrt(2) on, every pair is one.
    tree = cKDTree(np.vstack([pts, -pts]))
    radius = min(eps, math.sqrt(2.0)) * (1.0 + 1e-7) + 1e-7

    cos_thresh = 1.0 - 0.5 * eps * eps
    adj = sp.csr_matrix((resolution, resolution), dtype=bool)
    leg_times = []
    step = g1.copy()
    t = float(min_time)
    for _ in range(leg_doublings + 1):
        leg_times.append(t)
        img = pts @ step.T
        img /= np.linalg.norm(img, axis=1)[:, None]
        adj = (adj + _leg_edges(img, pts, tree, radius, cos_thresh, block_rows)).tocsr()
        step = step @ step
        step /= max(np.abs(step).max(), 1e-300)
        t *= 2.0

    ncomp, labels = connected_components(adj, directed=True, connection="strong")
    size = np.bincount(labels, minlength=ncomp)
    selfloop = adj.diagonal()
    cyclic = np.zeros(ncomp, dtype=bool)
    cyclic[size >= 2] = True
    cyclic[labels[selfloop]] = True
    marked = cyclic[labels]

    # covering radius of the grid: max nearest-neighbor chordal distance.
    # A point's nearest other line is among its 3 nearest +- tree neighbors
    # besides itself; the largest |cos| of the 3 settles near-ties as the
    # gemm would.
    _, near = tree.query(pts, k=4)
    near %= resolution
    nn_cos = _abs_cos(np.repeat(pts, 4, axis=0), pts[near.ravel()]).reshape(-1, 4)
    nn_cos[near == np.arange(resolution)[:, None]] = -1.0
    covering = float(np.sqrt(max(0.0, 2.0 - 2.0 * nn_cos.max(axis=1).min())))

    return ChainGraph(
        points=pts,
        eps=float(eps),
        min_time=float(min_time),
        leg_times=tuple(leg_times),
        edges=adj,
        marked=marked,
        covering_radius=covering,
    )
