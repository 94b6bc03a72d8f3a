"""Dynamics of linear flows on real projective space.

Projective space is the flag manifold of signature (1): its Morse
components, stable and unstable sets and recurrence are those of ``flags``
read for a line.  This module holds what is particular to points: the
points themselves, the rate frame (the hyperbolic Jordan factor's
eigenvalue clusters grouped by rate, whose blocks span the projective
eigenspaces, the finest Morse decomposition), simulation with mandatory
renormalization, and a brute-force (eps, T)-chain oracle on a grid for
cross-checking.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import GridTooLarge, InputError, InvariantViolated
from .jordan import AdditiveJordan, MultiplicativeJordan
from .matrixcore import DEFAULT_POLICY, matrix_exp

__all__ = [
    "ProjectivePoint",
    "RateFiltration",
    "rate_filtration",
    "simulate_projective",
    "ChainGraph",
    "chain_oracle",
]

#: coordinates below this magnitude count as zero for sign canonicalization
_SIGN_EPS = 1e-12

MAX_GRID = 20000

#: substeps one simulation leg may take; a full-flag substep took 36-56 us
#: at n = 3..12 (one BLAS thread, Xeon, Python 3.11), so 2.4-3.7 s a leg
SUBSTEP_BUDGET = 2**16

#: leg doublings ``chain_oracle`` accepts: past 52 squarings the normalized
#: step carries round-off of about 2^52 * eps, so later legs add noise or
#: nothing, and the leg time T * 2^k overflows near k = 1024
MAX_LEG_DOUBLINGS = 52

#: bytes ``chain_oracle`` may spend on the edges of its chain graph
CHAIN_PAIR_BUDGET = 512 * 2**20
#: peak bytes per edge, measured with ru_maxrss on P^1 and P^2 at N = 3000
#: with every pair an edge: the adjacency before and after a leg is added,
#: the leg's column blocks (P^1) or block CSRs (P^2) and their stack, and
#: one block's transients
_EDGE_BYTES = 24
#: pairs one block of image rows may test: the candidates a P^2 tree query
#: returns, or the window rows times the width on P^1; bounds the block's
#: transient pair records, gathered rows and cosines
_BLOCK_PAIRS = 2**18
#: a batched product's |cos| within this of the threshold is decided again
#: by ``_abs_cos``; the two differed by at most 1.1e-16 on random P^1 flows
_COS_BAND = 1e-13


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


# ---------------------------------------------------------------------------
# the rate frame
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFiltration:
    """Eigenvalue clusters of the hyperbolic part grouped by rate, decreasing.

    ``transform`` stacks (generally oblique) cluster bases in rate order;
    coordinates in this frame make the fast filtration a coordinate
    filtration, which turns Bruhat-cell membership into rank counting.  The
    projective eigenspaces of the blocks are the finest Morse decomposition
    on P(R^n): the first is the attractor, the last the repeller.
    """

    rates: tuple
    mults: tuple
    blocks: tuple
    transform: np.ndarray

    @property
    def n(self):
        return self.transform.shape[0]

    @property
    def row_rates(self):
        """The rate of each row of the frame: the block-diagonal model."""
        return np.repeat(self.rates, self.mults)

    def row_starts(self):
        return np.cumsum((0, *self.mults)).tolist()

    @functools.cached_property
    def eigenspaces(self):
        """An orthonormal basis of each block's (possibly oblique) span."""
        return tuple(
            np.linalg.svd(block, full_matrices=False)[0][:, :mult]
            for block, mult in zip(self.blocks, self.mults)
        )

    def distances(self, points):
        """Chordal distances (blocks x points) from unit row points to the
        blocks' projective eigenspaces."""
        pts = np.atleast_2d(points)
        inside = np.stack([np.linalg.norm(pts @ e, axis=1) for e in self.eigenspaces])
        return np.sqrt(np.maximum(0.0, 2.0 - 2.0 * inside))


def _cluster_rates(spectral, continuous):
    """Exponential rate of each spectral cluster: the real part in continuous
    time, log |lambda| in discrete time."""
    if continuous:
        return [c.eigenvalue.real for c in spectral.clusters]
    return [math.log(abs(c.eigenvalue)) for c in spectral.clusters]


def _filtration(spectral, continuous, pol):
    """The rate frame of a clustered spectrum: the one place where clusters
    are grouped by rate, decreasing, and their bases stacked in rate order.

    Rates merge under the same relative rule as eigenvalues do; coincident
    moduli of distinct eigenvalue clusters (e.g. 2 and -2) land in one group.
    ``InvariantViolated`` if the multiplicities do not sum to n.
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
    blocks = tuple(np.hstack([c.basis for c in cs]) for _, cs in groups)
    mults = tuple(sum(c.multiplicity for c in cs) for _, cs in groups)
    if sum(mults) != spectral.n:
        raise InvariantViolated("the rate frame's multiplicities do not sum to n")
    return RateFiltration(
        rates=tuple(_rate_mean(rates) for rates, _ in groups),
        mults=mults,
        blocks=blocks,
        transform=np.hstack(blocks),
    )


def _rate_mean(rates):
    """``float(np.mean(rates))`` bitwise.  A group of one is the common case
    and skips the array: x + 0.0 is x, except that -0.0 becomes 0.0, as it
    does in ``np.mean``."""
    if len(rates) == 1:
        return float(rates[0]) + 0.0
    return float(np.mean(rates))


def _as_decomposition(dec):
    if isinstance(dec, (AdditiveJordan, MultiplicativeJordan)):
        return dec
    raise InputError(f"need an AdditiveJordan or MultiplicativeJordan, got {type(dec)!r}")


def rate_filtration(dec, pol=None):
    dec = _as_decomposition(dec)
    return _filtration(dec.spectral, dec.continuous, pol or DEFAULT_POLICY)


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


def _substeps(dec, dt):
    """The pieces an increment is applied in, so one application never spans
    more than ~e^15 of dynamic range; renormalizing between substeps is
    projectively exact and keeps subdominant directions above the
    floating-point floor.  Raises GridTooLarge beyond ``SUBSTEP_BUDGET``."""
    spread = _rate_spread(dec)
    continuous = isinstance(dec, AdditiveJordan)
    if continuous:
        need = abs(dt) * spread / 15.0
    else:
        if float(dt) != int(dt):
            raise InputError("discrete flow needs integer time steps")
        dt = int(dt)
        need = abs(dt) / max(1, int(15.0 / max(spread, 1e-9)))
    if need > SUBSTEP_BUDGET:
        raise GridTooLarge(
            f"a flow leg of length {dt:g} needs {need:.3g} substeps; the "
            f"budget is {SUBSTEP_BUDGET}"
        )
    k = max(1, math.ceil(need))
    if continuous:
        return [float(dt / k)] * k
    return [dt // k] * k + [dt % k]  # a zero remainder is skipped


def _advance(dec, v_or_b, dt, cache, renorm):
    """Apply the flow over dt with substepping; renorm re-normalizes."""
    if dt == 0:
        return v_or_b
    out = v_or_b
    for piece in _substeps(dec, dt):
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


def _window_edges(img, pts, eps, cos_thresh):
    """Bool CSR of the pairs (i, j) with |img_i . pts_j| > cos_thresh on P^1.

    Grid line j sits at angle pi j / N, so every line within chordal eps of
    an image lies in a cyclic window of grid indices around the image's
    angle.  One batched product decides the pairs farther than
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


def chain_oracle(dec, resolution, eps, min_time, pol=None, leg_doublings=11):
    """Mark grid points that admit an (eps, T)-chain back to themselves.

    Builds the chain graph over leg times T * 2^k (k = 0..leg_doublings) and
    marks strongly connected components containing a cycle.  As resolution
    grows and eps shrinks the marked set converges to the chain recurrent
    set fix(h^t) on the tested families.

    On P^1, uniform in angle, a batched product tests each image against
    the window of about N * (4/pi) asin(eps/2) grid lines around its angle;
    on P^2 k-d tree queries match the images to the grid and its negatives.
    So a leg costs O(N * window) products or O(N) queries, taken a bounded
    block of image rows at a time, and the graph O(edges) memory.  An input
    whose estimated edges, min(N^2, legs * candidates per leg), would take
    more than ``CHAIN_PAIR_BUDGET`` bytes is refused before allocating.
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
    if leg_doublings > MAX_LEG_DOUBLINGS:
        raise GridTooLarge(
            f"{leg_doublings} leg doublings; at most {MAX_LEG_DOUBLINGS} are "
            "resolvable in floating point"
        )
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
        if n == 2:
            leg = _window_edges(img, pts, eps, cos_thresh)
        else:
            leg = _leg_edges(img, pts, tree, radius, cos_thresh, block_rows)
        adj = (adj + leg).tocsr()
        del leg  # not alive while the next leg is built
        step = step @ step
        step /= max(np.abs(step).max(), 1e-300)
        t *= 2.0

    # given the bool matrix, connected_components would make a float64 copy
    # with copied index arrays; a float64 view shares the indices
    weights = sp.csr_matrix(
        (np.ones(adj.nnz), adj.indices, adj.indptr), shape=adj.shape, copy=False
    )
    ncomp, labels = connected_components(weights, directed=True, connection="strong")
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
