"""Flows on flag manifolds of R^n: Morse components, Bruhat cells, stability.

A flag is a nested chain of subspaces with fixed dimension signature.  The
hyperbolic Jordan factor induces the finest Morse decomposition, whose
components are indexed by the ways of distributing eigenvalue clusters over
the flag increments (contingency tables = the double cosets of the symmetric
group).  Classification of a flag into a Bruhat cell is a rank computation
against the eigenvalue filtration; no Weyl-group machinery is materialized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import IllConditioned, InputError, RankAmbiguous
from .jordan import (
    AdditiveJordan,
    MultiplicativeJordan,
    additive_jordan,
    multiplicative_jordan,
    wedge_basis,
)
from .matrixcore import (
    DEFAULT_POLICY,
    as_square_matrix,
    complex_spectrum,
    opnorm,
)
from .projective import (
    ProjectivePoint,
    _as_decomposition,
    _group_by_rate,
    _invariance_residual,
    _trajectory,
)

__all__ = [
    "FlagType",
    "Flag",
    "RateFiltration",
    "FlagMorseComponent",
    "FlowClassification",
    "rate_filtration",
    "plucker_embed",
    "enumerate_morse_components",
    "component_dimensions",
    "bruhat_cell",
    "unstable_bruhat_cell",
    "simulate_flag",
    "classify_flow",
    "flag_recurrent_membership",
    "height_lyapunov",
    "flag_distance",
    "component_defect",
    "nearest_component",
    "random_flag",
]

#: A flag basis whose Gram matrix is further than this from the identity is
#: re-orthonormalized (and reported as such).
FLAG_INPUT_TOL = 1e-8


@dataclass(frozen=True)
class FlagType:
    """Dimension signature d_1 < d_2 < ... < d_k of a flag manifold.

    The projective space is dims=(1); the full flag is dims=(1,...,n-1).
    An empty signature (the one-point manifold) is rejected: the stability
    theory explicitly excludes it.
    """

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(dims) == 0:
            raise InputError("empty flag signature (trivial manifold) rejected")
        if any(d <= 0 for d in dims) or any(
            b <= a for a, b in zip(dims, dims[1:])
        ):
            raise InputError(f"flag dims must be strictly increasing positive: {dims}")

    def validate_for(self, n):
        if self.dims[-1] >= n:
            raise InputError(
                f"flag dims {self.dims} do not fit in dimension {n} "
                "(largest subspace must be proper)"
            )
        return self

    def increments(self, n):
        """Block sizes delta_i, the residual block included."""
        prev = 0
        out = []
        for d in self.dims:
            out.append(d - prev)
            prev = d
        out.append(n - prev)
        return tuple(out)

    def manifold_dimension(self, n):
        inc = self.increments(n)
        return sum(
            inc[i] * inc[j] for i in range(len(inc)) for j in range(i + 1, len(inc))
        )


def _orthonormalize(b):
    """QR with positive diagonal; leading-column spans are preserved, so the
    nested subspaces of a flag survive re-orthonormalization."""
    q, r = np.linalg.qr(b)
    sign = np.sign(np.diag(r))
    sign[sign == 0] = 1.0
    return q * sign


class Flag:
    """Nested chain of subspaces, stored as one matrix with orthonormal
    columns; subspace i is the span of the first d_i columns."""

    __slots__ = ("basis", "dims", "was_reorthonormalized")

    def __init__(self, basis, dims):
        if not isinstance(dims, FlagType):
            dims = FlagType(tuple(dims))
        b = np.array(basis, dtype=float)
        if b.ndim != 2:
            raise InputError("flag basis must be an n x d matrix")
        n, d = b.shape
        dims.validate_for(n)
        if d != dims.dims[-1]:
            raise InputError(
                f"flag basis has {d} columns; signature {dims.dims} needs "
                f"{dims.dims[-1]}"
            )
        if np.linalg.matrix_rank(b) < d:
            raise InputError("flag basis is rank deficient")
        gram_defect = opnorm(b.T @ b - np.eye(d))
        reorth = gram_defect > FLAG_INPUT_TOL
        if reorth:
            b = _orthonormalize(b)
        self.basis = b
        self.dims = dims
        self.was_reorthonormalized = bool(reorth)

    @property
    def n(self):
        return self.basis.shape[0]

    def subspace(self, i):
        """Orthonormal basis of the i-th subspace (0-based over dims)."""
        return self.basis[:, : self.dims.dims[i]]

    def projector(self, i):
        b = self.subspace(i)
        return b @ b.T

    def canonical_basis(self):
        """Deterministic representative: per level, column-pivoted QR of the
        projector onto the new directions (basis-independent input), columns
        sign-fixed.  Equal flags serialize identically."""
        out = []
        width = 0
        for i, d in enumerate(self.dims.dims):
            p = self.projector(i)
            if out:
                prev = np.hstack(out)
                p = p - prev @ prev.T
            q, _, _ = sla.qr(p, pivoting=True, mode="economic")
            block = q[:, : d - width].copy()
            for c in range(block.shape[1]):
                col = block[:, c]
                nz = np.nonzero(np.abs(col) > 1e-10)[0]
                if nz.size and col[nz[0]] < 0:
                    block[:, c] = -col
            out.append(block)
            width = d
        return np.hstack(out)

    def __repr__(self):
        return f"Flag(dims={self.dims.dims}, n={self.n})"


def flag_distance(f, g):
    """max over levels of the normalized projector gap; equals the sine of
    the largest principal angle for lines."""
    if f.dims.dims != g.dims.dims or f.n != g.n:
        raise InputError("flags of different type are not comparable")
    worst = 0.0
    for i in range(len(f.dims.dims)):
        worst = max(
            worst, float(np.linalg.norm(f.projector(i) - g.projector(i))) / math.sqrt(2)
        )
    return worst


def random_flag(n, dims, rng):
    """Haar-ish random flag: QR of a Gaussian matrix."""
    if not isinstance(dims, FlagType):
        dims = FlagType(tuple(dims))
    b = rng.normal(size=(n, dims.dims[-1]))
    return Flag(_orthonormalize(b), dims)


# ---------------------------------------------------------------------------
# Pluecker embedding
# ---------------------------------------------------------------------------

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
    combos = wedge_basis(n, p)
    idx = np.array(combos)
    coords = np.linalg.det(b[idx, :])
    return ProjectivePoint(coords)


# ---------------------------------------------------------------------------
# rate filtration shared by enumeration and classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFiltration:
    """Eigenvalue clusters of the hyperbolic part grouped by rate, decreasing.

    ``transform`` stacks (generally oblique) cluster bases in rate order;
    coordinates in this frame make the fast filtration a coordinate
    filtration, which turns Bruhat-cell membership into rank counting.
    """

    rates: tuple
    mults: tuple
    blocks: tuple
    transform: np.ndarray
    continuous: bool

    @property
    def n(self):
        return self.transform.shape[0]

    @property
    def row_rates(self):
        """The rate of each row of the frame: the block-diagonal model."""
        return np.repeat(self.rates, self.mults)

    def row_starts(self):
        return np.cumsum((0, *self.mults)).tolist()


def _filtration(spectral, continuous, pol):
    """The rate frame of a clustered spectrum: the one place where clusters
    are grouped by rate and their bases stacked in rate order."""
    rates, mults, blocks = [], [], []
    for rate, clusters in _group_by_rate(spectral, continuous, pol):
        rates.append(rate)
        mults.append(sum(c.multiplicity for c in clusters))
        blocks.append(np.hstack([c.basis for c in clusters]))
    return RateFiltration(
        rates=tuple(rates),
        mults=tuple(mults),
        blocks=tuple(blocks),
        transform=np.hstack(blocks),
        continuous=continuous,
    )


def rate_filtration(dec, pol=None):
    dec = _as_decomposition(dec)
    return _filtration(dec.spectral, dec.continuous, pol or DEFAULT_POLICY)


# ---------------------------------------------------------------------------
# Morse components as contingency tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlagMorseComponent:
    """One Morse component fix(H, w) on the flag manifold.

    ``assignment[i][j]`` counts dimensions of rate cluster j (decreasing
    rates) placed in flag increment i (the residual block is the last row).
    The triple (dim_component, dim_unstable, dim_stable) comes from pair
    counting: a tangent direction pairing a slot of rate a in an earlier
    increment with a slot of rate b in a later one has rate b - a.
    """

    assignment: tuple
    rates: tuple
    increments: tuple
    dim_component: int
    dim_unstable: int
    dim_stable: int
    is_attractor: bool
    is_repeller: bool

    @property
    def n_w(self):
        return self.dim_unstable


def _tables(row_sums, col_sums):
    """All nonnegative integer matrices with the given margins, in
    lexicographic order.  A first row is a point of the box
    prod(range(min(cap, row sum) + 1)) with the right sum; the caps sum to
    n, so the box has at most 2^n points."""
    if len(row_sums) == 1:
        yield (tuple(col_sums),)
        return
    total = row_sums[0]
    box = itertools.product(*(range(min(c, total) + 1) for c in col_sums))
    for first_row in box:
        if sum(first_row) != total:
            continue
        remaining = [c - f for c, f in zip(col_sums, first_row)]
        for rest in _tables(row_sums[1:], remaining):
            yield (first_row,) + rest


def _pair_counts(tables, rates):
    """(component, unstable, stable) dimensions of K tables at once, as three
    int64 arrays of length K.

    ``below[k, i, j]`` counts the slots of cluster j in increments after i;
    a pair (i, ja) x (later, jb) lies in the component when ja == jb, is
    unstable when rates[jb] > rates[ja], and stable otherwise (ties
    included).  Integer arithmetic throughout, so the counts are exact.
    """
    a = np.array(tables, dtype=np.int64)
    below = a[:, ::-1].cumsum(axis=1)[:, ::-1] - a
    r = np.asarray(rates, dtype=float)
    faster = (r[None, :] > r[:, None]).astype(np.int64)
    dim_c = (a * below).sum(axis=(1, 2))
    dim_u = ((a @ faster) * below).sum(axis=(1, 2))
    pairs = (a.sum(axis=2) * below.sum(axis=2)).sum(axis=1)
    return dim_c, dim_u, pairs - dim_c - dim_u


def component_dimensions(assignment, rates):
    """(component, unstable, stable) dimensions by pair counting."""
    return tuple(int(d[0]) for d in _pair_counts([assignment], rates))


def enumerate_morse_components(filt, dims, pol=None):
    """All Morse components of the flow on the flag manifold of signature dims.

    Complete and duplicate-free: the components are exactly the nonnegative
    integer matrices with row sums = flag increments and column sums =
    cluster multiplicities (the double-coset count for the symmetric group).
    The rates of a filtration are distinct, so exactly one table has no
    unstable pair, the attractor (largest rates in the earliest increments),
    and exactly one has no stable pair, the repeller.
    """
    pol = pol or DEFAULT_POLICY
    if not isinstance(filt, RateFiltration):
        filt = rate_filtration(filt, pol)
    if not isinstance(dims, FlagType):
        dims = FlagType(tuple(dims))
    dims.validate_for(filt.n)
    increments = dims.increments(filt.n)
    tables = list(_tables(list(increments), list(filt.mults)))
    dims_c, dims_u, dims_s = (d.tolist() for d in _pair_counts(tables, filt.rates))
    comps = [
        FlagMorseComponent(
            assignment=table,
            rates=filt.rates,
            increments=increments,
            dim_component=dim_c,
            dim_unstable=dim_u,
            dim_stable=dim_s,
            is_attractor=(dim_u == 0),
            is_repeller=(dim_s == 0),
        )
        for table, dim_c, dim_u, dim_s in zip(tables, dims_c, dims_u, dims_s)
    ]
    total = dims.manifold_dimension(filt.n)
    assert all(
        c.dim_component + c.dim_unstable + c.dim_stable == total for c in comps
    )
    return comps


# ---------------------------------------------------------------------------
# Bruhat-cell classification by rank counting
# ---------------------------------------------------------------------------

def _rank_with_margin(mat, tol_scale, pol):
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


def _cell_assignment(flag, filt, pol, reverse=False):
    """Contingency table of the cell containing the flag.

    Coordinates are taken in the rate frame; the rank of the leading
    coordinate rows of each subspace basis counts how much of the subspace
    is visible to the fast (largest-rates) filtration, which is what decides
    the omega-limit.  ``reverse`` classifies against the slow filtration
    instead (alpha-limits, time reversal).  ``ranks[i, j]`` is the rank of
    the first j blocks against subspace i; the table is its second
    difference.
    """
    order = slice(None, None, -1 if reverse else 1)
    mults = filt.mults[order]
    y = np.linalg.solve(np.hstack(filt.blocks[order]), flag.basis)
    scale = max(1.0, opnorm(y))
    starts = np.cumsum((0, *mults))
    ranks = np.zeros((len(flag.dims.dims) + 2, len(mults) + 1), dtype=int)
    ranks[-1] = starts
    worst_margin = math.inf
    for i, d in enumerate(flag.dims.dims, start=1):
        for j in range(1, len(mults) + 1):
            ranks[i, j], margin = _rank_with_margin(y[: starts[j], :d], scale, pol)
            worst_margin = min(worst_margin, margin)
    if worst_margin < 5.0:
        raise RankAmbiguous(
            "a Bruhat rank decision fell within a factor of 5 of its "
            "singular-value threshold",
            margins={"worst_sigma_over_threshold": worst_margin},
        )
    table = np.diff(np.diff(ranks, axis=0), axis=1)[:, order]
    if (table < 0).any():
        raise IllConditioned(
            "rank pattern is not monotone; flag classification unreliable",
            margins={"worst_sigma_over_threshold": worst_margin},
        )
    return tuple(map(tuple, table.tolist())), worst_margin


def _cell_index(flag, dec, dims, pol, components, reverse):
    """Index of the component whose stable (``reverse``: unstable) set
    contains the flag."""
    pol = pol or DEFAULT_POLICY
    filt = dec if isinstance(dec, RateFiltration) else rate_filtration(dec, pol)
    if components is None:
        components = enumerate_morse_components(filt, dims or flag.dims, pol)
    table, _ = _cell_assignment(flag, filt, pol, reverse)
    for i, c in enumerate(components):
        if c.assignment == table:
            return i
    raise IllConditioned(f"rank pattern {table} matches no Morse component")


def bruhat_cell(flag, dec, dims=None, pol=None, components=None):
    """Index of the Morse component whose stable set contains the flag."""
    return _cell_index(flag, dec, dims, pol, components, reverse=False)


def unstable_bruhat_cell(flag, dec, dims=None, pol=None, components=None):
    """Index of the component whose unstable set contains the flag."""
    return _cell_index(flag, dec, dims, pol, components, reverse=True)


# ---------------------------------------------------------------------------
# membership, distance, simulation
# ---------------------------------------------------------------------------

def component_defect(flag, component, filt):
    """How far the flag is from the component, as a convergence certificate.

    Combines the coordinate-mass mismatch against the component's cumulative
    cluster counts with the invariance residual of each subspace under the
    rate frame's block-diagonal model; both vanish exactly on the component.
    """
    q = filt.transform
    y = np.linalg.solve(q, flag.basis)
    yo = _orthonormalize(y)
    starts = filt.row_starts()
    k = len(filt.mults)
    cum = np.cumsum(component.assignment, axis=0)
    worst = 0.0
    # the rate frame's block-diagonal model acts on each row by its rate
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


def nearest_component(flag, components, filt):
    """(index, defect) of the component the flag is closest to, scoring all
    of them: the reference that tests check the Bruhat prediction against.
    The CLI scores only the predicted component, with ``component_defect``."""
    defects = [component_defect(flag, c, filt) for c in components]
    i = int(np.argmin(defects))
    return i, defects[i]


def flag_recurrent_membership(flag, dec, pol=None, tol=None):
    """Is the flag recurrent?  Each subspace must be invariant under both the
    hyperbolic and the unipotent Jordan factors."""
    pol = pol or DEFAULT_POLICY
    dec = _as_decomposition(dec)
    tol = pol.residual_tol if tol is None else tol
    mats = [dec.H, dec.N] if dec.continuous else [dec.h, dec.u]
    return all(
        _invariance_residual(m, flag.subspace(i)) <= tol
        for i in range(len(flag.dims.dims))
        for m in mats
    )


def simulate_flag(dec, flag, t_grid):
    """Flag trajectory under the flow; QR re-orthonormalization (between the
    internal substeps too) keeps the nested spans exact, the basis bounded,
    and subdominant directions resolvable."""
    dec = _as_decomposition(dec)
    traj = _trajectory(dec, flag.basis.copy(), t_grid, _orthonormalize)
    return [Flag(b, flag.dims) for b in traj]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowClassification:
    """Structural verdicts for the induced flow on one flag manifold, with
    the rate filtration they were read from."""

    h_regular: bool
    conformal: bool
    structurally_stable: bool
    components: tuple
    attractor_index: int
    repeller_index: int
    eigen_rates: tuple
    rate_margin: float
    conformal_margin: float
    filtration: RateFiltration


def classify_flow(mat_or_dec, dims, pol=None, time="continuous"):
    """Full classification of the flow induced on the flag manifold ``dims``.

    h-regular (all rate clusters simple) is equivalent to Morse-Smale and to
    structural stability; conformal means the nilpotent/unipotent Jordan part
    vanishes at tolerance.  ``rate_margin`` is the smallest inter-cluster
    rate gap divided by the clustering threshold: values near 1 mean the
    verdict sits at the discretization boundary.
    """
    pol = pol or DEFAULT_POLICY
    if isinstance(mat_or_dec, (AdditiveJordan, MultiplicativeJordan)):
        dec = mat_or_dec
    elif time == "continuous":
        dec = additive_jordan(as_square_matrix(mat_or_dec, "X"), pol)
    else:
        dec = multiplicative_jordan(as_square_matrix(mat_or_dec, "g"), pol)

    filt = rate_filtration(dec, pol)
    if not isinstance(dims, FlagType):
        dims = FlagType(tuple(dims))
    dims.validate_for(filt.n)

    h_regular = all(m == 1 for m in filt.mults)
    if isinstance(dec, AdditiveJordan):
        nil_norm = opnorm(dec.N)
        scale = max(1.0, opnorm(dec.X))
    else:
        nil_norm = opnorm(dec.u - np.eye(filt.n))
        scale = max(1.0, opnorm(dec.g))
    conformal = nil_norm <= pol.residual_tol * scale * 100
    conformal_margin = nil_norm / (pol.residual_tol * scale * 100)

    rate_margin = math.inf
    for r1, r2 in zip(filt.rates, filt.rates[1:]):
        gap = abs(r1 - r2) / (pol.cluster_tol * max(1.0, abs(r1), abs(r2)))
        rate_margin = min(rate_margin, gap)

    components = enumerate_morse_components(filt, dims, pol)
    attractor = next(i for i, c in enumerate(components) if c.is_attractor)
    repeller = next(i for i, c in enumerate(components) if c.is_repeller)
    if not h_regular:
        # non-regular flows must have a positive-dimensional component
        assert any(c.dim_component > 0 for c in components)

    return FlowClassification(
        h_regular=h_regular,
        conformal=conformal,
        structurally_stable=h_regular,
        components=tuple(components),
        attractor_index=attractor,
        repeller_index=repeller,
        eigen_rates=tuple(filt.row_rates.tolist()),
        rate_margin=float(rate_margin),
        conformal_margin=float(conformal_margin),
        filtration=filt,
    )


# ---------------------------------------------------------------------------
# height Lyapunov function
# ---------------------------------------------------------------------------

def height_lyapunov(flag, h_matrix, pol=None):
    """Lyapunov value of a flag for a conformal flow with hyperbolic part H.

    Computed as minus the summed H-height of the flag's subspaces in the
    H-eigenbasis frame (unit weights per level): constant on Morse
    components, strictly decreasing along trajectories off them, minimal on
    the attractor.
    """
    pol = pol or DEFAULT_POLICY
    h_matrix = as_square_matrix(h_matrix, "H")
    filt = _filtration(complex_spectrum(h_matrix, pol), True, pol)
    yo = _orthonormalize(np.linalg.solve(filt.transform, flag.basis))
    rates = filt.row_rates[:, None]
    val = 0.0
    for d in flag.dims.dims:
        val += float(np.sum(rates * yo[:, :d] ** 2))
    return -val
