"""Flows on flag manifolds of R^n: Morse components, Bruhat cells, stability.

A flag is a nested chain of subspaces with fixed dimension signature.  The
hyperbolic Jordan factor induces the finest Morse decomposition, whose
components are indexed by the ways of distributing eigenvalue clusters over
the flag increments (contingency tables = the double cosets of the symmetric
group).  Classification of a flag into a Bruhat cell is a rank computation
against the eigenvalue filtration; no Weyl-group machinery is materialized.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul, sub

import numpy as np

from .errors import IllConditioned, InputError, InvariantViolated, RankAmbiguous
from .matrixcore import (
    DEFAULT_POLICY,
    _as_index,
    _as_tuple,
    as_square_matrix,
    complex_spectrum,
    opnorm,
)
from .projective import (
    RateFiltration,
    _advance,
    _as_decomposition,
    _filtration,
    _trajectory,
    rate_filtration,
)

__all__ = [
    "FlagType",
    "Flag",
    "FlagMorseComponent",
    "FlowClassification",
    "enumerate_morse_components",
    "bruhat_cell",
    "unstable_bruhat_cell",
    "stable_set_index",
    "unstable_set_index",
    "recurrent_membership",
    "chain_recurrent_membership",
    "simulate_flag",
    "classify_flow",
    "flag_recurrent_membership",
    "height_lyapunov",
    "component_defect",
    "nearest_component",
    "simulation_check",
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
        dims = _as_tuple(self.dims, "flag dims")
        dims = tuple(_as_index(d, "flag dimension") for d in dims)
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
        return tuple(map(sub, (*self.dims, n), (0, *self.dims)))

    def manifold_dimension(self, n):
        return sum(a * b for a, b in itertools.combinations(self.increments(n), 2))


def _orthonormalize(b):
    """QR with positive diagonal, of one basis or of a stack of them;
    leading-column spans are preserved, so the nested subspaces of a flag
    survive re-orthonormalization."""
    q, r = np.linalg.qr(b)
    sign = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    sign[sign == 0] = 1.0
    return q * sign[..., None, :]


class Flag:
    """Nested chain of subspaces, stored as one matrix with orthonormal
    columns; subspace i is the span of the first d_i columns."""

    __slots__ = ("basis", "dims", "was_reorthonormalized")

    def __init__(self, basis, dims):
        if not isinstance(dims, FlagType):
            dims = FlagType(dims)
        b = np.array(basis, dtype=float)
        if b.ndim != 2:
            raise InputError("flag basis must be an n x d matrix")
        if not np.all(np.isfinite(b)):
            raise InputError("flag basis has non-finite entries")
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

    def __repr__(self):
        return f"Flag(dims={self.dims.dims}, n={self.n})"


def random_flag(n, dims, rng):
    """Haar-ish random flag: QR of a Gaussian matrix."""
    if not isinstance(dims, FlagType):
        dims = FlagType(dims)
    b = rng.normal(size=(n, dims.dims[-1]))
    return Flag(_orthonormalize(b), dims)


# ---------------------------------------------------------------------------
# Morse components as contingency tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FlagMorseComponent:
    """One Morse component fix(H, w) on the flag manifold.

    ``assignment[i][j]`` counts dimensions of rate cluster j (decreasing
    rates) placed in flag increment i (the residual block is the last row).
    The triple (dim_component, dim_unstable, dim_stable) comes from pair
    counting: a tangent direction pairing a slot of rate a in an earlier
    increment with a slot of rate b in a later one has rate b - a.
    """

    assignment: tuple
    dim_component: int
    dim_unstable: int
    dim_stable: int

    @property
    def n_w(self):
        return self.dim_unstable

    @property
    def is_attractor(self):
        return self.dim_unstable == 0

    @property
    def is_repeller(self):
        return self.dim_stable == 0


def _census(row_sums, col_sums):
    """All nonnegative integer matrices with the given margins, in
    lexicographic order, with their pair counts: four lists (tables,
    component, unstable, stable dimensions).  The columns are clusters in
    strictly decreasing rate order.

    One recursion over rows, memoized on (row index, remaining column sums),
    i.e. on the capacities the rows above have used.  A first row is a point
    of the box prod(range(min(cap, row sum) + 1)) with the right sum, taken
    in ``itertools.product`` order; the caps sum to n, so the box has at most
    2^n points.  After a first row f the remaining column sums ``below`` are
    the slots of each cluster in later increments, so the row adds the exact
    integers c = sum_j f_j below_j (same cluster), u = sum_j f_j F_j with F_j
    the ``below`` slots of the columns before j (the faster clusters), and
    s = row sum * sum(below) - c - u (slower clusters); every tail below one
    state shares its counts.
    """
    last = len(row_sums) - 1
    memo = {}

    def tail(i, rem):
        out = memo.get((i, rem))
        if out is not None:
            return out
        if i == last:
            return [(rem,)], [0], [0], [0]
        total = row_sums[i]
        pairs = total * (sum(rem) - total)
        tables, dims_c, dims_u, dims_s = out = [], [], [], []
        box = itertools.product(*(range(min(c, total) + 1) for c in rem))
        for row in box:
            if sum(row) != total:
                continue
            below = tuple(map(sub, rem, row))
            c = sum(map(mul, row, below))
            u = sum(map(mul, row, accumulate(below, initial=0)))
            s = pairs - c - u
            if i + 1 == last:  # the last row is ``below`` itself
                tables.append((row, below))
                dims_c.append(c)
                dims_u.append(u)
                dims_s.append(s)
                continue
            rest, rest_c, rest_u, rest_s = tail(i + 1, below)
            tables += [(row,) + t for t in rest]
            dims_c += [c + d for d in rest_c]
            dims_u += [u + d for d in rest_u]
            dims_s += [s + d for d in rest_s]
        memo[i, rem] = out
        return out

    return tail(0, tuple(col_sums))


def enumerate_morse_components(filt, dims, pol=None):
    """All Morse components of the flow on the flag manifold of signature dims.

    Complete and duplicate-free: the components are exactly the nonnegative
    integer matrices with row sums = flag increments and column sums =
    cluster multiplicities (the double-coset count for the symmetric group),
    listed in lexicographic order.  One recursion over the rows, memoized on
    the column capacities the earlier rows used, lists the tables and carries
    each row's pair counts (``_census``).  The rates of a filtration strictly
    decrease, so exactly one table has no unstable pair, the attractor
    (largest rates in the earliest increments), and exactly one has no stable
    pair, the repeller.  Rates that do not strictly decrease, and a table
    whose three dimensions miss the manifold dimension, raise
    ``InvariantViolated``.
    """
    pol = pol or DEFAULT_POLICY
    if not isinstance(filt, RateFiltration):
        filt = rate_filtration(filt, pol)
    if not all(a > b for a, b in zip(filt.rates, filt.rates[1:])):
        raise InvariantViolated(f"filtration rates {filt.rates} do not strictly decrease")
    if not isinstance(dims, FlagType):
        dims = FlagType(dims)
    dims.validate_for(filt.n)
    census = _census(dims.increments(filt.n), filt.mults)
    total = dims.manifold_dimension(filt.n)
    if any(c + u + s != total for c, u, s in zip(*census[1:])):
        raise InvariantViolated(
            f"a Morse component's dimensions do not sum to the manifold "
            f"dimension {total}"
        )
    return [FlagMorseComponent(*component) for component in zip(*census)]


# ---------------------------------------------------------------------------
# Bruhat-cell classification by rank counting
# ---------------------------------------------------------------------------

def _rank_tables(bases, dims, filt, pol, reverse):
    """Contingency tables of the cells containing a stack of flag bases
    (K, n, d), with each flag's worst rank margin.

    Coordinates are taken in the rate frame; the rank of the leading
    coordinate rows of each subspace basis counts how much of the subspace
    is visible to the fast (largest-rates) filtration, which is what decides
    the omega-limit.  ``reverse`` classifies against the slow filtration
    instead (alpha-limits, time reversal).  ``ranks[:, i, j]`` is the rank
    of the first j blocks against subspace i, one stacked SVD per (i, j);
    the table is its second difference.
    """
    order = slice(None, None, -1 if reverse else 1)
    mults = filt.mults[order]
    y = np.linalg.solve(np.hstack(filt.blocks[order]), bases)
    scale = np.maximum(1.0, np.linalg.norm(y, 2, axis=(-2, -1)))
    thresh = pol.residual_tol * scale[:, None]
    starts = np.cumsum((0, *mults))
    ranks = np.zeros((len(y), len(dims.dims) + 2, len(mults) + 1), dtype=int)
    ranks[:, -1] = starts
    margins = np.full(len(y), math.inf)
    for i, d in enumerate(dims.dims, start=1):
        for j in range(1, len(mults) + 1):
            sv = np.linalg.svd(y[:, : starts[j], :d], compute_uv=False)
            above = sv > thresh
            ranks[:, i, j] = above.sum(axis=-1)
            ratio = np.where(above, sv / thresh, thresh / np.maximum(sv, 1e-300))
            margins = np.minimum(margins, ratio.min(axis=-1))
    return np.diff(np.diff(ranks, axis=1), axis=2)[:, :, order], margins


def _checked_table(table, margin):
    """One flag's table as nested tuples, refused when a rank decision fell
    within a factor of 5 of its threshold or the pattern is not monotone."""
    if margin < 5.0:
        raise RankAmbiguous(
            "a Bruhat rank decision fell within a factor of 5 of its "
            "singular-value threshold",
            margins={"worst_sigma_over_threshold": margin},
        )
    if (table < 0).any():
        raise IllConditioned(
            "rank pattern is not monotone; flag classification unreliable",
            margins={"worst_sigma_over_threshold": margin},
        )
    return tuple(map(tuple, table.tolist()))


def _cell_assignment(flag, filt, pol, reverse=False):
    """(table, worst rank margin) of the cell containing the flag."""
    tables, margins = _rank_tables(flag.basis[None], flag.dims, filt, pol, reverse)
    return _checked_table(tables[0], margins[0]), margins[0]


def _component_index(table, index):
    """The component a table names, through ``index`` (assignment -> index)."""
    i = index.get(table)
    if i is None:
        raise IllConditioned(f"rank pattern {table} matches no Morse component")
    return i


def _cell_index(flag, dec, dims, pol, components, reverse):
    """Index of the component whose stable (``reverse``: unstable) set
    contains the flag."""
    pol = pol or DEFAULT_POLICY
    filt = dec if isinstance(dec, RateFiltration) else rate_filtration(dec, pol)
    if components is None:
        components = enumerate_morse_components(filt, dims or flag.dims, pol)
    table, _ = _cell_assignment(flag, filt, pol, reverse)
    return _component_index(table, {c.assignment: i for i, c in enumerate(components)})


def _line(p):
    """The line [p] as a flag of signature (1)."""
    return Flag(p.rep[:, None], (1,))


def _line_index(p, dec, pol, reverse):
    """Rate index of the line [p]'s Bruhat cell as a flag of signature (1):
    the one block in the first row of its table."""
    pol = pol or DEFAULT_POLICY
    filt = dec if isinstance(dec, RateFiltration) else rate_filtration(dec, pol)
    table, _ = _cell_assignment(_line(p), filt, pol, reverse)
    return table[0].index(1)


def stable_set_index(p, dec, pol=None):
    """Index of the component whose stable set contains [p]: the fastest
    rate-frame block its representative meets (``RankAmbiguous`` if close)."""
    return _line_index(p, dec, pol, reverse=False)


def unstable_set_index(p, dec, pol=None):
    """Dual of stable_set_index: the slowest block it meets (alpha-limit)."""
    return _line_index(p, dec, pol, reverse=True)


def bruhat_cell(flag, dec, dims=None, pol=None, components=None):
    """Index of the Morse component whose stable set contains the flag."""
    return _cell_index(flag, dec, dims, pol, components, reverse=False)


def unstable_bruhat_cell(flag, dec, dims=None, pol=None, components=None):
    """Index of the component whose unstable set contains the flag."""
    return _cell_index(flag, dec, dims, pol, components, reverse=True)


# ---------------------------------------------------------------------------
# membership, distance, simulation
# ---------------------------------------------------------------------------

def _defects(bases, dims, components, filt):
    """``component_defect`` of each flag of a stack of bases (K, n, d)
    against its component: one solve and one QR for the stack.  The sums stay
    per flag, because batched reductions round differently."""
    yo = _orthonormalize(np.linalg.solve(filt.transform, bases))
    starts = filt.row_starts()
    # the rate frame's block-diagonal model acts on each row by its rate
    rates = filt.row_rates[:, None]
    model_norm = max(1.0, max(abs(r) for r in filt.rates))
    defects = []
    for y, component in zip(yo, components):
        cum = np.cumsum(component.assignment, axis=0)
        worst = 0.0
        for i, d in enumerate(dims.dims):
            cols = y[:, :d]
            for j in range(len(starts) - 1):
                mass = float(np.sum(cols[starts[j] : starts[j + 1], :] ** 2))
                worst = max(worst, abs(mass - cum[i, j]))
            hv = rates * cols
            resid = hv - cols @ (cols.T @ hv)
            worst = max(worst, float(np.linalg.norm(resid)) / model_norm)
        defects.append(worst)
    return defects


def component_defect(flag, component, filt):
    """How far the flag is from the component, as a convergence certificate.

    Combines the coordinate-mass mismatch against the component's cumulative
    cluster counts with the invariance residual of each subspace under the
    rate frame's block-diagonal model; both vanish exactly on the component.
    """
    return _defects(flag.basis[None], flag.dims, [component], filt)[0]


def nearest_component(flag, components, filt):
    """(index, defect) of the component the flag is closest to, scoring all
    of them: the reference that tests check the Bruhat prediction against.
    ``simulation_check`` scores only the predicted component."""
    defects = [component_defect(flag, c, filt) for c in components]
    i = int(np.argmin(defects))
    return i, defects[i]


#: starts ``simulation_check`` advances as one stack, so its memory does not
#: grow with the number of starts
_BLOCK_STARTS = 64


def simulation_check(dec, cls, dims, starts, seed, horizon, pol=None):
    """(forward matches, reverse matches, worst defect) of ``starts`` seeded
    random flags flowed over +-``horizon``.  Each end flag is scored against
    the one component its stable (unstable) Bruhat cell predicts, a match at
    most ``sim_tol``.

    Starts go through in stacks of ``_BLOCK_STARTS``.  Per direction a stack
    has one rank count, one ``_advance`` (one product and one QR per substep,
    one step cache for all starts), one finiteness check of the end flags
    and one batched defect, with the bits of separate trajectories.  Errors
    come in start order, forward first; a leg beyond the substep budget
    raises before any start is scored.
    """
    pol = pol or DEFAULT_POLICY
    filt, comps = cls.filtration, cls.components
    dims = (dims if isinstance(dims, FlagType) else FlagType(dims)).validate_for(filt.n)
    index = {c.assignment: i for i, c in enumerate(comps)}
    rng = np.random.default_rng(seed)
    legs = ((False, horizon, {}), (True, -horizon, {}))
    matches = [0, 0]
    worst = 0.0
    for first in range(0, starts, _BLOCK_STARTS):
        size = min(_BLOCK_STARTS, starts - first)
        b0 = _orthonormalize(rng.normal(size=(size, filt.n, dims.dims[-1])))
        runs = [
            (*_rank_tables(b0, dims, filt, pol, reverse),
             _advance(dec, b0, t, cache, _orthonormalize))
            for reverse, t, cache in legs
        ]
        # the ends are QR output, orthonormal unless the flow overflowed
        finite = [np.isfinite(ends).all(axis=(1, 2)) for *_, ends in runs]
        picked = ([], [])
        for k in range(size):
            for (tables, margins, _), ok, chosen in zip(runs, finite, picked):
                table = _checked_table(tables[k], margins[k])
                chosen.append(comps[_component_index(table, index)])
                if not ok[k]:
                    raise InputError("flag basis has non-finite entries")
        for i, ((*_, ends), chosen) in enumerate(zip(runs, picked)):
            for defect in _defects(ends, dims, chosen, filt):
                worst = max(worst, defect)
                if defect <= pol.sim_tol:
                    matches[i] += 1
    return matches[0], matches[1], worst


def _invariance_residual(m, b):
    """||M B - B B^T M B|| / max(1, ||M||): how far the span of the
    orthonormal columns of B is from being M-invariant."""
    mb = m @ b
    return opnorm(mb - b @ (b.T @ mb)) / max(1.0, opnorm(m))


def _fixed(flag, dec, tol, chain=False):
    """The recurrence rule: is the flag fixed by the hyperbolic Jordan factor
    (H, or h in discrete time) and, unless ``chain``, by the unipotent one?

    Every subspace must be invariant at ``tol`` under the factors, and the
    compression M = B^T Z B of the nilpotent factor Z (N, or u - I) to the
    subspace's orthonormal basis B nilpotent at ``tol``: |tr M^k| <=
    tol * max(1, ||Z||)^k for k = 1..dim.  The invariance residual alone is
    quadratic in the distance to the fixed set near a nilpotent direction (a
    line at angle theta from ker N can have a residual of theta^2); the
    traces are linear in it (tr M ~ theta).
    """
    b = flag.basis
    factors = [dec.H if dec.continuous else dec.h]
    if not chain:
        nil = dec.N if dec.continuous else dec.u - np.eye(flag.n)
        factors.append(nil)
        scale = max(1.0, opnorm(nil))
        m = b.T @ nil @ b
    for d in flag.dims.dims:
        if any(_invariance_residual(z, b[:, :d]) > tol for z in factors):
            return False
        if not chain:
            power = np.eye(d)
            for k in range(1, d + 1):
                power = power @ m[:d, :d]
                if abs(np.trace(power)) > tol * scale**k:
                    return False
    return True


def flag_recurrent_membership(flag, dec, pol=None, tol=None):
    """Is the flag recurrent?  It must be fixed by the hyperbolic and the
    unipotent Jordan factors (``_fixed``)."""
    pol = pol or DEFAULT_POLICY
    tol = pol.residual_tol if tol is None else tol
    return _fixed(flag, _as_decomposition(dec), tol)


def recurrent_membership(p, dec, pol=None, tol=None):
    """Is [p] recurrent?  ``flag_recurrent_membership`` of the line as a flag
    of signature (1): in one eigenspace of the hyperbolic part and, at
    ``tol``, in the kernel of the nilpotent part."""
    return flag_recurrent_membership(_line(p), dec, pol, tol)


def chain_recurrent_membership(p, dec, pol=None, tol=None):
    """Is [p] chain recurrent?  True iff it is fixed by the hyperbolic factor,
    i.e. sits in one of its eigenspaces (the unipotent factor is invisible to
    chains)."""
    pol = pol or DEFAULT_POLICY
    tol = pol.residual_tol if tol is None else tol
    return _fixed(_line(p), _as_decomposition(dec), tol, chain=True)


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
    eigen_rates: tuple
    rate_margin: float
    pair_margin: float
    conformal_margin: float
    filtration: RateFiltration


def classify_flow(dec, dims, pol=None):
    """Full classification of the flow of a Jordan decomposition induced on
    the flag manifold ``dims``.

    h-regular (all rate clusters simple) is equivalent to Morse-Smale and to
    structural stability; conformal means the nilpotent/unipotent Jordan part
    vanishes at tolerance.  ``rate_margin`` is the smallest inter-cluster
    rate gap divided by the clustering threshold: values near 1 mean the
    verdict sits at the discretization boundary.  ``pair_margin`` does the
    same for the pair test: over the clusters with a non-real member, mean
    |Im| against cluster_tol * max(1, |lambda|), larger over smaller (a
    defective eigenvalue split by rounding reads as a pair near 1).
    """
    pol = pol or DEFAULT_POLICY
    filt = rate_filtration(dec, pol)
    if not isinstance(dims, FlagType):
        dims = FlagType(dims)
    dims.validate_for(filt.n)

    h_regular = all(m == 1 for m in filt.mults)
    if dec.continuous:
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
    pair_margin = math.inf
    for c in dec.spectral.clusters:
        w = np.asarray(c.members)
        if w.imag.any():
            im = float(np.mean(np.abs(w.imag)))
            ratio = im / (pol.cluster_tol * max(1.0, abs(complex(np.mean(w.real), im))))
            pair_margin = min(pair_margin, max(ratio, 1.0 / ratio))

    components = enumerate_morse_components(filt, dims, pol)
    if not h_regular and all(c.dim_component == 0 for c in components):
        raise InvariantViolated(
            "a non-regular flow has no positive-dimensional Morse component"
        )

    return FlowClassification(
        h_regular=h_regular,
        conformal=conformal,
        structurally_stable=h_regular,
        components=tuple(components),
        eigen_rates=tuple(filt.row_rates.tolist()),
        rate_margin=float(rate_margin),
        pair_margin=float(pair_margin),
        conformal_margin=float(conformal_margin),
        filtration=filt,
    )


# ---------------------------------------------------------------------------
# height Lyapunov function
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _h_frame(n, data, pol):
    """The rate frame of H, keyed by its bytes and the policy.  One entry:
    a trajectory is scored against one H, so only its first sample factors
    it.  ``complex_spectrum`` is looked up per call (the benchmark tracer
    wraps it), and a refused H raises on every call (exceptions are not
    stored)."""
    h = np.frombuffer(data).reshape(n, n)
    return _filtration(complex_spectrum(h, pol), True, pol)


def height_lyapunov(flag, h_matrix, pol=None):
    """Lyapunov value of a flag for a conformal flow with hyperbolic part H.

    Computed as minus the summed H-height of the flag's subspaces in the
    H-eigenbasis frame (unit weights per level): constant on Morse
    components, strictly decreasing along trajectories off them, minimal on
    the attractor.
    """
    pol = pol or DEFAULT_POLICY
    h = as_square_matrix(h_matrix, "H")
    filt = _h_frame(h.shape[0], h.tobytes(), pol)
    yo = _orthonormalize(np.linalg.solve(filt.transform, flag.basis))
    rates = filt.row_rates[:, None]
    val = 0.0
    for d in flag.dims.dims:
        val += float(np.sum(rates * yo[:, :d] ** 2))
    return -val
