"""Dense real linear-algebra primitives with an explicit tolerance policy.

Everything downstream (Jordan decompositions, Morse components, Floquet
generators) is built on the clustered spectral data computed here.  Eigenvalue
clustering is *relative*: two eigenvalues merge when their distance is below
``cluster_tol * max(1, |lambda|)``.  The cluster tolerance is a user-visible
knob because all constructions in this library are discontinuous at
eigenvalue coincidence.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import (
    BranchObstruction,
    IllConditioned,
    InputError,
    NonConvergence,
    NotNilpotent,
    Overflow,
    Singular,
)

__all__ = [
    "TolerancePolicy",
    "SpectralCluster",
    "SpectralData",
    "complex_spectrum",
    "matrix_exp",
    "principal_log",
    "unipotent_log",
    "nilpotency_index",
    "opnorm",
    "as_square_matrix",
]

#: Largest matrix dimension accepted by the spectral entry points.  The
#: full-flag census has up to n! components; desk scale is all we support.
MAX_DIM = 12

#: exp() budget: beyond this 2-norm the scaled-and-squared exponential is at
#: the edge of double range, so we refuse instead of returning inf.
EXP_NORM_BUDGET = 700.0


@dataclass(frozen=True)
class TolerancePolicy:
    """The three tolerances that parameterize every numerical decision.

    cluster_tol   relative eigenvalue-grouping gap
    residual_tol  matrix-identity residuals (projection idempotency, etc.)
    sim_tol       simulation convergence / prediction matching
    """

    cluster_tol: float = 1e-8
    residual_tol: float = 1e-9
    sim_tol: float = 1e-6

    def __post_init__(self):
        eps = np.finfo(float).eps
        tols = (self.cluster_tol, self.residual_tol, self.sim_tol)
        if not all(0 < t < np.inf for t in tols):
            raise InputError("all tolerances must be strictly positive and finite")
        if self.cluster_tol < 100 * eps:
            raise InputError("cluster_tol below 100*machine-epsilon is not resolvable")
        if self.sim_tol >= 0.5:
            raise InputError(
                "sim_tol must lie below 0.5: on every Morse component a flag's "
                "coordinate masses are integers, so 0.5 cannot tell them apart"
            )


DEFAULT_POLICY = TolerancePolicy()


def opnorm(a):
    """Spectral (2-) norm."""
    return float(np.linalg.norm(np.asarray(a, dtype=float), 2))


def as_square_matrix(a, name="matrix", max_dim=None):
    """Validate and copy a square real matrix with finite entries."""
    m = np.array(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} has non-finite entries")
    if max_dim is not None and not (2 <= m.shape[0] <= max_dim):
        raise InputError(
            f"{name} has dimension {m.shape[0]}; supported range is 2..{max_dim}"
        )
    return m


def _as_tuple(values, name):
    """``tuple(values)``; ``InputError`` if ``values`` is not a sequence."""
    try:
        return tuple(values)
    except TypeError:
        raise InputError(f"{name} must be a sequence, got {values!r}") from None


def _as_index(value, name):
    """``operator.index(value)``, so numpy integers pass; ``InputError`` for
    a bool or a non-integer such as 1.5."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SpectralCluster:
    """One eigenvalue cluster of a real matrix.

    ``eigenvalue`` is the cluster representative (mean of the members; for a
    conjugate pair the member with nonnegative imaginary part).
    ``multiplicity`` counts conjugate pairs with both members, so the
    multiplicities of all clusters sum to n.  ``projection`` is the real
    generalized eigenprojection onto the cluster's invariant subspace,
    factored as ``projection = basis @ left`` with ``basis`` orthonormal
    (n x m) and ``left @ basis = I``.  ``block`` is the restriction of the
    source matrix to the invariant subspace in the ``basis`` frame.
    """

    eigenvalue: complex
    multiplicity: int
    projection: np.ndarray
    is_pair: bool
    members: tuple
    basis: np.ndarray = field(repr=False)
    left: np.ndarray = field(repr=False)
    block: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SpectralData:
    """Clustered spectrum of a real matrix with generalized eigenprojections
    and the residual certificate ``complex_spectrum`` accepted them on."""

    matrix: np.ndarray
    clusters: tuple
    cluster_tol: float
    residuals: dict

    @property
    def n(self):
        return self.matrix.shape[0]


def _cluster_eigenvalues(w, cluster_tol):
    """One cluster label per eigenvalue, clusters numbered by first member.

    Two eigenvalues are close when either one (or the conjugate of one) is
    within cluster_tol * max(1, |.|) of the other; the clusters are the
    classes of the transitive closure of closeness, so a chain a ~ b ~ c is
    one cluster even when |a - c| exceeds the gap.  Folding the conjugate
    into the rule closes every cluster of a real matrix under conjugation.
    """
    # moduli by libm's hypot, as abs() of one eigenvalue takes them; the
    # SIMD loop behind np.abs of a complex array may round differently
    mod = np.hypot(w.real, w.imag)
    gap = cluster_tol * np.maximum(1.0, np.maximum.outer(mod, mod))
    diff = np.stack([w[:, None] - w, np.conj(w)[:, None] - w])
    reach = (np.hypot(diff.real, diff.imag) < gap).any(axis=0)
    # reach is reflexive, so k squarings join every path of up to 2^k steps
    for _ in range(len(w).bit_length()):
        reach = (reach.astype(np.int64) @ reach) > 0
    return np.unique(reach.argmax(axis=1), return_inverse=True)[1]


def complex_spectrum(a, pol=None):
    """Clustered complex spectrum of a real matrix with real eigenprojections.

    Projections are computed cluster by cluster from one real Schur form:
    ``dtrsen`` reorders it so the cluster's invariant subspace comes first
    (the same swaps an ordered ``schur`` runs), a Sylvester solve
    block-diagonalizes, and the projector follows without any contour
    integration.

    Raises NonConvergence if the QR iteration or a reordering fails and
    IllConditioned if the computed projections violate their invariants at
    residual_tol scale (two clusters too entangled to separate).
    """
    pol = pol or DEFAULT_POLICY
    a = as_square_matrix(a, "A", max_dim=MAX_DIM)
    n = a.shape[0]
    scale = max(1.0, opnorm(a))

    try:
        w = np.linalg.eigvals(a)
        t0, z0 = sla.schur(a, output="real")
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"eigenvalue iteration failed: {exc}") from exc

    label = _cluster_eigenvalues(w, pol.cluster_tol)

    def group_of(wr, wi):
        # the cluster of the computed eigenvalue nearest to each Schur eigenvalue
        return label[np.argmin(np.abs(w - (wr + 1j * wi)[:, None]), axis=1)]

    # T's eigenvalues as LAPACK reads them (an empty selection swaps nothing)
    wr0, wi0 = sla.lapack.dtrsen(np.zeros(n, int), t0, z0, job="N")[2:4]
    diagonal_groups = group_of(wr0, wi0)

    # Canonical representative: mean of (Re, |Im|) over the members; a cluster
    # is a conjugate pair when the representative keeps a genuine imaginary
    # part at clustering scale.
    reps = []
    for gi in range(label.max() + 1):
        members = w[label == gi]
        re = float(np.mean(members.real))
        im = float(np.mean(np.abs(members.imag)))
        is_pair = im > pol.cluster_tol * max(1.0, abs(complex(re, im)))
        reps.append((complex(re, im if is_pair else 0.0), is_pair, gi, members))
    # deterministic order: decreasing real part, then increasing |Im|
    reps.sort(key=lambda rep: (-rep[0].real, rep[0].imag))

    clusters = []
    for lam, is_pair, gi, members in reps:
        m = len(members)
        t, z, wr, wi, *_, info = sla.lapack.dtrsen(
            (diagonal_groups == gi).astype(int), t0, z0, job="N"
        )
        # recount as dgees does: a conjugate pair (wi > 0 at its first
        # member) is selected when either member is, and selected ones lead
        sel = group_of(wr, wi) == gi
        pairs = np.flatnonzero(wi > 0)
        sel[pairs] = sel[pairs + 1] = sel[pairs] | sel[pairs + 1]
        if info != 0 or np.any(sel[1:] > sel[:-1]):
            raise NonConvergence(f"Schur reordering failed for the cluster near {lam}")
        sdim = int(sel.sum())
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
            # block-diagonalize: T11 Y - Y T22 = -T12
            y = sla.solve_sylvester(t11, -t[m:, m:], -t[:m, m:])
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

    # the certificate: the largest 2-norm in each family of matrices, all
    # from one batched SVD (per matrix, the LAPACK call opnorm makes)
    projs = np.array([c.projection for c in clusters])
    first, second = np.triu_indices(len(projs), 1)
    families = {
        "sum": (sum(projs) - np.eye(n))[None],
        "idempotent": projs @ projs - projs,
        "commute": a @ projs - projs @ a,
        "disjoint": projs[first] @ projs[second],
        "projection_norm": projs,
    }
    norms = np.linalg.norm(np.concatenate(list(families.values())), 2, axis=(1, 2))
    parts = np.split(norms, np.cumsum([len(f) for f in families.values()])[:-1])
    res = {key: float(part.max(initial=0.0)) for key, part in zip(families, parts)}
    pnorm = res.pop("projection_norm")
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


def matrix_exp(a):
    """Matrix exponential (scaling-and-squaring Pade, via scipy).

    Refuses inputs beyond the double-precision exponential budget instead of
    silently returning inf.  Large-norm matrices are admitted as long as
    their spectrum keeps the result finite (nilpotent directions only grow
    polynomially).
    """
    a = as_square_matrix(a, "A")
    if opnorm(a) > EXP_NORM_BUDGET:
        w = np.linalg.eigvals(a)
        if np.max(w.real) > EXP_NORM_BUDGET:
            raise Overflow(
                f"spectral abscissa {np.max(w.real):.3e} exceeds the exp "
                f"budget {EXP_NORM_BUDGET}"
            )
    out = sla.expm(a)
    if not np.all(np.isfinite(out)):
        raise Overflow("exponential overflowed double precision")
    return out


def unipotent_log(u, pol=None):
    """Terminating log series for a unipotent matrix: log(I+T) = T - T^2/2 + ...

    Exact up to rounding; raises NotNilpotent when u - I is not nilpotent.
    """
    pol = pol or DEFAULT_POLICY
    u = as_square_matrix(u, "u")
    n = u.shape[0]
    t = u - np.eye(n)
    k = nilpotency_index(t, pol)  # raises NotNilpotent
    out = np.zeros_like(t)
    power = np.eye(n)
    for j in range(1, k + 1):
        power = power @ t
        out += ((-1) ** (j + 1)) * power / j
    return out


def principal_log(a, pol=None):
    """Real principal matrix logarithm.

    Defined when no eigenvalue lies on the closed negative real axis, or when
    the matrix is unipotent (the log series terminates).  Raises
    BranchObstruction when an eigenvalue sits on R_{<=0}: the Floquet layer
    reacts by doubling its monodromy power m.
    """
    pol = pol or DEFAULT_POLICY
    a = as_square_matrix(a, "A")
    n = a.shape[0]
    scale = max(1.0, opnorm(a))

    try:
        return unipotent_log(a, pol)
    except NotNilpotent:
        pass

    w = np.linalg.eigvals(a)
    for lam in w:
        if abs(lam) <= pol.residual_tol * scale:
            raise Singular(f"eigenvalue {lam} at zero; no logarithm")
        on_axis = abs(lam.imag) <= pol.cluster_tol * max(1.0, abs(lam))
        if on_axis and lam.real < 0:
            raise BranchObstruction(
                f"eigenvalue {lam} on the negative real axis; "
                "no principal real logarithm"
            )

    out = sla.logm(a)
    if np.iscomplexobj(out):
        if np.max(np.abs(out.imag)) > pol.residual_tol * scale * 100:
            raise BranchObstruction(
                "matrix logarithm came out complex; spectrum too close to the "
                "negative real axis"
            )
        out = out.real
    # contract check: exp(log A) = A
    riff = opnorm(matrix_exp(out) - a)
    if riff > pol.residual_tol * scale * n * 100:
        raise IllConditioned(
            f"log/exp round trip residual {riff:.3e} exceeds tolerance",
            margins={"roundtrip": riff},
        )
    return out


def nilpotency_index(a, pol=None):
    """Smallest k <= n-1 with A^(k+1) ~ 0, at residual_tol scale.

    The threshold for "zero" at power k+1 is residual_tol * max(1, |A|)^(k+1)
    so that large-norm nilpotents are still recognized.
    """
    pol = pol or DEFAULT_POLICY
    a = as_square_matrix(a, "A")
    n = a.shape[0]
    base = max(1.0, opnorm(a))
    power = a.copy()
    for k in range(n):
        if opnorm(power) <= pol.residual_tol * base ** (k + 1):
            return k
        power = power @ a
    raise NotNilpotent(
        f"A^{n} has norm {opnorm(power):.3e}; not nilpotent at tolerance "
        f"{pol.residual_tol}"
    )
