"""Additive and multiplicative Jordan decompositions with certified invariants.

The semisimple part is assembled cluster by cluster from the spectral data:
on each invariant subspace the semisimple action is the Hermite interpolant
of the locally-constant eigenvalue map, which reduces to ``lambda * I`` for a
real cluster and to ``alpha*I + beta*J`` (J a complex structure) for a
conjugate pair.  Sharing the clustering tolerance with the Morse-component
machinery keeps "equal eigenvalues" a single user-visible knob.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLarge,
    IllConditioned,
    InputError,
    NotElliptic,
    Overflow,
    Singular,
)
from .matrixcore import (
    DEFAULT_POLICY,
    EXP_NORM_BUDGET,
    SpectralData,
    as_square_matrix,
    complex_spectrum,
    matrix_exp,
    nilpotency_index,
    opnorm,
    unipotent_log,
)

__all__ = [
    "AdditiveJordan",
    "MultiplicativeJordan",
    "InvariantMetric",
    "sn_decompose",
    "additive_jordan",
    "multiplicative_jordan",
    "flow_at",
    "invariant_metric",
    "wedge_representation",
    "wedge_infinitesimal",
    "wedge_basis",
]

#: Hard cap on wedge-space dimension C(n, p).
WEDGE_DIM_CAP = 1000


# ---------------------------------------------------------------------------
# semisimple part, cluster by cluster
# ---------------------------------------------------------------------------

def _pair_semisimple_poly(beta, m):
    """Coefficients (ascending, real) of the odd polynomial q with
    q == i*beta mod (t - i*beta)^m and q == -i*beta mod (t + i*beta)^m.

    q(T) is the semisimple part of a real block T whose spectrum is the
    single conjugate pair {+-i*beta} with multiplicity m, after centering.
    """
    size = 2 * m
    rows = []
    rhs = []
    for node, value in ((1j * beta, 1j * beta), (-1j * beta, -1j * beta)):
        for j in range(m):
            row = np.zeros(size, dtype=complex)
            for k in range(j, size):
                row[k] = math.factorial(k) / math.factorial(k - j) * node ** (k - j)
            rows.append(row)
            rhs.append(value if j == 0 else 0.0)
    coeffs = np.linalg.solve(np.array(rows), np.array(rhs))
    if np.max(np.abs(coeffs.imag)) > 1e-8 * max(1.0, np.max(np.abs(coeffs))):
        raise IllConditioned(
            "Hermite coefficients for a conjugate-pair cluster came out "
            "complex; the pair is too close to the real axis for its "
            "multiplicity"
        )
    return coeffs.real


def _cluster_semisimple_block(cluster):
    """Semisimple part of the cluster's restriction, in the cluster frame."""
    t11 = cluster.block
    k = t11.shape[0]
    lam = cluster.eigenvalue
    if not cluster.is_pair:
        return lam.real * np.eye(k)
    m = cluster.multiplicity // 2
    alpha, beta = lam.real, lam.imag
    shifted = t11 - alpha * np.eye(k)
    coeffs = _pair_semisimple_poly(beta, m)
    # Horner
    q = np.zeros((k, k))
    for c in reversed(coeffs):
        q = q @ shifted + c * np.eye(k)
    return alpha * np.eye(k) + q


def _assemble(data, block_fn):
    """Sum of basis @ block_fn(cluster) @ left over all clusters."""
    n = data.n
    out = np.zeros((n, n))
    for c in data.clusters:
        out += c.basis @ block_fn(c) @ c.left
    return out


def semisimple_part(data):
    """The semisimple factor S of the clustered matrix (A = S + nilpotent)."""
    return _assemble(data, _cluster_semisimple_block)


def sn_decompose(a, pol=None):
    """Split A = S + N with S semisimple, N nilpotent, [S, N] = 0."""
    pol = pol or DEFAULT_POLICY
    data = a if isinstance(a, SpectralData) else complex_spectrum(a, pol)
    s = semisimple_part(data)
    n = data.matrix - s
    _check_sn(data.matrix, s, n, pol)
    return s, n


def _check_sn(a, s, n, pol):
    scale = max(1.0, opnorm(a))
    comm = opnorm(s @ n - n @ s)
    if comm > pol.residual_tol * scale * scale * 100:
        raise IllConditioned(
            f"[S, N] residual {comm:.3e}; cluster structure unreliable",
            margins={"commutator": comm},
        )
    nilpotency_index(n, pol)  # raises NotNilpotent on genuine failure


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdditiveJordan:
    """X = E + H + N: commuting elliptic + hyperbolic + nilpotent parts, and
    the residual certificate ``additive_jordan`` accepted them on."""

    X: np.ndarray
    E: np.ndarray
    H: np.ndarray
    N: np.ndarray
    spectral: SpectralData
    policy: object
    residuals: dict

    continuous = True


@dataclass(frozen=True)
class MultiplicativeJordan:
    """g = e h u: commuting elliptic * hyperbolic * unipotent factors.

    ``logH`` satisfies exp(logH) = h and shares h's eigenprojections, so
    integer and real powers of h are exp(t * logH).  ``residuals`` is the
    certificate ``multiplicative_jordan`` accepted the factors on.
    """

    g: np.ndarray
    e: np.ndarray
    h: np.ndarray
    u: np.ndarray
    logH: np.ndarray
    spectral: SpectralData
    policy: object
    residuals: dict

    continuous = False

    def log_u(self):
        return unipotent_log(self.u, self.policy)

    def log_e_power(self, m):
        """Principal real log of e^m, cluster by cluster: a real cluster
        gives 0; on a pair r*exp(i*theta), e = cos(theta) I + sin(theta) J
        with J^2 = -I, so log(e^m) = remainder(m*theta, 2 pi) J.  Only
        principal when e^m has no eigenvalue -1 (floquet_generator skips
        such m)."""

        def block(c):
            lam = c.eigenvalue
            k = c.block.shape[0]
            if not c.is_pair:
                return np.zeros((k, k))
            j = (_cluster_semisimple_block(c) - lam.real * np.eye(k)) / lam.imag
            theta = math.atan2(lam.imag, lam.real)
            return math.remainder(m * theta, 2.0 * math.pi) * j

        return _assemble(self.spectral, block)


@dataclass(frozen=True)
class InvariantMetric:
    """Symmetric positive-definite gram matrix M with e^T M e = M."""

    gram: np.ndarray

    def norm(self, v):
        v = np.asarray(v, dtype=float)
        return float(np.sqrt(v @ self.gram @ v))


def _check_jordan_residuals(res, scale, n, pol):
    worst = max(res.values())
    if worst > pol.residual_tol * scale * scale * n * 100:
        raise IllConditioned(
            f"Jordan invariants violated (worst residual {worst:.3e})",
            margins=res,
        )


def additive_jordan(x, pol=None):
    """Additive Jordan decomposition of a (traceless) real matrix.

    H collects the real parts of the eigenvalue clusters, E = S - H is the
    remaining semisimple imaginary part, N = X - S the nilpotent part.
    """
    pol = pol or DEFAULT_POLICY
    x = as_square_matrix(x, "X")
    n = x.shape[0]
    scale = max(1.0, opnorm(x))
    if abs(np.trace(x)) > pol.residual_tol * n * scale * 10:
        raise InputError(
            f"trace {np.trace(x):.3e} is not zero at tolerance; not an "
            "sl-matrix (trace-zero required for flows on flag manifolds)"
        )
    data = complex_spectrum(x, pol)
    s = semisimple_part(data)
    h = _assemble(data, lambda c: c.eigenvalue.real * np.eye(c.block.shape[0]))
    e = s - h
    nil = x - s
    _check_sn(x, s, nil, pol)
    res = {
        "sum": opnorm(x - (e + h + nil)),
        "commute_EH": opnorm(e @ h - h @ e),
        "commute_EN": opnorm(e @ nil - nil @ e),
        "commute_HN": opnorm(h @ nil - nil @ h),
    }
    _check_jordan_residuals(res, scale, n, pol)
    return AdditiveJordan(
        X=x, E=e, H=h, N=nil, spectral=data, policy=pol, residuals=res
    )


def multiplicative_jordan(g, pol=None):
    """Multiplicative Jordan decomposition g = e h u of an invertible matrix.

    Strict SL normalization is not required here (the projective theory only
    needs invertibility); the CLI layer warns when |det - 1| is large.
    """
    pol = pol or DEFAULT_POLICY
    g = as_square_matrix(g, "g")
    n = g.shape[0]
    scale = max(1.0, opnorm(g))
    if abs(np.linalg.det(g)) <= (pol.residual_tol * scale) ** n:
        raise Singular("matrix is singular; no multiplicative decomposition")
    data = complex_spectrum(g, pol)
    for c in data.clusters:
        if abs(c.eigenvalue) <= pol.residual_tol * scale:
            raise Singular(f"eigenvalue cluster at {c.eigenvalue}; singular")

    s = semisimple_part(data)
    h = _assemble(data, lambda c: abs(c.eigenvalue) * np.eye(c.block.shape[0]))
    h_inv = _assemble(data, lambda c: np.eye(c.block.shape[0]) / abs(c.eigenvalue))
    log_h = _assemble(
        data, lambda c: math.log(abs(c.eigenvalue)) * np.eye(c.block.shape[0])
    )
    e = s @ h_inv
    u = np.linalg.solve(s, g)
    nilpotency_index(u - np.eye(n), pol)  # u - I nilpotent, or raise
    res = {
        "product": opnorm(g - e @ h @ u),
        "commute_eh": opnorm(e @ h - h @ e),
        "commute_eu": opnorm(e @ u - u @ e),
        "commute_hu": opnorm(h @ u - u @ h),
        "exp_logH": opnorm(matrix_exp(log_h) - h),
    }
    _check_jordan_residuals(res, scale, n, pol)
    return MultiplicativeJordan(
        g=g, e=e, h=h, u=u, logH=log_h, spectral=data, policy=pol, residuals=res
    )


def flow_at(t, dec):
    """Evaluate the flow and its Jordan factors at time t.

    Continuous decompositions accept any real t (g^t = exp(tX)); discrete
    ones require integer t and use matrix powers for g and e.  In both cases
    h^t = exp(t logH) and u^t = exp(t log u).
    """
    if isinstance(dec, AdditiveJordan):
        t = float(t)
        if abs(t) * max(opnorm(dec.X), opnorm(dec.H)) > EXP_NORM_BUDGET:
            raise Overflow(f"|t|*|H| exceeds the exp budget at t={t}")
        gt = matrix_exp(t * dec.X)
        et = matrix_exp(t * dec.E)
        ht = matrix_exp(t * dec.H)
        ut = matrix_exp(t * dec.N)
        return gt, et, ht, ut
    if isinstance(dec, MultiplicativeJordan):
        if float(t) != int(t):
            raise InputError(
                "discrete-time decomposition: flow_at needs integer t "
                "(build an AdditiveJordan for continuous time)"
            )
        t = int(t)
        if abs(t) * opnorm(dec.logH) > EXP_NORM_BUDGET:
            raise Overflow(f"|t|*|logH| exceeds the exp budget at t={t}")
        et = np.linalg.matrix_power(dec.e, t)
        ht = matrix_exp(t * dec.logH)
        ut = matrix_exp(t * dec.log_u())
        gt = np.linalg.matrix_power(dec.g, t)
        return gt, et, ht, ut
    raise InputError(f"not a Jordan decomposition: {type(dec)!r}")


# ---------------------------------------------------------------------------
# invariant inner product for the elliptic part
# ---------------------------------------------------------------------------

def invariant_metric(e, pol=None):
    """Inner product in which an elliptic matrix acts by isometries.

    Block-diagonalizes e into plane rotations (one invariant plane per
    complex eigenvector, real lines for eigenvalues +-1) and returns the
    congruence gram M = C^{-T} C^{-1}; then e^T M e = M exactly up to
    rounding.  No ergodic averaging is involved.  The gram is canonical up
    to a positive scale per invariant plane.
    """
    pol = pol or DEFAULT_POLICY
    e = as_square_matrix(e, "e")
    data = complex_spectrum(e, pol)
    scale = max(1.0, opnorm(e))
    columns = []
    for c in data.clusters:
        lam = c.eigenvalue
        if abs(abs(lam) - 1.0) > pol.cluster_tol * 10:
            raise NotElliptic(
                f"eigenvalue {lam} has modulus {abs(lam):.12f}, off the unit "
                "circle"
            )
        block = c.block
        k = block.shape[0]
        ss = _cluster_semisimple_block(c)
        if opnorm(block - ss) > pol.residual_tol * scale * 100:
            raise NotElliptic(
                "matrix has a nontrivial nilpotent part on a unit-circle "
                "cluster; not power bounded"
            )
        if not c.is_pair:
            columns.append(c.basis)
            continue
        w, v = np.linalg.eig(block)
        picked = [i for i in range(k) if w[i].imag > 0]
        if len(picked) != k // 2:
            raise NotElliptic("could not pair complex eigenvectors")
        cols = np.empty((k, k))
        for j, i in enumerate(picked):
            z = v[:, i]
            z = z * (np.sqrt(2.0) / np.linalg.norm(z))
            cols[:, 2 * j] = z.real
            cols[:, 2 * j + 1] = -z.imag
        columns.append(c.basis @ cols)
    cmat = np.hstack(columns)
    gram = np.linalg.inv(cmat @ cmat.T)
    gram = 0.5 * (gram + gram.T)
    iso = opnorm(e.T @ gram @ e - gram)
    if iso > pol.residual_tol * max(1.0, opnorm(gram)) * 100:
        raise NotElliptic(f"isometry residual {iso:.3e}; matrix is not elliptic")
    return InvariantMetric(gram=gram)


# ---------------------------------------------------------------------------
# wedge (compound-matrix) representation
# ---------------------------------------------------------------------------

def wedge_basis(n, p):
    """Lexicographic p-index sets; the basis order of the wedge space."""
    return list(itertools.combinations(range(n), p))


def _check_wedge_args(n, p):
    if not 1 <= p <= n - 1:
        raise InputError(f"wedge power p={p} outside 1..{n - 1}")
    dim = math.comb(n, p)
    if dim > WEDGE_DIM_CAP:
        raise DimensionTooLarge(
            f"C({n},{p}) = {dim} exceeds the wedge dimension cap {WEDGE_DIM_CAP}"
        )
    return dim


def wedge_representation(g, p):
    """Matrix of v1^...^vp -> g v1^...^g vp on the lexicographic wedge basis.

    Entry [I, J] is the minor det(g[I, J]); multiplicativity
    rho(g1 g2) = rho(g1) rho(g2) is Cauchy-Binet.
    """
    g = as_square_matrix(g, "g")
    n = g.shape[0]
    dim = _check_wedge_args(n, p)
    combos = wedge_basis(n, p)
    idx = np.array(combos)
    out = np.empty((dim, dim))
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
    dim = _check_wedge_args(n, p)
    combos = wedge_basis(n, p)
    pos = {c: i for i, c in enumerate(combos)}
    out = np.zeros((dim, dim))
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
