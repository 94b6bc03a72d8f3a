"""Additive and multiplicative Jordan decompositions with certified invariants.

The semisimple part is assembled cluster by cluster from the spectral data:
on each invariant subspace the semisimple action is the Hermite interpolant
of the locally-constant eigenvalue map, which reduces to ``lambda * I`` for a
real cluster and to ``alpha*I + beta*J`` (J a complex structure) for a
conjugate pair.  Sharing the clustering tolerance with the Morse-component
machinery keeps "equal eigenvalues" a single user-visible knob.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, InputError, Singular
from .matrixcore import (
    DEFAULT_POLICY,
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
    "additive_jordan",
    "multiplicative_jordan",
]


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
