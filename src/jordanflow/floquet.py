"""Floquet analysis of periodic linear systems in sl(n, R).

Integrates fundamental solutions g'(t) = X(t) g(t), extracts a real
generator from the monodromy (g(T)^m = exp(mTX), with the smallest power m
in a doubling budget that clears the negative real axis), builds the
periodic factor a(t) = g(t) exp(-tX), and transports the autonomous Morse
theory onto the skew-product flow over the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooLarge, InputError, NoRealLog, StiffnessSuspected
from .flags import Flag, _cell_assignment, _fixed, _orthonormalize, classify_flow
from .jordan import additive_jordan, multiplicative_jordan
from .matrixcore import (
    DEFAULT_POLICY,
    _as_index,
    _as_tuple,
    as_square_matrix,
    matrix_exp,
    opnorm,
)

__all__ = [
    "PeriodicCoefficient",
    "FundamentalSolution",
    "FloquetData",
    "integrate_fundamental",
    "floquet_generator",
    "floquet_data",
    "periodic_factor",
    "FloquetMorseDecomposition",
    "floquet_morse_components",
]

MAX_HARMONICS = 16
MAX_M = 64
MIN_STEPS = 64

#: Largest accepted RK4 error estimate, relative to max(1, max |g|).
STIFFNESS_BUDGET = 1e-4

#: Largest memory, in bytes, for the samples and derivatives of one
#: fundamental solution: 2 (steps + 1) n^2 doubles.  At n = 12 that is
#: 116,507 steps.
SAMPLE_BUDGET = 256 * 2**20

#: RK4 steps per coefficient table and per batched error-norm call.
_BLOCK = 512


@dataclass(frozen=True)
class PeriodicCoefficient:
    """Trigonometric-polynomial coefficient map
    X(t) = A0 + sum_k (A_k cos(2 pi k t / T) + B_k sin(2 pi k t / T)).

    All coefficient matrices must be traceless so the fundamental solution
    stays in SL; the input format is bit-exact and differentiates exactly.
    """

    period: float
    a0: np.ndarray
    harmonics: tuple  # of (k, A_k, B_k)

    def __post_init__(self):
        if not 0 < self.period < math.inf:
            raise InputError("period must be positive and finite")
        a0 = as_square_matrix(self.a0, "A0")
        object.__setattr__(self, "a0", a0)
        n = a0.shape[0]
        harmonics = _as_tuple(self.harmonics, "harmonics")
        if len(harmonics) > MAX_HARMONICS:
            raise InputError(f"at most {MAX_HARMONICS} harmonics supported")
        cleaned = []
        scale = max(1.0, opnorm(a0))
        for k, a, b in harmonics:
            k = _as_index(k, "harmonic index")
            a = as_square_matrix(a, f"A_{k}")
            b = as_square_matrix(b, f"B_{k}")
            if a.shape[0] != n or b.shape[0] != n:
                raise InputError("harmonic dimensions disagree with A0")
            if k < 1:
                raise InputError("harmonic index must be >= 1")
            cleaned.append((k, a, b))
            scale = max(scale, opnorm(a), opnorm(b))
        object.__setattr__(self, "harmonics", tuple(cleaned))
        tol = DEFAULT_POLICY.residual_tol * n * scale * 10
        for name, m in [("A0", a0)] + [
            (f"A_{k}", a) for k, a, _ in cleaned
        ] + [(f"B_{k}", b) for k, _, b in cleaned]:
            if abs(np.trace(m)) > tol:
                raise InputError(f"{name} has trace {np.trace(m):.3e}; not in sl")

    @property
    def n(self):
        return self.a0.shape[0]

    def value(self, t):
        return self.table([t])[0]

    def table(self, times):
        """X(t) for each t in ``times``, stacked as a (len(times), n, n) array.

        Each row is A0 + sum_k (A_k cos + B_k sin) in harmonic order, with
        ``math.cos``/``math.sin`` of the Python float w k t, so a row is
        bitwise the value at its time however many times are tabulated.
        """
        times = np.asarray(times, dtype=float).tolist()
        x = np.empty((len(times), self.n, self.n))
        x[:] = self.a0
        w = 2.0 * math.pi / self.period
        for k, a, b in self.harmonics:
            c = np.array([math.cos(w * k * t) for t in times])[:, None, None]
            s = np.array([math.sin(w * k * t) for t in times])[:, None, None]
            x += a * c + b * s
        return x


def _hermite(g0, d0, g1, d1, h, theta):
    t2 = theta * theta
    t3 = t2 * theta
    return (
        g0 * (2 * t3 - 3 * t2 + 1)
        + d0 * (h * (t3 - 2 * t2 + theta))
        + g1 * (-2 * t3 + 3 * t2)
        + d1 * (h * (t3 - t2))
    )


@dataclass(frozen=True)
class FundamentalSolution:
    """Dense-grid fundamental solution with cubic-Hermite dense output.

    Samples live on [0, T]; evaluation elsewhere goes through the cocycle
    extension g(t + kT) = g(t) g(T)^k.  Determinant drift is renormalized
    away every step and the removed drift is reported, not hidden.
    """

    coefficient: PeriodicCoefficient
    steps: int
    samples: np.ndarray  # (steps+1, n, n)
    derivatives: np.ndarray
    det_drift: float
    error_estimate: float

    @property
    def period(self):
        return self.coefficient.period

    @property
    def monodromy(self):
        return self.samples[-1]

    def at(self, t):
        """g(t) for any real t."""
        T = self.period
        k = math.floor(t / T)
        tau = t - k * T
        if tau >= T:  # guard rounding at the right edge
            tau -= T
            k += 1
        h = T / self.steps
        i = min(int(tau / h), self.steps - 1)
        theta = (tau - i * h) / h
        g_tau = _hermite(
            self.samples[i],
            self.derivatives[i],
            self.samples[i + 1],
            self.derivatives[i + 1],
            h,
            theta,
        )
        if k == 0:
            return g_tau
        return g_tau @ np.linalg.matrix_power(self.monodromy, k)

    def dense_output_residual(self):
        """Largest 2-norm gap between the dense output ``at`` and one RK4
        half step from the sample below, at the midpoints of 64 evenly spread
        grid steps (``MIN_STEPS`` keeps them distinct).  A midpoint is where
        the cubic-Hermite error peaks; at a grid point the gap is always 0.
        The half step is the one the step-halving estimate forms."""
        n, h = self.coefficient.n, self.period / self.steps
        idx = np.arange(64) * (self.steps - 1) // 63
        t = idx * h
        times = (t + (h / 4) * np.arange(3)[:, None]).ravel()
        x0, xq, xm = self.coefficient.table(times).reshape(3, 64, n, n)
        half = _rk4_matrices(x0, xq, xm, h / 2) @ self.samples[idx]
        dense = np.stack([self.at(s) for s in (t + h / 2).tolist()])
        return float(np.max(np.linalg.norm(dense - half, 2, axis=(1, 2))))


def _rk4_matrices(x0, xm, x1, dt):
    """The RK4 step matrices I + (dt/6)(K1 + 2 K2 + 2 K3 + K4) of g' = X g,
    from stacks of X at the start, the middle and the end of each step."""
    k2 = xm + (dt / 2) * (xm @ x0)
    k3 = xm + (dt / 2) * (xm @ k2)
    k4 = x1 + dt * (x1 @ k3)
    return np.eye(x0.shape[-1]) + (dt / 6) * (x0 + 2 * k2 + 2 * k3 + k4)


def integrate_fundamental(coef, steps):
    """Classical RK4 on a uniform grid, each step projected by the
    determinant of its step matrix.

    The local error is estimated by step-halving (Richardson); the summed
    estimate is reported, and StiffnessSuspected is raised when it exceeds
    the budget.  Halving the step size shrinks the monodromy error by the
    classical fourth-order factor (asserted in tests).

    On g' = X(t) g an RK4 step is g <- R_k g with a step matrix R_k that
    does not depend on g.  Steps run in blocks of ``_BLOCK``: per block the
    coefficient is tabulated once at the five distinct times of each step,
    the full step matrices R_k and the half-step pairs H1_k, H2_k are formed
    as batched products, and the samples are the prefix products
    g_(k+1) = P_k g_k with P_k = R_k det(R_k)^(-1/n).  ``det_drift`` sums
    |det R_k - 1|, the drift the projection removes; det g_k is 1 up to the
    summed rounding of the steps before it.  The step-halving differences
    (R_k - H2_k H1_k) g_k and their 2-norms are batched per block too.  The
    step-by-step loop is ``tests/oracles.integrate_fundamental_reference``.
    """
    if not isinstance(coef, PeriodicCoefficient):
        raise InputError("integrate_fundamental needs a PeriodicCoefficient")
    steps = int(steps)
    if steps < MIN_STEPS:
        raise InputError(f"steps must be >= {MIN_STEPS}")
    n = coef.n
    need = 2 * (steps + 1) * n * n * 8
    if need > SAMPLE_BUDGET:
        raise GridTooLarge(
            f"{steps} steps at n={n} need {need} bytes of samples; "
            f"budget is {SAMPLE_BUDGET}"
        )
    h = coef.period / steps
    samples = np.empty((steps + 1, n, n))
    derivs = np.empty_like(samples)
    samples[0] = np.eye(n)
    derivs[0] = coef.value(0.0) @ samples[0]
    drift = 0.0
    err = 0.0
    for i0 in range(0, steps, _BLOCK):
        i1 = min(i0 + _BLOCK, steps)
        t = np.arange(i0, i1) * h
        # X per step at t, t + h/4, t + h/2, t + 3h/4 and t + h
        times = t + (h / 4) * np.arange(5)[:, None]
        x0, xq, xm, x3, x1 = coef.table(times.ravel()).reshape(5, i1 - i0, n, n)
        g = samples[i0 + 1 : i1 + 1]
        # an overflowing step is caught by the determinant and finiteness
        # tests below, so numpy's overflow warnings would only be noise
        with np.errstate(over="ignore", invalid="ignore"):
            full = _rk4_matrices(x0, xm, x1, h)
            det = np.linalg.det(full)
            bad = np.flatnonzero(~((det > 0) & np.isfinite(det)))
            if bad.size:
                j = bad[0]
                raise StiffnessSuspected(
                    f"determinant {det[j]} at t={float(t[j]) + h}; step size unusable"
                )
            drift += float(np.sum(np.abs(det - 1.0)))
            proj = full * (det ** (-1.0 / n))[:, None, None]
            for j in range(i1 - i0):
                np.matmul(proj[j], samples[i0 + j], out=g[j])
            if not np.all(np.isfinite(g)):
                raise StiffnessSuspected(
                    f"sample not finite by t={float(t[-1]) + h}; step size unusable"
                )
            halves = _rk4_matrices(xm, x3, x1, h / 2) @ _rk4_matrices(x0, xq, xm, h / 2)
            diffs = (full - halves) @ samples[i0:i1]
        if not np.all(np.isfinite(diffs)):
            raise StiffnessSuspected(
                f"step-halving difference not finite by t={float(t[-1]) + h}; "
                "step size unusable"
            )
        for e in np.linalg.norm(diffs, 2, axis=(1, 2)).tolist():
            err += e / 15.0
        derivs[i0 + 1 : i1 + 1] = x1 @ g
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


# ---------------------------------------------------------------------------
# generator extraction
# ---------------------------------------------------------------------------

def floquet_generator(mono, period, pol=None):
    """Smallest m in {1, 2, 4, ..., 64} and real X with mono^m = exp(mTX), as
    (m, X, |mono^m - exp(mTX)|): the residual X was accepted on.

    log(mono^m) = log(e^m) + m logH + m log u is read off the clusters of the
    monodromy's multiplicative Jordan decomposition.  Doubling m squares the
    elliptic eigenvalues, which is exactly what removes the negative-real-axis
    obstruction to a principal real log; if the whole budget fails,
    NoRealLog is raised rather than complexifying.
    """
    pol = pol or DEFAULT_POLICY
    mono = as_square_matrix(mono, "monodromy")
    n = mono.shape[0]
    scale = max(1.0, opnorm(mono))
    det = np.linalg.det(mono)
    if abs(det - 1.0) > 1e-6 * n:
        raise InputError(f"monodromy determinant {det:.9f} is not 1")
    mdec = multiplicative_jordan(mono, pol)
    units = [c.eigenvalue / abs(c.eigenvalue) for c in mdec.spectral.clusters]
    log_u = mdec.log_u()

    m = 1
    while m <= MAX_M:
        obstructed = any(
            abs(u**m + 1.0) <= pol.cluster_tol * 10 for u in units
        )
        if not obstructed:
            x = (mdec.log_e_power(m) + m * mdec.logH + m * log_u) / (m * period)
            resid = opnorm(
                np.linalg.matrix_power(mono, m) - matrix_exp(m * period * x)
            )
            if resid <= 1e-8 * scale**m * n * 10:
                return m, x, resid
        m *= 2
    raise NoRealLog(
        f"no m <= {MAX_M} gives a principal real logarithm of the monodromy"
    )


@dataclass(frozen=True)
class FloquetData:
    """Monodromy, minimal power m, real generator X with g(T)^m = exp(mTX)
    and its residual |g(T)^m - exp(mTX)|, the additive Jordan decomposition
    of X, and the fundamental solution backing the periodic factor
    a(t) = g(t) exp(-tX) (period mT)."""

    fundamental: FundamentalSolution
    m: int
    X: np.ndarray
    generator_residual: float
    dec: object  # AdditiveJordan of X

    @property
    def monodromy(self):
        return self.fundamental.monodromy

    @property
    def period(self):
        return self.fundamental.period

    @property
    def skew_period(self):
        return self.m * self.fundamental.period

    def a(self, t):
        return periodic_factor(self.fundamental, self, t)


def floquet_data(fund, pol=None):
    pol = pol or DEFAULT_POLICY
    m, x, resid = floquet_generator(fund.monodromy, fund.period, pol)
    dec = additive_jordan(x, pol)
    return FloquetData(
        fundamental=fund,
        m=m,
        X=x,
        generator_residual=resid,
        dec=dec,
    )


def periodic_factor(fund, fd, t):
    """a(t) = g(t) exp(-tX); periodic with period mT and a(0) = I."""
    return fund.at(t) @ matrix_exp(-t * fd.X)


# ---------------------------------------------------------------------------
# Morse decomposition of the skew flow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FloquetMorseDecomposition:
    """Finest Morse decomposition of the skew flow on S^1 x FlagManifold.

    Components are the autonomous components of exp(tX), classified by
    ``classify_flow`` on the generator's decomposition, transported along
    the fiber by a(s): M(w) = {(s, a(s) x) : x in fix(H, w)}.
    """

    data: FloquetData
    classification: object  # FlowClassification of data.dec

    @property
    def components(self):
        return self.classification.components

    def membership(self, s, flag, index, pol=None, tol=None):
        """(s, flag) lies in component ``index`` iff a(s)^(-1) flag is an
        h-invariant flag whose Bruhat pattern matches the component."""
        pol = pol or DEFAULT_POLICY
        tol = pol.sim_tol if tol is None else tol
        z = np.linalg.solve(self.data.a(s), flag.basis)
        z = Flag(_orthonormalize(z), flag.dims)
        if not _fixed(z, self.data.dec, tol, chain=True):
            return False
        table, _ = _cell_assignment(z, self.classification.filtration, pol)
        return table == self.components[index].assignment


def floquet_morse_components(fd, dims, pol=None):
    """Morse components of the skew flow: the generator's classification on
    ``dims``, each component with the transport rule x -> a(s) x."""
    cls = classify_flow(fd.dec, dims, pol)
    return FloquetMorseDecomposition(data=fd, classification=cls)
