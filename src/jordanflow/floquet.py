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
from .flags import (
    Flag,
    FlagType,
    _cell_assignment,
    _orthonormalize,
    enumerate_morse_components,
    height_lyapunov,
    rate_filtration,
)
from .jordan import additive_jordan, multiplicative_jordan
from .matrixcore import DEFAULT_POLICY, as_square_matrix, matrix_exp, opnorm
from .projective import ProjectivePoint, _invariance_residual

__all__ = [
    "PeriodicCoefficient",
    "FundamentalSolution",
    "FloquetData",
    "integrate_fundamental",
    "floquet_generator",
    "floquet_data",
    "periodic_factor",
    "skew_step",
    "FloquetMorseDecomposition",
    "floquet_morse_components",
    "floquet_lyapunov",
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
        if len(self.harmonics) > MAX_HARMONICS:
            raise InputError(f"at most {MAX_HARMONICS} harmonics supported")
        cleaned = []
        scale = max(1.0, opnorm(a0))
        for k, a, b in self.harmonics:
            k = int(k)
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


def integrate_fundamental(coef, steps):
    """Classical RK4 on a uniform grid with per-step determinant projection.

    The local error is estimated by step-halving (Richardson); the summed
    estimate is reported, and StiffnessSuspected is raised when it exceeds
    the budget.  Halving the step size shrinks the monodromy error by the
    classical fourth-order factor (asserted in tests).

    Steps run in blocks of ``_BLOCK``.  Per block the coefficient is
    tabulated once at the six distinct times of each step, the full step
    and the first half step advance together as a (2, n, n) stack from
    their shared k1 = X(t) g, and the block's step-halving norms come from
    one batched SVD.  Every float operation is the one a step-by-step RK4
    makes, in the same order, so the samples are bitwise those of
    ``tests/oracles.integrate_fundamental_reference``.
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
    T = coef.period
    h = T / steps
    hh = h / 2
    q = hh / 2
    # the h/2, h and h/6 factors of the full step (row 0, step h) and of
    # the first half step (row 1, step h/2)
    mid = np.array([hh, q])[:, None, None]
    end = np.array([h, hh])[:, None, None]
    sixth = np.array([h / 6, hh / 6])[:, None, None]
    g = np.eye(n)
    samples = np.empty((steps + 1, n, n))
    derivs = np.empty_like(samples)
    diffs = np.empty((min(_BLOCK, steps), n, n))
    samples[0] = g
    derivs[0] = coef.value(0.0) @ g
    drift = 0.0
    err = 0.0
    for i0 in range(0, steps, _BLOCK):
        i1 = min(i0 + _BLOCK, steps)
        t = np.arange(i0, i1) * h
        th = t + hh
        # X per step at t + h, t + h/2, t + h/4, t, then t + h/2 + h/4 and
        # t + h/2 + h/2: columns 0:2 are the k4 coefficients of the full and
        # the first half step, columns 1:3 their k2 and k3 coefficients
        times = np.stack([t + h, th, t + q, t, th + q, th + hh], axis=1)
        x = coef.table(times.ravel()).reshape(i1 - i0, 6, n, n)
        # an overflowing step is caught by the determinant and finiteness
        # tests below, so numpy's overflow warnings would only be noise
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(i1 - i0):
                xs = x[j]
                k1 = xs[3] @ g
                k2 = xs[1:3] @ (g + mid * k1)
                k3 = xs[1:3] @ (g + mid * k2)
                k4 = xs[0:2] @ (g + end * k3)
                full, y = g + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
                k1 = xs[1] @ y
                k2 = xs[4] @ (y + q * k1)
                k3 = xs[4] @ (y + q * k2)
                k4 = xs[5] @ (y + hh * k3)
                diffs[j] = full - (y + (hh / 6) * (k1 + 2 * k2 + 2 * k3 + k4))
                g = full
                det = np.linalg.det(g)
                if det <= 0 or not np.isfinite(det):
                    raise StiffnessSuspected(
                        f"determinant {det} at t={float(t[j]) + h}; step size unusable"
                    )
                drift += abs(det - 1.0)
                g = g * det ** (-1.0 / n)
                samples[i0 + j + 1] = g
        block = diffs[: i1 - i0]
        if not np.all(np.isfinite(block)):
            raise StiffnessSuspected(
                f"step-halving difference not finite by t={float(t[-1]) + h}; "
                "step size unusable"
            )
        for e in np.linalg.norm(block, 2, axis=(1, 2)).tolist():
            err += e / 15.0
        derivs[i0 + 1 : i1 + 1] = x[:, 0] @ samples[i0 + 1 : i1 + 1]
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
    monodromy: np.ndarray
    m: int
    X: np.ndarray
    generator_residual: float
    dec: object  # AdditiveJordan of X

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
        monodromy=fund.monodromy.copy(),
        m=m,
        X=x,
        generator_residual=resid,
        dec=dec,
    )


def periodic_factor(fund, fd, t):
    """a(t) = g(t) exp(-tX); periodic with period mT and a(0) = I."""
    return fund.at(t) @ matrix_exp(-t * fd.X)


def skew_step(fund, fd, s, x, t):
    """One move of the skew-product flow over the circle R / (mT)Z:
    (s, x) -> (s + t, rho_s(t) x) with rho_s(t) = g(t + s) g(s)^(-1)."""
    rho = fund.at(s + t) @ np.linalg.inv(fund.at(s))
    s_new = (s + t) % fd.skew_period
    if isinstance(x, ProjectivePoint):
        return s_new, ProjectivePoint(rho @ x.rep)
    if isinstance(x, Flag):
        return s_new, Flag(_orthonormalize(rho @ x.basis), x.dims)
    raise InputError("skew_step moves ProjectivePoint or Flag values")


# ---------------------------------------------------------------------------
# Morse decomposition of the skew flow
# ---------------------------------------------------------------------------

def _pull_back(fd, s, flag):
    """The fiber flag a(s)^(-1) flag, re-orthonormalized."""
    return Flag(_orthonormalize(np.linalg.solve(fd.a(s), flag.basis)), flag.dims)


@dataclass(frozen=True)
class FloquetMorseDecomposition:
    """Finest Morse decomposition of the skew flow on S^1 x FlagManifold.

    Components are the autonomous components of exp(tX) transported along
    the fiber by a(s): M(w) = {(s, a(s) x) : x in fix(H, w)}.
    """

    data: FloquetData
    dims: tuple
    components: tuple
    filtration: object

    def membership(self, s, flag, index, pol=None, tol=None):
        """(s, flag) lies in component ``index`` iff a(s)^(-1) flag is an
        h-invariant flag whose Bruhat pattern matches the component."""
        pol = pol or DEFAULT_POLICY
        tol = pol.sim_tol if tol is None else tol
        z = _pull_back(self.data, s, flag)
        hmat = self.data.dec.H
        if any(
            _invariance_residual(hmat, z.subspace(i)) > tol
            for i in range(len(z.dims.dims))
        ):
            return False
        table, _ = _cell_assignment(z, self.filtration, pol)
        return table == self.components[index].assignment


def floquet_morse_components(fd, dims, pol=None):
    """Morse components of the skew flow, each the base component plus the
    transport rule x -> a(s) x."""
    pol = pol or DEFAULT_POLICY
    if not isinstance(dims, FlagType):
        dims = FlagType(tuple(dims))
    filt = rate_filtration(fd.dec, pol)
    comps = enumerate_morse_components(filt, dims, pol)
    return FloquetMorseDecomposition(
        data=fd, dims=dims.dims, components=tuple(comps), filtration=filt
    )


def floquet_lyapunov(fd, s, flag, pol=None):
    """Lyapunov value F(s, y) = f(a(s)^(-1) y) of the skew flow; constant on
    skew Morse components, non-increasing along skew orbits."""
    pol = pol or DEFAULT_POLICY
    return height_lyapunov(_pull_back(fd, s, flag), fd.dec.H, pol)
