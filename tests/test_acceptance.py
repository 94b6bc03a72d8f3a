"""Acceptance gate: one test per criterion, each printing a PASS line with
its runtime and asserting the stated tolerance and time budget.

Criterion 3 appears twice: the literal horizon |t| = 50 cannot reach a 1e-6
neighborhood of the limit (the unipotent approach follows a 1/t law, so the
distance at t = 50 is ~0.02); that test is a strict expected failure
documenting the defect, and the companion test verifies the same statement
at a horizon the 1/t law actually allows, well inside the runtime budget.
"""

import math
import time

import numpy as np
import pytest

from jordanflow import (
    Flag,
    ProjectivePoint,
    TolerancePolicy,
    additive_jordan,
    bruhat_cell,
    chain_oracle,
    chain_recurrent_membership,
    classify_flow,
    enumerate_morse_components,
    floquet_data,
    floquet_generator,
    height_lyapunov,
    integrate_fundamental,
    matrix_exp,
    multiplicative_jordan,
    periodic_factor,
    rate_filtration,
    recurrent_membership,
    simulate_flag,
    simulate_projective,
    unstable_bruhat_cell,
)
from jordanflow.flags import component_defect, nearest_component, random_flag
from jordanflow.floquet import PeriodicCoefficient
from oracles import (
    plucker_embed,
    projective_distance,
    skew_step,
    wedge_representation,
)
from systems import E1, E2, E3, x1, x4, x5

POL = TolerancePolicy()


def report(k, label, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"criterion {k:2d} [{label}]: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {k} exceeded its {budget}s budget"


def test_criterion_01_normal_form_regression():
    t0 = time.perf_counter()
    dec4 = additive_jordan(x4(1, 2), POL)
    assert np.allclose(dec4.E, [[0, -2, 0], [2, 0, 0], [0, 0, 0]], atol=1e-10)
    assert np.allclose(dec4.H, np.diag([-1.0, -1.0, 2.0]), atol=1e-10)
    assert np.allclose(dec4.N, 0, atol=1e-10)
    assert max(dec4.residuals.values()) <= 1e-10

    dec5 = additive_jordan(x5(1.0), POL)
    n_expected = np.zeros((3, 3))
    n_expected[0, 1] = 1.0
    assert np.allclose(dec5.E, 0, atol=1e-10)
    assert np.allclose(dec5.H, np.diag([-1.0, -1.0, 2.0]), atol=1e-10)
    assert np.allclose(dec5.N, n_expected, atol=1e-10)
    assert max(dec5.residuals.values()) <= 1e-10
    report(1, "Jordan factors of X4/X5", t0, 1.0)


def _figure2_samples(rng):
    """1000 projective points with known membership labels:
    in_plane (v3 = 0), is_e1/e3 exactly, or generic/mixed off the sets."""
    samples = []
    for k in range(400):  # on the invariant plane
        th = math.pi * k / 400.0
        v = np.array([math.cos(th), math.sin(th), 0.0])
        samples.append((ProjectivePoint(v), "plane", abs(v[1]) < 1e-12))
    samples.append((ProjectivePoint(E3), "e3", False))
    for _ in range(300):  # generic: all three oblique coordinates nonzero
        v = rng.normal(size=3)
        while min(abs(v)) < 1e-3:
            v = rng.normal(size=3)
        samples.append((ProjectivePoint(v), "generic", False))
    for k in range(299):  # two-eigenspace mixtures, off both Morse sets
        a = 0.2 + 0.6 * rng.random()
        v = a * (E1 if k % 2 else E2) + (1 - a) * E3
        samples.append((ProjectivePoint(v), "mixed", False))
    return samples


def test_criterion_02_figure2_membership():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    samples = _figure2_samples(rng)
    assert len(samples) == 1000
    tol = 1e-8

    dec4 = additive_jordan(x4(1, 2), POL)
    for p, kind, _ in samples:
        truth = kind in ("plane", "e3")  # {[e3]} and P(span{e1,e2})
        assert recurrent_membership(p, dec4, POL, tol=tol) == truth
        assert chain_recurrent_membership(p, dec4, POL, tol=tol) == truth

    dec5 = additive_jordan(x5(1.0), POL)
    for p, kind, is_e1 in samples:
        chain_truth = kind in ("plane", "e3")
        rec_truth = kind == "e3" or (kind == "plane" and is_e1)
        assert chain_recurrent_membership(p, dec5, POL, tol=tol) == chain_truth
        assert recurrent_membership(p, dec5, POL, tol=tol) == rec_truth
    report(2, "Figure 2 recurrence sets", t0, 5.0)


def _figure1_run(horizon):
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    dec = additive_jordan(n, POL)
    e1 = ProjectivePoint([1.0, 0.0])
    worst = 0.0
    for k in range(1, 101):  # 100 starts, [e1] itself excluded
        th = math.pi * k / 101.0
        p = ProjectivePoint([math.cos(th), math.sin(th)])
        for t in (horizon, -horizon):
            end = simulate_projective(dec, p, [t])[-1]
            worst = max(worst, projective_distance(end, e1))
    return worst


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: exp(tN)[x] approaches [e1] like 1/t, so "
    "at |t| = 50 the distance is ~2e-2, never 1e-6; the companion test "
    "verifies the same limit at a horizon the 1/t law allows",
)
def test_criterion_03_figure1_literal():
    assert _figure1_run(50.0) <= 1e-6


def test_criterion_03_figure1_attainable_horizon():
    t0 = time.perf_counter()
    worst = _figure1_run(4.0e6)
    assert worst <= 1e-6
    report(3, "Figure 1 unipotent limits (1/t-law horizon)", t0, 2.0)


def test_criterion_04_morse_census():
    t0 = time.perf_counter()
    h_matrix = np.diag([2.0, -1.0, -1.0])
    filt = rate_filtration(additive_jordan(h_matrix, POL), POL)
    comps = enumerate_morse_components(filt, (1, 2), POL)
    assert len(comps) == 3
    assert {(c.dim_component, c.n_w) for c in comps} == {(1, 0), (1, 1), (1, 2)}
    for c in comps:
        assert c.dim_component + c.n_w + c.dim_stable == 3

    regular = enumerate_morse_components(
        rate_filtration(additive_jordan(x1(1, 2), POL), POL), (1, 2), POL
    )
    assert len(regular) == 6
    assert all(c.dim_component == 0 for c in regular)
    for c in regular:
        assert c.dim_component + c.n_w + c.dim_stable == 3
    report(4, "Morse census and dimension bookkeeping", t0, 1.0)


def test_criterion_05_prediction_equals_simulation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    horizon = 25.0
    for mat in (x1(1, 2), x4(1, 2), x5(1.0)):
        dec = additive_jordan(mat, POL)
        filt = rate_filtration(dec, POL)
        for dims in [(1,), (1, 2)]:
            comps = enumerate_morse_components(filt, dims, POL)
            fwd = rev = 0
            for _ in range(100):
                f0 = random_flag(3, dims, rng)
                pred = bruhat_cell(f0, filt, dims, POL, components=comps)
                end = simulate_flag(dec, f0, [horizon])[-1]
                near, defect = nearest_component(end, comps, filt)
                fwd += near == pred and defect <= POL.sim_tol
                pred_u = unstable_bruhat_cell(f0, filt, dims, POL, components=comps)
                end_r = simulate_flag(dec, f0, [-horizon])[-1]
                near_r, defect_r = nearest_component(end_r, comps, filt)
                rev += near_r == pred_u and defect_r <= POL.sim_tol
            assert fwd == 100, f"{mat} dims={dims}: forward {fwd}/100"
            assert rev == 100, f"{mat} dims={dims}: reverse {rev}/100"
    report(5, "Bruhat prediction = simulation (600+600 starts)", t0, 60.0)


def test_criterion_06_structural_stability_verdicts():
    t0 = time.perf_counter()
    assert not classify_flow(additive_jordan(x4(1, 2), POL), (1,), POL).structurally_stable
    assert not classify_flow(additive_jordan(x5(1.0), POL), (1,), POL).structurally_stable

    # perturbations with distinct resulting rates are stable
    pert5 = x5(1.0) + 1e-3 * np.diag([1.0, 0.0, -1.0])
    assert classify_flow(additive_jordan(pert5, POL), (1,), POL).structurally_stable
    pert4 = x4(1, 2) + 5.0 * np.diag([1.0, 0.0, -1.0])
    assert classify_flow(additive_jordan(pert4, POL), (1,), POL).structurally_stable

    # the verdict flips exactly at rate coincidence within cluster_tol
    def diag_system(eps):
        return np.diag([-1.0 + eps, -1.0, 2.0 - eps])

    below = classify_flow(additive_jordan(diag_system(0.999e-8), POL), (1,), POL)
    above = classify_flow(additive_jordan(diag_system(1.001e-8), POL), (1,), POL)
    assert not below.structurally_stable and not below.h_regular
    assert above.structurally_stable and above.h_regular
    report(6, "stability verdict flips at the clustering boundary", t0, 1.0)


def test_criterion_07_wedge_plucker_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(3, 6))
        p_dim = int(rng.integers(1, min(3, n - 1) + 1))
        g = np.eye(n) + 0.5 * rng.normal(size=(n, n))
        b = np.linalg.qr(rng.normal(size=(n, p_dim)))[0]
        iv = plucker_embed(b)
        igv = plucker_embed(np.linalg.qr(g @ b)[0])
        w = wedge_representation(g, p_dim) @ iv.rep
        cos = abs(w @ igv.rep) / np.linalg.norm(w)
        assert abs(cos - 1.0) <= 1e-10

    for seed in range(5):
        r2 = np.random.default_rng(100 + seed)
        d = np.diag(sorted(0.5 + 2.0 * r2.random(4), reverse=True))
        c = np.eye(4) + 0.3 * r2.normal(size=(4, 4))
        g = c @ d @ np.linalg.inv(c)
        g *= abs(np.linalg.det(g)) ** (-0.25)
        dec = multiplicative_jordan(g, POL)
        rho = wedge_representation(g, 2)
        wdec = multiplicative_jordan(rho, POL)
        assert np.allclose(wdec.e, wedge_representation(dec.e, 2), atol=1e-8)
        assert np.allclose(wdec.h, wedge_representation(dec.h, 2), atol=1e-8)
        assert np.allclose(wdec.u, wedge_representation(dec.u, 2), atol=1e-8)
    report(7, "wedge equivariance + Jordan compatibility", t0, 10.0)


def test_criterion_08_chain_oracle_convergence():
    t0 = time.perf_counter()
    # P^1 unipotent at the stated resolution and eps: everything marked
    uni = multiplicative_jordan(np.array([[1.0, 1.0], [0.0, 1.0]]), POL)
    cg = chain_oracle(uni, 2000, 0.01, 1, POL)
    assert cg.marked.mean() >= 0.99

    # P^1 hyperbolic: marked set hugs the two fixed points (eps chosen below
    # two grid cells; the criterion pins resolution/eps only for the
    # unipotent clause)
    hyp = multiplicative_jordan(np.diag([2.0, 0.5]), POL)
    cg2 = chain_oracle(hyp, 2000, 0.001, 1, POL)
    assert cg2.marked.sum() >= 2
    cell = math.pi / 2000
    for v in cg2.points[cg2.marked]:
        ang = math.atan2(v[1], v[0]) % math.pi
        d = min(ang, abs(ang - math.pi / 2), abs(ang - math.pi))
        assert d <= 2 * cell + 1e-12

    # P^2, X5: agreement with fix(h^t) membership at resolution 4000
    dec5 = additive_jordan(x5(1.0), POL)
    cg3 = chain_oracle(dec5, 4000, 0.08, 1.0, POL)
    member_tol = cg3.eps / 2
    dist = rate_filtration(dec5, POL).distances(cg3.points)
    member = dist.min(axis=0) <= member_tol
    agreement = float(np.mean(member == cg3.marked))
    assert agreement >= 0.95
    report(8, f"chain oracle (P2 agreement {agreement:.3f})", t0, 120.0)


def test_criterion_09_floquet_suite():
    t0 = time.perf_counter()
    zero = np.zeros((3, 3))

    # constant coefficients: a(t) = I
    const = PeriodicCoefficient(period=1.0, a0=x4(1, 2), harmonics=())
    fund_c = integrate_fundamental(const, 1024)
    fd_c = floquet_data(fund_c, POL)
    worst = max(
        np.linalg.norm(periodic_factor(fund_c, fd_c, t) - np.eye(3))
        for t in np.linspace(0.0, 3.0, 48)
    )
    assert worst <= 1e-7

    # fourth-order convergence on a nonconstant smooth system
    a1 = np.array([[0.0, 0.4, 0.0], [0.0, 0.0, 0.0], [0.2, 0.0, 0.0]])
    a1 -= np.trace(a1) / 3 * np.eye(3)
    b1 = np.array([[0.0, 0.0, 0.0], [0.3, 0.0, 0.1], [0.0, -0.2, 0.0]])
    b1 -= np.trace(b1) / 3 * np.eye(3)
    trig = PeriodicCoefficient(period=1.0, a0=x4(0.4, 0.8), harmonics=((1, a1, b1),))
    ref = integrate_fundamental(trig, 4096).monodromy
    err_coarse = np.linalg.norm(integrate_fundamental(trig, 256).monodromy - ref)
    err_fine = np.linalg.norm(integrate_fundamental(trig, 512).monodromy - ref)
    assert err_coarse / err_fine >= 8.0

    # reconstruction over [0, 3mT]
    fund = integrate_fundamental(trig, 2048)
    fd = floquet_data(fund, POL)
    sup = max(
        np.linalg.norm(
            fund.at(t) - periodic_factor(fund, fd, t) @ matrix_exp(t * fd.X)
        )
        for t in np.linspace(0.0, 3 * fd.skew_period, 64)
    )
    assert sup <= 1e-6

    # rotation-by-pi monodromy: m = 2, real generator
    m, x_gen, _ = floquet_generator(np.diag([-1.0, -1.0, 1.0]), 1.0, POL)
    assert m == 2 and np.isrealobj(x_gen)
    assert (
        np.linalg.norm(
            np.linalg.matrix_power(np.diag([-1.0, -1.0, 1.0]), 2)
            - matrix_exp(2 * x_gen)
        )
        <= 1e-9
    )
    report(9, "Floquet integration/generator/reconstruction", t0, 30.0)


def test_criterion_10_lyapunov_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(10)
    dec = additive_jordan(x4(1, 2), POL)
    filt = rate_filtration(dec, POL)
    comps = enumerate_morse_components(filt, (1, 2), POL)
    dt = 0.5
    ts = np.arange(dt, 20.0 + dt / 2, dt)

    for _ in range(50):
        f = random_flag(3, (1, 2), rng)
        traj = [f] + simulate_flag(dec, f, ts)
        vals = [height_lyapunov(g, dec.H, POL) for g in traj]
        defects = [min(component_defect(g, c, filt) for c in comps) for g in traj]
        for k in range(len(ts)):
            drop = vals[k] - vals[k + 1]
            assert drop >= -1e-12  # non-increasing
            if min(defects[k], defects[k + 1]) > 1e-3:
                assert drop >= 1e-9 * dt  # strict decrease away from components

    # constant on components within 1e-8
    att = Flag(np.stack([E3, E2], axis=1), (1, 2))
    rep = Flag(np.stack([E1, E2], axis=1), (1, 2))
    for f0 in (att, rep):
        vals = [
            height_lyapunov(g, dec.H, POL)
            for g in simulate_flag(dec, f0, np.arange(0.0, 25.0, 1.0))
        ]
        assert max(vals) - min(vals) <= 1e-8

    # skew-product version on 20 orbits
    coef = PeriodicCoefficient(
        period=1.0, a0=x4(1, 2), harmonics=((1, 0.5 * x4(1, 2), np.zeros((3, 3))),)
    )
    fund = integrate_fundamental(coef, 1024)
    fd = floquet_data(fund, POL)
    for _ in range(20):
        f = random_flag(3, (1, 2), rng)
        s = float(rng.uniform(0, fd.skew_period))
        vals = []
        for _ in range(25):
            pulled = Flag(np.linalg.solve(fd.a(s), f.basis), f.dims)
            vals.append(height_lyapunov(pulled, fd.dec.H, POL))
            s, f = skew_step(fund, fd, s, f, dt)
        assert all(b - a <= 1e-8 for a, b in zip(vals, vals[1:]))
    # constant on the transported attractor component
    fix = Flag(np.stack([E3, E2], axis=1), (1, 2))
    s, f = 0.0, Flag(fd.a(0.0) @ fix.basis, (1, 2))
    vals = []
    for _ in range(20):
        pulled = Flag(np.linalg.solve(fd.a(s), f.basis), f.dims)
        vals.append(height_lyapunov(pulled, fd.dec.H, POL))
        s, f = skew_step(fund, fd, s, f, 0.4)
    assert max(vals) - min(vals) <= 1e-6
    report(10, "Lyapunov monotonicity (flag + skew)", t0, 30.0)
