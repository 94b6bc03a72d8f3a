import math

import numpy as np
import pytest

from jordanflow import (
    BranchObstruction,
    InputError,
    Singular,
    additive_jordan,
    chain_oracle,
    matrix_exp,
    multiplicative_jordan,
    nilpotency_index,
    principal_log,
)
from oracles import rotation_scale_exp, wedge_infinitesimal, wedge_representation
from systems import random_sl, random_sl_alg, x1, x2, x4, x5

E12 = np.zeros((3, 3))
E12[0, 1] = 1.0


class TestSNDecompose:
    """The semisimple part E + H and the nilpotent part N."""

    def test_diagonal_is_semisimple(self):
        dec = additive_jordan(x1(1, 2))
        assert np.allclose(dec.E + dec.H, x1(1, 2), atol=1e-12)
        assert np.allclose(dec.N, 0, atol=1e-12)

    def test_jordan_block_is_nilpotent(self):
        dec = additive_jordan(x2())
        assert np.allclose(dec.E + dec.H, 0, atol=1e-12)
        assert np.allclose(dec.N, x2(), atol=1e-12)

    def test_x5_split(self):
        dec = additive_jordan(x5(1.0))
        assert np.allclose(dec.E + dec.H, np.diag([-1.0, -1.0, 2.0]), atol=1e-12)
        assert np.allclose(dec.N, E12, atol=1e-12)

    def test_commutation_random(self, rng, pol):
        for _ in range(10):
            a = random_sl_alg(4, rng)
            dec = additive_jordan(a, pol)
            s, n = dec.E + dec.H, dec.N
            assert np.allclose(a, s + n, atol=1e-10)
            assert np.linalg.norm(s @ n - n @ s) < 1e-8


class TestAdditiveJordan:
    def test_x4_closed_form(self):
        dec = additive_jordan(x4(1, 2))
        e_expected = np.array([[0.0, -2, 0], [2, 0, 0], [0, 0, 0]])
        assert np.allclose(dec.E, e_expected, atol=1e-10)
        assert np.allclose(dec.H, np.diag([-1.0, -1.0, 2.0]), atol=1e-10)
        assert np.allclose(dec.N, 0, atol=1e-10)

    def test_x5_closed_form(self):
        dec = additive_jordan(x5(1.0))
        assert np.allclose(dec.E, 0, atol=1e-12)
        assert np.allclose(dec.H, np.diag([-1.0, -1.0, 2.0]), atol=1e-12)
        assert np.allclose(dec.N, E12, atol=1e-12)

    def test_x2_pure_nilpotent(self):
        dec = additive_jordan(x2())
        assert np.allclose(dec.E, 0, atol=1e-12)
        assert np.allclose(dec.H, 0, atol=1e-12)
        assert np.allclose(dec.N, x2(), atol=1e-12)

    def test_trace_precondition(self):
        with pytest.raises(InputError):
            additive_jordan(np.eye(3))

    def test_elliptic_part_imaginary_spectrum(self, rng, pol):
        for _ in range(8):
            x = random_sl_alg(4, rng)
            dec = additive_jordan(x, pol)
            ew = np.linalg.eigvals(dec.E)
            assert np.max(np.abs(ew.real)) < 1e-8
            hw = np.linalg.eigvals(dec.H)
            assert np.max(np.abs(hw.imag)) < 1e-8
            nilpotency_index(dec.N, pol)

    @pytest.mark.parametrize("system,ctol", [("x4", 1e-8), ("x5", 1e-6)])
    def test_conjugation_covariance(self, rng, system, ctol):
        # x5's defective eigenvalue splits by ~sqrt(machine eps) under
        # conjugation, so resolving it needs the coarser clustering knob
        from jordanflow import TolerancePolicy

        x = {"x4": x4(1, 2), "x5": x5(1.0)}[system]
        pol = TolerancePolicy(cluster_tol=ctol)
        base = additive_jordan(x, pol)
        for _ in range(6):
            c = np.eye(3) + 0.4 * rng.normal(size=(3, 3))
            cinv = np.linalg.inv(c)
            dec = additive_jordan(c @ x @ cinv, pol)
            assert np.allclose(dec.E, c @ base.E @ cinv, atol=1e-7)
            assert np.allclose(dec.H, c @ base.H @ cinv, atol=1e-7)
            assert np.allclose(dec.N, c @ base.N @ cinv, atol=1e-7)


class TestMultiplicativeJordan:
    def test_exp_x4_quarter_turn(self):
        g = matrix_exp(x4(1.0, np.pi / 2))
        dec = multiplicative_jordan(g)
        # oracle: exp of commuting E and H
        e_expected = rotation_scale_exp(0.0, np.pi / 2, 1.0)
        h_expected = np.diag([np.exp(-1.0), np.exp(-1.0), np.exp(2.0)])
        assert np.allclose(dec.e, e_expected, atol=1e-10)
        assert np.allclose(dec.h, h_expected, atol=1e-10)
        assert np.allclose(dec.u, np.eye(3), atol=1e-10)

    def test_unipotent(self):
        u0 = np.array([[1.0, 1], [0, 1]])
        dec = multiplicative_jordan(u0)
        assert np.allclose(dec.e, np.eye(2), atol=1e-12)
        assert np.allclose(dec.h, np.eye(2), atol=1e-12)
        assert np.allclose(dec.u, u0, atol=1e-12)

    def test_positive_diagonal(self):
        dec = multiplicative_jordan(np.diag([2.0, 0.5]))
        assert np.allclose(dec.e, np.eye(2), atol=1e-12)
        assert np.allclose(dec.h, np.diag([2.0, 0.5]), atol=1e-12)
        assert np.allclose(dec.u, np.eye(2), atol=1e-12)

    def test_negative_eigenvalue_goes_to_elliptic(self):
        dec = multiplicative_jordan(np.diag([-2.0, -0.5]))
        assert np.allclose(dec.e, np.diag([-1.0, -1.0]), atol=1e-12)
        assert np.allclose(dec.h, np.diag([2.0, 0.5]), atol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            multiplicative_jordan(np.diag([1.0, 0.0]))

    def test_logh_exponentiates_to_h(self, rng, pol):
        for _ in range(8):
            g = random_sl(4, rng)
            dec = multiplicative_jordan(g, pol)
            assert np.allclose(matrix_exp(dec.logH), dec.h, atol=1e-9)
            hw = np.linalg.eigvals(dec.h)
            assert np.all(hw.real > 0) and np.max(np.abs(hw.imag)) < 1e-9

    def test_log_e_power_closed_form(self):
        # e is the rotation by 3 rad in the first plane
        dec = multiplicative_jordan(matrix_exp(x4(1.0, 3.0)))
        j = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        for m in (1, 2, 3, 4):
            expected = math.remainder(3.0 * m, 2 * math.pi) * j
            assert np.allclose(dec.log_e_power(m), expected, atol=1e-12)

    def test_log_e_power_matches_principal_log(self, rng, pol):
        checked = 0
        for _ in range(8):
            dec = multiplicative_jordan(random_sl(4, rng), pol)
            for m in (1, 2, 3):
                try:
                    ref = principal_log(np.linalg.matrix_power(dec.e, m), pol)
                except BranchObstruction:
                    continue
                assert np.allclose(dec.log_e_power(m), ref, atol=1e-8)
                checked += 1
        assert checked >= 12


class TestFlowAt:
    """The flow g^t = exp(tX) and its factors exp(tE), exp(tH), exp(tN);
    in discrete time g^t, e^t, exp(t logH) and exp(t log u)."""

    def test_time_zero_all_identity(self):
        dec = additive_jordan(x5(1.0))
        for m in (dec.X, dec.E, dec.H, dec.N):
            assert np.allclose(matrix_exp(0.0 * m), np.eye(3), atol=1e-14)

    def test_x5_spectral_mapping(self):
        dec = additive_jordan(x5(1.0))
        gt = matrix_exp(dec.X)
        moduli = sorted(np.abs(np.linalg.eigvals(gt)))
        assert np.allclose(
            moduli, sorted([np.exp(-1), np.exp(-1), np.exp(2)]), rtol=1e-10
        )

    def test_x4_commuting_exponentials(self):
        dec = additive_jordan(x4(1, 2))
        gt, et, ht, ut = (matrix_exp(2.0 * m) for m in (dec.X, dec.E, dec.H, dec.N))
        assert np.allclose(gt, matrix_exp(2 * dec.E) @ matrix_exp(2 * dec.H), atol=1e-10)
        assert np.allclose(gt, et @ ht @ ut, atol=1e-10)

    def test_factorization_discrete(self, rng, pol):
        g = random_sl(3, rng)
        dec = multiplicative_jordan(g, pol)
        for t in (1, 2, 5, -3):
            gt = np.linalg.matrix_power(dec.g, t)
            et = np.linalg.matrix_power(dec.e, t)
            ht = matrix_exp(t * dec.logH)
            ut = matrix_exp(t * dec.log_u())
            assert np.allclose(gt, et @ ht @ ut, atol=1e-8)

    def test_discrete_requires_integer_time(self, rng, pol):
        dec = multiplicative_jordan(random_sl(3, rng), pol)
        with pytest.raises(InputError):
            chain_oracle(dec, 64, 0.1, 0.5, pol)

    def test_flow_homomorphism_factorwise(self, pol):
        dec = additive_jordan(x4(1, 2), pol)
        for s, t in [(0.5, 1.5), (2.0, -1.0)]:
            for m in (dec.X, dec.E, dec.H, dec.N):
                lhs = matrix_exp((s + t) * m)
                assert np.allclose(lhs, matrix_exp(s * m) @ matrix_exp(t * m), atol=1e-9)


class TestWedge:
    def test_identity(self):
        assert np.allclose(wedge_representation(np.eye(4), 2), np.eye(6))

    def test_diagonal_monomials(self):
        rho = wedge_representation(np.diag([2.0, 3.0, 5.0]), 2)
        assert np.allclose(rho, np.diag([6.0, 10.0, 15.0]))

    def test_unipotent_stays_unipotent(self, pol):
        g = matrix_exp(x2())  # unipotent 3x3 Jordan block exp
        rho = wedge_representation(g, 2)
        assert nilpotency_index(rho - np.eye(3), pol) < 3

    def test_multiplicative(self, rng):
        g1 = rng.normal(size=(4, 4))
        g2 = rng.normal(size=(4, 4))
        lhs = wedge_representation(g1 @ g2, 2)
        rhs = wedge_representation(g1, 2) @ wedge_representation(g2, 2)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_infinitesimal_zero_and_diagonal(self):
        assert np.allclose(wedge_infinitesimal(np.zeros((3, 3)), 2), 0)
        d = wedge_infinitesimal(np.diag([1.0, 2.0, 4.0]), 2)
        assert np.allclose(d, np.diag([3.0, 5.0, 6.0]))

    def test_infinitesimal_exponentiates(self, rng):
        x = random_sl_alg(5, rng)
        lhs = matrix_exp(wedge_infinitesimal(x, 2))
        rhs = wedge_representation(matrix_exp(x), 2)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_nilpotent_power_bound(self):
        # X2^3 = 0 and p = 2, so the derived action is nilpotent with
        # index at most p*l = 6; measure the actual index directly
        d = wedge_infinitesimal(x2(), 2)
        powers = [np.linalg.matrix_power(d, k) for k in range(1, 7)]
        assert np.allclose(powers[-1], 0, atol=1e-12)
        index = next(k for k, p in enumerate(powers, start=1) if np.allclose(p, 0, atol=1e-12))
        assert index <= 2 * 2

    def test_jordan_wedge_compatibility(self, rng, pol):
        g = random_sl(4, rng, spread=0.7)
        dec = multiplicative_jordan(g, pol)
        rho = wedge_representation(g, 2)
        wdec = multiplicative_jordan(rho, pol)
        assert np.allclose(wdec.e, wedge_representation(dec.e, 2), atol=1e-8)
        assert np.allclose(wdec.h, wedge_representation(dec.h, 2), atol=1e-8)
        assert np.allclose(wdec.u, wedge_representation(dec.u, 2), atol=1e-8)


class TestSpectralRadiusFlow:
    def test_radius_of_flow(self):
        dec = additive_jordan(x5(1.0))
        gt = matrix_exp(3.0 * dec.X)
        assert max(abs(np.linalg.eigvals(gt))) == pytest.approx(np.exp(6.0), rel=1e-9)
