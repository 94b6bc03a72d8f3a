import math
import tracemalloc

import numpy as np
import pytest

import jordanflow.floquet as fq
from jordanflow import (
    Flag,
    GridTooLarge,
    InputError,
    NoRealLog,
    PeriodicCoefficient,
    ProjectivePoint,
    StiffnessSuspected,
    additive_jordan,
    classify_flow,
    enumerate_morse_components,
    floquet_data,
    floquet_generator,
    floquet_morse_components,
    height_lyapunov,
    integrate_fundamental,
    matrix_exp,
    periodic_factor,
    rate_filtration,
)
from jordanflow.flags import random_flag
from oracles import (
    _coefficient_value_reference,
    integrate_fundamental_extended,
    integrate_fundamental_reference,
    projective_distance,
    skew_step,
)
from systems import E1, E2, E3, x1, x4

ZERO3 = np.zeros((3, 3))

#: Monodromy of the benchmark's seed-27 ``n4-h1-s4096`` coefficient, drawn by
#: ``bench/jobs.py`` from ``np.random.default_rng([27, 3])`` and integrated
#: with 4096 RK4 steps.  A generator taken through scipy's ``logm`` changes
#: in its last bits with numpy's global RNG state on this input.
SEED27_MONODROMY = np.array(
    [
        [1.4607835805624565, 0.33117658396151484, -0.36550705882072865, 0.2057095780513973],
        [-0.31086060662230713, 0.4180989846871032, 0.12161030890745061, -0.6074123014518877],
        [-0.4495752735687831, 0.4578228760501979, 0.7766505835677255, 0.06652778024924878],
        [-0.41607314852054655, 0.39293690810324317, -0.24097236427446464, 1.1703256331077534],
    ]
)


def constant_system(mat, period=1.0):
    return PeriodicCoefficient(period=period, a0=mat, harmonics=())


def scalar_modulated(mat, period=1.0, amp=0.5):
    return PeriodicCoefficient(
        period=period, a0=mat, harmonics=((1, amp * mat, ZERO3),)
    )


def random_coefficient(rng, n, harmonics, period, scale=1.0):
    """Traceless A0 of scale 0.5 and ``harmonics`` distinct harmonics of
    scale 0.3 (times ``scale``), with indices in 1..8."""

    def traceless(s):
        m = s * scale * rng.standard_normal((n, n))
        return m - np.trace(m) / n * np.eye(n)

    ks = sorted(rng.choice(np.arange(1, 9), harmonics, replace=False).tolist())
    return PeriodicCoefficient(
        period=period,
        a0=traceless(0.5),
        harmonics=tuple((k, traceless(0.3), traceless(0.3)) for k in ks),
    )


#: (n, harmonics, steps) of the benchmark's floquet shapes; ``harmonics``
#: None is a rotation by pi in the first plane (m = 2)
BENCHMARK_SHAPES = [
    (2, 0, 1024), (2, 1, 2048), (2, None, 2048), (3, 0, 1024), (3, 2, 2048),
    (3, 3, 2048), (3, None, 2048), (4, 1, 4096), (4, 3, 1024),
]


def benchmark_coefficient(n, harmonics, steps):
    """One coefficient of a ``BENCHMARK_SHAPES`` shape, seeded by the shape."""
    if harmonics is None:
        x0 = np.zeros((n, n))
        x0[0, 1], x0[1, 0] = -math.pi, math.pi
        x0[2:, 2:] += 0.4 * np.eye(n - 2)
        x0[:2, :2] -= 0.2 * (n - 2) * np.eye(2)
        return PeriodicCoefficient(1.0, x0, ((1, 0.4 * x0, np.zeros((n, n))),))
    return random_coefficient(np.random.default_rng([23, n, steps]), n, harmonics, 1.0)


def generic_system(period=1.0):
    """Non-commuting trig-polynomial coefficients."""
    a1 = np.array([[0.0, 0.4, 0], [0, 0, 0], [0.2, 0, 0]])
    a1 -= np.trace(a1) / 3 * np.eye(3)
    b1 = np.array([[0.0, 0, 0], [0.3, 0, 0.1], [0, -0.2, 0]])
    b1 -= np.trace(b1) / 3 * np.eye(3)
    return PeriodicCoefficient(
        period=period, a0=x4(0.4, 0.8), harmonics=((1, a1, b1),)
    )


class TestPeriodicCoefficient:
    def test_evaluation(self):
        coef = scalar_modulated(x4(1, 2))
        assert np.allclose(coef.value(0.0), 1.5 * x4(1, 2))
        assert np.allclose(coef.value(0.5), 0.5 * x4(1, 2))

    def test_trace_enforced(self):
        with pytest.raises(InputError):
            constant_system(np.eye(3))

    def test_harmonic_budget(self):
        harm = tuple((k, ZERO3, ZERO3) for k in range(1, 18))
        with pytest.raises(InputError):
            PeriodicCoefficient(period=1.0, a0=x4(1, 2), harmonics=harm)

    @pytest.mark.parametrize(
        "harmonics", [((1.5, ZERO3, ZERO3),), ((True, ZERO3, ZERO3),), 5, None]
    )
    def test_harmonic_index_integer_and_harmonics_a_sequence(self, harmonics):
        with pytest.raises(InputError):
            PeriodicCoefficient(1.0, x4(1, 2), harmonics)

    def test_numpy_integer_harmonic_index_accepted(self):
        coef = PeriodicCoefficient(1.0, x4(1, 2), ((np.int64(2), ZERO3, ZERO3),))
        assert type(coef.harmonics[0][0]) is int

    def test_period_positive(self):
        with pytest.raises(InputError):
            constant_system(x4(1, 2), period=-1.0)

    @pytest.mark.parametrize("period", [np.inf, np.nan])
    def test_period_finite(self, period):
        with pytest.raises(InputError):
            constant_system(x4(1, 2), period=period)

    def test_table_rows_bitwise_equal_to_one_time_values(self):
        rng = np.random.default_rng(11)
        coef = random_coefficient(rng, 4, 5, 2.5)
        times = rng.uniform(-3.0, 7.0, 200).tolist() + [0.0, 2.5, 1e-300]
        table = coef.table(times)
        assert table.shape == (len(times), 4, 4)
        for t, row in zip(times, table):
            assert row.tobytes() == _coefficient_value_reference(coef, t).tobytes()
            assert coef.value(t).tobytes() == row.tobytes()

    def test_table_takes_its_trig_from_math(self, monkeypatch):
        """np.cos agrees with math.cos bitwise on some platforms only; a
        perturbed math.cos and math.sin show which functions the table calls."""
        cos, sin = math.cos, math.sin
        monkeypatch.setattr(math, "cos", lambda x: cos(x) + 2.0**-20)
        monkeypatch.setattr(math, "sin", lambda x: sin(x) - 2.0**-20)
        coef = random_coefficient(np.random.default_rng(12), 3, 2, 1.0)
        times = [0.0, 0.1, 0.25, 0.7]
        for t, row in zip(times, coef.table(times)):
            assert row.tobytes() == _coefficient_value_reference(coef, t).tobytes()


class TestIntegrateFundamental:
    def test_constant_coefficients_autonomous(self):
        fund = integrate_fundamental(constant_system(x4(1, 2)), 1024)
        assert np.linalg.norm(fund.monodromy - matrix_exp(x4(1, 2))) < 1e-8
        assert fund.det_drift < 1e-9

    def test_scalar_modulated_closed_form(self):
        # X(t) = c(t) X0 with commuting values: g(T) = exp((int c) X0)
        coef = scalar_modulated(x4(1, 2), amp=0.5)
        fund = integrate_fundamental(coef, 1024)
        assert np.linalg.norm(fund.monodromy - matrix_exp(x4(1, 2))) < 1e-8
        # and mid-period: int_0^(1/2) (1 + 0.5 cos 2 pi s) ds = 1/2
        g_half = fund.at(0.5)
        assert np.linalg.norm(g_half - matrix_exp(0.5 * x4(1, 2))) < 1e-8

    def test_cocycle_property(self):
        fund = integrate_fundamental(generic_system(), 1024)
        mono = fund.monodromy
        worst = max(
            np.linalg.norm(fund.at(t + 1.0) - fund.at(t) @ mono)
            for t in np.linspace(0.0, 1.0, 33)
        )
        assert worst <= 1e-6

    def test_fourth_order_convergence(self):
        coef = generic_system()
        ref = integrate_fundamental(coef, 4096).monodromy
        e1 = np.linalg.norm(integrate_fundamental(coef, 256).monodromy - ref)
        e2 = np.linalg.norm(integrate_fundamental(coef, 512).monodromy - ref)
        assert e1 / e2 >= 8.0

    def test_min_steps(self):
        with pytest.raises(InputError):
            integrate_fundamental(constant_system(x4(1, 2)), 32)

    def test_stiffness_guard(self):
        with pytest.raises(StiffnessSuspected):
            integrate_fundamental(constant_system(60.0 * x4(1, 2)), 64)

    def test_dense_output_negative_time(self):
        fund = integrate_fundamental(constant_system(x4(1, 2)), 512)
        target = matrix_exp(-0.7 * x4(1, 2))
        assert np.linalg.norm(fund.at(-0.7) - target) < 1e-7


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


B = fq._BLOCK


#: Listed shapes on which the reference itself is off by more than 1e-12 of
#: max |g|, with their own fixed bars: (samples, derivatives and error
#: estimate relative to max |g|, det_drift).  The reference projects each
#: step by the determinant of the sample, whose rounding grows with the
#: sample's condition number (8.7e5 on (6, 5, 6.0, 65)); measured there,
#: the product form differs from it by 2.1e-12 (derivatives 4.0e-12,
#: det_drift 2.5e-11) but from RK4 in extended precision by 4.5e-15, and
#: the reference from that by 2.1e-12 (``test_close_to_extended_precision``).
REFERENCE_OFF = {(6, 5, 6.0, 65): (5e-12, 5e-11)}


class TestTabulatedIntegrator:
    """integrate_fundamental forms each block's RK4 step matrices as batched
    products and keeps one n x n product per step in sequence.  The
    step-by-step RK4 it replaced is the reference, up to rounding."""

    def assert_agrees(self, coef, steps, bar=1e-12, drift_bar=1e-12):
        got = integrate_fundamental(coef, steps)
        want = integrate_fundamental_reference(coef, steps)
        tol = bar * float(np.max(np.abs(want.samples)))
        for field in ("samples", "derivatives"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.shape == b.shape, field
            assert float(np.max(np.abs(a - b))) <= tol, field
        assert abs(got.error_estimate - want.error_estimate) <= tol
        assert abs(got.det_drift - want.det_drift) <= drift_bar

    @pytest.mark.parametrize(
        "n,harmonics,period,steps",
        [
            (2, 0, 1.0, 64),
            (3, 1, 0.37, B - 1),
            (4, 2, 2.5, B),
            (5, 3, 1.0, B + 1),
            (6, 5, 6.0, 65),
            (2, 4, 0.37, 333),
            (3, 5, 1.0, 2 * B + 7),
            (4, 0, 2.5, B + 1),
            (6, 1, 1.0, B - 1),
            (5, 4, 0.37, 1025),
        ],
    )
    def test_bitwise_equal_to_step_by_step(self, n, harmonics, period, steps):
        """Samples, derivatives and error estimate within 1e-12 of max |g| of
        the reference, det_drift within 1e-12; REFERENCE_OFF has the one
        shape with its own bars."""
        rng = np.random.default_rng([n, harmonics, steps])
        coef = random_coefficient(rng, n, harmonics, period)
        bars = REFERENCE_OFF.get((n, harmonics, period, steps), ())
        self.assert_agrees(coef, steps, *bars)

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_step_by_step_on_orthogonal_flows(self, seed):
        """Seeded shapes with n up to 12, periods 0.37-6 and steps on both
        sides of the block boundaries, on skew-symmetric coefficients.  Their
        samples are orthogonal, so the reference's determinant of each
        sample is exact to rounding; on general coefficients at these periods
        the samples reach condition numbers up to 3e9 and the reference is
        what moves (``test_close_to_extended_precision``)."""
        rng = np.random.default_rng([18, seed])
        n = 12 if seed == 0 else int(rng.integers(2, 13))
        harmonics = int(rng.integers(0, 6))
        period = float(rng.uniform(0.37, 6.0))
        steps = int(rng.choice([B - 1, B, B + 1, 2 * B - 1, 2 * B + 1]))
        c = random_coefficient(rng, n, harmonics, period)
        coef = PeriodicCoefficient(
            period=period,
            a0=c.a0 - c.a0.T,
            harmonics=tuple((k, a - a.T, b - b.T) for k, a, b in c.harmonics),
        )
        self.assert_agrees(coef, steps)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant < 63, reason="long double is float64 here"
    )
    @pytest.mark.parametrize(
        "n,harmonics,period,steps",
        [(6, 5, 6.0, 65), (12, 5, 4.41, B), (11, 3, 4.9, B + 1)],
    )
    def test_close_to_extended_precision(self, n, harmonics, period, steps):
        """On flows whose samples reach condition numbers 8.7e5 to 2e8 the
        product form stays within 1e-12 of max |g| of the same RK4 carried
        in long double (measured 4.5e-15, 2.2e-14, 2.5e-13), where the
        float64 reference is 2.1e-12, 3.0e-11 and 6.9e-10 away."""
        rng = np.random.default_rng([n, harmonics, steps])
        coef = random_coefficient(rng, n, harmonics, period)
        want = integrate_fundamental_extended(coef, steps)
        got = integrate_fundamental(coef, steps).samples
        assert float(np.max(np.abs(got - want))) <= 1e-12 * float(np.max(np.abs(want)))

    def test_determinant_stays_near_one(self):
        """Each step is projected by its step matrix's determinant, so det g
        drifts by the rounding of the steps before it: on well-conditioned
        flows at most n * steps * eps (measured up to 0.23 of that)."""
        eps = np.finfo(float).eps
        rc12 = random_coefficient(np.random.default_rng(4), 12, 3, 1.0)
        for coef in (constant_system(x4(1, 2)), generic_system(), rc12):
            for steps in (1024, 4096):
                samples = integrate_fundamental(coef, steps).samples
                dev = float(np.max(np.abs(np.linalg.det(samples) - 1.0)))
                assert dev <= coef.n * steps * eps, (coef.n, steps, dev)

    def test_stiff_input_same_refusal(self):
        coef = constant_system(60.0 * x4(1, 2))
        want = _outcome(integrate_fundamental_reference, coef, 64)
        assert _outcome(integrate_fundamental, coef, 64) == want
        assert want[0] is StiffnessSuspected
        assert want[1].startswith("accumulated error estimate")

    def test_determinant_failure_same_refusal(self):
        """A strong 2x2 coefficient on 64 steps.  Every step matrix has
        det >= 0.996; the reference's negative determinant is that of a
        sample with condition number ~1e17.  The product form refuses the
        input on its accumulated error estimate."""
        coef = random_coefficient(np.random.default_rng(0), 2, 1, 1.0, scale=160.0)
        want = _outcome(integrate_fundamental_reference, coef, 64)
        assert want[0] is StiffnessSuspected
        assert want[1].startswith("determinant -")
        with pytest.raises(StiffnessSuspected, match="^accumulated error estimate"):
            integrate_fundamental(coef, 64)

    def test_non_positive_step_determinant_raises(self):
        """X is 768 diag(1, -1) at t = 1/2 and 0 elsewhere: the step ending
        there has R = I + (h/6) X = diag(3, -1)."""

        class SpikeAtHalfPeriod(PeriodicCoefficient):
            def table(self, times):
                x = super().table(times)
                x[np.asarray(times, dtype=float) == 0.5] = np.diag([768.0, -768.0])
                return x

        coef = SpikeAtHalfPeriod(period=1.0, a0=np.zeros((2, 2)), harmonics=())
        with pytest.raises(StiffnessSuspected, match=r"^determinant -3\.0\d* at t=0\.5;"):
            integrate_fundamental(coef, 64)

    def test_overflowing_prefix_product_raises(self):
        """A nilpotent coefficient: every step matrix is [[1, 3.1e306], [0, 1]],
        finite with determinant 1, and their product overflows by step 58."""
        c = 2.5e307
        coef = constant_system(np.array([[0.0, c], [0.0, 0.0]]), period=8.0)
        with pytest.raises(StiffnessSuspected, match="^sample not finite"):
            integrate_fundamental(coef, 64)

    def test_one_coefficient_value_per_integration(self, monkeypatch):
        calls = []
        value = PeriodicCoefficient.value

        def counting(self, t):
            calls.append(t)
            return value(self, t)

        monkeypatch.setattr(PeriodicCoefficient, "value", counting)
        integrate_fundamental(generic_system(), 1024)
        assert len(calls) <= 1

    def test_one_det_and_one_norm_call_per_block(self, monkeypatch):
        coef = generic_system()
        calls = {"det": 0, "norm": 0}

        def counting(name):
            fn = getattr(np.linalg, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, wrapped)

        counting("det")
        counting("norm")
        integrate_fundamental(coef, 2 * B + 7)
        assert calls == {"det": 3, "norm": 3}

    def test_step_matrices_live_per_block(self):
        n, steps = 12, 4 * B
        coef = random_coefficient(np.random.default_rng(12), n, 3, 1.0, scale=0.5)
        tracemalloc.start()
        try:
            integrate_fundamental(coef, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (2 * (steps + 1) + 32 * B) * n * n * 8

    def test_non_finite_halving_difference_raises(self):
        """X is NaN at t + h/4, which only the half steps read: every full
        step and its determinant stay finite, and the block's norms must not
        reach the SVD."""

        class NanAtQuarterSteps(PeriodicCoefficient):
            def table(self, times):
                x = super().table(times)
                x[(np.asarray(times, dtype=float) * 64) % 1 == 0.25] = np.nan
                return x

        coef = NanAtQuarterSteps(period=1.0, a0=x4(1, 2), harmonics=())
        with pytest.raises(StiffnessSuspected, match="not finite"):
            integrate_fundamental(coef, 64)

    def test_sample_budget(self):
        n = 12
        limit = fq.SAMPLE_BUDGET // (2 * n * n * 8) - 1
        assert 2 * (limit + 1) * n * n * 8 <= fq.SAMPLE_BUDGET
        assert 2 * (limit + 2) * n * n * 8 > fq.SAMPLE_BUDGET
        with pytest.raises(GridTooLarge):
            integrate_fundamental(constant_system(np.zeros((n, n))), limit + 1)


class TestFloquetGenerator:
    def test_identity(self):
        m, x, _ = floquet_generator(np.eye(3), 1.0)
        assert m == 1
        assert np.allclose(x, 0, atol=1e-12)

    def test_exp_roundtrip(self):
        mono = matrix_exp(x1(1, 2))
        m, x, _ = floquet_generator(mono, 1.0)
        assert m == 1
        assert np.allclose(x, x1(1, 2), atol=1e-9)

    def test_rotation_by_pi_needs_doubling(self):
        mono = np.diag([-1.0, -1.0, 1.0])
        m, x, _ = floquet_generator(mono, 1.0)
        assert m == 2
        assert np.isrealobj(x)
        assert np.linalg.norm(
            np.linalg.matrix_power(mono, m) - matrix_exp(m * 1.0 * x)
        ) < 1e-9

    def test_quarter_rotation_no_doubling(self):
        block = np.eye(3)
        block[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
        m, x, _ = floquet_generator(block, 1.0)
        assert m == 1
        dec = additive_jordan(x)
        assert np.linalg.norm(dec.H) < 1e-9 and np.linalg.norm(dec.N) < 1e-9

    def test_byte_identical_across_global_rng_states(self):
        state = np.random.get_state()
        try:
            generators = set()
            for s in range(8):
                np.random.seed(s)
                m, x, _ = floquet_generator(SEED27_MONODROMY, 1.0)
                generators.add((m, x.tobytes()))
        finally:
            np.random.set_state(state)
        assert len(generators) == 1

    def test_budget_exhaustion_raises(self, monkeypatch):
        import jordanflow.floquet as fl

        monkeypatch.setattr(fl, "MAX_M", 1)
        with pytest.raises(NoRealLog):
            floquet_generator(np.diag([-1.0, -1.0, 1.0]), 1.0)

    def test_determinant_checked(self):
        with pytest.raises(InputError):
            floquet_generator(np.diag([2.0, 2.0, 1.0]), 1.0)


class TestPeriodicFactor:
    def test_constant_coefficients_identity(self):
        fund = integrate_fundamental(constant_system(x4(1, 2)), 1024)
        fd = floquet_data(fund)
        worst = max(
            np.linalg.norm(periodic_factor(fund, fd, t) - np.eye(3))
            for t in np.linspace(0.0, 3.0, 31)
        )
        assert worst < 1e-7

    def test_a_zero_is_identity(self):
        fund = integrate_fundamental(generic_system(), 1024)
        fd = floquet_data(fund)
        assert np.linalg.norm(periodic_factor(fund, fd, 0.0) - np.eye(3)) < 1e-12

    def test_periodicity_and_reconstruction(self):
        fund = integrate_fundamental(generic_system(), 2048)
        fd = floquet_data(fund)
        mt = fd.skew_period
        for t in np.linspace(0.0, mt, 17):
            a0 = periodic_factor(fund, fd, t)
            a1 = periodic_factor(fund, fd, t + mt)
            assert np.linalg.norm(a0 - a1) < 1e-6
        worst = max(
            np.linalg.norm(fund.at(t) - periodic_factor(fund, fd, t) @ matrix_exp(t * fd.X))
            for t in np.linspace(0.0, 3 * mt, 64)
        )
        assert worst <= 1e-6

    def test_continuity_sampled(self):
        fund = integrate_fundamental(generic_system(), 1024)
        fd = floquet_data(fund)
        ts = np.linspace(0.0, fd.skew_period, 257)
        values = [periodic_factor(fund, fd, t) for t in ts]
        jumps = [
            np.linalg.norm(b - a) for a, b in zip(values, values[1:])
        ]
        assert max(jumps) < 0.1  # modulus of continuity at this sampling


class TestDenseOutputResidual:
    """``dense_output_residual`` compares the dense output with an RK4 half
    step at grid-step midpoints, so a broken dense output shows in it.  The
    identity g(t) = a(t) e^{tX} holds for any dense output, since a(t) is
    defined from it, so it does not see the defects."""

    #: the bound every benchmark floquet input meets
    BAR = 1e-9

    @pytest.mark.parametrize("n,harmonics,steps", BENCHMARK_SHAPES)
    def test_planted_defects_are_seen(self, n, harmonics, steps, monkeypatch):
        fund = integrate_fundamental(benchmark_coefficient(n, harmonics, steps), steps)
        fd = floquet_data(fund)

        def identity_gap():
            return max(
                np.linalg.norm(fund.at(t) - periodic_factor(fund, fd, t) @ matrix_exp(t * fd.X), 2)
                for t in np.linspace(0.0, 3.0 * fd.skew_period, 8)
            )

        clean = fund.dense_output_residual()
        assert clean <= self.BAR
        hermite, at = fq._hermite, fq.FundamentalSolution.at
        planted = {
            # linear interpolation: the Hermite without its derivative terms
            "_hermite": (fq, lambda g0, d0, g1, d1, h, th: hermite(g0, 0 * d0, g1, 0 * d1, h, th)),
            # the samples of the grid step one index later
            "at": (fq.FundamentalSolution, lambda self, t: at(self, t + self.period / self.steps)),
        }
        for name, (owner, defect) in planted.items():
            with monkeypatch.context() as m:
                m.setattr(owner, name, defect)
                value = fund.dense_output_residual()
                assert identity_gap() <= 1e-6, name
            assert value >= 1e3 * clean and value > self.BAR, name


class TestSkewStep:
    def test_zero_time_identity(self):
        fund = integrate_fundamental(generic_system(), 512)
        fd = floquet_data(fund)
        p = ProjectivePoint(E1 + E2)
        s2, p2 = skew_step(fund, fd, 0.3, p, 0.0)
        assert s2 == pytest.approx(0.3)
        assert projective_distance(p, p2) < 1e-12

    def test_constant_coefficients_reduce_to_flow(self):
        fund = integrate_fundamental(constant_system(x4(1, 2)), 1024)
        fd = floquet_data(fund)
        p = ProjectivePoint(E1 + E3)
        s2, p2 = skew_step(fund, fd, 0.25, p, 2.0)
        expected = ProjectivePoint(matrix_exp(2.0 * x4(1, 2)) @ p.rep)
        assert s2 == pytest.approx((0.25 + 2.0) % fd.skew_period)
        assert projective_distance(p2, expected) < 1e-7

    def test_full_period_applies_monodromy_power(self):
        fund = integrate_fundamental(generic_system(), 1024)
        fd = floquet_data(fund)
        p = ProjectivePoint(E1 + E2 + E3)
        s2, p2 = skew_step(fund, fd, 0.0, p, fd.skew_period)
        expected = ProjectivePoint(
            np.linalg.matrix_power(fd.monodromy, fd.m) @ p.rep
        )
        assert s2 == pytest.approx(0.0)
        assert projective_distance(p2, expected) < 1e-6

    def test_semigroup_sampled(self):
        fund = integrate_fundamental(generic_system(), 1024)
        fd = floquet_data(fund)
        p = ProjectivePoint(np.array([0.3, -0.5, 0.8]))
        s_direct, p_direct = skew_step(fund, fd, 0.1, p, 1.7)
        s_a, p_a = skew_step(fund, fd, 0.1, p, 0.6)
        s_b, p_b = skew_step(fund, fd, s_a, p_a, 1.1)
        assert s_b == pytest.approx(s_direct)
        assert projective_distance(p_b, p_direct) < 1e-6


class TestFloquetMorse:
    def test_constant_coefficients_match_autonomous(self):
        fund = integrate_fundamental(constant_system(x4(1, 2)), 1024)
        fd = floquet_data(fund)
        fmd = floquet_morse_components(fd, (1, 2))
        auto = enumerate_morse_components(
            rate_filtration(additive_jordan(x4(1, 2))), (1, 2)
        )
        assert len(fmd.components) == len(auto) == 3
        assert {c.assignment for c in fmd.components} == {c.assignment for c in auto}

    @pytest.mark.parametrize("n,harmonics,steps", BENCHMARK_SHAPES)
    def test_census_is_the_generator_classification(self, n, harmonics, steps):
        """The benchmark's floquet shapes (``harmonics`` None: a rotation by pi
        in the first plane, m = 2): the census is classify_flow on the
        generator's decomposition, with the flag signature the benchmark
        passes, and lists what the enumerator lists."""
        fd = floquet_data(integrate_fundamental(benchmark_coefficient(n, harmonics, steps), steps))
        if harmonics is None:
            assert fd.m == 2
        dims = (1,) if n == 2 else (1, 2)
        fmd = floquet_morse_components(fd, dims)
        cls = classify_flow(fd.dec, dims)
        assert fmd.components is fmd.classification.components
        assert fmd.components == cls.components
        assert list(fmd.components) == enumerate_morse_components(rate_filtration(fd.dec), dims)
        for field in ("h_regular", "conformal", "eigen_rates", "rate_margin",
                      "pair_margin", "conformal_margin"):
            assert getattr(fmd.classification, field) == getattr(cls, field), field
        assert fmd.classification.filtration.rates == cls.filtration.rates

    def test_census_invariant_under_periodic_modulation(self):
        # same monodromy conjugacy class, different periodic dressing
        for amp in (0.0, 0.3, 0.8):
            coef = scalar_modulated(x4(1, 2), amp=amp)
            fd = floquet_data(integrate_fundamental(coef, 1024))
            fmd = floquet_morse_components(fd, (1,))
            assert len(fmd.components) == 2

    def test_transported_fix_points_are_members(self):
        coef = scalar_modulated(x4(1, 2), amp=0.5)
        fund = integrate_fundamental(coef, 1024)
        fd = floquet_data(fund)
        fmd = floquet_morse_components(fd, (1, 2))
        att = next(i for i, c in enumerate(fmd.components) if c.is_attractor)
        fix = Flag(np.stack([E3, E1], axis=1), (1, 2))
        for s in (0.0, 0.3, 0.9):
            y = Flag(fd.a(s) @ fix.basis, (1, 2))
            assert fmd.membership(s, y, att)
            assert not any(
                fmd.membership(s, y, j)
                for j in range(len(fmd.components))
                if j != att
            )

    def test_skew_recurrence_exact_return(self):
        # rotation angle pi/2 per unit time: the elliptic factor has period 4
        coef = scalar_modulated(x4(1.0, np.pi / 2), amp=0.5)
        fund = integrate_fundamental(coef, 2048)
        fd = floquet_data(fund)
        p = ProjectivePoint(E1 + 0.5 * E2)  # inside the rotation plane
        s, q = 0.25, ProjectivePoint(fd.a(0.25) @ ProjectivePoint(E1 + 0.5 * E2).rep)
        s_t, q_t = s, q
        best = np.inf
        for _ in range(8):
            s_t, q_t = skew_step(fund, fd, s_t, q_t, fd.skew_period)
            if abs((s_t - s) % fd.skew_period) < 1e-9:
                best = min(best, projective_distance(q_t, q))
        assert best < 1e-5

    def test_stable_set_transport(self, rng):
        # an orbit started at (s, a(s)x) with x in the stable set of a base
        # component converges to that component's skew transport
        from jordanflow import bruhat_cell
        from jordanflow.flags import rate_filtration as rf

        coef = scalar_modulated(x4(1, 2), amp=0.5)
        fund = integrate_fundamental(coef, 1024)
        fd = floquet_data(fund)
        fmd = floquet_morse_components(fd, (1, 2))
        filt = rf(fd.dec)
        for _ in range(10):
            x = random_flag(3, (1, 2), rng)
            w = bruhat_cell(x, filt, (1, 2), components=list(fmd.components))
            s = float(rng.uniform(0, fd.skew_period))
            f = Flag(fd.a(s) @ x.basis, (1, 2))
            for _ in range(30):
                s, f = skew_step(fund, fd, s, f, 1.0)
            assert fmd.membership(s, f, w)

    def test_floquet_lyapunov_matches_height_at_zero(self):
        coef = scalar_modulated(x4(1, 2), amp=0.5)
        fund = integrate_fundamental(coef, 1024)
        fd = floquet_data(fund)
        f = Flag(np.stack([E1 + E3, E2], axis=1), (1, 2))
        pulled = Flag(np.linalg.solve(fd.a(0.0), f.basis), f.dims)
        assert height_lyapunov(pulled, fd.dec.H) == pytest.approx(
            height_lyapunov(f, fd.dec.H), abs=1e-9
        )

    def test_floquet_lyapunov_nonincreasing(self, rng):
        coef = scalar_modulated(x4(1, 2), amp=0.5)
        fund = integrate_fundamental(coef, 1024)
        fd = floquet_data(fund)
        for _ in range(5):
            f = random_flag(3, (1, 2), rng)
            s = float(rng.uniform(0, 1))
            vals = []
            for _ in range(30):
                pulled = Flag(np.linalg.solve(fd.a(s), f.basis), f.dims)
                vals.append(height_lyapunov(pulled, fd.dec.H))
                s, f = skew_step(fund, fd, s, f, 0.5)
            assert all(b - a <= 1e-8 for a, b in zip(vals, vals[1:]))

    def test_constant_on_attractor_component(self):
        coef = scalar_modulated(x4(1, 2), amp=0.5)
        fund = integrate_fundamental(coef, 1024)
        fd = floquet_data(fund)
        fix = Flag(np.stack([E3, E2], axis=1), (1, 2))
        vals = []
        s, f = 0.0, Flag(fd.a(0.0) @ fix.basis, (1, 2))
        for _ in range(20):
            pulled = Flag(np.linalg.solve(fd.a(s), f.basis), f.dims)
            vals.append(height_lyapunov(pulled, fd.dec.H))
            s, f = skew_step(fund, fd, s, f, 0.4)
        assert max(vals) - min(vals) < 1e-6
