import numpy as np
import pytest
from hypothesis import given, strategies as st

import scipy.linalg as sla

from jordanflow import (
    BranchObstruction,
    IllConditioned,
    InputError,
    NonConvergence,
    NotNilpotent,
    Overflow,
    TolerancePolicy,
    complex_spectrum,
    matrix_exp,
    nilpotency_index,
    principal_log,
    unipotent_log,
)
from jordanflow.matrixcore import _cluster_eigenvalues
from jordanflow.report import spectrum_dict
from oracles import (
    cluster_eigenvalues_union_find,
    companion,
    complex_spectrum_ordered_schur,
    exp_series,
    hermite_projection,
    rotation_scale_exp,
)
from systems import x1, x2, x3, x4


def find_cluster(data, z, tol=1e-6):
    for c in data.clusters:
        if abs(complex(c.eigenvalue) - z) < tol:
            return c
    raise AssertionError(f"no cluster near {z}: {[c.eigenvalue for c in data.clusters]}")


class TestComplexSpectrum:
    def test_x1_coordinate_projections(self):
        data = complex_spectrum(x1(1, 2))
        assert len(data.clusters) == 3
        for lam, axis in [(-1, 0), (-2, 1), (3, 2)]:
            c = find_cluster(data, lam)
            assert c.multiplicity == 1
            expected = np.zeros((3, 3))
            expected[axis, axis] = 1.0
            assert np.allclose(c.projection, expected, atol=1e-12)

    def test_identity_single_cluster(self):
        data = complex_spectrum(np.eye(3))
        assert len(data.clusters) == 1
        c = data.clusters[0]
        assert c.eigenvalue == 1.0 and c.multiplicity == 3
        assert np.allclose(c.projection, np.eye(3))

    def test_companion_matrix_vs_hermite_oracle(self):
        # (x-1)^2 (x+2) = x^3 - 3x + 2.  The double root is defective, so it
        # splits numerically by ~sqrt(machine eps); resolving it as one
        # cluster needs the user-visible tolerance above that scale.
        a = companion([2.0, -3.0, 0.0])
        pol = TolerancePolicy(cluster_tol=1e-6)
        data = complex_spectrum(a, pol)
        c1 = find_cluster(data, 1.0)
        c2 = find_cluster(data, -2.0)
        assert c1.multiplicity == 2
        assert c2.multiplicity == 1
        spectrum = [(1.0, 2), (-2.0, 1)]
        p1 = hermite_projection(a, [1.0], spectrum)
        p2 = hermite_projection(a, [-2.0], spectrum)
        assert np.allclose(c1.projection, p1, atol=1e-7)
        assert np.allclose(c2.projection, p2, atol=1e-7)

    def test_conjugate_pair_real_projection(self):
        data = complex_spectrum(x4(1, 2))
        pair = find_cluster(data, -1 + 2j)
        assert pair.is_pair and pair.multiplicity == 2
        expected = np.diag([1.0, 1.0, 0.0])
        assert np.allclose(pair.projection, expected, atol=1e-12)

    def test_invariants_random(self, rng, pol):
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            data = complex_spectrum(a, pol)
            res = data.residuals
            assert max(res.values()) < 1e-8 * max(1.0, np.linalg.norm(a, 2))
            assert sum(c.multiplicity for c in data.clusters) == 4

    def test_report_reads_stored_residuals(self, rng, pol, monkeypatch):
        import jordanflow.matrixcore as mc

        data = complex_spectrum(rng.normal(size=(4, 4)), pol)

        def refuse(a):
            raise AssertionError("spectral residuals recomputed")

        monkeypatch.setattr(mc, "opnorm", refuse)
        assert spectrum_dict(data)["residuals"] == data.residuals

    @pytest.mark.parametrize("n", [2, 12])
    def test_batched_certificate(self, n, monkeypatch):
        """At most five 2-norm calls per spectrum, whatever the number of
        clusters."""
        calls = []
        norm = np.linalg.norm

        def counting(*args, **kwargs):
            calls.append(args[0])
            return norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting)
        data = complex_spectrum(np.diag(np.arange(1.0, n + 1)))
        assert len(data.clusters) == n
        assert len(calls) <= 5

    def test_relative_clustering_merges(self, pol):
        a = np.diag([1.0, 1.0 + 1e-10, 5.0])
        data = complex_spectrum(a, pol)
        assert sorted(c.multiplicity for c in data.clusters) == [1, 2]

    def test_entangled_close_clusters_reported(self):
        # eigenvalues separated at cluster_tol but strongly coupled: the
        # invariant subspaces are nearly parallel, projection norms blow up
        a = np.array([[1.0, 1e8], [0.0, 1.0 + 1e-6]])
        with pytest.raises(IllConditioned) as err:
            complex_spectrum(a)
        assert "projection_norm" in err.value.margins

    def test_dimension_cap(self):
        with pytest.raises(InputError):
            complex_spectrum(np.eye(13))


def _planted_spectrum(rng, n):
    """n // 3 rotation pairs and distinct real rates in a random frame."""
    pairs = n // 3
    rates = 0.4 * np.arange(n - pairs, 0, -1) + rng.uniform(-0.1, 0.1, n - pairs)
    d = np.zeros((n, n))
    i = 0
    for k, r in enumerate(rates):
        if k < pairs:
            w = rng.uniform(0.5, 2.0)
            d[i : i + 2, i : i + 2] = [[r, -w], [w, r]]
            i += 2
        else:
            d[i, i] = r
            i += 1
    c = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    return c @ d @ np.linalg.inv(c)


def _spectrum_families():
    rng = np.random.default_rng(7)
    for n in range(2, 13):
        c = rng.normal(size=(n, n))
        ci = np.linalg.inv(c)
        jordan = 0.7 * np.eye(n) + np.diag(np.ones(n - 1), 1)
        repeated = np.diag(np.repeat(rng.normal(size=(n + 1) // 2), 2)[:n])
        yield f"planted-{n}", _planted_spectrum(rng, n)
        yield f"random-{n}", rng.normal(size=(n, n))
        yield f"repeated-{n}", c @ repeated @ ci
        yield f"jordan-{n}", c @ jordan @ ci
        yield f"jordan-block-{n}", jordan
        yield f"orthogonal-{n}", np.linalg.qr(rng.normal(size=(n, n)))[0]
        yield f"diagonal-{n}", np.diag(rng.normal(size=n))
        yield f"identity-{n}", np.eye(n)
    # drawn from their own stream so the families above keep their matrices
    rng = np.random.default_rng(11)
    for n in range(2, 13):
        c = np.eye(n) + 0.3 * rng.normal(size=(n, n))
        ci = np.linalg.inv(c)
        yield f"chain-{n}", c @ np.diag(_near_tie_chain(rng, n, 1e-8)) @ ci
        yield f"near-real-{n}", c @ _near_real_pairs(rng, n, 1e-8) @ ci


def _near_tie_chain(rng, n, tol):
    """n reals around 1: a chain of near-ties spaced 0.6-2 gaps apart (the
    chain breaks where a spacing exceeds the gap), in random order."""
    steps = rng.uniform(0.6, 2.0, n - 1) * tol * (1.0 + n * tol)
    return rng.permutation(1.0 + np.concatenate([[0.0], np.cumsum(steps)]))


def _near_real_pairs(rng, n, tol):
    """Blocks r +- i d with d within a few gaps of zero, their real parts a
    near-tie chain; a trailing real when n is odd."""
    d = np.zeros((n, n))
    rates = _near_tie_chain(rng, (n + 1) // 2, tol)
    for k, r in enumerate(rates):
        i = 2 * k
        if i + 1 < n:
            w = rng.uniform(0.1, 3.0) * tol
            d[i : i + 2, i : i + 2] = [[r, -w], [w, r]]
        else:
            d[i, i] = r
    return d


def _outcome(fn, a):
    try:
        return fn(a)
    except IllConditioned as exc:
        return type(exc), str(exc), exc.margins


class TestOneSchurForm:
    """complex_spectrum reorders one real Schur form per matrix with dtrsen;
    the per-cluster ordered schur() it replaced is the reference."""

    @pytest.mark.parametrize("name,a", list(_spectrum_families()))
    def test_bitwise_equal_to_ordered_schur(self, name, a):
        got = _outcome(complex_spectrum, a)
        want = _outcome(complex_spectrum_ordered_schur, a)
        if isinstance(want, tuple):
            assert got == want
            return
        assert got.matrix.tobytes() == want.matrix.tobytes()
        assert got.residuals == want.residuals
        assert got.cluster_tol == want.cluster_tol
        assert len(got.clusters) == len(want.clusters)
        for c, r in zip(got.clusters, want.clusters):
            assert (c.eigenvalue, c.multiplicity, c.is_pair, c.members) == (
                r.eigenvalue,
                r.multiplicity,
                r.is_pair,
                r.members,
            )
            for f in ("projection", "basis", "left", "block"):
                x, y = getattr(c, f), getattr(r, f)
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), f

    def test_one_schur_call_per_matrix(self, monkeypatch):
        a = _planted_spectrum(np.random.default_rng(3), 9)
        calls = []
        schur = sla.schur

        def counting(*args, **kwargs):
            calls.append(kwargs.get("sort"))
            return schur(*args, **kwargs)

        monkeypatch.setattr(sla, "schur", counting)
        data = complex_spectrum(a)
        assert len(data.clusters) == 6
        assert calls == [None]

    def test_reordering_failure_is_nonconvergence(self, monkeypatch):
        dtrsen = sla.lapack.dtrsen

        def failing(select, *args, **kwargs):
            out = dtrsen(select, *args, **kwargs)
            return (*out[:-1], 1 if np.any(select) else out[-1])

        monkeypatch.setattr(sla.lapack, "dtrsen", failing)
        with pytest.raises(NonConvergence):
            complex_spectrum(x1(1, 2))

    def test_selection_not_leading_is_nonconvergence(self, monkeypatch):
        """A reordering that leaves a selected eigenvalue behind an
        unselected one is refused, as dgees refuses it."""
        dtrsen = sla.lapack.dtrsen

        def ignoring(select, *args, **kwargs):
            return dtrsen(np.zeros_like(select), *args, **kwargs)

        monkeypatch.setattr(sla.lapack, "dtrsen", ignoring)
        with pytest.raises(NonConvergence):
            complex_spectrum(np.diag([1.0, 2.0, 3.0]))

    def test_pair_selected_by_either_member(self, monkeypatch):
        """As in dgees's recount, a conjugate pair counts twice when only one
        member's eigenvalue lies nearest the cluster."""
        want = complex_spectrum(x4(1, 2))
        dtrsen = sla.lapack.dtrsen

        def second_member_elsewhere(select, *args, **kwargs):
            t, z, wr, wi, *rest = dtrsen(select, *args, **kwargs)
            if np.sum(select) == 2:  # the pair -1 +- 2i, reordered first
                wr, wi = wr.copy(), wi.copy()
                wr[1], wi[1] = 2.0, -1e-300  # nearest the other cluster, 2
            return (t, z, wr, wi, *rest)

        monkeypatch.setattr(sla.lapack, "dtrsen", second_member_elsewhere)
        got = complex_spectrum(x4(1, 2))
        for c, r in zip(got.clusters, want.clusters):
            assert c.projection.tobytes() == r.projection.tobytes()


def _label_spectra(rng, count):
    """(eigenvalues, cluster_tol) draws for the clustering property test:
    spectra of random matrices, near-tie chains, near-real conjugate pairs
    and values rounded to one decimal (exact ties, distances at the gap)."""
    for i in range(count):
        n = int(rng.integers(2, 13))
        tol = float(10.0 ** -rng.integers(2, 11))
        kind = i % 4
        if kind == 0:
            w = np.linalg.eigvals(rng.normal(size=(n, n)))
        elif kind == 1:
            scale = 10.0 ** rng.uniform(-1, 2)
            w = scale * _near_tie_chain(rng, n, tol)
            w = w + 1j * scale * rng.uniform(0, 1) * (rng.random() < 0.5)
        elif kind == 2:
            w = np.linalg.eigvals(_near_real_pairs(rng, n, tol))
        else:
            tol = float(rng.choice([0.05, 0.1, 0.2]))
            w = np.round(rng.normal(size=n), 1) + 1j * np.round(rng.normal(size=n), 1) * (
                rng.random(n) < 0.5
            )
            w = w[rng.permutation(n)]
        yield w, tol


class TestClusterEigenvalues:
    """Clusters are the classes of the transitive closure of closeness; the
    union-find the closure replaced is the reference."""

    def test_equal_to_union_find(self):
        rng = np.random.default_rng(2025)
        for w, tol in _label_spectra(rng, 10_000):
            want = np.empty(len(w), dtype=int)
            for gi, idx in enumerate(cluster_eigenvalues_union_find(w, tol)):
                want[idx] = gi
            assert _cluster_eigenvalues(w, tol).tolist() == want.tolist(), (w, tol)

    def test_chain_is_one_cluster(self):
        """a ~ b ~ c ~ d joins one cluster though |a - d| is three gaps."""
        w = np.array([1.0 + 3e-8, 5.0, 1.0, 1.0 + 2e-8, 1.0 + 1e-8])
        assert _cluster_eigenvalues(w, 1.5e-8).tolist() == [0, 1, 0, 0, 0]


class TestMatrixExp:
    def test_zero(self):
        assert np.allclose(matrix_exp(np.zeros((2, 2))), np.eye(2))

    def test_nilpotent_block(self):
        n = np.array([[0.0, 1], [0, 0]])
        assert np.allclose(matrix_exp(n), [[1, 1], [0, 1]])

    def test_quarter_turn_closed_form(self):
        got = matrix_exp(x4(0.0, np.pi / 2))
        assert np.allclose(got, rotation_scale_exp(0.0, np.pi / 2, 1.0), atol=1e-12)

    def test_against_series_oracle(self, rng):
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            assert np.allclose(matrix_exp(a), exp_series(a), atol=1e-10)

    def test_overflow_budget(self):
        with pytest.raises(Overflow):
            matrix_exp(np.diag([800.0, -800.0]))


class TestPrincipalLog:
    def test_identity(self):
        assert np.allclose(principal_log(np.eye(3)), np.zeros((3, 3)))

    def test_unipotent_series_one_term(self):
        u = np.array([[1.0, 1], [0, 1]])
        assert np.allclose(principal_log(u), [[0, 1], [0, 0]], atol=1e-14)

    def test_exp_log_round_trip_x1(self):
        g = matrix_exp(x1(1, 2))
        assert np.allclose(principal_log(g), x1(1, 2), atol=1e-10)

    def test_round_trip_random_principal_strip(self, rng):
        for _ in range(10):
            a = 0.5 * rng.normal(size=(4, 4))
            assert np.allclose(principal_log(matrix_exp(a)), a, atol=1e-7)

    def test_negative_axis_obstruction(self):
        with pytest.raises(BranchObstruction):
            principal_log(np.diag([-1.0, -1.0]))

    def test_unipotent_log_terminates(self, pol):
        u = np.eye(3)
        u[0, 1] = 2.0
        u[1, 2] = -1.0
        log_u = unipotent_log(u, pol)
        assert np.allclose(matrix_exp(log_u), u, atol=1e-12)


class TestNilpotencyIndex:
    def test_examples(self):
        assert nilpotency_index(np.zeros((3, 3))) == 0
        assert nilpotency_index(x2()) == 2
        assert nilpotency_index(x3()) == 1

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            nilpotency_index(np.diag([1.0, 2.0]))

    def test_large_norm_nilpotent(self):
        n = np.array([[0.0, 1e9], [0, 0]])
        assert nilpotency_index(n) == 1


class TestTolerancePolicy:
    @given(
        c=st.floats(1e-12, 1e-2),
        r=st.floats(1e-15, 1e-3),
        s=st.floats(1e-12, 1e-2),
    )
    def test_valid_policies(self, c, r, s):
        p = TolerancePolicy(cluster_tol=c, residual_tol=r, sim_tol=s)
        assert p.cluster_tol == c

    @given(bad=st.floats(max_value=0.0, allow_nan=False))
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(InputError):
            TolerancePolicy(cluster_tol=bad)

    def test_below_machine_resolution_rejected(self):
        with pytest.raises(InputError):
            TolerancePolicy(cluster_tol=1e-15)

    def test_sim_tol_half_rejected(self):
        # coordinate masses are integers: 0.5 cannot separate components
        with pytest.raises(InputError):
            TolerancePolicy(sim_tol=0.5)

    @pytest.mark.parametrize("field", ["cluster_tol", "residual_tol", "sim_tol"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(InputError):
            TolerancePolicy(**{field: bad})
