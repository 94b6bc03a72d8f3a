import dataclasses
import math
import struct
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from jordanflow import (
    Flag,
    GridTooLarge,
    IllConditioned,
    InputError,
    InvariantViolated,
    NotNilpotent,
    ProjectivePoint,
    RankAmbiguous,
    additive_jordan,
    chain_oracle,
    chain_recurrent_membership,
    flag_recurrent_membership,
    matrix_exp,
    multiplicative_jordan,
    rate_filtration,
    recurrent_membership,
    simulate_projective,
    stable_set_index,
    unstable_set_index,
)
from jordanflow import projective
from jordanflow.projective import (
    SUBSTEP_BUDGET,
    _abs_cos,
    _chain_candidates,
    _rate_mean,
    _step_matrix,
    _substeps,
    projective_grid,
)
import oracles
from oracles import projective_distance, unipotent_limit
from systems import E1, E2, E3, random_sl, random_sl_alg, rotation, x2, x4, x5
from test_flags import planted_near_threshold_flag

finite_vectors = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=6,
).filter(lambda v: sum(abs(x) for x in v) > 1e-6)


class TestProjectivePoint:
    @given(v=finite_vectors)
    @settings(max_examples=200, deadline=None)
    def test_canonical_unit_rep(self, v):
        p = ProjectivePoint(v)
        assert np.linalg.norm(p.rep) == pytest.approx(1.0, abs=1e-12)
        # exact binary rescaling (incl. sign flip) normalizes bit-identically,
        # which is what grid deduplication relies on
        q = ProjectivePoint(-4.0 * np.asarray(v))
        assert p == q
        assert hash(p) == hash(q)
        # arbitrary rescaling agrees to rounding
        r = ProjectivePoint(-2.5 * np.asarray(v))
        assert projective_distance(p, r) < 1e-12
        first = next(x for x in p.rep if abs(x) > 1e-12)
        assert first > 0

    def test_zero_rejected(self):
        with pytest.raises(InputError):
            ProjectivePoint([0.0, 0.0])

    def test_immutable(self):
        p = ProjectivePoint(E1)
        with pytest.raises((AttributeError, ValueError)):
            p.rep = np.zeros(3)


class TestProjectiveDistance:
    def test_examples(self):
        p1, p2 = ProjectivePoint(E1), ProjectivePoint(E2)
        assert projective_distance(p1, p1) == 0.0
        assert projective_distance(p1, p2) == pytest.approx(math.sqrt(2))
        mid = ProjectivePoint((E1 + E2) / math.sqrt(2))
        assert projective_distance(p1, mid) == pytest.approx(
            math.sqrt(2 - math.sqrt(2))
        )

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms(self, seed):
        r = np.random.default_rng(seed)
        p, q, s = (ProjectivePoint(r.normal(size=4)) for _ in range(3))
        dpq = projective_distance(p, q)
        assert dpq == pytest.approx(projective_distance(q, p))
        assert dpq <= math.sqrt(2) + 1e-12
        assert dpq <= projective_distance(p, s) + projective_distance(s, q) + 1e-9


class TestMorseComponents:
    """The projective Morse components are the rate frame's blocks, by
    decreasing rate: the first is the attractor, the last the repeller."""

    def test_x4_attractor_repeller(self):
        filt = rate_filtration(additive_jordan(x4(1, 2)))
        assert len(filt.mults) == 2
        assert filt.rates[0] == pytest.approx(2.0) and filt.mults[0] == 1
        assert filt.rates[-1] == pytest.approx(-1.0) and filt.mults[-1] == 2
        assert filt.distances(ProjectivePoint(E3).rep)[0, 0] < 1e-12

    def test_unipotent_single_component(self):
        g = np.array([[1.0, 1], [0, 1]])
        filt = rate_filtration(multiplicative_jordan(g))
        assert len(filt.mults) == 1
        assert filt.mults[0] == 2

    def test_distinct_moduli_point_components(self):
        filt = rate_filtration(multiplicative_jordan(np.diag([3.0, 2.0, 1.0])))
        assert list(filt.mults) == [1, 1, 1]
        assert [round(math.exp(r), 9) for r in filt.rates] == [3.0, 2.0, 1.0]

    def test_multiplicities_must_sum_to_n(self):
        """A rate frame whose multiplicities miss n is refused."""
        dec = additive_jordan(x4(1, 2))
        assert len(rate_filtration(dec).mults) == 2
        last = dec.spectral.clusters[-1]
        clusters = (
            *dec.spectral.clusters[:-1],
            dataclasses.replace(last, multiplicity=last.multiplicity + 1),
        )
        planted = dataclasses.replace(
            dec, spectral=dataclasses.replace(dec.spectral, clusters=clusters)
        )
        with pytest.raises(InvariantViolated):
            rate_filtration(planted)

    def test_moduli_clusters_join_opposite_signs(self):
        filt = rate_filtration(multiplicative_jordan(np.diag([2.0, -2.0, 0.25])))
        assert list(filt.mults) == [2, 1]

    def test_distances_from_the_eigenspaces(self, rng):
        """The chordal distance to each block is the one computed from an
        orthonormal basis of the block's span."""
        filt = rate_filtration(additive_jordan(x5(1.0)))
        pts = np.array([ProjectivePoint(rng.normal(size=3)).rep for _ in range(8)])
        dists = filt.distances(pts)
        assert dists.shape == (len(filt.mults), 8)
        for i, block in enumerate(filt.blocks):
            q = np.linalg.qr(block)[0]
            for j, x in enumerate(pts):
                assert dists[i, j] == pytest.approx(
                    math.sqrt(max(0.0, 2.0 - 2.0 * np.linalg.norm(q.T @ x))), abs=1e-12
                )


class TestRateMean:
    """The rate of a cluster group is ``np.mean`` of its members, bitwise."""

    @given(
        rates=st.lists(
            st.one_of(
                st.floats(-1e6, 1e6),
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308]),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_np_mean(self, rates):
        got = _rate_mean(rates)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", float(np.mean(rates)))

    @pytest.mark.parametrize("x", [-0.0, 0.0, 5e-324, -5e-324, -2.5])
    def test_one_member(self, x):
        assert struct.pack("<d", _rate_mean([x])) == struct.pack("<d", float(np.mean([x])))


class TestStableSetIndex:
    def test_point_in_component_is_fixed(self):
        dec = additive_jordan(x4(1, 2))
        assert stable_set_index(ProjectivePoint(E3), dec) == 0
        assert stable_set_index(ProjectivePoint(E1), dec) == 1

    def test_x5_mixed_point_goes_to_attractor(self, pol):
        dec = additive_jordan(x5(1.0))
        p = ProjectivePoint(E1 + E3)
        idx = stable_set_index(p, dec, pol)
        filt = rate_filtration(dec, pol)
        # derived oracle: simulate and compare
        end = simulate_projective(dec, p, [25.0])[-1]
        dists = list(filt.distances(end.rep)[:, 0])
        assert int(np.argmin(dists)) == idx
        assert dists[idx] < pol.sim_tol

    def test_x4_repeller_complement_logic(self):
        dec = additive_jordan(x4(1, 2))
        p = ProjectivePoint(E1 + E2)
        filt = rate_filtration(dec)
        assert stable_set_index(p, dec) == len(filt.mults) - 1

    def test_unstable_is_last_nonzero(self):
        dec = additive_jordan(x5(1.0))
        assert unstable_set_index(ProjectivePoint(E1 + E3), dec) == 1
        assert unstable_set_index(ProjectivePoint(E3), dec) == 0


def _line_flow(rng):
    """A conjugated block-diagonal flow on R^n, n = 2..12, continuous or
    discrete, whose rates often repeat: real eigenvalues drawn with
    replacement from a small pool and rotation blocks whose real part is one
    of them (in discrete time sometimes a rotation by pi, whose eigenvalue
    -e^a shares its modulus with e^a)."""
    n = int(rng.integers(2, 13))
    discrete = bool(rng.integers(2))
    pool = rng.choice(np.arange(-4, 5) * 0.5, int(rng.integers(1, min(n, 9) + 1)), replace=False)
    x = np.diag(rng.choice(pool, size=n))
    for i in range(0, n - 1, 2):
        if rng.random() < 0.25:
            omega = math.pi if discrete and rng.random() < 0.5 else 1.5
            x[i, i + 1], x[i + 1, i] = -omega, omega
            x[i + 1, i + 1] = x[i, i]
    x -= np.trace(x) / n * np.eye(n)
    c = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / math.sqrt(n)
    x = c @ x @ np.linalg.inv(c)
    return multiplicative_jordan(matrix_exp(x)) if discrete else additive_jordan(x)


class TestSetIndexReference:
    """The stable and unstable set of a line is its Bruhat cell of signature
    (1); it equals the projection-norm classifier it replaced."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_projection_norms(self, seed, pol):
        rng = np.random.default_rng([seed, 17])
        pairs = 0
        while pairs < 520:
            try:
                dec = _line_flow(rng)
            except IllConditioned:
                continue
            filt = rate_filtration(dec, pol)
            k = len(filt.mults)
            for j in range(20):
                if j % 2:
                    v = rng.normal(size=dec.spectral.n)
                else:  # a point inside a sum of eigenspaces
                    pick = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
                    v = sum(
                        filt.eigenspaces[i] @ rng.normal(size=filt.mults[i]) for i in pick
                    )
                p = ProjectivePoint(v)
                frame = dec if j < 2 else filt
                assert stable_set_index(p, frame, pol) == oracles.stable_set_index_reference(
                    p, dec, pol
                )
                assert unstable_set_index(
                    p, frame, pol
                ) == oracles.unstable_set_index_reference(p, dec, pol)
                pairs += 1

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_planted_near_threshold_line(self, seed, reverse, pol):
        """A line whose leading (``reverse``: trailing) rate-frame coordinate
        is twice the rank threshold is refused with its margin."""
        dec, filt, f = planted_near_threshold_flag(seed, reverse, pol)
        p = ProjectivePoint(f.basis[:, 0])
        index = unstable_set_index if reverse else stable_set_index
        for frame in (dec, filt):
            with pytest.raises(RankAmbiguous) as info:
                index(p, frame, pol)
            margin = info.value.margins["worst_sigma_over_threshold"]
            assert margin == pytest.approx(2.0, rel=1e-6)


class TestUnipotentLimit:
    def test_projective_line_figure(self):
        n = np.array([[0.0, 1], [0, 0]])
        p = unipotent_limit(ProjectivePoint([0.0, 1.0]), n)
        assert p == ProjectivePoint([1.0, 0.0])

    def test_kernel_point_fixed(self):
        n = np.array([[0.0, 1], [0, 0]])
        p = unipotent_limit(ProjectivePoint([1.0, 0.0]), n)
        assert p == ProjectivePoint([1.0, 0.0])

    def test_x2_full_depth(self):
        p = unipotent_limit(ProjectivePoint(E3), x2())
        assert p == ProjectivePoint(E1)

    def test_limit_is_fixed_and_attained(self, pol):
        n = x2()
        p0 = ProjectivePoint([0.2, -0.4, 1.0])
        lim = unipotent_limit(p0, n, pol)
        assert np.linalg.norm(n @ lim.rep) < 1e-12  # fixed by the flow
        dec = additive_jordan(n, pol)
        for t in (1e5, -1e5):
            end = simulate_projective(dec, p0, [t])[-1]
            assert projective_distance(end, lim) < 1e-4

    def test_equivariance(self, rng, pol):
        n = x2()
        for _ in range(6):
            c = np.eye(3) + 0.4 * rng.normal(size=(3, 3))
            p = ProjectivePoint(rng.normal(size=3))
            lhs = unipotent_limit(ProjectivePoint(c @ p.rep), c @ n @ np.linalg.inv(c), pol)
            rhs = ProjectivePoint(c @ unipotent_limit(p, n, pol).rep)
            assert projective_distance(lhs, rhs) < 1e-7

    def test_not_nilpotent(self):
        with pytest.raises(NotNilpotent):
            unipotent_limit(ProjectivePoint(E1), np.diag([1.0, 2.0, 3.0]))


class TestRecurrence:
    def test_x5_recurrent_set(self):
        dec = additive_jordan(x5(1.0))
        assert recurrent_membership(ProjectivePoint(E1), dec)
        assert not recurrent_membership(ProjectivePoint(E2), dec)
        assert recurrent_membership(ProjectivePoint(E3), dec)

    def test_elliptic_flow_everything_recurrent(self, rng):
        dec = additive_jordan(x4(0.0, 1.3))  # pure rotation, H = 0... but 2a = 0
        for _ in range(10):
            p = ProjectivePoint(rng.normal(size=3))
            assert recurrent_membership(p, dec)
            assert chain_recurrent_membership(p, dec)

    def test_x4_recurrent_equals_chain_recurrent(self, rng):
        dec = additive_jordan(x4(1, 2))
        assert recurrent_membership(ProjectivePoint(E1 + E2), dec)
        for _ in range(50):
            p = ProjectivePoint(rng.normal(size=3))
            assert recurrent_membership(p, dec) == chain_recurrent_membership(p, dec)

    def test_x5_chain_recurrent_is_larger(self):
        dec = additive_jordan(x5(1.0))
        p = ProjectivePoint(E1 + E2)
        assert chain_recurrent_membership(p, dec)
        assert not recurrent_membership(p, dec)
        assert not chain_recurrent_membership(ProjectivePoint(E1 + E3), dec)

    @pytest.mark.parametrize("discrete", [False, True])
    def test_lines_near_a_nilpotent_direction(self, discrete):
        """The line (cos theta, sin theta, 0), where the nilpotent factor (N,
        or u - I) maps e2 to e1: the point test, the line as a flag of
        signature (1) and the linear reference agree at every theta, False
        through 1e-8 and True at 1e-10.  The invariance residual of the
        nilpotent factor alone is ~theta^2 there."""
        if discrete:
            u = np.array([[1.0, 1, 0], [0, 1, 0], [0, 0, 1]])
            dec = multiplicative_jordan(u @ np.diag([0.5, 0.5, 4.0]))
        else:
            dec = additive_jordan(x5(1.0))
        sweep = [(1e-3, False), (3e-5, False), (1e-5, False), (1e-6, False),
                 (1e-8, False), (1e-10, True)]
        for theta, truth in sweep:
            p = ProjectivePoint([math.cos(theta), math.sin(theta), 0.0])
            assert recurrent_membership(p, dec) == truth
            assert flag_recurrent_membership(Flag(p.rep[:, None], (1,)), dec) == truth
            assert oracles.recurrent_membership_reference(p, dec) == truth
            assert chain_recurrent_membership(p, dec)

    def test_recurrent_subset_chain_recurrent(self, rng, pol):
        systems = [additive_jordan(m) for m in (x4(1, 2), x5(1.0), x2())]
        pts = [ProjectivePoint(rng.normal(size=3)) for _ in range(30)]
        pts += [ProjectivePoint(v) for v in (E1, E2, E3, E1 + E2, E1 + E3)]
        for dec in systems:
            for p in pts:
                if recurrent_membership(p, dec, pol):
                    assert chain_recurrent_membership(p, dec, pol)


class TestSimulate:
    def test_fixed_point_stays(self):
        dec = additive_jordan(x4(1, 2))
        traj = simulate_projective(dec, ProjectivePoint(E3), np.linspace(0, 10, 11))
        for p in traj:
            assert projective_distance(p, ProjectivePoint(E3)) < 1e-12

    def test_x4_convergence_to_attractor(self):
        dec = additive_jordan(x4(1, 2))
        filt = rate_filtration(dec)
        end = simulate_projective(dec, ProjectivePoint(E1 + E2 + E3), [20.0])[-1]
        assert filt.distances(end.rep)[0, 0] < 1e-6

    def test_reverse_time_goes_to_repeller(self):
        dec = additive_jordan(x4(1, 2))
        filt = rate_filtration(dec)
        end = simulate_projective(dec, ProjectivePoint(E1 + E2 + E3), [-20.0])[-1]
        assert filt.distances(end.rep)[-1, 0] < 1e-6

    def test_morse_axioms_sampled(self, rng, pol):
        # invariance + omega/alpha limits inside the predicted components
        for mat in (x4(1, 2), x5(1.0), x1_like(rng)):
            dec = additive_jordan(mat, pol)
            filt = rate_filtration(dec, pol)
            g1 = matrix_exp(dec.X)
            for basis in filt.eigenspaces:
                img = g1 @ basis
                resid = img - basis @ (basis.T @ img)
                assert np.linalg.norm(resid) < 1e-8 * max(1, np.linalg.norm(img))
            for _ in range(200):
                p = ProjectivePoint(rng.normal(size=3))
                i_fwd = stable_set_index(p, dec, pol)
                i_bwd = unstable_set_index(p, dec, pol)
                end_f = simulate_projective(dec, p, [30.0])[-1]
                end_b = simulate_projective(dec, p, [-30.0])[-1]
                assert filt.distances(end_f.rep)[i_fwd, 0] < pol.sim_tol
                assert filt.distances(end_b.rep)[i_bwd, 0] < pol.sim_tol

    @pytest.mark.parametrize("times", [[0.5], [1.7], [2, 2.5]])
    def test_discrete_refuses_non_integer_time(self, times):
        dec = multiplicative_jordan([[2, 1], [0, 0.5]])
        with pytest.raises(InputError, match="integer time"):
            simulate_projective(dec, ProjectivePoint([1.0, 1.0]), times)

    def test_discrete_integer_valued_float_is_the_integer(self):
        dec = multiplicative_jordan([[2, 1], [0, 0.5]])
        p = ProjectivePoint([1.0, 1.0])
        got = simulate_projective(dec, p, [2.0, -1.0])
        want = simulate_projective(dec, p, [2, -1])
        assert all(np.array_equal(a.rep, b.rep) for a, b in zip(got, want))
        assert not np.array_equal(got[0].rep, p.rep)

    def test_decay_lemma(self, rng):
        # spectral radius < 1 forces |g^t| -> 0; the horizon for a 1e-6 drop
        # scales with log r (r = 0.8 needs ~40 more steps than r = 0.5)
        for _ in range(5):
            c = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
            cinv = np.linalg.inv(c)
            g_fast = c @ np.diag([0.5, 0.4, 0.3]) @ cinv
            assert np.linalg.norm(np.linalg.matrix_power(g_fast, 40), 2) < 1e-6 * np.linalg.norm(g_fast, 2)
            g_slow = c @ np.diag([0.8, 0.5, 0.3]) @ cinv
            n40 = np.linalg.norm(np.linalg.matrix_power(g_slow, 40), 2)
            n200 = np.linalg.norm(np.linalg.matrix_power(g_slow, 200), 2)
            assert n40 < 1.0  # already contracting
            assert n200 < 1e-6 * np.linalg.norm(g_slow, 2)

    def test_lower_bound_lemma(self):
        # h = I: orbits of fixed x stay away from zero; the unipotent factor
        # preserves the last coordinate in its Jordan frame
        e_block = np.zeros((4, 4))
        e_block[:2, :2] = rotation(1.1)
        e_block[2:, 2:] = np.eye(2)
        u_block = np.eye(4)
        u_block[2, 3] = 1.0
        g = e_block @ u_block
        x = np.array([0.3, -0.2, 0.5, 0.7])
        eps = abs(x[3])  # lemma's epsilon from the fixed last coordinate
        gt = np.eye(4)
        ginv = np.linalg.inv(g)
        norms = []
        for t in range(1, 41):
            gt = gt @ g
            norms.append(np.linalg.norm(gt @ x))
            norms.append(np.linalg.norm(np.linalg.matrix_power(ginv, t) @ x))
        assert min(norms) >= eps - 1e-12


def x1_like(rng):
    from systems import x1

    return x1(1.0, 2.0)


class TestChainOracle:
    def test_unipotent_marks_everything(self, pol):
        g = np.array([[1.0, 1], [0, 1]])
        cg = chain_oracle(multiplicative_jordan(g, pol), 400, 0.05, 1, pol)
        assert cg.marked.mean() >= 0.99

    def test_hyperbolic_marks_only_fixed_points(self, pol):
        dec = multiplicative_jordan(np.diag([2.0, 0.5]), pol)
        cg = chain_oracle(dec, 400, 0.005, 1, pol)
        assert cg.marked.sum() >= 2
        cell = math.pi / 400
        for v in cg.points[cg.marked]:
            ang = math.atan2(v[1], v[0]) % math.pi
            d = min(ang, abs(ang - math.pi / 2), abs(ang - math.pi))
            assert d <= 2 * cell + 1e-12

    def test_x5_agreement_with_membership(self, pol):
        dec = additive_jordan(x5(1.0), pol)
        cg = chain_oracle(dec, 800, 0.08, 1.0, pol)
        filt = rate_filtration(dec, pol)
        member_tol = cg.eps / 2
        agree = 0
        for v, marked in zip(cg.points, cg.marked):
            p = ProjectivePoint(v)
            dist = filt.distances(p.rep)[:, 0].min()
            if (dist <= member_tol) == bool(marked):
                agree += 1
        assert agree / len(cg.points) >= 0.95

    def test_peak_memory_on_the_benchmark_rotation(self, pol):
        """The tracemalloc peak on the benchmark's P^1 rotation graph (1.47M
        edges) stays under 22 MB: the strongly connected components are
        found on a float64 view of the adjacency, not on a converted copy."""
        dec = additive_jordan(np.array([[0.0, -1.2], [1.2, 0.0]]), pol)
        chain_oracle(dec, 2000, 0.05, 1.0, pol)  # load what is imported lazily
        tracemalloc.start()
        try:
            cg = chain_oracle(dec, 2000, 0.05, 1.0, pol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cg.edges.nnz == 1_470_000
        assert peak < 22 * 2**20

    def test_covering_radius_recorded(self, pol):
        g = np.array([[1.0, 1], [0, 1]])
        cg = chain_oracle(multiplicative_jordan(g, pol), 200, 0.05, 1, pol)
        assert 0 < cg.covering_radius < 0.1

    def test_grid_limits(self, pol):
        from jordanflow import GridTooLarge

        dec = multiplicative_jordan(np.diag([2.0, 0.5]), pol)
        with pytest.raises(GridTooLarge):
            chain_oracle(dec, 10**6, 0.01, 1, pol)


def _random_decomposition(n, seed, pol):
    """A seeded random flow on P^(n-1): continuous for even seeds,
    discrete for odd ones."""
    rng = np.random.default_rng([n, seed])
    if seed % 2:
        return multiplicative_jordan(random_sl(n, rng), pol)
    return additive_jordan(random_sl_alg(n, rng), pol)


def _first_leg_images(pts, dec):
    img = pts @ _step_matrix(dec, 1.0).T
    return img / np.linalg.norm(img, axis=1)[:, None]


@pytest.fixture
def band_pairs(monkeypatch):
    """The number of pairs each call from the P^1 window builder hands to
    ``_abs_cos``; the covering radius's calls are not counted."""
    seen = []

    def counted(a, b):
        if sys._getframe(1).f_code.co_name == "_window_edges":
            seen.append(len(a))
        return _abs_cos(a, b)

    monkeypatch.setattr(projective, "_abs_cos", counted)
    return seen


@pytest.fixture
def tree_queries(monkeypatch):
    """One entry per ``cKDTree.sparse_distance_matrix`` call."""
    import scipy.spatial

    calls = []

    class CountingTree(scipy.spatial.cKDTree):
        def sparse_distance_matrix(self, *args, **kwargs):
            calls.append(1)
            return super().sparse_distance_matrix(*args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
    return calls


class TestChainGraphMatchesDense:
    """The chain graph, from angular windows on P^1 and k-d tree queries on
    P^2, equals the dense construction kept in ``oracles.chain_graph_dense``:
    same edges, marks and covering radius."""

    def assert_matches(self, dec, n, resolution, eps, pol):
        cg = chain_oracle(dec, resolution, eps, 1.0, pol)
        pts = projective_grid(n, resolution)
        adj, marked, covering = oracles.chain_graph_dense(
            pts, _step_matrix(dec, 1.0), eps, len(cg.leg_times) - 1
        )
        assert cg.edges.dtype == bool and cg.edges.has_canonical_format
        assert cg.edges.shape == adj.shape
        assert (cg.edges != adj).nnz == 0
        assert np.array_equal(cg.marked, marked)
        assert cg.covering_radius == covering

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "resolution,seed", [(8, 0), (9, 1), (37, 2), (150, 3), (311, 4), (600, 5)]
    )
    def test_random_flows(self, n, resolution, seed, pol):
        dec = _random_decomposition(n, seed, pol)
        eps = float(np.random.default_rng([n, seed, 1]).uniform(0.01, 0.5))
        self.assert_matches(dec, n, resolution, eps, pol)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("resolution,seed", [(8, 6), (64, 7), (257, 8), (600, 9)])
    def test_eps_on_the_boundary(self, n, resolution, seed, pol, band_pairs):
        """eps = sqrt(2 - 2c) for an actual image-grid or grid-grid cosine c,
        raised by ulps until that pair passes the strict test
        c > 1 - eps^2/2, so it sits on the threshold's accepting side.  On
        P^1 those pairs are the ones ``_abs_cos`` decides."""
        dec = _random_decomposition(n, seed, pol)
        pts = projective_grid(n, resolution)
        rng = np.random.default_rng([n, seed, 2])
        for source in (_first_leg_images(pts, dec), pts):
            cos = np.abs(source @ pts.T)
            for _ in range(3):
                i, j = rng.integers(resolution, size=2)
                if i == j:
                    j = (j + 1) % resolution
                eps = math.sqrt(2.0 - 2.0 * cos[i, j])
                while not cos[i, j] > 1.0 - 0.5 * eps * eps:
                    eps = math.nextafter(eps, math.inf)
                assert cos[i, j] - (1.0 - 0.5 * eps * eps) <= 1e-15
                self.assert_matches(dec, n, resolution, eps, pol)
        assert (sum(band_pairs) >= 1) == (n == 2)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("eps", [1e-9, 1.3, math.sqrt(2.0), 1.5, 2.0, 3.0])
    def test_extreme_eps(self, n, eps, pol):
        """Tiny eps keeps only pairs whose rounded cosine beats 1 - eps^2/2;
        eps >= sqrt(2) joins every pair."""
        for dec in (
            multiplicative_jordan(np.eye(n), pol),
            _random_decomposition(n, 10, pol),
        ):
            self.assert_matches(dec, n, 40, eps, pol)

    @pytest.mark.parametrize(
        "n,mat,resolution",
        [
            (2, np.diag([0.5, 2.0]), 400),
            (3, np.diag([-1.0, -1.0, 2.0]), 201),
            (3, np.diag([-1.0, -1.0, 2.0]), 999),
        ],
    )
    def test_points_sent_to_zero(self, n, mat, resolution, pol):
        """Late legs' steps underflow to a rank-one matrix that sends grid
        points to 0: (1, 0) on P^1, and on P^2 the equator z = 0 that an odd
        Fibonacci grid contains.  Those rows get no edges."""
        if n == 2:
            dec = multiplicative_jordan(mat, pol)
        else:
            dec = additive_jordan(mat, pol)
        step = _step_matrix(dec, 1.0)
        for _ in range(11):
            step = step @ step
            step /= np.abs(step).max()
        img = projective_grid(n, resolution) @ step.T
        assert (np.linalg.norm(img, axis=1) == 0).any()
        with np.errstate(divide="ignore", invalid="ignore"):
            self.assert_matches(dec, n, resolution, 0.05, pol)

    @pytest.mark.parametrize("n", [2, 3])
    def test_leg_rows_not_finite(self, n, pol):
        """One leg's CSR equals the dense strict test row by row when some
        image rows are NaN and rows go in blocks of 16."""
        from scipy.spatial import cKDTree

        pts = projective_grid(n, 300)
        img = _first_leg_images(pts, _random_decomposition(n, 14, pol))
        img[[0, 7, 150, 151, 299]] = np.nan
        eps = 0.3
        tree = cKDTree(np.vstack([pts, -pts]))
        radius = eps * (1.0 + 1e-7) + 1e-7
        leg = projective._leg_edges(img, pts, tree, radius, 1.0 - 0.5 * eps * eps, 16)
        with np.errstate(invalid="ignore"):
            dense = np.abs(img @ pts.T) > 1.0 - 0.5 * eps * eps
        assert leg.dtype == bool and leg.has_canonical_format
        assert (leg != sp.csr_matrix(dense)).nnz == 0
        assert dense[[1, 149, 152, 298]].any(axis=1).all()

    @pytest.mark.parametrize("n", [2, 3])
    def test_many_blocks(self, n, pol, monkeypatch):
        """Blocks of a few image rows give the same graph as one block."""
        monkeypatch.setattr(projective, "_BLOCK_PAIRS", 50)
        for seed in (12, 13):
            dec = _random_decomposition(n, seed, pol)
            self.assert_matches(dec, n, 311, 0.2, pol)
            self.assert_matches(dec, n, 97, 1.5, pol)

    @pytest.mark.parametrize("n", [2, 3])
    def test_abs_cos_is_bitwise_gemm(self, n, pol):
        pts = projective_grid(n, 600)
        img = _first_leg_images(pts, _random_decomposition(n, 11, pol))
        i, j = np.divmod(np.arange(600 * 600), 600)
        for a in (img, pts):
            got = _abs_cos(a[i], pts[j]).reshape(600, 600)
            assert np.array_equal(got, np.abs(a @ pts.T))

    def test_batched_product_near_gemm(self, pol):
        """The P^1 windows' batched product of rows against grid lines is
        within 1e-15 of the gemm, far inside ``_COS_BAND``, but rounds many
        cosines 1 ulp apart from it.  With the threshold at either value of
        such a pair, the window builder keeps the gemm's strict test."""
        pts = projective_grid(2, 600)
        grids = np.tile(pts, (600, 1, 1))
        for seed in range(6):
            img = _first_leg_images(pts, _random_decomposition(2, seed, pol))
            gemm = np.abs(img @ pts.T)
            fast = np.abs(np.matmul(grids, img[:, :, None])[:, :, 0])
            assert np.abs(fast - gemm).max() <= 1e-15
            i, j = np.nonzero(fast != gemm)
            for k in np.random.default_rng(seed).choice(len(i), 4, replace=False):
                for c in (gemm[i[k], j[k]], fast[i[k], j[k]]):
                    leg = projective._window_edges(img, pts, math.sqrt(2.0 - 2.0 * c), c)
                    assert (leg != sp.csr_matrix(gemm > c)).nnz == 0

    @pytest.mark.parametrize("resolution", [8, 9, 64, 65, 1001])
    @pytest.mark.parametrize("eps", [0.05, 1.3])
    @pytest.mark.parametrize(
        "mat",
        [np.diag([3.0, 1.0 / 3.0]), rotation(1.0), np.array([[1.0, 1.0], [0.0, 1.0]])],
        ids=["hyperbolic", "rotation", "unipotent"],
    )
    def test_p1_windows(self, mat, eps, resolution, pol):
        """Windows that wrap across angle 0 = pi (every flow here has images
        within a grid step of it), odd and even N down to 8, and at eps 1.3
        windows of all N lines (N = 8, 9, 65) or of N - 1 (N = 64)."""
        dec = multiplicative_jordan(mat, pol)
        pts = projective_grid(2, resolution)
        img = _first_leg_images(pts, dec)
        ang = np.arctan2(img[:, 1], img[:, 0]) % np.pi
        assert np.minimum(ang, np.pi - ang).min() < np.pi / resolution
        self.assert_matches(dec, 2, resolution, eps, pol)

    @pytest.mark.parametrize(
        "resolution,eps", [(8, 0.05), (9, 0.3), (64, 1.3), (65, 0.3), (601, 0.01), (601, 0.2)]
    )
    def test_window_is_centred_on_the_image(self, resolution, eps, pol, monkeypatch):
        """With every window pair sent to ``_abs_cos``, each image row is
        tested against the w = min(2h + 1, N) lines centred on the grid line
        at or below its angle, h = ceil(2 asin(eps/2) / step) + 2."""
        seen = []
        monkeypatch.setattr(projective, "_COS_BAND", math.inf)
        monkeypatch.setattr(projective, "_abs_cos", lambda a, b: seen.append((a, b)) or _abs_cos(a, b))
        pts = projective_grid(2, resolution)
        img = np.vstack([_first_leg_images(pts, _random_decomposition(2, 15, pol)), pts])
        projective._window_edges(img, pts, eps, 1.0 - 0.5 * eps * eps)
        half = math.ceil(2.0 * math.asin(eps / 2.0) * resolution / math.pi) + 2
        width = min(2 * half + 1, resolution)
        a, b = (np.concatenate(x) for x in zip(*seen))
        assert len(a) == len(img) * width
        a, b = a[::width], b.reshape(-1, width, 2)
        below = np.floor(np.arctan2(a[:, 1], a[:, 0]) * resolution / np.pi)
        want = (below[:, None] - width // 2 + np.arange(width)) % resolution
        got = np.rint(np.arctan2(b[..., 1], b[..., 0]) * resolution / np.pi) % resolution
        assert np.array_equal(np.sort(got, axis=1), np.sort(want, axis=1))

    def test_benchmark_p1_inputs(self, pol, band_pairs, tree_queries):
        """The benchmark's P^1 chain jobs (N = 2000, eps 0.05, 12 legs) make
        no tree query, and no cosine of theirs is near enough the threshold
        for ``_abs_cos``.  A P^2 oracle still queries its tree."""
        for dec in (
            multiplicative_jordan(np.array([[1.0, 1.3], [0.0, 1.0]]), pol),
            multiplicative_jordan(np.diag([2.2, 1.0 / 2.2]), pol),
            additive_jordan(np.array([[0.0, -1.2], [1.2, 0.0]]), pol),
        ):
            chain_oracle(dec, 2000, 0.05, 1.0, pol)
        assert tree_queries == []
        assert len(band_pairs) == 36 and sum(band_pairs) == 0
        chain_oracle(additive_jordan(x5(1.0), pol), 300, 0.05, 1.0, pol)
        assert len(tree_queries) == 12


class TestChainPairBudget:
    def test_estimate_bounds_one_leg(self, pol):
        """One leg's edges never outnumber the candidate estimate."""
        for n, mat in ((2, np.array([[0.0, -1.3], [1.3, 0.0]])), (3, x5(1.0))):
            dec = additive_jordan(mat, pol)
            for eps in (0.05, 0.3, 1.0):
                cg = chain_oracle(dec, 1000, eps, 1.0, pol, leg_doublings=0)
                assert cg.edges.nnz <= _chain_candidates(n, 1000, eps)

    def test_estimate_is_continuous_at_sqrt2(self):
        for n in (2, 3):
            below = _chain_candidates(n, 1000, math.sqrt(2.0) * (1 - 1e-12))
            assert below == pytest.approx(_chain_candidates(n, 1000, 2.0), rel=1e-9)

    def test_zero_leg_doublings_is_one_leg(self, pol):
        dec = multiplicative_jordan(np.diag([2.0, 0.5]), pol)
        cg = chain_oracle(dec, 100, 0.05, 1, pol, leg_doublings=0)
        assert cg.leg_times == (1.0,)


class TestSubstepBudget:
    """One simulation leg takes at most SUBSTEP_BUDGET substeps."""

    def test_continuous_boundary(self):
        dec = additive_jordan(x4(1, 2))  # rates -1 and 2: spread 3
        leg = 15.0 * SUBSTEP_BUDGET / 3.0
        assert _substeps(dec, leg) == [leg / SUBSTEP_BUDGET] * SUBSTEP_BUDGET
        assert len(_substeps(dec, -leg)) == SUBSTEP_BUDGET
        with pytest.raises(GridTooLarge):
            _substeps(dec, np.nextafter(leg, np.inf))

    def test_discrete_boundary(self):
        dec = multiplicative_jordan(np.diag([np.e, 1.0, 1 / np.e]))  # 7 steps a piece
        assert _substeps(dec, 20) == [6, 6, 6, 2]
        assert _substeps(dec, -20) == [-7, -7, -7, 1]
        assert _substeps(dec, 7 * SUBSTEP_BUDGET) == [7] * SUBSTEP_BUDGET + [0]
        with pytest.raises(GridTooLarge):
            _substeps(dec, 7 * SUBSTEP_BUDGET + 1)

    def test_huge_leg_refused_before_stepping(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("stepped before refusing the leg")

        monkeypatch.setattr(projective, "_step_matrix", refuse)
        p0 = ProjectivePoint([1.0, 1.0, 1.0])
        with pytest.raises(GridTooLarge):
            simulate_projective(additive_jordan(x4(1, 2)), p0, [1e30])
