import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jordanflow import (
    Flag,
    FlagType,
    InputError,
    additive_jordan,
    bruhat_cell,
    classify_flow,
    component_dimensions,
    enumerate_morse_components,
    flag_recurrent_membership,
    height_lyapunov,
    matrix_exp,
    morse_components_projective,
    multiplicative_jordan,
    plucker_embed,
    rate_filtration,
    simulate_flag,
    stable_set_index,
    unstable_bruhat_cell,
    wedge_infinitesimal,
    wedge_representation,
)
from jordanflow.errors import IllConditioned, RankAmbiguous
from jordanflow.flags import (
    RateFiltration,
    _cell_assignment,
    _tables,
    component_defect,
    flag_distance,
    nearest_component,
    random_flag,
)
from oracles import (
    cell_assignment_reference,
    contingency_tables_bruteforce,
    greedy_assignment_reference,
    height_lyapunov_reference,
    pair_counts_bruteforce,
)
from systems import E1, E2, E3, rotation, x1, x4, x5


class TestFlagType:
    @given(
        dims=st.lists(st.integers(1, 10), min_size=1, max_size=5, unique=True).map(
            lambda v: tuple(sorted(v))
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_accepted(self, dims):
        assert FlagType(dims).dims == dims

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            FlagType(())

    def test_non_increasing_rejected(self):
        with pytest.raises(InputError):
            FlagType((2, 2))
        with pytest.raises(InputError):
            FlagType((3, 1))

    def test_must_be_proper(self):
        with pytest.raises(InputError):
            FlagType((1, 3)).validate_for(3)

    def test_increments_and_dimension(self):
        ft = FlagType((1, 2))
        assert ft.increments(3) == (1, 1, 1)
        assert ft.manifold_dimension(3) == 3
        assert FlagType((1,)).increments(3) == (1, 2)
        assert FlagType((1,)).manifold_dimension(3) == 2
        assert FlagType((2,)).manifold_dimension(5) == 6


class TestFlag:
    def test_orthonormalization_flagged(self):
        b = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        f = Flag(b, (1, 2))
        assert f.was_reorthonormalized
        assert np.allclose(f.basis.T @ f.basis, np.eye(2), atol=1e-12)
        # nesting preserved: V1 is still span(e1)
        assert abs(f.basis[0, 0]) == pytest.approx(1.0)

    def test_rank_deficient_rejected(self):
        b = np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InputError):
            Flag(b, (1, 2))

    def test_canonical_basis_is_basis_independent(self, rng):
        f = random_flag(4, (1, 3), rng)
        # same flag, different basis: rotate inside the top block
        b2 = f.basis.copy()
        rot = np.eye(3)
        rot[1:, 1:] = rotation(0.7)
        b2 = b2 @ rot
        g = Flag(b2, (1, 3))
        assert flag_distance(f, g) < 1e-12
        assert np.allclose(f.canonical_basis(), g.canonical_basis(), atol=1e-9)

    def test_distance_zero_iff_equal(self, rng):
        f = random_flag(4, (2,), rng)
        g = random_flag(4, (2,), rng)
        assert flag_distance(f, f) < 1e-14
        assert flag_distance(f, g) > 1e-3


class TestPlucker:
    def test_coordinate_subspace(self):
        b = np.eye(4)[:, :2]
        p = plucker_embed(b)
        expected = np.zeros(6)
        expected[0] = 1.0  # index set (0, 1) is first lexicographically
        assert np.allclose(p.rep, expected)

    def test_line_in_plane(self):
        b = np.array([[1.0], [1.0]]) / math.sqrt(2)
        p = plucker_embed(b)
        assert np.allclose(p.rep, [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_equivariance_random(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 6))
            p_dim = int(rng.integers(1, min(3, n - 1) + 1))
            g = np.eye(n) + 0.5 * rng.normal(size=(n, n))
            b = np.linalg.qr(rng.normal(size=(n, p_dim)))[0]
            iv = plucker_embed(b)
            igv = plucker_embed(np.linalg.qr(g @ b)[0])
            w = wedge_representation(g, p_dim) @ iv.rep
            cos = abs(w @ igv.rep) / np.linalg.norm(w)
            assert cos == pytest.approx(1.0, abs=1e-10)


class TestEnumerate:
    def test_x4_full_flag_census_vs_bruteforce(self):
        filt = rate_filtration(additive_jordan(x4(1, 2)))
        comps = enumerate_morse_components(filt, (1, 2))
        brute = contingency_tables_bruteforce([1, 1, 1], [1, 2])
        assert len(comps) == len(brute) == 3
        assert {c.assignment for c in comps} == set(brute)

    def test_regular_gives_factorial(self):
        filt = rate_filtration(additive_jordan(x1(1, 2)))
        comps = enumerate_morse_components(filt, (1, 2))
        assert len(comps) == 6
        assert all(c.dim_component == 0 for c in comps)

    def test_projective_case_two_components(self):
        filt = rate_filtration(additive_jordan(x4(1, 2)))
        comps = enumerate_morse_components(filt, (1,))
        assert len(comps) == 2
        dims = {(c.dim_component, c.n_w, c.dim_stable) for c in comps}
        assert dims == {(0, 0, 2), (1, 1, 0)}

    def test_unique_attractor_repeller(self, rng):
        for mat in (x1(1, 2), x4(1, 2), x5(1.0)):
            filt = rate_filtration(additive_jordan(mat))
            for dims in [(1,), (2,), (1, 2)]:
                comps = enumerate_morse_components(filt, dims)
                assert sum(c.is_attractor for c in comps) == 1
                assert sum(c.is_repeller for c in comps) == 1
                total = FlagType(dims).manifold_dimension(3)
                for c in comps:
                    assert c.dim_component + c.n_w + c.dim_stable == total
                att = next(c for c in comps if c.is_attractor)
                assert att.n_w == 0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_census_matches_bruteforce_margins(self, seed):
        r = np.random.default_rng(seed)
        k = int(r.integers(1, 4))
        mults = [int(r.integers(1, 3)) for _ in range(k)]
        n = sum(mults)
        if n < 2:
            return
        cuts = sorted(set(r.integers(1, n, size=min(2, n - 1)).tolist()))
        dims = tuple(c for c in cuts if c < n)
        if not dims:
            dims = (1,)
        increments = FlagType(dims).increments(n)
        brute = contingency_tables_bruteforce(list(increments), mults)
        rates = sorted([float(r.normal()) for _ in range(k)], reverse=True)
        for t in brute:
            dc, du, ds = component_dimensions(t, rates)
            assert dc + du + ds == FlagType(dims).manifold_dimension(n)


class TestComponentDimensions:
    def test_attractor_projective_case(self):
        # H = diag(2,-1,-1), P^2: attractor [e3] has its whole complement stable
        assert component_dimensions(((1, 0), (0, 2)), (2.0, -1.0)) == (0, 0, 2)

    def test_repeller_projective_case(self):
        assert component_dimensions(((0, 1), (1, 1)), (2.0, -1.0)) == (1, 1, 0)

    def test_regular_identity_assignment(self):
        n = 4
        table = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        rates = (3.0, 1.0, -1.0, -3.0)
        assert component_dimensions(table, rates) == (0, 0, n * (n - 1) // 2)


@st.composite
def census_cases(draw):
    """(n, flag dims, cluster multiplicities, cluster rates) for n <= 7.
    Rates come from a small integer pool, unsorted, so equal rates in
    different columns (ties) occur."""
    n = draw(st.integers(2, 7))
    cuts = draw(st.sets(st.integers(1, n - 1), min_size=1))
    dims = tuple(sorted(cuts))
    col_cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    mults = tuple(b - a for a, b in zip([0, *col_cuts], [*col_cuts, n]))
    rates = tuple(
        draw(st.lists(st.integers(-3, 3).map(float), min_size=len(mults), max_size=len(mults)))
    )
    return n, dims, mults, rates


def _filtration(n, mults, rates):
    """A RateFiltration over the standard frame with the given clusters; it
    is built directly so that tied rates can be tested."""
    eye = np.eye(n)
    starts = np.cumsum([0, *mults])
    blocks = tuple(eye[:, a:b] for a, b in zip(starts, starts[1:]))
    return RateFiltration(
        rates=rates, mults=mults, blocks=blocks, transform=eye, continuous=True
    )


class TestPairCounts:
    """Pair counting against the quadruple-loop oracle."""

    @given(case=census_cases(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_component_dimensions_matches_oracle(self, case, data):
        n, dims, mults, rates = case
        increments = FlagType(dims).increments(n)
        # a random slot permutation reaches every table with these margins
        perm = data.draw(st.permutations(range(n)))
        rows = np.repeat(np.arange(len(increments)), increments)
        cols = np.repeat(np.arange(len(mults)), mults)[perm]
        table = [[0] * len(mults) for _ in increments]
        for i, j in zip(rows, cols):
            table[i][j] += 1
        table = tuple(tuple(r) for r in table)
        assert component_dimensions(table, rates) == pair_counts_bruteforce(table, rates)

    @given(case=census_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_component_matches_oracle(self, case):
        n, dims, mults, rates = case
        comps = enumerate_morse_components(_filtration(n, mults, rates), dims)
        assignments = [c.assignment for c in comps]
        assert assignments == sorted(assignments)
        for c in comps:
            assert (c.dim_component, c.dim_unstable, c.dim_stable) == (
                pair_counts_bruteforce(c.assignment, rates)
            )
            assert all(type(d) is int for d in (c.dim_component, c.dim_unstable, c.dim_stable))

    @pytest.mark.parametrize(
        "rates",
        [
            (0.9, 0.55, 0.3, 0.05, -0.2, -0.6, -1.0),
            (1.0, -1.0, 1.0, 0.0, -1.0, 0.0, 1.0),
        ],
    )
    def test_full_flag_n7_matches_oracle(self, rates):
        comps = enumerate_morse_components(_filtration(7, (1,) * 7, rates), range(1, 7))
        assert len(comps) == 5040
        for c in comps:
            assert (c.dim_component, c.dim_unstable, c.dim_stable) == (
                pair_counts_bruteforce(c.assignment, rates)
            )


class TestTableOrder:
    """The census lists tables in lexicographic order, as generated."""

    @given(
        rows=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_tables_are_generated_sorted(self, rows, data):
        n = sum(rows)
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=2)) if n > 1 else [])
        cols = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
        # the brute force scans this many candidate tables
        assume(math.prod(min(r, c) + 1 for r in rows for c in cols) <= 20_000)
        assert list(_tables(rows, cols)) == sorted(contingency_tables_bruteforce(rows, cols))

    def test_full_flag_n7_sorted(self):
        tables = list(_tables([1] * 7, [1] * 7))
        assert len(set(tables)) == len(tables) == 5040
        assert tables == sorted(tables)


class TestBruhatCell:
    def test_component_flag_maps_to_itself(self):
        dec = additive_jordan(x4(1, 2))
        comps = enumerate_morse_components(rate_filtration(dec), (1,))
        att = next(i for i, c in enumerate(comps) if c.is_attractor)
        f = Flag(E3.reshape(3, 1), (1,))
        assert bruhat_cell(f, dec, (1,)) == att

    def test_mixed_point_attracted(self):
        dec = additive_jordan(x4(1, 2))
        comps = enumerate_morse_components(rate_filtration(dec), (1,))
        att = next(i for i, c in enumerate(comps) if c.is_attractor)
        f = Flag((E1 + E3).reshape(3, 1), (1,))
        assert bruhat_cell(f, dec, (1,)) == att

    @pytest.mark.parametrize("mat", [x1(1, 2), x4(1, 2), x5(1.0)])
    @pytest.mark.parametrize("dims", [(1,), (1, 2)])
    def test_prediction_matches_simulation(self, mat, dims, rng, pol):
        dec = additive_jordan(mat, pol)
        filt = rate_filtration(dec, pol)
        comps = enumerate_morse_components(filt, dims, pol)
        for _ in range(20):
            f0 = random_flag(3, dims, rng)
            pred = bruhat_cell(f0, filt, dims, pol, components=comps)
            end = simulate_flag(dec, f0, [25.0])[-1]
            near, defect = nearest_component(end, comps, filt)
            assert near == pred and defect < pol.sim_tol
            pred_u = unstable_bruhat_cell(f0, filt, dims, pol, components=comps)
            end_r = simulate_flag(dec, f0, [-25.0])[-1]
            near_r, defect_r = nearest_component(end_r, comps, filt)
            assert near_r == pred_u and defect_r < pol.sim_tol

    def test_bruhat_partition_census(self, rng, pol):
        # 500 random flags, each classifies into exactly one cell
        dec = additive_jordan(x4(1, 2), pol)
        filt = rate_filtration(dec, pol)
        comps = enumerate_morse_components(filt, (1, 2), pol)
        counts = np.zeros(len(comps), dtype=int)
        for _ in range(500):
            f = random_flag(3, (1, 2), rng)
            counts[bruhat_cell(f, filt, (1, 2), pol, components=comps)] += 1
        assert counts.sum() == 500
        # generic flags land in the open dense cell: the attractor's
        att = next(i for i, c in enumerate(comps) if c.is_attractor)
        assert counts[att] == 500

    def test_plucker_naturality(self, pol):
        # Grassmannian cell of V agrees with the projective stable index of
        # its Pluecker image under the wedge-represented flow
        x = np.diag([1.5, 0.5, -0.5, -1.5])
        dec = additive_jordan(x, pol)
        filt = rate_filtration(dec, pol)
        comps = enumerate_morse_components(filt, (2,), pol)
        wdec = additive_jordan(wedge_infinitesimal(x, 2), pol)
        wmd = morse_components_projective(wdec, pol)
        rng = np.random.default_rng(7)
        for _ in range(25):
            f = random_flag(4, (2,), rng)
            cell = bruhat_cell(f, filt, (2,), pol, components=comps)
            table = comps[cell].assignment
            # rate of the wedge image predicted by the cell's top row
            predicted_rate = sum(
                filt.rates[j] * table[0][j] for j in range(len(filt.rates))
            )
            widx = stable_set_index(plucker_embed(f), wmd, pol)
            assert wmd.components[widx].rate == pytest.approx(predicted_rate, abs=1e-9)


def _repeated_rate_dec(rng, discrete):
    """A conjugated block-diagonal flow on R^n, n <= 8, whose rates repeat:
    real eigenvalues drawn with replacement from a small pool, sometimes a
    rotation block whose rate coincides with one of them."""
    n = int(rng.integers(2, 9))
    pool = rng.choice(np.arange(-6, 7) * 0.5, int(rng.integers(1, n + 1)), replace=False)
    rates = rng.choice(pool, size=n)
    x = np.diag(rates - rates.mean())
    if n >= 3 and rng.random() < 0.5:
        x[0, 1], x[1, 0] = -1.5, 1.5
        x[0, 0] = x[1, 1] = x[2, 2]
        x -= np.trace(x) / n * np.eye(n)
    c = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    x = c @ x @ np.linalg.inv(c)
    return multiplicative_jordan(matrix_exp(x)) if discrete else additive_jordan(x)


def _random_dims(rng, n):
    cuts = rng.choice(np.arange(1, n), size=int(rng.integers(1, n)), replace=False)
    return FlagType(tuple(sorted(int(c) for c in cuts)))


def _outcome(fn, *args):
    """(table, margin bits), or (error type, message, margin bits)."""
    try:
        table, margin = fn(*args)
    except (RankAmbiguous, IllConditioned) as exc:
        margins = {k: float.hex(float(v)) for k, v in exc.margins.items()}
        return type(exc), str(exc), margins
    assert all(type(x) is int for row in table for x in row)
    return table, float.hex(float(margin))


class TestRateOrderReferences:
    """The rate order is encoded once, in the rate filtration; the census
    extremes, the Bruhat table and the Lyapunov value equal, bit for bit,
    the constructions that each re-derived it."""

    @pytest.mark.parametrize("discrete", [False, True])
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_references(self, seed, discrete, pol):
        rng = np.random.default_rng([seed, discrete])
        dec = _repeated_rate_dec(rng, discrete)
        filt = rate_filtration(dec, pol)
        n = filt.n
        assert list(filt.rates) == sorted(set(filt.rates), reverse=True)
        for _ in range(2):
            dims = _random_dims(rng, n)
            comps = enumerate_morse_components(filt, dims, pol)
            inc = dims.increments(n)
            att = greedy_assignment_reference(inc, filt.mults)
            rep = greedy_assignment_reference(inc, filt.mults, reverse=True)
            assert [c.is_attractor for c in comps] == [c.assignment == att for c in comps]
            assert [c.is_repeller for c in comps] == [c.assignment == rep for c in comps]
            hmat = dec.logH if discrete else dec.H
            for _ in range(4):
                f = random_flag(n, dims, rng)
                for reverse in (False, True):
                    assert _outcome(_cell_assignment, f, filt, pol, reverse) == _outcome(
                        cell_assignment_reference, f, filt, pol, reverse
                    )
                got = height_lyapunov(f, hmat, pol)
                assert float.hex(got) == float.hex(height_lyapunov_reference(f, hmat, pol))

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_planted_near_threshold_flag(self, seed, reverse, pol):
        """A line whose leading rate-frame coordinate is twice the rank
        threshold: both raise RankAmbiguous with the same margin."""
        rng = np.random.default_rng(seed)
        filt = rate_filtration(_repeated_rate_dec(rng, discrete=False), pol)
        while len(filt.mults) == 1:  # one rate: every rank is full
            filt = rate_filtration(_repeated_rate_dec(rng, discrete=False), pol)
        q = filt.transform
        lead, tail = (q.shape[1] - 1, 0) if reverse else (0, q.shape[1] - 1)
        y = np.zeros(q.shape[1])
        y[tail] = 1.0
        y[lead] = 2.0 * pol.residual_tol * max(1.0, 1.0 / np.linalg.norm(q[:, tail]))
        y[lead] *= np.linalg.norm(q @ y)
        f = Flag((q @ y / np.linalg.norm(q @ y))[:, None], (1,))
        ref = _outcome(cell_assignment_reference, f, filt, pol, reverse)
        assert ref[0] is RankAmbiguous
        assert _outcome(_cell_assignment, f, filt, pol, reverse) == ref


class TestClassify:
    def test_regular_distinct_rates(self):
        cls = classify_flow(np.diag([3.0, 1.0, -4.0]), (1, 2))
        assert cls.h_regular and cls.structurally_stable and cls.conformal
        assert len(cls.components) == 6
        assert all(c.dim_component == 0 for c in cls.components)

    def test_x5_unstable_not_conformal(self):
        cls = classify_flow(x5(1.0), (1,))
        assert not cls.h_regular and not cls.conformal and not cls.structurally_stable

    def test_x4_unstable_but_conformal(self):
        cls = classify_flow(x4(1, 2), (1,))
        assert not cls.h_regular and cls.conformal and not cls.structurally_stable

    def test_nonregular_has_fat_component(self):
        for mat in (x4(1, 2), x5(1.0)):
            for dims in [(1,), (1, 2)]:
                cls = classify_flow(mat, dims)
                assert any(c.dim_component > 0 for c in cls.components)

    def test_conjugation_covariance(self, rng, pol):
        from jordanflow import TolerancePolicy

        loose = TolerancePolicy(cluster_tol=1e-6)
        for mat in (x4(1, 2), x5(1.0), np.diag([3.0, 1.0, -4.0])):
            base = classify_flow(mat, (1,), loose)
            for _ in range(5):
                c = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
                cls = classify_flow(c @ mat @ np.linalg.inv(c), (1,), loose)
                assert cls.h_regular == base.h_regular
                assert cls.conformal == base.conformal
                assert cls.structurally_stable == base.structurally_stable
                assert len(cls.components) == len(base.components)

    def test_discrete_time(self, pol):
        g = matrix_exp(x4(1, 2))
        cls = classify_flow(g, (1,), pol, time="discrete")
        assert not cls.h_regular and cls.conformal and not cls.structurally_stable

    def test_full_space_flag_rejected(self):
        with pytest.raises(InputError):
            classify_flow(x4(1, 2), (1, 2, 3))


class TestFlagRecurrence:
    def test_attractor_flag_of_conformal_flow(self):
        dec = additive_jordan(x4(1, 2))
        f = Flag(np.stack([E3, E1], axis=1), (1, 2))
        assert flag_recurrent_membership(f, dec)

    def test_x5_moved_line(self):
        dec = additive_jordan(x5(1.0))
        f = Flag(np.stack([E2, E3], axis=1), (1, 2))
        assert not flag_recurrent_membership(f, dec)

    def test_elliptic_flow_everything_recurrent(self, rng):
        dec = additive_jordan(x4(0.0, 1.0))  # pure rotation
        for _ in range(10):
            f = random_flag(3, (1, 2), rng)
            assert flag_recurrent_membership(f, dec)


class TestSimulateFlag:
    @pytest.mark.parametrize("discrete", [False, True])
    def test_rates_come_from_the_decomposition(self, rng, monkeypatch, discrete):
        dec = (
            multiplicative_jordan(matrix_exp(x4(1, 2)))
            if discrete
            else additive_jordan(x4(1, 2))
        )
        f0 = random_flag(3, (1, 2), rng)
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a)
        )
        simulate_flag(dec, f0, [1, 2, 5, -3])
        assert calls == []


class TestHeightLyapunov:
    def test_constant_on_elliptic_orbit(self):
        dec = additive_jordan(x4(1, 2))
        f0 = Flag(np.stack([E1, E3], axis=1), (1, 2))
        vals = [
            height_lyapunov(fl, dec.H)
            for fl in simulate_flag(
                additive_jordan(np.array([[0.0, -2, 0], [2, 0, 0], [0, 0, 0]])),
                f0,
                np.linspace(0.3, 6.0, 20),
            )
        ]
        assert max(vals) - min(vals) < 1e-8

    def test_decreasing_along_trajectories(self, rng, pol):
        dec = additive_jordan(x4(1, 2), pol)
        for _ in range(10):
            f0 = random_flag(3, (1, 2), rng)
            traj = simulate_flag(dec, f0, np.arange(0.5, 20.0, 0.5))
            vals = [height_lyapunov(f, dec.H, pol) for f in traj]
            assert all(b - a <= 1e-10 for a, b in zip(vals, vals[1:]))

    def test_attractor_extremal(self, rng, pol):
        dec = additive_jordan(x4(1, 2), pol)
        att = Flag(np.stack([E3, E1], axis=1), (1, 2))
        rep = Flag(np.stack([E1, E2], axis=1), (1, 2))
        v_att = height_lyapunov(att, dec.H, pol)
        v_rep = height_lyapunov(rep, dec.H, pol)
        samples = [
            height_lyapunov(random_flag(3, (1, 2), rng), dec.H, pol)
            for _ in range(100)
        ]
        assert v_att <= min(samples) + 1e-12
        assert v_rep >= max(samples) - 1e-12

    def test_component_defect_certificate(self, pol):
        dec = additive_jordan(x4(1, 2), pol)
        filt = rate_filtration(dec, pol)
        comps = enumerate_morse_components(filt, (1, 2), pol)
        att = next(c for c in comps if c.is_attractor)
        f = Flag(np.stack([E3, E1], axis=1), (1, 2))
        assert component_defect(f, att, filt) < 1e-12
        g = Flag(np.stack([E1, E2], axis=1), (1, 2))
        assert component_defect(g, att, filt) > 0.5

    @pytest.mark.parametrize("scale", [1.0, 0.1])
    def test_component_defect_matches_dense_model(self, rng, pol, scale):
        """Scaling rows by their rates is the dense block-diagonal model."""
        x = scale * np.diag([3.0, 3.0, 0.5, -2.0, -4.5])
        c = np.eye(5) + 0.3 * rng.normal(size=(5, 5))
        filt = rate_filtration(additive_jordan(c @ x @ np.linalg.inv(c), pol), pol)
        model = np.diag(np.repeat(filt.rates, filt.mults))
        dims = FlagType((1, 3, 4))
        comps = enumerate_morse_components(filt, dims, pol)
        for _ in range(10):
            f = random_flag(5, dims, rng)
            yo = np.linalg.qr(np.linalg.solve(filt.transform, f.basis))[0]
            for comp in comps:
                cum = np.cumsum(comp.assignment, axis=0)
                starts = filt.row_starts()
                ref = 0.0
                for i, d in enumerate(dims.dims):
                    cols = yo[:, :d]
                    for j in range(len(filt.mults)):
                        mass = np.sum(cols[starts[j] : starts[j + 1]] ** 2)
                        ref = max(ref, abs(mass - cum[i, j]))
                    hv = model @ cols
                    resid = np.linalg.norm(hv - cols @ (cols.T @ hv))
                    ref = max(ref, resid / max(1.0, np.linalg.norm(model, 2)))
                assert component_defect(f, comp, filt) == pytest.approx(ref, rel=1e-12)
