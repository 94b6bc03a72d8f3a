import dataclasses
import json
import math
import tracemalloc

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
    enumerate_morse_components,
    flag_recurrent_membership,
    height_lyapunov,
    matrix_exp,
    multiplicative_jordan,
    rate_filtration,
    simulate_flag,
    stable_set_index,
    unstable_bruhat_cell,
)
from jordanflow import flags
from jordanflow.cli import main
from jordanflow.errors import (
    IllConditioned,
    InvariantViolated,
    JordanFlowError,
    RankAmbiguous,
)
from jordanflow.flags import (
    RateFiltration,
    _cell_assignment,
    _census,
    component_defect,
    nearest_component,
    random_flag,
)
from oracles import (
    cell_assignment_reference,
    contingency_tables_bruteforce,
    greedy_assignment_reference,
    height_lyapunov_reference,
    pair_counts_bruteforce,
    plucker_embed,
    simulation_check_reference,
    wedge_infinitesimal,
    wedge_representation,
)
from systems import E1, E2, E3, x1, x4, x5


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

    @pytest.mark.parametrize("dims", [(1.5,), (True,), (1, 2.0), 3, None])
    def test_non_integer_or_non_sequence_rejected(self, dims):
        with pytest.raises(InputError):
            FlagType(dims)

    def test_numpy_integers_accepted(self):
        dims = FlagType(np.array([1, 3])).dims
        assert dims == (1, 3) and all(type(d) is int for d in dims)

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        b = np.array([[1.0, 0.0], [0.0, bad], [0.0, 0.0]])
        with pytest.raises(InputError, match="non-finite"):
            Flag(b, (1, 2))


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

    def test_component_stores_table_and_dimensions_only(self):
        """The rates are the filtration's, stated once; attractor and
        repeller are read off the dimensions."""
        names = [f.name for f in dataclasses.fields(flags.FlagMorseComponent)]
        assert names == ["assignment", "dim_component", "dim_unstable", "dim_stable"]
        comps = enumerate_morse_components(rate_filtration(additive_jordan(x5(1.0))), (1, 2))
        for c in comps:
            assert c.is_attractor is (c.dim_unstable == 0)
            assert c.is_repeller is (c.dim_stable == 0)

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
        rates = tuple(sorted([float(r.normal()) for _ in range(k)], reverse=True))
        comps = enumerate_morse_components(_filtration(n, tuple(mults), rates), dims)
        assert sorted(c.assignment for c in comps) == sorted(brute)
        for c in comps:
            dc, du, ds = c.dim_component, c.dim_unstable, c.dim_stable
            assert dc + du + ds == FlagType(dims).manifold_dimension(n)


def enumerated_dimensions(table, rates, dims):
    """(component, unstable, stable) dimensions of the enumerated component
    with this table, over the standard frame with the table's margins."""
    mults = tuple(map(sum, zip(*table)))
    comps = enumerate_morse_components(_filtration(sum(mults), mults, rates), dims)
    c = next(c for c in comps if c.assignment == table)
    return c.dim_component, c.dim_unstable, c.dim_stable


class TestComponentDimensions:
    def test_attractor_projective_case(self):
        # H = diag(2,-1,-1), P^2: attractor [e3] has its whole complement stable
        assert enumerated_dimensions(((1, 0), (0, 2)), (2.0, -1.0), (1,)) == (0, 0, 2)

    def test_repeller_projective_case(self):
        assert enumerated_dimensions(((0, 1), (1, 1)), (2.0, -1.0), (1,)) == (1, 1, 0)

    def test_regular_identity_assignment(self):
        n = 4
        table = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        rates = (3.0, 1.0, -1.0, -3.0)
        assert enumerated_dimensions(table, rates, (1, 2, 3)) == (0, 0, n * (n - 1) // 2)


@st.composite
def census_cases(draw):
    """(n, flag dims, cluster multiplicities, cluster rates) for n <= 7.
    Rates are distinct integers in decreasing order, as in a rate
    filtration."""
    n = draw(st.integers(2, 7))
    cuts = draw(st.sets(st.integers(1, n - 1), min_size=1))
    dims = tuple(sorted(cuts))
    col_cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    mults = tuple(b - a for a, b in zip([0, *col_cuts], [*col_cuts, n]))
    return n, dims, mults, draw(decreasing_rates(len(mults), 3))


def decreasing_rates(k, bound):
    """k distinct integer rates in [-bound, bound], as strictly decreasing floats."""
    return st.sets(st.integers(-bound, bound), min_size=k, max_size=k).map(
        lambda s: tuple(float(r) for r in sorted(s, reverse=True))
    )


def _filtration(n, mults, rates):
    """A RateFiltration over the standard frame with the given clusters; it
    is built directly so that any rates can be given."""
    eye = np.eye(n)
    starts = np.cumsum([0, *mults])
    blocks = tuple(eye[:, a:b] for a, b in zip(starts, starts[1:]))
    return RateFiltration(rates=rates, mults=mults, blocks=blocks, transform=eye)


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
        counts = enumerated_dimensions(table, rates, dims)
        assert counts == pair_counts_bruteforce(table, rates)

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
        """Strictly decreasing rates are counted as the oracle counts; tied
        and unsorted ones are refused."""
        filt = _filtration(7, (1,) * 7, rates)
        if not all(a > b for a, b in zip(rates, rates[1:])):
            with pytest.raises(InvariantViolated, match="strictly decrease"):
                enumerate_morse_components(filt, range(1, 7))
            return
        comps = enumerate_morse_components(filt, range(1, 7))
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
        tables = _census(rows, cols)[0]
        assert list(tables) == sorted(contingency_tables_bruteforce(rows, cols))

    def test_full_flag_n7_sorted(self):
        tables = list(_census([1] * 7, [1] * 7)[0])
        assert len(set(tables)) == len(tables) == 5040
        assert tables == sorted(tables)


@st.composite
def census_margins(draw):
    """(n, flag dims, cluster multiplicities, cluster rates) for n <= 8 whose
    brute-force table scan stays small.  Rates are distinct integers in
    decreasing order, as in a rate filtration."""
    n = draw(st.integers(2, 8))
    dims = tuple(sorted(draw(st.sets(st.integers(1, n - 1), min_size=1))))
    col_cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    mults = tuple(b - a for a, b in zip([0, *col_cuts], [*col_cuts, n]))
    increments = FlagType(dims).increments(n)
    assume(math.prod(min(r, c) + 1 for r in increments for c in mults) <= 20_000)
    return n, dims, mults, draw(decreasing_rates(len(mults), 4))


class TestCensusRecursion:
    """The memoized recursion lists the tables and their pair counts in one
    pass; both are checked against the brute-force oracles."""

    @staticmethod
    def check_against_oracles(n, dims, mults, rates):
        comps = enumerate_morse_components(_filtration(n, mults, rates), dims)
        got = [(c.assignment, c.dim_component, c.n_w, c.dim_stable) for c in comps]
        increments = FlagType(dims).increments(n)
        want = [
            (t, *pair_counts_bruteforce(t, rates))
            for t in sorted(contingency_tables_bruteforce(list(increments), list(mults)))
        ]
        assert got == want

    @given(case=census_margins())
    @settings(max_examples=120, deadline=None)
    def test_sequence_matches_oracles(self, case):
        self.check_against_oracles(*case)

    @pytest.mark.parametrize(
        "rates",
        [
            (2.0, 1.0, 0.0, -1.0),
            (-1.0, 0.0, 1.0, 2.0),
            (1.0, 1.0, 0.0, 0.0),
            (0.0, 2.0, 0.0, -1.0),
        ],
    )
    def test_sorted_and_general_rate_orders(self, rates):
        """Strictly decreasing rates are counted as the oracles count; any
        other order, ties included, is refused rather than miscounted."""
        if all(a > b for a, b in zip(rates, rates[1:])):
            self.check_against_oracles(5, (1, 3), (1, 2, 1, 1), rates)
            return
        with pytest.raises(InvariantViolated, match="strictly decrease"):
            enumerate_morse_components(_filtration(5, (1, 2, 1, 1), rates), (1, 3))

    def test_dimension_sum_certificate(self, monkeypatch):
        """A table whose three dimensions miss the manifold dimension is
        refused, not listed."""
        census = flags._census

        def planted(*args):
            tables, dims_c, dims_u, dims_s = census(*args)
            return tables, dims_c, dims_u, [dims_s[0] + 1, *dims_s[1:]]

        filt = rate_filtration(additive_jordan(x1(1, 2)))
        assert len(enumerate_morse_components(filt, (1, 2))) == 6
        monkeypatch.setattr(flags, "_census", planted)
        with pytest.raises(InvariantViolated):
            enumerate_morse_components(filt, (1, 2))

    def test_non_regular_needs_a_positive_dimensional_component(self, monkeypatch):
        """classify_flow refuses a non-regular census without a
        positive-dimensional component; a regular one is not checked."""
        enumerate_ = flags.enumerate_morse_components

        def planted(*args):
            return [dataclasses.replace(c, dim_component=0) for c in enumerate_(*args)]

        monkeypatch.setattr(flags, "enumerate_morse_components", planted)
        with pytest.raises(InvariantViolated):
            classify_flow(additive_jordan(x4(1, 2)), (1, 2))
        assert classify_flow(additive_jordan(x1(1, 2)), (1, 2)).h_regular


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
        wfilt = rate_filtration(wdec, pol)
        rng = np.random.default_rng(7)
        for _ in range(25):
            f = random_flag(4, (2,), rng)
            cell = bruhat_cell(f, filt, (2,), pol, components=comps)
            table = comps[cell].assignment
            # rate of the wedge image predicted by the cell's top row
            predicted_rate = sum(
                filt.rates[j] * table[0][j] for j in range(len(filt.rates))
            )
            widx = stable_set_index(plucker_embed(f), wdec, pol)
            assert wfilt.rates[widx] == pytest.approx(predicted_rate, abs=1e-9)


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


def planted_near_threshold_flag(seed, reverse, pol):
    """(dec, filtration, line) with at least two rates, the line's leading
    rate-frame coordinate twice the rank threshold (``reverse``: the
    trailing one)."""
    rng = np.random.default_rng(seed)
    dec = _repeated_rate_dec(rng, discrete=False)
    filt = rate_filtration(dec, pol)
    while len(filt.mults) == 1:  # one rate: every rank is full
        dec = _repeated_rate_dec(rng, discrete=False)
        filt = rate_filtration(dec, pol)
    q = filt.transform
    lead, tail = (q.shape[1] - 1, 0) if reverse else (0, q.shape[1] - 1)
    y = np.zeros(q.shape[1])
    y[tail] = 1.0
    y[lead] = 2.0 * pol.residual_tol * max(1.0, 1.0 / np.linalg.norm(q[:, tail]))
    y[lead] *= np.linalg.norm(q @ y)
    return dec, filt, Flag((q @ y / np.linalg.norm(q @ y))[:, None], (1,))


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
        _, filt, f = planted_near_threshold_flag(seed, reverse, pol)
        ref = _outcome(cell_assignment_reference, f, filt, pol, reverse)
        assert ref[0] is RankAmbiguous
        assert _outcome(_cell_assignment, f, filt, pol, reverse) == ref


class TestClassify:
    def test_regular_distinct_rates(self):
        cls = classify_flow(additive_jordan(np.diag([3.0, 1.0, -4.0])), (1, 2))
        assert cls.h_regular and cls.structurally_stable and cls.conformal
        assert len(cls.components) == 6
        assert all(c.dim_component == 0 for c in cls.components)

    def test_x5_unstable_not_conformal(self):
        cls = classify_flow(additive_jordan(x5(1.0)), (1,))
        assert not cls.h_regular and not cls.conformal and not cls.structurally_stable

    def test_x4_unstable_but_conformal(self):
        cls = classify_flow(additive_jordan(x4(1, 2)), (1,))
        assert not cls.h_regular and cls.conformal and not cls.structurally_stable

    def test_nonregular_has_fat_component(self):
        for mat in (x4(1, 2), x5(1.0)):
            for dims in [(1,), (1, 2)]:
                cls = classify_flow(additive_jordan(mat), dims)
                assert any(c.dim_component > 0 for c in cls.components)

    def test_conjugation_covariance(self, rng, pol):
        from jordanflow import TolerancePolicy

        loose = TolerancePolicy(cluster_tol=1e-6)
        for mat in (x4(1, 2), x5(1.0), np.diag([3.0, 1.0, -4.0])):
            base = classify_flow(additive_jordan(mat, loose), (1,), loose)
            for _ in range(5):
                c = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
                cls = classify_flow(
                    additive_jordan(c @ mat @ np.linalg.inv(c), loose), (1,), loose
                )
                assert cls.h_regular == base.h_regular
                assert cls.conformal == base.conformal
                assert cls.structurally_stable == base.structurally_stable
                assert len(cls.components) == len(base.components)

    def test_discrete_time(self, pol):
        g = matrix_exp(x4(1, 2))
        cls = classify_flow(multiplicative_jordan(g, pol), (1,), pol)
        assert not cls.h_regular and cls.conformal and not cls.structurally_stable

    def test_full_space_flag_rejected(self):
        with pytest.raises(InputError):
            classify_flow(additive_jordan(x4(1, 2)), (1, 2, 3))

    def test_pair_margin(self):
        """Mean |Im| of a non-real cluster over cluster_tol * max(1, |lambda|),
        larger over smaller; inf without non-real clusters."""
        assert classify_flow(additive_jordan(x5(1.0)), (1,)).pair_margin == math.inf
        # X4(1, 2): the pair -1 +- 2i
        margin = classify_flow(additive_jordan(x4(1, 2)), (1,)).pair_margin
        assert margin == pytest.approx(2.0 / (1e-8 * math.sqrt(5.0)))
        for seed in (0, 3):
            q = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))[0]
            cls = classify_flow(additive_jordan(q @ x5(1.0) @ q.T), (1,))
            assert cls.conformal and 1.0 <= cls.pair_margin < 2.0


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

    @pytest.mark.parametrize("dims", [(2,), (1, 2)])
    def test_x5_plane_near_a_nilpotent_direction(self, dims):
        """span(e3, e1 + theta e2) is H-invariant, and N moves it by only
        ~theta^2, but N's compression to it has trace ~theta: it is
        recurrent at theta = 0 and not at 1e-6."""
        dec = additive_jordan(x5(1.0))
        for theta, truth in ((0.0, True), (1e-6, False)):
            b = np.stack([E3, (E1 + theta * E2) / math.hypot(1.0, theta)], axis=1)
            assert flags._invariance_residual(dec.N, b) < 1e-9
            assert flag_recurrent_membership(Flag(b, dims), dec) == truth

    @pytest.mark.parametrize("phi", [0.3, 0.7, 1.0, 1.3, 2.0])
    def test_fixed_plane_in_a_rotated_basis(self, phi):
        """span(e1, e2) is fixed by X5, whose N maps e2 to e1.  In a basis
        rotated by phi inside the plane, N's compression is a 2 x 2 Jordan
        block up to rounding, whose eigenvalues move to ~5e-9, above
        residual_tol; the traces of its powers stay ~1e-17."""
        dec = additive_jordan(x5(1.0))
        c, s = math.cos(phi), math.sin(phi)
        b = np.stack([c * E1 + s * E2, c * E2 - s * E1], axis=1)
        assert flag_recurrent_membership(Flag(b, (2,)), dec)


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

    def test_discrete_refuses_non_integer_time(self, rng):
        dec = multiplicative_jordan(matrix_exp(x4(1, 2)))
        f0 = random_flag(3, (1, 2), rng)
        with pytest.raises(InputError, match="integer time"):
            simulate_flag(dec, f0, [1.7])

    def test_discrete_integer_valued_float_is_the_integer(self, rng):
        dec = multiplicative_jordan(matrix_exp(x4(1, 2)))
        f0 = random_flag(3, (1, 2), rng)
        got = simulate_flag(dec, f0, [1.0, 2.0, -3.0])
        want = simulate_flag(dec, f0, [1, 2, -3])
        assert all(np.array_equal(a.basis, b.basis) for a, b in zip(got, want))


def _sim_outcome(fn, *args):
    """(forward, reverse, worst bits), or (error type, message, margin
    bits)."""
    try:
        forward, reverse, worst = fn(*args)
    except JordanFlowError as exc:
        margins = {k: float.hex(float(v)) for k, v in getattr(exc, "margins", {}).items()}
        return type(exc), str(exc), margins
    assert type(forward) is int and type(reverse) is int
    return forward, reverse, float.hex(float(worst))


def _spectral_shape(rng, n, discrete):
    """(decomposition, horizon) shaped like the benchmark's spectral group:
    n // 3 rotation pairs and real rates about 0.4 apart, traceless,
    conjugated by I + 0.3 G; in discrete time the exponential with two real
    eigenvalues negated.  The horizon is max(25, 30 / smallest rate gap)."""
    pairs = n // 3
    rates = 0.4 * np.arange(n - pairs, 0, -1) + rng.uniform(-0.1, 0.1, n - pairs)
    mult = np.where(rng.permutation(n - pairs) < pairs, 2, 1)
    rates -= np.dot(mult, rates) / n
    d = np.zeros((n, n))
    i = 0
    for r, m in zip(rates, mult):
        w = rng.uniform(0.5, 2.0)
        d[i : i + m, i : i + m] = [[r, -w], [w, r]] if m == 2 else r
        i += m
    c = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    horizon = max(25.0, 30.0 / np.min(-np.diff(np.sort(rates)[::-1])))
    if not discrete:
        return additive_jordan(c @ d @ np.linalg.inv(c)), horizon
    e = matrix_exp(d)
    reals = [j for j in range(n) if np.count_nonzero(e[j]) == 1]
    for j in reals[: 2 if len(reals) >= 2 else 0]:
        e[j, j] = -e[j, j]
    return multiplicative_jordan(c @ e @ np.linalg.inv(c)), max(1, int(horizon))


class _PlantedRng:
    """A generator whose normal draw for start ``k`` is ``basis``, whether
    the starts are drawn one at a time or as stacks."""

    def __init__(self, rng, k, basis):
        self.rng, self.k, self.basis, self.drawn = rng, k, basis, 0

    def normal(self, size):
        out = self.rng.normal(size=size)
        draws = out.reshape(-1, *self.basis.shape)
        if 0 <= self.k - self.drawn < len(draws):
            draws[self.k - self.drawn] = self.basis
        self.drawn += len(draws)
        return out


def _plant_nan_end(monkeypatch, start, forward):
    """The end flag of ``start`` (within its stack) on one leg is NaN."""
    advance = flags._advance

    def planted(dec, basis, dt, cache, renorm):
        out = advance(dec, basis, dt, cache, renorm)
        if (dt > 0) == forward:
            out = out.copy()
            out[start] = np.nan
        return out

    monkeypatch.setattr(flags, "_advance", planted)


class TestSimulationCheck:
    @pytest.mark.parametrize("mat", [x1(1, 2), x4(1, 2), x5(1.0)], ids=["x1", "x4", "x5"])
    @pytest.mark.parametrize("dims", [(1,), (1, 2)])
    def test_start_by_start_against_nearest_component(self, monkeypatch, mat, dims):
        """Criterion 5's reference loop (``simulate_flag`` per start, every
        component scored by ``nearest_component``) on the same seeded flags:
        each leg ends on the same flag, nearest to the predicted component,
        and ``simulation_check`` scores that component with the same defect.
        The batched scorer takes each leg's starts as one stack, so the
        reference's rows are compared leg by leg."""
        dec = additive_jordan(mat)
        cls = classify_flow(dec, dims)
        filt, comps = cls.filtration, cls.components
        rng = np.random.default_rng(11)
        want = []
        for _ in range(10):
            f0 = random_flag(3, dims, rng)
            for cell, t in ((bruhat_cell, 25.0), (unstable_bruhat_cell, -25.0)):
                end = simulate_flag(dec, f0, [t])[-1]
                near, defect = nearest_component(end, comps, filt)
                assert near == cell(f0, filt, dims, components=comps)
                want.append((end.basis, comps[near], defect))

        want = want[0::2] + want[1::2]

        got = []
        score = flags._defects

        def scored(bases, dims, components, filt):
            defects = score(bases, dims, components, filt)
            got.extend(zip(bases, components, defects))
            return defects

        monkeypatch.setattr(flags, "_defects", scored)
        forward, reverse, worst = flags.simulation_check(dec, cls, dims, 10, 11, 25.0)
        assert len(got) == len(want) == 20
        for (basis, comp, defect), (basis_ref, comp_ref, defect_ref) in zip(got, want):
            assert np.array_equal(basis, basis_ref)
            assert comp == comp_ref and defect == defect_ref
        assert (forward, reverse) == (10, 10)
        assert worst == max(d for *_, d in want) <= 1e-6

    @pytest.mark.parametrize("mat", [x1(1, 2), x4(1, 2), x5(1.0)], ids=["x1", "x4", "x5"])
    @pytest.mark.parametrize("dims", [(1,), (1, 2)])
    def test_matches_reference(self, mat, dims, pol):
        """Match counts and worst-defect bits equal the per-start loop's; 70
        starts take two stacks."""
        dec = additive_jordan(mat)
        cls = classify_flow(dec, dims, pol)
        for seed, starts in ((0, 1), (1, 10), (2, 70)):
            args = (dec, cls, dims, starts, seed, 25.0, pol)
            want = _sim_outcome(simulation_check_reference, *args)
            assert _sim_outcome(flags.simulation_check, *args) == want

    @pytest.mark.parametrize("discrete", [False, True], ids=["continuous", "discrete"])
    @pytest.mark.parametrize("n", [3, 6, 9, 12])
    def test_matches_reference_on_spectral_shapes(self, n, discrete, pol):
        """The benchmark spectral group's analyze shape: flag ``1``, 4
        starts, horizon max(25, 30 / gap)."""
        for draw in range(2):
            rng = np.random.default_rng([n, discrete, draw])
            dec, horizon = _spectral_shape(rng, n, discrete)
            cls = classify_flow(dec, (1,), pol)
            args = (dec, cls, (1,), 4, draw, horizon, pol)
            want = _sim_outcome(simulation_check_reference, *args)
            assert _sim_outcome(flags.simulation_check, *args) == want

    @given(
        seed=st.integers(0, 2**32 - 1),
        starts=st.integers(0, 9),
        system=st.sampled_from([x1(1, 2), x4(1, 2), x5(1.0)]),
        dims=st.sampled_from([(1,), (2,), (1, 2)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_sweep(self, seed, starts, system, dims):
        dec = additive_jordan(system)
        cls = classify_flow(dec, dims)
        args = (dec, cls, dims, starts, seed, 25.0)
        want = _sim_outcome(simulation_check_reference, *args)
        assert _sim_outcome(flags.simulation_check, *args) == want

    @pytest.mark.parametrize("block", [1, 3, None])
    def test_stack_size_keeps_the_bits(self, monkeypatch, block, pol):
        if block is not None:
            monkeypatch.setattr(flags, "_BLOCK_STARTS", block)
        dec = additive_jordan(x4(1, 2))
        cls = classify_flow(dec, (1, 2), pol)
        args = (dec, cls, (1, 2), 10, 4, 25.0, pol)
        want = _sim_outcome(simulation_check_reference, *args)
        assert _sim_outcome(flags.simulation_check, *args) == want

    def test_no_starts_draw_nothing(self, monkeypatch):
        dec = additive_jordan(x4(1, 2))
        cls = classify_flow(dec, (1,))
        made = []
        make = np.random.default_rng
        monkeypatch.setattr(
            np.random,
            "default_rng",
            lambda seed: made.append(_PlantedRng(make(seed), 0, np.zeros((3, 1)))) or made[-1],
        )
        got = flags.simulation_check(dec, cls, (1,), 0, 5, 25.0)
        assert got == (0, 0, 0.0) and float.hex(got[2]) == "0x0.0p+0"
        assert [rng.drawn for rng in made] == [0]

    def test_peak_memory_does_not_grow_with_starts(self):
        """Gr(3, 6): the tracemalloc peak of 8 stacks of starts is within
        half of one stack's (all 8 held at once read about 8 times)."""
        dec = additive_jordan(np.diag([2.5, 1.5, 0.5, -0.5, -1.5, -2.5]))
        cls = classify_flow(dec, (3,))
        sizes = (flags._BLOCK_STARTS, 8 * flags._BLOCK_STARTS)
        for starts in sizes:  # lazy set-up
            flags.simulation_check(dec, cls, (3,), starts, 0, 2.0)
        peaks = []
        for starts in sizes:
            tracemalloc.start()
            try:
                flags.simulation_check(dec, cls, (3,), starts, 0, 2.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    @pytest.fixture
    def planted(self, monkeypatch, tmp_path, pol):
        """(dec, cls, argv of ``analyze --flag 1 --simulate 4``), with start
        1 a line whose forward rank decision is twice its threshold."""
        dec, filt, line = planted_near_threshold_flag(0, False, pol)
        cls = classify_flow(dec, (1,), pol)
        args = (dec, cls, (1,), 4, 0, 25.0, pol)
        assert type(_sim_outcome(simulation_check_reference, *args)[0]) is int
        make = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: _PlantedRng(make(seed), 1, line.basis)
        )
        path = tmp_path / "planted.json"
        path.write_text(json.dumps({"n": filt.n, "rows": dec.X.tolist()}))
        return dec, cls, ["analyze", str(path), "--flag", "1", "--simulate", "4", "--seed", "0"]

    def test_planted_rank_ambiguity(self, planted, pol):
        """Only start 1 is ambiguous: the stack raises what the per-start
        loop raises, and the CLI exits 1."""
        dec, cls, argv = planted
        args = (dec, cls, (1,), 4, 0, 25.0, pol)
        want = _sim_outcome(simulation_check_reference, *args)
        assert want[0] is RankAmbiguous
        assert _sim_outcome(flags.simulation_check, *args) == want
        assert main(argv) == 1

    def test_planted_nan_end_flag(self, monkeypatch, tmp_path):
        """Start 2 of 4 ends on a NaN flag going forward: InputError, exit
        2."""
        _plant_nan_end(monkeypatch, 2, forward=True)
        dec = additive_jordan(x4(1, 2))
        cls = classify_flow(dec, (1,))
        with pytest.raises(InputError, match="non-finite"):
            flags.simulation_check(dec, cls, (1,), 4, 0, 25.0)
        path = tmp_path / "x4.json"
        path.write_text(json.dumps({"n": 3, "rows": x4(1, 2).tolist()}))
        assert main(["analyze", str(path), "--flag", "1", "--simulate", "4"]) == 2

    @pytest.mark.parametrize(
        "start, forward, error", [(0, False, InputError), (2, True, RankAmbiguous)]
    )
    def test_first_failing_start_raises(self, planted, monkeypatch, start, forward, error):
        """Start 1 is ambiguous and one more start ends on a NaN flag: the
        earlier start raises, the reverse leg of start 0 before start 1."""
        _plant_nan_end(monkeypatch, start, forward)
        dec, cls, argv = planted
        with pytest.raises(error):
            flags.simulation_check(dec, cls, (1,), 4, 0, 25.0)


class TestHeightFrameMemo:
    """``height_lyapunov`` keeps the rate frame of the last H it factored:
    one entry, keyed by H's bytes and the policy."""

    @pytest.fixture
    def spectra(self, monkeypatch):
        """Every factorization ``height_lyapunov`` runs, by the H it gets."""
        seen = []
        spectrum = flags.complex_spectrum

        def counted(a, pol=None):
            seen.append(np.array(a))
            return spectrum(a, pol)

        monkeypatch.setattr(flags, "complex_spectrum", counted)
        return seen

    def test_one_h_is_factored_once(self, spectra, rng, pol):
        flags._h_frame.cache_clear()
        dec = additive_jordan(x4(1, 2), pol)
        traj = simulate_flag(dec, random_flag(3, (1, 2), rng), np.arange(1.0, 11.0))
        for f in [traj[0], *traj]:
            got = height_lyapunov(f, dec.H, pol)
            assert float.hex(got) == float.hex(height_lyapunov_reference(f, dec.H, pol))
        assert len(spectra) == 1
        assert np.array_equal(spectra[0], dec.H)

    def test_alternating_hs_factor_every_call(self, spectra, rng, pol):
        flags._h_frame.cache_clear()
        hs = [additive_jordan(x4(1, 2), pol).H, additive_jordan(x1(1, 2), pol).H]
        for i in range(6):
            f = random_flag(3, (1, 2), rng)
            h = hs[i % 2]
            got = height_lyapunov(f, h, pol)
            assert float.hex(got) == float.hex(height_lyapunov_reference(f, h, pol))
        assert len(spectra) == 6

    def test_policy_is_part_of_the_key(self, spectra, rng, pol):
        flags._h_frame.cache_clear()
        h = additive_jordan(x4(1, 2), pol).H
        f = random_flag(3, (1, 2), rng)
        height_lyapunov(f, h, pol)
        height_lyapunov(f, h, dataclasses.replace(pol, cluster_tol=1e-6))
        height_lyapunov(f, h, dataclasses.replace(pol, cluster_tol=1e-6))
        assert len(spectra) == 2

    def test_key_is_the_content_not_the_object(self, spectra, rng, pol):
        flags._h_frame.cache_clear()
        h = additive_jordan(x4(1, 2), pol).H.copy()
        f = random_flag(3, (1, 2), rng)
        before = height_lyapunov(f, h, pol)
        h *= 2.0
        after = height_lyapunov(f, h, pol)
        assert len(spectra) == 2
        assert float.hex(after) == float.hex(height_lyapunov_reference(f, h, pol))
        assert after != before

    @pytest.mark.parametrize(
        "h, factored",
        [(np.diag([1.0, np.nan, 0.0]), 0), (np.ones((3, 2)), 0), (np.eye(13), 3)],
        ids=["non-finite", "not-square", "refused-by-the-factorization"],
    )
    def test_refused_h_raises_every_call(self, spectra, rng, pol, h, factored):
        flags._h_frame.cache_clear()
        f = random_flag(h.shape[0], (1,), rng)
        for _ in range(3):
            with pytest.raises(InputError):
                height_lyapunov(f, h, pol)
        assert len(spectra) == factored
        assert flags._h_frame.cache_info().currsize == 0


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
