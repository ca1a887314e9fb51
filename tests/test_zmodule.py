"""Exact integer linear algebra: Smith forms, presented groups, homs."""

import doctest
import random
from math import prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors as sympy_invariant_factors

import oghom.zmodule as zm
from oghom.errors import CompositeNonzero, PreconditionViolation
from oghom.homology import group_resolution
from oghom.zmodule import (
    AbHom,
    ColumnSolver,
    EchelonBasis,
    FgAbGroup,
    ZMatrix,
    block_diag,
    homology_at,
    invariant_factors,
    kernel_basis,
    snf,
)
from .oracles import (
    SmithColumnSolver,
    add_canonical,
    brute_force_homology,
    canonical_orders_by_snf,
    det,
    direct_sum,
    element_vectors,
    enumerate_homs,
    group_order,
    hermite_rows_by_min_abs,
    in_relation_span_by_min_abs,
    in_relation_span_by_solve,
    is_unimodular,
    kernel_rows_by_min_abs,
    permutation_group,
    random_int_matrix,
    random_zero_composite,
    same_invariants,
    scale_canonical,
    snf_min_abs,
)


def test_doctests():
    failures, _ = doctest.testmod(zm)
    assert failures == 0


# ---------------------------------------------------------------- Smith normal form

def assert_snf_postconditions(m):
    """snf(m) is a Smith form with its transforms and has the diagonal
    of the min-abs-pivot oracle."""
    res = snf(m)
    assert res.diagonal == snf_min_abs(m).diagonal
    assert res.u.mul(m).mul(res.v) == res.s
    assert is_unimodular(res.u) and is_unimodular(res.v)
    assert res.u.mul(res.uinv) == ZMatrix.identity(m.nrows)
    assert res.v.mul(res.vinv) == ZMatrix.identity(m.ncols)
    diag = res.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        # divisibility chain, with zeros only at the tail
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    for i in range(res.s.nrows):
        for j in range(res.s.ncols):
            if i != j:
                assert res.s.rows[i][j] == 0


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_snf_postconditions_random(data):
    nrows = data.draw(st.integers(0, 7))
    ncols = data.draw(st.integers(0, 7))
    rows = data.draw(st.lists(
        st.lists(st.integers(-30, 30), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows))
    # a row that is an integer combination of others drops the rank
    if nrows > 2 and data.draw(st.booleans()):
        p, q = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
        rows[-1] = [p * x + q * y for x, y in zip(rows[0], rows[1])]
    assert_snf_postconditions(ZMatrix(rows, ncols=ncols))


def test_snf_transforms_stay_polynomial():
    # Kannan-Bachem keeps U, V and their inverses within a few times the
    # determinant's bit length; min-abs pivoting without reduction
    # (snf_min_abs) breaks the bound from the first matrix on, with 1738
    # bits against 127
    rng = random.Random(79)
    for n in (20, 27, 33, 40):
        m = ZMatrix([[rng.randint(-50, 50) for _ in range(n)]
                     for _ in range(n)])
        d = det(m)
        assert d != 0
        res = snf(m)
        peak = max(abs(v).bit_length()
                   for t in (res.u, res.v, res.uinv, res.vinv)
                   for row in t.rows for v in row)
        assert peak <= 4 * abs(d).bit_length() + 64


def test_snf_known_forms():
    assert snf(ZMatrix([[2, 4], [6, 8]])).diagonal == (2, 4)
    assert snf(ZMatrix([[1, 0], [0, 1]])).diagonal == (1, 1)
    assert snf(ZMatrix.zeros(3, 2)).diagonal == (0, 0)
    # classic: diag(2, 3) has invariant factors 1, 6
    assert snf(ZMatrix([[2, 0], [0, 3]])).diagonal == (1, 6)


def test_kernel_basis_and_preimage_generators():
    m = ZMatrix([[2, 4, 6], [1, 2, 3]])
    k = kernel_basis(m)
    assert m.mul(k) == ZMatrix.zeros(m.nrows, k.ncols)
    assert k.ncols == 2
    # {x : x1 + x2 even}: the generators may be dependent, but they land
    # in 2Z and span every vector that does
    gens = zm.preimage_lattice(ZMatrix([[1, 1]]), ZMatrix([[2]]))
    assert all(sum(gens.col(j)) % 2 == 0 for j in range(gens.ncols))
    solver = ColumnSolver(gens)
    assert all(solver.solve_vector(v) is not None
               for v in [(2, 0), (1, 1), (1, -1), (0, 2)])
    assert solver.solve_vector((1, 0)) is None


def test_homology_at_on_dependent_kernel_generators():
    # Z -> Z/2 presented by the relations 2 and 4: the kernel 2Z comes as
    # two generators of Z^1, whose own relation must be kept
    z = FgAbGroup.free(1)
    c = FgAbGroup(1, ZMatrix([[2, 4]]))
    g = AbHom(z, c, ZMatrix([[1]]))
    assert zm.preimage_lattice(g.matrix, c.relations).ncols == 2
    assert homology_at(AbHom.zero(FgAbGroup.trivial(), z),
                       g).canonical_form() == (1, ())
    # 2Z modulo 6Z
    six = AbHom(z, z, ZMatrix([[6]]))
    assert homology_at(six, g).canonical_form() == (0, (3,))


def test_column_solver():
    m = ZMatrix([[2, 0], [0, 3]])
    s = ColumnSolver(m)
    x = s.solve_vector([4, 9])
    assert m.apply(x) == (4, 9)
    assert s.solve_vector([1, 0]) is None
    assert s.solve_vector([2, 3]) == (1, 1)
    assert s.solve_vector([3, 3]) is None


# ---------------------------------------------------------------- solves and kernels


def assert_solver_agrees(m, vectors):
    """ColumnSolver against the Smith-form solver: the same verdict on
    every vector, M x = c for every x returned, and a kernel K with
    M K = 0, the oracle's rank and the oracle's lattice, whose columns
    are exactly the reduced Hermite rows of the kernel; returns the
    verdicts."""
    solver, oracle = ColumnSolver(m), SmithColumnSolver(m)
    verdicts = []
    for c in vectors:
        x = solver.solve_vector(c)
        assert (x is None) == (oracle.solve_vector(c) is None), (m, c)
        if x is not None:
            assert m.apply(x) == tuple(c)
        verdicts.append(x is not None)
    x = solver.solve_matrix(ZMatrix.from_cols(vectors, m.nrows))
    assert (x is not None) == all(verdicts)
    if x is not None:
        assert m.mul(x) == ZMatrix.from_cols(vectors, m.nrows)
    k, want = solver.kernel, oracle.kernel
    assert (k.nrows, k.ncols) == (m.ncols, want.ncols)
    assert m.mul(k) == ZMatrix.zeros(m.nrows, k.ncols)
    assert (hermite_rows_by_min_abs(zip(*k.rows))
            == hermite_rows_by_min_abs(zip(*want.rows)))
    assert [list(r) for r in zip(*k.rows)] == kernel_rows_by_min_abs(
        [m.col(j) for j in range(m.ncols)], m.nrows)
    return verdicts


def right_hand_sides(rng, m):
    """Two images of integer vectors, one vector of [-9, 9] and six times
    another, so that solvable and unsolvable ones both occur."""
    def image():
        return m.apply([rng.randint(-3, 3) for _ in range(m.ncols)])

    def anything(scale):
        return [scale * rng.randint(-9, 9) for _ in range(m.nrows)]

    return [image(), image(), anything(1), anything(6)]


def test_column_solver_matches_the_smith_solver_seeded():
    rng = random.Random(97)
    seen = set()
    for rep in range(120):
        n = rng.randint(1, 7)
        nrows, ncols = rng.choice([
            (0, 0), (0, n), (n, 0),                 # empty
            (n + 2, rng.randint(1, n + 1)),         # tall
            (rng.randint(1, n + 1), n + 2),         # wide
            (n, n)])                                # square, made singular
        sparse = rep % 2
        rows = [[rng.choice((0, 0, 0, 0, 1, -1)) if sparse
                 else rng.randint(-50, 50) for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows == ncols > 1:
            p, q = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [p * x + q * y for x, y in zip(rows[0], rows[1])]
        m = ZMatrix(rows, ncols=ncols)
        verdicts = assert_solver_agrees(m, right_hand_sides(rng, m))
        seen.update((sparse, v) for v in verdicts[2:])
    assert seen == {(0, True), (0, False), (1, True), (1, False)}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_column_solver_matches_the_smith_solver_hypothesis(data):
    nrows = data.draw(st.integers(0, 6))
    ncols = data.draw(st.integers(0, 6))
    entry = data.draw(st.sampled_from([st.integers(-50, 50),
                                       st.sampled_from([0, 0, 1, -1])]))
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    if nrows > 2 and data.draw(st.booleans()):
        p, q = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
        rows[-1] = [p * x + q * y for x, y in zip(rows[0], rows[1])]
    m = ZMatrix(rows, ncols=ncols)
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=ncols,
                                max_size=ncols))
    other = data.draw(st.lists(st.integers(-60, 60), min_size=nrows,
                               max_size=nrows))
    assert assert_solver_agrees(m, [m.apply(coeffs), other])[0]


def test_kernel_is_the_reduced_hermite_form_on_wide_matrices():
    # on these kernels of rank 3 to 5 the Hermite pass alone leaves an
    # entry above a pivot unreduced on 13 of the 600 matrices; the sweep
    # after it must reduce them all
    m = ZMatrix([[28, 16, 8, -35, -14, -2]])
    assert [list(r) for r in zip(*ColumnSolver(m).kernel.rows)] == [
        [1, 0, 0, 0, 0, 14], [0, 1, 0, 0, 0, 8], [0, 0, 1, 0, 0, 4],
        [0, 0, 0, 2, 0, -35], [0, 0, 0, 0, 1, -7]]
    rng = random.Random(11)
    for rep in range(600):
        nrows = rng.randint(0, 5)
        ncols = nrows + rng.randint(3, 5)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2)) if rep % 2
                 else rng.randint(-50, 50) for _ in range(ncols)]
                for _ in range(nrows)]
        m = ZMatrix(rows, ncols=ncols)
        assert [list(r) for r in zip(*ColumnSolver(m).kernel.rows)] == (
            kernel_rows_by_min_abs([m.col(j) for j in range(ncols)],
                                   nrows)), rows


def test_solves_kernels_and_resolutions_build_no_smith_form(monkeypatch):
    def no_snf(m):
        raise AssertionError("snf called")

    monkeypatch.setattr(zm, "snf", no_snf)
    m = ZMatrix([[2, 4, 6], [1, 2, 3]])
    assert m.mul(kernel_basis(m)) == ZMatrix.zeros(2, 2)
    x = ColumnSolver(m).solve_matrix(ZMatrix([[4, 0], [2, 0]]))
    assert m.mul(x) == ZMatrix([[4, 0], [2, 0]])
    assert ColumnSolver(m).solve_vector((1, 0)) is None
    s4 = permutation_group([(1, 0, 2, 3), (1, 2, 3, 0)])
    bases, _ = group_resolution(s4, 4)
    assert [len(b) for b in bases] == [1, 2, 3, 4, 5]


def test_kernel_entries_are_no_longer_than_the_smith_kernels():
    # on dense wide matrices the Hermite kernel's entries stay within
    # the bit length of the kernel read from the Smith form's V
    def bits(k):
        return max(abs(v).bit_length() for row in k.rows for v in row)

    rng = random.Random(79)
    for nrows, ncols in [(10, 20), (15, 30), (20, 35), (30, 45), (40, 60)]:
        m = ZMatrix([[rng.randint(-50, 50) for _ in range(ncols)]
                     for _ in range(nrows)])
        k = kernel_basis(m)
        assert m.mul(k) == ZMatrix.zeros(nrows, ncols - nrows)
        assert bits(k) <= bits(SmithColumnSolver(m).kernel)


def test_unimodular_and_det():
    assert is_unimodular(ZMatrix([[1, 5], [0, -1]]))
    assert not is_unimodular(ZMatrix([[2, 0], [0, 1]]))
    assert not is_unimodular(ZMatrix([[1, 0]]))
    assert det(ZMatrix([[2, 1], [1, 1]])) == 1
    assert det(ZMatrix([[0, 1], [1, 0]])) == -1
    assert det(ZMatrix.zeros(0, 0)) == 1
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            rows[-1] = list(rows[0])
        assert det(ZMatrix(rows)) == sympy.Matrix(rows).det()


def test_block_diag():
    b = block_diag([ZMatrix([[1, 2]]), ZMatrix([[3], [4]])])
    assert b.to_lists() == [[1, 2, 0], [0, 0, 3], [0, 0, 4]]
    assert block_diag([]) == ZMatrix.zeros(0, 0)


def test_constructors_and_empty_shapes():
    # the public constructor converts and checks; internal builders keep
    # shapes with no rows or no columns
    m = ZMatrix([[1.0, True], [3, 4]])
    assert m.rows == ((1, 1), (3, 4))
    assert all(type(v) is int for row in m.rows for v in row)
    with pytest.raises(ValueError):
        ZMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        ZMatrix([[1, 2]], ncols=3)
    with pytest.raises(ValueError):
        ZMatrix.from_cols([(1, 2), (3,)], 2)
    for nrows, ncols in [(0, 0), (0, 3), (2, 0), (2, 3)]:
        z = ZMatrix.zeros(nrows, ncols)
        assert (z.nrows, z.ncols) == (nrows, ncols)
        assert z.hstack(ZMatrix.zeros(nrows, 1)).ncols == ncols + 1
        assert ZMatrix.from_cols([], nrows) == ZMatrix.zeros(nrows, 0)
    assert ZMatrix.identity(0) == ZMatrix.zeros(0, 0)


# ---------------------------------------------------------------- invariant factors


def sympy_orders(m):
    """sympy's invariant factors of m, padded with zeros to m.nrows."""
    if m.nrows == 0 or m.ncols == 0:
        return (0,) * m.nrows
    got = sympy_invariant_factors(sympy.Matrix(m.to_lists()), domain=sympy.ZZ)
    return tuple(int(d) for d in got) + (0,) * (m.nrows - len(got))


def assert_orders_agree(m):
    """invariant_factors and canonical_orders against the Smith form with
    transforms, which runs the same passes, and against two oracles that
    share no code with them, sympy and the min-abs-pivot Smith form,
    and unchanged by dead columns; returns the orders."""
    want = canonical_orders_by_snf(FgAbGroup(m.nrows, m))
    assert invariant_factors(m) == want
    assert FgAbGroup(m.nrows, m).canonical_orders() == want
    assert sympy_orders(m) == want
    diag = snf_min_abs(m).diagonal
    assert diag + (0,) * (m.nrows - len(diag)) == want
    assert_dead_columns_change_nothing(m, want)
    return want


def assert_dead_columns_change_nothing(m, orders):
    """m followed by a zero column, a repeat of its first column and the
    negation of its last presents the same group, which the Hermite and
    Kannan–Bachem passes see with no pre-pass: invariant factors,
    canonical orders, span membership of each column and unit vector,
    and homology_at with the group in the middle (B itself) and as the
    target (the kernel of Z^n -> B) do not change."""
    n = m.nrows
    cols = [m.col(j) for j in range(m.ncols)]
    dead_cols = cols + [(0,) * n]
    if cols:
        dead_cols += [cols[0], tuple(-v for v in cols[-1])]
    dead = ZMatrix.from_cols(dead_cols, n)
    assert invariant_factors(dead) == orders
    assert FgAbGroup(n, dead).canonical_orders() == orders

    def answers(rel):
        group = FgAbGroup(n, rel)
        free, zero = FgAbGroup.free(n), FgAbGroup.trivial()
        probes = cols + list(ZMatrix.identity(n).rows)
        middle = homology_at(AbHom.zero(zero, group), AbHom.zero(group, zero))
        kernel = homology_at(AbHom.zero(zero, free),
                             AbHom(free, group, ZMatrix.identity(n)))
        return ([group.in_relation_span(v) for v in probes],
                middle.canonical_form(), kernel.canonical_form())

    assert answers(dead) == answers(m)


def scrambled(rng, diagonal, nrows, ncols, steps=12):
    """U diag(diagonal) V for random unimodular U, V built from row and
    column additions, so the Smith form is known and hidden."""
    a = [[diagonal[i] if i == j and i < len(diagonal) else 0
          for j in range(ncols)] for i in range(nrows)]
    for _ in range(steps):
        if nrows > 1:
            i, k = rng.sample(range(nrows), 2)
            q = rng.randint(-3, 3)
            a[i] = [x + q * y for x, y in zip(a[i], a[k])]
        if ncols > 1:
            j, l = rng.sample(range(ncols), 2)
            q = rng.randint(-3, 3)
            for row in a:
                row[j] += q * row[l]
    return ZMatrix(a, ncols=ncols)


def test_invariant_factors_square_nonsingular():
    rng = random.Random(17)
    for n in [1, 2, 3, 5, 8, 13, 20, 30, 40]:
        m = ZMatrix([[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)])
        orders = assert_orders_agree(m)
        assert 0 not in orders
        product = 1
        for d in orders:
            product *= d
        assert product == abs(det(m))


def test_invariant_factors_singular_wide_tall():
    rng = random.Random(29)
    for _ in range(60):
        nrows, ncols, inner = (rng.randint(1, 9), rng.randint(1, 9),
                               rng.randint(1, 5))
        # a product through `inner` dimensions has rank at most `inner`
        left = [[rng.randint(-6, 6) for _ in range(inner)] for _ in range(nrows)]
        right = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(inner)]
        orders = assert_orders_agree(ZMatrix(left).mul(ZMatrix(right)))
        assert sum(1 for d in orders if d) <= inner
    for _ in range(60):
        assert_orders_agree(random_int_matrix(rng, max_dim=10, span=30))


def test_invariant_factors_hidden_torsion():
    # every pivot is a non-unit modulo D, so Bezout steps do the work
    rng = random.Random(41)
    for _ in range(80):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        diagonal = [rng.choice([0, 1, 2, 3, 4, 6, 8, 9, 12, 36, 64])
                    for _ in range(min(nrows, ncols))]
        assert_orders_agree(scrambled(rng, diagonal, nrows, ncols))


def test_invariant_factors_edge_shapes():
    assert assert_orders_agree(ZMatrix.zeros(3, 4)) == (0, 0, 0)
    assert assert_orders_agree(ZMatrix.zeros(0, 0)) == ()
    assert assert_orders_agree(ZMatrix.zeros(0, 3)) == ()
    assert assert_orders_agree(ZMatrix.zeros(4, 0)) == (0, 0, 0, 0)
    assert FgAbGroup(0).canonical_orders() == ()
    # |D| = 1: unimodular, and a wide matrix with a unit maximal minor
    assert assert_orders_agree(scrambled(random.Random(3), [1] * 6, 6, 6,
                                         steps=40)) == (1,) * 6
    assert assert_orders_agree(ZMatrix([[2, 3, 4], [5, 7, 9]])) == (1, 1)
    assert assert_orders_agree(ZMatrix([[2, 4], [3, 6], [5, 10]])) == (1, 0, 0)


def test_invariant_factors_of_empty_matrices_skip_the_passes(monkeypatch):
    def no_passes(*args):
        raise AssertionError("_diagonalize called on an empty matrix")

    monkeypatch.setattr(zm, "_diagonalize", no_passes)
    assert invariant_factors(ZMatrix.zeros(4, 0)) == (0, 0, 0, 0)
    assert invariant_factors(ZMatrix.zeros(0, 3)) == ()
    assert invariant_factors(ZMatrix.zeros(0, 0)) == ()
    assert FgAbGroup(2).canonical_orders() == (0, 0)


def test_echelon_basis_grows_exactly_when_a_row_is_outside():
    rng = random.Random(41)
    for _ in range(300):
        width = rng.randint(1, 5)
        lat, added = EchelonBasis(), []
        for _ in range(rng.randint(1, 7)):
            row = [rng.randint(-6, 6) for _ in range(width)]
            before = hermite_rows_by_min_abs(added)
            added.append(row)
            after = hermite_rows_by_min_abs(added)
            assert lat.add(row) == (after != before), (added, row)
            assert hermite_rows_by_min_abs(lat.rows) == after
            assert lat.rank == len(after)
            assert lat.pivot_product() == prod(
                next(x for x in r if x) for r in after)


def huge_entry_matrices():
    """The matrices of test_invariant_factors_huge_entries, entries near
    2^200: square ones and wide ones of rank one less than their height."""
    rng = random.Random(53)
    big = 2 ** 200
    for _ in range(12):
        n = rng.randint(2, 6)
        yield ZMatrix([[big + rng.randint(-9, 9) for _ in range(n)]
                       for _ in range(n)])
        diagonal = [rng.choice([1, 2, 6]) * (big + rng.choice([0, 1, 3]))
                    for _ in range(n - 1)]
        yield scrambled(rng, diagonal, n, n + 1)


def test_invariant_factors_huge_entries():
    for m in huge_entry_matrices():
        assert_orders_agree(m)


def test_invariant_factors_entries_stay_polynomial(monkeypatch):
    # the working matrix of invariant_factors, seen after every Hermite
    # pass, keeps the bound on snf's transforms; D is the determinant,
    # or for the wide matrices the product of sympy's invariant factors,
    # the gcd of the maximal nonzero minors
    peaks = []
    hermite_rows = zm._hermite_rows

    def recording(a, u, w):
        hermite_rows(a, u, w)
        peaks.append(max(abs(v).bit_length() for row in a for v in row))

    monkeypatch.setattr(zm, "_hermite_rows", recording)
    rng = random.Random(79)
    square = [ZMatrix([[rng.randint(-50, 50) for _ in range(n)]
                       for _ in range(n)]) for n in (20, 27, 33, 40)]
    for m in square + list(huge_entry_matrices()):
        d = (abs(det(m)) if m.nrows == m.ncols
             else prod(x for x in sympy_orders(m) if x))
        assert d
        peaks.clear()
        invariant_factors(m)
        assert peaks and max(peaks) <= 4 * d.bit_length() + 64


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_invariant_factors_hypothesis(data):
    nrows = data.draw(st.integers(0, 7))
    ncols = data.draw(st.integers(0, 7))
    scale = data.draw(st.sampled_from([1, 1, 2, 6, 2 ** 70]))
    rows = data.draw(st.lists(
        st.lists(st.integers(-30, 30).map(lambda v: v * scale),
                 min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows))
    assert_orders_agree(ZMatrix(rows, ncols=ncols))


def test_canonical_orders_before_or_after_coordinates():
    rng = random.Random(61)
    for _ in range(40):
        m = random_int_matrix(rng, max_dim=6, span=12)
        want = canonical_orders_by_snf(FgAbGroup(m.nrows, m))
        first = FgAbGroup(m.nrows, m)
        assert first.canonical_orders() == want
        first.to_canonical([1] * m.nrows)
        assert first.canonical_orders() == want
        second = FgAbGroup(m.nrows, m)
        second.to_canonical([1] * m.nrows)
        assert second.canonical_orders() == want


# ---------------------------------------------------------------- presented groups


def test_canonical_forms():
    assert FgAbGroup.free(2).canonical_form() == (2, ())
    assert FgAbGroup.trivial().canonical_form() == (0, ())
    assert FgAbGroup.from_invariants(1, [2, 4]).canonical_form() == (1, (2, 4))
    # presentation with non-diagonal relations
    g = FgAbGroup(2, ZMatrix([[2, 0], [0, 3]]))
    assert g.canonical_form() == (0, (6,))
    assert group_order(g) == 6
    assert group_order(FgAbGroup.free(1)) is None
    assert FgAbGroup(1, ZMatrix([[1]])).is_trivial()


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=1,
            max_size=4,
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_element_count_matches_order(cols):
    n = len(cols[0])
    g = FgAbGroup(n, ZMatrix.from_cols(cols, n))
    size = group_order(g)
    if size is None or size > 600:
        return
    assert len(element_vectors(g)) == size


def test_element_vectors_infinite_guard():
    with pytest.raises(PreconditionViolation):
        element_vectors(FgAbGroup.free(1))
    with pytest.raises(PreconditionViolation):
        element_vectors(FgAbGroup.from_invariants(0, [5]), limit=4)


def test_canonical_coordinates_roundtrip():
    g = FgAbGroup(2, ZMatrix([[2, 2], [0, 4]]))
    rng = random.Random(3)
    for _ in range(25):
        x = [rng.randint(-9, 9), rng.randint(-9, 9)]
        y = g.to_canonical(x)
        # from_canonical returns some presentation representative of y
        assert g.to_canonical(g.from_canonical(y)) == y
    a = g.to_canonical([1, 0])
    b = g.to_canonical([0, 1])
    lhs = add_canonical(g, a, b)
    assert lhs == g.to_canonical([1, 1])
    assert scale_canonical(g, 3, a) == g.to_canonical([3, 0])


def test_relation_span():
    g = FgAbGroup(2, ZMatrix([[2, 0], [0, 3]]))
    assert g.in_relation_span([2, 3])
    assert not g.in_relation_span([1, 0])
    assert same_invariants(g, FgAbGroup(1, ZMatrix([[6]])))
    assert g.kills(ZMatrix([[0, 4, -2], [0, 9, 3]]))
    assert not g.kills(ZMatrix([[0, 4, 1], [0, 9, 0]]))
    with pytest.raises(ValueError):
        g.kills(ZMatrix.zeros(3, 1))


def test_membership_refuses_a_vector_of_the_wrong_length():
    # a short vector is not read as a prefix, nor a long one cut to the
    # group's length: on Z/2 + Z, (2,) would read as in the span; Z^2
    # has no relations, so an empty basis to reduce by
    for g in (FgAbGroup.from_invariants(1, [2]), FgAbGroup.free(2)):
        for vec in ((2,), (2, 0, 0)):
            with pytest.raises(ValueError):
                g.in_relation_span(vec)


def test_membership_builds_no_smith_form():
    g = FgAbGroup(2, ZMatrix([[4, 2], [2, 2]]))
    assert g.kills(ZMatrix([[4, 0, 6], [2, 0, 4]]))
    assert not g.kills(ZMatrix([[1], [0]]))
    assert g._decomp is None and g._span.rank == 2


def assert_membership_agrees(group, vectors):
    """in_relation_span and kills against the min-abs Smith oracle and the
    solve oracle; returns the oracles' verdict per vector."""
    expected = [in_relation_span_by_min_abs(group, v) for v in vectors]
    assert [in_relation_span_by_solve(group, v) for v in vectors] == expected
    assert [group.in_relation_span(v) for v in vectors] == expected
    matrix = ZMatrix.from_cols(vectors, group.ngens)
    assert group.kills(matrix) == all(expected)
    for v, inside in zip(vectors, expected):
        assert group.kills(ZMatrix.from_cols([v], group.ngens)) == inside
    return expected


def presentation(ngens, cols, dup, zero):
    """The group Z^ngens / <cols>, with a negated copy of column `dup`
    and a zero column appended on request."""
    cols = [list(c) for c in cols]
    if dup is not None and cols:
        cols.append([-v for v in cols[dup % len(cols)]])
    if zero:
        cols.append([0] * ngens)
    return FgAbGroup(ngens, ZMatrix.from_cols(cols, ngens)), cols


def span_vector(cols, ngens, coeffs):
    return [sum(k * c[i] for k, c in zip(coeffs, cols)) for i in range(ngens)]


def test_membership_matches_solve_seeded():
    rng = random.Random(2024)
    seen = set()
    for _ in range(300):
        n = rng.randint(0, 5)
        cols = [[rng.randint(-6, 6) for _ in range(n)]
                for _ in range(rng.randint(0, 5))]
        g, cols = presentation(n, cols, rng.randint(0, 4)
                               if rng.random() < 0.5 else None,
                               rng.random() < 0.5)
        inside = [span_vector(cols, n, [rng.randint(-3, 3) for _ in cols])
                  for _ in range(3)]
        outside = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(3)]
        expected = assert_membership_agrees(g, inside + outside)
        assert all(expected[:3])
        seen.update((n == 0, not cols, any(map(any, inside)), x)
                    for x in expected[3:])
    # ngens 0, empty relations, nonzero span vectors, vectors outside
    assert (True, True, False, True) in seen
    assert (False, True, False, False) in seen
    assert (False, False, True, False) in seen


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_membership_matches_solve_hypothesis(data):
    n = data.draw(st.integers(0, 4))
    entry = st.integers(-8, 8)
    cols = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                              max_size=5))
    g, cols = presentation(n, cols, data.draw(st.none() | st.integers(0, 4)),
                           data.draw(st.booleans()))
    coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=len(cols),
                                max_size=len(cols)))
    inside = span_vector(cols, n, coeffs)
    other = data.draw(st.lists(entry, min_size=n, max_size=n))
    expected = assert_membership_agrees(g, [inside, other, [0] * n])
    assert expected[0] and expected[2]


# ---------------------------------------------------------------- homomorphisms


def test_hom_welldefined_enforced():
    z2 = FgAbGroup.from_invariants(0, [2])
    z4 = FgAbGroup.from_invariants(0, [4])
    with pytest.raises(PreconditionViolation):
        AbHom(z2, z4, ZMatrix([[1]]))  # 2*1 != 0 mod 4
    AbHom(z2, z4, ZMatrix([[2]]))
    AbHom(z4, z2, ZMatrix([[1]]))


def test_hom_algebra():
    z = FgAbGroup.free(1)
    dbl = AbHom(z, z, ZMatrix([[2]]))
    trp = AbHom(z, z, ZMatrix([[3]]))
    assert dbl.then(trp).matrix == ZMatrix([[6]])
    assert AbHom.identity(z).then(dbl).equal_as_maps(dbl)
    # maps equal modulo relations without equal matrices
    z2 = FgAbGroup.from_invariants(0, [2])
    f = AbHom(z2, z2, ZMatrix([[1]]))
    g = AbHom(z2, z2, ZMatrix([[3]]))
    assert f.matrix != g.matrix and f.equal_as_maps(g)


def test_equal_as_maps_over_z4():
    z4 = FgAbGroup.from_invariants(0, [4])
    one, five, two = (AbHom(z4, z4, ZMatrix([[k]])) for k in (1, 5, 2))
    assert one.equal_as_maps(five) and five.equal_as_maps(one)
    assert not one.equal_as_maps(two)


def test_equal_matrices_are_equal_maps_without_coordinates():
    source = FgAbGroup.free(2)
    target = FgAbGroup(2, ZMatrix([[4, 2], [2, 2]]))
    f, g = (AbHom(source, target, ZMatrix([[1, 2], [3, 4]]), checked=True)
            for _ in range(2))
    assert f.equal_as_maps(g)
    assert target._decomp is None and target._orders is None
    assert target._span is None


def test_injective_surjective_iso():
    z = FgAbGroup.free(1)
    z4 = FgAbGroup.from_invariants(0, [4])
    dbl = AbHom(z, z, ZMatrix([[2]]))
    assert dbl.is_injective() and not dbl.is_surjective()
    h = AbHom(z4, z4, ZMatrix([[2]]))
    assert not h.is_injective() and not h.is_surjective()
    u = AbHom(z4, z4, ZMatrix([[3]]))
    assert u.is_injective() and u.is_surjective()
    # surjection with kernel
    p = AbHom(z, z4, ZMatrix([[1]]))
    assert p.is_surjective() and not p.is_injective()


def test_apply_respects_relations():
    z6 = FgAbGroup(2, ZMatrix([[2, 0], [0, 3]]))
    z2 = FgAbGroup.from_invariants(0, [2])
    h = AbHom(z6, z2, ZMatrix([[1, 0]]))
    assert z2.to_canonical(h.apply([1, 0])) == z2.to_canonical([1])
    # relations of the source land on zero
    assert z2.to_canonical(h.apply([2, 0])) == z2.to_canonical([0])
    assert z2.to_canonical(h.apply([0, 3])) == z2.to_canonical([0])


def test_direct_sum():
    z2 = FgAbGroup.from_invariants(0, [2])
    z3 = FgAbGroup.from_invariants(0, [3])
    s, inj, proj = direct_sum([z2, z3])
    assert s.canonical_form() == (0, (6,))
    assert inj[0].then(proj[0]).equal_as_maps(AbHom.identity(z2))
    assert inj[0].then(proj[1]).equal_as_maps(AbHom.zero(z2, z3))
    s0, _, _ = direct_sum([])
    assert s0.is_trivial()


def test_enumerate_homs_counts():
    z4 = FgAbGroup.from_invariants(0, [4])
    z6 = FgAbGroup.from_invariants(0, [6])
    z2sq = FgAbGroup.from_invariants(0, [2, 2])
    z2 = FgAbGroup.from_invariants(0, [2])
    z = FgAbGroup.free(1)
    assert len(enumerate_homs(z4, z6)) == 2  # gcd(4, 6)
    assert len(enumerate_homs(z2sq, z2)) == 4
    assert len(enumerate_homs(z, z4)) == 4
    with pytest.raises(PreconditionViolation):
        enumerate_homs(z, z)
    with pytest.raises(PreconditionViolation):
        enumerate_homs(z4, z4, max_count=3)
    homs = enumerate_homs(z4, z4)
    assert len(homs) == 4
    assert len({h.matrix for h in homs}) == 4



# ---------------------------------------------------------------- homology at a spot


def test_homology_at_known():
    z = FgAbGroup.free(1)
    triv = FgAbGroup.trivial()
    dbl = AbHom(z, z, ZMatrix([[2]]))
    assert homology_at(AbHom.zero(triv, z), dbl).canonical_form() == (0, ())
    assert homology_at(dbl, AbHom.zero(z, triv)).canonical_form() == (0, (2,))
    # 0 -> Z -0-> Z -> 0 in the middle positions
    zmap = AbHom.zero(z, z)
    assert homology_at(zmap, zmap).canonical_form() == (1, ())
    with pytest.raises(CompositeNonzero):
        homology_at(dbl, AbHom.identity(z))
    with pytest.raises(PreconditionViolation):
        homology_at(dbl, AbHom.zero(FgAbGroup.free(2), z))


def test_homology_at_vs_element_count():
    rng = random.Random(11)
    for _ in range(40):
        f, g = random_zero_composite(rng, max_elements=200)
        assert homology_at(f, g).canonical_form() == brute_force_homology(f, g)


def test_snf_oracle_matrices():
    rng = random.Random(5)
    for _ in range(60):
        assert_snf_postconditions(random_int_matrix(rng, max_dim=8, span=20))
    for nrows, ncols in [(0, 0), (0, 4), (3, 0), (2, 7), (7, 2)]:
        assert_snf_postconditions(ZMatrix(
            [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)],
            ncols=ncols))
    for _ in range(40):
        # rank-deficient: rows past the first `rank` are integer
        # combinations of those, in a wide or tall shape
        nrows, ncols = rng.choice([(3, 6), (6, 3), (5, 5), (8, 4), (4, 9)])
        rank = rng.randint(1, min(nrows, ncols) - 1)
        rows = [[rng.randint(-12, 12) for _ in range(ncols)]
                for _ in range(rank)]
        for _ in range(nrows - rank):
            coeffs = [rng.randint(-3, 3) for _ in range(rank)]
            rows.append([sum(k * row[j] for k, row in zip(coeffs, rows[:rank]))
                         for j in range(ncols)])
        rng.shuffle(rows)
        assert_snf_postconditions(ZMatrix(rows, ncols=ncols))
    for _ in range(40):
        # already diagonal, with negative and zero entries out of order
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[0] * ncols for _ in range(nrows)]
        for i in range(min(nrows, ncols)):
            rows[i][i] = rng.choice([0, 0, 1, -1, 2, -3, 4, 6, -9, 12])
        assert_snf_postconditions(ZMatrix(rows))
    for _ in range(40):
        # sparse 0/+-1 matrices like nerve boundaries
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        assert_snf_postconditions(ZMatrix(
            [[rng.choice([0, 0, 0, 0, 1, -1]) for _ in range(ncols)]
             for _ in range(nrows)]))
