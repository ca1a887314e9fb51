"""Exact integer linear algebra: Smith forms, presented groups, homs."""

import doctest
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oghom.zmodule as zm
from oghom.errors import CompositeNonzero, NotInduced, PreconditionViolation
from oghom.zmodule import (
    AbHom,
    ColumnSolver,
    FgAbGroup,
    ZMatrix,
    block_diag,
    direct_sum,
    enumerate_homs,
    homology_at,
    induced_on_cokernel,
    is_unimodular,
    kernel_basis,
    lattice_basis,
    prune_columns,
    snf,
)
from .oracles import (
    brute_force_homology,
    in_relation_span_by_solve,
    random_int_matrix,
    random_zero_composite,
)


def test_doctests():
    failures, _ = doctest.testmod(zm)
    assert failures == 0


# ---------------------------------------------------------------- Smith normal form

matrices = st.integers(1, 6).flatmap(
    lambda r: st.integers(1, 6).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-30, 30), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def assert_snf_postconditions(m):
    res = snf(m)
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


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_snf_postconditions_random(rows):
    assert_snf_postconditions(ZMatrix(rows))


def test_snf_known_forms():
    assert snf(ZMatrix([[2, 4], [6, 8]])).diagonal == (2, 4)
    assert snf(ZMatrix([[1, 0], [0, 1]])).diagonal == (1, 1)
    assert snf(ZMatrix.zeros(3, 2)).diagonal == (0, 0)
    # classic: diag(2, 3) has invariant factors 1, 6
    assert snf(ZMatrix([[2, 0], [0, 3]])).diagonal == (1, 6)


def test_kernel_and_lattice_basis():
    m = ZMatrix([[2, 4, 6], [1, 2, 3]])
    k = kernel_basis(m)
    assert m.mul(k).is_zero()
    assert k.ncols == 2
    # lattice basis spans the same columns both ways
    cols = ZMatrix([[2, 4, 0], [0, 6, 2]])
    basis = lattice_basis(cols)
    a, b = ColumnSolver(basis), ColumnSolver(cols)
    assert all(a.contains(cols.col(j)) for j in range(cols.ncols))
    assert all(b.contains(basis.col(j)) for j in range(basis.ncols))


def test_column_solver():
    m = ZMatrix([[2, 0], [0, 3]])
    s = ColumnSolver(m)
    x = s.solve_vector([4, 9])
    assert m.apply(x) == (4, 9)
    assert s.solve_vector([1, 0]) is None
    assert s.contains([2, 3]) and not s.contains([3, 3])


def test_unimodular_and_det():
    assert is_unimodular(ZMatrix([[1, 5], [0, -1]]))
    assert not is_unimodular(ZMatrix([[2, 0], [0, 1]]))
    assert not is_unimodular(ZMatrix([[1, 0]]))
    assert ZMatrix([[2, 1], [1, 1]]).det() == 1
    assert ZMatrix([[0, 1], [1, 0]]).det() == -1


def test_block_diag_and_prune():
    b = block_diag([ZMatrix([[1, 2]]), ZMatrix([[3], [4]])])
    assert b.to_lists() == [[1, 2, 0], [0, 0, 3], [0, 0, 4]]
    assert block_diag([]) == ZMatrix.zeros(0, 0)
    p = prune_columns(ZMatrix([[1, 0, 1], [0, 0, 2]]))
    assert p.ncols == 2 and p.nrows == 2


# ---------------------------------------------------------------- presented groups


def test_canonical_forms():
    assert FgAbGroup.free(2).canonical_form() == (2, ())
    assert FgAbGroup.trivial().canonical_form() == (0, ())
    assert FgAbGroup.from_invariants(1, [2, 4]).canonical_form() == (1, (2, 4))
    # presentation with non-diagonal relations
    g = FgAbGroup(2, ZMatrix([[2, 0], [0, 3]]))
    assert g.canonical_form() == (0, (6,))
    assert g.order() == 6
    assert FgAbGroup.free(1).order() is None
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
    if g.order() is None or g.order() > 600:
        return
    assert len(g.element_vectors()) == g.order()


def test_element_vectors_infinite_guard():
    with pytest.raises(PreconditionViolation):
        FgAbGroup.free(1).element_vectors()
    with pytest.raises(PreconditionViolation):
        FgAbGroup.from_invariants(0, [5]).element_vectors(limit=4)


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
    lhs = g.add_canonical(a, b)
    assert lhs == g.to_canonical([1, 1])
    assert g.scale_canonical(3, a) == g.to_canonical([3, 0])


def test_relation_span():
    g = FgAbGroup(2, ZMatrix([[2, 0], [0, 3]]))
    assert g.in_relation_span([2, 3])
    assert not g.in_relation_span([1, 0])
    assert g.same_invariants(FgAbGroup(1, ZMatrix([[6]])))
    assert g.kills(ZMatrix([[0, 4, -2], [0, 9, 3]]))
    assert not g.kills(ZMatrix([[0, 4, 1], [0, 9, 0]]))
    with pytest.raises(ValueError):
        g.kills(ZMatrix.zeros(3, 1))


def assert_membership_agrees(group, vectors):
    """in_relation_span and kills against the solve oracle; returns the
    oracle's verdict per vector."""
    expected = [in_relation_span_by_solve(group, v) for v in vectors]
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
    assert dbl.add(trp).matrix == ZMatrix([[5]])
    assert trp.sub(dbl).matrix == ZMatrix([[1]])
    assert AbHom.identity(z).then(dbl).equal_as_maps(dbl)
    assert AbHom.zero(z, z).is_zero_map()
    # maps equal modulo relations without equal matrices
    z2 = FgAbGroup.from_invariants(0, [2])
    f = AbHom(z2, z2, ZMatrix([[1]]))
    g = AbHom(z2, z2, ZMatrix([[3]]))
    assert f.matrix != g.matrix and f.equal_as_maps(g)


def test_injective_surjective_iso():
    z = FgAbGroup.free(1)
    z4 = FgAbGroup.from_invariants(0, [4])
    dbl = AbHom(z, z, ZMatrix([[2]]))
    assert dbl.is_injective() and not dbl.is_surjective()
    h = AbHom(z4, z4, ZMatrix([[2]]))
    assert not h.is_injective() and not h.is_surjective()
    u = AbHom(z4, z4, ZMatrix([[3]]))
    assert u.is_isomorphism()
    # surjection with kernel
    p = AbHom(z, z4, ZMatrix([[1]]))
    assert p.is_surjective() and not p.is_injective()


def test_apply_respects_relations():
    z6 = FgAbGroup(2, ZMatrix([[2, 0], [0, 3]]))
    z2 = FgAbGroup.from_invariants(0, [2])
    h = AbHom(z6, z2, ZMatrix([[1, 0]]))
    assert h.apply_canonical(z6.to_canonical([1, 0])) == z2.to_canonical([1])
    assert h.apply_canonical(z6.to_canonical([2, 0])) == z2.to_canonical([0])


def test_direct_sum():
    z2 = FgAbGroup.from_invariants(0, [2])
    z3 = FgAbGroup.from_invariants(0, [3])
    s, inj, proj = direct_sum([z2, z3])
    assert s.canonical_form() == (0, (6,))
    assert inj[0].then(proj[0]).equal_as_maps(AbHom.identity(z2))
    assert inj[0].then(proj[1]).is_zero_map()
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


def test_induced_on_cokernel_sum_map():
    # summing Z + Z -> Z induces an isomorphism on Z + Z mod (1, -1)
    z2f = FgAbGroup.free(2)
    z = FgAbGroup.free(1)
    total = AbHom(z2f, z, ZMatrix([[1, 1]]))
    q = induced_on_cokernel(total, ZMatrix([[1], [-1]]))
    assert q.source.canonical_form() == (1, ())
    assert q.is_isomorphism()
    with pytest.raises(NotInduced):
        induced_on_cokernel(AbHom.identity(z), ZMatrix([[2]]))


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
