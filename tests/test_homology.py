"""Nerve chain complexes and the class-colimit comparison of homology."""

import sys

import pytest

from oghom import fixtures
from oghom.errors import PreconditionViolation, StructuralDefect
from oghom.gmodules import colim_category
from oghom.homology import (
    ChainComplex,
    _chain_tuples,
    check_theorem,
    homology,
    homology_profile,
    nerve_complex,
)
from oghom.zmodule import AbHom, FgAbGroup, ZMatrix
from .oracles import (
    complex_from_dense,
    direct_sum,
    in_relation_span_by_solve,
    periodic_cyclic_homology,
)
from .test_gmodules import modules_under_test
from .test_reduction import cyclic_bundle


def test_chain_complex_rejects_bad_square():
    z = FgAbGroup.free(1)
    dbl = AbHom(z, z, ZMatrix([[2]]))
    ident = AbHom.identity(z)
    with pytest.raises(StructuralDefect):
        complex_from_dense([z, z, z], [None, ident, dbl])


def test_chain_complex_zero_mod_relations():
    # the composite matrix is nonzero but vanishes modulo the target
    z = FgAbGroup.free(1)
    z4 = FgAbGroup.from_invariants(0, [4])
    z2 = FgAbGroup.from_invariants(0, [2])
    b1 = AbHom(z4, z2, ZMatrix([[1]]))
    b2 = AbHom(z, z4, ZMatrix([[2]]))
    cx = complex_from_dense([z2, z4, z], [None, b1, b2])
    assert b2.then(b1).matrix != ZMatrix.zeros(1, 1)
    assert cx.homology(1).is_trivial()
    assert cx.top_degree == 2
    with pytest.raises(StructuralDefect):
        cx.homology(2)  # needs chains one degree higher
    with pytest.raises(StructuralDefect):
        # three boundary slots for two degrees
        ChainComplex(cx.orders[:2], cx.columns)


def test_chain_complex_checks_sparse_shapes():
    # Z/2 <-1- Z/4 <-2- Z, with one part of its sparse form broken at a time
    orders = [[2], [4], [0]]
    columns = [None, [{0: 1}], [{0: 2}]]
    assert ChainComplex(orders, columns).homology(1).is_trivial()
    for bad in ([{}, [{0: 1}], [{0: 2}]],   # a boundary out of degree 0
                [None, [{0: 1}], []],      # no column for the generator
                [None, [{0: 1}], [{1: 2}]],  # a row past C_1
                [None, [{-1: 1}], [{0: 2}]]):
        with pytest.raises(StructuralDefect):
            ChainComplex(orders, bad)
    for bad in ([[2], [1], [0]], [[2], [-4], [0]]):  # no cyclic order
        with pytest.raises(StructuralDefect):
            ChainComplex(bad, columns)
    with pytest.raises(StructuralDefect):
        # the dense helper refuses a boundary into the wrong group
        z2 = FgAbGroup.from_invariants(0, [2])
        z4 = FgAbGroup.from_invariants(0, [4])
        complex_from_dense([z4, z4], [None, AbHom(z4, z2, ZMatrix([[1]]))])


def corrupted(cx, n, i, j):
    """The boundaries of cx with entry (i, j) of the n-th raised by one."""
    rows = [list(r) for r in cx.boundaries[n].matrix.rows]
    rows[i][j] += 1
    boundaries = list(cx.boundaries)
    boundaries[n] = AbHom(cx.groups[n], cx.groups[n - 1], ZMatrix(rows),
                          checked=True)
    return boundaries


def squares_to_zero_by_solve(groups, boundaries):
    for n in range(2, len(groups)):
        comp = boundaries[n - 1].matrix.mul(boundaries[n].matrix)
        if not all(in_relation_span_by_solve(groups[n - 2], comp.col(j))
                   for j in range(comp.ncols)):
            return False
    return True


def corruption_case(case):
    if case == "cyclic3-const":
        bundle = fixtures.load("cyclic3")
        return nerve_complex(bundle.lc.category, bundle.modules["const"], 3)
    cat, module = cyclic_bundle(4, fixtures.cyclic_module_spec(4, 0, [5], 2))
    return nerve_complex(cat, module, 3)


@pytest.mark.parametrize("case", ["cyclic3-const", "cyclic4-z5-unit2"])
def test_corrupted_nerve_boundary_is_rejected(case):
    # nerve composites are mostly zero columns; one changed entry must
    # still be caught wherever the solve oracle finds ∂² nonzero
    cx = corruption_case(case)
    complex_from_dense(cx.groups, cx.boundaries)
    caught = 0
    for n in range(1, 4):
        mat = cx.boundaries[n].matrix
        for i in range(mat.nrows):
            for j in range(mat.ncols):
                boundaries = corrupted(cx, n, i, j)
                if squares_to_zero_by_solve(cx.groups, boundaries):
                    complex_from_dense(cx.groups, boundaries)
                    continue
                with pytest.raises(StructuralDefect):
                    complex_from_dense(cx.groups, boundaries)
                caught += 1
    assert caught >= 40


@pytest.mark.parametrize("case", ["cyclic3-const", "cyclic4-z5-unit2"])
def test_corrupted_nerve_column_is_rejected(case):
    # the same corruptions, made on the sparse columns and rebuilt from
    # them, against the same solve oracle
    cx = corruption_case(case)
    ChainComplex(cx.orders, cx.columns)
    caught = 0
    for n in range(1, 4):
        for j in range(cx.ngens[n]):
            for i in range(cx.ngens[n - 1]):
                columns = [None] + [list(c) for c in cx.columns[1:]]
                col = dict(columns[n][j])
                col[i] = col.get(i, 0) + 1
                columns[n][j] = {r: v for r, v in col.items() if v}
                if squares_to_zero_by_solve(cx.groups, corrupted(cx, n, i, j)):
                    ChainComplex(cx.orders, columns)
                    continue
                with pytest.raises(StructuralDefect):
                    ChainComplex(cx.orders, columns)
                caught += 1
    assert caught >= 40


def test_square_check_builds_no_smith_form_of_a_chain_group(monkeypatch):
    # Z/5 acted on by 2 has nonzero composites, so ∂² = 0 is decided on
    # them; it reads the orders of their rows, not a chain group's
    # Smith form, and each coefficient group is put in canonical
    # coordinates once
    zmodule = sys.modules["oghom.zmodule"]
    true_snf = zmodule.snf
    calls = []

    def counting_snf(m):
        calls.append(m)
        return true_snf(m)

    cat, module = cyclic_bundle(4, fixtures.cyclic_module_spec(4, 0, [5], 2))
    monkeypatch.setattr(zmodule, "snf", counting_snf)
    cx = nerve_complex(cat, module, 3)
    lower = cx.columns[1]
    assert any(sum(v * lower[r].get(0, 0) for r, v in col.items())
               for col in cx.columns[2])
    assert cx._groups == [None] * 4
    assert len(calls) <= len(set(module.groups.values()))


@pytest.mark.parametrize("extra", [FgAbGroup.free(1),
                                   FgAbGroup.from_invariants(0, [2])])
def test_wrong_colimit_fails_the_h0_check(extra, monkeypatch):
    # the H_0 cross-check must reject a colimit that differs from H_0
    bundle = fixtures.load("cyclic3")
    cat, module = bundle.lc.category, bundle.modules["const"]
    homology_module = sys.modules["oghom.homology"]
    true_colimit = homology_module.colim_category

    def wrong_colimit(cat, module):
        colim, offsets = true_colimit(cat, module)
        return direct_sum([colim, extra])[0], offsets

    monkeypatch.setattr(homology_module, "colim_category", wrong_colimit)
    cx = nerve_complex(cat, module, 2)
    with pytest.raises(StructuralDefect, match="H_0"):
        homology(cat, module, 0, complex_=cx)
    assert homology(cat, module, 1, complex_=cx).canonical_form() == (0, (3,))


def test_wrong_boundary_entry_fails_the_h0_check():
    # the first row of the first degree-1 boundary column is off by one,
    # in a complex built to degree 1 only, where ∂² = 0 checks nothing;
    # on chain2/const the column f - e becomes f, whose cokernel is Z as
    # well, so that mutant is equivalent
    accepted = []
    for label, cat, module in modules_under_test():
        cx = nerve_complex(cat, module, 1)
        col, k = dict(cx.columns[1][0]), cx.orders[0][0]
        v = col.pop(0, 0) + 1
        v = v % k if k else v
        if v:
            col[0] = v
        wrong = ChainComplex(cx.orders, [None, [col] + cx.columns[1][1:]])
        try:
            homology(cat, module, 0, complex_=wrong)
        except StructuralDefect as exc:
            assert str(exc).startswith("H_0 "), exc
        else:
            accepted.append(label)
    assert accepted == ["chain2/const"]


@pytest.mark.parametrize("name", ["chain2", "cyclic3"])
def test_negative_degree_is_refused(name, monkeypatch):
    # on a group (cyclic3) or not, each entry point refuses a negative
    # degree with one message before it builds a colimit or a complex
    def built(*args):
        raise AssertionError("built before the degree was checked")

    for what in ("colim_E", "colim_category", "tensor"):
        monkeypatch.setattr(sys.modules["oghom.homology"], what, built)
    bundle = fixtures.load(name)
    cat, module = bundle.lc.category, bundle.modules["const"]
    calls = [lambda: homology_profile(cat, module, -1),
             lambda: homology(cat, module, -1),
             lambda: check_theorem(bundle.groupoid, bundle.lc, module, [-1]),
             lambda: check_theorem(bundle.groupoid, bundle.lc, module,
                                   [-1, 1])]
    for call in calls:
        with pytest.raises(PreconditionViolation,
                           match=r"^homology needs degrees >= 0$"):
            call()


def test_theorem_needs_a_degree():
    bundle = fixtures.load("chain2")
    with pytest.raises(PreconditionViolation, match="no degree"):
        check_theorem(bundle.groupoid, bundle.lc, bundle.modules["const"],
                      [])


def test_chain_tuples_counts():
    cat = fixtures.load("cyclic3").lc.category
    chains = _chain_tuples(cat, 3)
    assert len(chains[0]) == 1
    assert len(chains[1]) == 2
    assert len(chains[2]) == 4
    assert len(chains[3]) == 8


def test_normalized_boundaries_z2():
    bundle = fixtures.load("cyclic2")
    cat = bundle.lc.category
    cx_triv = nerve_complex(cat, bundle.modules["const"], 2)
    # one generator per degree: differentials alternate 0 and the norm
    assert cx_triv.boundaries[1].matrix == ZMatrix([[0]])
    assert cx_triv.boundaries[2].matrix == ZMatrix([[2]])
    cx_sign = nerve_complex(cat, bundle.modules["sign"], 2)
    assert cx_sign.boundaries[1].matrix == ZMatrix([[-2]])
    assert cx_sign.boundaries[2].matrix == ZMatrix([[0]])


@pytest.mark.parametrize("m", [2, 3])
def test_cyclic_homology_matches_periodic_resolution(m):
    bundle = fixtures.load("cyclic%d" % m)
    cat = bundle.lc.category
    prof = homology_profile(cat, bundle.modules["const"], 3)
    expected = [periodic_cyclic_homology(m, 0, 1, n) for n in range(4)]
    assert prof == expected
    if m % 2 == 0:
        prof = homology_profile(cat, bundle.modules["sign"], 3)
        expected = [periodic_cyclic_homology(m, 0, -1, n) for n in range(4)]
        assert prof == expected


def test_clifford_profiles():
    bundle = fixtures.load("clifford")
    cat = bundle.lc.category
    # the fused order makes these the profiles of the quotient group
    assert homology_profile(cat, bundle.modules["const"], 2) == [
        (1, ()), (0, (2,)), (0, ())]
    assert homology_profile(cat, bundle.modules["sign"], 2) == [
        (0, (2,)), (0, ()), (0, (2,))]


def test_h0_is_colimit():
    for name, module in [("clifford", "sign"), ("chain2", "mixed"),
                         ("z2", "const")]:
        bundle = fixtures.load(name)
        cat = bundle.lc.category
        mod = bundle.modules[module]
        h0 = homology(cat, mod, 0)
        colim, _ = colim_category(cat, mod)
        assert h0.canonical_form() == colim.canonical_form()


def test_rank_warning(monkeypatch):
    monkeypatch.setattr(sys.modules["oghom.homology"], "MAX_CHAIN_RANK", 1)
    bundle = fixtures.load("clifford")
    with pytest.warns(UserWarning):
        nerve_complex(bundle.lc.category, bundle.modules["const"], 2)


def test_theorem_on_fixtures():
    for name, module in [("clifford", "sign"), ("clifford", "const"),
                         ("chain2", "mixed"), ("z2", "sign")]:
        bundle = fixtures.load(name)
        rep = check_theorem(bundle.groupoid, bundle.lc,
                            bundle.modules[module], [0, 1, 2])
        assert rep.ok, (name, module, rep.rows)
        assert [r["degree"] for r in rep.rows] == [0, 1, 2]


def test_theorem_rows_shape():
    bundle = fixtures.load("clifford")
    rep = check_theorem(bundle.groupoid, bundle.lc,
                        bundle.modules["sign"], [0, 1])
    row = rep.rows[0]
    assert row["left"] == {"rank": 0, "torsion": [2]}
    assert row["right"] == {"rank": 0, "torsion": [2]}
