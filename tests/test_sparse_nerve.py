"""The sparse nerve against the dense one it replaced.

`nerve_complex` writes each coefficient group in its canonical
coordinates and emits sparse columns; `tests/oracles.py` keeps the
dense construction in presented coordinates (block-diagonal relations,
dense boundary columns).  Transported to canonical coordinates block by
block (`complex_from_dense`), the oracle's matrices must equal the dense
views of the sparse complex exactly; untransported, its homology must
equal the sparse complex's, and so must element counting where the
chain groups are finite and small.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oghom import fixtures, io
from oghom.gmodules import colim_E
from oghom.groupoid import OrderedGroupoid
from oghom.homology import nerve_complex
from oghom.lcat import build_lcat
from oghom.zmodule import AbHom, FgAbGroup
from .oracles import (
    brute_force_homology,
    canonical_orders_by_snf,
    complex_from_dense,
    dense_homology,
    dense_nerve_complex,
    group_order,
    nerve_blocks,
)
from .test_connected import Z, Z2, brandt_z2_doc, connected_doc
from .test_reduction import cyclic_bundle, theorem_inputs

ELEMENT_LIMIT = 512


def assert_same_nerve(cat, module, maxdeg=3):
    cx = nerve_complex(cat, module, maxdeg)
    groups, boundaries = dense_nerve_complex(cat, module, maxdeg)
    oracle = complex_from_dense(groups, boundaries,
                                nerve_blocks(cat, module, maxdeg))
    assert cx.groups == oracle.groups
    assert ([(b.source, b.target, b.matrix) for b in cx.boundaries[1:]]
            == [(b.source, b.target, b.matrix)
                for b in oracle.boundaries[1:]])
    assert cx.boundaries[0] is None
    for n in range(maxdeg):
        assert cx.homology(n).canonical_form() == dense_homology(
            groups, boundaries, n)
    # one generator per canonical coordinate of order other than 1
    assert cx.ngens == [
        sum(sum(1 for d in canonical_orders_by_snf(g) if d != 1)
            for g in blocks)
        for blocks in nerve_blocks(cat, module, maxdeg)]
    return cx, groups, boundaries


def element_counts(cx, groups, boundaries):
    """Compare cx.homology(n) with element counting in presented
    coordinates wherever the groups involved are finite and small;
    returns the number of degrees compared."""
    compared = 0
    for n in range(cx.top_degree):
        f = boundaries[n + 1]
        g = (boundaries[n] if n
             else AbHom.zero(groups[0], FgAbGroup.trivial()))
        if any(group_order(h) is None or group_order(h) > ELEMENT_LIMIT
               for h in (f.source, f.target)):
            continue
        assert cx.homology(n).canonical_form() == brute_force_homology(f, g)
        compared += 1
    return compared


def test_homology_builds_no_dense_nerve():
    # ∂² = 0 holds with zero composites here, and homology reads only
    # the residual, so no dense group or boundary of the nerve is built
    bundle = fixtures.load("cyclic4")
    cx = nerve_complex(bundle.lc.category, bundle.modules["sign"], 3)
    assert [cx.homology(n).canonical_form() for n in range(3)] == [
        (0, (2,)), (0, ()), (0, (2,))]
    assert cx._groups == [None] * 4 and cx._boundaries is None


def test_fixtures():
    for name in fixtures.names():
        bundle = fixtures.load(name)
        for module in bundle.modules.values():
            assert_same_nerve(bundle.lc.category, module)


def test_swap_on_a_non_diagonal_presentation():
    # Z/2 swapping the generators of Z^2/(2, 2) = Z + Z/2: in canonical
    # coordinates neither the group nor the action is diagonal as given
    spec = {"groups": {"1": {"ngens": 2, "relations": [[2], [2]]}},
            "poset_maps": {}, "arrow_maps": {"t1": [[0, 1], [1, 0]]}}
    cat, module = cyclic_bundle(2, spec)
    assert module.groups["1"].canonical_form() == (1, (2,))
    cx, _, _ = assert_same_nerve(cat, module, 4)
    assert cx.ngens == [2, 2, 2, 2, 2]
    # Z[Z/2] -> M with kernel Z: H_0 = Z/4, then H_n(M) = H_(n-1)(Z)
    assert [cx.homology(n).canonical_form() for n in range(4)] == [
        (0, (4,)), (0, ()), (0, (2,)), (0, ())]


def test_connected_groupoid():
    for doc in (connected_doc(Z), connected_doc(Z2), brandt_z2_doc(Z),
                brandt_z2_doc(Z2)):
        _, cand, mdocs = io.load(doc)
        g0 = OrderedGroupoid.from_candidate(cand)
        lc = build_lcat(g0)
        module = io.build_module(g0, lc, mdocs["m"])
        assert_same_nerve(lc.category, module)
        colim = colim_E(g0, lc, module)
        assert_same_nerve(colim.module.base, colim.module)


def test_seeded_random_instances():
    for seed in range(40):
        for finite in (True, False):
            for cat, module in theorem_inputs(seed, finite):
                assert_same_nerve(cat, module)


def test_element_counts_on_finite_instances():
    # the class colimit of the connected groupoid's module with Z/2 at
    # its least identity (the module itself has Z elsewhere), and those
    # of seeded finite modules, counted element by element
    _, cand, mdocs = io.load(connected_doc(Z2))
    g0 = OrderedGroupoid.from_candidate(cand)
    lc = build_lcat(g0)
    colim = colim_E(g0, lc, io.build_module(g0, lc, mdocs["m"]))
    compared = element_counts(
        *assert_same_nerve(colim.module.base, colim.module, 2))
    assert compared == 2
    for seed in range(40):
        _, (qcat, qmodule) = theorem_inputs(seed, True)
        compared += element_counts(*assert_same_nerve(qcat, qmodule, 2))
    assert compared >= 40


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=25, deadline=None)
def test_hypothesis_instances(seed, finite):
    for cat, module in theorem_inputs(seed, finite):
        assert_same_nerve(cat, module)
