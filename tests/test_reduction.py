"""Unit-pivot reduction of chain complexes against the dense solve.

`ChainComplex.homology` reads a reduced complex in canonical
coordinates, as a cokernel wherever the reduced ∂_n is zero;
`dense_homology` solves the unreduced boundaries in presented
coordinates, and `homology_by_kernel_lattice` solves the reduced ones in
every degree.  Every comparison is of canonical forms, degree by degree
below the top.
"""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oghom import fixtures, io
from oghom.gmodules import colim_E
from oghom.groupoid import OrderedGroupoid
from oghom.homology import ChainComplex, homology_profile, nerve_complex
from oghom.lcat import build_lcat
from oghom.randgen import _cyclic_group, random_module, random_og
from oghom.zmodule import AbHom, FgAbGroup, ZMatrix, homology_at
from .oracles import (
    complex_from_dense,
    dense_homology,
    dense_nerve_complex,
    homology_by_kernel_lattice,
    periodic_cyclic_homology,
)
from .test_connected import Z, Z2, brandt_z2_doc, connected_doc


def assert_matches_dense(cx, groups, boundaries):
    """cx against the dense solve of `groups` and `boundaries`, which
    present the same complex in their own coordinates, and against the
    kernel-lattice solve of its own reduced complex."""
    for n in range(cx.top_degree):
        form = cx.homology(n).canonical_form()
        assert form == dense_homology(groups, boundaries, n), n
        assert form == homology_by_kernel_lattice(cx, n).canonical_form(), n
    # entries in a row of finite cyclic order k stay in [0, k)
    red = cx.reduced()
    for n in range(1, red.top_degree + 1):
        for k, row in zip(red.orders[n - 1], red.boundaries[n].matrix.rows):
            assert not k or all(0 <= v < k for v in row), (n, k, row)


def assert_nerve_matches_dense(cat, module, maxdeg=3):
    cx = nerve_complex(cat, module, maxdeg)
    assert_matches_dense(cx, *dense_nerve_complex(cat, module, maxdeg))
    return cx


def cyclic_bundle(m, spec):
    _, cand, module_docs = io.load(fixtures.cyclic_doc(m, {"a": spec}))
    g0 = OrderedGroupoid.from_candidate(cand)
    lc = build_lcat(g0)
    return lc.category, io.build_module(g0, lc, module_docs["a"])


def theorem_instance(seed, finite):
    """A seeded (groupoid, L(G), module) instance of `check_theorem`."""
    rng = random.Random(seed)
    rog = random_og(rng, n_identities=rng.randint(1, 4),
                    max_group=rng.randint(1, 3))
    lc = build_lcat(rog.groupoid)
    return rog.groupoid, lc, random_module(rng, rog, lc, finite=finite,
                                           max_order=6)


def theorem_inputs(seed, finite):
    """The (category, module) pairs whose nerves `check_theorem` solves,
    on the seeded instance of `theorem_instance`."""
    g0, lc, module = theorem_instance(seed, finite)
    colim = colim_E(g0, lc, module)
    return [(lc.category, module), (colim.module.base, colim.module)]


def test_fixtures_match_dense():
    for name in fixtures.names():
        bundle = fixtures.load(name)
        for module in bundle.modules.values():
            assert_nerve_matches_dense(bundle.lc.category, module)


def test_cyclic_groups_match_dense_and_closed_form():
    for m in range(1, 7):
        for k in [0] + list(range(2, 8)):
            for unit in (1, -1):
                if unit == -1 and m % 2 and k != 2:
                    continue  # -1 is not an m-th root of unity here
                spec = fixtures.cyclic_module_spec(
                    m, 0 if k else 1, [k] if k else [], unit)
                cat, module = cyclic_bundle(m, spec)
                cx = assert_nerve_matches_dense(cat, module)
                assert [cx.homology(n).canonical_form()
                        for n in range(3)] == [
                    periodic_cyclic_homology(m, k, unit, n)
                    for n in range(3)], (m, k, unit)


def test_theorem_complexes_match_dense():
    canonical = presented = 0
    for seed in range(40):
        for finite in (True, False):
            left, (qcat, qmodule) = theorem_inputs(seed, finite)
            assert_nerve_matches_dense(*left)
            cx = nerve_complex(qcat, qmodule, 3)
            groups, boundaries = dense_nerve_complex(qcat, qmodule, 3)
            assert_matches_dense(cx, groups, boundaries)
            canonical += sum(cx.ngens)
            presented += sum(g.ngens for g in groups)
    # the class colimits present many generators that canonical
    # coordinates drop
    assert canonical < presented


@pytest.mark.parametrize("doc", [connected_doc, brandt_z2_doc])
@pytest.mark.parametrize("group_at_0", [Z, Z2])
def test_connected_groupoids_match_dense(doc, group_at_0):
    # the only inputs with an arrow between distinct identities
    _, cand, module_docs = io.load(doc(group_at_0))
    g0 = OrderedGroupoid.from_candidate(cand)
    lc = build_lcat(g0)
    module = io.build_module(g0, lc, module_docs["m"])
    colim = colim_E(g0, lc, module)
    assert_nerve_matches_dense(lc.category, module)
    assert_nerve_matches_dense(colim.module.base, colim.module)


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=25, deadline=None)
def test_theorem_complexes_match_dense_hypothesis(seed, finite):
    for cat, module in theorem_inputs(seed, finite):
        assert_nerve_matches_dense(cat, module)


def test_equal_order_rule():
    # Z --1--> Z/2: the entry is a unit, but Z and Z/2 are not the same
    # summand, and H_1 = 2Z is free; cancelling would give 0
    z2 = FgAbGroup.from_invariants(0, [2])
    z = FgAbGroup.free(1)
    zero = FgAbGroup.trivial()
    groups = [z2, z, zero]
    boundaries = [None, AbHom(z, z2, ZMatrix([[1]])), AbHom.zero(zero, z)]
    cx = complex_from_dense(groups, boundaries)
    assert [g.ngens for g in cx.reduced().groups] == [1, 1, 0]
    assert cx.homology(1).canonical_form() == (1, ())
    assert cx.homology(0).canonical_form() == (0, ())
    assert_matches_dense(cx, groups, boundaries)


def test_non_pm1_unit():
    # 3 is a unit mod 7 but not mod 6: the Z/7 pair cancels, Z/6 stays
    zero = FgAbGroup.trivial()
    for k, ranks, h in [(7, [0, 0, 0], [(0, ()), (0, ())]),
                        (6, [1, 1, 0], [(0, (3,)), (0, (3,))])]:
        zk = FgAbGroup.from_invariants(0, [k])
        groups = [zk, zk, zero]
        boundaries = [None, AbHom(zk, zk, ZMatrix([[3]])),
                      AbHom.zero(zero, zk)]
        cx = complex_from_dense(groups, boundaries)
        assert [g.ngens for g in cx.reduced().groups] == ranks
        assert [cx.homology(n).canonical_form() for n in range(2)] == h
        assert_matches_dense(cx, groups, boundaries)
    # Z/3 acting on Z/7 through the unit 2
    cat, module = cyclic_bundle(3, fixtures.cyclic_module_spec(3, 0, [7], 2))
    assert homology_profile(cat, module, 3) == [
        periodic_cyclic_homology(3, 7, 2, n) for n in range(4)]


def test_non_diagonal_presentation():
    # Z^2/(2, 2) = Z + Z/2: neither presented generator spans a summand,
    # both canonical ones do
    spec = {"groups": {"1": {"ngens": 2, "relations": [[2], [2]]}},
            "poset_maps": {},
            "arrow_maps": {"t%d" % i: [[1, 0], [0, 1]] for i in (1, 2, 3)}}
    cat, module = cyclic_bundle(4, spec)
    cx = assert_nerve_matches_dense(cat, module, 4)
    assert cx.orders[0] == [2, 0]
    assert [cx.homology(n).canonical_form() for n in range(4)] == [
        (1, (2,)), (0, (2, 4)), (0, (2,)), (0, (2, 4))]


def test_dead_generators_are_dropped():
    dead = _cyclic_group(1)
    z = FgAbGroup.free(1)
    zero = FgAbGroup.trivial()
    # Z <-0- (dead) <-3- Z <- 0: the dead generator carries nothing
    groups = [z, dead, z, zero]
    boundaries = [None, AbHom(dead, z, ZMatrix([[0]])),
                  AbHom(z, dead, ZMatrix([[3]])), AbHom.zero(zero, z)]
    cx = complex_from_dense(groups, boundaries)
    assert [g.ngens for g in cx.reduced().groups] == [1, 0, 1, 0]
    assert [cx.homology(n).canonical_form() for n in range(3)] == [
        (1, ()), (0, ()), (1, ())]
    assert_matches_dense(cx, groups, boundaries)
    # Z/1 has no canonical coordinate, so the nerve has no generator
    spec = {"groups": {"1": {"ngens": 1, "relations": [[1]]}},
            "poset_maps": {},
            "arrow_maps": {"t1": [[1]], "t2": [[1]]}}
    cx = assert_nerve_matches_dense(*cyclic_bundle(3, spec))
    assert [g.ngens for g in cx.groups] == [0, 0, 0, 0]
    assert [g.ngens for g in cx.reduced().groups] == [0, 0, 0, 0]


@pytest.fixture
def solves(monkeypatch):
    """The `homology_at` calls that `ChainComplex.homology` makes."""
    calls = []

    def counted(f, g):
        calls.append((f, g))
        return homology_at(f, g)

    # the package's `homology` function hides the module of that name
    monkeypatch.setattr(sys.modules["oghom.homology"], "homology_at", counted)
    return calls


def test_h0_is_read_as_a_cokernel(solves):
    # ∂_1 = 2 is no unit: it stays, and H_0 is still read off directly
    cx = ChainComplex([[0], [0]], [None, [{0: 2}]])
    assert cx.homology(0).canonical_form() == (0, (2,))
    assert not solves


def test_only_a_nonzero_residual_is_solved(solves):
    # Z/4 <-2- Z/4 <-2- Z/4: 2 is no unit mod 4, so nothing cancels
    cx = ChainComplex([[4], [4], [4]], [None, [{0: 2}], [{0: 2}]])
    assert cx.homology(0).canonical_form() == (0, (2,))
    assert not solves
    assert cx.homology(1).canonical_form() == (0, ())
    assert len(solves) == 1


def test_zero_complex_is_never_solved(solves):
    cx = ChainComplex([[0], [0], [0]], [None, [{}], [{}]])
    assert [cx.homology(n).canonical_form() for n in range(2)] == [
        (1, ()), (1, ())]
    assert not solves
