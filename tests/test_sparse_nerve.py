"""The sparse nerve against the dense one it replaced.

`nerve_complex` emits sparse columns and `tests/oracles.py` keeps the
dense construction (block-diagonal relations, dense boundary columns,
handed to `ChainComplex` by `complex_from_dense`).  The dense views of the sparse complex
must equal the oracle's matrices exactly, and both must give the same
homology.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from oghom import fixtures, io
from oghom.gmodules import colim_E
from oghom.groupoid import OrderedGroupoid
from oghom.homology import nerve_complex
from oghom.lcat import build_lcat
from .oracles import dense_homology, dense_nerve_complex
from .test_connected import Z, Z2, connected_doc
from .test_reduction import theorem_inputs


def assert_same_nerve(cat, module, maxdeg=3):
    cx = nerve_complex(cat, module, maxdeg)
    oracle = dense_nerve_complex(cat, module, maxdeg)
    assert cx.groups == oracle.groups
    assert ([(b.source, b.target, b.matrix) for b in cx.boundaries[1:]]
            == [(b.source, b.target, b.matrix)
                for b in oracle.boundaries[1:]])
    assert cx.boundaries[0] is None
    for n in range(maxdeg):
        assert cx.homology(n).canonical_form() == dense_homology(oracle, n)


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


def test_connected_groupoid():
    for group_at_0 in (Z, Z2):
        _, cand, mdocs = io.load(connected_doc(group_at_0))
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


@given(st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=25, deadline=None)
def test_hypothesis_instances(seed, finite):
    for cat, module in theorem_inputs(seed, finite):
        assert_same_nerve(cat, module)
