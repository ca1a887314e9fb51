"""Seeded generators: every emitted instance satisfies its contract."""

import random

import pytest

from oghom.beta import check_quotient_welldefined, is_principally_directed, quotient
from oghom.gmodules import expand, expand_map
from oghom.lcat import build_lcat
from oghom.randgen import random_module, random_og, random_quotient_module
from oghom.zmodule import homology_at

from .oracles import group_order, random_ses, random_surjection


def test_directed_instances_are_principally_directed():
    rng = random.Random(101)
    for _ in range(25):
        rog = random_og(rng, n_identities=rng.randint(1, 5),
                        max_group=rng.randint(1, 5), directed=True)
        ok, reason = is_principally_directed(rog.groupoid)
        assert ok, reason
        assert check_quotient_welldefined(rog.groupoid).ok


def test_free_instances_validate():
    rng = random.Random(103)
    directed_seen = nondirected_seen = 0
    for _ in range(25):
        rog = random_og(rng, n_identities=4, max_group=3, directed=False)
        # construction validated the axioms already; probe the verdict
        ok, _ = is_principally_directed(rog.groupoid)
        if ok:
            directed_seen += 1
        else:
            nondirected_seen += 1
    assert directed_seen and nondirected_seen  # both behaviours occur


def test_modules_are_functorial_and_finite():
    rng = random.Random(107)
    for _ in range(15):
        rog = random_og(rng, n_identities=rng.randint(1, 3),
                        max_group=rng.randint(1, 4), directed=True)
        lc = build_lcat(rog.groupoid)
        mod = random_module(rng, rog, lc, finite=True, max_order=6)
        for grp in mod.groups.values():
            order = group_order(grp)
            assert order is not None and order <= 6


def test_module_generator_requires_directed():
    rng = random.Random(109)
    rog = random_og(rng, n_identities=3, max_group=2, directed=False)
    lc = build_lcat(rog.groupoid)
    with pytest.raises(ValueError):
        random_module(rng, rog, lc)


def test_quotient_modules_land_on_classes():
    rng = random.Random(113)
    for _ in range(10):
        rog = random_og(rng, n_identities=3, max_group=3, directed=True)
        q = quotient(rog.groupoid)
        b = random_quotient_module(rng, q)
        assert set(b.groups) == set(q.groupoid.identities)
        lc = build_lcat(rog.groupoid)
        up = expand(q, lc, b)
        assert set(up.groups) == set(rog.groupoid.identities)


def test_ses_is_exact_componentwise():
    rng = random.Random(127)
    for _ in range(10):
        g0, lc, sub, mid, quo, incl, proj = random_ses(rng)
        for e in g0.identities:
            fe, ge = incl.components[e], proj.components[e]
            assert fe.is_injective()
            assert ge.is_surjective()
            assert homology_at(fe, ge).is_trivial()


def test_surjections_expand_surjectively():
    rng = random.Random(131)
    for _ in range(10):
        rog = random_og(rng, n_identities=3, max_group=3, directed=True)
        q = quotient(rog.groupoid)
        lc = build_lcat(rog.groupoid)
        b = random_quotient_module(rng, q)
        small, xi = random_surjection(rng, b)
        assert xi.is_componentwise_surjective()
        up = expand_map(q, lc, xi)
        assert up.is_componentwise_surjective()


def test_generators_are_deterministic():
    a = random_og(random.Random(42), n_identities=4, max_group=4,
                  directed=True)
    b = random_og(random.Random(42), n_identities=4, max_group=4,
                  directed=True)
    assert a.groupoid.arrows == b.groupoid.arrows
    assert a.groupoid.composition_table() == b.groupoid.composition_table()
    assert a.groupoid.order.pairs() == b.groupoid.order.pairs()
