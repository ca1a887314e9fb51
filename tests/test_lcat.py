"""The left-cancellative category of prefix-restricted arrows."""

import random

import pytest

from oghom import fixtures
from oghom.category import FiniteCategory
from oghom.errors import NotComposable, StructuralDefect
from oghom.lcat import build_lcat
from oghom.randgen import random_og

from .oracles import (
    NamedTable,
    category_problems_by_triples,
    group_category,
    lcat_compose,
    left_cancellative_by_loop,
)


def test_clifford_morphisms():
    lc = fixtures.load("clifford").lc
    assert sorted(lc.category.morphisms) == [
        ("1", "1"), ("1", "f"), ("1", "s"), ("1", "t"),
        ("f", "f"), ("f", "t"),
    ]
    cat = lc.category
    assert cat.dom[("1", "t")] == "1" and cat.cod[("1", "t")] == "f"
    assert cat.identity["1"] == ("1", "1")


def test_clifford_composition():
    g = fixtures.load("clifford").groupoid
    cat = fixtures.load("clifford").lc.category
    assert cat.compose(("1", "s"), ("1", "s")) == ("1", "1")
    # the second factor's smaller domain restricts the first: s falls to t
    assert cat.compose(("1", "s"), ("1", "t")) == ("1", "f")
    assert cat.compose(("1", "f"), ("f", "t")) == ("1", "t")
    assert cat.compose(("1", "t"), ("f", "t")) == ("1", "f")
    with pytest.raises(NotComposable):
        lcat_compose(g, ("1", "s"), ("f", "t"))  # cod is 1, not f


def test_category_axioms_enforced():
    # a corrupted composition table is rejected at construction
    cat = fixtures.load("clifford").lc.category
    bad = NamedTable.of(cat)
    bad.table[(("1", "s"), ("1", "s"))] = ("1", "s")
    with pytest.raises(StructuralDefect) as exc:
        FiniteCategory(cat.objects, cat.morphisms, cat.dom, cat.cod,
                       cat.identity, bad.table)
    assert exc.value.problems == category_problems_by_triples(bad)


def test_left_cancellative_fixtures():
    for name in ["chain2", "z2", "clifford", "twofold"]:
        lc = fixtures.load(name).lc
        ok, witness = lc.category.left_cancellative()
        assert ok, witness


def test_left_cancellative_exhaustive_meaning():
    # verify the verdict against the raw definition on one fixture
    cat = fixtures.load("clifford").lc.category
    for m in cat.morphisms:
        for h1 in cat.morphisms:
            for h2 in cat.morphisms:
                if (cat.composable(m, h1) and cat.composable(m, h2)
                        and cat.compose(m, h1) == cat.compose(m, h2)):
                    assert h1 == h2


def test_left_cancellative_counterexample_detected():
    # a two-object category with a collapsing arrow is not left
    # cancellative; built directly, bypassing groupoid validation
    objs = ["a"]
    morphs = ["1a", "p"]
    dom = {"1a": "a", "p": "a"}
    cod = {"1a": "a", "p": "a"}
    identity = {"a": "1a"}
    compose = {
        ("1a", "1a"): "1a", ("1a", "p"): "p",
        ("p", "1a"): "p", ("p", "p"): "p",
    }
    cat = FiniteCategory(objs, morphs, dom, cod, identity, compose)
    ok, witness = cat.left_cancellative()
    assert not ok
    m, h1, h2 = witness
    assert cat.compose(m, h1) == cat.compose(m, h2) and h1 != h2
    assert cat.left_cancellative() == left_cancellative_by_loop(
        NamedTable.of(cat))


def test_group_category():
    cat = group_category(4)
    assert len(cat.objects) == 1 and len(cat.morphisms) == 4
    ok, _ = cat.left_cancellative()
    assert ok


def test_random_instances_left_cancellative():
    rng = random.Random(20)
    for _ in range(30):
        rog = random_og(rng, n_identities=rng.randint(1, 4),
                        max_group=rng.randint(1, 4),
                        directed=rng.random() < 0.7)
        lc = build_lcat(rog.groupoid)
        ok, witness = lc.category.left_cancellative()
        assert ok, witness


def test_components_and_subcategory():
    cat = fixtures.load("twofold").lc.category
    comps = cat.components()
    # all five objects are connected through the shared top identity
    assert len(comps) == 1
