"""The common-lower-bound relation, its classes, and the quotient."""

import random

import pytest

from oghom import fixtures
from oghom.beta import (
    all_ideals_directed,
    beta_classes,
    beta_related,
    beta_transitive,
    beta_witness,
    check_quotient_welldefined,
    is_principally_directed,
    quotient,
)
from oghom.errors import NotPrincipallyDirected
from oghom.groupoid import validate
from oghom.io import groupoid_to_doc
from oghom.lcat import build_lcat
from oghom.randgen import random_og

from .oracles import beta_classes_by_pairs


def test_beta_witness_clifford():
    g = fixtures.load("clifford").groupoid
    assert beta_witness(g, "s", "s") == "s"
    assert beta_witness(g, "s", "t") == "t"  # t <= s and t <= t
    assert beta_witness(g, "1", "f") == "f"
    assert beta_witness(g, "s", "1") is None
    assert beta_related(g, "t", "s") == (True, "t")


def test_beta_classes_clifford():
    g = fixtures.load("clifford").groupoid
    classes, class_of = beta_classes(g)
    assert classes == {"1": ["1", "f"], "s": ["s", "t"]}
    assert class_of["t"] == "s" and class_of["f"] == "1"


def test_beta_classes_match_pairwise_oracle():
    # the comparability components must equal the union-find over all
    # beta-related pairs, in content and in dict order, directed or not
    instances = [fixtures.load(n).groupoid for n in fixtures.names()]
    rng = random.Random(2024)
    for directed in (True, False):
        for _ in range(40):
            instances.append(random_og(
                rng, n_identities=rng.randint(1, 5),
                max_group=rng.randint(1, 4), directed=directed).groupoid)
    assert any(not is_principally_directed(g)[0] for g in instances)
    for g in instances:
        got = beta_classes(g)
        want = beta_classes_by_pairs(g)
        assert got == want
        assert list(got[0]) == list(want[0])


def test_directedness_verdicts():
    for name in ["chain2", "z2", "clifford"]:
        g = fixtures.load(name).groupoid
        assert all_ideals_directed(g) == (True, None)
        assert beta_transitive(g)[0]
        assert is_principally_directed(g) == (True, None)


def test_twofold_not_directed():
    g = fixtures.load("twofold").groupoid
    ok, reason = is_principally_directed(g)
    assert not ok
    assert reason["kind"] == "beta-chain"
    a, b, c = reason["triple"]
    # the chain really holds and really fails to close
    assert beta_witness(g, a, b) is not None
    assert beta_witness(g, b, c) is not None
    assert beta_witness(g, a, c) is None
    assert not beta_transitive(g)[0]
    # the split survives restriction to s: sA and sB sit below s but
    # share no lower bound, so that chain is a counterexample too
    assert beta_related(g, "sA", "s")[0]
    assert beta_related(g, "s", "sB")[0]
    assert not beta_related(g, "sA", "sB")[0]
    # and the identity ideal over 1 is itself non-directed
    ok_ideals, witness = all_ideals_directed(g)
    assert not ok_ideals and witness == ("1", ("e", "f"))


def test_verdict_equivalence_on_fixtures():
    # directedness of all principal ideals plus transitivity is exactly
    # the principally-directed verdict
    for name in fixtures.names():
        g = fixtures.load(name).groupoid
        both = all_ideals_directed(g)[0] and beta_transitive(g)[0]
        assert is_principally_directed(g)[0] == both


def test_quotient_clifford():
    q = quotient(fixtures.load("clifford").groupoid)
    qg = q.groupoid
    assert qg.identities == ["1"]
    assert set(qg.arrows) == {"1", "s"}
    assert qg.compose("s", "s") == "1"
    assert q.class_of["t"] == "s"
    assert q.classes["s"] == ["s", "t"]


def test_quotient_revalidates():
    # round the quotient through the document form and validate afresh
    from oghom import io

    for name in ["chain2", "z2", "clifford"]:
        q = quotient(fixtures.load(name).groupoid)
        doc = groupoid_to_doc(q.groupoid)
        kind, cand, _ = io.load(doc)
        assert kind == "groupoid"
        assert validate(cand).ok


def test_quotient_requires_directedness():
    with pytest.raises(NotPrincipallyDirected) as exc:
        quotient(fixtures.load("twofold").groupoid)
    assert exc.value.counterexample is not None


def test_quotient_choice_independence():
    for name in ["chain2", "z2", "clifford"]:
        rep = check_quotient_welldefined(fixtures.load(name).groupoid)
        assert rep.ok and rep.checked > 0


def test_quotient_composition_value():
    # composing the classes of s and t lands back in the identity class
    g = fixtures.load("clifford").groupoid
    q = quotient(g)
    assert q.groupoid.compose("s", "s") == "1"
    # and the lcat of the quotient is a plain group with one object
    lc = build_lcat(q.groupoid)
    assert len(lc.category.objects) == 1
    assert len(lc.category.morphisms) == 2
