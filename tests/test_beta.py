"""The common-lower-bound relation, its classes, and the quotient."""

import gc
import random
import sys
import weakref

import pytest

from oghom import fixtures, io
from oghom.beta import (
    beta_classes,
    beta_transitive,
    beta_witness,
    check_quotient_welldefined,
    is_principally_directed,
    quotient,
)
from oghom.errors import NotPrincipallyDirected, StructuralDefect
from oghom.groupoid import OrderedGroupoid, validate
from oghom.io import groupoid_to_doc
from oghom.lcat import build_lcat
from oghom.randgen import random_og

from .oracles import (
    beta_classes_by_pairs,
    beta_transitive_by_scan,
    beta_transitive_by_sets,
    ideals_directed_by_scan,
)
from .test_connected import (
    brandt_z2_candidate,
    connected_groupoid,
    pair_groupoid,
)


def assert_verdict_matches_oracles(g0):
    """The kept verdict is the ideal scan's.  On a negative one, the
    scan's witness (t, (a, b)) is a failing chain a beta t beta b, and
    the kept triple is the least failing chain of the triple scan.  The
    bitset `beta_transitive` gives the set version's verdict and chain.
    Returns the verdict."""
    assert beta_transitive(g0) == beta_transitive_by_sets(g0)
    ok, reason = is_principally_directed(g0)
    scan_ok, witness = ideals_directed_by_scan(g0)
    assert ok == scan_ok
    if not ok:
        t, (a, b) = witness
        assert beta_witness(g0, a, t) is not None
        assert beta_witness(g0, t, b) is not None
        assert beta_witness(g0, a, b) is None
        assert reason["triple"] == beta_transitive_by_scan(g0)[1]
    return ok


def criterion_02_groupoids():
    """The 204 instances of acceptance criterion 02: four fixtures and
    200 random groupoids, each directed or free by a coin flip."""
    groupoids = [fixtures.load(name).groupoid
                 for name in ["chain2", "z2", "clifford", "twofold"]]
    rng = random.Random(202)
    while len(groupoids) < 4 + 200:
        rog = random_og(rng, n_identities=rng.randint(1, 5),
                        max_group=rng.randint(1, 4),
                        directed=rng.random() < 0.5)
        groupoids.append(rog.groupoid)
    return groupoids


def test_beta_witness_clifford():
    g = fixtures.load("clifford").groupoid
    assert beta_witness(g, "s", "s") == "s"
    assert beta_witness(g, "s", "t") == "t"  # t <= s and t <= t
    assert beta_witness(g, "1", "f") == "f"
    assert beta_witness(g, "s", "1") is None
    assert beta_witness(g, "t", "s") == "t"


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
        assert ideals_directed_by_scan(g) == (True, None)
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
    assert beta_witness(g, "sA", "s") is not None
    assert beta_witness(g, "s", "sB") is not None
    assert beta_witness(g, "sA", "sB") is None
    # and the identity ideal over 1 is itself non-directed
    assert ideals_directed_by_scan(g) == (False, ("1", ("e", "f")))


def test_verdict_equivalence_on_fixtures():
    # transitivity of beta decides exactly the directedness of every
    # principal ideal
    verdicts = {assert_verdict_matches_oracles(fixtures.load(name).groupoid)
                for name in fixtures.names()}
    assert verdicts == {True, False}


def test_verdict_matches_ideal_scan():
    groupoids = [connected_groupoid(),
                 OrderedGroupoid.from_candidate(brandt_z2_candidate()),
                 pair_groupoid("ef"), pair_groupoid("e")]
    groupoids += criterion_02_groupoids()
    verdicts = [assert_verdict_matches_oracles(g) for g in groupoids]
    assert verdicts[:4] == [True, True, False, True]
    assert 0 < verdicts.count(False) < len(verdicts)


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


def count_deciders(monkeypatch):
    """The id of each groupoid that `beta_transitive` decides, one entry
    per run.  It is the library's one directedness decider; the ideal
    scan lives only in tests/oracles.py."""
    beta = sys.modules["oghom.beta"]
    decide = beta.beta_transitive
    runs = []

    def run(g0):
        runs.append(id(g0))
        return decide(g0)

    monkeypatch.setattr(beta, "beta_transitive", run)
    return runs


def test_groupoid_keeps_its_verdict_and_quotient(monkeypatch):
    runs = count_deciders(monkeypatch)
    g = fixtures.load("clifford").groupoid
    assert is_principally_directed(g) == (True, None)
    q = quotient(g)
    assert runs == [id(g)]
    assert quotient(g) is q
    assert is_principally_directed(g) == (True, None)
    assert runs == [id(g)]
    # another groupoid is decided on its own
    other = fixtures.load("clifford").groupoid
    quotient(other)
    assert runs == [id(g), id(other)]


def test_negative_verdict_is_kept(monkeypatch):
    runs = count_deciders(monkeypatch)
    g = fixtures.load("twofold").groupoid
    ok, counterexample = is_principally_directed(g)
    assert not ok
    for _ in range(3):
        with pytest.raises(NotPrincipallyDirected) as exc:
            quotient(g)
        assert exc.value.counterexample == counterexample
    assert runs == [id(g)]


def test_failing_decider_keeps_nothing(monkeypatch):
    # a decider that raises leaves nothing on `derived`, so the next
    # call decides again, and the first verdict it returns is kept
    beta = sys.modules["oghom.beta"]

    def broken(g0):
        raise StructuralDefect("decider failed")

    monkeypatch.setattr(beta, "beta_transitive", broken)
    runs = count_deciders(monkeypatch)
    g = fixtures.load("clifford").groupoid
    for n in (1, 2):
        with pytest.raises(StructuralDefect, match="decider failed"):
            quotient(g)
        with pytest.raises(StructuralDefect, match="decider failed"):
            is_principally_directed(g)
        assert runs == [id(g)] * 2 * n
    assert "directed" not in g.derived and "quotient" not in g.derived
    monkeypatch.undo()
    runs = count_deciders(monkeypatch)
    assert quotient(g).classes == {"1": ["1", "f"], "s": ["s", "t"]}
    assert is_principally_directed(g) == (True, None)
    assert runs == [id(g)]


def test_wrong_middle_identity_fails_the_choice_check(monkeypatch):
    # composing through any middle identity other than the least one
    # lands in the other class; a fresh groupoid, so the quotient is
    # built under the corruption
    beta = sys.modules["oghom.beta"]
    compose_via = beta._compose_via
    g = fixtures.load("clifford").groupoid

    def corrupt(g0, a, b, f):
        got = compose_via(g0, a, b, f)
        if f != min(g0.identity_lower_bounds(g0.r[a], g0.d[b])):
            return "1" if got in ("s", "t") else "s"
        return got

    monkeypatch.setattr(beta, "_compose_via", corrupt)
    rep = check_quotient_welldefined(g)
    assert not rep.ok
    assert {f["middle"] for f in rep.failures} == {"f"}


def test_corrupted_quotient_candidate_is_rejected(monkeypatch):
    # every class composite lands in the class of s, so the quotient
    # candidate loses its identities; a fresh groupoid, so the quotient
    # is built under the corruption
    beta = sys.modules["oghom.beta"]
    g = fixtures.load("clifford").groupoid
    monkeypatch.setattr(beta, "_compose_via", lambda g0, a, b, f: "s")
    with pytest.raises(StructuralDefect,
                       match="quotient candidate is not a groupoid"):
        quotient(g)
    assert "quotient" not in g.derived


def test_kept_results_are_freed_with_their_groupoid():
    # nothing kept refers back to the groupoid, so dropping the last
    # reference frees it at once, without the cycle collector
    _, cand, _ = io.load(fixtures.doc("clifford"))
    g = OrderedGroupoid.from_candidate(cand)
    quotient(g)
    ref = weakref.ref(g)
    gc.disable()
    try:
        del g
        assert ref() is None
    finally:
        gc.enable()
