"""Ordered-groupoid validation: axioms as data, fixtures, mutations."""

import pytest

from oghom import fixtures, io
from oghom.errors import (
    DanglingReference,
    PreconditionViolation,
    SchemaViolation,
    StructuralDefect,
)
from oghom.groupoid import GroupoidCandidate, OrderedGroupoid, validate

FIXTURES = ["chain2", "z2", "clifford", "twofold"]


def candidate(name):
    _, cand, _ = io.load(fixtures.doc(name))
    return cand


# Single-edit corruptions of the clifford fixture, each with the axiom
# and witness its rejection must carry.  Kept as data so the acceptance
# run can replay the same table.
def clifford_mutations():
    out = []

    def order_drop(pair, axiom, witness):
        c = candidate("clifford")
        c.order_pairs.discard(pair)
        out.append((c, axiom, witness))

    def compose_set(pair, value, axiom, witness):
        c = candidate("clifford")
        c.compose[pair] = value
        out.append((c, axiom, witness))

    order_drop(("t", "s"), "OG3", ("s", "f"))
    order_drop(("f", "1"), "OG2", ("t", "s", "t", "s"))
    order_drop(("s", "s"), "order-reflexive", ("s",))
    order_drop(("t", "t"), "order-reflexive", ("t",))
    compose_set(("s", "s"), "s", "inverse-law", ("s",))
    compose_set(("s", "s"), "f", "compose-typing", ("s", "s", "f"))
    compose_set(("f", "t"), "f", "identity-law", ("f", "t"))
    compose_set(("t", "t"), "t", "inverse-law", ("t",))
    compose_set(("t", "f"), "f", "identity-law", ("t", "f"))
    compose_set(("1", "1"), "s", "identity-law", ("1", "1"))
    return out


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_validates(name):
    rep = validate(candidate(name))
    assert rep.ok, rep.axioms()


@pytest.mark.parametrize("idx", range(10))
def test_clifford_mutation_rejected(idx):
    cand, axiom, witness = clifford_mutations()[idx]
    rep = validate(cand)
    assert not rep.ok
    assert rep.has(axiom, witness), (axiom, witness, rep.violations)
    with pytest.raises(StructuralDefect):
        OrderedGroupoid.from_candidate(cand)


def test_from_parts_inserts_units():
    c = GroupoidCandidate.from_parts(
        ["e"], {"g": ("e", "e", "g")}, {("g", "g"): "e"}, [])
    assert c.compose[("e", "g")] == "g"
    assert c.compose[("g", "e")] == "g"
    assert c.leq("g", "g")
    assert validate(c).ok


def test_identity_outside_the_arrows_is_identity_typing():
    # io gives every identity its own d, r and inv, so only a hand-built
    # candidate can leave one out
    c = GroupoidCandidate(["e", "f"], {"f": "f"}, {"f": "f"}, {"f": "f"},
                          {("f", "f"): "f"}, {("f", "f")})
    assert [(v.axiom, v.witness) for v in validate(c).violations] == [
        ("identity-typing", ("e",))]


def test_repeated_identity_is_a_violation():
    # io refuses a repeated id first, so only a hand-built candidate can
    # repeat an identity
    c = GroupoidCandidate(["e", "e"], {"e": "e"}, {"e": "e"}, {"e": "e"},
                          {("e", "e"): "e"}, {("e", "e")})
    assert [(v.axiom, v.witness) for v in validate(c).violations] == [
        ("identity-repeated", ("e",))]
    with pytest.raises(StructuralDefect, match="identity-repeated"):
        OrderedGroupoid.from_candidate(c)
    doc = fixtures.doc("chain2")
    doc["groupoid"]["identities"].append("e")
    with pytest.raises(SchemaViolation, match="duplicate id 'e'"):
        io.load(doc)


def test_order_pair_naming_a_non_arrow_is_a_violation():
    # the pair is reported and left out of the order axioms, which would
    # look up its inverse and its domain; io refuses the dangling
    # reference first
    c = GroupoidCandidate(["e"], {"e": "e"}, {"e": "e"}, {"e": "e"},
                          {("e", "e"): "e"}, {("e", "e"), ("zz", "e")})
    assert [(v.axiom, v.witness) for v in validate(c).violations] == [
        ("order-typing", ("zz", "e"))]
    doc = fixtures.doc("chain2")
    doc["groupoid"]["order"].append(["zz", "e"])
    with pytest.raises(DanglingReference):
        io.load(doc)


def test_from_parts_keeps_order_cycles_for_validation():
    # closing generating pairs must not reject a cycle; the validator
    # reports it as an axiom violation with a witness
    c = GroupoidCandidate.from_parts(
        ["e", "f"], {}, {}, [("e", "f"), ("f", "e")])
    rep = validate(c)
    assert rep.has("order-antisymmetry", ("e", "f"))
    assert rep.axioms() == ["order-antisymmetry"]


def test_clifford_structure():
    g = fixtures.load("clifford").groupoid
    assert g.identities == ["1", "f"]
    assert sorted(g.nonidentity_arrows()) == ["s", "t"]
    assert g.compose("s", "s") == "1"
    assert g.compose("t", "t") == "f"
    with pytest.raises(PreconditionViolation):
        g.compose("s", "t")  # r(s) = 1 but d(t) = f
    assert g.restriction("f", "s") == "t"
    assert g.corestriction("s", "f") == "t"
    with pytest.raises(PreconditionViolation):
        g.restriction("1", "t")
    assert g.identity_lower_bounds("1", "f") == {"f"}


def test_down_closure_of_identities():
    # anything below an identity is an identity: holds on all fixtures
    for name in FIXTURES:
        g = fixtures.load(name).groupoid
        ids = set(g.identities)
        for e in ids:
            for x in g.arrows:
                if g.order.leq(x, e):
                    assert x in ids


def test_restriction_characterisation():
    # (e|x) is the unique arrow below x with domain e, on every fixture
    for name in FIXTURES:
        g = fixtures.load(name).groupoid
        for x in g.arrows:
            for e in g.identities:
                if not g.order.leq(e, g.d[x]):
                    continue
                y = g.restriction(e, x)
                assert g.d[y] == e and g.order.leq(y, x)
                others = [z for z in g.arrows
                          if g.order.leq(z, x) and g.d[z] == e]
                assert others == [y]


def test_twofold_shape():
    g = fixtures.load("twofold").groupoid
    assert len(g.identities) == 5
    assert g.restriction("e", "s") == "sA"
    assert g.restriction("f", "s") == "sB"
    # e and f have no common lower bound among identities of s's class
    assert g.identity_lower_bounds("e", "f") == set()
