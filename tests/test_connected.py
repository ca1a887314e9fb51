"""Ordered groupoids with arrows between distinct identities.

Every fixture and generated instance has only loops, so code that
buckets arrows by range where it should bucket them by domain passes on
all of them.  Here a: e -> f and its inverse a_inv: f -> e join two
identities, and the identity 0 lies below every arrow.  This is the
groupoid of the five-element Brandt semigroup: it is principally
directed and beta has a single class.  The Brandt groupoid over Z/2
adds a second arrow from e to f.  The product of the pair groupoid on
two objects with twofold's identity order is the one that is not
principally directed.  The pair groupoid times a two-element chain is
principally directed, and its quotient is the pair groupoid itself:
the only one here whose class action joins two distinct identities,
since the first two have the trivial group as quotient.
"""

import json

import pytest

from oghom import io
from oghom.beta import (
    beta_witness,
    check_quotient_welldefined,
    is_principally_directed,
    quotient,
)
from oghom.cli import main
from oghom.errors import NotPrincipallyDirected, StructuralDefect
from oghom.gmodules import (
    check_adjunction,
    check_colim_composition,
    check_quotient_action,
    colim_E,
)
from oghom.groupoid import OrderedGroupoid, validate
from oghom.homology import check_theorem
from oghom.lcat import build_lcat
from .oracles import class_actions_by_two_steps

Z = {"rank": 1, "torsion": []}
Z2 = {"rank": 0, "torsion": [2]}


def connected_doc(group_at_0=Z):
    return {
        "schema": 1,
        "groupoid": {
            "identities": ["0", "e", "f"],
            "arrows": [{"id": "a", "d": "e", "r": "f", "inv": "a_inv"},
                       {"id": "a_inv", "d": "f", "r": "e", "inv": "a"}],
            "compose": [["a", "a_inv", "e"], ["a_inv", "a", "f"]],
            "order": [["0", "e"], ["0", "f"], ["0", "a"], ["0", "a_inv"]],
        },
        "modules": {
            "m": {"groups": {"0": group_at_0, "e": Z, "f": Z},
                  "poset_maps": {"e>0": [[1]], "f>0": [[1]]},
                  "arrow_maps": {"a": [[1]], "a_inv": [[1]]}},
        },
    }


def connected_candidate():
    _, cand, _ = io.load(connected_doc())
    return cand


# arrow (i, j, s) of the Brandt groupoid over Z/2: from i to j, twisted
# by s in Z/2; (i, j, s)(j, k, t) = (i, k, s + t)
BRANDT_Z2_NAMES = {("e", "e", 0): "e", ("e", "e", 1): "se",
                   ("f", "f", 0): "f", ("f", "f", 1): "sf",
                   ("e", "f", 0): "a", ("e", "f", 1): "b",
                   ("f", "e", 0): "a_inv", ("f", "e", 1): "b_inv"}


def brandt_z2_doc(group_at_0=Z):
    """The Brandt groupoid over Z/2 on e and f, with the identity 0 below
    every arrow: a and b both go from e to f, so a composite can be
    rewritten to another arrow of the same domain and range.  Its module
    m is Z at e and f, `group_at_0` at 0, and every map the identity."""
    name = BRANDT_Z2_NAMES
    loops = {"e", "f"}
    arrows = [{"id": x, "d": i, "r": j, "inv": name[(j, i, s)]}
              for (i, j, s), x in sorted(name.items()) if x not in loops]
    compose = [[x, y, name[(i, k, (s + t) % 2)]]
               for (i, j, s), x in sorted(name.items()) if x not in loops
               for (j2, k, t), y in sorted(name.items())
               if y not in loops and j2 == j]
    return {"schema": 1,
            "groupoid": {"identities": ["0", "e", "f"], "arrows": arrows,
                         "compose": compose,
                         "order": [["0", x] for x in sorted(name.values())]},
            "modules": {
                "m": {"groups": {"0": group_at_0, "e": Z, "f": Z},
                      "poset_maps": {"e>0": [[1]], "f>0": [[1]]},
                      "arrow_maps": {a["id"]: [[1]] for a in arrows}}}}


def brandt_z2_candidate():
    _, cand, _ = io.load(brandt_z2_doc())
    return cand


def pair_doc(lower, group_below=Z):
    """The pair groupoid on {0, 1} times an identity order whose levels
    `lower` each lie below the level u: the arrow from i to j at level x
    is named x + i + j, and x + i + j lies below u + i + j.  Its module
    m is Z at level u and `group_below` at the lower levels, every map
    sending the generator to the generator."""
    moves = [("0", "1"), ("1", "0")]
    levels = lower + "u"
    arrows = [{"id": x + i + j, "d": x + i + i, "r": x + j + j,
               "inv": x + j + i} for x in levels for i, j in moves]
    identities = [x + i + i for x in levels for i in "01"]
    return {"schema": 1,
            "groupoid": {
                "identities": identities,
                "arrows": arrows,
                "compose": [[x + i + j, x + j + i, x + i + i]
                            for x in levels for i, j in moves],
                "order": [[x + i + j, "u" + i + j] for x in lower
                          for i in "01" for j in "01"]},
            "modules": {
                "m": {"groups": {e: Z if e[0] == "u" else group_below
                                 for e in identities},
                      "poset_maps": {"u%s%s>%s%s%s" % (i, i, x, i, i):
                                     [[1]] for x in lower for i in "01"},
                      "arrow_maps": {a["id"]: [[1]] for a in arrows}}}}


def pair_twofold_doc():
    """pair_doc over twofold's identity order e, f < u (u is twofold's
    identity 1): 6 identities and 12 arrows.  e01 and f01 both lie below
    u01 and have no common lower bound, so the groupoid is not
    principally directed."""
    return pair_doc("ef")


def pair_groupoid(lower):
    _, cand, _ = io.load(pair_doc(lower))
    return OrderedGroupoid.from_candidate(cand)


def connected_groupoid():
    return OrderedGroupoid.from_candidate(connected_candidate())


def test_validates():
    rep = validate(connected_candidate())
    assert rep.ok, rep.violations


def test_brandt_z2_validates():
    g0 = OrderedGroupoid.from_candidate(brandt_z2_candidate())
    assert g0.compose("a", "b_inv") == "se"
    assert build_lcat(g0).category.left_cancellative() == (True, None)
    assert quotient(g0).classes == {"0": sorted(g0.arrows)}


def test_lcat_is_left_cancellative():
    g0 = connected_groupoid()
    cat = build_lcat(g0).category
    # (e, a): e -> f and (0, a), reaching f from 0 through the restriction
    assert cat.dom[("e", "a")] == "e" and cat.cod[("e", "a")] == "f"
    assert cat.compose(("e", "a"), ("f", "a_inv")) == ("e", "e")
    assert cat.compose(("f", "f"), ("f", "a_inv")) == ("f", "a_inv")
    assert cat.left_cancellative() == (True, None)


def test_quotient_has_one_class():
    g0 = connected_groupoid()
    q = quotient(g0)
    assert q.classes == {"0": ["0", "a", "a_inv", "e", "f"]}
    assert q.groupoid.arrows == ["0"]
    rep = check_quotient_welldefined(g0)
    assert rep.ok and rep.checked > 0


def assert_theorem_degrees_0_to_2(doc, h0):
    _, cand, mdocs = io.load(doc)
    g0 = OrderedGroupoid.from_candidate(cand)
    lc = build_lcat(g0)
    module = io.build_module(g0, lc, mdocs["m"])
    report = check_theorem(g0, lc, module, [0, 1, 2])
    assert report.ok, report.rows
    forms = [(r["left"]["rank"], tuple(r["left"]["torsion"]))
             for r in report.rows]
    assert forms == [h0, (0, ()), (0, ())]
    colim = colim_E(g0, lc, module)
    assert colim.module.groups["0"].canonical_form() == h0


@pytest.mark.parametrize("group_at_0, h0", [(Z, (1, ())), (Z2, (0, (2,)))])
def test_theorem_degrees_0_to_2(group_at_0, h0):
    assert_theorem_degrees_0_to_2(connected_doc(group_at_0), h0)


@pytest.mark.parametrize("group_at_0, h0", [(Z, (1, ())), (Z2, (0, (2,)))])
def test_brandt_z2_theorem_degrees_0_to_2(group_at_0, h0):
    # G/beta is the trivial group, so only H_0 = colim_E survives
    assert_theorem_degrees_0_to_2(brandt_z2_doc(group_at_0), h0)


def test_module_must_be_functorial_across_identities():
    # a acting by -1 and a_inv by 1 makes (e, a)(f, a_inv) = (e, e) act
    # by -1 on Z
    doc = connected_doc()
    doc["modules"]["m"]["arrow_maps"]["a"] = [[-1]]
    _, cand, mdocs = io.load(doc)
    g0 = OrderedGroupoid.from_candidate(cand)
    with pytest.raises(StructuralDefect, match="functoriality fails"):
        io.build_module(g0, build_lcat(g0), mdocs["m"])


def test_dropped_composite_is_compose_domain():
    cand = connected_candidate()
    del cand.compose[("a", "a_inv")]
    assert validate(cand).has("compose-domain", ("a", "a_inv"))


def test_illegal_composite_is_compose_domain():
    cand = connected_candidate()
    cand.compose[("a", "a")] = "f"  # r(a) = f but d(a) = e
    rep = validate(cand)
    assert rep.has("compose-domain", ("a", "a"))


def test_pair_twofold_validates():
    _, cand, _ = io.load(pair_twofold_doc())
    rep = validate(cand)
    assert rep.ok, rep.violations
    g0 = OrderedGroupoid.from_candidate(cand)
    assert (len(g0.identities), len(g0.arrows)) == (6, 12)
    assert (g0.d["u01"], g0.r["u01"]) == ("u00", "u11")
    assert sorted(g0.principal_ideal("u01")) == ["e01", "f01", "u01"]
    assert g0.order.lower_bounds("e01", "f01") == set()


def test_pair_twofold_is_not_principally_directed():
    g0 = pair_groupoid("ef")
    ok, reason = is_principally_directed(g0)
    assert not ok and reason == {"kind": "beta-chain",
                                 "triple": ("e00", "u00", "f00")}
    # the least failing chain is a genuine one
    g, t, h = reason["triple"]
    assert beta_witness(g0, g, t) is not None
    assert beta_witness(g0, t, h) is not None
    assert beta_witness(g0, g, h) is None
    # and the split below the arrow from 0 to 1 fails the same way
    assert beta_witness(g0, "e01", "u01") == "e01"
    assert beta_witness(g0, "u01", "f01") == "f01"
    assert beta_witness(g0, "e01", "f01") is None
    with pytest.raises(NotPrincipallyDirected) as exc:
        quotient(g0)
    assert exc.value.counterexample == reason


def test_pair_twofold_theorem_check_fails(tmp_path, capsys):
    path = tmp_path / "pair-twofold.json"
    path.write_text(json.dumps(pair_twofold_doc()), encoding="utf-8")
    assert main(["check", "theorem", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "check failed: beta is not transitive; quotient undefined",
        "counterexample: {'kind': 'beta-chain', "
        "'triple': ('e00', 'u00', 'f00')}"]


@pytest.mark.parametrize("group_below", [Z, Z2])
@pytest.mark.parametrize("make, crossing", [
    (connected_doc, 0), (brandt_z2_doc, 0),
    (lambda group: pair_doc("e", group), 2)])
def test_adjunction_and_colimits_across_identities(make, crossing,
                                                   group_below):
    # the adjunction, the two-step colimit and the choice-free class
    # action hold over groupoids with arrows between distinct
    # identities; `crossing` counts the class actions between distinct
    # objects of G/beta, which is trivial for the first two
    _, cand, mdocs = io.load(make(group_below))
    g0 = OrderedGroupoid.from_candidate(cand)
    lc = build_lcat(g0)
    module = io.build_module(g0, lc, mdocs["m"])
    assert check_adjunction(g0, lc, module) == (True, True)
    assert check_colim_composition(g0, lc, module).ok
    assert check_quotient_action(g0, lc, module).ok
    colim = colim_E(g0, lc, module)
    qc = colim.module.base
    assert class_actions_by_two_steps(g0, colim) == {
        m: colim.module.action[m].matrix for m in qc.nonidentity_morphisms()}
    assert sum(qc.dom[m] != qc.cod[m] for m in qc.morphisms) == crossing
