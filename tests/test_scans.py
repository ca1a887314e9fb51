"""The per-object composability index against the all-pairs scans.

`validate`, `FiniteCategory.check`, `beta_transitive` and the nerve's
chain enumeration visit only composable pairs and triples; the oracles
in tests/oracles.py visit every pair or triple and discard the rest.
Violations and problems must agree as sorted lists, and the least
failing beta triple and the chain order must agree exactly.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oghom import fixtures, io
from oghom.beta import beta_transitive, quotient
from oghom.category import groupoid_as_category
from oghom.groupoid import validate
from oghom.homology import _chain_tuples
from oghom.lcat import build_lcat
from oghom.randgen import random_og

from .oracles import (
    beta_transitive_by_scan,
    category_problems_by_scan,
    chain_tuples_by_scan,
    group_category,
    validate_by_scan,
)
from .test_connected import connected_candidate, connected_groupoid
from .test_groupoid import clifford_mutations


def random_groupoid(rng, directed):
    return random_og(rng, n_identities=rng.randint(1, 6),
                     max_group=rng.randint(1, 6), directed=directed).groupoid


def groupoids():
    out = [fixtures.load(n).groupoid for n in fixtures.names()]
    out.append(connected_groupoid())
    rng = random.Random(4242)
    for directed in (True, False):
        out.extend(random_groupoid(rng, directed) for _ in range(40))
    return out


GROUPOIDS = groupoids()


def candidate_of(g0):
    _, cand, _ = io.load(io.groupoid_to_doc(g0))
    return cand


def mutate_candidate(cand, rng):
    """One random edit of the composition table or the order."""
    arrows = cand.arrows
    kind = rng.randrange(4)
    if kind == 0 and cand.compose:
        del cand.compose[rng.choice(sorted(cand.compose))]
    elif kind == 1:
        cand.compose[(rng.choice(arrows), rng.choice(arrows))] = \
            rng.choice(arrows)
    elif kind == 2 and cand.compose:
        cand.compose[rng.choice(sorted(cand.compose))] = rng.choice(arrows)
    else:
        cand.order_pairs.discard(rng.choice(sorted(cand.order_pairs)))
    return cand


def single_edits(make):
    """Every candidate one edit away from make(): an order pair dropped,
    a table entry dropped or rewritten, or any pair given a composite."""
    base = make()
    out = []

    def edit(change):
        cand = make()
        change(cand)
        out.append(cand)

    for pair in sorted(base.order_pairs):
        edit(lambda c: c.order_pairs.discard(pair))
    for key in sorted(base.compose):
        edit(lambda c: c.compose.pop(key))
    for g in base.arrows:
        for h in base.arrows:
            for k in base.arrows:
                edit(lambda c: c.compose.__setitem__((g, h), k))
    return out


def corrupt_category(cat, rng):
    """A copy of cat with one composite dropped, added or changed."""
    bad = copy.copy(cat)
    bad._compose = dict(cat._compose)
    kind = rng.randrange(3)
    if kind == 0:
        del bad._compose[rng.choice(sorted(bad._compose))]
    elif kind == 1:
        pair = (rng.choice(cat.morphisms), rng.choice(cat.morphisms))
        bad._compose[pair] = rng.choice(cat.morphisms)
    else:
        bad._compose[rng.choice(sorted(bad._compose))] = \
            rng.choice(cat.morphisms)
    return bad


def violations(cand):
    return sorted((v.axiom, v.witness) for v in validate(cand).violations)


def assert_validate_agrees(cand):
    want = validate_by_scan(cand)
    assert violations(cand) == want
    assert validate(cand).ok == (not want)


def assert_check_agrees(cat):
    assert sorted(cat.check()) == category_problems_by_scan(cat)


def test_validate_matches_scan():
    rng = random.Random(7)
    cands = [candidate_of(g) for g in GROUPOIDS]
    cands += [mutate_candidate(candidate_of(g), rng)
              for g in GROUPOIDS for _ in range(2)]
    cands += [cand for cand, _, _ in clifford_mutations()]
    cands += single_edits(connected_candidate)
    assert any(validate_by_scan(c) for c in cands)
    for cand in cands:
        assert_validate_agrees(cand)


def test_category_check_matches_scan():
    rng = random.Random(8)
    failing = 0
    for g0 in GROUPOIDS:
        for cat in (build_lcat(g0).category, groupoid_as_category(g0)):
            assert cat.check() == [] == category_problems_by_scan(cat)
            for _ in range(3):
                bad = corrupt_category(cat, rng)
                failing += bool(category_problems_by_scan(bad))
                assert_check_agrees(bad)
    assert failing > 100


def test_beta_transitive_matches_scan():
    verdicts = set()
    for g0 in GROUPOIDS:
        got = beta_transitive(g0)
        assert got == beta_transitive_by_scan(g0)
        verdicts.add(got[0])
    assert verdicts == {True, False}


def test_chain_tuples_match_scan():
    cats = [group_category(12)]  # morphism order t0, t1, ..., t11 is unsorted
    for g0 in GROUPOIDS:
        cats.append(build_lcat(g0).category)
        if beta_transitive(g0)[0]:
            cats.append(groupoid_as_category(quotient(g0).groupoid))
    for cat in cats:
        assert _chain_tuples(cat, 3) == chain_tuples_by_scan(cat, 3)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), directed=st.booleans())
def test_scans_agree_hypothesis(seed, directed):
    rng = random.Random(seed)
    g0 = random_groupoid(rng, directed)
    assert_validate_agrees(mutate_candidate(candidate_of(g0), rng))
    cat = build_lcat(g0).category
    assert_check_agrees(corrupt_category(cat, rng))
    assert beta_transitive(g0) == beta_transitive_by_scan(g0)
    assert _chain_tuples(cat, 3) == chain_tuples_by_scan(cat, 3)
