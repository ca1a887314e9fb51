"""The per-object composability index and the rows of composites
against the all-pairs scans and the per-triple loops.

`validate`, `FiniteCategory.check`, `beta_transitive` and the nerve's
chain enumeration visit only composable pairs and triples; the oracles
in tests/oracles.py visit every pair or triple and discard the rest.
Violations and problems must agree with them as sorted lists, and with
the per-triple loops, which visit in the library's order, as lists.
`left_cancellative` must return the per-composite loop's witness, L(G)
must tabulate the per-pair composite, and the least failing beta triple
and the chain order must agree exactly; the hypothesis test also holds
the directedness verdict to the ideal scan.  The oracles read a
`NamedTable`, composites keyed by pairs of names, and an edited table
reaches the library through the public constructor, which reports
every problem with `NotACategory`.  The stored integer rows of L(G)
and of a groupoid's category must hold the per-pair composites, and
`check` must read them without building a table.  Composites rewritten
to another morphism of the same domain and codomain pass every typing
check, so only the unit, inverse, associativity and OG2 rows can catch
them.  `validate` and `FiniteCategory.check` share one associativity
scan on the same integer rows, and both must find a pair defined
illegally even when a dropped entry leaves the table as large as the
set of composable pairs.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oghom import category, fixtures, groupoid, io
from oghom.beta import beta_transitive, quotient
from oghom.category import (
    FiniteCategory,
    associativity_failures,
    groupoid_as_category,
)
from oghom.errors import NotACategory, StructuralDefect
from oghom.groupoid import OrderedGroupoid, validate
from oghom.homology import _chain_tuples
from oghom.lcat import build_lcat
from oghom.randgen import random_og

from .oracles import (
    NamedTable,
    beta_transitive_by_scan,
    beta_transitive_by_sets,
    category_problems_by_scan,
    category_problems_by_triples,
    chain_tuples_by_scan,
    group_category,
    lcat_compose,
    left_cancellative_by_loop,
    validate_by_scan,
    violations_by_triples,
)
from .test_beta import assert_verdict_matches_oracles
from .test_connected import (
    brandt_z2_candidate,
    connected_candidate,
    connected_groupoid,
)
from .test_groupoid import clifford_mutations


def random_groupoid(rng, directed):
    return random_og(rng, n_identities=rng.randint(1, 6),
                     max_group=rng.randint(1, 6), directed=directed).groupoid


def groupoids():
    out = [fixtures.load(n).groupoid for n in fixtures.names()]
    out.append(connected_groupoid())
    out.append(OrderedGroupoid.from_candidate(brandt_z2_candidate()))
    rng = random.Random(4242)
    for directed in (True, False):
        out.extend(random_groupoid(rng, directed) for _ in range(40))
    return out


GROUPOIDS = groupoids()


def candidate_of(g0):
    _, cand, _ = io.load(io.groupoid_to_doc(g0))
    return cand


def fallback_edits(cand):
    """The edits of cand that each fail one of validate's fast tests,
    by kind, each a function that applies it to a copy of cand:

      transitive  (a, c) dropped for a strict chain a < b < c
      unit        a unit composite e x or x e rewritten to another arrow
                  with the same domain and range
      OG3         (y, x) added for a y not below x whose domain is below
                  d(x), so x has two restrictions to d(y)
      OG4         y < x swapped for z with d(z) = d(y), r(z) != r(y), so
                  x keeps one restriction per domain and loses the
                  corestriction to r(y)
      typing      the first OG3 edit with (zz, x) added, naming a
                  non-arrow
      repeated    an identity listed again"""
    d, r, ids = cand.d, cand.r, cand.identities
    pairs = sorted(cand.order_pairs)
    below = {x: [y for (y, z) in pairs if z == x] for x in cand.arrows}
    edits = {kind: [] for kind in ("transitive", "unit", "OG3", "OG4",
                                   "typing", "repeated")}

    def order(drop=(), add=()):
        def change(c):
            c.order_pairs.difference_update(drop)
            c.order_pairs.update(add)
        return change

    def compose(key, k):
        return lambda c: c.compose.__setitem__(key, k)

    for (a, b) in pairs:
        for (b2, c) in pairs:
            if b2 == b and a != b != c:
                edits["transitive"].append(order(drop=[(a, c)]))
    for (g, h), k in sorted(cand.compose.items()):
        if g in ids or h in ids:
            edits["unit"] += [compose((g, h), z) for z in cand.arrows
                              if z != k and d[z] == d[k] and r[z] == r[k]]
    for x in cand.arrows:
        for y in cand.arrows:
            if y not in below[x] and d[y] in below[d[x]]:
                edits["OG3"].append(order(add=[(y, x)]))
                edits["typing"].append(order(add=[(y, x), ("zz", x)]))
            for z in cand.arrows:
                if (y in below[x] and z not in below[x]
                        and d[z] == d[y] and r[z] != r[y]):
                    edits["OG4"].append(order(drop=[(y, x)], add=[(z, x)]))
    edits["typing"] = edits["typing"][:1]
    edits["repeated"] = [lambda c: c.identities.append(ids[0])]
    return edits


def mutate_candidate(cand, rng):
    """One random edit of the composition table or the order, or one
    drawn from fallback_edits."""
    arrows = cand.arrows
    kind = rng.randrange(5)
    if kind == 0 and cand.compose:
        del cand.compose[rng.choice(sorted(cand.compose))]
    elif kind == 1:
        cand.compose[(rng.choice(arrows), rng.choice(arrows))] = \
            rng.choice(arrows)
    elif kind == 2 and cand.compose:
        cand.compose[rng.choice(sorted(cand.compose))] = rng.choice(arrows)
    elif kind == 3:
        cand.order_pairs.discard(rng.choice(sorted(cand.order_pairs)))
    else:
        edits = [e for es in fallback_edits(cand).values() for e in es]
        rng.choice(edits)(cand)
    return cand


def single_edits(make):
    """Every candidate one edit away from make(): an order pair dropped,
    a table entry dropped or rewritten, any pair given a composite, or
    an edit of fallback_edits."""
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
    for changes in fallback_edits(base).values():
        for change in changes:
            edit(change)
    return out


def corrupt_category(cat, rng):
    """cat's NamedTable with one composite dropped, added or changed."""
    bad = NamedTable.of(cat)
    kind = rng.randrange(3)
    if kind == 0:
        del bad.table[rng.choice(sorted(bad.table))]
    elif kind == 1:
        pair = (rng.choice(cat.morphisms), rng.choice(cat.morphisms))
        bad.table[pair] = rng.choice(cat.morphisms)
    else:
        bad.table[rng.choice(sorted(bad.table))] = rng.choice(cat.morphisms)
    return bad


def same_type_rewrites(cat, rng, count):
    """Up to `count` NamedTables of cat, each with one composite of two
    non-identity morphisms rewritten to another morphism with the same
    domain and codomain."""
    base = NamedTable.of(cat)
    parallel = {}
    for m in cat.morphisms:
        parallel.setdefault((cat.dom[m], cat.cod[m]), []).append(m)
    edits = [(pair, other) for pair, k in sorted(base.table.items())
             if not (cat.is_identity(pair[0]) or cat.is_identity(pair[1]))
             for other in parallel[(cat.dom[k], cat.cod[k])] if other != k]
    out = []
    for pair, other in rng.sample(edits, min(count, len(edits))):
        bad = base.copy()
        bad.table[pair] = other
        out.append(bad)
    return out


def same_type_candidate_rewrites(make, rng, count):
    """Up to `count` candidates from make(), each with gh rewritten to
    another arrow with the same domain and range, for arrows g and h
    that are not identities and not inverse to each other."""
    base = make()
    d, r = base.d, base.r
    edits = [((g, h), other) for (g, h), k in sorted(base.compose.items())
             if g not in base.identities and h not in base.identities
             and h != base.inv[g]
             for other in base.arrows
             if other != k and d[other] == d[k] and r[other] == r[k]]
    out = []
    for pair, other in rng.sample(edits, min(count, len(edits))):
        cand = make()
        cand.compose[pair] = other
        out.append(cand)
    return out


def lcat_table_by_pairs(g0):
    """L(G)'s morphisms and composition, composed pair by pair."""
    morphisms = [(e, g) for e in g0.identities for g in g0.arrows
                 if g0.order.leq(g0.d[g], e)]
    return morphisms, {(m1, m2): lcat_compose(g0, m1, m2)
                       for m1 in morphisms for m2 in morphisms
                       if g0.r[m1[1]] == m2[0]}


def assert_lcat_table_agrees(g0):
    cat = build_lcat(g0).category
    morphisms, table = lcat_table_by_pairs(g0)
    assert cat.morphisms == morphisms
    assert NamedTable.of(cat).table == table


def assert_validate_agrees(cand):
    want = validate_by_scan(cand)
    report = validate(cand)
    got = [(v.axiom, v.witness) for v in report.violations]
    assert got == violations_by_triples(cand)
    assert sorted(got) == want
    assert report.ok == (not want)


def assert_check_agrees(bad):
    """The constructor, given bad's table, finds the problems of the
    per-triple loop in its order, and the scan's as a sorted list; a
    table that it accepts cancels on the left as the loop says."""
    want = category_problems_by_triples(bad)
    try:
        cat = bad.build()
    except NotACategory as exc:
        got = exc.problems
        assert str(exc) == "not a category: %s" % got[0]
    else:
        got = cat.check()
        assert cat.left_cancellative() == left_cancellative_by_loop(bad)
    assert got == want
    assert sorted(got) == category_problems_by_scan(bad)
    return got


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


def test_fast_test_fallbacks_match_scan():
    # each edit fails one of validate's fast tests, so the loop behind
    # it must name the violations, in the oracle's order
    found = {"transitive": "order-transitive", "unit": "identity-law",
             "OG3": "OG3", "OG4": "OG4", "typing": "order-typing",
             "repeated": "identity-repeated"}
    reached = Counter()
    for make in (connected_candidate, brandt_z2_candidate,
                 lambda: candidate_of(fixtures.load("twofold").groupoid)):
        for kind, changes in fallback_edits(make()).items():
            for change in changes:
                cand = make()
                change(cand)
                assert_validate_agrees(cand)
                report = validate(cand)
                reached[kind] += report.has(found[kind])
                if kind == "typing":
                    assert report.has("OG3")
    assert all(reached[kind] for kind in found), reached


def test_category_check_matches_scan():
    rng = random.Random(8)
    failing = 0
    for g0 in GROUPOIDS:
        for cat in (build_lcat(g0).category, groupoid_as_category(g0)):
            assert cat.check() == []
            assert assert_check_agrees(NamedTable.of(cat)) == []
            for _ in range(3):
                failing += bool(assert_check_agrees(
                    corrupt_category(cat, rng)))
    assert failing > 100


def test_same_type_rewrites_are_caught():
    rng = random.Random(9)
    first, caught, tried = Counter(), 0, 0
    for g0 in GROUPOIDS:
        for cat in (build_lcat(g0).category, groupoid_as_category(g0)):
            for bad in same_type_rewrites(cat, rng, 4):
                want = assert_check_agrees(bad)
                tried += 1
                if not want:
                    continue  # the rewrite gave another category
                caught += 1
                first[want[0].split()[0]] += 1
                with pytest.raises(StructuralDefect) as exc:
                    bad.build()
                assert str(exc.value) == "not a category: %s" % want[0]
    # some rewrites give another category, which both checks accept
    assert caught > 0.75 * tried > 100
    assert first["associativity"] > 50


def test_same_type_candidate_rewrites_are_caught():
    rng = random.Random(10)
    # every rewrite of the Brandt table, and three of each other table
    brandt = same_type_candidate_rewrites(brandt_z2_candidate, rng, 40)
    assert len(brandt) == 12
    cands = brandt + [
        cand for g0 in GROUPOIDS for cand in same_type_candidate_rewrites(
            lambda g0=g0: candidate_of(g0), rng, 3)]
    first = Counter()
    for cand in cands:
        assert_validate_agrees(cand)
        report = validate(cand)
        if report.ok:
            continue
        first[report.violations[0].axiom] += 1
        with pytest.raises(StructuralDefect):
            OrderedGroupoid.from_candidate(cand)
    assert all(not validate(cand).ok for cand in brandt)
    assert first["associativity"] > 50


def test_validate_and_check_share_one_associativity_scan(monkeypatch):
    tables = []

    def spy(table, typed):
        tables.append(table)
        assert typed == table.typed()
        return associativity_failures(table, typed)

    g0 = fixtures.load("clifford").groupoid
    cand = candidate_of(g0)
    monkeypatch.setattr(groupoid, "associativity_failures", spy)
    monkeypatch.setattr(category, "associativity_failures", spy)
    assert validate(cand).ok
    (table,) = tables
    # validate's rows over the arrows are the groupoid category's rows
    assert table.elements == g0.arrows
    assert table.rows == groupoid_as_category(g0)._table.rows
    del tables[:]
    cat = build_lcat(g0).category  # the constructor runs check
    assert cat.check() == []
    assert tables == [cat._table, cat._table]
    rng = random.Random(11)
    bad = next(bad for bad in same_type_rewrites(cat, rng, 20)
               if "associativity" in category_problems_by_triples(
                   bad)[0])
    del tables[:]
    assert_check_agrees(bad)
    assert [t.elements for t in tables] == [cat.morphisms]


def test_check_reads_the_stored_rows(monkeypatch):
    # check() builds no table and reads the rows kept at construction:
    # once they are edited, it reports the edit
    calls = Counter()

    def counted(name):
        real = getattr(category.Table, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for g0 in (fixtures.load("clifford").groupoid, connected_groupoid()):
        for cat in (build_lcat(g0).category, groupoid_as_category(g0)):
            rows = [list(row) for row in cat._table.rows]
            for name in ("__init__", "read"):
                monkeypatch.setattr(category.Table, name, counted(name))
            assert cat.check() == []
            assert not calls
            monkeypatch.undo()
            m1 = next(m for m, row in zip(cat.morphisms, rows) if row)
            m2 = cat.outgoing[cat.cod[m1]][0]
            cat._table.rows[cat.morphisms.index(m1)][0] = None
            assert cat.check() == ["composite (%r, %r) missing" % (m1, m2)]
            cat._table.rows[:] = rows
            assert cat.check() == []


def tie_edit(table, elements, composable, rng):
    """table with one composable entry dropped and one pair of elements
    that is not composable given a composite, so that it keeps as many
    entries as there are composable pairs."""
    assert sorted(table) == sorted(composable)
    illegal = sorted({(a, b) for a in elements for b in elements}
                     - set(composable))
    edited = dict(table)
    del edited[rng.choice(composable)]
    edited[rng.choice(illegal)] = rng.choice(elements)
    assert len(edited) == len(composable)
    return edited


def test_illegal_key_is_found_when_the_count_ties():
    rng = random.Random(12)
    tied = 0
    for g0 in GROUPOIDS:
        if len(g0.identities) < 2:
            continue
        cat = build_lcat(g0).category
        pairs = [(m1, m2) for m1 in cat.morphisms
                 for m2 in cat.outgoing[cat.cod[m1]]]
        bad = NamedTable.of(cat)
        bad.table = tie_edit(bad.table, cat.morphisms, pairs, rng)
        problems = assert_check_agrees(bad)
        assert any(p.endswith("missing") for p in problems)
        assert any(p.endswith("defined illegally") for p in problems)
        cand = candidate_of(g0)
        pairs = [(g, h) for g in cand.arrows for h in cand.arrows
                 if cand.r[g] == cand.d[h]]
        cand.compose = tie_edit(cand.compose, cand.arrows, pairs, rng)
        report = validate(cand)
        assert ([(v.axiom, v.witness) for v in report.violations]
                == violations_by_triples(cand))
        witnesses = [v.witness for v in report.violations
                     if v.axiom == "compose-domain"]
        assert len(witnesses) == 2
        assert {w in pairs for w in witnesses} == {True, False}
        tied += 1
    assert tied > 70


def test_lcat_table_matches_pairwise_composition():
    for g0 in GROUPOIDS:
        assert_lcat_table_agrees(g0)


def assert_rows_agree(g0):
    """The stored rows of L(G), read pair by pair, hold lcat_compose's
    composites, and those of the groupoid's category hold the
    candidate's table, which has no other entry."""
    cat = build_lcat(g0).category
    for m1, row in zip(cat.morphisms, cat._table.rows):
        after = cat.outgoing[cat.cod[m1]]
        assert len(row) == len(after)
        for m2, k in zip(after, row):
            assert cat.morphisms[k] == lcat_compose(g0, m1, m2)
    cand = candidate_of(g0)
    cat = groupoid_as_category(g0)
    for g, row in zip(cat.morphisms, cat._table.rows):
        assert [cat.morphisms[k] for k in row] == [
            cand.compose[(g, h)] for h in cat.outgoing[cat.cod[g]]]
    assert sum(map(len, cat._table.rows)) == len(cand.compose)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6), directed=st.booleans())
def test_rows_agree_with_pairwise_composition(seed, directed):
    assert_rows_agree(random_groupoid(random.Random(seed), directed))


def test_beta_transitive_matches_scan():
    verdicts = set()
    for g0 in GROUPOIDS:
        got = beta_transitive(g0)
        assert got == beta_transitive_by_scan(g0)
        assert got == beta_transitive_by_sets(g0)
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
    assert_lcat_table_agrees(g0)
    cat = build_lcat(g0).category
    assert_check_agrees(corrupt_category(cat, rng))
    for bad in same_type_rewrites(cat, rng, 2):
        assert_check_agrees(bad)
    assert beta_transitive(g0) == beta_transitive_by_scan(g0)
    assert_verdict_matches_oracles(g0)
    assert _chain_tuples(cat, 3) == chain_tuples_by_scan(cat, 3)
