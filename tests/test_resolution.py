"""Resolutions described without a module, checked over ZC.

`bar_resolution` lists, per degree, each generator's base object and
its boundary terms (lower generator, morphism or None for the identity,
integer coefficient); `tensor` is the only code that meets a module.
`assert_resolution` takes any such description and checks, with no
module at all, that it is a chain complex of free ZC-modules augmented
over Z: every term's morphism runs from its generator's base to its
lower generator's base, ε ∘ ∂_1 = 0, and ∂_(n-1) ∘ ∂_n, composed term
by term (morphisms composed, coefficients multiplied), cancels to zero
on every generator.  Any further description, such as a small
resolution of a vertex group, must pass the same helper.

`group_resolution` describes a small resolution of a group H.  Over a
group, `assert_exact` also checks exactness over Z below the top
degree: F_n is the lattice with basis x e_g (x in H), ∂(x e_g) is x ∂e_g,
and the Hermite rows of ker ∂_(n-1) (∂_0 the augmentation) must be
those of im ∂_n.  Its homology is compared with the bar nerve's, with
the periodic resolution of a cyclic group, and in degree 1 with the
abelianization read from the group table.  The groups are closed from
permutations in the tests.
"""

import sys
from collections import Counter
from math import gcd

import pytest

from oghom import fixtures
from oghom.beta import is_principally_directed, quotient
from oghom.category import FiniteCategory, groupoid_as_category
from oghom.errors import StructuralDefect
from oghom.gmodules import GModule
from oghom.groupoid import OrderedGroupoid
from oghom.homology import (
    _chain_tuples,
    bar_resolution,
    check_theorem,
    group_resolution,
    homology,
    homology_profile,
    nerve_complex,
)
from oghom.lcat import build_lcat
from oghom.zmodule import AbHom, EchelonBasis, FgAbGroup, ZMatrix
from .oracles import (
    group_category,
    hermite_rows_by_min_abs,
    kernel_rows_by_min_abs,
    periodic_cyclic_homology,
    permutation_group,
    permutation_sign,
)
from .test_connected import brandt_z2_candidate, connected_candidate


def assert_resolution(cat, resolution, maxdeg):
    bases, faces = resolution
    assert len(bases) == maxdeg + 1
    terms = [None] + [list(map(faces(n), range(len(bases[n]))))
                      for n in range(1, maxdeg + 1)]

    def compose(m1, m2):
        # None is the identity of the generator's base
        if m1 is None or m2 is None:
            return m2 if m1 is None else m1
        m = cat.compose(m1, m2)
        return None if cat.is_identity(m) else m

    for n in range(1, maxdeg + 1):
        assert len(terms[n]) == len(bases[n])
        for g, boundary in enumerate(terms[n]):
            for lower, m, _ in boundary:
                src, tgt = bases[n][g], bases[n - 1][lower]
                if m is None:
                    assert src == tgt
                else:
                    assert not cat.is_identity(m)
                    assert (cat.dom[m], cat.cod[m]) == (src, tgt)
            if n == 1:
                # the augmentation sends each term to its coefficient
                assert sum(coef for _, _, coef in boundary) == 0, g
                continue
            total = Counter()
            for lower, m, coef in boundary:
                for lower2, m2, coef2 in terms[n - 1][lower]:
                    total[(lower2, compose(m, m2))] += coef * coef2
            assert not any(total.values()), (n, g)


def categories():
    """Every fixture's L(G) and, where beta is transitive, its quotient;
    Z/12; the connected groupoid and Brandt Z/2 with their quotients."""
    out = [("group12", group_category(12), 3)]
    groupoids = [(name, fixtures.load(name).groupoid)
                 for name in fixtures.names()]
    groupoids += [("connected", OrderedGroupoid.from_candidate(
                       connected_candidate())),
                  ("brandt_z2", OrderedGroupoid.from_candidate(
                      brandt_z2_candidate()))]
    for name, g0 in groupoids:
        out.append((name, build_lcat(g0).category, 4))
        if is_principally_directed(g0)[0]:
            out.append((name + "/beta",
                        groupoid_as_category(quotient(g0).groupoid), 4))
    return out


CATEGORIES = categories()


@pytest.mark.parametrize("name, cat, maxdeg", CATEGORIES,
                         ids=[name for name, _, _ in CATEGORIES])
def test_bar_resolution(name, cat, maxdeg):
    resolution = bar_resolution(cat, maxdeg)
    assert_resolution(cat, resolution, maxdeg)
    # one generator per object, then per chain of non-identities
    chains = _chain_tuples(cat, maxdeg)
    assert resolution[0][0] == list(cat.objects)
    assert [len(b) for b in resolution[0]] == [len(cs) for cs in chains]


def test_quotients_are_covered():
    names = {name for name, _, _ in CATEGORIES}
    assert {"connected/beta", "brandt_z2/beta", "clifford/beta"} <= names
    assert "twofold/beta" not in names


def mutated(resolution, n, edit):
    """The description with `edit` applied to the terms of every
    generator of degree n."""
    bases, faces = resolution

    def edited(k):
        face = faces(k)
        return (lambda g: edit(face(g))) if k == n else face

    return bases, edited


@pytest.mark.parametrize("edit", [
    # a sign flipped on the last face
    lambda terms: terms[:-1] + [terms[-1][:2] + (-terms[-1][2],)],
    # the head face not pushed along its morphism
    lambda terms: [(terms[0][0], None, terms[0][2])] + terms[1:],
    # an inner face dropped, as if its composite were an identity
    lambda terms: terms[:1] + terms[2:] if len(terms) > 2 else terms,
], ids=["sign", "head", "inner"])
def test_broken_descriptions_are_caught(edit):
    cat = fixtures.load("cyclic3").lc.category
    with pytest.raises(AssertionError):
        assert_resolution(cat, mutated(bar_resolution(cat, 3), 2, edit), 3)


# ---------------------------------------------------------------- groups


def hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def quaternion_gens():
    """i and j acting on ±1, ±i, ±j, ±k by left multiplication, each also
    swapping two more points, so that the sign is a nontrivial
    character of the group they generate, which is still Q_8."""
    units = [tuple(s * (i == j) for j in range(4))
             for i in range(4) for s in (1, -1)]
    return [tuple(units.index(hamilton(q, u)) for u in units) + (9, 8)
            for q in (units[2], units[4])]


def rotation(m):
    return tuple((p + 1) % m for p in range(m))


GROUP_GENS = dict(
    [("Z%d" % m, [rotation(m)]) for m in range(2, 9)]
    + [("Z2xZ2", [(1, 0, 2, 3), (0, 1, 3, 2)]),
       ("S3", [(1, 0, 2), (1, 2, 0)]),
       ("D4", [(1, 2, 3, 0), (3, 2, 1, 0)]),
       ("D5", [rotation(5), (0, 4, 3, 2, 1)]),
       ("D6", [rotation(6), (0, 5, 4, 3, 2, 1)]),
       ("Q8", quaternion_gens()),
       ("A4", [(1, 2, 0, 3), (1, 0, 3, 2)]),
       ("S4", [(1, 0, 2, 3), (1, 2, 3, 0)])])
GROUPS = {name: permutation_group(gens) for name, gens in GROUP_GENS.items()}
ORDERS = dict([("Z%d" % m, m) for m in range(2, 9)]
              + [("Z2xZ2", 4), ("S3", 6), ("D4", 8), ("D5", 10), ("D6", 12),
                 ("Q8", 8), ("A4", 12), ("S4", 24)])
SMALL = [name for name in GROUPS if ORDERS[name] <= 8]


def test_group_orders():
    assert {name: len(cat.morphisms) for name, cat in GROUPS.items()} == ORDERS


def lattice_boundaries(cat, resolution, maxdeg):
    """(columns, height) of ∂_0 = ε, ∂_1, .., ∂_maxdeg on the lattice
    bases x e_g, x e_g at index g |H| + (position of x)."""
    bases, faces = resolution
    elements = sorted(cat.morphisms)
    at = {x: i for i, x in enumerate(elements)}
    size = len(elements)
    out = [([[1] for _ in elements], 1)]
    for n in range(1, maxdeg + 1):
        height = size * len(bases[n - 1])
        cols = []
        for g in range(len(bases[n])):
            terms = faces(n)(g)
            for x in elements:
                col = [0] * height
                for lower, m, coef in terms:
                    y = x if m is None else cat.compose(x, m)
                    col[lower * size + at[y]] += coef
                cols.append(col)
        out.append((cols, height))
    return out


def assert_exact(cat, resolution, maxdeg):
    boundaries = lattice_boundaries(cat, resolution, maxdeg)
    for n in range(1, maxdeg + 1):
        kernel = kernel_rows_by_min_abs(*boundaries[n - 1])
        image = boundaries[n][0]
        assert (hermite_rows_by_min_abs(kernel)
                == hermite_rows_by_min_abs(image)), n


def ranks(resolution):
    return [len(b) for b in resolution[0]]


@pytest.mark.parametrize("name", list(GROUPS))
def test_group_resolution_is_exact(name):
    cat = GROUPS[name]
    resolution = group_resolution(cat, 4)
    assert_resolution(cat, resolution, 4)
    assert_exact(cat, resolution, 4)


def test_group_resolution_ranks():
    # the bar resolution of S_4 has 279,841 generators in degree 4
    assert {name: ranks(group_resolution(GROUPS[name], 4))
            for name in ["Z2xZ2", "S3", "D4", "Q8", "A4", "S4"]} == {
        "Z2xZ2": [1, 2, 3, 4, 5], "S3": [1, 2, 3, 4, 5],
        "D4": [1, 2, 3, 4, 5], "Q8": [1, 2, 2, 1, 1],
        "A4": [1, 2, 3, 4, 5], "S4": [1, 2, 3, 4, 5]}


def test_s4_to_degree_six(monkeypatch):
    # the translates' span grows from kernel rows in reduced Hermite
    # form; inserting a kernel basis into an EchelonBasis row by row
    # instead took its entries to 727 bits by degree 5 and to 42,015
    # bits in degree 6
    cat, peak, add = GROUPS["S4"], [0], EchelonBasis.add

    def spy(lattice, row):
        grew = add(lattice, row)
        peak[0] = max([peak[0]] + [abs(v).bit_length()
                                   for r in lattice.rows for v in r])
        return grew

    monkeypatch.setattr(EchelonBasis, "add", spy)
    assert ranks(group_resolution(cat, 5)) == [1, 2, 3, 4, 5, 6]
    assert 0 < peak[0] <= 16
    monkeypatch.undo()
    resolution = group_resolution(cat, 6)
    assert ranks(resolution) == [1, 2, 3, 4, 5, 6, 7]
    assert_resolution(cat, resolution, 6)
    assert_exact(cat, resolution, 6)


def test_equal_rank_is_not_the_whole_kernel():
    # on D_5 the walk reaches the kernel's rank with a sublattice of
    # index 3, so stopping at the rank alone would lose exactness
    cat = GROUPS["D5"]
    assert_exact(cat, group_resolution(cat, 5), 5)


@pytest.mark.parametrize("name", ["Z4", "S3", "Q8", "A4"])
def test_dropped_generator_is_not_exact(name):
    # the walk takes a row only while the translates so far miss part of
    # the kernel, so the last one taken is needed; an earlier one can lie
    # in the span of later ones
    cat = GROUPS[name]
    bases, faces = group_resolution(cat, 2)
    assert_exact(cat, (bases, faces), 2)
    dropped = (bases[:2] + [bases[2][:-1]], faces)
    assert_resolution(cat, dropped, 2)
    with pytest.raises(AssertionError):
        assert_exact(cat, dropped, 2)


def test_trivial_group_resolution():
    cat = group_category(1)
    assert ranks(group_resolution(cat, 3)) == [1, 0, 0, 0]


def test_group_resolution_needs_a_group():
    cat = fixtures.load("chain2").lc.category
    with pytest.raises(StructuralDefect):
        group_resolution(cat, 2)


@pytest.mark.parametrize("name", ["chain2", "cyclic3"])
def test_one_resolution_choice(name, monkeypatch):
    # homology_profile and the quotient side of check_theorem choose the
    # resolution by the category's group test, and group_resolution asks
    # it once more as its precondition; the verdict is kept on the
    # category, so each category is scanned once.  The L(G) side of
    # check_theorem stays the bar nerve, so a one-object quotient is
    # checked against an independent algorithm
    calls, scans = Counter(), Counter()
    where, is_group = sys.modules["oghom.homology"], FiniteCategory.is_group

    def spy(cat):
        calls["is_group"] += 1
        scans[id(cat)] += cat._group is None  # no verdict kept yet
        return is_group(cat)

    def counted(f):
        def call(*args):
            calls[f.__name__] += 1
            return f(*args)
        return call

    monkeypatch.setattr(FiniteCategory, "is_group", spy)
    for what in ("group_resolution", "bar_resolution"):
        monkeypatch.setattr(where, what, counted(getattr(where, what)))
    bundle = fixtures.load(name)
    cat, module = bundle.lc.category, bundle.modules["const"]
    group = name == "cyclic3"
    homology_profile(cat, module, 2)
    assert calls["is_group"] == (2 if group else 1)
    assert calls["group_resolution"] == (1 if group else 0)
    assert calls["bar_resolution"] == (0 if group else 1)
    assert dict(scans) == {id(cat): 1}
    calls.clear()
    scans.clear()
    assert check_theorem(bundle.groupoid, bundle.lc, module, [0, 1, 2]).ok
    # chain2's L(G) is not a group, but its quotient is
    assert calls == {"is_group": 2, "group_resolution": 1,
                     "bar_resolution": 1}
    qcat = quotient(bundle.groupoid).category
    assert dict(scans) == {id(qcat): 1}


def test_defect_in_group_resolution_is_not_hidden(monkeypatch):
    # over a group the resolution is chosen by the group test, so a defect
    # that group_resolution raises reaches the caller instead of being
    # answered, more slowly, through the bar nerve
    def defective(cat, maxdeg):
        raise StructuralDefect("injected defect")

    monkeypatch.setattr(sys.modules["oghom.homology"], "group_resolution",
                        defective)
    bundle = fixtures.load("z2")
    with pytest.raises(StructuralDefect, match="injected defect"):
        homology_profile(bundle.lc.category, bundle.modules["const"], 2)


def character_module(cat, k, char):
    """Z (k = 0) or Z/k, each morphism x acting by the unit char(x)."""
    g = FgAbGroup.free(1) if k == 0 else FgAbGroup.from_invariants(0, [k])
    (obj,) = cat.objects
    return GModule(cat, {obj: g}, {x: AbHom(g, g, ZMatrix([[char(x)]]))
                                   for x in cat.morphisms})


MODULES = [("Z", 0, lambda x: 1), ("sign", 0, permutation_sign),
           ("Z/6 sign", 6, permutation_sign)]


def nerve_profile(cat, module, maxdeg):
    cx = nerve_complex(cat, module, maxdeg + 1)
    return [homology(cat, module, n, complex_=cx).canonical_form()
            for n in range(maxdeg + 1)]


@pytest.mark.parametrize("name", SMALL + ["D5", "D6", "A4"])
@pytest.mark.parametrize("coefficients, k, char", MODULES,
                         ids=[m[0] for m in MODULES])
def test_profile_matches_the_bar_nerve(name, coefficients, k, char):
    cat = GROUPS[name]
    module = character_module(cat, k, char)
    # above order 8 the bar nerve needs (|H| - 1)^4 chains for degree 3:
    # 14,641 for A_4
    maxdeg = 3 if name in SMALL else 2
    assert homology_profile(cat, module, maxdeg) == nerve_profile(
        cat, module, maxdeg)


@pytest.mark.parametrize("m", range(2, 9))
def test_cyclic_groups_match_the_periodic_resolution(m):
    cat = GROUPS["Z%d" % m]
    assert ranks(group_resolution(cat, 6)) == [1] * 7
    for k in (0, 4, 7, 9):
        for u in range(-1, max(k, 2)):
            if (u ** m - 1) % k if k else u ** m != 1:
                continue
            if k and gcd(u, k) != 1:
                continue
            # the rotation by one point generates; x rotates by x[0]
            module = character_module(cat, k, lambda x: u ** x[0])
            assert homology_profile(cat, module, 3) == [
                periodic_cyclic_homology(m, k, u, n) for n in range(4)], (k, u)


@pytest.mark.parametrize("name", list(GROUPS))
def test_h1_is_the_abelianization(name):
    cat = GROUPS[name]
    elements = sorted(cat.morphisms)
    at = {x: i for i, x in enumerate(elements)}
    # Z^H modulo e_(x y) - e_x - e_y
    relations = []
    for x in elements:
        for y in elements:
            col = [0] * len(elements)
            col[at[cat.compose(x, y)]] += 1
            col[at[x]] -= 1
            col[at[y]] -= 1
            relations.append(col)
    abelianization = FgAbGroup(len(elements), ZMatrix.from_cols(
        relations, len(elements)))
    module = character_module(cat, 0, lambda x: 1)
    assert homology_profile(cat, module, 1)[1] == (
        abelianization.canonical_form())
