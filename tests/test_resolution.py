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
"""

from collections import Counter

import pytest

from oghom import fixtures
from oghom.beta import is_principally_directed, quotient
from oghom.category import groupoid_as_category
from oghom.groupoid import OrderedGroupoid
from oghom.homology import _chain_tuples, bar_resolution
from oghom.lcat import build_lcat
from .oracles import group_category
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

