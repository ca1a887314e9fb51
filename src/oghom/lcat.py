"""The left-cancellative category of an ordered groupoid.

Objects are the identities; a morphism (e, g) is an arrow g whose domain
lies below e, going from e to r(g).  Composition restricts the first
arrow down to the domain of the second:

    (e, g)(f, h) = (e, (g|d(h)) h)    when r(g) = f.
"""

from .category import FiniteCategory


class LCat:
    """Wraps the category together with its source groupoid."""

    def __init__(self, groupoid, category):
        self.groupoid = groupoid
        self.category = category

    def __repr__(self):
        return "LCat(%d objects, %d morphisms)" % (
            len(self.category.objects), len(self.category.morphisms))


def build_lcat(g0):
    """Enumerate all morphisms (e, g) with d(g) <= e and tabulate
    composition; the result is validated as a category.  The arrow
    (g|d(h)) h does not depend on e, so it is found once per pair of
    arrows (g, h) and entered for every e above d(g)."""
    d, r, inv, comp = g0.d, g0.r, g0.inv, g0._compose
    # mor[e][g]: the morphism (e, g), for each arrow g with d(g) <= e
    mor = {e: {g: (e, g) for g in g0.arrows if g0.order.leq(d[g], e)}
           for e in g0.identities}
    # over[i]: the identities e >= i
    over = {i: [e for e in g0.identities if i in mor[e]]
            for i in g0.identities}
    morphisms = [m for e in g0.identities for m in mor[e].values()]
    dom = {m: m[0] for m in morphisms}
    cod = {m: r[m[1]] for m in morphisms}
    identity = {e: mor[e][e] for e in g0.identities}
    compose = {}
    for g in g0.arrows:
        for h, m2 in mor[r[g]].items():  # (g|d(h)) = (d(h)|g^-1)^-1
            k = comp[(inv[g0._restriction[(d[h], inv[g])]], h)]
            for e in over[d[g]]:
                compose[(mor[e][g], m2)] = mor[e][k]
    cat = FiniteCategory(g0.identities, morphisms, dom, cod, identity,
                         compose)
    return LCat(g0, cat)
