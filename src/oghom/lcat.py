"""The left-cancellative category of an ordered groupoid.

Objects are the identities; a morphism (e, g) is an arrow g whose domain
lies below e, going from e to r(g).  Composition restricts the first
arrow down to the domain of the second:

    (e, g)(f, h) = (e, (g|d(h)) h)    when r(g) = f.

The morphisms are numbered by domain, and within one domain in arrow
order, and `build_lcat` writes each row of composite numbers directly
(`FiniteCategory.from_rows`), with no table keyed by pairs.
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
    """Enumerate all morphisms (e, g) with d(g) <= e and write their rows
    of composites; the result is checked as a category.  The arrow
    (g|d(h)) h does not depend on e, so it is found once per pair of
    arrows (g, h) and entered in the row of (e, g) for every e above
    d(g)."""
    d, r, inv, comp = g0.d, g0.r, g0.inv, g0._compose
    # place[e][g]: the number of the morphism (e, g), for each arrow g
    # with d(g) <= e, so that place[f] lists the row of every (e, g)
    # with r(g) = f
    place, morphisms = {}, []
    for e in g0.identities:
        place[e] = {}
        for g in g0.arrows:
            if g0.order.leq(d[g], e):
                place[e][g] = len(morphisms)
                morphisms.append((e, g))
    # over[i]: the identities e >= i
    over = {i: [e for e in g0.identities if i in place[e]]
            for i in g0.identities}
    rows = [None] * len(morphisms)
    for g in g0.arrows:
        # (g|d(h)) h for each h in the row, as (g|d(h)) = (d(h)|g^-1)^-1
        ks = [comp[(inv[g0._restriction[(d[h], inv[g])]], h)]
              for h in place[r[g]]]
        for e in over[d[g]]:
            at = place[e]
            rows[at[g]] = [at[k] for k in ks]
    cat = FiniteCategory.from_rows(
        g0.identities, morphisms, {m: m[0] for m in morphisms},
        {m: r[m[1]] for m in morphisms},
        {e: morphisms[place[e][e]] for e in g0.identities}, rows)
    return LCat(g0, cat)
