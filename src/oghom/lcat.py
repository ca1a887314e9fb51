"""The left-cancellative category of an ordered groupoid.

Objects are the identities; a morphism (e, g) is an arrow g whose domain
lies below e, going from e to r(g).  Composition restricts the first
arrow down to the domain of the second:

    (e, g)(f, h) = (e, (g|d(h)) h)    when r(g) = f.
"""

from .category import FiniteCategory
from .errors import NotComposable


class LCat:
    """Wraps the category together with its source groupoid."""

    def __init__(self, groupoid, category):
        self.groupoid = groupoid
        self.category = category

    def __repr__(self):
        return "LCat(%d objects, %d morphisms)" % (
            len(self.category.objects), len(self.category.morphisms))


def lcat_compose(g0, m1, m2):
    """Composite of morphisms m1 = (e, g), m2 = (f, h); needs r(g) = f."""
    e, g = m1
    f, h = m2
    if g0.r[g] != f:
        raise NotComposable("r(%s) != %s" % (g, f))
    k = g0.compose(g0.corestriction(g, g0.d[h]), h)
    return (e, k)


def build_lcat(g0):
    """Enumerate all morphisms (e, g) with d(g) <= e and tabulate
    composition; the result is validated as a category."""
    leaving = {e: [(e, g) for g in g0.arrows if g0.order.leq(g0.d[g], e)]
               for e in g0.identities}
    morphisms = [m for e in g0.identities for m in leaving[e]]
    dom = {(e, g): e for (e, g) in morphisms}
    cod = {(e, g): g0.r[g] for (e, g) in morphisms}
    identity = {e: (e, e) for e in g0.identities}
    compose = {(m1, m2): lcat_compose(g0, m1, m2)
               for m1 in morphisms for m2 in leaving[cod[m1]]}
    cat = FiniteCategory(g0.identities, morphisms, dom, cod, identity,
                         compose)
    return LCat(g0, cat)
