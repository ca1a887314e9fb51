"""Small finite categories with explicit composition tables.

Used for the left-cancellative category of an ordered groupoid, for
quotient groupoids viewed as one-object-per-class categories, and as the
index shape for modules, colimits, and nerves.  Composition is written
diagrammatically: compose(m1, m2) means "m1 then m2" and is defined
exactly when cod(m1) = dom(m2).
"""

from .errors import NotComposable, StructuralDefect
from .poset import connected_components


def associativity_failures(elements, after, cod):
    """The triples (x, y, z) with (x y) z != x (y z), x in `elements`
    order, y and z in row order; after[x] maps each y composable with x
    to x y, or to None where the table has none.  If cod(x y) = cod(y),
    row[x y] is row[y] composed after x unless a triple (x, y, z)
    fails, and only then are the triples of (x, y) walked."""
    row = {x: list(after_x.values()) for x, after_x in after.items()}
    for x in elements:
        after_x = after[x]
        for y, xy in after_x.items():
            if xy is None or (cod[xy] == cod[y] and row[xy]
                              == list(map(after_x.get, row[y]))):
                continue
            for z, yz in after[y].items():
                if yz is not None and after[xy].get(z) != after_x.get(yz):
                    yield (x, y, z)


class FiniteCategory:
    def __init__(self, objects, morphisms, dom, cod, identity, compose):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.dom = dict(dom)
        self.cod = dict(cod)
        self.identity = dict(identity)
        self._compose = dict(compose)
        # outgoing[o]: the morphisms with domain o, in morphism order
        self.outgoing = {o: [] for o in self.objects}
        for m in self.morphisms:
            self.outgoing.setdefault(self.dom[m], []).append(m)
        self._generators = None
        problems = self.check()
        if problems:
            raise StructuralDefect("not a category: %s" % problems[0])

    def check(self):
        """Category axioms as a list of readable problems (empty = ok).

        Each composable pair's composite is read once, into after[m1] =
        {m2: m1 m2}; the table's keys are walked for illegal pairs only
        if it holds more entries than the known composites found."""
        out = []
        for o in self.objects:
            i = self.identity.get(o)
            if i is None or self.dom.get(i) != o or self.cod.get(i) != o:
                out.append("identity of %r is broken" % (o,))
        for m in self.morphisms:
            if self.dom[m] not in self.objects or self.cod[m] not in self.objects:
                out.append("morphism %r has unknown endpoints" % (m,))
        comp, dom, cod = self._compose, self.dom, self.cod
        after, known = {}, 0
        for m1 in self.morphisms:
            after[m1] = after_m1 = {}
            for m2 in self.outgoing.get(cod[m1], ()):
                k = after_m1[m2] = comp.get((m1, m2))
                if k is None or k not in dom:
                    out.append("composite (%r, %r) missing" % (m1, m2))
                    continue
                known += 1
                if dom[k] != dom[m1] or cod[k] != cod[m2]:
                    out.append("composite (%r, %r) mistyped" % (m1, m2))
        if len(comp) > known:
            for (m1, m2) in comp:
                if m1 in dom and m2 in dom and cod[m1] != dom[m2]:
                    out.append("composite (%r, %r) defined illegally"
                               % (m1, m2))
        if out:
            return out
        for m in self.morphisms:
            if comp[(self.identity[dom[m]], m)] != m:
                out.append("left unit fails at %r" % (m,))
            if comp[(m, self.identity[cod[m]])] != m:
                out.append("right unit fails at %r" % (m,))
        for triple in associativity_failures(self.morphisms, after, cod):
            out.append("associativity fails at (%r, %r, %r)" % triple)
        return out

    def composable(self, m1, m2):
        return self.cod[m1] == self.dom[m2]

    def compose(self, m1, m2):
        if not self.composable(m1, m2):
            raise NotComposable("cod(%r) != dom(%r)" % (m1, m2))
        return self._compose[(m1, m2)]

    def is_identity(self, m):
        return self.identity.get(self.dom[m]) == m and self.dom[m] == self.cod[m]

    def nonidentity_morphisms(self):
        return [m for m in self.morphisms if not self.is_identity(m)]

    def generators(self):
        """Non-identity morphisms whose composites give every non-identity
        morphism: first each one that is no composite of two non-identity
        morphisms, as every generating set must hold it, then, in
        morphism order, each one that products of those before it do not
        reach.  The set of products reached is kept closed under
        composing with a generator on the right, so it holds every
        product of generators, and at the end every morphism.  Computed
        on the first call and kept."""
        if self._generators is None:
            comp, outgoing, dom, cod = (self._compose, self.outgoing,
                                        self.dom, self.cod)
            nonid = self.nonidentity_morphisms()
            nonid_set = set(nonid)
            composites = {comp[(m1, m2)] for m1 in nonid
                          for m2 in outgoing[cod[m1]] if m2 in nonid_set}
            gens, reached, by_dom = [], set(), {}
            for m in [m for m in nonid if m not in composites] + nonid:
                if m in reached:
                    continue
                gens.append(m)
                by_dom.setdefault(dom[m], []).append(m)
                todo = [m] + [comp[(r, m)] for r in reached
                              if cod[r] == dom[m]]
                while todo:
                    r = todo.pop()
                    if r not in reached:
                        reached.add(r)
                        todo += [comp[(r, s)] for s in by_dom.get(cod[r], ())]
            self._generators = gens
        return self._generators

    def left_cancellative(self):
        """(verdict, witness): witness is (m, h1, h2) with m h1 = m h2,
        h1 != h2 when cancellation fails.  Only a row of composites
        m h that repeats one is walked for the witness."""
        comp, outgoing, cod = self._compose, self.outgoing, self.cod
        for m in self.morphisms:
            hs = outgoing[cod[m]]
            row = [comp[(m, h)] for h in hs]
            if len(set(row)) == len(row):
                continue
            seen = {}
            for h, k in zip(hs, row):
                if k in seen and seen[k] != h:
                    return (False, (m, seen[k], h))
                seen[k] = h
        return (True, None)

    def components(self):
        """Object partition by zig-zags of morphisms."""
        return connected_components(
            self.objects, ((self.dom[m], self.cod[m]) for m in self.morphisms))

    def __repr__(self):
        return "FiniteCategory(%d objects, %d morphisms)" % (
            len(self.objects), len(self.morphisms))


def groupoid_as_category(g0):
    """A groupoid's underlying category (objects = identities)."""
    return FiniteCategory(g0.identities, g0.arrows, g0.d, g0.r,
                          {e: e for e in g0.identities},
                          g0.composition_table())

