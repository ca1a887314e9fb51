"""Small finite categories with explicit composition tables.

Used for the left-cancellative category of an ordered groupoid, for
quotient groupoids viewed as one-object-per-class categories, and as the
index shape for modules, colimits, and nerves.  Composition is written
diagrammatically: compose(m1, m2) means "m1 then m2" and is defined
exactly when cod(m1) = dom(m2).
"""

from .errors import NotComposable, StructuralDefect
from .poset import connected_components


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
        problems = self.check()
        if problems:
            raise StructuralDefect("not a category: %s" % problems[0])

    def check(self):
        """Category axioms as a list of readable problems (empty = ok).

        Associativity compares rows of composites, row[m] listing m h
        for h in outgoing[cod m]: as cod(m1 m2) = cod(m2), row[m1 m2] is
        row[m2] composed after m1 unless a triple (m1, m2, m3) fails, and
        only then are the triples of (m1, m2) walked, in order."""
        out = []
        for o in self.objects:
            i = self.identity.get(o)
            if i is None or self.dom.get(i) != o or self.cod.get(i) != o:
                out.append("identity of %r is broken" % (o,))
        for m in self.morphisms:
            if self.dom[m] not in self.objects or self.cod[m] not in self.objects:
                out.append("morphism %r has unknown endpoints" % (m,))
        for m1 in self.morphisms:
            for m2 in self.outgoing.get(self.cod[m1], ()):
                k = self._compose.get((m1, m2))
                if k is None or k not in self.dom:
                    out.append("composite (%r, %r) missing" % (m1, m2))
                elif self.dom[k] != self.dom[m1] or self.cod[k] != self.cod[m2]:
                    out.append("composite (%r, %r) mistyped" % (m1, m2))
        for (m1, m2) in self._compose:
            if (m1 in self.dom and m2 in self.dom
                    and self.cod[m1] != self.dom[m2]):
                out.append("composite (%r, %r) defined illegally" % (m1, m2))
        if out:
            return out
        for m in self.morphisms:
            if self._compose[(self.identity[self.dom[m]], m)] != m:
                out.append("left unit fails at %r" % (m,))
            if self._compose[(m, self.identity[self.cod[m]])] != m:
                out.append("right unit fails at %r" % (m,))
        comp, outgoing, cod = self._compose, self.outgoing, self.cod
        row = {m: [comp[(m, h)] for h in outgoing[cod[m]]]
               for m in self.morphisms}
        for m1 in self.morphisms:
            after_m1 = dict(zip(outgoing[cod[m1]], row[m1]))
            for m2, m12 in zip(outgoing[cod[m1]], row[m1]):
                if row.get(m12) == list(map(after_m1.get, row[m2])):
                    continue
                for m3 in outgoing[cod[m2]]:
                    if comp[(m12, m3)] != comp[(m1, comp[(m2, m3)])]:
                        out.append("associativity fails at (%r, %r, %r)"
                                   % (m1, m2, m3))
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

