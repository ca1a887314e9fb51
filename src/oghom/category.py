"""Small finite categories with their composites kept as integer rows.

Used for the left-cancellative category of an ordered groupoid, for
quotient groupoids viewed as one-object-per-class categories, and as the
index shape for modules, colimits, and nerves.  Composition is written
diagrammatically: compose(m1, m2) means "m1 then m2" and is defined
exactly when cod(m1) = dom(m2).

A category keeps one `Table`: its morphisms numbered 0..N-1 in morphism
order, and for each morphism m a row of composite numbers aligned with
the morphisms leaving cod(m).  The public constructor converts a table
keyed by pairs of names; `build_lcat` writes the rows directly
(`FiniteCategory.from_rows`).  The axiom check, left cancellation,
generators, the group test and `compose` read the rows; names stay the
external labels.  `groupoid.validate` builds the same rows over a
candidate's arrows, so `associativity_failures` is the one
associativity scan.
"""

from .errors import NotACategory, NotComposable
from .poset import connected_components


class Table:
    """Composites of finitely many elements as integer rows.

    Elements are numbered 0..N-1 by their place in `elements`, and
    index[m] is m's number.  dom[i] and cod[i] are the endpoints of
    element i; out[o] lists the elements with domain o in number order,
    and pos[i] is the place of i in out[dom[i]].  rows[i] holds, for
    each y in out[cod[i]], the number of the composite i y, or None
    where there is none.  illegal lists the keys of a name-keyed table
    that pair two elements which do not compose."""

    def __init__(self, elements, dom, cod):
        self.elements = elements
        self.index = {m: i for i, m in enumerate(elements)}
        self.dom = [dom[m] for m in elements]
        self.cod = [cod[m] for m in elements]
        self.out, self.pos = {}, []
        for i, o in enumerate(self.dom):
            bucket = self.out.setdefault(o, [])
            self.pos.append(len(bucket))
            bucket.append(i)
        self.rows, self.illegal = [], []

    def read(self, compose):
        """Fill the rows from `compose`, a table keyed by pairs of
        elements, and return self.  An entry that is no element counts
        as none; the keys are walked for illegal pairs only if the table
        holds more entries than the composites found."""
        index, elements, get = self.index, self.elements, compose.get
        # named[o]: the elements with domain o
        named = {o: [elements[j] for j in js] for o, js in self.out.items()}
        known = 0
        for m1, o in zip(elements, self.cod):
            row = [index.get(get((m1, m2))) for m2 in named.get(o, ())]
            known += len(row) - row.count(None)
            self.rows.append(row)
        if len(compose) > known:
            self.illegal = [(m1, m2) for (m1, m2) in compose
                            if m1 in index and m2 in index
                            and self.cod[index[m1]] != self.dom[index[m2]]]
        return self

    def typed(self):
        """For each row, whether it is complete and each composite x y
        in it has the domain of x and the codomain of y."""
        dom, cod, out = self.dom, self.cod, self.out
        # ends[o]: the codomains along out[o]
        ends = {o: [cod[y] for y in ys] for o, ys in out.items()}
        outset = {o: set(ys) for o, ys in out.items()}
        return [outset[o].issuperset(row)
                and [cod[k] for k in row] == ends.get(c, [])
                for row, o, c in zip(self.rows, dom, cod)]


def associativity_failures(table, typed):
    """The triples (x, y, z) of element numbers with (x y) z != x (y z),
    x in number order, y and z in row order, where a missing composite
    or one that is not composable counts as none; typed is
    `table.typed()`.  Where the row of x and the rows of all y after it
    are typed, the rows of the composites x y, laid end to end, are the
    rows of those y with each y z replaced by x (y z) unless a triple
    fails.  So these are compared at once, and only an x where they
    differ, or whose rows are not typed, is walked triple by triple."""
    rows, out, pos = table.rows, table.out, table.pos
    dom, cod = table.dom, table.cod
    # places[o]: where the row of an x with codomain o holds x (y z),
    # for y in out[o] and z along the row of y, where all those rows
    # are typed
    places = {o: [pos[k] for y in ys for k in rows[y]]
              for o, ys in out.items() if all(map(typed.__getitem__, ys))}
    for x, row_x in enumerate(rows):
        o = cod[x]
        if (typed[x] and o in places
                and [k for xy in row_x for k in rows[xy]]
                == [row_x[p] for p in places[o]]):
            continue
        for y, xy in zip(out.get(o, ()), row_x):
            if xy is None:
                continue
            row_xy, same = rows[xy], cod[xy] == cod[y]
            for j, (z, yz) in enumerate(zip(out.get(cod[y], ()), rows[y])):
                if yz is None:
                    continue
                if ((row_xy[j] if same else None)
                        != (row_x[pos[yz]] if dom[yz] == o else None)):
                    yield (x, y, z)


class FiniteCategory:
    def __init__(self, objects, morphisms, dom, cod, identity, compose):
        """The category whose composites `compose` tabulates, keyed by
        pairs of morphisms; converted to rows and checked, and a failed
        check raises NotACategory with every problem."""
        self._keep(objects, morphisms, dom, cod, identity)
        self._table.read(compose)
        self._verify()

    @classmethod
    def from_rows(cls, objects, morphisms, dom, cod, identity, rows):
        """The category whose composites are `rows`, as a `Table` over
        `morphisms` numbers them; checked as the constructor checks."""
        cat = cls.__new__(cls)
        cat._keep(objects, morphisms, dom, cod, identity)
        cat._table.rows = rows
        cat._verify()
        return cat

    def _keep(self, objects, morphisms, dom, cod, identity):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.dom = dict(dom)
        self.cod = dict(cod)
        self.identity = dict(identity)
        self._table = t = Table(self.morphisms, self.dom, self.cod)
        # outgoing[o]: the morphisms with domain o, in morphism order,
        # named from the table's buckets
        self.outgoing = {o: [] for o in self.objects}
        self.outgoing.update((o, [self.morphisms[i] for i in js])
                             for o, js in t.out.items())
        self._generators = self._group = None

    def _verify(self):
        problems = self.check()
        if problems:
            raise NotACategory(problems)

    def check(self):
        """Category axioms as a list of readable problems (empty = ok),
        read off the stored rows: a composite that is None is missing,
        one whose endpoints are not those of the pair is mistyped, and
        the pairs that the constructor's table composed illegally
        follow."""
        out = []
        for o in self.objects:
            i = self.identity.get(o)
            if i is None or self.dom.get(i) != o or self.cod.get(i) != o:
                out.append("identity of %r is broken" % (o,))
        t = self._table
        names, rows, dom, cod = t.elements, t.rows, t.dom, t.cod
        objects = set(self.objects)
        for m, o1, o2 in zip(names, dom, cod):
            if o1 not in objects or o2 not in objects:
                out.append("morphism %r has unknown endpoints" % (m,))
        typed = t.typed()
        for m1, row in enumerate(rows):
            if typed[m1]:
                continue
            for m2, k in zip(t.out.get(cod[m1], ()), row):
                if k is None:
                    out.append("composite (%r, %r) missing"
                               % (names[m1], names[m2]))
                elif dom[k] != dom[m1] or cod[k] != cod[m2]:
                    out.append("composite (%r, %r) mistyped"
                               % (names[m1], names[m2]))
        for pair in t.illegal:
            out.append("composite (%r, %r) defined illegally" % pair)
        if out:
            return out
        index, pos = t.index, t.pos
        unit = [index[self.identity[o]] for o in dom]
        for m, (o, row) in enumerate(zip(cod, rows)):
            if rows[unit[m]][pos[m]] != m:
                out.append("left unit fails at %r" % (names[m],))
            if row[pos[index[self.identity[o]]]] != m:
                out.append("right unit fails at %r" % (names[m],))
        for triple in associativity_failures(t, typed):
            out.append("associativity fails at (%r, %r, %r)"
                       % tuple(names[i] for i in triple))
        return out

    def composable(self, m1, m2):
        return self.cod[m1] == self.dom[m2]

    def compose(self, m1, m2):
        t = self._table
        i, j = t.index[m1], t.index[m2]
        if t.cod[i] != t.dom[j]:
            raise NotComposable("cod(%r) != dom(%r)" % (m1, m2))
        return self.morphisms[t.rows[i][t.pos[j]]]

    def is_identity(self, m):
        return self.identity.get(self.dom[m]) == m and self.dom[m] == self.cod[m]

    def nonidentity_morphisms(self):
        return [m for m in self.morphisms if not self.is_identity(m)]

    def is_group(self):
        """True iff there is one object and every morphism has a right
        inverse, so that the morphisms form a group.  Decided from the
        rows on the first call and kept."""
        if self._group is None:
            t = self._table
            self._group = len(self.objects) == 1 and all(
                t.index[self.identity[self.objects[0]]] in row
                for row in t.rows)
        return self._group

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
            t = self._table
            rows, out, pos, dom, cod = t.rows, t.out, t.pos, t.dom, t.cod
            unit = {t.index[m] for m in self.identity.values()}
            nonid = [m for m in range(len(rows)) if m not in unit]
            composites = {k for m1 in nonid
                          for m2, k in zip(out[cod[m1]], rows[m1])
                          if m2 not in unit}
            gens, reached, by_dom = [], set(), {}
            for m in [m for m in nonid if m not in composites] + nonid:
                if m in reached:
                    continue
                gens.append(m)
                by_dom.setdefault(dom[m], []).append(m)
                todo = [m] + [rows[r][pos[m]] for r in reached
                              if cod[r] == dom[m]]
                while todo:
                    r = todo.pop()
                    if r not in reached:
                        reached.add(r)
                        todo += [rows[r][pos[s]]
                                 for s in by_dom.get(cod[r], ())]
            self._generators = [self.morphisms[m] for m in gens]
        return self._generators

    def left_cancellative(self):
        """(verdict, witness): witness is (m, h1, h2) with m h1 = m h2,
        h1 != h2 when cancellation fails.  Only a row of composites
        m h that repeats one is walked for the witness."""
        t = self._table
        names = t.elements
        for m, row in enumerate(t.rows):
            if len(set(row)) == len(row):
                continue
            seen = {}
            for h, k in zip(t.out[t.cod[m]], row):
                if k in seen:
                    return (False, (names[m], names[seen[k]], names[h]))
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
