"""Finite ordered groupoids: axiom validation and order-aware operations.

A candidate structure carries identities, arrows with domain/range/inverse,
an explicit composition table on composable pairs, and a closed order
relation on arrows.  `validate` turns axiom failures into witness records
instead of exceptions; a structure that passes becomes an OrderedGroupoid
with cached restrictions.

Composition is diagrammatic: compose(g, h) is "g then h", defined exactly
when r(g) = d(h).  The axioms checked, with their witness shapes:

  order-reflexive      (x,)            x !<= x
  order-transitive     (x, y, z)       x <= y <= z but not x <= z
  order-antisymmetry   (x, y)          x <= y <= x with x != y
  order-typing         (x, y)          x <= y where x or y is no arrow
  identity-repeated    (e,)            identity listed again
  identity-typing      (e,)            identity with d/r/inv not itself
  arrow-typing         (x,)            inverse or d/r bookkeeping broken
  compose-domain       (g, h)          table defined/missing wrongly
  compose-typing       (g, h, k)       k = gh has wrong d or r
  identity-law         (e, x)/(x, e)   unit composite is not x
  inverse-law          (x,)            x·x⁻¹ or x⁻¹·x is not the unit
  associativity        (g, h, k)       (gh)k != g(hk)
  OG1                  (x, y)          x <= y but not x⁻¹ <= y⁻¹
  OG2                  (x, y, u, v)    x<=y, u<=v, composable, xu !<= yv
  OG3                  (x, e)          not exactly one y <= x, d(y) = e
  OG4                  (x, e)          not exactly one y <= x, r(y) = e
"""

from .category import Table, associativity_failures
from .errors import PreconditionViolation, StructuralDefect
from .poset import Poset, order_closure


class Violation:
    __slots__ = ("axiom", "witness")

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = tuple(witness)

    def __repr__(self):
        return "Violation(%s, %s)" % (self.axiom, self.witness)


class ValidationReport:
    def __init__(self, violations):
        self.violations = list(violations)

    @property
    def ok(self):
        return not self.violations

    def axioms(self):
        return sorted({v.axiom for v in self.violations})

    def has(self, axiom, witness=None):
        for v in self.violations:
            if v.axiom == axiom and (witness is None or v.witness == tuple(witness)):
                return True
        return False

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport(%d violations: %s)" % (
            len(self.violations), ", ".join(self.axioms()))


class GroupoidCandidate:
    """Unvalidated ordered-groupoid data.

    order_pairs must already be reflexively and transitively closed;
    use from_parts to close generating pairs.
    """

    def __init__(self, identities, d, r, inv, compose, order_pairs):
        self.identities = list(identities)
        self.d = dict(d)
        self.r = dict(r)
        self.inv = dict(inv)
        self.compose = dict(compose)
        self.order_pairs = set(order_pairs)
        self.arrows = sorted(self.d)

    @classmethod
    def from_parts(cls, identities, arrows, compose, order_generators):
        """arrows: mapping id -> (d, r, inv) for non-identity arrows;
        identity arrows and their unit compositions are inferred."""
        d, r, inv = {}, {}, {}
        for e in identities:
            d[e] = r[e] = inv[e] = e
        for a, (da, ra, ia) in arrows.items():
            d[a], r[a], inv[a] = da, ra, ia
        comp = dict(compose)
        for g in d:
            comp.setdefault((d[g], g), g)
            comp.setdefault((g, r[g]), g)
        return cls(identities, d, r, inv, comp,
                   order_closure(d, order_generators))

    def leq(self, a, b):
        return (a, b) in self.order_pairs


def validate(cand):
    """Check every axiom instance; violations come back as data.

    Order pairs are visited in sorted order, so the violation list does
    not depend on set iteration order; a pair naming a non-arrow is
    reported and left out of the order axioms.  The table is read once
    into the integer rows that FiniteCategory keeps (`category.Table`),
    and its keys are walked for illegal pairs only as there; the
    associativity scan is the category's.

    Valid input is accepted by one test per order pair, row or arrow:
    transitivity at (a, b) by the up-set of a holding that of b, the
    typing and unit laws of a row by `Table.typed` and the units'
    places, OG2 at (x, y) by all the pairs (u, v) it composes with at
    once, and OG3/OG4 at x by the domains and ranges of its down-set
    being the identities below d(x) and r(x), one each.  The
    instance-by-instance loops run only where a test fails, to name
    what failed.  The row and arrow tests stand only on well-typed
    identities, arrows and order pairs, so after a typing violation
    every row and arrow is walked."""
    out = []
    arrows = cand.arrows
    idset = set(cand.identities)
    d, r, inv = cand.d, cand.r, cand.inv
    comp = cand.compose
    pairs = cand.order_pairs
    sorted_pairs = []
    for (a, b) in sorted(pairs):
        if a in d and b in d:
            sorted_pairs.append((a, b))
        else:
            out.append(Violation("order-typing", (a, b)))

    def leq(a, b):
        return (a, b) in pairs

    # up[x] / down[x]: the arrows above / below x, in sorted order
    up, down = {}, {}
    for (a, b) in sorted_pairs:
        up.setdefault(a, []).append(b)
        down.setdefault(b, []).append(a)

    # order is a partial order on the arrows; as a and the c above b are
    # arrows, leq(a, c) holds exactly when c is in the up-set of a
    for x in arrows:
        if not leq(x, x):
            out.append(Violation("order-reflexive", (x,)))
    upset = {a: set(bs) for a, bs in up.items()}
    for (a, b) in sorted_pairs:
        if upset[a].issuperset(up.get(b, ())):
            continue
        for c in up.get(b, ()):
            if not leq(a, c):
                out.append(Violation("order-transitive", (a, b, c)))
    for (a, b) in sorted_pairs:
        if a != b and leq(b, a):
            if a < b:  # report each bad pair once
                out.append(Violation("order-antisymmetry", (a, b)))

    # typing of identities, inverses, d and r
    before = len(out)
    seen = set()
    for e in cand.identities:
        if e in seen:
            out.append(Violation("identity-repeated", (e,)))
        seen.add(e)
        if e not in d or d[e] != e or r[e] != e or inv[e] != e:
            out.append(Violation("identity-typing", (e,)))
    for x in arrows:
        bad = (d[x] not in idset or r[x] not in idset or inv[x] not in d
               or inv[inv[x]] != x or d[inv[x]] != r[x] or r[inv[x]] != d[x])
        if bad:
            out.append(Violation("arrow-typing", (x,)))
    # the row and arrow tests below stand only where no order pair names
    # a non-arrow and no identity or arrow is mistyped
    clean = len(out) == before and len(sorted_pairs) == len(pairs)

    # composition table on exactly the composable pairs, as integer
    # rows over the arrows (category.Table): leaving[o] lists the arrows
    # with domain o and rows[x] the composites of x with leaving[r(x)],
    # None where the table has no arrow
    table = Table(arrows, d, r).read(comp)
    index, leaving, pos, rows = table.index, table.out, table.pos, table.rows
    dom, cod = table.dom, table.cod
    for g, row in enumerate(rows):
        if None in row:
            for h, k in zip(leaving.get(cod[g], ()), row):
                if k is None:
                    out.append(Violation("compose-domain",
                                         (arrows[g], arrows[h])))
    for (g, h) in sorted(table.illegal):
        out.append(Violation("compose-domain", (g, h)))

    def cmp2(g, h):
        if g in index and h in index and r[g] == d[h]:
            k = rows[index[g]][pos[index[h]]]
            return None if k is None else arrows[k]
        return None

    # units, inverses, associativity; a typed row holds no typing
    # violation, and, typing being clean, the one unit that a row
    # composes with is its codomain o, at place unit_at[o] of leaving[o]
    typed = table.typed()
    units = {index[e] for e in idset if e in index}
    unit_at = {o: pos[index[o]] for o in idset} if clean else {}
    for g, row in enumerate(rows):
        if (clean and typed[g] and row[unit_at[cod[g]]] == g
                and (g not in units or row == leaving[cod[g]])):
            continue
        for h, k in zip(leaving.get(cod[g], ()), row):
            if k is None:
                continue
            if dom[k] != dom[g] or cod[k] != cod[h]:
                out.append(Violation("compose-typing",
                                     (arrows[g], arrows[h], arrows[k])))
                continue
            if g in units and k != h:
                out.append(Violation("identity-law", (arrows[g], arrows[h])))
            if h in units and k != g:
                out.append(Violation("identity-law", (arrows[g], arrows[h])))
    for x in arrows:
        if cmp2(x, inv[x]) != d[x] or cmp2(inv[x], x) != r[x]:
            out.append(Violation("inverse-law", (x,)))
    for triple in associativity_failures(table, typed):
        out.append(Violation("associativity",
                             tuple(arrows[i] for i in triple)))

    # OG1: inversion is monotone
    for (x, y) in sorted_pairs:
        if not leq(inv[x], inv[y]):
            out.append(Violation("OG1", (x, y)))

    # OG2: composition is monotone; above[(e, f)] holds the pairs
    # u <= v with d(u) = e and d(v) = f, as the places of the u's in
    # leaving[e] and of the v's in leaving[f], so that the composites
    # x u and y v are read off the rows of x and y; ordered holds the
    # order pairs by number
    above = {}
    for (u, v) in sorted_pairs:
        us, vs = above.setdefault((d[u], d[v]), ([], []))
        us.append(pos[index[u]])
        vs.append(pos[index[v]])
    ordered = {(index[a], index[b]) for (a, b) in sorted_pairs}
    for (x, y) in sorted_pairs:
        us, vs = above.get((r[x], r[y]), ((), ()))
        row_x, row_y = rows[index[x]], rows[index[y]]
        if all(map(ordered.__contains__, zip(map(row_x.__getitem__, us),
                                             map(row_y.__getitem__, vs)))):
            continue
        for (p, q) in zip(us, vs):
            xu, yv = row_x[p], row_y[q]
            if xu is not None and yv is not None and (xu, yv) not in ordered:
                out.append(Violation("OG2", (x, y, arrows[leaving[r[x]][p]],
                                             arrows[leaving[r[y]][q]])))

    # OG3/OG4: unique restriction and corestriction; typing being
    # clean, the identities e with leq(e, o) are ids_below[o]
    ids_below = {o: {e for e in down.get(o, ()) if e in idset}
                 for o in idset} if clean else {}
    for x in arrows:
        below = down.get(x, ())
        if clean:
            ids_d, ids_r = ids_below[d[x]], ids_below[r[x]]
            if (len(below) == len(ids_d) == len(ids_r)
                    and ids_d == {d[y] for y in below}
                    and ids_r == {r[y] for y in below}):
                continue
        for e in cand.identities:
            if leq(e, d[x]) and sum(d[y] == e for y in below) != 1:
                out.append(Violation("OG3", (x, e)))
            if leq(e, r[x]) and sum(r[y] == e for y in below) != 1:
                out.append(Violation("OG4", (x, e)))

    return ValidationReport(out)


class OrderedGroupoid:
    """A validated ordered groupoid with cached restrictions.

    Not constructed directly: use from_candidate (which insists on a
    clean validation report) or the fixture/generator helpers.
    `derived` keeps the directedness verdict and the quotient; only
    `beta` writes it, callers share what it returns, and nothing in it
    refers back to the groupoid, so it is freed with the groupoid.
    """

    def __init__(self, cand, report):
        if not report.ok:
            raise StructuralDefect(
                "candidate fails validation: %s" % ", ".join(report.axioms()))
        self.identities = sorted(cand.identities)
        self.arrows = list(cand.arrows)
        self.d = dict(cand.d)
        self.r = dict(cand.r)
        self.inv = dict(cand.inv)
        self._compose = dict(cand.compose)
        self.order = Poset(self.arrows, cand.order_pairs)
        self._idset = idset = frozenset(self.identities)
        self.identity_poset = Poset(
            self.identities,
            [(a, b) for (a, b) in cand.order_pairs
             if a in idset and b in idset])
        # OG3 makes y the only arrow below x with domain d(y)
        self._restriction = {(self.d[y], x): y for x in self.arrows
                             for y in self.principal_ideal(x)}
        self.derived = {}

    @classmethod
    def from_candidate(cls, cand):
        return cls(cand, validate(cand))

    def is_identity(self, x):
        return x in self._idset

    def nonidentity_arrows(self):
        return [a for a in self.arrows if a not in self._idset]

    def composable(self, g, h):
        return self.r[g] == self.d[h]

    def compose(self, g, h):
        if not self.composable(g, h):
            raise PreconditionViolation(
                "not composable: r(%s) != d(%s)" % (g, h))
        return self._compose[(g, h)]

    def composition_table(self):
        return dict(self._compose)

    def restriction(self, e, x):
        """The unique (e|x) <= x with domain e; needs e <= d(x)."""
        key = (e, x)
        if key not in self._restriction:
            raise PreconditionViolation(
                "restriction undefined: %s is not below d(%s)" % (e, x))
        return self._restriction[key]

    def corestriction(self, x, e):
        """The unique (x|e) <= x with range e; needs e <= r(x)."""
        if not self.order.leq(e, self.r[x]):
            raise PreconditionViolation(
                "corestriction undefined: %s is not below r(%s)" % (e, x))
        return self.inv[self.restriction(e, self.inv[x])]

    def principal_ideal(self, t):
        return self.order.principal_ideal(t)

    def identity_lower_bounds(self, e, f):
        return self.identity_poset.lower_bounds(e, f)

    def __repr__(self):
        return "OrderedGroupoid(%d identities, %d arrows)" % (
            len(self.identities), len(self.arrows))
