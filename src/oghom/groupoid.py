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

from .errors import PreconditionViolation, StructuralDefect
from .poset import Poset, order_closure


class Violation:
    __slots__ = ("axiom", "witness")

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = tuple(witness)

    def as_pair(self):
        return (self.axiom, self.witness)

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
    """Check every axiom instance; violations come back as data."""
    out = []
    arrows = cand.arrows
    idset = set(cand.identities)
    d, r, inv = cand.d, cand.r, cand.inv
    comp = cand.compose
    pairs = cand.order_pairs

    def leq(a, b):
        return (a, b) in pairs

    # order is a partial order
    for x in arrows:
        if not leq(x, x):
            out.append(Violation("order-reflexive", (x,)))
    for (a, b) in pairs:
        for c in arrows:
            if leq(b, c) and not leq(a, c):
                out.append(Violation("order-transitive", (a, b, c)))
    for (a, b) in pairs:
        if a != b and leq(b, a):
            if a < b:  # report each bad pair once
                out.append(Violation("order-antisymmetry", (a, b)))

    # typing of identities, inverses, d and r
    for e in cand.identities:
        if e not in d or d[e] != e or r[e] != e or inv[e] != e:
            out.append(Violation("identity-typing", (e,)))
    for x in arrows:
        bad = (d[x] not in idset or r[x] not in idset or inv[x] not in d
               or inv[inv[x]] != x or d[inv[x]] != r[x] or r[inv[x]] != d[x])
        if bad:
            out.append(Violation("arrow-typing", (x,)))

    # composition table on exactly the composable pairs
    for g in arrows:
        for h in arrows:
            if r[g] == d[h]:
                if (g, h) not in comp or comp[(g, h)] not in d:
                    out.append(Violation("compose-domain", (g, h)))
            elif (g, h) in comp:
                out.append(Violation("compose-domain", (g, h)))

    def cmp2(g, h):
        if r.get(g) == d.get(h):
            k = comp.get((g, h))
            if k in d:
                return k
        return None

    # units, inverses, associativity
    for g in arrows:
        for h in arrows:
            k = cmp2(g, h)
            if k is None:
                continue
            if d[k] != d[g] or r[k] != r[h]:
                out.append(Violation("compose-typing", (g, h, k)))
                continue
            if g in idset and k != h:
                out.append(Violation("identity-law", (g, h)))
            if h in idset and k != g:
                out.append(Violation("identity-law", (g, h)))
    for x in arrows:
        if cmp2(x, inv[x]) != d[x] or cmp2(inv[x], x) != r[x]:
            out.append(Violation("inverse-law", (x,)))
    for g in arrows:
        for h in arrows:
            gh = cmp2(g, h)
            if gh is None:
                continue
            for k in arrows:
                hk = cmp2(h, k)
                if hk is None:
                    continue
                if cmp2(gh, k) != cmp2(g, hk):
                    out.append(Violation("associativity", (g, h, k)))

    # OG1: inversion is monotone
    for (x, y) in pairs:
        if not leq(inv[x], inv[y]):
            out.append(Violation("OG1", (x, y)))

    # OG2: composition is monotone
    for (x, y) in pairs:
        for (u, v) in pairs:
            if r[x] == d[u] and r[y] == d[v]:
                xu, yv = cmp2(x, u), cmp2(y, v)
                if xu is not None and yv is not None and not leq(xu, yv):
                    out.append(Violation("OG2", (x, y, u, v)))

    # OG3/OG4: unique restriction and corestriction
    for x in arrows:
        for e in cand.identities:
            if leq(e, d[x]):
                found = [y for y in arrows if leq(y, x) and d[y] == e]
                if len(found) != 1:
                    out.append(Violation("OG3", (x, e)))
            if leq(e, r[x]):
                found = [y for y in arrows if leq(y, x) and r[y] == e]
                if len(found) != 1:
                    out.append(Violation("OG4", (x, e)))

    return ValidationReport(out)


class OrderedGroupoid:
    """A validated ordered groupoid with cached restrictions.

    Not constructed directly: use from_candidate (which insists on a
    clean validation report) or the fixture/generator helpers.
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
        self._restriction = {}
        for x in self.arrows:
            for e in self.identities:
                if self.order.leq(e, self.d[x]):
                    ys = [y for y in self.arrows
                          if self.order.leq(y, x) and self.d[y] == e]
                    self._restriction[(e, x)] = ys[0]

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

    def pseudoproduct(self, g, h):
        """(g|l)(l|h) for l the greatest lower bound of r(g) and d(h) in
        the identity poset; None when no greatest lower bound exists."""
        l = self.identity_poset.glb(self.r[g], self.d[h])
        if l is None:
            return None
        return self.compose(self.corestriction(g, l), self.restriction(l, h))

    def principal_ideal(self, t):
        return self.order.principal_ideal(t)

    def identity_lower_bounds(self, e, f):
        return self.identity_poset.lower_bounds(e, f)

    def __repr__(self):
        return "OrderedGroupoid(%d identities, %d arrows)" % (
            len(self.identities), len(self.arrows))
