"""The common-lower-bound relation beta, directedness, and the quotient.

g beta h iff some arrow k satisfies k <= g and k <= h.  The relation is
reflexive and symmetric for free; it is transitive exactly when every
principal order ideal is directed, and only then does the set of
beta-classes form a groupoid.  One run of `beta_transitive` decides,
and its least failing chain is the counterexample; the ideal side of
the equivalence is the test oracle
`tests/oracles.py::ideals_directed_by_scan`.
"""

from .category import groupoid_as_category
from .errors import NotPrincipallyDirected, StructuralDefect
from .groupoid import GroupoidCandidate, OrderedGroupoid, validate


def beta_witness(g0, g, h):
    """Lexicographically least common lower bound of g and h, or None."""
    common = g0.order.lower_bounds(g, h)
    return min(common) if common else None


def beta_transitive(g0):
    """(verdict, None or the least failing chain (g, t, h)): g beta t and
    t beta h but not g beta h.  The verdict is True exactly when every
    principal order ideal is directed.

    The arrows beta-related to g are those above some k <= g, kept as a
    bitset whose bit i is the i-th arrow in sorted order: the OR of the
    up-sets of the k <= g.  The set of t is walked from its lowest bit,
    and the least h is the lowest bit of what t relates and g does not.
    The set version is the test oracle
    `tests/oracles.py::beta_transitive_by_sets`."""
    arrows = sorted(g0.arrows)
    place = {a: i for i, a in enumerate(arrows)}
    # up[i]: the bitset of the arrows above arrow i
    up = [0] * len(arrows)
    for i, a in enumerate(arrows):
        for k in g0.principal_ideal(a):
            up[place[k]] |= 1 << i
    related = []
    for g in arrows:
        mask = 0
        for k in g0.principal_ideal(g):
            mask |= up[place[k]]
        related.append(mask)
    for g, mask in zip(arrows, related):
        ts = mask
        while ts:
            t = (ts & -ts).bit_length() - 1
            ts &= ts - 1
            missing = related[t] & ~mask
            if missing:
                return (False, (g, arrows[t],
                                arrows[(missing & -missing).bit_length()
                                       - 1]))
    return (True, None)


def is_principally_directed(g0):
    """(verdict, counterexample), decided once per groupoid and kept.

    Every principal order ideal is directed exactly when beta is
    transitive, so one run of `beta_transitive` decides; the ideal scan
    is the test oracle `tests/oracles.py::ideals_directed_by_scan`.  The
    counterexample (when any) is the least failing beta chain (g, t, h).
    """
    if "directed" not in g0.derived:
        ok, chain = beta_transitive(g0)
        g0.derived["directed"] = (ok, None if ok else
                                  {"kind": "beta-chain", "triple": chain})
    return g0.derived["directed"]


def beta_classes(g0):
    """Partition of the arrows into beta-classes; returns (classes by
    id, arrow -> class id).

    The classes of the equivalence generated by beta are the components
    of the comparability graph: beta contains the order (take k = g),
    and each beta step is a zig-zag k <= g, k <= h.  Class ids are the
    lexicographically least member."""
    classes = {}
    class_of = {}
    for members in g0.order.comparability_components():
        cid = min(members)
        classes[cid] = sorted(members)
        for a in members:
            class_of[a] = cid
    return classes, class_of


class QuotientGroupoid:
    """The groupoid of beta-classes, trivially ordered.

    groupoid: an OrderedGroupoid on class ids; class_of: arrow -> class;
    classes: class id -> sorted member arrows; category: the groupoid's
    underlying FiniteCategory, built and checked on first use and kept.
    """

    def __init__(self, groupoid, classes, class_of):
        self.groupoid = groupoid
        self.classes = classes
        self.class_of = class_of
        self._category = None

    @property
    def category(self):
        if self._category is None:
            self._category = groupoid_as_category(self.groupoid)
        return self._category

    def __repr__(self):
        return "QuotientGroupoid(%d classes)" % len(self.classes)


def _compose_via(g0, g, h, f):
    return g0.compose(g0.corestriction(g, f), g0.restriction(f, h))


def quotient(g0):
    """The quotient groupoid, built and validated once per groupoid;
    classes compose by [(g|f)(f|h)].

    Raises NotPrincipallyDirected when beta is not transitive."""
    if "quotient" in g0.derived:
        return g0.derived["quotient"]
    ok, counterexample = is_principally_directed(g0)
    if not ok:
        raise NotPrincipallyDirected(
            "beta is not transitive; quotient undefined",
            counterexample=counterexample)
    classes, class_of = beta_classes(g0)

    idclasses = sorted({class_of[e] for e in g0.identities})
    d = {}
    r = {}
    inv = {}
    for cid, members in classes.items():
        g = members[0]
        d[cid] = class_of[g0.d[g]]
        r[cid] = class_of[g0.r[g]]
        inv[cid] = class_of[g0.inv[g]]
    comp = {}
    for x, xm in classes.items():
        for y, ym in classes.items():
            if r[x] != d[y]:
                continue
            g, h = xm[0], ym[0]
            common = g0.identity_lower_bounds(g0.r[g], g0.d[h])
            if not common:
                raise StructuralDefect(
                    "no identity below r(%s) and d(%s) despite matching "
                    "classes" % (g, h))
            f = min(common)
            comp[(x, y)] = class_of[_compose_via(g0, g, h, f)]
    cand = GroupoidCandidate(idclasses, d, r, inv, comp,
                             {(c, c) for c in classes})
    report = validate(cand)
    if not report.ok:
        raise StructuralDefect(
            "quotient candidate is not a groupoid: %s"
            % ", ".join(report.axioms()))
    g0.derived["quotient"] = QuotientGroupoid(
        OrderedGroupoid(cand, report), classes, class_of)
    return g0.derived["quotient"]


class QuotientChoiceReport:
    def __init__(self, ok, checked, failures):
        self.ok = ok
        self.checked = checked
        self.failures = failures

    def __repr__(self):
        word = "pass" if self.ok else "FAIL"
        return "QuotientChoiceReport(%s, %d choice tuples)" % (word, self.checked)


def check_quotient_welldefined(g0):
    """Recompute every class composition across all representatives and
    all admissible middle identities; they must agree classwise."""
    q = quotient(g0)
    classes, class_of = q.classes, q.class_of
    checked = 0
    failures = []
    for x, xm in classes.items():
        for y, ym in classes.items():
            if q.groupoid.r[x] != q.groupoid.d[y]:
                continue
            expected = q.groupoid.compose(x, y)
            for g in xm:
                for h in ym:
                    for f in sorted(g0.identity_lower_bounds(
                            g0.r[g], g0.d[h])):
                        got = class_of[_compose_via(g0, g, h, f)]
                        checked += 1
                        if got != expected:
                            failures.append(
                                {"classes": (x, y), "reps": (g, h),
                                 "middle": f, "got": got,
                                 "expected": expected})
    return QuotientChoiceReport(not failures, checked, failures)
