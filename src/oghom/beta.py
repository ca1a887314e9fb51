"""The common-lower-bound relation beta, directedness, and the quotient.

g beta h iff some arrow k satisfies k <= g and k <= h.  The relation is
reflexive and symmetric for free; it is transitive exactly when every
principal order ideal is directed, and only then does the set of
beta-classes form a groupoid.
"""

from .errors import NotPrincipallyDirected, StructuralDefect
from .groupoid import GroupoidCandidate, OrderedGroupoid, validate


def beta_witness(g0, g, h):
    """Lexicographically least common lower bound of g and h, or None."""
    common = g0.order.lower_bounds(g, h)
    return min(common) if common else None


def beta_related(g0, g, h):
    """(related?, witness arrow or None)."""
    w = beta_witness(g0, g, h)
    return (w is not None, w)


def all_ideals_directed(g0):
    """(verdict, None or (top, (a, b)) naming a non-directed ideal)."""
    for t in g0.arrows:
        pair = g0.order.undirected_pair(sorted(g0.principal_ideal(t)))
        if pair is not None:
            return (False, (t, pair))
    return (True, None)


def beta_transitive(g0):
    """(verdict, None or the least failing chain (g, t, h))."""
    related = {}
    for g in g0.arrows:
        for h in g0.arrows:
            related[(g, h)] = beta_witness(g0, g, h) is not None
    worst = None
    for g in g0.arrows:
        for t in g0.arrows:
            if not related[(g, t)]:
                continue
            for h in g0.arrows:
                if related[(t, h)] and not related[(g, h)]:
                    triple = (g, t, h)
                    if worst is None or triple < worst:
                        worst = triple
    return (worst is None, worst)


def is_principally_directed(g0):
    """(verdict, counterexample).

    The ideal-directedness test decides; transitivity of beta is run as
    a cross-check and must agree.  The counterexample (when any) is the
    least failing beta chain (g, t, h).
    """
    ideals_ok, _ = all_ideals_directed(g0)
    chain_ok, bad_chain = beta_transitive(g0)
    if ideals_ok != chain_ok:
        raise StructuralDefect(
            "ideal directedness and beta transitivity disagree")
    if ideals_ok:
        return (True, None)
    return (False, {"kind": "beta-chain", "triple": bad_chain})


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
    classes: class id -> sorted member arrows; source: the original.
    """

    def __init__(self, source, groupoid, classes, class_of):
        self.source = source
        self.groupoid = groupoid
        self.classes = classes
        self.class_of = class_of

    def identity_classes(self):
        return list(self.groupoid.identities)

    def __repr__(self):
        return "QuotientGroupoid(%d classes)" % len(self.classes)


def _compose_via(g0, g, h, f):
    return g0.compose(g0.corestriction(g, f), g0.restriction(f, h))


def quotient(g0):
    """The quotient groupoid; classes compose by [(g|f)(f|h)].

    Raises NotPrincipallyDirected when beta is not transitive."""
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
    return QuotientGroupoid(g0, OrderedGroupoid(cand, report),
                            classes, class_of)


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
