"""Modules over finite categories and the expansion/colimit adjunction.

A module assigns an abelian group to every object and a homomorphism to
every morphism, functorially; written a ◁ m for the right action of a
morphism on a coefficient.  Over the category of an ordered groupoid the
three constructions of interest are:

  expand      -- pull a module over the quotient groupoid back along the
                 class projection (order morphisms act as the identity);
  colim_E     -- per identity class, the colimit of the groups along the
                 order morphisms inside the class, made into a module
                 over the quotient by acting through restrictions;
  colim_category -- the plain colimit of a module over any finite
                 category, presented as a direct sum modulo relators
                 a - a ◁ m.

rho and tau convert between maps out of colim_E and maps into an
expansion; they are mutually inverse, which is the adjunction.
"""

from .beta import quotient
from .category import groupoid_as_category
from .errors import PreconditionViolation, StructuralDefect
from .zmodule import (
    AbHom,
    FgAbGroup,
    ZMatrix,
    block_diag,
    direct_sum,
    enumerate_homs,
    hom_welldefined,
)


class GModule:
    """Functor from a finite category to abelian groups.

    groups: object -> FgAbGroup; action: morphism -> AbHom.  The
    constructor checks functoriality on the full composition table.
    """

    def __init__(self, base, groups, action, checked=False):
        self.base = base
        self.groups = dict(groups)
        self.action = dict(action)
        if not checked:
            problems = check_functorial(base, self.groups, self.action)
            if problems:
                raise StructuralDefect("not a module: %s" % problems[0])

    def act(self, m):
        return self.action[m]

    def is_finite(self):
        return all(g.order() is not None for g in self.groups.values())

    def __repr__(self):
        return "GModule(%d objects)" % len(self.groups)


def check_functorial(base, groups, action):
    """Functoriality violations as readable strings (empty = module)."""
    out = []
    for o in base.objects:
        if o not in groups:
            out.append("object %r has no group" % (o,))
    if out:
        return out
    for m in base.morphisms:
        h = action.get(m)
        if h is None:
            out.append("morphism %r has no action" % (m,))
        elif h.source != groups[base.dom[m]] or h.target != groups[base.cod[m]]:
            out.append("action of %r has wrong endpoints" % (m,))
    if out:
        return out
    for o in base.objects:
        i = base.identity[o]
        if not action[i].equal_as_maps(AbHom.identity(groups[o])):
            out.append("identity of %r does not act as the identity" % (o,))
    for m1 in base.morphisms:
        for m2 in base.morphisms:
            if base.composable(m1, m2):
                both = action[m1].then(action[m2])
                if not both.equal_as_maps(action[base.compose(m1, m2)]):
                    out.append("functoriality fails at (%r, %r)" % (m1, m2))
    return out


class GMap:
    """Natural transformation between modules over one base."""

    def __init__(self, source, target, components, checked=False):
        self.source = source
        self.target = target
        self.components = dict(components)
        if not checked:
            problems = check_natural(source, target, self.components)
            if problems:
                raise StructuralDefect("not natural: %s" % problems[0])

    @classmethod
    def identity(cls, module):
        return cls(module, module,
                   {o: AbHom.identity(g) for o, g in module.groups.items()},
                   checked=True)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target,
                   {o: AbHom.zero(source.groups[o], target.groups[o])
                    for o in source.base.objects},
                   checked=True)

    def then(self, other):
        comps = {o: self.components[o].then(other.components[o])
                 for o in self.components}
        return GMap(self.source, other.target, comps, checked=True)

    def equal(self, other):
        return all(self.components[o].equal_as_maps(other.components[o])
                   for o in self.components)

    def is_componentwise_surjective(self):
        return all(h.is_surjective() for h in self.components.values())

    def __repr__(self):
        return "GMap(%d components)" % len(self.components)


def check_natural(source, target, components):
    out = []
    base = source.base
    for o in base.objects:
        h = components.get(o)
        if h is None:
            out.append("object %r has no component" % (o,))
        elif h.source != source.groups[o] or h.target != target.groups[o]:
            out.append("component at %r has wrong endpoints" % (o,))
    if out:
        return out
    for m in base.morphisms:
        left = components[base.dom[m]].then(target.action[m])
        right = source.action[m].then(components[base.cod[m]])
        if not left.equal_as_maps(right):
            out.append("naturality fails at %r" % (m,))
    return out


def module_from_parts(lc, groups, poset_maps, arrow_maps):
    """Assemble a module over the category of lc from minimal data.

    groups: identity -> FgAbGroup.  poset_maps: (upper, lower) covering
    pair of the identity order -> ZMatrix.  arrow_maps: non-identity
    arrow g -> ZMatrix acting A_{d(g)} -> A_{r(g)}.  Every morphism
    (e, g) factors as (e, d(g)) then (d(g), g); the order part composes
    the covering maps down any covering path (the functoriality check
    rejects path-dependent data).
    """
    g0 = lc.groupoid
    down = {}
    for (lo, hi) in g0.identity_poset.covers():
        down.setdefault(hi, []).append(lo)

    def cover_path(e, f):
        # any covering chain e > ... > f
        if e == f:
            return [e]
        stack = [[e]]
        while stack:
            path = stack.pop()
            for nxt in sorted(down.get(path[-1], [])):
                if nxt == f:
                    return path + [nxt]
                if g0.identity_poset.leq(f, nxt):
                    stack.append(path + [nxt])
        raise StructuralDefect("no covering path from %r to %r" % (e, f))

    def poset_matrix(e, f):
        path = cover_path(e, f)
        mat = ZMatrix.identity(groups[e].ngens)
        for hi, lo in zip(path, path[1:]):
            step = poset_maps[(hi, lo)]
            mat = step.mul(mat)
        return mat

    action = {}
    for (e, g) in lc.category.morphisms:
        if g0.is_identity(g):
            mat = poset_matrix(e, g)
        else:
            mat = arrow_maps[g].mul(poset_matrix(e, g0.d[g]))
        action[(e, g)] = AbHom(groups[e], groups[g0.r[g]], mat)
    return GModule(lc.category, groups, action)


def expand(q, lc, b_module):
    """Pull a quotient-groupoid module back to the groupoid's category.

    Group at e is the group at the class of e; a morphism (e, g) acts as
    the class of g acts.  Order morphisms land on identity classes and
    therefore act as the identity.
    """
    groups = {e: b_module.groups[q.class_of[e]]
              for e in lc.groupoid.identities}
    action = {}
    for (e, g) in lc.category.morphisms:
        action[(e, g)] = b_module.action[q.class_of[g]]
    return GModule(lc.category, groups, action)


def expand_map(q, lc, xi):
    """Reindex a quotient-module map along the class projection."""
    src = expand(q, lc, xi.source)
    tgt = expand(q, lc, xi.target)
    comps = {e: xi.components[q.class_of[e]] for e in lc.groupoid.identities}
    return GMap(src, tgt, comps)


class ColimitPresentation:
    """Colimit of a module over a finite category.

    result = (direct sum of all groups) / (a - a ◁ m per morphism m);
    canonical[o] maps M(o) into the result; components pairs each
    connected component's objects with its own colimit group.
    """

    def __init__(self, category, module, result, canonical, components):
        self.category = category
        self.module = module
        self.result = result
        self.canonical = canonical
        self.components = components

    def __repr__(self):
        return "ColimitPresentation(%r)" % (self.result,)


def _presentation(cat, module, objs, morphisms):
    """(group, offsets, injections) presenting the colimit of `module`
    over `objs` along `morphisms`: the direct sum of the groups at objs
    modulo one relator column a - a ◁ m per generator a at dom(m), in
    the order given.  offsets[o] locates M(o)'s generators in the sum;
    injections[o] is the map M(o) -> group."""
    groups = [module.groups[o] for o in objs]
    total, injs, _ = direct_sum(groups)
    offsets = {}
    at = 0
    for o, g in zip(objs, groups):
        offsets[o] = at
        at += g.ngens
    cols = []
    for m in morphisms:
        src, tgt = cat.dom[m], cat.cod[m]
        amat = module.action[m].matrix
        for i in range(module.groups[src].ngens):
            col = [0] * total.ngens
            col[offsets[src] + i] += 1
            for rix in range(amat.nrows):
                col[offsets[tgt] + rix] -= amat.rows[rix][i]
            cols.append(col)
    group = FgAbGroup(total.ngens, total.relations.hstack(
        ZMatrix.from_cols(cols, total.ngens)))
    injections = {o: AbHom(g, group, inj.matrix, checked=True)
                  for o, g, inj in zip(objs, groups, injs)}
    return group, offsets, injections


def colim_category(cat, module):
    objs = list(cat.objects)
    morphisms = cat.nonidentity_morphisms()
    result, _, canonical = _presentation(cat, module, objs, morphisms)
    for m in morphisms:
        via = module.action[m].then(canonical[cat.cod[m]])
        if not via.equal_as_maps(canonical[cat.dom[m]]):
            raise StructuralDefect(
                "canonical maps fail to coequalize at %r" % (m,))

    components = []
    for comp_objs in cat.components():
        inset = set(comp_objs)
        comp_objs = [o for o in objs if o in inset]
        group, _, _ = _presentation(
            cat, module, comp_objs,
            [m for m in morphisms if cat.dom[m] in inset])
        components.append((comp_objs, group))

    summed = FgAbGroup(
        sum(g.ngens for _, g in components),
        block_diag([g.relations for _, g in components]))
    if summed.canonical_form() != result.canonical_form():
        raise StructuralDefect(
            "component decomposition disagrees with the total colimit")
    return ColimitPresentation(cat, module, result, canonical, components)


class ColimEResult:
    """Per-class colimits of a groupoid module, as a quotient module.

    module: the induced module over the quotient category; members maps
    each identity class to its identity members; offsets locates each
    member's generators inside the class presentation; alpha holds the
    canonical maps A_e -> L_{class of e}.
    """

    def __init__(self, q, source, module, members, offsets, alpha):
        self.q = q
        self.source = source
        self.module = module
        self.members = members
        self.offsets = offsets
        self.alpha = alpha

    def class_group(self, x):
        return self.module.groups[x]

    def __repr__(self):
        return "ColimEResult(%d classes)" % len(self.members)


def _quotient_action_column(g0, a_module, e, i, g, ell, tgt_group,
                            tgt_offsets):
    """Image of generator i of A_e under the action of the class of g,
    using ell as the middle identity; a column in L_target coordinates."""
    k = g0.restriction(ell, g)
    z = g0.r[k]
    step1 = a_module.action[(e, ell)].matrix
    step2 = a_module.action[(ell, k)].matrix
    vec = step2.apply(step1.col(i))
    col = [0] * tgt_group.ngens
    for rix, v in enumerate(vec):
        col[tgt_offsets[z] + rix] = v
    return col


def colim_E(g0, lc, a_module, q=None):
    """Colimit along the order inside each identity class, as a module
    over the quotient groupoid.

    The class of g acts on a generator a of A_e by restricting g to a
    common lower bound ell of e and d(g), pushing a down to A_ell, then
    along (ell, (ell|g)), and injecting at r((ell|g)).  Well-definedness
    over the presentation is enforced by the homomorphism constructor;
    choice independence has its own checker, check_quotient_action.
    """
    q = q or quotient(g0)
    qc = groupoid_as_category(q.groupoid)

    members = {}
    offsets = {}
    alpha = {}
    groups = {}
    for x in qc.objects:
        mem = [a for a in q.classes[x] if g0.is_identity(a)]
        members[x] = mem
        order_morphisms = [(e, f) for e in mem for f in mem
                           if f != e and g0.order.leq(f, e)]
        groups[x], offsets[x], injs = _presentation(
            lc.category, a_module, mem, order_morphisms)
        alpha.update(injs)

    action = {}
    for m in qc.morphisms:
        x, y = qc.dom[m], qc.cod[m]
        if qc.is_identity(m):
            action[m] = AbHom.identity(groups[x])
            continue
        g = m  # class ids are their least member arrow
        cols = []
        for e in members[x]:
            for i in range(a_module.groups[e].ngens):
                ell = min(g0.identity_lower_bounds(e, g0.d[g]))
                cols.append(_quotient_action_column(
                    g0, a_module, e, i, g, ell, groups[y], offsets[y]))
        mat = ZMatrix.from_cols(cols, groups[y].ngens)
        try:
            action[m] = AbHom(groups[x], groups[y], mat)
        except PreconditionViolation as exc:
            raise StructuralDefect(
                "quotient action of %r does not descend: %s" % (m, exc))

    module = GModule(qc, groups, action)
    return ColimEResult(q, a_module, module, members, offsets, alpha)


class ActionChoiceReport:
    def __init__(self, ok, counts, failures):
        self.ok = ok
        self.counts = counts
        self.failures = failures

    def __repr__(self):
        word = "pass" if self.ok else "FAIL"
        return "ActionChoiceReport(%s, %r)" % (word, self.counts)


def check_quotient_action(g0, lc, a_module):
    """The three independence assertions for the quotient action.

    (1) the middle identity ell may be any common lower bound;
    (2) the generator-level matrix descends to the presentation
        (independence of the preimage chosen for a class element);
    (3) the acting arrow may be any member of its class.
    """
    colim = colim_E(g0, lc, a_module)
    q = colim.q
    qc = colim.module.base
    counts = {"ell": 0, "descent": 0, "representative": 0}
    failures = []

    for m in qc.morphisms:
        if qc.is_identity(m):
            continue
        x, y = qc.dom[m], qc.cod[m]
        lx, ly = colim.module.groups[x], colim.module.groups[y]
        canonical = colim.module.action[m]

        for e in colim.members[x]:
            for i in range(a_module.groups[e].ngens):
                base_col = None
                for ell in sorted(g0.identity_lower_bounds(e, g0.d[m])):
                    col = _quotient_action_column(
                        g0, a_module, e, i, m, ell, ly, colim.offsets[y])
                    counts["ell"] += 1
                    if base_col is None:
                        base_col = col
                    else:
                        diff = [a - b for a, b in zip(col, base_col)]
                        if not ly.in_relation_span(diff):
                            failures.append(("ell", m, e, i, ell))

        counts["descent"] += 1
        if not hom_welldefined(lx, ly, canonical.matrix):
            failures.append(("descent", m))

        for rep in q.classes[m]:
            cols = []
            for e in colim.members[x]:
                for i in range(a_module.groups[e].ngens):
                    ell = min(g0.identity_lower_bounds(e, g0.d[rep]))
                    cols.append(_quotient_action_column(
                        g0, a_module, e, i, rep, ell, ly, colim.offsets[y]))
            counts["representative"] += 1
            alt = AbHom(lx, ly, ZMatrix.from_cols(cols, ly.ngens),
                        checked=True)
            if not alt.equal_as_maps(canonical):
                failures.append(("representative", m, rep))

    return ActionChoiceReport(not failures, counts, failures)


def colim_E_map(colim_src, colim_tgt, xi):
    """The map of class colimits induced by a module map."""
    comps = {}
    for x in colim_src.module.base.objects:
        blocks = [xi.components[e].matrix for e in colim_src.members[x]]
        mat = block_diag(blocks)
        comps[x] = AbHom(colim_src.module.groups[x],
                         colim_tgt.module.groups[x], mat)
    return GMap(colim_src.module, colim_tgt.module, comps)


def rho(colim, b_module, phi):
    """Turn a map A -> expansion(B) into colim_E(A) -> B.

    The component at a class stacks the components of phi over the
    class members; the relators die by naturality of phi."""
    comps = {}
    for x in colim.module.base.objects:
        mats = [phi.components[e].matrix for e in colim.members[x]]
        stacked = mats[0]
        for mat in mats[1:]:
            stacked = stacked.hstack(mat)
        comps[x] = AbHom(colim.module.groups[x], b_module.groups[x], stacked)
    return GMap(colim.module, b_module, comps)


def tau(colim, b_module, psi, expanded):
    """Turn a map colim_E(A) -> B into A -> expansion(B): at e, inject
    into the class colimit and apply the class component."""
    comps = {}
    for e, a_e in colim.alpha.items():
        x = colim.q.class_of[e]
        comps[e] = a_e.then(psi.components[x])
    return GMap(colim.source, expanded, comps)


def enumerate_gmaps(source, target, per_object_cap=200000):
    """Every natural transformation source -> target (finite hom sets).

    Candidates per object come from enumerate_homs; partial assignments
    are pruned by the naturality squares they already determine."""
    base = source.base
    objs = list(base.objects)
    index = {o: k for k, o in enumerate(objs)}
    cands = {o: enumerate_homs(source.groups[o], target.groups[o],
                               max_count=per_object_cap)
             for o in objs}
    ready = {k: [] for k in range(len(objs))}
    for m in base.morphisms:
        if base.is_identity(m):
            continue
        k = max(index[base.dom[m]], index[base.cod[m]])
        ready[k].append(m)

    results = []
    chosen = {}

    def natural_at(m):
        left = chosen[base.dom[m]].then(target.action[m])
        right = source.action[m].then(chosen[base.cod[m]])
        return left.equal_as_maps(right)

    def place(k):
        if k == len(objs):
            results.append(GMap(source, target, dict(chosen), checked=True))
            return
        o = objs[k]
        for h in cands[o]:
            chosen[o] = h
            if all(natural_at(m) for m in ready[k]):
                place(k + 1)
        chosen.pop(o, None)

    place(0)
    return results


class ColimCompositionReport:
    def __init__(self, lhs, rhs, equal_canonical, iso):
        self.lhs = lhs
        self.rhs = rhs
        self.equal_canonical = equal_canonical
        self.iso = iso

    @property
    def ok(self):
        return self.equal_canonical and self.iso

    def __repr__(self):
        return ("ColimCompositionReport(equal=%s, iso=%s, %r vs %r)"
                % (self.equal_canonical, self.iso,
                   self.lhs.result.canonical_form(),
                   self.rhs.result.canonical_form()))


def check_colim_composition(g0, lc, a_module):
    """Compare the one-step colimit over the groupoid category with the
    two-step colimit through the quotient, including an explicit
    comparison isomorphism induced by the universal property."""
    lhs = colim_category(lc.category, a_module)
    colim = colim_E(g0, lc, a_module)
    qc = colim.module.base
    rhs = colim_category(qc, colim.module)

    equal_canonical = (lhs.result.canonical_form()
                       == rhs.result.canonical_form())

    # forward: each generator of A_e goes through alpha_e into its class
    # group, then through the class group's canonical injection
    fwd_cols = []
    for e in lc.category.objects:
        x = colim.q.class_of[e]
        through = colim.alpha[e].then(rhs.canonical[x])
        for i in range(a_module.groups[e].ngens):
            fwd_cols.append(through.matrix.col(i))
    fwd = ZMatrix.from_cols(fwd_cols, rhs.result.ngens)

    # backward: each generator of A_e inside a class group goes through
    # the one-step canonical injection
    bwd_cols = []
    for x in qc.objects:
        for e in colim.members[x]:
            for i in range(a_module.groups[e].ngens):
                bwd_cols.append(lhs.canonical[e].matrix.col(i))
    bwd = ZMatrix.from_cols(bwd_cols, lhs.result.ngens)

    iso = False
    if (hom_welldefined(lhs.result, rhs.result, fwd)
            and hom_welldefined(rhs.result, lhs.result, bwd)):
        f = AbHom(lhs.result, rhs.result, fwd, checked=True)
        b = AbHom(rhs.result, lhs.result, bwd, checked=True)
        iso = (f.then(b).equal_as_maps(AbHom.identity(lhs.result))
               and b.then(f).equal_as_maps(AbHom.identity(rhs.result)))
    return ColimCompositionReport(lhs, rhs, equal_canonical, iso)
