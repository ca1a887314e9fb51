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
                 a - a ◁ m, so the canonical maps coequalize by
                 construction.

rho and tau convert between maps out of colim_E and maps into an
expansion; check_adjunction verifies that colim_E is left adjoint to
expand through the unit, the counit and the two triangle identities.
"""

from functools import cache

from .beta import quotient
from .errors import PreconditionViolation, StructuralDefect
from .zmodule import (
    AbHom,
    FgAbGroup,
    ZMatrix,
    block_diag,
    hom_welldefined,
)


class GModule:
    """Functor from a finite category to abelian groups.

    groups: object -> FgAbGroup; action: morphism -> AbHom.  The
    constructor checks functoriality with check_functorial, which
    decides the composite law at generators of the base.
    """

    def __init__(self, base, groups, action):
        self.base = base
        self.groups = dict(groups)
        self.action = dict(action)
        problems = check_functorial(base, self.groups, self.action)
        if problems:
            raise StructuralDefect("not a module: %s" % problems[0])

    def __repr__(self):
        return "GModule(%d objects)" % len(self.groups)


def check_functorial(base, groups, action):
    """Functoriality violations as readable strings (empty = module).

    The composite law is decided only at pairs (m, s), m a non-identity
    morphism and s in base.generators().  With the identity law and
    every hom well defined (an AbHom's invariant) that proves it at
    every pair (m1, m2), by induction on m2 = m2' s: F(m1 m2' s) =
    F(m1 m2') then F(s) = F(m1) then F(m2') then F(s) = F(m1) then
    F(m2' s) as maps, where following an equality of maps by F(s) needs
    F(s) well defined and preceding one by F(m1) needs nothing.  On any
    failure every composable pair is decided, so the problems are those
    of the full pair loop, in its order.
    """
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
    # a pulled-back module shares one hom among the morphisms of a class,
    # so each distinct triple of hom objects is decided once
    verdicts = {}

    def holds(m1, m2):
        key = (action[m1], action[m2], action[base.compose(m1, m2)])
        if key not in verdicts:
            verdicts[key] = key[0].then(key[1]).equal_as_maps(key[2])
        return verdicts[key]

    if not out:
        gens = set(base.generators())
        if all(holds(m, s) for m in base.nonidentity_morphisms()
               for s in base.outgoing[base.cod[m]] if s in gens):
            return out
    return out + ["functoriality fails at (%r, %r)" % (m1, m2)
                  for m1 in base.morphisms
                  for m2 in base.outgoing[base.cod[m1]] if not holds(m1, m2)]


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
    """Naturality violations as readable strings (empty = natural).

    Naturality is decided at base.generators() only: at m' s it follows
    from m' and s as functoriality does in check_functorial, given that
    the modules are functorial and the components well defined, and at
    identities from the identity law.  If a generator fails, every
    morphism is decided, so the problems are those of the full loop.
    """
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

    def natural_at(m):
        left = components[base.dom[m]].then(target.action[m])
        right = source.action[m].then(components[base.cod[m]])
        return left.equal_as_maps(right)

    if all(map(natural_at, base.generators())):
        return out
    return ["naturality fails at %r" % (m,)
            for m in base.morphisms if not natural_at(m)]


def module_from_parts(lc, groups, poset_maps, arrow_maps):
    """Assemble a module over the category of lc from minimal data.

    groups: identity -> FgAbGroup.  poset_maps: (upper, lower) covering
    pair of the identity order -> ZMatrix.  arrow_maps: non-identity
    arrow g -> ZMatrix acting A_{d(g)} -> A_{r(g)}.  Every morphism
    (e, g) factors as (e, d(g)) then (d(g), g); the order part composes
    the covering maps down the chain that steps from e to f if f covers
    e, else to e's largest cover above f (the functoriality check
    rejects path-dependent data).

    Each covering map and arrow map is the action of one morphism, and
    every action is a product of them, so well-definedness is checked
    once per input map, which is refused if it does not descend, and
    the products are taken as checked.
    """
    g0 = lc.groupoid
    down = {}
    for (lo, hi) in g0.identity_poset.covers():
        down.setdefault(hi, []).append(lo)
    for hi, lows in down.items():
        for lo in lows:
            AbHom(groups[hi], groups[lo], poset_maps[(hi, lo)])
    for g in g0.nonidentity_arrows():
        AbHom(groups[g0.d[g]], groups[g0.r[g]], arrow_maps[g])

    @cache
    def poset_matrix(e, f):
        mat = ZMatrix.identity(groups[e].ngens)
        while e != f:
            nxt = f if f in down[e] else max(
                lo for lo in down[e] if g0.identity_poset.leq(f, lo))
            mat = poset_maps[(e, nxt)].mul(mat)
            e = nxt
        return mat

    action = {}
    for (e, g) in lc.category.morphisms:
        if g0.is_identity(g):
            mat = poset_matrix(e, g)
        else:
            mat = arrow_maps[g].mul(poset_matrix(e, g0.d[g]))
        action[(e, g)] = AbHom(groups[e], groups[g0.r[g]], mat, checked=True)
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


def _presentation(cat, module, objs, morphisms):
    """(group, offsets) presenting the colimit of `module` over `objs`
    along `morphisms`: the direct sum of the groups at objs modulo the
    relator columns a - a ◁ m, for each generator a at dom(m) in the
    order given, each nonzero relator once, up to sign.  A skipped
    relator is zero or ± one already written, so the span, and so the
    colimit, is that of every a - a ◁ m.  M(o) sits in the sum at
    offsets[o]: its generator i is generator offsets[o] + i of group."""
    groups = [module.groups[o] for o in objs]
    offsets = {}
    total = 0
    for o, g in zip(objs, groups):
        offsets[o] = total
        total += g.ngens
    cols = []
    written = {(0,) * total}
    for m in morphisms:
        src, tgt = cat.dom[m], cat.cod[m]
        amat = module.action[m].matrix
        for i in range(module.groups[src].ngens):
            col = [0] * total
            col[offsets[src] + i] += 1
            for rix in range(amat.nrows):
                col[offsets[tgt] + rix] -= amat.rows[rix][i]
            col = tuple(col)
            if col not in written:
                written.update((col, tuple(-v for v in col)))
                cols.append(col)
    group = FgAbGroup(total, block_diag([g.relations for g in groups])
                      .hstack(ZMatrix.from_cols(cols, total)))
    return group, offsets


def colim_category(cat, module):
    """The colimit of `module` over `cat` as (group, offsets): `group` is
    the direct sum of the groups at all objects modulo the relators
    a - a ◁ m, for each generator a at the domain of each non-identity
    morphism m, each nonzero relator once, up to sign; and M(o) sits in
    it at `offsets[o]`, its generator i being generator offsets[o] + i.

    The canonical maps, generator i of M(o) to generator offsets[o] + i,
    coequalize by construction: along m, a ◁ m at cod(m) minus a at
    dom(m) is the negated relator of a and m, a column of `group` unless
    it is zero or ± one already written.  No relator joins two connected
    components, so `group` is the block sum of their colimits by
    construction; the H_0 comparison of `homology` and the oracle
    `tests/oracles.py::colim_by_components` guard it.

    >>> from oghom import fixtures
    >>> b = fixtures.load("chain2")
    >>> group, offsets = colim_category(b.lc.category, b.modules["const"])
    >>> group.canonical_form(), offsets
    ((1, ()), {'e': 0, 'f': 1})
    """
    return _presentation(cat, module, list(cat.objects),
                         cat.nonidentity_morphisms())


class ColimEResult:
    """Per-class colimits of a groupoid module, as a quotient module.

    module: the induced module over the quotient category; members maps
    each identity class to its identity members; A_e sits in the group
    L_x of its class x at offsets[x][e]: the canonical map A_e -> L_x
    sends generator i of A_e to generator offsets[x][e] + i.
    """

    def __init__(self, q, source, module, members, offsets):
        self.q = q
        self.source = source
        self.module = module
        self.members = members
        self.offsets = offsets

    def __repr__(self):
        return "ColimEResult(%d classes)" % len(self.members)


def _quotient_action_column(g0, a_module, e, i, g, ell, tgt_group,
                            tgt_offsets):
    """Image of generator i of A_e under the action of the class of g,
    through the morphism (e, (ell|g)) of L(G), which is (e, ell) then
    (ell, (ell|g)); a column in L_target coordinates."""
    k = g0.restriction(ell, g)
    at = tgt_offsets[g0.r[k]]
    col = [0] * tgt_group.ngens
    for rix, v in enumerate(a_module.action[(e, k)].matrix.col(i)):
        col[at + rix] = v
    return col


def _class_action_matrix(g0, a_module, members, g, tgt_group, tgt_offsets):
    """The class of g acting on the generators of the members' groups,
    each through the least common lower bound of its identity and d(g)."""
    cols = []
    for e in members:
        ell = min(g0.identity_lower_bounds(e, g0.d[g]))
        for i in range(a_module.groups[e].ngens):
            cols.append(_quotient_action_column(
                g0, a_module, e, i, g, ell, tgt_group, tgt_offsets))
    return ZMatrix.from_cols(cols, tgt_group.ngens)


def colim_E(g0, lc, a_module):
    """Colimit along the order inside each identity class, as a module
    over the quotient groupoid.

    The class of g acts on a generator a of A_e through the morphism
    (e, (ell|g)) of L(G), ell a common lower bound of e and d(g), and
    lands at r((ell|g)).  Well-definedness over the presentation is
    enforced by the homomorphism constructor; choice independence has
    its own checker, check_quotient_action.
    """
    q = quotient(g0)
    qc = q.category

    members = {}
    offsets = {}
    groups = {}
    for x in qc.objects:
        mem = [a for a in q.classes[x] if g0.is_identity(a)]
        members[x] = mem
        order_morphisms = [(e, f) for e in mem for f in mem
                           if f != e and g0.order.leq(f, e)]
        groups[x], offsets[x] = _presentation(
            lc.category, a_module, mem, order_morphisms)

    action = {}
    for m in qc.morphisms:
        x, y = qc.dom[m], qc.cod[m]
        if qc.is_identity(m):
            action[m] = AbHom.identity(groups[x])
            continue
        # class ids are their least member arrow
        mat = _class_action_matrix(g0, a_module, members[x], m, groups[y],
                                   offsets[y])
        try:
            action[m] = AbHom(groups[x], groups[y], mat)
        except PreconditionViolation as exc:
            raise StructuralDefect(
                "quotient action of %r does not descend: %s" % (m, exc))

    module = GModule(qc, groups, action)
    return ColimEResult(q, a_module, module, members, offsets)


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
            counts["representative"] += 1
            mat = _class_action_matrix(
                g0, a_module, colim.members[x], rep, ly, colim.offsets[y])
            alt = AbHom(lx, ly, mat, checked=True)
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
    """Turn a map colim_E(A) -> B into A -> expansion(B): at e, the
    class component psi_x on A_e, which is its columns offsets[x][e] up
    to offsets[x][e] + ngens(A_e)."""
    comps = {}
    for x, mem in colim.members.items():
        psi_x = psi.components[x]
        for e in mem:
            a_e = colim.source.groups[e]
            at = colim.offsets[x][e]
            cols = ZMatrix._trusted(
                [row[at:at + a_e.ngens] for row in psi_x.matrix.rows],
                a_e.ngens)
            comps[e] = AbHom(a_e, psi_x.target, cols, checked=True)
    return GMap(colim.source, expanded, comps)


def check_adjunction(g0, lc, a_module):
    """(colim_ok, expand_ok): the two triangle identities of colim_E ⊣ E
    at A = a_module and B = colim_E(A).

    The unit at A is tau of the identity of colim_E(A) and the counit at
    B is rho of the identity of E(B).  colim_ok says the counit after
    colim_E of the unit is the identity of B, which makes rho(tau(psi))
    = psi for every psi out of colim_E(A); expand_ok says E of the
    counit after the unit at E(B) is the identity of E(B), which makes
    tau(rho(phi)) = phi for every phi into E(B).  E of the counit is
    read componentwise, at e the counit's component at the class of e;
    rho checks the counit for naturality, and every other map's
    constructor checks it.  E(B) and E(colim_E E(B)) are built once.
    """
    colim_a = colim_E(g0, lc, a_module)
    q, b_module = colim_a.q, colim_a.module
    eb = expand(q, lc, b_module)
    colim_eb = colim_E(g0, lc, eb)
    unit_a = tau(colim_a, b_module, GMap.identity(b_module), eb)
    counit_b = rho(colim_eb, b_module, GMap.identity(eb))
    colim_ok = colim_E_map(colim_a, colim_eb, unit_a).then(counit_b).equal(
        GMap.identity(b_module))
    unit_eb = tau(colim_eb, colim_eb.module, GMap.identity(colim_eb.module),
                  expand(q, lc, colim_eb.module))
    expand_ok = all(h.then(counit_b.components[q.class_of[e]]).equal_as_maps(
        AbHom.identity(eb.groups[e])) for e, h in unit_eb.components.items())
    return colim_ok, expand_ok


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
                   self.lhs.canonical_form(), self.rhs.canonical_form()))


def _unit_columns(image, nrows):
    """The 0/1 matrix whose column j is the unit vector at image[j]."""
    return ZMatrix._trusted([[1 if i == r else 0 for i in image]
                             for r in range(nrows)], len(image))


def check_colim_composition(g0, lc, a_module):
    """Compare the one-step colimit over the groupoid category (lhs) with
    the two-step colimit through the quotient (rhs), including an
    explicit comparison isomorphism induced by the universal property.

    Generator i of A_e is generator lhs_at[e] + i of lhs and, with x
    the class of e, generator rhs_at[x] + offsets[x][e] + i of rhs.  The
    comparison maps fwd and bwd send each such generator of one side to
    the same generator of the other: unit columns read off the offsets.
    """
    lhs, lhs_at = colim_category(lc.category, a_module)
    colim = colim_E(g0, lc, a_module)
    rhs, rhs_at = colim_category(colim.module.base, colim.module)

    equal_canonical = lhs.canonical_form() == rhs.canonical_form()

    fwd_image = [None] * lhs.ngens
    bwd_image = [None] * rhs.ngens
    for x, mem in colim.members.items():
        for e in mem:
            for i in range(a_module.groups[e].ngens):
                left = lhs_at[e] + i
                right = rhs_at[x] + colim.offsets[x][e] + i
                fwd_image[left] = right
                bwd_image[right] = left
    fwd = _unit_columns(fwd_image, rhs.ngens)
    bwd = _unit_columns(bwd_image, lhs.ngens)

    iso = False
    if hom_welldefined(lhs, rhs, fwd) and hom_welldefined(rhs, lhs, bwd):
        f = AbHom(lhs, rhs, fwd, checked=True)
        b = AbHom(rhs, lhs, bwd, checked=True)
        iso = (f.then(b).equal_as_maps(AbHom.identity(lhs))
               and b.then(f).equal_as_maps(AbHom.identity(rhs)))
    return ColimCompositionReport(lhs, rhs, equal_canonical, iso)
