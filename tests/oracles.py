"""Independent oracles the test suite measures the library against.

Everything here avoids the code paths it is used to check.  The
brute-force homology works on explicit element tuples with modular
counting, never touching Smith forms; the cyclic-group answers come
from the two-periodic resolution, where every boundary map is
multiplication by a single integer and the whole computation is gcd
arithmetic; the dense homology solves the unreduced boundaries,
skipping the unit-pivot elimination of `ChainComplex.homology`, and the
dense nerve builds block-diagonal relation matrices and dense boundary
columns in presented coordinates, where the library writes each
coefficient group in canonical coordinates first and emits sparse
columns; `complex_from_dense` transports such dense groups and
boundaries to canonical coordinates, block by block, and hands them to
`ChainComplex`, checking their endpoints on the way.
Determinants (and so unimodularity of Smith transforms) come from a
Bareiss elimination of their own.  `snf_min_abs` is the Smith form the
library used before its Kannan-Bachem alternation: elimination around
an entry of least absolute value, with unreduced transforms; the tests
compare its diagonal with the library's.  `SmithColumnSolver` is the
solver the library used before its one Hermite pass: solves and kernels
read from a Smith form with both transforms.
Relation-span membership is read from the canonical coordinates of a
min-abs Smith form (`in_relation_span_by_min_abs`), where the library
reduces the vector by an echelon basis of the relations; the Hermite
solve `in_relation_span_by_solve` shares that reduction
(`EchelonBasis.residual`), so it is a second view, not an independent
one.  Canonical orders come from the diagonal of a Smith form
with transforms, where the library runs the same passes with no
transform tracked.
`ideals_directed_by_scan` decides principal directedness by looking
for two members of a principal ideal with no common lower bound in it,
where the library decides it by the transitivity of beta;
`beta_transitive_by_sets` decides that transitivity on Python sets of
arrows, where the library ORs bitsets.
The category checks read a `NamedTable`, a category's data with its
composites keyed by pairs of names, where the library reads integer
rows; an edited table reaches the library through the public
constructor.
The all-pairs scans visit every pair or triple of arrows
or morphisms where the library reads only composable ones from
per-object buckets.  The per-triple loops compare (gh)k with g(hk) one
triple at a time, and OG2 one pair of order pairs at a time, where the
library compares whole rows of composites; they keep the library's
visiting order, so problems and violations must agree as lists.
`lcat_compose` composes in L(G) one pair of morphisms at a time, where
the library computes each composite arrow once per pair of arrows.
`module_action_by_dfs` composes a module's order maps down the covering
path that a depth-first search finds, where the library walks down
the largest cover above the target.
Hom sets of groups and of modules are listed element by element, where
the library checks the colim_E/expansion adjunction through its unit,
counit and triangle identities; `direct_sum` builds a sum group with
injections and projections through the converting `ZMatrix`
constructor.  A colimit's summands are placed by dense identity-block
injections (`injection`), and the comparison maps of
`check_colim_composition` are products of them
(`colim_composition_by_injections`), where the library reads unit
columns and column slices off the colimit's offsets.
`colim_by_components` presents a colimit one connected component at a
time and sums the parts, where the library presents the whole
category at once.
`class_actions_by_two_steps` moves a generator of A_e down to a lower
bound and then along the restricted arrow, one product per step, where
`colim_E` reads one composite morphism of L(G); and
`expand_triangle_by_expand_map` checks the second triangle identity
through `expand_map`, where `check_adjunction` reads E of the counit
off the counit's components.
A document's first schema error comes from jsonschema's Draft 2020-12
validator over the schema dicts of `oghom.io`, where the library walks
those dicts with its own checker.
Lattices are compared by their reduced Hermite rows, made by
elimination around an entry of least absolute value
(`hermite_rows_by_min_abs`), where the library inserts rows with Bezout
steps; integer kernels come from the same elimination on [A^T | I].
Finite groups are closed from permutations (`permutation_group`), with
tables of their own.
"""

import warnings
from math import gcd

from jsonschema import Draft202012Validator

from oghom.category import FiniteCategory
from oghom.errors import NotComposable, PreconditionViolation, StructuralDefect
from oghom.gmodules import (
    GMap,
    GModule,
    _presentation,
    colim_category,
    colim_E,
    expand,
    expand_map,
    module_from_parts,
    rho,
    tau,
)
from oghom.homology import MAX_CHAIN_RANK, ChainComplex, _chain_tuples
from oghom.lcat import build_lcat
from oghom.randgen import _cyclic_group, random_og
from oghom.zmodule import (
    AbHom,
    ColumnSolver,
    FgAbGroup,
    SNFResult,
    ZMatrix,
    block_diag,
    hom_welldefined,
    homology_at,
    snf,
)


# ---------------------------------------------------------------- direct sums and hom sets


def direct_sum(groups):
    """Direct sum with injections and projections.

    Returns (sum group, [injections], [projections]).
    """
    groups = list(groups)
    total = sum(g.ngens for g in groups)
    rel = block_diag([g.relations for g in groups])
    s = FgAbGroup(total, rel)
    injections = []
    projections = []
    offset = 0
    for g in groups:
        inj = [[0] * g.ngens for _ in range(total)]
        proj = [[0] * total for _ in range(g.ngens)]
        for i in range(g.ngens):
            inj[offset + i][i] = 1
            proj[i][offset + i] = 1
        injections.append(AbHom(g, s, ZMatrix(inj, ncols=g.ngens), checked=True))
        projections.append(AbHom(s, g, ZMatrix(proj, ncols=total), checked=True))
        offset += g.ngens
    return s, injections, projections


def enumerate_homs(source, target, max_count=200000):
    """Every homomorphism source -> target, as AbHom objects.

    Works through the canonical decompositions; the hom set must be
    finite (source torsion or target finite).
    """
    s_orders, (s_u, _) = source.canonical_orders(), source._decomposition()
    t_orders, (_, t_uinv) = target.canonical_orders(), target._decomposition()
    free_target = any(d == 0 for d in t_orders)

    per_coord = []
    for a in s_orders:
        if a == 0 and free_target:
            raise PreconditionViolation("hom set is infinite")
        choices_per_tcoord = []
        for b in t_orders:
            if a == 0:
                vals = list(range(b))  # free source generator, finite target
            elif b == 0:
                vals = [0]
            else:
                g = gcd(a, b)
                step = b // g
                vals = [step * k for k in range(g)]
            choices_per_tcoord.append(vals)
        per_coord.append(choices_per_tcoord)

    count = 1
    for choices in per_coord:
        for vals in choices:
            count *= len(vals)
    if count > max_count:
        raise PreconditionViolation("hom set has %d elements, cap %d"
                                    % (count, max_count))

    homs = []
    ncoords = len(s_orders)

    def build(i, cols):
        if i == ncoords:
            canon = ZMatrix.from_cols(cols, len(t_orders))
            mat = t_uinv.mul(canon).mul(s_u)
            homs.append(AbHom(source, target, mat, checked=True))
            return
        def fill(j, col):
            if j == len(t_orders):
                build(i + 1, cols + [tuple(col)])
                return
            for val in per_coord[i][j]:
                fill(j + 1, col + [val])
        fill(0, [])

    build(0, [])
    return homs


def enumerate_gmaps(source, target):
    """Every natural transformation source -> target (finite hom sets).

    Candidates per object come from enumerate_homs; partial assignments
    are pruned by the naturality squares they already determine."""
    base = source.base
    objs = list(base.objects)
    index = {o: k for k, o in enumerate(objs)}
    cands = {o: enumerate_homs(source.groups[o], target.groups[o])
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


def injection(source, group, offset):
    """The identity-block map source -> group sending generator i to
    generator offset + i, through the checking `AbHom` constructor: the
    map a colimit kept for each summand before it kept only the
    summand's offset."""
    return AbHom(source, group, ZMatrix(
        [[1 if r - offset == i else 0 for i in range(source.ngens)]
         for r in range(group.ngens)], ncols=source.ngens))


def colim_by_components(cat, module):
    """(group, parts): the colimit of `module` over `cat` as the direct
    sum of its connected components' colimits, each presented on its
    own by `_presentation`; parts lists each component's (group,
    offsets) in the order of `cat.components()`."""
    objs = list(cat.objects)
    morphisms = cat.nonidentity_morphisms()
    parts = []
    for comp in cat.components():
        inset = set(comp)
        parts.append(_presentation(
            cat, module, [o for o in objs if o in inset],
            [m for m in morphisms if cat.dom[m] in inset]))
    group = FgAbGroup(sum(g.ngens for g, _ in parts),
                      block_diag([g.relations for g, _ in parts]))
    return group, parts


def colim_composition_by_injections(g0, lc, a_module):
    """(equal_canonical, iso) of `check_colim_composition` with the
    comparison maps built from injection products, where the library
    reads unit columns off the offsets: forward, A_e goes through its
    injection into its class group and on through that group's
    injection into the two-step colimit; backward, A_e inside a class
    group goes through its injection into the one-step colimit."""
    lhs, lhs_at = colim_category(lc.category, a_module)
    colim = colim_E(g0, lc, a_module)
    qc = colim.module.base
    rhs, rhs_at = colim_category(qc, colim.module)
    equal_canonical = lhs.canonical_form() == rhs.canonical_form()

    fwd_cols = []
    for e in lc.category.objects:
        x = colim.q.class_of[e]
        lx = colim.module.groups[x]
        through = injection(a_module.groups[e], lx, colim.offsets[x][e]).then(
            injection(lx, rhs, rhs_at[x]))
        fwd_cols += [through.matrix.col(i) for i in range(through.source.ngens)]
    fwd = ZMatrix.from_cols(fwd_cols, rhs.ngens)

    bwd_cols = []
    for x in qc.objects:
        for e in colim.members[x]:
            inj = injection(a_module.groups[e], lhs, lhs_at[e])
            bwd_cols += [inj.matrix.col(i) for i in range(inj.source.ngens)]
    bwd = ZMatrix.from_cols(bwd_cols, lhs.ngens)

    iso = False
    if (hom_welldefined(lhs, rhs, fwd)
            and hom_welldefined(rhs, lhs, bwd)):
        f = AbHom(lhs, rhs, fwd, checked=True)
        b = AbHom(rhs, lhs, bwd, checked=True)
        iso = (f.then(b).equal_as_maps(AbHom.identity(lhs))
               and b.then(f).equal_as_maps(AbHom.identity(rhs)))
    return equal_canonical, iso


def class_actions_by_two_steps(g0, colim):
    """{m: matrix} for each non-identity morphism m of G/beta: the class
    of m acting on colim's groups as `colim_E` did before it read one
    morphism of L(G).  Generator i of A_e is pushed down along (e, ell),
    ell the least common lower bound of e and d(m), and the result along
    (ell, (ell|m)), one matrix-vector product each, where the library
    reads column i of the composite (e, (ell|m))."""
    a_module, qc = colim.source, colim.module.base
    out = {}
    for m in qc.nonidentity_morphisms():
        target = colim.module.groups[qc.cod[m]]
        cols = []
        for e in colim.members[qc.dom[m]]:
            ell = min(g0.identity_lower_bounds(e, g0.d[m]))
            k = g0.restriction(ell, m)
            step1 = a_module.action[(e, ell)].matrix
            step2 = a_module.action[(ell, k)].matrix
            at = colim.offsets[qc.cod[m]][g0.r[k]]
            for i in range(a_module.groups[e].ngens):
                col = [0] * target.ngens
                for rix, v in enumerate(step2.apply(step1.col(i))):
                    col[at + rix] = v
                cols.append(col)
        out[m] = ZMatrix.from_cols(cols, target.ngens)
    return out


def expand_triangle_by_expand_map(g0, lc, a_module):
    """The second triangle identity of colim_E ⊣ E at B = colim_E(A), as
    `check_adjunction` checked it before reading E of the counit
    componentwise: the unit at E(B) then `expand_map` of the counit,
    which expands B and colim_E E(B) once more and checks naturality
    over L(G), compared with the identity of E(B) as module maps."""
    colim_a = colim_E(g0, lc, a_module)
    q, b_module = colim_a.q, colim_a.module
    eb = expand(q, lc, b_module)
    colim_eb = colim_E(g0, lc, eb)
    counit_b = rho(colim_eb, b_module, GMap.identity(eb))
    unit_eb = tau(colim_eb, colim_eb.module, GMap.identity(colim_eb.module),
                  expand(q, lc, colim_eb.module))
    return unit_eb.then(expand_map(q, lc, counit_b)).equal(GMap.identity(eb))


# ---------------------------------------------------------------- Smith forms


def snf_min_abs(m):
    """Smith normal form with tracked transforms, eliminating around an
    entry of least absolute value without reducing the transforms.

    Returns an SNFResult with u.mul(m).mul(v) == s, both transforms
    unimodular, the diagonal of s non-negative, and each diagonal entry
    dividing the next.  Reduction is gcd-driven with the pivot chosen as
    a minimal-absolute-value entry of the remaining submatrix.

    >>> res = snf_min_abs(ZMatrix([[4, 2], [2, 2]]))
    >>> res.diagonal
    (2, 2)
    >>> res.u.mul(ZMatrix([[4, 2], [2, 2]])).mul(res.v) == res.s
    True
    """
    nr, nc = m.nrows, m.ncols
    a = [list(row) for row in m.rows]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    uinv = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    vinv = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]
        for row in uinv:
            row[i], row[k] = row[k], row[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for row in uinv:
            row[i] = -row[i]

    def addmul_row(i, k, q):
        # row i += q * row k
        ai, ak = a[i], a[k]
        for j in range(nc):
            if ak[j]:
                ai[j] += q * ak[j]
        ui, uk = u[i], u[k]
        for j in range(nr):
            if uk[j]:
                ui[j] += q * uk[j]
        for row in uinv:
            if row[i]:
                row[k] -= q * row[i]

    def swap_cols(j, l):
        for row in a:
            row[j], row[l] = row[l], row[j]
        for row in v:
            row[j], row[l] = row[l], row[j]
        vinv[j], vinv[l] = vinv[l], vinv[j]

    def addmul_col(j, l, q):
        # col j += q * col l
        for row in a:
            if row[l]:
                row[j] += q * row[l]
        for row in v:
            if row[l]:
                row[j] += q * row[l]
        vl, vj = vinv[l], vinv[j]
        for c in range(nc):
            if vj[c]:
                vl[c] -= q * vj[c]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        # pivot: minimal absolute value in the remaining submatrix
        best = None
        pi = pj = -1
        for i in range(t, nr):
            row = a[i]
            for j in range(t, nc):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pi, pj = i, j
        if best is None:
            break
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)
        pivot = a[t][t]

        dirty = False
        for i in range(t + 1, nr):
            x = a[i][t]
            if x:
                addmul_row(i, t, -(x // pivot))
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, nc):
            x = a[t][j]
            if x:
                addmul_col(j, t, -(x // pivot))
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # a smaller entry appeared; reselect the pivot

        # pivot must divide everything that remains
        fix = None
        for i in range(t + 1, nr):
            row = a[i]
            for j in range(t + 1, nc):
                if row[j] % pivot:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            addmul_row(t, fix, 1)  # column t untouched: a[fix][t] == 0
            continue
        t += 1

    return SNFResult(ZMatrix._trusted(a, nc), ZMatrix._trusted(u, nr),
                     ZMatrix._trusted(v, nc), ZMatrix._trusted(uinv, nr),
                     ZMatrix._trusted(vinv, nc))


class SmithColumnSolver:
    """Solves M X = C over the integers from a Smith form S = U M V with
    transforms, where the library's `ColumnSolver` runs one Hermite pass
    with only a left transform: x = V y with y_i = (U c)_i / s_i, and
    None when a quotient is not exact or U c is nonzero past the rank.
    The columns of V past the rank are a basis of the kernel of M."""

    def __init__(self, m):
        self.m = m
        self._res = snf(m)
        self._diag = self._res.diagonal
        self.kernel = ZMatrix.from_cols(
            [self._res.v.col(j) for j in range(self._res.rank, m.ncols)],
            m.ncols)

    def solve_vector(self, vec):
        """Some integer x with M x = vec, or None."""
        res = self._res
        w = res.u.apply(vec)
        y = [0] * self.m.ncols
        for i, wi in enumerate(w):
            d = self._diag[i] if i < len(self._diag) else 0
            if d == 0:
                if wi != 0:
                    return None
            else:
                if wi % d:
                    return None
                y[i] = wi // d
        return res.v.apply(y)


# ---------------------------------------------------------------- canonical coordinates


def canonical_orders_by_snf(group):
    """Orders of the canonical coordinates from the diagonal of a Smith
    form with transforms, padded with zeros to the number of generators."""
    diag = snf(group.relations).diagonal
    return tuple(diag) + (0,) * (group.ngens - len(diag))


def group_order(group):
    """Number of elements of the group, None when it is infinite."""
    rank, torsion = group.canonical_form()
    if rank:
        return None
    n = 1
    for d in torsion:
        n *= d
    return n


def element_vectors(group, limit=None):
    """All elements in canonical coordinates; error if infinite or past
    `limit`."""
    n = group_order(group)
    if n is None:
        raise PreconditionViolation("group is infinite")
    if limit is not None and n > limit:
        raise PreconditionViolation("group has %d elements, limit %d" % (n, limit))
    elems = [()]
    for d in group.canonical_orders():
        span = range(d if d else 1)
        elems = [e + (v,) for e in elems for v in span]
    return elems


def add_canonical(group, a, b):
    return tuple((x + y) % d if d else x + y
                 for x, y, d in zip(a, b, group.canonical_orders()))


def scale_canonical(group, k, a):
    return tuple((k * x) % d if d else k * x
                 for x, d in zip(a, group.canonical_orders()))


def same_invariants(g, h):
    return g.canonical_form() == h.canonical_form()


# ---------------------------------------------------------------- determinants


def det(m):
    """Exact determinant of a square ZMatrix by fraction-free (Bareiss)
    elimination on a copy of its rows."""
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    a = [list(row) for row in m.rows]
    n, sign, prev = m.nrows, 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def is_unimodular(m):
    return m.nrows == m.ncols and abs(det(m)) == 1


# ---------------------------------------------------------------- element-level homology


def _prime_factors(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def brute_force_homology(f, g):
    """Invariant factors of ker(g)/im(f), counted element by element.

    Requires finite groups throughout.  For each prime p the p-part of
    the quotient is read off from the sizes of the subgroups
    S_j = {x in ker g : p^j x in im f}: the number of cyclic p-factors
    with exponent >= j is log_p(|S_j| / |S_{j-1}|).

    Returns a (rank, torsion) pair shaped like FgAbGroup.canonical_form,
    rank always 0.
    """
    def apply_canonical(hom, y):
        # hom on canonical coordinates: lift y, apply, read back
        x = hom.source.from_canonical(y)
        return hom.target.to_canonical(hom.apply(x))

    b = f.target
    czero = tuple(0 for _ in g.target.canonical_orders())
    kernel = [x for x in element_vectors(b) if apply_canonical(g, x) == czero]
    image = {apply_canonical(f, a) for a in element_vectors(f.source)}
    kset = set(kernel)
    if not image <= kset:
        raise AssertionError("composite is not zero on elements")

    total = len(kernel) // len(image)
    per_prime = {}
    for p in _prime_factors(total):
        sizes = [len(image)]
        while True:
            hit = sum(
                1 for x in kernel if scale_canonical(b, p ** len(sizes), x) in image
            )
            if hit == sizes[-1]:
                break
            sizes.append(hit)
        # log_p of each ratio = number of cyclic p-factors of that exponent or more
        geq = []
        for j in range(1, len(sizes)):
            ratio = sizes[j] // sizes[j - 1]
            e = 0
            while ratio > 1:
                ratio //= p
                e += 1
            geq.append(e)
        powers = []
        for j in range(1, len(geq) + 1):
            nxt = geq[j] if j < len(geq) else 0
            powers.extend([p ** j] * (geq[j - 1] - nxt))
        per_prime[p] = sorted(powers, reverse=True)

    chain = []
    while any(per_prime.values()):
        d = 1
        for powers in per_prime.values():
            if powers:
                d *= powers.pop(0)
        chain.append(d)
    chain.reverse()
    return (0, tuple(chain))


# ---------------------------------------------------------------- dense homology


def dense_homology(groups, boundaries, n):
    """Canonical form of H_n of dense groups and boundary homs
    (boundaries[0] is None) from one solve on the unreduced boundaries,
    with no pivot elimination."""
    f = boundaries[n + 1]
    if n == 0:
        g = AbHom.zero(groups[0], FgAbGroup.trivial())
    else:
        g = boundaries[n]
    return homology_at(f, g).canonical_form()


def homology_by_kernel_lattice(cx, n):
    """H_n of a ChainComplex by one `homology_at` solve on the dense views
    of its reduced complex, the zero map to the trivial group standing in
    for ∂_0: the route `ChainComplex.homology` took in every degree
    before it read a zero residual ∂_n as a cokernel."""
    red = cx.reduced()
    f = red.boundaries[n + 1]
    if n == 0:
        g = AbHom.zero(red.groups[0], FgAbGroup.trivial())
    else:
        g = red.boundaries[n]
    return homology_at(f, g)


# ---------------------------------------------------------------- dense nerve


def _coordinates(blocks):
    """For the direct sum of `blocks`, each in its own canonical
    coordinates with those of order 1 dropped: the order of each kept
    coordinate, a presented vector for each, and the reader of kept
    coordinates from a presented vector."""
    orders, basis, spans = [], [], []
    total = sum(b.ngens for b in blocks)
    at = 0
    for b in blocks:
        keep = [i for i, d in enumerate(b.canonical_orders()) if d != 1]
        for i in keep:
            unit = [0] * b.ngens
            unit[i] = 1
            x = [0] * total
            x[at:at + b.ngens] = b.from_canonical(unit)
            orders.append(b.canonical_orders()[i])
            basis.append(x)
        spans.append((b, at, keep))
        at += b.ngens

    def read(vec):
        out = []
        for b, start, keep in spans:
            y = b.to_canonical(vec[start:start + b.ngens])
            out.extend(y[i] for i in keep)
        return out

    return orders, basis, read


def complex_from_dense(groups, boundaries, blocks=None):
    """The ChainComplex of presented groups and boundary homs
    (boundaries[0] is None), transported to canonical coordinates.

    Degree n's group is read as the direct sum of `blocks[n]` (by
    default the group alone), each block in its own canonical
    coordinates with those of order 1 dropped.  Each boundary must run
    from its degree's group to the one below, and the library checks
    the rest."""
    groups, boundaries = list(groups), list(boundaries)
    for n, (b, g) in enumerate(zip(boundaries[1:], groups[1:]), 1):
        if b.source != g or b.target != groups[n - 1]:
            raise StructuralDefect("boundary %d has wrong endpoints" % n)
    if blocks is None:
        blocks = [[g] for g in groups]
    assert [sum(b.ngens for b in bs) for bs in blocks] == [
        g.ngens for g in groups]
    coords = [_coordinates(bs) for bs in blocks]
    columns = [None]
    for n, b in enumerate(boundaries[1:], 1):
        read = coords[n - 1][2]
        columns.append([{r: v for r, v in enumerate(read(b.apply(x))) if v}
                        for x in coords[n][1]])
    return ChainComplex([orders for orders, _, _ in coords], columns)


def _chain_group(cat, module, chain, degree):
    if degree == 0:
        return module.groups[chain]
    return module.groups[cat.dom[chain[0]]]


def nerve_blocks(cat, module, maxdeg):
    """Per degree, the coefficient group of each chain, in the order of
    the blocks of `dense_nerve_complex`."""
    return [[_chain_group(cat, module, c, n) for c in chain_list]
            for n, chain_list in enumerate(_chain_tuples(cat, maxdeg))]


def dense_nerve_complex(cat, module, maxdeg):
    """Groups and boundary homs of the normalized nerve up to degree
    maxdeg, in presented coordinates: block-diagonal relations and dense
    boundary columns."""
    if maxdeg < 1:
        raise StructuralDefect("a complex needs at least degree 1")
    chains = _chain_tuples(cat, maxdeg)

    groups = []
    offsets = []
    for n, chain_list in enumerate(chains):
        offs = {}
        at = 0
        rels = []
        for c in chain_list:
            g = _chain_group(cat, module, c, n)
            offs[c] = at
            at += g.ngens
            rels.append(g.relations)
        if at > MAX_CHAIN_RANK:
            warnings.warn("chain group at degree %d has rank %d (limit %d)"
                          % (n, at, MAX_CHAIN_RANK))
        groups.append(FgAbGroup(at, block_diag(rels)))
        offsets.append(offs)

    boundaries = [None]
    for n in range(1, maxdeg + 1):
        cols = []
        for c in chains[n]:
            src_group = _chain_group(cat, module, c, n)
            for i in range(src_group.ngens):
                col = [0] * groups[n - 1].ngens
                # push the coefficient along the first entry
                pushed = module.action[c[0]].matrix.col(i)
                head = c[1:] if n > 1 else cat.cod[c[0]]
                base = offsets[n - 1][head]
                for rix, v in enumerate(pushed):
                    col[base + rix] += v
                # compose interior pairs; identity composites vanish
                for j in range(1, n):
                    comp = cat.compose(c[j - 1], c[j])
                    if cat.is_identity(comp):
                        continue
                    merged = c[:j - 1] + (comp,) + c[j + 1:]
                    sign = -1 if j % 2 else 1
                    col[offsets[n - 1][merged] + i] += sign
                # drop the last entry
                tail = c[:-1] if n > 1 else cat.dom[c[0]]
                sign = -1 if n % 2 else 1
                col[offsets[n - 1][tail] + i] += sign
                cols.append(col)
        mat = ZMatrix.from_cols(cols, groups[n - 1].ngens)
        boundaries.append(AbHom(groups[n], groups[n - 1], mat, checked=True))
    return groups, boundaries


# ---------------------------------------------------------------- relation span


def in_relation_span_by_solve(group, vec):
    """True iff some integer x has R x = vec, for the relations R of
    the group, found by a Hermite solve (`ColumnSolver`), which reduces
    by the same `EchelonBasis.residual` as the library's membership."""
    return ColumnSolver(group.relations).solve_vector(
        vec) is not None


def in_relation_span_by_min_abs(group, vec):
    """True iff U vec vanishes modulo the diagonal of the Smith form
    S = U R V that `snf_min_abs` gives for the relations R of the group
    (a zero or missing diagonal entry asks for an exact zero), where the
    library reduces vec by an echelon basis of R."""
    res = snf_min_abs(group.relations)
    diag = res.diagonal
    return all(y % diag[i] == 0 if i < len(diag) and diag[i] else y == 0
               for i, y in enumerate(res.u.apply(vec)))


# ---------------------------------------------------------------- periodic resolution


def _cyclic_quotient(a, k):
    # (Z if k == 0 else Z/k) modulo the image of multiplication by a
    if k == 0:
        if a == 0:
            return (1, ())
        a = abs(a)
        return (0, (a,)) if a > 1 else (0, ())
    d = gcd(a, k)
    return (0, (d,)) if d > 1 else (0, ())


def _cyclic_subquotient(a, b, k):
    # ker(x a) / im(x b) inside Z/k (k > 0) or Z (k == 0)
    if k == 0:
        if a != 0:
            return (0, ())
        return _cyclic_quotient(b, 0)
    if (a * b) % k != 0:
        raise AssertionError("composite is not zero")
    order = gcd(a, k) * gcd(b, k) // k
    return (0, (order,)) if order > 1 else (0, ())


def periodic_cyclic_homology(m, k, u, degree):
    """Homology of the order-m cyclic group with coefficients in Z (k = 0)
    or Z/k, the chosen generator acting as multiplication by the unit u.

    Uses the two-periodic resolution: boundaries alternate between
    multiplication by D = u - 1 and by N = 1 + u + ... + u^(m-1), so in
    positive degree the answer is a kernel-over-image of two scalars.
    """
    d = u - 1
    n = sum(u**i for i in range(m))
    if degree == 0:
        return _cyclic_quotient(d, k)
    if degree % 2 == 1:
        return _cyclic_subquotient(d, n, k)
    return _cyclic_subquotient(n, d, k)


# ---------------------------------------------------------------- random material


def random_int_matrix(rng, max_dim=12, span=20):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return ZMatrix(
        [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]
    )


def random_diag_group(rng, max_elements=512):
    """A finite group presented diagonally; returns (group, diagonal)."""
    diag = []
    total = 1
    while True:
        d = rng.choice([2, 2, 3, 4, 5, 8, 9, 12])
        if total * d > max_elements:
            break
        diag.append(d)
        total *= d
        if rng.random() < 0.3:
            break
    return FgAbGroup.from_invariants(0, diag), diag


def random_hom(rng, source, target, target_orders):
    """A uniformly scrambled hom between presented groups.

    target_orders gives the order of each presentation generator of the
    target (0 for a free one).  The image of each canonical cyclic piece
    of the source is chosen freely among the target elements it is
    allowed to hit, then pushed back to presentation coordinates.
    """
    s_orders, (s_u, _) = source.canonical_orders(), source._decomposition()
    cols = []
    for s in s_orders:
        col = []
        for d in target_orders:
            if d == 0:
                col.append(0 if s != 0 else rng.randint(-2, 2))
            else:
                step = 1 if s == 0 else d // gcd(s, d)
                # entries must be multiples of step so s * entry == 0 mod d
                col.append(step * rng.randrange(max(d // step, 1)))
        cols.append(col)
    c = ZMatrix.from_cols(cols, len(target_orders))
    return AbHom(source, target, c.mul(s_u))


def random_zero_composite(rng, max_elements=512):
    """Two consecutive maps f, g of finite groups with g o f = 0.

    g is produced out of the cokernel of f, so the composite vanishes by
    construction rather than by rejection sampling.
    """
    a, _ = random_diag_group(rng, max_elements)
    b, b_diag = random_diag_group(rng, max_elements)
    c, c_diag = random_diag_group(rng, max_elements)
    f = random_hom(rng, a, b, b_diag)
    coker = FgAbGroup(b.ngens, b.relations.hstack(f.matrix))
    gbar = random_hom(rng, coker, c, c_diag)
    g = AbHom(b, c, gbar.matrix)
    return f, g


def random_ses(rng, n_identities=3, max_order=12):
    """Short exact sequence of modules over a random directed identity
    poset (no loops): multiply-by-c into Z/m, reduce onto Z/gcd(c, m).

    Returns (groupoid, lcat, sub, mid, quot, inclusion, projection)."""
    rog = random_og(rng, n_identities, max_group=1, directed=True)
    g0 = rog.groupoid
    lc = build_lcat(g0)
    c = rng.randint(2, 6)
    m = {e: rng.randint(2, max_order) for e in g0.identities}
    covers = [(hi, lo) for (lo, hi) in g0.identity_poset.covers()]
    tmult = {}
    for (hi, lo) in covers:
        step = m[lo] // gcd(m[lo], m[hi])
        tmult[(hi, lo)] = rng.choice(list(range(0, m[lo], step)))

    def build(order_of):
        groups = {e: _cyclic_group(order_of[e]) for e in g0.identities}
        pm = {(hi, lo): ZMatrix([[tmult[(hi, lo)]]]) for (hi, lo) in covers}
        return module_from_parts(lc, groups, pm, {})

    mid = build(m)
    sub = build({e: m[e] // gcd(c, m[e]) for e in g0.identities})
    quo = build({e: gcd(c, m[e]) for e in g0.identities})
    incl = GMap(sub, mid,
                {e: AbHom(sub.groups[e], mid.groups[e], ZMatrix([[c]]))
                 for e in g0.identities})
    proj = GMap(mid, quo,
                {e: AbHom(mid.groups[e], quo.groups[e], ZMatrix([[1]]))
                 for e in g0.identities})
    return g0, lc, sub, mid, quo, incl, proj


def random_surjection(rng, b_module, max_scale=6):
    """(quotient module, componentwise surjective map): reduce every
    group modulo a common scale, actions unchanged."""
    n = rng.randint(1, max_scale)
    base = b_module.base
    groups = {}
    projs = {}
    for x, g in b_module.groups.items():
        extra = ZMatrix([[n if i == j else 0 for j in range(g.ngens)]
                         for i in range(g.ngens)], ncols=g.ngens)
        tgt = FgAbGroup(g.ngens, g.relations.hstack(extra))
        groups[x] = tgt
        projs[x] = AbHom(g, tgt, ZMatrix.identity(g.ngens), checked=True)
    action = {}
    for mor in base.morphisms:
        src, tgt = base.dom[mor], base.cod[mor]
        action[mor] = AbHom(groups[src], groups[tgt],
                            b_module.action[mor].matrix)
    tgt_module = GModule(base, groups, action)
    return tgt_module, GMap(b_module, tgt_module, projs)


# ---------------------------------------------------------------- small categories


def group_category(m):
    """One-object category of the cyclic group Z/m.

    Morphism ids are "t0" (identity), "t1", ..., "t{m-1}".
    """
    names = ["t%d" % i for i in range(m)]
    obj = "*"
    comp = {(names[i], names[j]): names[(i + j) % m]
            for i in range(m) for j in range(m)}
    return FiniteCategory([obj], list(names),
                          {n: obj for n in names}, {n: obj for n in names},
                          {obj: names[0]}, comp)


def permutation_group(gens):
    """One-object category of the group that the permutations `gens` (of
    0 .. d-1, as tuples) generate; morphism ids are the permutations,
    and compose(x, y), "x then y", is the permutation p -> y[x[p]]."""
    one = tuple(range(len(gens[0])))
    elements, todo = {one}, [one]
    while todo:
        x = todo.pop()
        for s in gens:
            y = tuple(s[x[p]] for p in one)
            if y not in elements:
                elements.add(y)
                todo.append(y)
    elements = sorted(elements)
    comp = {(x, y): tuple(y[x[p]] for p in one)
            for x in elements for y in elements}
    obj = "*"
    return FiniteCategory([obj], elements, {x: obj for x in elements},
                          {x: obj for x in elements}, {obj: one}, comp)


def permutation_sign(x):
    sign, seen = 1, set()
    for p in range(len(x)):
        q, length = p, 0
        while q not in seen:
            seen.add(q)
            q, length = x[q], length + 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------- lattices


def hermite_rows_by_min_abs(rows):
    """The reduced Hermite rows of the lattice the integer rows span:
    nonzero rows in echelon form, each pivot positive, the entries above
    a pivot in [0, pivot).  Two lists of rows span the same lattice iff
    their Hermite rows agree."""
    live = [list(r) for r in rows if any(r)]
    out = []
    width = len(live[0]) if live else 0
    for c in range(width):
        while True:
            at = [r for r in live if r[c]]
            if len(at) <= 1:
                break
            p = min(at, key=lambda r: abs(r[c]))
            for r in at:
                if r is not p:
                    q = r[c] // p[c]
                    r[:] = [x - q * y for x, y in zip(r, p)]
        if not at:
            continue
        p = at[0]
        live = [r for r in live if r is not p and any(r)]
        if p[c] < 0:
            p[:] = [-x for x in p]
        for r in out:
            q = r[c] // p[c]
            r[:] = [x - q * y for x, y in zip(r, p)]
        out.append(p)
    return out


def kernel_rows_by_min_abs(cols, height):
    """A basis of the integer kernel of the height x len(cols) matrix with
    these columns: the rows of the Hermite form of [A^T | I] whose A^T
    part is zero."""
    aug = [list(col) + [int(i == j) for j in range(len(cols))]
           for i, col in enumerate(cols)]
    return [r[height:] for r in hermite_rows_by_min_abs(aug)
            if not any(r[:height])]


# ---------------------------------------------------------------- beta-classes


def beta_classes_by_pairs(g0):
    """Beta-classes by union-find over every beta-related pair of arrows,
    the relation read straight off the order: g beta h when some k lies
    below both.  Same (classes, class_of) shape as beta.beta_classes."""
    leq = g0.order.leq
    parent = {a: a for a in g0.arrows}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for g in g0.arrows:
        for h in g0.arrows:
            if g < h and any(leq(k, g) and leq(k, h) for k in g0.arrows):
                ra, rb = find(g), find(h)
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for a in g0.arrows:
        groups.setdefault(find(a), []).append(a)
    classes = {}
    class_of = {}
    for members in groups.values():
        cid = min(members)
        classes[cid] = sorted(members)
        for a in members:
            class_of[a] = cid
    return classes, class_of


# ---------------------------------------------------------------- all-pairs scans
#
# The loops the composability index replaced: each scans every pair or
# triple and discards those that cannot compose.


def validate_by_scan(cand):
    """Axiom violations as sorted (axiom, witness) pairs, every loop
    running over all pairs or triples of arrows and order pairs."""
    out = []
    arrows = cand.arrows
    idset = set(cand.identities)
    d, r, inv = cand.d, cand.r, cand.inv
    comp = cand.compose
    pairs = cand.order_pairs

    def leq(a, b):
        return (a, b) in pairs

    # a pair naming a non-arrow is left out of the order axioms
    for (a, b) in pairs:
        if a not in d or b not in d:
            out.append(("order-typing", (a, b)))
    pairs_of_arrows = [(a, b) for (a, b) in pairs if a in d and b in d]

    # order is a partial order
    for x in arrows:
        if not leq(x, x):
            out.append(("order-reflexive", (x,)))
    for (a, b) in pairs_of_arrows:
        for c in arrows:
            if leq(b, c) and not leq(a, c):
                out.append(("order-transitive", (a, b, c)))
    for (a, b) in pairs_of_arrows:
        if a != b and leq(b, a):
            if a < b:  # report each bad pair once
                out.append(("order-antisymmetry", (a, b)))

    # typing of identities, inverses, d and r
    for i, e in enumerate(cand.identities):
        if e in cand.identities[:i]:
            out.append(("identity-repeated", (e,)))
        if e not in d or d[e] != e or r[e] != e or inv[e] != e:
            out.append(("identity-typing", (e,)))
    for x in arrows:
        bad = (d[x] not in idset or r[x] not in idset or inv[x] not in d
               or inv[inv[x]] != x or d[inv[x]] != r[x] or r[inv[x]] != d[x])
        if bad:
            out.append(("arrow-typing", (x,)))

    # composition table on exactly the composable pairs
    for g in arrows:
        for h in arrows:
            if r[g] == d[h]:
                if (g, h) not in comp or comp[(g, h)] not in d:
                    out.append(("compose-domain", (g, h)))
            elif (g, h) in comp:
                out.append(("compose-domain", (g, h)))

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
                out.append(("compose-typing", (g, h, k)))
                continue
            if g in idset and k != h:
                out.append(("identity-law", (g, h)))
            if h in idset and k != g:
                out.append(("identity-law", (g, h)))
    for x in arrows:
        if cmp2(x, inv[x]) != d[x] or cmp2(inv[x], x) != r[x]:
            out.append(("inverse-law", (x,)))
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
                    out.append(("associativity", (g, h, k)))

    # OG1: inversion is monotone
    for (x, y) in pairs_of_arrows:
        if not leq(inv[x], inv[y]):
            out.append(("OG1", (x, y)))

    # OG2: composition is monotone
    for (x, y) in pairs_of_arrows:
        for (u, v) in pairs_of_arrows:
            if r[x] == d[u] and r[y] == d[v]:
                xu, yv = cmp2(x, u), cmp2(y, v)
                if xu is not None and yv is not None and not leq(xu, yv):
                    out.append(("OG2", (x, y, u, v)))

    # OG3/OG4: unique restriction and corestriction
    for x in arrows:
        for e in cand.identities:
            if leq(e, d[x]):
                found = [y for y in arrows if leq(y, x) and d[y] == e]
                if len(found) != 1:
                    out.append(("OG3", (x, e)))
            if leq(e, r[x]):
                found = [y for y in arrows if leq(y, x) and r[y] == e]
                if len(found) != 1:
                    out.append(("OG4", (x, e)))

    return sorted(out)


class NamedTable:
    """A category's objects, morphisms, endpoints and units, with its
    composites as a table keyed by pairs of names (`table`) and the
    morphisms leaving each object listed as the library lists them."""

    def __init__(self, objects, morphisms, dom, cod, identity, table):
        self.objects = list(objects)
        self.morphisms = list(morphisms)
        self.dom, self.cod = dict(dom), dict(cod)
        self.identity = dict(identity)
        self.table = dict(table)
        self.outgoing = {o: [] for o in self.objects}
        for m in self.morphisms:
            self.outgoing.setdefault(self.dom[m], []).append(m)

    @classmethod
    def of(cls, cat):
        """The table of a category, read through `compose`."""
        return cls(cat.objects, cat.morphisms, cat.dom, cat.cod,
                   cat.identity,
                   {(m1, m2): cat.compose(m1, m2) for m1 in cat.morphisms
                    for m2 in cat.outgoing[cat.cod[m1]]})

    def copy(self):
        return NamedTable(self.objects, self.morphisms, self.dom, self.cod,
                          self.identity, self.table)

    def build(self):
        """The category through the public constructor."""
        return FiniteCategory(self.objects, self.morphisms, self.dom,
                              self.cod, self.identity, self.table)


def category_problems_by_scan(cat):
    """FiniteCategory.check over all pairs and triples of morphisms of a
    NamedTable, problems sorted."""
    out = []
    for o in cat.objects:
        i = cat.identity.get(o)
        if i is None or cat.dom.get(i) != o or cat.cod.get(i) != o:
            out.append("identity of %r is broken" % (o,))
    for m in cat.morphisms:
        if cat.dom[m] not in cat.objects or cat.cod[m] not in cat.objects:
            out.append("morphism %r has unknown endpoints" % (m,))
    comp = cat.table
    for m1 in cat.morphisms:
        for m2 in cat.morphisms:
            if cat.cod[m1] == cat.dom[m2]:
                k = comp.get((m1, m2))
                if k is None or k not in cat.dom:
                    out.append("composite (%r, %r) missing" % (m1, m2))
                elif cat.dom[k] != cat.dom[m1] or cat.cod[k] != cat.cod[m2]:
                    out.append("composite (%r, %r) mistyped" % (m1, m2))
            elif (m1, m2) in comp:
                out.append("composite (%r, %r) defined illegally" % (m1, m2))
    if out:
        return sorted(out)
    for m in cat.morphisms:
        if comp[(cat.identity[cat.dom[m]], m)] != m:
            out.append("left unit fails at %r" % (m,))
        if comp[(m, cat.identity[cat.cod[m]])] != m:
            out.append("right unit fails at %r" % (m,))
    for m1 in cat.morphisms:
        for m2 in cat.morphisms:
            if cat.cod[m1] != cat.dom[m2]:
                continue
            m12 = comp[(m1, m2)]
            for m3 in cat.morphisms:
                if cat.cod[m2] != cat.dom[m3]:
                    continue
                if comp[(m12, m3)] != comp[(m1, comp[(m2, m3)])]:
                    out.append("associativity fails at (%r, %r, %r)"
                               % (m1, m2, m3))
    return sorted(out)


def beta_transitive_by_scan(g0):
    """beta_transitive over every triple of arrows, the relation read
    off common lower bounds pair by pair."""
    related = {(g, h): bool(g0.order.lower_bounds(g, h))
               for g in g0.arrows for h in g0.arrows}
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


def beta_transitive_by_sets(g0):
    """beta_transitive on Python sets: the arrows related to g are the
    union of the sets of arrows above each k <= g, and the least failing
    chain is found in sorted order."""
    up = {a: set() for a in g0.arrows}
    for a in g0.arrows:
        for k in g0.principal_ideal(a):
            up[k].add(a)
    related = {g: set().union(*(up[k] for k in g0.principal_ideal(g)))
               for g in g0.arrows}
    for g in sorted(g0.arrows):
        for t in sorted(related[g]):
            missing = related[t] - related[g]
            if missing:
                return (False, (g, t, min(missing)))
    return (True, None)


def ideals_directed_by_scan(g0):
    """(verdict, None or (t, (a, b))): the first arrow t, in arrow order,
    whose principal ideal holds a pair a, b (in sorted order) with no
    common lower bound in that ideal.  The other side of the equivalence
    that `beta_transitive` decides: then a beta t and t beta b, but not
    a beta b, since every lower bound of a lies below t."""
    for t in g0.arrows:
        ideal = sorted(g0.principal_ideal(t))
        for x, a in enumerate(ideal):
            for b in ideal[x + 1:]:
                if not any(g0.order.leq(k, a) and g0.order.leq(k, b)
                           for k in ideal):
                    return (False, (t, (a, b)))
    return (True, None)


def chain_tuples_by_scan(cat, maxdeg):
    """Nerve chains, extending each chain by every non-identity
    morphism and keeping the composable ones."""
    chains = [list(cat.objects)]
    nonid = sorted(m for m in cat.morphisms
                   if not (cat.identity.get(cat.dom[m]) == m
                           and cat.dom[m] == cat.cod[m]))
    if maxdeg >= 1:
        chains.append([(m,) for m in nonid])
    for n in range(2, maxdeg + 1):
        chains.append([c + (m,) for c in chains[n - 1] for m in nonid
                       if cat.cod[c[-1]] == cat.dom[m]])
    return chains


# ---------------------------------------------------------------- per-triple loops
#
# The checks as they stood before rows of composites: the same visiting
# order as the library, one composable triple (or pair of order pairs)
# at a time.


def category_problems_by_triples(cat):
    """FiniteCategory.check on a NamedTable, with associativity tested
    triple by triple."""
    out = []
    for o in cat.objects:
        i = cat.identity.get(o)
        if i is None or cat.dom.get(i) != o or cat.cod.get(i) != o:
            out.append("identity of %r is broken" % (o,))
    for m in cat.morphisms:
        if cat.dom[m] not in cat.objects or cat.cod[m] not in cat.objects:
            out.append("morphism %r has unknown endpoints" % (m,))
    for m1 in cat.morphisms:
        for m2 in cat.outgoing.get(cat.cod[m1], ()):
            k = cat.table.get((m1, m2))
            if k is None or k not in cat.dom:
                out.append("composite (%r, %r) missing" % (m1, m2))
            elif cat.dom[k] != cat.dom[m1] or cat.cod[k] != cat.cod[m2]:
                out.append("composite (%r, %r) mistyped" % (m1, m2))
    for (m1, m2) in cat.table:
        if (m1 in cat.dom and m2 in cat.dom
                and cat.cod[m1] != cat.dom[m2]):
            out.append("composite (%r, %r) defined illegally" % (m1, m2))
    if out:
        return out
    for m in cat.morphisms:
        if cat.table[(cat.identity[cat.dom[m]], m)] != m:
            out.append("left unit fails at %r" % (m,))
        if cat.table[(m, cat.identity[cat.cod[m]])] != m:
            out.append("right unit fails at %r" % (m,))
    for m1 in cat.morphisms:
        for m2 in cat.outgoing[cat.cod[m1]]:
            m12 = cat.table[(m1, m2)]
            for m3 in cat.outgoing[cat.cod[m2]]:
                if (cat.table[(m12, m3)]
                        != cat.table[(m1, cat.table[(m2, m3)])]):
                    out.append("associativity fails at (%r, %r, %r)"
                               % (m1, m2, m3))
    return out


def left_cancellative_by_loop(cat):
    """FiniteCategory.left_cancellative on a NamedTable, one composite
    at a time."""
    for m in cat.morphisms:
        seen = {}
        for h in cat.outgoing[cat.cod[m]]:
            k = cat.table[(m, h)]
            if k in seen and seen[k] != h:
                return (False, (m, seen[k], h))
            seen[k] = h
    return (True, None)


def violations_by_triples(cand):
    """validate as (axiom, witness) pairs in the library's order, with
    associativity tested triple by triple and OG2 pair by pair."""
    out = []
    arrows = cand.arrows
    idset = set(cand.identities)
    d, r, inv = cand.d, cand.r, cand.inv
    comp = cand.compose
    pairs = cand.order_pairs
    # a pair naming a non-arrow is reported and left out of the order
    # axioms
    sorted_pairs = []
    for (a, b) in sorted(pairs):
        if a in d and b in d:
            sorted_pairs.append((a, b))
        else:
            out.append(("order-typing", (a, b)))

    def leq(a, b):
        return (a, b) in pairs

    # up[x] / down[x]: the arrows above / below x, in sorted order
    up, down = {}, {}
    for (a, b) in sorted_pairs:
        up.setdefault(a, []).append(b)
        down.setdefault(b, []).append(a)

    # order is a partial order
    for x in arrows:
        if not leq(x, x):
            out.append(("order-reflexive", (x,)))
    for (a, b) in sorted_pairs:
        for c in up.get(b, ()):
            if not leq(a, c):
                out.append(("order-transitive", (a, b, c)))
    for (a, b) in sorted_pairs:
        if a != b and leq(b, a):
            if a < b:  # report each bad pair once
                out.append(("order-antisymmetry", (a, b)))

    # typing of identities, inverses, d and r
    for i, e in enumerate(cand.identities):
        if e in cand.identities[:i]:
            out.append(("identity-repeated", (e,)))
        if e not in d or d[e] != e or r[e] != e or inv[e] != e:
            out.append(("identity-typing", (e,)))
    for x in arrows:
        bad = (d[x] not in idset or r[x] not in idset or inv[x] not in d
               or inv[inv[x]] != x or d[inv[x]] != r[x] or r[inv[x]] != d[x])
        if bad:
            out.append(("arrow-typing", (x,)))

    # composition table on exactly the composable pairs
    leaving = {}  # leaving[e]: the arrows with domain e, sorted
    for h in arrows:
        leaving.setdefault(d[h], []).append(h)
    for g in arrows:
        for h in leaving.get(r[g], ()):
            if comp.get((g, h)) not in d:
                out.append(("compose-domain", (g, h)))
    for (g, h) in sorted(k for k in comp
                         if k[0] in d and k[1] in d and r[k[0]] != d[k[1]]):
        out.append(("compose-domain", (g, h)))

    def cmp2(g, h):
        if r.get(g) == d.get(h):
            k = comp.get((g, h))
            if k in d:
                return k
        return None

    # defined[g]: the pairs (h, gh) with gh in the table
    defined = {g: [(h, comp[(g, h)]) for h in leaving.get(r[g], ())
                   if comp.get((g, h)) in d]
               for g in arrows}

    # units, inverses, associativity
    for g in arrows:
        for h, k in defined[g]:
            if d[k] != d[g] or r[k] != r[h]:
                out.append(("compose-typing", (g, h, k)))
                continue
            if g in idset and k != h:
                out.append(("identity-law", (g, h)))
            if h in idset and k != g:
                out.append(("identity-law", (g, h)))
    for x in arrows:
        if cmp2(x, inv[x]) != d[x] or cmp2(inv[x], x) != r[x]:
            out.append(("inverse-law", (x,)))
    for g in arrows:
        for h, gh in defined[g]:
            for k, hk in defined[h]:
                if cmp2(gh, k) != cmp2(g, hk):
                    out.append(("associativity", (g, h, k)))

    # OG1: inversion is monotone
    for (x, y) in sorted_pairs:
        if not leq(inv[x], inv[y]):
            out.append(("OG1", (x, y)))

    # OG2: composition is monotone; above[(e, f)] holds the pairs
    # u <= v with d(u) = e and d(v) = f
    above = {}
    for (u, v) in sorted_pairs:
        above.setdefault((d[u], d[v]), []).append((u, v))
    for (x, y) in sorted_pairs:
        for (u, v) in above.get((r[x], r[y]), ()):
            xu, yv = cmp2(x, u), cmp2(y, v)
            if xu is not None and yv is not None and not leq(xu, yv):
                out.append(("OG2", (x, y, u, v)))

    # OG3/OG4: unique restriction and corestriction
    for x in arrows:
        below = down.get(x, ())
        for e in cand.identities:
            if leq(e, d[x]) and sum(d[y] == e for y in below) != 1:
                out.append(("OG3", (x, e)))
            if leq(e, r[x]) and sum(r[y] == e for y in below) != 1:
                out.append(("OG4", (x, e)))

    return out


def lcat_compose(g0, m1, m2):
    """Composite of L(G) morphisms m1 = (e, g), m2 = (f, h); needs
    r(g) = f."""
    e, g = m1
    f, h = m2
    if g0.r[g] != f:
        raise NotComposable("r(%s) != %s" % (g, f))
    k = g0.compose(g0.corestriction(g, g0.d[h]), h)
    return (e, k)


def functoriality_failures_by_pair(base, action):
    """check_functorial's composite-law problems with one equal_as_maps
    per composable pair (m1, m2), in the library's order."""
    return ["functoriality fails at (%r, %r)" % (m1, m2)
            for m1 in base.morphisms
            for m2 in base.outgoing[base.cod[m1]]
            if not action[m1].then(action[m2]).equal_as_maps(
                action[base.compose(m1, m2)])]


def functoriality_problems_by_pair(base, groups, action):
    """check_functorial's problems for an action with the right
    endpoints: the identity law at each object, then the composite law
    at every composable pair."""
    return ["identity of %r does not act as the identity" % (o,)
            for o in base.objects
            if not action[base.identity[o]].equal_as_maps(
                AbHom.identity(groups[o]))] + functoriality_failures_by_pair(
        base, action)


def naturality_failures_by_morphism(source, target, components):
    """check_natural's problems for components with the right endpoints,
    with one test per morphism of the base, in morphism order."""
    base = source.base
    return ["naturality fails at %r" % (m,) for m in base.morphisms
            if not components[base.dom[m]].then(target.action[m])
            .equal_as_maps(source.action[m].then(components[base.cod[m]]))]


def products_of_generators(cat, gens):
    """Every composite of one or more morphisms of `gens`, by a
    breadth-first search that composes with a generator on the left."""
    reached, frontier = set(gens), list(gens)
    while frontier:
        step = []
        for x in frontier:
            for s in gens:
                if cat.composable(s, x):
                    k = cat.compose(s, x)
                    if k not in reached:
                        reached.add(k)
                        step.append(k)
        frontier = step
    return reached


# ---------------------------------------------------------------- covering paths


def module_action_by_dfs(lc, groups, poset_maps, arrow_maps):
    """The action matrices of module_from_parts, each order part the
    product of the covering maps down the first covering path that a
    depth-first search from e reaches f by."""
    g0 = lc.groupoid
    down = {}
    for (lo, hi) in g0.identity_poset.covers():
        down.setdefault(hi, []).append(lo)

    def cover_path(e, f):
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
            mat = poset_maps[(hi, lo)].mul(mat)
        return mat

    action = {}
    for (e, g) in lc.category.morphisms:
        if g0.is_identity(g):
            action[(e, g)] = poset_matrix(e, g)
        else:
            action[(e, g)] = arrow_maps[g].mul(poset_matrix(e, g0.d[g]))
    return action


# ---------------------------------------------------------------- schema errors


def schema_valid(value, schema):
    """Whether jsonschema finds no error in `value` under `schema`."""
    if id(schema) not in _VALIDATORS:
        _VALIDATORS[id(schema)] = Draft202012Validator(schema), schema
    return _VALIDATORS[id(schema)][0].is_valid(value)


# _VALIDATORS[id(schema)]: jsonschema's validator for schema, and schema
# itself, so that its id is not reused
_VALIDATORS = {}


def first_schema_error(doc, schema):
    """(pointer, message) of the error jsonschema reports first for
    `doc` under `schema`, errors sorted by their JSONPath string, or
    None when `doc` is valid.  The pointer escapes "~" and "/" in keys
    as RFC 6901 asks."""
    errors = sorted(Draft202012Validator(schema).iter_errors(doc),
                    key=lambda e: e.json_path)
    if not errors:
        return None
    e = errors[0]
    steps = (str(p).replace("~", "~0").replace("/", "~1")
             for p in e.absolute_path)
    return "/" + "/".join(steps), e.message
