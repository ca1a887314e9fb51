"""Homology of a module over a finite category via the normalized nerve,
and over a group via a small free resolution.

n-chains are tuples (f1, ..., fn) of composable non-identity morphisms
carrying a coefficient in M(dom f1); the boundary pushes the coefficient
along f1, composes consecutive entries (composites that collapse to an
identity contribute nothing), and drops the last entry, with alternating
signs.  Degree zero is one summand per object and H_0 is checked against
the colimit presentation every time it is computed.

`nerve_complex` has two halves: `bar_resolution` describes the chains
and their faces without a module, and `tensor`, the only code that
knows canonical coordinates, writes each coefficient group in them
first, so a `ChainComplex` keeps only the cyclic order of each generator
and sparse boundary columns (see its docstring): ∂² = 0 is checked and
the reduction below runs on them; dense matrices are views built on
demand.

Over a group H the bar resolution has (|H| - 1)^n generators in degree
n, so `homology_profile` tensors the module with `group_resolution`
instead, a free ZH-resolution with a few generators per degree, built
greedily from kernels; any category with more than one object, or with
a morphism that is not invertible, still goes through the nerve, which
is also the oracle the small resolution is tested against.

Homology is not solved on the nerve itself.  Nerve boundaries are mostly
0/±1, so `ChainComplex.homology` first shrinks the complex by
unit-pivot elimination (the Gaussian-elimination lemma of Kaczynski,
Mrozek & Ślusarek, 1998), working on the sparse columns: a generator a of
C_n and a generator b of C_(n-1) of the same order k, with u = <∂a, b> a
unit mod k (±1 when k = 0), are cancelled together, and every other
column a' of ∂_n becomes a' - <∂a', b> u⁻¹ ∂a.  In most degrees the
residual ∂_n is then zero, and H_n = C_n / im ∂_(n+1) is read off its
sparse columns as a presentation, with nothing solved; only a degree
whose residual ∂_n is nonzero goes, through its dense views, to
`homology_at`, which solves it with one Hermite pass through
`ColumnSolver`.
Homology is asked only below the top degree, where just the image of
the top boundary counts, so the residual keeps only its nonzero
columns, on free generators.
The lemma needs ∂² = 0, which the complex checks when it is built; a
complex built with checked=True must satisfy it already.
"""

import warnings
from collections import deque
from itertools import accumulate, combinations
from math import gcd, prod

from .errors import PreconditionViolation, StructuralDefect
from .gmodules import colim_category, colim_E
from .zmodule import (AbHom, EchelonBasis, FgAbGroup, ZMatrix, homology_at,
                      kernel_basis)

MAX_CHAIN_RANK = 10000


def _matrix(columns, nrows):
    """The ZMatrix whose columns are the given {row: entry} dicts."""
    rows = [[0] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, v in col.items():
            rows[i][j] = v
    return ZMatrix._trusted(rows, len(columns))


class ChainComplex:
    """Degree n is the direct sum of cyclic groups Z/k, one per entry k
    of `orders[n]` (0 for Z, otherwise at least 2), and for n >= 1 has
    boundary columns `columns[n]` (one per generator; columns[0] is
    None), each a {row: entry} dict of nonzero entries.

    Consecutive boundaries must compose to zero modulo the order of each
    row; unless checked=True promises it, the shapes and ∂² = 0 are
    checked here.  `groups` and `boundaries` are dense views, built on
    first use; `homology` needs them only where the reduced boundary
    below the degree asked is nonzero."""

    def __init__(self, orders, columns, checked=False):
        self.orders = [list(ks) for ks in orders]
        self.ngens = [len(ks) for ks in self.orders]
        self.columns = list(columns)
        self._groups, self._boundaries = [None] * len(self.ngens), None
        self._reduced = None
        if not checked:
            self._check_shapes()
            self._check_square()

    def _check_shapes(self):
        ngens = self.ngens
        if len(self.columns) != len(ngens):
            raise StructuralDefect("one boundary per degree expected")
        if self.columns and self.columns[0] is not None:
            raise StructuralDefect("degree 0 has no boundary")
        for n, ks in enumerate(self.orders):
            if any(k == 1 or k < 0 for k in ks):
                raise StructuralDefect("an order of degree %d is 1 or < 0" % n)
        for n in range(1, len(ngens)):
            cols = self.columns[n]
            if len(cols) != ngens[n] or not all(
                    0 <= i < ngens[n - 1] for col in cols for i in col):
                raise StructuralDefect(
                    "boundary %d has wrong endpoints" % n)

    def _check_square(self):
        # compose column by column; each entry must vanish modulo the
        # order of its row
        for n in range(2, len(self.ngens)):
            lower, ks = self.columns[n - 1], self.orders[n - 2]
            for col in self.columns[n]:
                comp = {}
                for r, v in col.items():
                    for s, w in lower[r].items():
                        comp[s] = comp.get(s, 0) + v * w
                if any(v % ks[s] if ks[s] else v for s, v in comp.items()):
                    raise StructuralDefect(
                        "boundary squared is nonzero at degree %d" % n)

    def _group(self, n):
        if self._groups[n] is None:
            self._groups[n] = FgAbGroup(self.ngens[n], _matrix(
                [{i: k} for i, k in enumerate(self.orders[n]) if k],
                self.ngens[n]))
        return self._groups[n]

    @property
    def groups(self):
        return [self._group(n) for n in range(len(self.ngens))]

    @property
    def boundaries(self):
        if self._boundaries is None:
            groups = self.groups
            self._boundaries = [None] + [
                AbHom(groups[n], groups[n - 1],
                      _matrix(self.columns[n], self.ngens[n - 1]),
                      checked=True)
                for n in range(1, len(groups))]
        return list(self._boundaries)

    @property
    def top_degree(self):
        return len(self.ngens) - 1

    def reduced(self):
        """The complex with unit pivots cancelled, built on first use and
        kept; it has the same homology below the top degree.

        >>> from oghom import fixtures
        >>> b = fixtures.load("cyclic3")
        >>> cx = nerve_complex(b.lc.category, b.modules["const"], 3)
        >>> cx.ngens
        [1, 2, 4, 8]
        >>> cx.boundaries[2].matrix
        ZMatrix([[2, 1, 1, -1], [-1, 1, 1, 2]])
        >>> red = cx.reduced()
        >>> red.ngens
        [1, 1, 1, 0]
        >>> red.columns[2]
        [{0: 3}]
        """
        if self._reduced is None:
            self._reduced = _reduce(self)
            self._reduced._reduced = self._reduced  # no unit pivot left
        return self._reduced

    def homology(self, n):
        """ker ∂_n / im ∂_(n+1); requires degree n+1 to be present.

        Read off `reduced()`: where its ∂_n is zero (always at n = 0),
        H_n = C_n / im ∂_(n+1) is presented by the columns of ∂_(n+1)
        and the orders of C_n as they stand; otherwise `homology_at`
        solves its dense views.  The elimination lemma holds because
        ∂² = 0 was checked at construction (or promised by
        checked=True)."""
        if n < 0 or n + 1 > self.top_degree:
            raise StructuralDefect(
                "homology at %d needs chains up to %d" % (n, n + 1))
        cx = self.reduced()
        if n and any(cx.columns[n]):
            return homology_at(cx.boundaries[n + 1], cx.boundaries[n])
        relations = [col for col in cx.columns[n + 1] if col] + [
            {i: k} for i, k in enumerate(cx.orders[n]) if k]
        return FgAbGroup(cx.ngens[n], _matrix(relations, cx.ngens[n]))


def _reduce(cx):
    """Cancel unit pivots degree by degree, lowest first, on the sparse
    columns of cx; returns the residual in the same form."""
    top = cx.top_degree
    orders = cx.orders
    alive = [[True] * n for n in cx.ngens]
    # cols[n][j]: column j of ∂_n, rows ascending, entries of a row of
    # finite order k kept mod k; rows[n][i]: columns of ∂_n nonzero in row i
    cols = [None]
    rows = [None]
    for n in range(1, top + 1):
        k_rows = orders[n - 1]
        cn = []
        rn = [set() for _ in range(cx.ngens[n - 1])]
        for j, col in enumerate(cx.columns[n]):
            cj = {}
            for i, v in sorted(col.items()):
                k = k_rows[i]
                v = v % k if k else v
                if v:
                    cj[i] = v
                    rn[i].add(j)
            cn.append(cj)
        cols.append(cn)
        rows.append(rn)

    def drop(n, i):
        # generator i of C_n: column of ∂_n and row of ∂_(n+1) go
        alive[n][i] = False
        if n >= 1:
            for r in cols[n][i]:
                rows[n][r].discard(i)
            cols[n][i] = None
        if n < top:
            for j in rows[n + 1][i]:
                del cols[n + 1][j][i]
            rows[n + 1][i] = None

    def pivot_row(n, a):
        # a row of the same order holding a unit, fewest columns
        k = orders[n][a]
        units = [b for b, u in cols[n][a].items()
                 if orders[n - 1][b] == k
                 and (abs(u) == 1 if k == 0 else gcd(u, k) == 1)]
        return min(units, key=lambda b: len(rows[n][b]), default=None)

    for n in range(1, top + 1):
        k_rows = orders[n - 1]
        queue = deque(range(len(cols[n])))
        while queue:
            a = queue.popleft()
            if not alive[n][a]:
                continue
            b = pivot_row(n, a)
            if b is None:
                continue
            k = orders[n][a]
            ca = cols[n][a]
            inv = ca[b] if k == 0 else pow(ca[b], -1, k)
            drop(n, a)
            for j in rows[n][b]:
                # column j -= <∂j, b> u⁻¹ ∂a; its row b goes with b
                cj = cols[n][j]
                c = cj[b] * inv % k if k else cj[b] * inv
                for r, v in ca.items():
                    if r == b:
                        continue
                    x = cj.get(r, 0) - c * v
                    if k_rows[r]:
                        x %= k_rows[r]
                    if x:
                        if r not in cj:
                            rows[n][r].add(j)
                        cj[r] = x
                    elif r in cj:
                        del cj[r]
                        rows[n][r].discard(j)
                queue.append(j)
            drop(n - 1, b)

    keep = [[i for i, on in enumerate(live) if on] for live in alive]
    new_orders = [[orders[n][i] for i in kept] for n, kept in enumerate(keep)]
    if top:
        # below the top degree only the image of ∂_top counts: keep its
        # nonzero columns, on free generators
        keep[top] = [j for j in keep[top] if cols[top][j]]
        new_orders[top] = [0] * len(keep[top])
    index = [{i: x for x, i in enumerate(kept)} for kept in keep]
    new_columns = [None] + [[{index[n - 1][i]: v for i, v in cols[n][j].items()}
                             for j in keep[n]] for n in range(1, top + 1)]
    return ChainComplex(new_orders, new_columns, checked=True)


def _chain_tuples(cat, maxdeg):
    """chains[0] = objects; chains[n] = composable non-identity tuples."""
    chains = [list(cat.objects)]
    if maxdeg >= 1:
        chains.append([(m,) for m in sorted(cat.nonidentity_morphisms())])
    after = {o: sorted(m for m in ms if not cat.is_identity(m))
             for o, ms in cat.outgoing.items()}
    for n in range(2, maxdeg + 1):
        chains.append([c + (m,) for c in chains[n - 1]
                       for m in after[cat.cod[c[-1]]]])
    return chains


def bar_resolution(cat, maxdeg):
    """The normalized bar resolution of Z over cat up to degree maxdeg,
    without coefficients, as (bases, faces): generator g of degree n is
    chain g of `_chain_tuples`, its coefficient sits at bases[n][g], and
    faces(n) is a function face(g) that gives the boundary of generator
    g of degree n as terms (lower generator, morphism or None for the
    identity, coefficient)."""
    chains = _chain_tuples(cat, maxdeg)
    bases = [chains[0]] + [[cat.dom[c[0]] for c in cs] for cs in chains[1:]]

    def faces(n):
        below = {c: g for g, c in enumerate(chains[n - 1])}
        top = chains[n]

        def face(g):
            c = top[g]
            terms = [(below[c[1:] if n > 1 else cat.cod[c[0]]], c[0], 1)]
            for j in range(1, n):
                comp = cat.compose(c[j - 1], c[j])
                if not cat.is_identity(comp):
                    terms.append((below[c[:j - 1] + (comp,) + c[j + 1:]],
                                  None, -1 if j % 2 else 1))
            terms.append((below[c[:-1] if n > 1 else cat.dom[c[0]]], None,
                          -1 if n % 2 else 1))
            return terms

        return face

    return bases, faces


def _generated(cat, gens, one):
    """The subgroup that gens generate, breadth-first from one over
    right multiplication by gens."""
    out, seen = [one], {one}
    for y in out:
        for s in gens:
            z = cat.compose(y, s)
            if z not in seen:
                seen.add(z)
                out.append(z)
    return out


def group_resolution(cat, maxdeg):
    """A free ZH-resolution of Z up to degree maxdeg over a category with
    one object and every morphism invertible, a group H, described as by
    `bar_resolution` but with a few generators per degree where the bar
    resolution has (|H| - 1)^n; built greedily from kernels (Ellis,
    "Computing group resolutions", J. Symbolic Comput. 38, 2004).

    Write x h for compose(x, h), so that x acts on the left of the free
    module F_n, and take F_n as the lattice with basis x e_g over its
    generators e_g, x in H.  ∂_1 sends one generator per element s of a
    generating set to s - 1: the least in id order among the smallest
    sets.  For n >= 2 the generators of F_n come from the lattice
    K = ker ∂_(n-1): the rows of its reduced Hermite form, as
    `kernel_basis` gives them, are walked sparsest first, the later
    pivot first among rows as sparse, and a row outside the span S of
    the translates x v of the rows v taken so far is taken.  The walk
    stops when S has the rank and the product of pivots of K; S lies in
    K, so it is then K, and the resolution is exact below maxdeg.  The
    lattice coordinates list H breadth-first from the identity over the
    generating set, each element's generators together: on S_4 that
    gives ranks 1, 2, 3, 4, 5, 6, 7 up to degree 6, where id order gives
    1, 2, 3, 5, 8, 12 up to degree 5 and takes five times as long.

    >>> from oghom import fixtures
    >>> cat = fixtures.load("cyclic3").lc.category
    >>> bases, faces = group_resolution(cat, 3)
    >>> [len(b) for b in bases]
    [1, 1, 1, 1]
    >>> faces(1)(0)
    [(0, None, -1), (0, ('1', 't1'), 1)]
    """
    if not cat.is_group():
        raise StructuralDefect("a group resolution needs a group")
    (obj,) = cat.objects
    one, size = cat.identity[obj], len(cat.morphisms)
    ids = sorted(cat.nonidentity_morphisms())
    gens = next(c for k in range(size) for c in combinations(ids, k)
                if len(_generated(cat, c, one)) == size)
    elements = _generated(cat, gens, one)
    index = {h: i for i, h in enumerate(elements)}
    # times[x][h]: the index of x h
    times = [[index[cat.compose(x, h)] for h in elements] for x in elements]
    # boundary[n][g]: ∂ e_g as {h r + l: coefficient of h e_l}, r the
    # number of generators of degree n - 1
    boundary = [[None], [{0: -1, index[s]: 1} for s in gens]]

    def translate(v, x, rank):
        row = [0] * (size * rank)
        for i, c in v.items():
            h, lower = divmod(i, rank)
            row[times[x][h] * rank + lower] = c
        return row

    for n in range(2, maxdeg + 1):
        below, rank = len(boundary[n - 2]), len(boundary[n - 1])
        matrix = ZMatrix.from_cols([translate(v, x, below)
                                    for x in range(size)
                                    for v in boundary[n - 1]], size * below)
        kernel = list(zip(*kernel_basis(matrix).rows))
        pivot_product = prod(next(c for c in row if c) for row in kernel)
        span, found = EchelonBasis(), []
        # sparsest first, the later pivot first among rows as sparse
        for row in sorted(kernel[::-1], key=lambda r: len(r) - r.count(0)):
            if (span.rank == len(kernel)
                    and span.pivot_product() == pivot_product):
                break
            if span.add(row):
                v = {i: c for i, c in enumerate(row) if c}
                found.append(v)
                for x in range(1, size):
                    span.add(translate(v, x, rank))
        boundary.append(found)

    def faces(n):
        rank = len(boundary[n - 1])

        def face(g):
            terms = sorted((i % rank, i // rank, c)
                           for i, c in boundary[n][g].items())
            return [(lower, elements[h] if h else None, c)
                    for lower, h, c in terms]

        return face

    return [[obj] * len(b) for b in boundary[:maxdeg + 1]], faces


def tensor(resolution, module):
    """The module tensored with a resolution described as by
    `bar_resolution`, each coefficient group in canonical coordinates
    ⊕ Z/d_i with those of order 1 dropped, at its generator's offset."""
    bases, faces = resolution
    if len(bases) < 2:
        raise StructuralDefect("a complex needs at least degree 1")
    # equal coefficient groups share one instance, so one Smith form;
    # kept[g]: the canonical coordinates of g whose order is not 1
    first = {}
    groups = {o: first.setdefault(g, g) for o, g in module.groups.items()}
    kept = {g: [(i, k) for i, k in enumerate(g.canonical_orders()) if k != 1]
            for g in first}
    ks_at = {o: [k for _, k in kept[g]] for o, g in groups.items()}

    # offsets[n][g]: generator g's first chain-group generator; rank last
    orders = [[k for o in objects for k in ks_at[o]] for objects in bases]
    offsets = [list(accumulate((len(ks_at[o]) for o in objects), initial=0))
               for objects in bases]
    for n, ks in enumerate(orders):
        if len(ks) > MAX_CHAIN_RANK:
            warnings.warn("chain group at degree %d has rank %d (limit %d)"
                          % (n, len(ks), MAX_CHAIN_RANK))

    # per non-identity morphism and kept generator i of its domain's
    # group: the image of i, in kept coordinates
    cat, pushed = module.base, {}
    for m in cat.nonidentity_morphisms():
        src, tgt = groups[cat.dom[m]], groups[cat.cod[m]]
        images = []
        for i, _ in kept[src]:
            y = tgt.to_canonical(module.action[m].apply(src.from_canonical(
                [int(j == i) for j in range(src.ngens)])))
            images.append({r: y[t] for r, (t, _) in enumerate(kept[tgt])
                           if y[t]})
        pushed[m] = images

    columns = [None]
    for n in range(1, len(bases)):
        offs, below, ks = offsets[n], offsets[n - 1], orders[n - 1]
        cols, face = [], faces(n)
        for g in range(len(offs) - 1):
            if offs[g + 1] == offs[g]:
                # a trivial coefficient group gives no column
                continue
            terms = face(g)
            for i in range(offs[g + 1] - offs[g]):
                col = {}
                for lower, m, coef in terms:
                    at = below[lower]
                    if m is None:
                        # the identity keeps generator i in place
                        r = at + i
                        v = col.get(r, 0) + coef
                        col[r] = v % ks[r] if ks[r] else v
                        continue
                    for r, v in pushed[m][i].items():
                        r += at
                        v = col.get(r, 0) + coef * v
                        col[r] = v % ks[r] if ks[r] else v
                cols.append({r: v for r, v in col.items() if v})
        columns.append(cols)
    return ChainComplex(orders, columns)


def nerve_complex(cat, module, maxdeg):
    """Chain complex of the normalized nerve up to degree maxdeg: the
    bar resolution tensored with the module."""
    return tensor(bar_resolution(cat, maxdeg), module)


def _refuse_negative(degrees):
    """Refuse a negative degree before any complex is built."""
    if min(degrees) < 0:
        raise PreconditionViolation("homology needs degrees >= 0")


def _resolution(cat, maxdeg):
    """`group_resolution` when cat is a group and `bar_resolution`
    otherwise."""
    return (group_resolution if cat.is_group() else bar_resolution)(
        cat, maxdeg)


def homology(cat, module, n, complex_=None):
    """H_n of the module's nerve; degree 0 is cross-checked against the
    colimit and a mismatch is a structural defect.  A negative n is a
    precondition violation."""
    _refuse_negative([n])
    cx = complex_ or nerve_complex(cat, module, n + 1)
    h = cx.homology(n)
    if n == 0:
        colim, _ = colim_category(cat, module)
        if h.canonical_form() != colim.canonical_form():
            raise StructuralDefect(
                "H_0 %r disagrees with the colimit %r"
                % (h.canonical_form(), colim.canonical_form()))
    return h


def homology_profile(cat, module, maxdeg):
    """Canonical forms of H_0 .. H_maxdeg, all read from one complex: the
    module tensored with `group_resolution` when cat is a group, and the
    nerve otherwise."""
    _refuse_negative([maxdeg])
    cx = tensor(_resolution(cat, maxdeg + 1), module)
    return [homology(cat, module, n, complex_=cx).canonical_form()
            for n in range(maxdeg + 1)]


def _form_dict(form):
    rank, torsion = form
    return {"rank": rank, "torsion": list(torsion)}


class TheoremReport:
    def __init__(self, rows):
        self.rows = rows

    @property
    def ok(self):
        return all(r["equal"] for r in self.rows)

    def __repr__(self):
        word = "pass" if self.ok else "FAIL"
        return "TheoremReport(%s, %d degrees)" % (word, len(self.rows))


def check_theorem(g0, lc, a_module, degrees):
    """Compare H_n over the groupoid's category with H_n of the class
    colimits over the quotient, degree by degree.  The category side is
    always read from the nerve of L(G), and the quotient side as in
    `homology_profile`, so a quotient that is a group is checked against
    an independent algorithm."""
    if not degrees:
        raise PreconditionViolation("no degree to compare")
    _refuse_negative(degrees)
    colim = colim_E(g0, lc, a_module)
    qc = colim.module.base
    top = max(degrees)
    left_cx = nerve_complex(lc.category, a_module, top + 1)
    right_cx = tensor(_resolution(qc, top + 1), colim.module)
    rows = []
    for n in sorted(degrees):
        left = homology(lc.category, a_module, n, complex_=left_cx)
        right = homology(qc, colim.module, n, complex_=right_cx)
        lf, rf = left.canonical_form(), right.canonical_form()
        rows.append({"degree": n,
                     "left": _form_dict(lf),
                     "right": _form_dict(rf),
                     "equal": lf == rf})
    return TheoremReport(rows)
