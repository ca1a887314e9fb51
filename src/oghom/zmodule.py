"""Exact linear algebra over the integers for finitely generated abelian groups.

Groups are presented as cokernels of integer relation matrices, maps are
integer matrices on generators, and every structural question (canonical
form, membership, kernels, homology) reduces to Smith normal form with
tracked unimodular transforms.  All arithmetic uses Python's unbounded
integers; nothing here may silently overflow or round.
"""

from math import gcd

from .errors import (
    CompositeNonzero,
    NotInduced,
    PreconditionViolation,
)


class ZMatrix:
    """Immutable integer matrix.

    >>> m = ZMatrix([[1, 2], [3, 4]])
    >>> m.mul(ZMatrix.identity(2)) == m
    True
    >>> m.transpose().rows
    ((1, 3), (2, 4))
    """

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows, ncols=None):
        rows = tuple(tuple(int(v) for v in row) for row in rows)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        if rows:
            width = len(rows[0])
            for row in rows:
                if len(row) != width:
                    raise ValueError("ragged matrix")
            if ncols is not None and ncols != width:
                raise ValueError("ncols disagrees with row length")
            object.__setattr__(self, "ncols", width)
        else:
            object.__setattr__(self, "ncols", 0 if ncols is None else int(ncols))

    def __setattr__(self, name, value):
        raise AttributeError("ZMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls([[0] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_cols(cls, cols, nrows):
        cols = [tuple(c) for c in cols]
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column of wrong height")
        return cls([[c[i] for c in cols] for i in range(nrows)], ncols=len(cols))

    def col(self, j):
        return tuple(row[j] for row in self.rows)

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch %sx%s @ %sx%s"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        orows = other.rows
        out = []
        for row in self.rows:
            acc = [0] * other.ncols
            for k, a in enumerate(row):
                if a:
                    orow = orows[k]
                    for j in range(other.ncols):
                        acc[j] += a * orow[j]
            out.append(acc)
        return ZMatrix(out, ncols=other.ncols)

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("vector of wrong length")
        return tuple(sum(a * v for a, v in zip(row, vec)) for row in self.rows)

    def add(self, other):
        self._same_shape(other)
        return ZMatrix([[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.rows, other.rows)], ncols=self.ncols)

    def sub(self, other):
        self._same_shape(other)
        return ZMatrix([[a - b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.rows, other.rows)], ncols=self.ncols)

    def neg(self):
        return ZMatrix([[-a for a in row] for row in self.rows], ncols=self.ncols)

    def scale(self, k):
        k = int(k)
        return ZMatrix([[k * a for a in row] for row in self.rows], ncols=self.ncols)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return ZMatrix([r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
                       ncols=self.ncols + other.ncols)

    def vstack(self, other):
        if self.ncols != other.ncols:
            raise ValueError("column count mismatch")
        return ZMatrix(self.rows + other.rows, ncols=self.ncols)

    def transpose(self):
        return ZMatrix([self.col(j) for j in range(self.ncols)], ncols=self.nrows)

    def is_zero(self):
        return all(all(a == 0 for a in row) for row in self.rows)

    def to_lists(self):
        return [list(row) for row in self.rows]

    def det(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return 1
        m = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            pivot = m[k][k]
            for i in range(k + 1, n):
                mik = m[i][k]
                mi = m[i]
                mk = m[k]
                for j in range(k + 1, n):
                    mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
                mi[k] = 0
            prev = pivot
        return sign * m[n - 1][n - 1]

    def _same_shape(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    def __eq__(self, other):
        return (isinstance(other, ZMatrix) and self.ncols == other.ncols
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.rows, self.ncols))

    def __repr__(self):
        return "ZMatrix(%r)" % (self.to_lists(),)


def block_diag(blocks):
    """Block-diagonal matrix from a list of ZMatrix blocks."""
    nrows = sum(b.nrows for b in blocks)
    ncols = sum(b.ncols for b in blocks)
    out = [[0] * ncols for _ in range(nrows)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b.rows):
            out[r0 + i][c0:c0 + b.ncols] = list(row)
        r0 += b.nrows
        c0 += b.ncols
    return ZMatrix(out, ncols=ncols)


def prune_columns(m):
    """Drop zero columns and repeated columns (up to sign).

    The column span is unchanged, which is all the SNF-driven membership
    and quotient routines care about.  Boundary matrices of nerves are
    full of duplicates, so this is a large constant-factor win.
    """
    seen = set()
    keep = []
    for j in range(m.ncols):
        c = m.col(j)
        if all(v == 0 for v in c):
            continue
        cn = tuple(-v for v in c)
        if c in seen or cn in seen:
            continue
        seen.add(c)
        keep.append(c)
    return ZMatrix.from_cols(keep, m.nrows)


class SNFResult:
    """Holds S = U M V with U, V unimodular and S in Smith normal form."""

    __slots__ = ("s", "u", "v", "uinv", "vinv")

    def __init__(self, s, u, v, uinv, vinv):
        self.s = s
        self.u = u
        self.v = v
        self.uinv = uinv
        self.vinv = vinv

    @property
    def diagonal(self):
        n = min(self.s.nrows, self.s.ncols)
        return tuple(self.s.rows[i][i] for i in range(n))

    @property
    def rank(self):
        return sum(1 for d in self.diagonal if d != 0)


def snf(m):
    """Smith normal form with tracked transforms.

    Returns an SNFResult with u.mul(m).mul(v) == s, both transforms
    unimodular, the diagonal of s non-negative, and each diagonal entry
    dividing the next.  Reduction is gcd-driven with the pivot chosen as
    a minimal-absolute-value entry of the remaining submatrix.

    >>> res = snf(ZMatrix([[4, 2], [2, 2]]))
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

    return SNFResult(ZMatrix(a, ncols=nc), ZMatrix(u, ncols=nr),
                     ZMatrix(v, ncols=nc), ZMatrix(uinv, ncols=nr),
                     ZMatrix(vinv, ncols=nc))


def is_unimodular(m):
    return m.nrows == m.ncols and abs(m.det()) == 1


class ColumnSolver:
    """Solves M X = C over the integers for a fixed M and decides
    membership in the column span of M."""

    def __init__(self, m):
        self.m = m
        self._res = snf(m)
        self._diag = self._res.diagonal

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

    def solve_matrix(self, c):
        """Some integer X with M X = C, or None."""
        if c.nrows != self.m.nrows:
            raise ValueError("right-hand side of wrong height")
        xcols = []
        for j in range(c.ncols):
            x = self.solve_vector(c.col(j))
            if x is None:
                return None
            xcols.append(x)
        return ZMatrix.from_cols(xcols, self.m.ncols)

    def contains(self, vec):
        return self.solve_vector(vec) is not None


def kernel_basis(m):
    """Basis of the integer kernel lattice of m, as matrix columns."""
    res = snf(m)
    r = res.rank
    cols = [res.v.col(j) for j in range(r, m.ncols)]
    return ZMatrix.from_cols(cols, m.ncols)


def lattice_basis(m):
    """Independent columns spanning the column span of m.

    The generating columns of m may be dependent; the returned basis is
    honest, so coordinates with respect to it are unique.
    """
    res = snf(m)
    cols = []
    for i in range(res.rank):
        d = res.s.rows[i][i]
        cols.append(tuple(d * x for x in res.uinv.col(i)))
    return ZMatrix.from_cols(cols, m.nrows)


class FgAbGroup:
    """Finitely generated abelian group, presented as a cokernel.

    The group is Z^ngens modulo the column span of `relations`.

    >>> g = FgAbGroup(2, ZMatrix([[2, 0], [0, 0]]))
    >>> g.canonical_form()
    (1, (2,))
    >>> FgAbGroup.from_invariants(0, [2, 4]).order()
    8
    >>> FgAbGroup.free(1).order() is None
    True
    """

    __slots__ = ("ngens", "relations", "_decomp", "_solver")

    def __init__(self, ngens, relations=None):
        self.ngens = int(ngens)
        if relations is None:
            relations = ZMatrix.zeros(self.ngens, 0)
        if relations.nrows != self.ngens:
            raise ValueError("relation matrix height must equal ngens")
        self.relations = relations
        self._decomp = None
        self._solver = None

    @classmethod
    def free(cls, n):
        return cls(n)

    @classmethod
    def trivial(cls):
        return cls(0)

    @classmethod
    def from_invariants(cls, rank, torsion):
        torsion = [int(d) for d in torsion]
        if any(d < 2 for d in torsion):
            raise ValueError("torsion entries must be >= 2")
        n = rank + len(torsion)
        cols = []
        for i, d in enumerate(torsion):
            col = [0] * n
            col[i] = d
            cols.append(col)
        return cls(n, ZMatrix.from_cols(cols, n))

    def _decomposition(self):
        # orders[i] is the order of the i-th canonical coordinate
        # (0 meaning infinite); x-coordinates convert via y = U x.
        if self._decomp is None:
            res = snf(prune_columns(self.relations))
            diag = res.diagonal
            orders = []
            for i in range(self.ngens):
                orders.append(diag[i] if i < len(diag) else 0)
            self._decomp = (tuple(orders), res.u, res.uinv)
        return self._decomp

    def canonical_orders(self):
        """Order of each canonical coordinate, 0 meaning a free factor."""
        return self._decomposition()[0]

    def canonical_form(self):
        """(free rank, ascending invariant factors > 1)."""
        orders = self.canonical_orders()
        rank = sum(1 for d in orders if d == 0)
        torsion = tuple(d for d in orders if d > 1)
        return (rank, torsion)

    def order(self):
        rank, torsion = self.canonical_form()
        if rank:
            return None
        n = 1
        for d in torsion:
            n *= d
        return n

    def is_trivial(self):
        return self.canonical_form() == (0, ())

    def zero(self):
        return (0,) * self.ngens

    def to_canonical(self, x):
        orders, u, _ = self._decomposition()
        y = list(u.apply(x))
        for i, d in enumerate(orders):
            if d:
                y[i] %= d
        return tuple(y)

    def from_canonical(self, y):
        _, _, uinv = self._decomposition()
        return uinv.apply(y)

    def element_vectors(self, limit=None):
        """All elements in canonical coordinates; error if infinite or
        past `limit`."""
        n = self.order()
        if n is None:
            raise PreconditionViolation("group is infinite")
        if limit is not None and n > limit:
            raise PreconditionViolation("group has %d elements, limit %d" % (n, limit))
        orders = self.canonical_orders()
        elems = [()]
        for d in orders:
            span = range(d if d else 1)
            elems = [e + (v,) for e in elems for v in span]
        return elems

    def add_canonical(self, a, b):
        orders = self.canonical_orders()
        return tuple((x + y) % d if d else x + y
                     for x, y, d in zip(a, b, orders))

    def scale_canonical(self, k, a):
        orders = self.canonical_orders()
        return tuple((k * x) % d if d else k * x for x, d in zip(a, orders))

    def relation_solver(self):
        if self._solver is None:
            self._solver = ColumnSolver(prune_columns(self.relations))
        return self._solver

    def in_relation_span(self, vec):
        return self.relation_solver().contains(vec)

    def same_invariants(self, other):
        return self.canonical_form() == other.canonical_form()

    def __eq__(self, other):
        return (isinstance(other, FgAbGroup) and self.ngens == other.ngens
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.ngens, self.relations))

    def __repr__(self):
        rank, torsion = self.canonical_form()
        return "FgAbGroup(rank=%d, torsion=%s)" % (rank, list(torsion))


def hom_welldefined(source, target, matrix):
    """True iff `matrix` sends every relation of the source into the
    relation span of the target."""
    if matrix.nrows != target.ngens or matrix.ncols != source.ngens:
        return False
    image = matrix.mul(source.relations)
    solver = target.relation_solver()
    return all(solver.contains(image.col(j)) for j in range(image.ncols))


class AbHom:
    """Homomorphism of presented groups, as a matrix on generators.

    Construction checks well-definedness: relations of the source must
    land in the relation span of the target.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix, checked=False):
        if matrix.nrows != target.ngens or matrix.ncols != source.ngens:
            raise ValueError("matrix shape %dx%d does not fit %d -> %d generators"
                             % (matrix.nrows, matrix.ncols, source.ngens, target.ngens))
        if not checked and not hom_welldefined(source, target, matrix):
            raise PreconditionViolation("matrix does not descend to the quotients")
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def identity(cls, group):
        return cls(group, group, ZMatrix.identity(group.ngens), checked=True)

    @classmethod
    def zero(cls, source, target):
        return cls(source, target, ZMatrix.zeros(target.ngens, source.ngens),
                   checked=True)

    def apply(self, x):
        return self.matrix.apply(x)

    def apply_canonical(self, y):
        x = self.source.from_canonical(y)
        return self.target.to_canonical(self.matrix.apply(x))

    def then(self, other):
        """Composite `self` followed by `other`."""
        if self.target != other.source:
            raise PreconditionViolation("homs do not compose: target != source")
        return AbHom(self.source, other.target,
                     other.matrix.mul(self.matrix), checked=True)

    def add(self, other):
        self._parallel(other)
        return AbHom(self.source, self.target,
                     self.matrix.add(other.matrix), checked=True)

    def sub(self, other):
        self._parallel(other)
        return AbHom(self.source, self.target,
                     self.matrix.sub(other.matrix), checked=True)

    def _parallel(self, other):
        if self.source != other.source or self.target != other.target:
            raise PreconditionViolation("homs are not parallel")

    def equal_as_maps(self, other):
        """True iff the two homs agree as maps of the quotients."""
        self._parallel(other)
        diff = self.matrix.sub(other.matrix)
        solver = self.target.relation_solver()
        return all(solver.contains(diff.col(j)) for j in range(diff.ncols))

    def is_zero_map(self):
        solver = self.target.relation_solver()
        return all(solver.contains(self.matrix.col(j))
                   for j in range(self.matrix.ncols))

    def is_surjective(self):
        reach = ColumnSolver(self.matrix.hstack(prune_columns(self.target.relations)))
        n = self.target.ngens
        for i in range(n):
            e = [0] * n
            e[i] = 1
            if not reach.contains(e):
                return False
        return True

    def is_injective(self):
        pre = preimage_lattice(self.matrix, self.target.relations)
        solver = self.source.relation_solver()
        return all(solver.contains(pre.col(j)) for j in range(pre.ncols))

    def is_isomorphism(self):
        return self.is_surjective() and self.is_injective()

    def __repr__(self):
        return "AbHom(%r -> %r)" % (self.source, self.target)


def preimage_lattice(matrix, target_relations):
    """Generators of {x : matrix @ x lies in the span of target_relations}."""
    w = matrix.hstack(prune_columns(target_relations))
    ker = kernel_basis(w)
    top = ZMatrix([ker.rows[i] for i in range(matrix.ncols)], ncols=ker.ncols)
    return lattice_basis(top)


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


def induced_on_cokernel(hom, extra_relations):
    """The map induced by `hom` on the source quotiented by extra relations.

    Raises NotInduced if the matrix does not descend.

    >>> z = FgAbGroup.free(1)
    >>> z4 = FgAbGroup.from_invariants(0, [4])
    >>> h = AbHom(z, z4, ZMatrix([[2]]))
    >>> q = induced_on_cokernel(h, ZMatrix([[2]]))
    >>> q.source.canonical_form()
    (0, (2,))
    >>> q.is_injective()
    True
    """
    if extra_relations.nrows != hom.source.ngens:
        raise ValueError("extra relations of wrong height")
    new_source = FgAbGroup(hom.source.ngens,
                           hom.source.relations.hstack(extra_relations))
    if not hom_welldefined(new_source, hom.target, hom.matrix):
        raise NotInduced("map does not kill the extra relations")
    return AbHom(new_source, hom.target, hom.matrix, checked=True)


def homology_at(f, g):
    """ker(g)/im(f) for presented-group maps f: A -> B, g: B -> C.

    Computed by lifting to the free cover of B: the kernel of g is the
    projection of the integer kernel of [g.matrix | relations of C],
    re-based to an honest lattice basis, and the answer is that lattice
    modulo the columns of f plus the relations of B.

    >>> z = FgAbGroup.free(1)
    >>> dbl = AbHom(z, z, ZMatrix([[2]]))
    >>> to0 = AbHom.zero(z, FgAbGroup.trivial())
    >>> from0 = AbHom.zero(FgAbGroup.trivial(), z)
    >>> homology_at(from0, dbl).canonical_form()   # middle of 0 -> Z -2-> Z
    (0, ())
    >>> homology_at(dbl, to0).canonical_form()     # right end
    (0, (2,))
    """
    if f.target != g.source:
        raise PreconditionViolation("maps are not consecutive")
    b = f.target
    comp = g.matrix.mul(f.matrix)
    csolver = g.target.relation_solver()
    for j in range(comp.ncols):
        if not csolver.contains(comp.col(j)):
            raise CompositeNonzero("composite g o f is not zero")

    w = g.matrix.hstack(prune_columns(g.target.relations))
    ker = kernel_basis(w)
    top = ZMatrix([ker.rows[i] for i in range(b.ngens)], ncols=ker.ncols)
    kbasis = lattice_basis(top)
    if kbasis.ncols == 0:
        return FgAbGroup.trivial()
    rhs = f.matrix.hstack(prune_columns(b.relations))
    q = ColumnSolver(kbasis).solve_matrix(rhs)
    if q is None:
        raise PreconditionViolation("image does not lie in the kernel lattice")
    return FgAbGroup(kbasis.ncols, q)


def enumerate_homs(source, target, max_count=200000):
    """Every homomorphism source -> target, as AbHom objects.

    Works through the canonical decompositions; the hom set must be
    finite (source torsion or target finite).
    """
    s_orders, s_u, _ = source._decomposition()
    t_orders, _, t_uinv = target._decomposition()
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
