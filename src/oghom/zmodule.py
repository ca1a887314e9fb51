"""Exact linear algebra over the integers for finitely generated abelian groups.

Groups are presented as cokernels of integer relation matrices and maps
are integer matrices on generators.  A canonical form needs only the
invariant factors, which `invariant_factors` computes without transforms
by elimination modulo a nonzero maximal minor.  Questions that need
coordinates (membership, kernels, solves, homology) go through Smith
normal form with tracked unimodular transforms.  All arithmetic uses
Python's unbounded integers; nothing here may silently overflow or round.
"""

from math import gcd

from .errors import CompositeNonzero, PreconditionViolation


class ZMatrix:
    """Immutable integer matrix.

    >>> m = ZMatrix([[1, 2], [3, 4]])
    >>> m.mul(ZMatrix.identity(2)) == m
    True
    >>> m.hstack(ZMatrix.zeros(2, 1)).rows
    ((1, 2, 0), (3, 4, 0))
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
    def _trusted(cls, rows, ncols):
        """A matrix from equal-length rows of ints that the library built
        itself, taken without the conversion and checks of __init__."""
        self = object.__new__(cls)
        rows = tuple(map(tuple, rows))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "nrows", len(rows))
        object.__setattr__(self, "ncols", ncols)
        return self

    @classmethod
    def identity(cls, n):
        return cls._trusted([[1 if i == j else 0 for j in range(n)]
                             for i in range(n)], n)

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls._trusted([(0,) * ncols] * nrows, ncols)

    @classmethod
    def from_cols(cls, cols, nrows):
        cols = [tuple(c) for c in cols]
        for c in cols:
            if len(c) != nrows:
                raise ValueError("column of wrong height")
        rows = zip(*cols) if cols else [()] * nrows
        return cls._trusted(rows, len(cols))

    def col(self, j):
        return tuple(row[j] for row in self.rows)

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
        return ZMatrix._trusted(out, other.ncols)

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.ncols:
            raise ValueError("vector of wrong length")
        return tuple(sum(a * v for a, v in zip(row, vec)) for row in self.rows)

    def sub(self, other):
        self._same_shape(other)
        return ZMatrix._trusted([[a - b for a, b in zip(r1, r2)]
                                 for r1, r2 in zip(self.rows, other.rows)],
                                self.ncols)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise ValueError("row count mismatch")
        return ZMatrix._trusted([r1 + r2 for r1, r2 in zip(self.rows, other.rows)],
                                self.ncols + other.ncols)

    def to_lists(self):
        return [list(row) for row in self.rows]

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
    return ZMatrix._trusted(out, ncols)


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

    return SNFResult(ZMatrix._trusted(a, nc), ZMatrix._trusted(u, nr),
                     ZMatrix._trusted(v, nc), ZMatrix._trusted(uinv, nr),
                     ZMatrix._trusted(vinv, nc))


def _rank_and_minor(rows, ncols):
    """Rank r of a matrix and one nonzero r x r minor (1 when r = 0), by
    fraction-free (Bareiss) row echelon elimination: each pivot is the
    minor on the pivot rows and columns so far, and the sign follows the
    row swaps, so a square matrix of full rank gives its determinant."""
    a = [list(row) for row in rows]
    rank, prev, sign = 0, 1, 1
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            sign = -sign
        top = a[rank]
        p = top[c]
        for i in range(rank + 1, len(a)):
            x = a[i][c]
            a[i] = [(p * y - x * z) // prev for y, z in zip(a[i], top)]
        prev = p
        rank += 1
    return rank, sign * prev


def _cyclic_orders_mod(rows, d):
    """Orders of the cyclic summands of (Z/d)^n modulo the column span of
    `rows` (n rows), one divisor of d per row.

    Invertible row and column operations over Z/d keep that cokernel, so
    the elimination keeps every entry in [0, d).  The pivot is an entry x
    of least g = gcd(x, d), a unit if there is one.  When g divides every
    entry of the pivot's row and column, the pivot clears its column and
    leaves with order g (column operations would clear its row without
    touching any other).  Otherwise a Bezout step with an entry that g
    does not divide makes an entry of smaller g.  Rows that end all zero
    are Z/d each.
    """
    a = [[x % d for x in row] for row in rows]
    orders = []
    while True:
        nonzero = [row for row in a if any(row)]
        orders += [d] * (len(a) - len(nonzero))
        a = nonzero
        if not a:
            return orders
        g, i, j = _least_gcd_entry(a, d)
        k = next((k for k, row in enumerate(a) if row[j] % g), None)
        if k is not None:
            s, t, p, q = _bezout(a[i][j], a[k][j])
            ri, rk = a[i], a[k]
            a[i] = [(s * v + t * w) % d for v, w in zip(ri, rk)]
            a[k] = [(p * v - q * w) % d for v, w in zip(ri, rk)]
            continue
        k = next((k for k, y in enumerate(a[i]) if y % g), None)
        if k is not None:
            s, t, p, q = _bezout(a[i][j], a[i][k])
            for row in a:
                v, w = row[j], row[k]
                row[j] = (s * v + t * w) % d
                row[k] = (p * v - q * w) % d
            continue
        # x c = y (mod d) is solved by c = (y/g) (x/g)^-1 mod d/g; the
        # cleared column is dropped with the pivot row
        top = a.pop(i)
        inv = pow(top.pop(j) // g, -1, d // g)
        for k, row in enumerate(a):
            y = row.pop(j)
            if y:
                c = y // g * inv % (d // g)
                a[k] = [(v - c * w) % d for v, w in zip(row, top)]
        orders.append(g)


def _least_gcd_entry(a, d):
    """(g, i, j) for a nonzero entry x = a[i][j] of least g = gcd(x, d),
    stopping at the first unit."""
    best = None
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if x:
                g = gcd(x, d)
                if g == 1:
                    return 1, i, j
                if best is None or g < best[0]:
                    best = g, i, j
    return best


def _bezout(x, y):
    """(s, t, p, q) with s x + t y = gcd(x, y) = h, p = y / h, q = x / h;
    [[s, t], [p, -q]] is unimodular and sends (x, y) to (h, 0)."""
    s0, s1, t0, t1, a, b = 1, 0, 0, 1, x, y
    while b:
        quo = a // b
        a, b = b, a - quo * b
        s0, s1 = s1, s0 - quo * s1
        t0, t1 = t1, t0 - quo * t1
    return s0, t0, y // a, x // a


def invariant_factors(m):
    """The Smith diagonal of m padded with zeros to m.nrows: the order of
    each canonical coordinate of Z^nrows modulo the columns of m (0 for a
    free one), computed without transforms.

    Fraction-free elimination gives the rank r and a nonzero r x r minor
    D.  The product d_1 ... d_r of the nonzero invariant factors divides
    every r x r minor, so each d_i divides D, and Z^nrows modulo the
    columns of m and D Z^nrows is Z/d_1 + ... + Z/d_r + (Z/D)^(nrows - r).
    That group is read off by elimination modulo D, so no entry grows past
    D (Domich, Kannan and Trotter 1987; Hafner and McCurley 1991).

    >>> invariant_factors(ZMatrix([[4, 2], [2, 2]]))
    (2, 2)
    >>> invariant_factors(ZMatrix([[2, 4], [0, 0], [6, 3]]))
    (1, 18, 0)
    """
    n = m.nrows
    rank, d = _rank_and_minor(m.rows, m.ncols)
    d = abs(d)
    if d == 1:
        return (1,) * rank + (0,) * (n - rank)
    orders = _cyclic_orders_mod(m.rows, d)
    # Z/a + Z/b = Z/gcd + Z/lcm merges the summands into a divisibility
    # chain; the summands Z/D are already at its top
    tops = sum(1 for g in orders if g == d)
    mid = sorted(g for g in orders if 1 < g < d)
    for i in range(len(mid)):
        for k in range(i + 1, len(mid)):
            h = gcd(mid[i], mid[k])
            mid[i], mid[k] = h, mid[i] * mid[k] // h
    chain = [1] * (n - tops - len(mid)) + mid + [d] * tops
    return tuple(chain[:rank]) + (0,) * (n - rank)


class ColumnSolver:
    """Solves M X = C over the integers for a fixed M; None answers a
    right-hand side outside the column span of M."""

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

    __slots__ = ("ngens", "relations", "_decomp", "_orders")

    def __init__(self, ngens, relations=None):
        self.ngens = int(ngens)
        if relations is None:
            relations = ZMatrix.zeros(self.ngens, 0)
        if relations.nrows != self.ngens:
            raise ValueError("relation matrix height must equal ngens")
        self.relations = relations
        self._decomp = None
        self._orders = None

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
        n = int(rank) + len(torsion)
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
        """Order of each canonical coordinate, 0 meaning a free factor.

        Read from the Smith form when coordinates were already asked
        for; otherwise computed without transforms.
        """
        if self._decomp is not None:
            return self._decomp[0]
        if self._orders is None:
            self._orders = invariant_factors(prune_columns(self.relations))
        return self._orders

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

    def in_relation_span(self, vec):
        """True iff every canonical coordinate of vec is zero."""
        return not any(self.to_canonical(vec))

    def kills(self, matrix):
        """True iff every column of `matrix` lies in the relation span.

        Zero columns are accepted without touching the Smith form.

        >>> FgAbGroup.from_invariants(1, [4]).kills(ZMatrix([[0, 8], [0, 3]]))
        False
        >>> FgAbGroup.from_invariants(0, [4]).kills(ZMatrix([[0, 8, -4]]))
        True
        """
        if matrix.nrows != self.ngens:
            raise ValueError("matrix height must equal ngens")
        return all(self.in_relation_span(c)
                   for c in zip(*matrix.rows) if any(c))

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
    return target.kills(matrix.mul(source.relations))


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

    def then(self, other):
        """Composite `self` followed by `other`."""
        if self.target != other.source:
            raise PreconditionViolation("homs do not compose: target != source")
        return AbHom(self.source, other.target,
                     other.matrix.mul(self.matrix), checked=True)

    def _parallel(self, other):
        if self.source != other.source or self.target != other.target:
            raise PreconditionViolation("homs are not parallel")

    def equal_as_maps(self, other):
        """True iff the two homs agree as maps of the quotients."""
        self._parallel(other)
        return self.target.kills(self.matrix.sub(other.matrix))

    def is_surjective(self):
        """True iff the cokernel Z^n / (image + relations) is trivial."""
        return FgAbGroup(self.target.ngens, self.matrix.hstack(
            self.target.relations)).is_trivial()

    def is_injective(self):
        return self.source.kills(
            preimage_lattice(self.matrix, self.target.relations))

    def __repr__(self):
        return "AbHom(%r -> %r)" % (self.source, self.target)


def preimage_lattice(matrix, target_relations):
    """Generators of {x : matrix @ x lies in the span of target_relations}."""
    w = matrix.hstack(prune_columns(target_relations))
    ker = kernel_basis(w)
    top = ZMatrix._trusted(ker.rows[:matrix.ncols], ker.ncols)
    return lattice_basis(top)


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
    if not g.target.kills(g.matrix.mul(f.matrix)):
        raise CompositeNonzero("composite g o f is not zero")

    kbasis = preimage_lattice(g.matrix, g.target.relations)
    if kbasis.ncols == 0:
        return FgAbGroup.trivial()
    rhs = f.matrix.hstack(prune_columns(b.relations))
    q = ColumnSolver(kbasis).solve_matrix(rhs)
    if q is None:
        raise PreconditionViolation("image does not lie in the kernel lattice")
    return FgAbGroup(kbasis.ncols, q)
