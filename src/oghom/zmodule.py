"""Exact linear algebra over the integers for finitely generated abelian groups.

Groups are presented as cokernels of integer relation matrices and maps
are integer matrices on generators.  One algorithm gives both Smith
normal form and invariant factors: Kannan–Bachem Hermite alternation, a
Hermite pass on the longer side, then passes on rows and columns in turn
until the matrix is diagonal, each reducing the entries above a pivot
as soon as it changes.  That keeps every entry, and so the transforms,
polynomial in size, within a few times the bit length of the
determinant on dense square matrices.  A canonical form needs only the
invariant factors, which `invariant_factors` reads from the passes with
no transform tracked; only canonical coordinates go through the Smith
transform U and its inverse.  Every other lattice question reads the
echelon rows of one lattice type, `EchelonBasis`: membership in a
relation span reduces a vector by a basis of the relations, and kernels
and solves, and so `homology_at`, reduce by the reduced Hermite form of
[M^T | I] (`ColumnSolver`).  All arithmetic uses Python's unbounded
integers; nothing here may silently overflow or round.
"""

from math import prod

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
        zero = (0,) * n
        return cls._trusted([zero[:i] + (1,) + zero[i + 1:]
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
    """Smith normal form with tracked transforms, by Kannan–Bachem
    Hermite alternation (Kannan and Bachem 1979).

    Returns an SNFResult with u.mul(m).mul(v) == s, both transforms
    unimodular, the diagonal of s non-negative, and each diagonal entry
    dividing the next.  A row pass brings the rows to Hermite normal form
    (`_hermite_rows`) and a column pass does the same to the columns.
    The first pass runs on the longer side, then the two alternate until
    the matrix is diagonal; an input that is already diagonal skips both,
    and one already in Smith form comes back with identity transforms.
    A finish makes the signs positive, sorts the diagonal with its zeros
    last and turns it into a divisibility chain with gcd/lcm steps.

    Each pass reduces the entries above a pivot as soon as the pivot is
    made or changed, which keeps every entry, and so the transforms,
    polynomial in size: on dense 20x20 to 40x40 matrices with entries in
    [-50, 50] the entries of U, V and their inverses stay within
    4 bits(D) + 64 bits, D the determinant (about 2 bits(D) in practice),
    where elimination around least entries without reduction reaches
    about 38 bits(D).

    >>> res = snf(ZMatrix([[4, 2], [2, 2]]))
    >>> res.diagonal
    (2, 2)
    >>> res.u.mul(ZMatrix([[4, 2], [2, 2]])).mul(res.v) == res.s
    True
    >>> m = ZMatrix([[2, 4, 6, 8], [1, 3, 5, 7], [4, 10, 16, 22]])
    >>> res = snf(m)                       # row 2 = row 0 + 2 row 1
    >>> res.diagonal, res.rank
    ((1, 2, 0), 2)
    >>> res.u.mul(m).mul(res.v) == res.s
    True
    """
    nr, nc = m.nrows, m.ncols
    d = [m.rows[i][i] for i in range(min(nr, nc))]
    if min(d, default=0) >= 0 and _is_chain(d) and _is_diagonal(m.rows):
        eye = ZMatrix.identity(nr)
        eye_c = eye if nc == nr else ZMatrix.identity(nc)
        return SNFResult(m, eye, eye_c, eye, eye_c)
    # U with the rows of U^-T, and V^T with V^-1
    left = _identity_rows(nr), _identity_rows(nr)
    right = _identity_rows(nc), _identity_rows(nc)
    d = _diagonalize(m, left, right)

    zero = (0,) * nc
    diag = [zero[:i] + (x,) + zero[i + 1:] for i, x in enumerate(d)]
    diag += [zero] * (nr - len(d))
    return SNFResult(ZMatrix._trusted(diag, nc), ZMatrix._trusted(left[0], nr),
                     ZMatrix._trusted(zip(*right[0]), nc),
                     ZMatrix._trusted(zip(*left[1]), nr),
                     ZMatrix._trusted(right[1], nc))


def _diagonalize(m, left, right):
    """The Smith diagonal of m, min(m.nrows, m.ncols) entries long, by the
    passes and finish that `snf` describes.

    left and right are pairs of row lists, m.nrows and m.ncols rows
    long: a pass on the rows of the working matrix applies each
    operation to the rows of the first list of its side and the inverse
    transpose to the second, and the finish does the same.  Rows of
    width 0 track nothing; the four lists must still be distinct.
    """
    nr, nc = m.nrows, m.ncols
    # the first pass runs on the longer side; a holds the transpose of
    # the working matrix while the columns are being reduced
    on_cols = flipped = nr < nc
    a = [list(row) for row in (zip(*m.rows) if flipped else m.rows)]
    while not _is_diagonal(a):
        if on_cols != flipped:
            a = [list(col) for col in zip(*a)]
            flipped = on_cols
        _hermite_rows(a, *(right if on_cols else left))
        on_cols = not on_cols

    d = [a[i][i] for i in range(min(nr, nc))]
    for i, x in enumerate(d):
        if x < 0:
            d[i] = -x
            for rows in left:
                rows[i] = [-y for y in rows[i]]
    if not _is_chain(d):
        # ascending with the zeros last, which leaves fewer pairs out of
        # the divisibility chain
        perm = sorted(range(len(d)), key=lambda i: (not d[i], d[i]))
        d = [d[i] for i in perm]
        for rows in left + right:
            rows[:len(perm)] = [rows[i] for i in perm]
        for i, x in enumerate(d):
            for j in range(i + 1, len(d)):
                y = d[j]
                if not x or y % x == 0:
                    continue
                # diag(x, y) -> diag(h, x y / h) as L diag(x, y) R with
                # L = [[s, t], [-y', x']], R = [[1, -t y'], [1, s x']];
                # x and y are positive, so h is their positive gcd
                s, t, _, _ = _bezout(x, y)
                h = s * x + t * y
                xq, yq = x // h, y // h
                _mix(left[0], i, j, s, t, -yq, xq)
                _mix(left[1], i, j, xq, yq, -t, s)
                _mix(right[0], i, j, 1, 1, -t * yq, s * xq)
                _mix(right[1], i, j, s * xq, t * yq, -1, 1)
                x = d[i] = h
                d[j] = xq * y
    return d


def _is_chain(d):
    """True iff each entry of d divides the next (so zeros come last)."""
    return not any(y % x if x else y for x, y in zip(d, d[1:]))


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _is_diagonal(a):
    for i, row in enumerate(a):
        if any(row[:i]) or any(row[i + 1:]):
            return False
    return True


def _mix(rows, i, k, s, t, p, q):
    """Rows i and k become s r_i + t r_k and p r_i + q r_k."""
    ri, rk = rows[i], rows[k]
    rows[i] = [s * x + t * y for x, y in zip(ri, rk)]
    rows[k] = [p * x + q * y for x, y in zip(ri, rk)]


def _addmul(rows, i, k, c):
    """Row i gains c times row k."""
    rows[i] = [x + c * y for x, y in zip(rows[i], rows[k])]


def _hermite_rows(a, u, w):
    """Bring the rows of a to Hermite normal form in place, applying each
    row operation to the rows of u and its inverse transpose to the rows
    of w.

    Rows enter one at a time by `_insert_row`.  Last, the rows are put
    in the order of their pivots, zero rows at the bottom.  Pivots are
    positive, but an entry above a pivot can leave [0, pivot) when a
    column to its left is reduced later, so the form is reduced only
    after one more sweep in pivot order, `EchelonBasis.reduce`.
    """
    pivots = {}  # pivot column -> its row
    for new in range(len(a)):
        _insert_row(a, u, w, pivots, new)
    order = [pivots[c] for c in sorted(pivots)]
    if order != list(range(len(order))):
        kept = set(order)
        order += [i for i in range(len(a)) if i not in kept]
        for rows in (a, u, w):
            rows[:] = [rows[i] for i in order]


def _insert_row(a, u, w, pivots, r):
    """Insert row r of a into the echelon rows that `pivots` maps each
    pivot column to, tracking the operations on u and w as
    `_hermite_rows` does; True iff the row was outside their span.

    A row whose leading entry sits under a pivot loses a multiple of the
    pivot's row when the pivot divides it, swaps places with the pivot's
    row when it divides the pivot, and otherwise meets the pivot's row
    in a unimodular Bezout step that makes the pivot their gcd.  When a
    pivot is made or changed the entries above it are reduced into
    [0, pivot) at once; reducing only at the end lets the entries grow
    exponentially.  A row in the span of the echelon rows only loses
    multiples of them, so it leaves them unchanged; any other row adds a
    pivot or makes one smaller.
    """
    width = len(a[r])
    grew = False
    c = _leading(a[r], 0, width)
    while c < width:
        k = pivots.get(c)
        x = a[r][c]
        if k is None or (x % a[k][c] and a[k][c] % x == 0):
            # a new pivot, or an entry that properly divides the
            # pivot: row r takes the pivot's place and the old pivot
            # row, if any, is inserted in its stead
            if x < 0:
                for rows in (a, u, w):
                    rows[r] = [-y for y in rows[r]]
            pivots[c] = r
            _reduce_above(a, u, w, pivots, c)
            if k is None:
                return True
            r, k = k, r
            x = a[r][c]
            grew = True
        p = a[k][c]
        if x % p:
            grew = True
            s, t, y, z = _bezout(p, x)
            if s * p + t * x < 0:
                s, t, y, z = -s, -t, -y, -z
            # [[s, t], [y, -z]] on rows k, r; [[z, y], [t, -s]] on w
            _mix(a, k, r, s, t, y, -z)
            _mix(u, k, r, s, t, y, -z)
            _mix(w, k, r, z, y, t, -s)
            _reduce_above(a, u, w, pivots, c)
        else:
            q = x // p
            _addmul(a, r, k, -q)
            _addmul(u, r, k, -q)
            _addmul(w, k, r, q)
        c = _leading(a[r], c + 1, width)
    return grew


class EchelonBasis:
    """A sublattice of Z^width kept as rows in echelon form, grown one row
    at a time by the insertion step of `_hermite_rows`, with no transform
    tracked.  It is the library's one lattice type: relation-span
    membership, `ColumnSolver`'s solves and kernels and the spans of
    `group_resolution` all read its rows.

    >>> lat = EchelonBasis()
    >>> lat.add([2, 4]), lat.add([3, 0]), lat.add([1, 8])
    (True, True, False)
    >>> lat.rows, lat.rank, lat.pivot_product()
    ([[1, 8], [0, 12]], 2, 12)
    >>> lat.contains([5, 4]), lat.contains([0, 6]), lat.residual([0, 30], 2)
    (True, False, [0, 6])
    """

    __slots__ = ("_rows", "_none", "_pivots")

    def __init__(self):
        self._rows, self._none, self._pivots = [], ([], []), {}

    def add(self, row):
        """Put a copy of row into the lattice; True iff it was not in it."""
        self._rows.append(list(row))
        for rows in self._none:
            rows.append([])
        return _insert_row(self._rows, *self._none, self._pivots,
                           len(self._rows) - 1)

    @property
    def rows(self):
        """The echelon rows, in the order of their pivots."""
        return [self._rows[self._pivots[c]] for c in sorted(self._pivots)]

    @property
    def rank(self):
        return len(self._pivots)

    def pivot_product(self):
        """The product of the pivots.  For a sublattice S of L of the
        same rank it is [L : S] times that of L, so S is L when the two
        products agree."""
        return prod(self._rows[k][c] for c, k in self._pivots.items())

    def reduce(self):
        """Bring the rows to reduced Hermite form, which is unique: one
        sweep in pivot order reduces the entries above each pivot into
        [0, pivot).  Reducing column c only changes columns from c on,
        so the sweep keeps what it has reduced (Cohen, *A Course in
        Computational Algebraic Number Theory*, 1993, §2.4)."""
        for c in sorted(self._pivots):
            _reduce_above(self._rows, *self._none, self._pivots, c)

    def residual(self, vec, stop):
        """vec less the multiples of the rows with pivot column below
        stop that bring each of its entries at those pivots into
        [0, pivot), in pivot order: forward substitution.  vec minus the
        residual is in the lattice, so with stop past the last pivot the
        residual is zero exactly when vec lies in the lattice."""
        rest, rows, pivots = list(vec), self._rows, self._pivots
        for c in sorted(pivots):
            if c >= stop:
                break
            row = rows[pivots[c]]
            q = rest[c] // row[c]
            if q:
                rest = [y - q * e for y, e in zip(rest, row)]
        return rest

    def contains(self, vec):
        """True iff vec, as long as the rows, lies in the lattice."""
        return not any(self.residual(vec, len(vec)))


def _leading(row, start, width):
    for j in range(start, width):
        if row[j]:
            return j
    return width


def _reduce_above(a, u, w, pivots, c):
    """Reduce column c of the rows with earlier pivots into [0, pivot)."""
    k = pivots[c]
    p = a[k][c]
    for c2, j in pivots.items():
        if c2 < c:
            x = a[j][c]
            if x < 0 or x >= p:
                q = x // p
                _addmul(a, j, k, -q)
                _addmul(u, j, k, -q)
                _addmul(w, k, j, q)


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

    These are the passes and the finish of `snf` run with row lists of
    width 0, so the working matrix is all they build; its entries stay
    polynomial in size as the transforms' do.

    >>> invariant_factors(ZMatrix([[4, 2], [2, 2]]))
    (2, 2)
    >>> invariant_factors(ZMatrix([[2, 4], [0, 0], [6, 3]]))
    (1, 18, 0)
    """
    if not m.ncols or not m.nrows:
        # nothing to eliminate: every coordinate is free
        return (0,) * m.nrows
    rows = [[] for _ in range(m.nrows)], [[] for _ in range(m.nrows)]
    cols = [[] for _ in range(m.ncols)], [[] for _ in range(m.ncols)]
    d = _diagonalize(m, rows, cols)
    return tuple(d) + (0,) * (m.nrows - len(d))


class ColumnSolver:
    """Solves M X = C over the integers for a fixed M; None answers a
    right-hand side outside the column span of M.

    The rows of [M^T | I] go into an `EchelonBasis`, whose `reduce`
    gives the reduced Hermite form of that matrix.  Its rows are (E, U)
    with E = U M^T.  The U parts of the rows with E zero are the kernel
    of M in reduced Hermite form, which is unique: the columns of
    `kernel`.  A solve reduces (vec, 0) by the rows whose pivot lies in
    E (`EchelonBasis.residual`); vec is in the column span exactly when
    that leaves (0, -x), and then M x = vec with x reduced modulo the
    kernel by the sweep.

    >>> s = ColumnSolver(ZMatrix([[2, 4, 6], [1, 2, 3]]))
    >>> s.kernel.rows
    ((1, 0), (1, 3), (-1, -2))
    >>> s.solve_vector((4, 2)), s.solve_vector((1, 0))
    ((0, 4, -2), None)
    """

    def __init__(self, m):
        self.m = m
        h, n = m.nrows, m.ncols
        self._lattice = lat = EchelonBasis()
        for j, e in enumerate(_identity_rows(n)):
            lat.add([row[j] for row in m.rows] + e)
        lat.reduce()
        # [M^T | I] has full row rank, so the rows with E zero are the
        # kernel's
        kernel = [row[h:] for row in lat.rows if not any(row[:h])]
        self.kernel = ZMatrix._trusted(zip(*kernel) if kernel else [()] * n,
                                       len(kernel))

    def solve_vector(self, vec):
        """Some integer x with M x = vec, or None."""
        h = self.m.nrows
        if len(vec) != h:
            raise ValueError("vector of wrong length")
        rest = self._lattice.residual(list(vec) + [0] * self.m.ncols, h)
        return None if any(rest[:h]) else tuple(-y for y in rest[h:])

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
    return ColumnSolver(m).kernel


class FgAbGroup:
    """Finitely generated abelian group, presented as a cokernel.

    The group is Z^ngens modulo the column span of `relations`.

    >>> g = FgAbGroup(2, ZMatrix([[2, 0], [0, 0]]))
    >>> g.canonical_form()
    (1, (2,))
    >>> FgAbGroup.from_invariants(0, [2, 4]).canonical_form()
    (0, (2, 4))
    >>> FgAbGroup(2, ZMatrix([[2, 0], [0, 3]])).canonical_orders()
    (1, 6)
    """

    __slots__ = ("ngens", "relations", "_decomp", "_orders", "_span")

    def __init__(self, ngens, relations=None):
        self.ngens = int(ngens)
        if relations is None:
            relations = ZMatrix.zeros(self.ngens, 0)
        if relations.nrows != self.ngens:
            raise ValueError("relation matrix height must equal ngens")
        self.relations = relations
        self._decomp = None
        self._orders = None
        self._span = None

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
        # (U, U^-1) of the Smith form: x-coordinates convert via y = U x,
        # and coordinate i of y has order canonical_orders()[i].
        if self._decomp is None:
            res = snf(self.relations)
            self._decomp = (res.u, res.uinv)
        return self._decomp

    def canonical_orders(self):
        """Order of each canonical coordinate, 0 meaning a free factor,
        computed without transforms."""
        if self._orders is None:
            self._orders = invariant_factors(self.relations)
        return self._orders

    def canonical_form(self):
        """(free rank, ascending invariant factors > 1)."""
        orders = self.canonical_orders()
        rank = sum(1 for d in orders if d == 0)
        torsion = tuple(d for d in orders if d > 1)
        return (rank, torsion)

    def is_trivial(self):
        return self.canonical_form() == (0, ())

    def to_canonical(self, x):
        u, _ = self._decomposition()
        y = list(u.apply(x))
        for i, d in enumerate(self.canonical_orders()):
            if d:
                y[i] %= d
        return tuple(y)

    def from_canonical(self, y):
        _, uinv = self._decomposition()
        return uinv.apply(y)

    def in_relation_span(self, vec):
        """True iff vec is an integer combination of the relation
        columns, read from an `EchelonBasis` of the nonzero ones that is
        built on the first call and kept."""
        if len(vec) != self.ngens:
            raise ValueError("vector of wrong length")
        if self._span is None:
            self._span = EchelonBasis()
            for col in zip(*self.relations.rows):
                if any(col):
                    self._span.add(col)
        return self._span.contains(vec)

    def kills(self, matrix):
        """True iff every column of `matrix` lies in the relation span.

        Zero columns are accepted without building the echelon basis.

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
        return other is self or (
            isinstance(other, FgAbGroup) and self.ngens == other.ngens
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
        """True iff the two homs agree as maps of the quotients; equal
        matrices answer without a membership test."""
        self._parallel(other)
        return (self.matrix == other.matrix
                or self.target.kills(self.matrix.sub(other.matrix)))

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
    w = matrix.hstack(target_relations)
    ker = kernel_basis(w)
    return ZMatrix._trusted(ker.rows[:matrix.ncols], ker.ncols)


def homology_at(f, g):
    """ker(g)/im(f) for presented-group maps f: A -> B, g: B -> C.

    Computed by lifting to the free cover of B: the kernel of g is
    generated by the projection of the integer kernel of [g.matrix |
    relations of C].  One `ColumnSolver` on those s generators solves
    for the columns of f plus the relations of B and gives the
    generators' own relations, its kernel; the answer is Z^s modulo
    both.

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

    kgens = preimage_lattice(g.matrix, g.target.relations)
    if kgens.ncols == 0:
        return FgAbGroup.trivial()
    rhs = f.matrix.hstack(b.relations)
    solver = ColumnSolver(kgens)
    q = solver.solve_matrix(rhs)
    if q is None:
        raise PreconditionViolation("image does not lie in the kernel lattice")
    return FgAbGroup(kgens.ncols, q.hstack(solver.kernel))
