"""Homology of a module over a finite category via the normalized nerve.

n-chains are tuples (f1, ..., fn) of composable non-identity morphisms
carrying a coefficient in M(dom f1); the boundary pushes the coefficient
along f1, composes consecutive entries (composites that collapse to an
identity contribute nothing), and drops the last entry, with alternating
signs.  Degree zero is one summand per object and H_0 is checked against
the colimit presentation every time it is computed.

Homology is not solved on the nerve itself.  Nerve boundaries are mostly
0/±1, so `ChainComplex.homology` first shrinks the complex by
unit-pivot elimination (the Gaussian-elimination lemma of Kaczynski,
Mrozek & Ślusarek, 1998), working on sparse columns: a generator a of
C_n and a generator b of C_(n-1) that span cyclic direct summands of the
same order k, with u = <∂a, b> a unit mod k (±1 when k = 0), are
cancelled together, and every other column a' of ∂_n becomes
a' - <∂a', b> u⁻¹ ∂a.  Generators of order 1 are dropped.  Only the
small residual is handed to the dense Smith-form solver `homology_at`.
Homology is asked only below the top degree, where just the image of
the top boundary counts, so the residual keeps only its nonzero
columns, on free generators.
The lemma needs ∂² = 0, which the complex checks when it is built; a
complex built with checked=True must satisfy it already.
"""

import os
import warnings
from collections import deque
from itertools import compress
from math import gcd

from .errors import StructuralDefect
from .gmodules import colim_category, colim_E
from .zmodule import AbHom, FgAbGroup, ZMatrix, block_diag, homology_at

RANK_ENV = "OG_MAX_CHAIN_RANK"
DEFAULT_MAX_CHAIN_RANK = 10000


class ChainComplex:
    """groups[0..N] with boundaries[n]: groups[n] -> groups[n-1].

    boundaries[0] is None.  Consecutive boundaries must compose to the
    zero map (zero modulo the relations of the target, not the zero
    matrix)."""

    def __init__(self, groups, boundaries, checked=False):
        self.groups = list(groups)
        self.boundaries = list(boundaries)
        self._reduced = None
        if not checked:
            if len(self.boundaries) != len(self.groups):
                raise StructuralDefect("one boundary per degree expected")
            for n in range(1, len(self.groups)):
                b = self.boundaries[n]
                if (b.source != self.groups[n]
                        or b.target != self.groups[n - 1]):
                    raise StructuralDefect(
                        "boundary %d has wrong endpoints" % n)
            for n in range(2, len(self.groups)):
                squared = self.boundaries[n].then(self.boundaries[n - 1])
                if not squared.is_zero_map():
                    raise StructuralDefect(
                        "boundary squared is nonzero at degree %d" % n)

    @property
    def top_degree(self):
        return len(self.groups) - 1

    def reduced(self):
        """The complex with unit pivots cancelled, built on first use and
        kept; it has the same homology below the top degree.

        >>> from oghom import fixtures
        >>> b = fixtures.load("cyclic3")
        >>> cx = nerve_complex(b.lc.category, b.modules["const"], 3)
        >>> [g.ngens for g in cx.groups]
        [1, 2, 4, 8]
        >>> cx.boundaries[2].matrix
        ZMatrix([[2, 1, 1, -1], [-1, 1, 1, 2]])
        >>> red = cx.reduced()
        >>> [g.ngens for g in red.groups]
        [1, 1, 1, 0]
        >>> red.boundaries[2].matrix
        ZMatrix([[3]])
        """
        if self._reduced is None:
            self._reduced = _reduce(self.groups, self.boundaries)
            self._reduced._reduced = self._reduced  # no unit pivot left
        return self._reduced

    def homology(self, n):
        """ker ∂_n / im ∂_(n+1); requires degree n+1 to be present.

        Solved by `homology_at` on `reduced()`: the elimination lemma it
        rests on holds because ∂² = 0 was checked at construction (or
        promised by checked=True)."""
        if n < 0 or n + 1 > self.top_degree:
            raise StructuralDefect(
                "homology at %d needs chains up to %d" % (n, n + 1))
        cx = self.reduced()
        f = cx.boundaries[n + 1]
        if n == 0:
            g = AbHom.zero(cx.groups[0], FgAbGroup.trivial())
        else:
            g = cx.boundaries[n]
        return homology_at(f, g)


def _relation_support(group):
    """The nonzero (row, entry) pairs of each relation column."""
    support = [[] for _ in range(group.relations.ncols)]
    span = range(group.relations.ncols)
    for i, row in enumerate(group.relations.rows):
        for j in compress(span, row):
            support[j].append((i, row[j]))
    return support


def _summand_orders(ngens, support):
    """Per generator: the order of the cyclic direct summand it spans (0
    for infinite), or None when a relation ties it to another generator."""
    orders = [0] * ngens
    for col in support:
        if len(col) == 1:
            i, v = col[0]
            if orders[i] is not None:
                orders[i] = gcd(orders[i], v)
        else:
            for i, _ in col:
                orders[i] = None
    return orders


def _reduce(groups, boundaries):
    """Cancel unit pivots degree by degree, lowest first, on sparse
    columns; returns the residual as a dense ChainComplex."""
    top = len(groups) - 1
    supports = [_relation_support(g) for g in groups]
    orders = [_summand_orders(g.ngens, sup)
              for g, sup in zip(groups, supports)]
    alive = [[True] * g.ngens for g in groups]
    # cols[n][j]: {row: entry} of column j of ∂_n, entries of a row of
    # finite order k kept mod k; rows[n][i]: columns of ∂_n nonzero in row i
    cols = [None]
    rows = [None]
    for n in range(1, top + 1):
        k_rows = orders[n - 1]
        cn = [{} for _ in range(groups[n].ngens)]
        rn = [set() for _ in range(groups[n - 1].ngens)]
        span = range(groups[n].ngens)
        for i, row in enumerate(boundaries[n].matrix.rows):
            k = k_rows[i]
            for j in compress(span, row):
                v = row[j] % k if k else row[j]
                if v:
                    cn[j][i] = v
                    rn[i].add(j)
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

    for n in range(top + 1):
        for i, k in enumerate(orders[n]):
            if k == 1:
                drop(n, i)

    def pivot_row(n, a):
        # a row of the same summand order holding a unit, fewest columns
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
            if not alive[n][a] or orders[n][a] is None:
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
    if top:
        # below the top degree only the image of ∂_top counts: keep its
        # nonzero columns, on free generators
        keep[top] = [j for j in keep[top] if cols[top][j]]
        supports[top] = []
    index = [{i: x for x, i in enumerate(kept)} for kept in keep]

    def dense(entries, n):
        # a sparse column over the generators of C_n that were kept
        out = [0] * len(keep[n])
        for i, v in entries:
            out[index[n][i]] = v
        return out

    new_groups = []
    for n, support in enumerate(supports):
        # a relation on a removed generator involves no other one
        rel_cols = [dense(col, n) for col in support
                    if col and col[0][0] in index[n]]
        new_groups.append(FgAbGroup(len(keep[n]), ZMatrix.from_cols(
            rel_cols, len(keep[n]))))
    new_boundaries = [None]
    for n in range(1, top + 1):
        mat = ZMatrix.from_cols([dense(cols[n][j].items(), n - 1)
                                 for j in keep[n]], len(keep[n - 1]))
        new_boundaries.append(AbHom(new_groups[n], new_groups[n - 1], mat,
                                    checked=True))
    return ChainComplex(new_groups, new_boundaries, checked=True)


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


def _chain_group(cat, module, chain, degree):
    if degree == 0:
        return module.groups[chain]
    return module.groups[cat.dom[chain[0]]]


def nerve_complex(cat, module, maxdeg):
    """Chain complex of the normalized nerve up to degree maxdeg."""
    if maxdeg < 1:
        raise StructuralDefect("a complex needs at least degree 1")
    limit = int(os.environ.get(RANK_ENV, DEFAULT_MAX_CHAIN_RANK))
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
        if at > limit:
            warnings.warn(
                "chain group at degree %d has rank %d (limit %d; raise %s"
                " to silence)" % (n, at, limit, RANK_ENV))
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
    return ChainComplex(groups, boundaries)


def homology(cat, module, n, complex_=None):
    """H_n of the module's nerve; degree 0 is cross-checked against the
    colimit and a mismatch is a structural defect."""
    cx = complex_ or nerve_complex(cat, module, max(n + 1, 1))
    h = cx.homology(n)
    if n == 0:
        colim = colim_category(cat, module)
        if h.canonical_form() != colim.result.canonical_form():
            raise StructuralDefect(
                "H_0 %r disagrees with the colimit %r"
                % (h.canonical_form(), colim.result.canonical_form()))
    return h


def homology_profile(cat, module, maxdeg):
    """Canonical forms of H_0 .. H_maxdeg, sharing one nerve."""
    cx = nerve_complex(cat, module, maxdeg + 1)
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


def check_theorem(g0, lc, a_module, degrees, q=None):
    """Compare H_n over the groupoid's category with H_n of the class
    colimits over the quotient, degree by degree.  `q` is the quotient
    of g0 when the caller already has it."""
    colim = colim_E(g0, lc, a_module, q=q)
    qc = colim.module.base
    top = max(degrees)
    left_cx = nerve_complex(lc.category, a_module, top + 1)
    right_cx = nerve_complex(qc, colim.module, top + 1)
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
