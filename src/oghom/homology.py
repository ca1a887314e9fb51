"""Homology of a module over a finite category via the normalized nerve.

n-chains are tuples (f1, ..., fn) of composable non-identity morphisms
carrying a coefficient in M(dom f1); the boundary pushes the coefficient
along f1, composes consecutive entries (composites that collapse to an
identity contribute nothing), and drops the last entry, with alternating
signs.  Degree zero is one summand per object and H_0 is checked against
the colimit presentation every time it is computed.
"""

import os
import warnings

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

    def homology(self, n):
        """ker ∂_n / im ∂_(n+1); requires degree n+1 to be present."""
        if n < 0 or n + 1 > self.top_degree:
            raise StructuralDefect(
                "homology at %d needs chains up to %d" % (n, n + 1))
        f = self.boundaries[n + 1]
        if n == 0:
            g = AbHom.zero(self.groups[0], FgAbGroup.trivial())
        else:
            g = self.boundaries[n]
        return homology_at(f, g)


def _chain_tuples(cat, maxdeg):
    """chains[0] = objects; chains[n] = composable non-identity tuples."""
    chains = [list(cat.objects)]
    nonid = sorted(cat.nonidentity_morphisms())
    if maxdeg >= 1:
        chains.append([(m,) for m in nonid])
    for n in range(2, maxdeg + 1):
        chains.append([c + (m,) for c in chains[n - 1] for m in nonid
                       if cat.cod[c[-1]] == cat.dom[m]])
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


def check_theorem(g0, lc, a_module, degrees):
    """Compare H_n over the groupoid's category with H_n of the class
    colimits over the quotient, degree by degree."""
    colim = colim_E(g0, lc, a_module)
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
