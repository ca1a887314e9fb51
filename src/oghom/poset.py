"""Finite partial orders on hashable elements.

`order_closure` turns generating pairs into the reflexive-transitive
closure; a Poset is built from closed pairs and rejects antisymmetry
failures.  The groupoid layer keeps one of these for its arrows and one
for its identities.
"""

from .errors import StructuralDefect


def order_closure(elements, pairs):
    """Reflexive-transitive closure of `pairs` as a set of (lower, upper)
    tuples.  Antisymmetry is not enforced: a cycle closes to pairs both
    ways, which groupoid validation reports as a violation."""
    elements = list(elements)
    up = {e: {e} for e in elements}  # up[a] = {b : a <= b}
    for lo, hi in pairs:
        up[lo].add(hi)
    changed = True
    while changed:
        changed = False
        for a in elements:
            acc = set(up[a])
            for b in up[a]:
                acc |= up[b]
            if len(acc) != len(up[a]):
                up[a] = acc
                changed = True
    return {(a, b) for a in elements for b in up[a]}


class Poset:
    """A finite poset given by elements and its closed relation pairs.

    >>> p = Poset("abc", order_closure("abc", [("a", "b"), ("b", "c")]))
    >>> p.leq("a", "c")
    True
    >>> p.glb("b", "c")
    'b'
    >>> sorted(p.principal_ideal("b"))
    ['a', 'b']
    """

    def __init__(self, elements, pairs):
        self.elements = list(elements)
        index = {}
        for e in self.elements:
            if e in index:
                raise StructuralDefect("duplicate element %r" % (e,))
            index[e] = len(index)
        self._index = index
        n = len(self.elements)
        below = [set() for _ in range(n)]  # below[i] = {j : e_j <= e_i}
        for i in range(n):
            below[i].add(i)
        for lo, hi in pairs:
            if lo not in index:
                raise StructuralDefect("order pair mentions unknown element %r" % (lo,))
            if hi not in index:
                raise StructuralDefect("order pair mentions unknown element %r" % (hi,))
            below[index[hi]].add(index[lo])
        for i in range(n):
            for j in below[i]:
                if i != j and i in below[j]:
                    raise StructuralDefect(
                        "antisymmetry fails: %r and %r are comparable both ways"
                        % (self.elements[i], self.elements[j]))
        self._below = below

    def __contains__(self, e):
        return e in self._index

    def __len__(self):
        return len(self.elements)

    def leq(self, a, b):
        return self._index[a] in self._below[self._index[b]]

    def pairs(self):
        """All related pairs (a, b) with a <= b, including reflexive ones."""
        out = []
        for i, e in enumerate(self.elements):
            for j in self._below[i]:
                out.append((self.elements[j], e))
        return out

    def principal_ideal(self, a):
        return {self.elements[j] for j in self._below[self._index[a]]}

    def lower_bounds(self, a, b):
        ia, ib = self._index[a], self._index[b]
        return {self.elements[j] for j in self._below[ia] & self._below[ib]}

    def glb(self, a, b):
        """Greatest lower bound, or None if the set of common lower
        bounds is empty or has no greatest element."""
        common = self._below[self._index[a]] & self._below[self._index[b]]
        for j in common:
            if common <= self._below[j]:
                return self.elements[j]
        return None

    def undirected_pair(self, subset):
        """The first pair (a, b) of `subset`, in its order, with no lower
        bound inside `subset`; None when `subset` is directed down."""
        idxs = [self._index[e] for e in subset]
        for x, i in enumerate(idxs):
            for k in idxs[x + 1:]:
                if not any(j in self._below[i] and j in self._below[k]
                           for j in idxs):
                    return (self.elements[i], self.elements[k])
        return None

    def covers(self):
        """Covering pairs (a, b): a < b with nothing strictly between."""
        out = []
        for i, e in enumerate(self.elements):
            strict = self._below[i] - {i}
            for j in strict:
                if not any(k != j and j in self._below[k] for k in strict):
                    out.append((self.elements[j], e))
        return out

    def comparability_components(self):
        """Partition of the elements into connected components of the
        comparability graph."""
        n = len(self.elements)
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in range(n):
            for j in self._below[i]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(self.elements[i])
        return list(groups.values())
