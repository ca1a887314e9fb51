"""Finite partial orders on hashable elements.

`order_closure` turns generating pairs into the reflexive-transitive
closure; a Poset is built from distinct elements and closed pairs among
them.  It trusts the pairs to be antisymmetric and the elements to be
distinct and to cover the pairs: groupoid validation reports every pair
related both ways, every repeated identity and every pair naming a
non-arrow before one is built.
The groupoid layer keeps one of these for its arrows and one for its
identities.
"""


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
    >>> sorted(p.principal_ideal("b"))
    ['a', 'b']
    """

    def __init__(self, elements, pairs):
        self.elements = list(elements)
        self._index = index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        below = [set() for _ in range(n)]  # below[i] = {j : e_j <= e_i}
        for i in range(n):
            below[i].add(i)
        for lo, hi in pairs:
            below[index[hi]].add(index[lo])
        self._below = below

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
        return connected_components(self.elements, self.pairs())


def connected_components(elements, edges):
    """Partition of `elements` by the undirected `edges` (a, b): each
    part in element order, the parts in the order of their first
    elements."""
    parent = {e: e for e in elements}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    parts = {}
    for e in elements:
        parts.setdefault(find(e), []).append(e)
    return list(parts.values())
