"""Independent oracles the test suite measures the library against.

Everything here avoids the code paths it is used to check.  The
brute-force homology works on explicit element tuples with modular
counting, never touching Smith forms; the cyclic-group answers come
from the two-periodic resolution, where every boundary map is
multiplication by a single integer and the whole computation is gcd
arithmetic.
"""

from math import gcd

from oghom.zmodule import AbHom, FgAbGroup, ZMatrix


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
    b = f.target
    czero = tuple(0 for _ in g.target.canonical_orders())
    kernel = [x for x in b.element_vectors() if g.apply_canonical(x) == czero]
    image = {f.apply_canonical(a) for a in f.source.element_vectors()}
    kset = set(kernel)
    if not image <= kset:
        raise AssertionError("composite is not zero on elements")

    total = len(kernel) // len(image)
    per_prime = {}
    for p in _prime_factors(total):
        sizes = [len(image)]
        while True:
            hit = sum(
                1 for x in kernel if b.scale_canonical(p ** len(sizes), x) in image
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
    s_orders, s_u, _ = source._decomposition()
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
