"""Random instances for property tests and acceptance runs.

Groupoids are built from a random order on identities with a cyclic
group of loops at each identity; loops restrict along the order by a
compatible multiplier, which keeps every axiom satisfied by
construction (the validating constructor still runs).  In directed mode
the identity order is a down-forest, so every principal ideal is a
chain and the result is principally directed; in free mode the order is
an arbitrary dag and branching usually breaks directedness.

Modules over the directed instances use cyclic groups with multiplier
structure maps and a per-component sign action on loops, drawn only
from the region where functoriality is arithmetically guaranteed; the
module constructor re-checks everything.
"""

from math import gcd

from .gmodules import GModule, module_from_parts
from .groupoid import GroupoidCandidate, OrderedGroupoid
from .zmodule import AbHom, FgAbGroup, ZMatrix


class RandomOG:
    """A generated groupoid plus the data the module generator needs:
    the loop-group order at each identity, each loop's exponent in its
    cyclic loop group, and each order cover's restriction multiplier."""

    def __init__(self, groupoid, directed, vertex_order, loop_exponent,
                 cover_exponent):
        self.groupoid = groupoid
        self.directed = directed
        self.vertex_order = vertex_order
        self.loop_exponent = loop_exponent
        self.cover_exponent = cover_exponent

    def __repr__(self):
        return "RandomOG(%d identities, directed=%s)" % (
            len(self.groupoid.identities), self.directed)


def random_og(rng, n_identities=3, max_group=4, directed=True):
    ids = ["e%d" % i for i in range(n_identities)]
    lowers = {}
    for i in range(n_identities):
        if directed:
            pick = rng.randrange(i + 1)
            lowers[i] = [] if pick == i else [pick]
        else:
            nlow = rng.randint(0, min(i, 2))
            lowers[i] = sorted(rng.sample(range(i), nlow))

    korder = {}
    if directed:
        for i in range(n_identities):
            korder[i] = rng.randint(1, max_group)
    else:
        # divisor-chain orders so that every restriction is reduction
        base = rng.randint(2, 3)
        emax = 0
        while base ** (emax + 1) <= max_group:
            emax += 1
        height = {}
        for i in range(n_identities):
            height[i] = (1 + max(height[j] for j in lowers[i])
                         if lowers[i] else 0)
        for i in range(n_identities):
            korder[i] = base ** min(height[i], emax)

    cov = {}
    for i, js in lowers.items():
        for j in js:
            if directed:
                a, b = korder[i], korder[j]
                step = b // gcd(b, a)
                cov[(i, j)] = rng.choice(list(range(0, b, step)))
            else:
                cov[(i, j)] = 1  # reduction; korder[j] divides korder[i]

    def gname(i, a):
        return ids[i] if a == 0 else "g%dx%d" % (i, a)

    arrows = {}
    compose = {}
    loop_exponent = {}
    for i in range(n_identities):
        k = korder[i]
        for a in range(1, k):
            arrows[gname(i, a)] = (ids[i], ids[i], gname(i, (k - a) % k))
            loop_exponent[gname(i, a)] = a
        for a in range(1, k):
            for b in range(1, k):
                compose[(gname(i, a), gname(i, b))] = gname(i, (a + b) % k)

    order_gens = []
    for (i, j), c in cov.items():
        ki, kj = korder[i], korder[j]
        for a in range(ki):
            order_gens.append((gname(j, (c * a) % kj), gname(i, a)))

    cand = GroupoidCandidate.from_parts(ids, arrows, compose, order_gens)
    g0 = OrderedGroupoid.from_candidate(cand)
    vertex_order = {ids[i]: korder[i] for i in range(n_identities)}
    cover_exponent = {(ids[i], ids[j]): c for (i, j), c in cov.items()}
    return RandomOG(g0, directed, vertex_order, loop_exponent,
                    cover_exponent)


def _divides(m, x):
    if m == 0:
        return x == 0
    return x % m == 0


def _hom_multipliers(a, b):
    """Valid 1x1 matrices Z/a -> Z/b (0 means the infinite cyclic
    group): t with b | t*a."""
    if a == 0 and b == 0:
        return list(range(-2, 3))
    if a == 0:
        return list(range(b))
    if b == 0:
        return [0]
    step = b // gcd(a, b)
    return list(range(0, b, step))


def _cyclic_group(m):
    # one generator always, so structure maps stay 1x1 (m = 1 is the
    # trivial group presented on a dead generator)
    if m == 0:
        return FgAbGroup.free(1)
    return FgAbGroup(1, ZMatrix([[m]]))


def random_module(rng, rog, lc, finite=True, max_order=4):
    """Random module over the category of a directed-mode instance,
    returned through the validating loader."""
    if not rog.directed:
        raise ValueError("modules are generated over directed instances "
                         "(branching makes the structure maps clash)")
    g0 = rog.groupoid
    menu = [m for m in (1, 2, 3, 4, 6) if m <= max_order] or [1]
    if not finite:
        menu = menu + [0, 0]
    orders = {e: rng.choice(menu) for e in g0.identities}
    groups = {e: _cyclic_group(orders[e]) for e in g0.identities}

    covers = [(hi, lo) for (lo, hi) in g0.identity_poset.covers()]
    tmult = {}
    poset_maps = {}
    for (hi, lo) in covers:
        t = rng.choice(_hom_multipliers(orders[hi], orders[lo]))
        tmult[(hi, lo)] = t
        poset_maps[(hi, lo)] = ZMatrix([[t]])

    sign = {}
    for comp in g0.identity_poset.comparability_components():
        admissible = all(
            rog.vertex_order[e] % 2 == 0 or orders[e] in (1, 2)
            for e in comp)
        admissible = admissible and all(
            rog.cover_exponent[(hi, lo)] % 2 == 1
            or _divides(orders[lo], 2 * tmult[(hi, lo)])
            for (hi, lo) in covers if hi in comp)
        u = -1 if admissible and rng.random() < 0.5 else 1
        for e in comp:
            sign[e] = u

    arrow_maps = {}
    for g in g0.nonidentity_arrows():
        u = sign[g0.d[g]]
        arrow_maps[g] = ZMatrix([[u ** (rog.loop_exponent[g] % 2)]])
    return module_from_parts(lc, groups, poset_maps, arrow_maps)


def _cyclic_exponents(cat, loops):
    """loop -> exponent of a common generator, or None if no single
    loop generates them all."""
    for t in loops:
        exps = {t: 1}
        cur = t
        for j in range(2, len(loops) + 2):
            cur = cat.compose(cur, t)
            if cat.is_identity(cur):
                break
            exps[cur] = j
        if not cat.is_identity(cur):
            continue
        if set(exps) == set(loops):
            return exps
    return None


def random_quotient_module(rng, q, max_order=6):
    """Random module over the quotient groupoid's category: cyclic
    groups with a sign action through a generating loop where one
    exists, the constant module otherwise."""
    qc = q.category
    loops_at = {x: [] for x in qc.objects}
    crossing = False
    for m in qc.morphisms:
        if qc.is_identity(m):
            continue
        if qc.dom[m] == qc.cod[m]:
            loops_at[qc.dom[m]].append(m)
        else:
            crossing = True

    menu = [m for m in (1, 2, 3, 4, 6, 8) if m <= max_order] or [1]
    groups = {}
    action = {}
    if crossing:
        m0 = rng.choice(menu)
        for x in qc.objects:
            groups[x] = _cyclic_group(m0)
        for m in qc.morphisms:
            src, tgt = qc.dom[m], qc.cod[m]
            action[m] = AbHom(groups[src], groups[tgt],
                              ZMatrix.identity(1), checked=True)
        return GModule(qc, groups, action)

    for x in qc.objects:
        groups[x] = _cyclic_group(rng.choice(menu))
    for x in qc.objects:
        loops = loops_at[x]
        exps = _cyclic_exponents(qc, loops) if loops else {}
        order = len(loops) + 1
        m = groups[x]
        u = 1
        if exps is not None and (order % 2 == 0
                                 or m.canonical_form() in ((0, ()),
                                                           (0, (2,)))):
            if rng.random() < 0.5:
                u = -1
        action[qc.identity[x]] = AbHom.identity(m)
        for g in loops:
            e = exps[g] if exps is not None else 0
            action[g] = AbHom(m, m, ZMatrix([[u ** (e % 2)]]))
    return GModule(qc, groups, action)

