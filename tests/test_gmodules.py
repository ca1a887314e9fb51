"""Modules over the prefix category, class colimits, the adjunction."""

import random
import re
from collections import Counter
from functools import cache

import pytest

from oghom import fixtures, gmodules, io, randgen
from oghom.beta import is_principally_directed, quotient
from oghom.category import FiniteCategory, groupoid_as_category
from oghom.errors import PreconditionViolation, StructuralDefect
from oghom.gmodules import (
    GMap,
    GModule,
    _class_action_matrix,
    _presentation,
    _quotient_action_column,
    check_adjunction,
    check_colim_composition,
    check_functorial,
    check_natural,
    check_quotient_action,
    colim_E,
    colim_E_map,
    colim_category,
    expand,
    expand_map,
    module_from_parts,
    rho,
    tau,
)
from oghom.groupoid import GroupoidCandidate, OrderedGroupoid
from oghom.homology import homology, homology_profile
from oghom.lcat import build_lcat
from oghom.randgen import random_module, random_og
from oghom.zmodule import AbHom, FgAbGroup, ZMatrix, hom_welldefined
from . import oracles
from .oracles import (
    class_actions_by_two_steps,
    colim_by_components,
    colim_composition_by_injections,
    direct_sum,
    enumerate_gmaps,
    expand_triangle_by_expand_map,
    functoriality_failures_by_pair,
    functoriality_problems_by_pair,
    group_category,
    group_order,
    injection,
    module_action_by_dfs,
    naturality_failures_by_morphism,
    permutation_group,
    products_of_generators,
    random_ses,
)
from .test_connected import brandt_z2_doc, connected_doc
from .test_reduction import cyclic_bundle, theorem_inputs, theorem_instance


def clifford_parts():
    bundle = fixtures.load("clifford")
    return bundle.groupoid, bundle.lc, bundle.modules


def quotient_sign_module(q):
    # Z at the single class, the s class acting by negation
    qc = groupoid_as_category(q.groupoid)
    z = FgAbGroup.free(1)
    groups = {"1": z}
    action = {"1": AbHom.identity(z), "s": AbHom(z, z, ZMatrix([[-1]]))}
    return GModule(qc, groups, action)


def test_fixture_modules_functorial():
    # construction already validates; spot-check endpoints and values
    g0, lc, mods = clifford_parts()
    sign = mods["sign"]
    assert sign.action[("1", "s")].matrix == ZMatrix([[-1]])
    assert sign.action[("1", "f")].matrix == ZMatrix([[1]])
    # composite morphism acts through the poset map then the arrow
    assert sign.action[("1", "t")].matrix == ZMatrix([[-1]])
    assert sign.action[("f", "t")].matrix == ZMatrix([[-1]])
    assert group_order(sign.groups["1"]) is None


def test_functoriality_rejected():
    g0, lc, _ = clifford_parts()
    z = FgAbGroup.free(1)
    groups = {"1": z, "f": z}
    poset = {("1", "f"): ZMatrix([[1]])}
    # s squares to the identity, so acting by 2 cannot be functorial
    arrows = {"s": ZMatrix([[2]]), "t": ZMatrix([[-1]])}
    with pytest.raises(StructuralDefect):
        module_from_parts(lc, groups, poset, arrows)


def test_input_map_that_does_not_descend_is_refused():
    # Z/2 -> Z sending the generator to 1 sends the relation 2 to 2 != 0;
    # the input map is checked on its own and refused
    bundle = fixtures.load("chain2")
    groups = {"e": FgAbGroup.from_invariants(0, [2]), "f": FgAbGroup.free(1)}
    with pytest.raises(PreconditionViolation,
                       match="matrix does not descend to the quotients"):
        module_from_parts(bundle.lc, groups, {("e", "f"): ZMatrix([[1]])}, {})


def assert_action_matches_dfs(lc, parts):
    module = module_from_parts(lc, *parts)
    want = module_action_by_dfs(lc, *parts)
    assert {m: h.matrix for m, h in module.action.items()} == want


def test_cover_walk_matches_dfs_on_documents():
    docs = [fixtures.doc(name) for name in fixtures.names()]
    docs.append(connected_doc())
    checked = 0
    for doc in docs:
        _, cand, module_docs = io.load(doc)
        g0 = OrderedGroupoid.from_candidate(cand)
        lc = build_lcat(g0)
        for mdoc in module_docs.values():
            assert_action_matches_dfs(
                lc, io.module_parts_from_doc(g0, mdoc))
            checked += 1
    assert checked > len(docs)


def test_cover_walk_matches_dfs_on_random_modules(monkeypatch):
    parts = []

    def spy(lc, *args):
        parts.append((lc, args))
        return module_from_parts(lc, *args)

    monkeypatch.setattr(randgen, "module_from_parts", spy)
    rng = random.Random(47)
    for _ in range(30):
        rog = random_og(rng, n_identities=rng.randint(1, 6),
                        max_group=rng.randint(1, 4), directed=True)
        random_module(rng, rog, build_lcat(rog.groupoid),
                      finite=rng.random() < 0.5)
    assert len(parts) == 30
    for lc, args in parts:
        assert_action_matches_dfs(lc, args)


def identity_order_lcat(identities, below):
    """L(G) of the groupoid with no arrows but `identities`, ordered by
    the closure of the pairs (lo, hi) in `below`."""
    cand = GroupoidCandidate.from_parts(identities, {}, {}, below)
    return build_lcat(OrderedGroupoid.from_candidate(cand))


def test_cover_walk_matches_dfs_on_path_dependent_maps(monkeypatch):
    # random dags join two identities by several covering paths; with
    # the functoriality check off, the walk must take the DFS path
    monkeypatch.setattr(gmodules, "check_functorial", lambda *args: [])
    rng = random.Random(48)
    z = FgAbGroup.free(1)
    choices = 0
    for _ in range(30):
        ids = ["v%d" % i for i in range(rng.randint(4, 8))]
        rng.shuffle(ids)
        lc = identity_order_lcat(ids, [
            (lo, hi) for i, hi in enumerate(ids) for lo in ids[:i]
            if rng.random() < 0.5])
        order = lc.groupoid.identity_poset
        covers = order.covers()
        choices += sum(
            sum(order.leq(lo, c) for (c, top) in covers if top == hi) > 1
            for (lo, hi) in order.pairs() if (lo, hi) not in covers)
        poset_maps = {(hi, lo): ZMatrix([[rng.randint(-9, 9)]])
                      for (lo, hi) in covers}
        assert_action_matches_dfs(lc, ({e: z for e in ids}, poset_maps, {}))
    assert choices > 10


def test_path_dependent_diamond_is_rejected_as_before():
    lc = identity_order_lcat(
        ["bot", "a", "b", "top"],
        [("a", "top"), ("b", "top"), ("bot", "a"), ("bot", "b")])
    z = FgAbGroup.free(1)
    groups = {e: z for e in lc.groupoid.identities}
    poset = {("top", "a"): ZMatrix([[1]]), ("top", "b"): ZMatrix([[1]]),
             ("a", "bot"): ZMatrix([[1]]), ("b", "bot"): ZMatrix([[2]])}
    # (top, bot) acts along top > b > bot, the path the DFS took
    with pytest.raises(StructuralDefect) as exc:
        module_from_parts(lc, groups, poset, {})
    assert str(exc.value) == ("not a module: functoriality fails at "
                              "(('top', 'a'), ('a', 'bot'))")
    poset[("b", "bot")] = ZMatrix([[1]])
    module = module_from_parts(lc, groups, poset, {})
    assert module.action[("top", "bot")].matrix == ZMatrix([[1]])


@pytest.mark.parametrize("case", ["cyclic3-const", "cyclic4-z5-unit2",
                                  "clifford-sign", "chain2-mixed"])
def test_corrupted_action_is_reported(case):
    if case == "cyclic4-z5-unit2":
        cat, module = cyclic_bundle(
            4, fixtures.cyclic_module_spec(4, 0, [5], 2))
    else:
        name, label = case.split("-")
        bundle = fixtures.load(name)
        cat, module = bundle.lc.category, bundle.modules[label]
    assert check_functorial(cat, module.groups, module.action) == []
    for m in cat.morphisms:
        h = module.action[m]
        rows = [list(r) for r in h.matrix.rows]
        rows[0][0] += 1
        action = dict(module.action)
        action[m] = AbHom(h.source, h.target, ZMatrix(rows), checked=True)
        problems = check_functorial(cat, module.groups, action)
        assert problems == functoriality_problems_by_pair(
            cat, module.groups, action)
        # chain2's one non-identity morphism composes with identities
        # only, so any value for it leaves a module
        if (case, m) != ("chain2-mixed", ("e", "f")):
            assert any(repr(m) in p for p in problems), (m, problems)


def composite_problems(problems):
    return [p for p in problems if p.startswith("functoriality fails")]


def pull_back_cases():
    """(q, lc, B) for B the quotient sign module of clifford, and for B
    colim_E of a random module over random_og(Random(1648), 10, 12)."""
    g0, lc, _ = clifford_parts()
    q = quotient(g0)
    yield q, lc, quotient_sign_module(q)
    rng = random.Random(1648)
    rog = random_og(rng, 10, 12)
    lc = build_lcat(rog.groupoid)
    colim = colim_E(rog.groupoid, lc, random_module(rng, rog, lc))
    yield colim.q, lc, colim.module


def test_shared_action_problems_match_the_pair_loop():
    # one corrupted class hom is shared by every morphism of its class;
    # every failing pair is still listed, in the pair loop's order
    for q, lc, b_module in pull_back_cases():
        eb = expand(q, lc, b_module)
        homs = list({id(h): h for h in eb.action.values()}.values())
        failing = 0
        for h in homs:
            rows = [list(r) for r in h.matrix.rows]
            rows[0][0] += 1
            bad = AbHom(h.source, h.target, ZMatrix(rows), checked=True)
            action = {m: bad if a is h else a for m, a in eb.action.items()}
            problems = check_functorial(lc.category, eb.groups, action)
            pairs = functoriality_failures_by_pair(lc.category, action)
            assert composite_problems(problems) == pairs
            failing += bool(pairs)
            if failing == 2:
                break
        assert failing == 2


def test_pull_back_decides_each_triple_once(monkeypatch):
    # expand gives every morphism of a class the class's hom object, so
    # the composite law is decided once per distinct triple of hom
    # objects over the pairs (m, s) with m a non-identity morphism and s
    # a generator, and the identity law once per object
    equal_as_maps = AbHom.equal_as_maps
    calls = []

    def spy(self, other):
        calls.append(other)
        return equal_as_maps(self, other)

    for q, lc, b_module in pull_back_cases():
        cat = lc.category
        calls.clear()
        monkeypatch.setattr(AbHom, "equal_as_maps", spy)
        eb = expand(q, lc, b_module)
        monkeypatch.undo()
        gens = set(cat.generators())
        pairs = [(m, s) for m in cat.nonidentity_morphisms()
                 for s in cat.outgoing[cat.cod[m]] if s in gens]
        triples = {(id(eb.action[m]), id(eb.action[s]),
                    id(eb.action[cat.compose(m, s)])) for m, s in pairs}
        assert len(triples) < len(pairs)
        assert len(calls) == len(cat.objects) + len(triples)


def test_naturality_rejected():
    g0, lc, mods = clifford_parts()
    sign, const = mods["sign"], mods["const"]
    good = {e: AbHom.zero(sign.groups[e], const.groups[e])
            for e in sign.groups}
    GMap(sign, const, good)
    bad = dict(good)
    bad["1"] = AbHom(sign.groups["1"], const.groups["1"], ZMatrix([[1]]))
    with pytest.raises(StructuralDefect):
        GMap(sign, const, bad)


def test_expand_uniform_action():
    g0, lc, _ = clifford_parts()
    q = quotient(g0)
    b = quotient_sign_module(q)
    up = expand(q, lc, b)
    assert up.groups["1"] == b.groups["1"]
    assert up.groups["f"] == b.groups["1"]
    # order morphisms lie over an identity class, so they act trivially
    assert up.action[("1", "f")].equal_as_maps(AbHom.identity(b.groups["1"]))
    for m in [("1", "s"), ("1", "t"), ("f", "t")]:
        assert up.action[m].matrix == ZMatrix([[-1]])


def test_colim_clifford_sign():
    g0, lc, mods = clifford_parts()
    colim = colim_E(g0, lc, mods["sign"])
    assert list(colim.members) == ["1"]
    assert colim.members["1"] == ["1", "f"]
    lgroup = colim.module.groups["1"]
    assert lgroup.canonical_form() == (1, ())
    # the class of s still acts by negation on the fused copy
    act = colim.module.action["s"]

    def injected(e):
        col = [0] * lgroup.ngens
        col[colim.offsets["1"][e]] = 1
        return col

    v = injected("1")
    image = act.matrix.apply(v)
    total = [a + b for a, b in zip(image, v)]
    assert lgroup.in_relation_span(total)
    # both injections hit the same canonical generator
    a1 = injected("1")
    af = injected("f")
    diff = [a - b for a, b in zip(a1, af)]
    assert lgroup.in_relation_span(diff)


def test_colim_E_reads_the_kept_quotient_category():
    g0, lc, mods = clifford_parts()
    assert quotient(g0)._category is None
    first = colim_E(g0, lc, mods["sign"])
    second = colim_E(g0, lc, mods["const"])
    assert first.module.base is second.module.base is quotient(g0).category


def test_colim_chain2_mixed():
    bundle = fixtures.load("chain2")
    colim = colim_E(bundle.groupoid, bundle.lc, bundle.modules["mixed"])
    assert colim.module.groups["e"].canonical_form() == (0, (2,))
    # const coefficients fuse the chain to a single copy of Z
    colim2 = colim_E(bundle.groupoid, bundle.lc, bundle.modules["const"])
    assert colim2.module.groups["e"].canonical_form() == (1, ())


def test_quotient_action_choices():
    g0, lc, mods = clifford_parts()
    rep = check_quotient_action(g0, lc, mods["sign"])
    assert rep.ok
    # e = 1 admits two middle identities, e = f only one
    assert rep.counts["ell"] == 3
    assert rep.counts["representative"] == 2
    assert rep.counts["descent"] == 1
    bundle = fixtures.load("chain2")
    rep2 = check_quotient_action(bundle.groupoid, bundle.lc,
                                 bundle.modules["mixed"])
    assert rep2.ok and rep2.counts["descent"] == 0  # no acting arrows


def test_colim_map_componentwise():
    bundle = fixtures.load("chain2")
    const, mixed = bundle.modules["const"], bundle.modules["mixed"]
    xi = GMap(const, mixed, {
        "e": AbHom(const.groups["e"], mixed.groups["e"], ZMatrix([[1]])),
        "f": AbHom(const.groups["f"], mixed.groups["f"], ZMatrix([[1]])),
    })
    assert xi.is_componentwise_surjective()
    csrc = colim_E(bundle.groupoid, bundle.lc, const)
    ctgt = colim_E(bundle.groupoid, bundle.lc, mixed)
    down = colim_E_map(csrc, ctgt, xi)
    assert down.components["e"].is_surjective()


def test_expand_map_keeps_surjectivity():
    g0, lc, _ = clifford_parts()
    q = quotient(g0)
    b = quotient_sign_module(q)
    z = b.groups["1"]
    z2 = FgAbGroup.from_invariants(0, [2])
    qc = b.base
    small = GModule(qc, {"1": z2},
                    {"1": AbHom.identity(z2), "s": AbHom.identity(z2)})
    xi = GMap(b, small, {"1": AbHom(z, z2, ZMatrix([[1]]))})
    up = expand_map(q, lc, xi)
    assert up.source.groups["f"] == z
    assert up.is_componentwise_surjective()
    for e in up.components:
        assert up.components[e].matrix == ZMatrix([[1]])


def test_rho_tau_inverse():
    g0, lc, mods = clifford_parts()
    q = quotient(g0)
    b = quotient_sign_module(q)
    colim = colim_E(g0, lc, mods["sign"])
    up = expand(q, lc, b)
    phi = GMap(mods["sign"], up, {
        "1": AbHom(mods["sign"].groups["1"], b.groups["1"], ZMatrix([[3]])),
        "f": AbHom(mods["sign"].groups["f"], b.groups["1"], ZMatrix([[3]])),
    })
    psi = rho(colim, b, phi)
    assert psi.components["1"].matrix == ZMatrix([[3, 3]])
    back = tau(colim, b, psi, up)
    assert back.equal(phi)
    again = rho(colim, b, back)
    assert again.equal(psi)


def test_check_adjunction_agrees_with_enumeration():
    # with B = colim_E(A), the triangle identities hold, and listing
    # Hom(A, E B) and Hom(B, B) element by element confirms what they
    # imply: equal sizes, and rho and tau inverse on both
    rng = random.Random(113)
    for _ in range(60):
        rog = random_og(rng, n_identities=rng.randint(1, 4),
                        max_group=rng.randint(1, 3), directed=True)
        g0 = rog.groupoid
        lc = build_lcat(g0)
        a_module = random_module(rng, rog, lc, finite=True, max_order=4)
        colim = colim_E(g0, lc, a_module)
        b = colim.module
        up = expand(colim.q, lc, b)
        left = enumerate_gmaps(a_module, up)
        right = enumerate_gmaps(b, b)
        bijection = len(left) == len(right) and all(
            tau(colim, b, rho(colim, b, phi), up).equal(phi)
            for phi in left) and all(
            rho(colim, b, tau(colim, b, psi, up)).equal(psi)
            for psi in right)
        assert bijection
        assert check_adjunction(g0, lc, a_module) == (True, True)


def _double_first_members(colim, gmap):
    """gmap with its component at the first member of each class
    doubled, taken without a naturality check."""
    comps = dict(gmap.components)
    for mem in colim.members.values():
        h = comps[mem[0]]
        comps[mem[0]] = AbHom(h.source, h.target, ZMatrix(
            [[2 * v for v in row] for row in h.matrix.rows],
            ncols=h.matrix.ncols), checked=True)
    return GMap(gmap.source, gmap.target, comps, checked=True)


@pytest.mark.parametrize("where", ["rho", "tau"])
@pytest.mark.parametrize("name", ["clifford", "z2"])
def test_doubled_block_fails_the_adjunction_check(name, where, monkeypatch):
    # rho stacks one member's block twice over, or tau sends one member
    # through twice its class component.  Clifford's class has two
    # members, so the doubled map no longer kills the relator between
    # them and is refused on construction; z2's class has one member,
    # so the map is well defined and natural but both triangles fail,
    # and the second also fails through expand_map.
    bundle = fixtures.load(name)
    g0, lc, sign = bundle.groupoid, bundle.lc, bundle.modules["sign"]
    assert check_adjunction(g0, lc, sign) == (True, True)
    if where == "rho":
        def corrupt(colim, b_module, phi):
            return rho(colim, b_module, _double_first_members(colim, phi))
    else:
        def corrupt(colim, b_module, psi, expanded):
            return _double_first_members(
                colim, tau(colim, b_module, psi, expanded))
    for owner in (gmodules, oracles):
        monkeypatch.setattr(owner, where, corrupt)
    if name == "clifford":
        with pytest.raises(PreconditionViolation, match="does not descend"):
            check_adjunction(g0, lc, sign)
    else:
        assert check_adjunction(g0, lc, sign) == (False, False)
        assert expand_triangle_by_expand_map(g0, lc, sign) is False


def test_enumerate_gmaps_counts():
    bundle = fixtures.load("z2")
    g0, lc = bundle.groupoid, bundle.lc
    z4 = FgAbGroup.from_invariants(0, [4])
    mod = module_from_parts(lc, {"1": z4}, {}, {"s": ZMatrix([[-1]])})
    maps = enumerate_gmaps(mod, mod)
    assert len(maps) == 4
    assert any(m.equal(GMap.identity(mod)) for m in maps)
    # twisting by an order-4 unit breaks naturality for odd multipliers
    twist = module_from_parts(lc, {"1": z4}, {}, {"s": ZMatrix([[1]])})
    cross = enumerate_gmaps(mod, twist)
    assert len(cross) == 2  # only the even multiplications commute


def test_colim_composition_fixtures():
    for name, module in [("clifford", "sign"), ("clifford", "const"),
                         ("chain2", "mixed"), ("z2", "sign")]:
        bundle = fixtures.load(name)
        rep = check_colim_composition(bundle.groupoid, bundle.lc,
                                      bundle.modules[module])
        assert rep.ok, (name, module)
        assert rep.equal_canonical
        assert rep.iso is not None


def test_random_modules_pass_choice_checks():
    rng = random.Random(31)
    for _ in range(10):
        rog = random_og(rng, n_identities=rng.randint(1, 3),
                        max_group=rng.randint(1, 3), directed=True)
        lc = build_lcat(rog.groupoid)
        mod = random_module(rng, rog, lc, finite=True, max_order=4)
        rep = check_quotient_action(rog.groupoid, lc, mod)
        assert rep.ok, rep.failures
        rep2 = check_colim_composition(rog.groupoid, lc, mod)
        assert rep2.ok


def test_ses_colim_exact_small():
    from oghom.zmodule import homology_at

    rng = random.Random(47)
    for _ in range(5):
        g0, lc, sub, mid, quo, incl, proj = random_ses(rng)
        csub = colim_E(g0, lc, sub)
        cmid = colim_E(g0, lc, mid)
        cquo = colim_E(g0, lc, quo)
        down_i = colim_E_map(csub, cmid, incl)
        down_p = colim_E_map(cmid, cquo, proj)
        for x in csub.module.base.objects:
            fx, gx = down_i.components[x], down_p.components[x]
            assert fx.is_injective()
            assert gx.is_surjective()
            assert homology_at(fx, gx).is_trivial()


@pytest.mark.parametrize("which", [0, -1])
@pytest.mark.parametrize("extra", [FgAbGroup.free(1),
                                   FgAbGroup.from_invariants(0, [2])])
def test_corrupted_component_fails_the_sum_check(which, extra, monkeypatch):
    # one component colimit of the oracle gains a summand; the sum of the
    # components must then disagree with the total colimit, which is
    # presented by one call
    cat, module = theorem_inputs(0, True)[1]  # four one-object components
    assert len(cat.components()) == 4
    calls = []

    def corrupt_one(cat, module, objs, morphisms):
        calls.append(objs)
        out = _presentation(cat, module, objs, morphisms)
        if len(calls) - 2 == which % 4:  # call 1 presents the total
            return (direct_sum([out[0], extra])[0],) + out[1:]
        return out

    monkeypatch.setattr("oghom.gmodules._presentation", corrupt_one)
    monkeypatch.setattr(oracles, "_presentation", corrupt_one)
    total = colim_category(cat, module)[0]
    assert len(calls) == 1
    summed = colim_by_components(cat, module)[0]
    assert summed.canonical_form() != total.canonical_form()
    assert len(calls) == 5


def groupoid_modules():
    """(label, g0, lc, module) for every fixture module and for module m
    of the connected and the Brandt Z/2 groupoids."""
    out = []
    for name in fixtures.names():
        bundle = fixtures.load(name)
        out += [("%s/%s" % (name, m), bundle.groupoid, bundle.lc, module)
                for m, module in sorted(bundle.modules.items())]
    for label, doc in [("connected", connected_doc()),
                       ("brandt_z2", brandt_z2_doc())]:
        _, cand, module_docs = io.load(doc)
        g0 = OrderedGroupoid.from_candidate(cand)
        lc = build_lcat(g0)
        out.append((label, g0, lc,
                    io.build_module(g0, lc, module_docs["m"])))
    return out


def modules_under_test():
    """(label, category, module) for the modules of groupoid_modules."""
    return [(label, lc.category, module)
            for label, _, lc, module in groupoid_modules()]


def test_presentation_writes_each_nonzero_relator_once_up_to_sign():
    # every nonzero a - a ◁ m is a relator column up to sign, and no two
    # relator columns agree up to sign
    for label, cat, module in modules_under_test():
        objs = list(cat.objects)
        morphisms = cat.nonidentity_morphisms()
        group, offsets = _presentation(cat, module, objs, morphisms)
        rel = group.relations
        first = sum(module.groups[o].relations.ncols for o in objs)
        written = [rel.col(j) for j in range(first, rel.ncols)]
        want = set()
        for m in morphisms:
            src, tgt = cat.dom[m], cat.cod[m]
            for i in range(module.groups[src].ngens):
                col = [0] * group.ngens
                col[offsets[src] + i] += 1
                for r, v in enumerate(module.action[m].matrix.col(i)):
                    col[offsets[tgt] + r] -= v
                if any(col):
                    want.add(frozenset({tuple(col), tuple(-v for v in col)}))
        assert len(written) == len(want), label
        assert {frozenset({c, tuple(-v for v in c)})
                for c in written} == want, label


def last_relator_changed(change):
    """A stand-in for _presentation whose last relator column c becomes
    change(c), or is dropped where that is None; a presentation with no
    relator column (every a - a ◁ m zero) comes back as it is."""
    def present(cat, module, objs, morphisms):
        group, offsets = _presentation(cat, module, objs, morphisms)
        rel = group.relations
        if rel.ncols == sum(module.groups[o].relations.ncols for o in objs):
            return group, offsets
        cols = [rel.col(j) for j in range(rel.ncols - 1)]
        last = change(rel.col(rel.ncols - 1))
        if last is not None:
            cols.append(last)
        changed = FgAbGroup(group.ngens, ZMatrix.from_cols(cols, rel.nrows))
        return changed, offsets
    return present


def test_missing_relator_fails_the_h0_check(monkeypatch):
    # the presentation loses its last relator column, so the colimit
    # gains the free summand that the relator of (e, f) killed
    bundle = fixtures.load("chain2")
    cat, module = bundle.lc.category, bundle.modules["const"]
    assert homology(cat, module, 0).canonical_form() == (1, ())
    monkeypatch.setattr("oghom.gmodules._presentation",
                        last_relator_changed(lambda col: None))
    with pytest.raises(StructuralDefect, match=re.escape(
            "H_0 (1, ()) disagrees with the colimit (2, ())")):
        homology(cat, module, 0)


def test_doubled_relator_fails_the_h0_check(monkeypatch):
    # the last relator column counts twice; every module not listed
    # writes no relator (a group acting trivially: cyclicN/const and
    # z2/const) or has its last relator in the span of the others
    # (clifford/sign, twofold/const, connected, brandt_z2), so its
    # mutant is equivalent
    cases = modules_under_test()
    monkeypatch.setattr("oghom.gmodules._presentation",
                        last_relator_changed(lambda col: [2 * v for v in col]))
    rejected = []
    for label, cat, module in cases:
        try:
            homology_profile(cat, module, 1)
        except StructuralDefect as exc:
            assert str(exc).startswith("H_0 "), exc
            rejected.append(label)
    assert rejected == ["chain2/const", "chain2/mixed", "clifford/const",
                        "cyclic2/sign", "cyclic4/sign", "cyclic6/sign",
                        "z2/sign"]


def test_colimit_builds_no_smith_transform(monkeypatch):
    # the colimit's canonical_form() reads invariant factors, so no Smith
    # form with transforms is built
    cases = modules_under_test()
    want = [colim_category(cat, module)[0].canonical_form()
            for _, cat, module in cases]

    def no_snf(m):
        raise AssertionError("snf called")

    monkeypatch.setattr("oghom.zmodule.snf", no_snf)
    assert [colim_category(cat, module)[0].canonical_form()
            for _, cat, module in cases] == want


@cache
def colimit_inputs():
    """(label, category, module) for the modules of groupoid_modules,
    the class colimits of those whose groupoid is principally directed,
    and both categories of theorem_inputs for seeds 0-39."""
    out = []
    for label, g0, lc, module in groupoid_modules():
        out.append((label, lc.category, module))
        if is_principally_directed(g0)[0]:
            colim = colim_E(g0, lc, module).module
            out.append((label + " over G/beta", colim.base, colim))
    for seed in range(40):
        for finite in (True, False):
            for side, (cat, module) in zip(
                    ("L(G)", "G/beta"), theorem_inputs(seed, finite)):
                out.append(("seed %d %s %s" % (seed, finite, side),
                            cat, module))
    return out


def test_colimit_agrees_with_the_sum_of_its_components():
    many = 0
    for label, cat, module in colimit_inputs():
        many += len(cat.components()) > 1
        want = colim_by_components(cat, module)[0].canonical_form()
        assert colim_category(cat, module)[0].canonical_form() == want, label
    assert many  # the oracle sums more than one part somewhere


def test_colimit_is_the_block_sum_of_its_components():
    # re-indexed by the offsets, the components' relation blocks and
    # relator columns are those of the total, as multisets
    def split(group, module, objs):
        first = sum(module.groups[o].relations.ncols for o in objs)
        rel = group.relations
        return ([rel.col(j) for j in range(first)],
                [rel.col(j) for j in range(first, rel.ncols)])

    for label, cat, module in colimit_inputs():
        group, offsets = colim_category(cat, module)
        want = [Counter(map(tuple, cols))
                for cols in split(group, module, cat.objects)]
        got = [Counter(), Counter()]
        _, parts = colim_by_components(cat, module)
        assert sorted(o for _, at in parts for o in at) == \
            sorted(cat.objects), label
        for part, at in parts:
            for count, cols in zip(got, split(part, module, at)):
                for col in cols:
                    moved = [0] * group.ngens
                    for o, start in at.items():
                        for i in range(module.groups[o].ngens):
                            moved[offsets[o] + i] = col[start + i]
                    count[tuple(moved)] += 1
        assert got == want, label


def test_colimit_presents_once_and_reads_no_canonical_form(monkeypatch):
    cases = modules_under_test()
    calls = []

    def spy(*args):
        calls.append(args)
        return _presentation(*args)

    def no_canonical_form(self):
        raise AssertionError("canonical_form called")

    monkeypatch.setattr("oghom.gmodules._presentation", spy)
    monkeypatch.setattr(FgAbGroup, "canonical_form", no_canonical_form)
    for label, cat, module in cases:
        del calls[:]
        colim_category(cat, module)
        assert len(calls) == 1, label


def offset_inputs():
    """(label, g0, lc, module) for every fixture module, the connected
    and Brandt Z/2 groupoids, and the seeded theorem instances, each
    where the groupoid is principally directed (colim_E refuses the
    twofold fixture)."""
    out = groupoid_modules()
    for seed in range(40):
        for finite in (True, False):
            out.append(("seed %d %s" % (seed, finite),)
                       + theorem_instance(seed, finite))
    return [case for case in out if is_principally_directed(case[1])[0]]


def test_offsets_agree_with_injections():
    # tau's column slices are the products injection then psi_x, and
    # the unit columns of check_colim_composition decide what the
    # injection products decide
    for label, g0, lc, module in offset_inputs():
        colim = colim_E(g0, lc, module)
        b = colim.module
        up = expand(colim.q, lc, b)
        double = GMap(b, b, {x: AbHom(g, g, ZMatrix(
            [[2 * (r == c) for c in range(g.ngens)] for r in range(g.ngens)],
            ncols=g.ngens)) for x, g in b.groups.items()})
        for psi in (GMap.identity(b), double):
            got = tau(colim, b, psi, up)
            for x, mem in colim.members.items():
                for e in mem:
                    want = injection(module.groups[e], b.groups[x],
                                     colim.offsets[x][e]).then(
                        psi.components[x])
                    assert got.components[e].matrix == want.matrix, (label, e)
        rep = check_colim_composition(g0, lc, module)
        assert (rep.equal_canonical, rep.iso) == \
            colim_composition_by_injections(g0, lc, module), label


def shift_first_fwd_column(monkeypatch):
    """Make check_colim_composition's fwd send its first generator one
    generator further down; returns the list of the nrows of every
    _unit_columns call, which alternate fwd, bwd."""
    true_unit_columns = gmodules._unit_columns
    calls = []

    def shifted(image, nrows):
        calls.append(nrows)
        if len(calls) % 2 and image and nrows > 1:  # fwd, not bwd
            image = [(image[0] + 1) % nrows] + list(image[1:])
        return true_unit_columns(image, nrows)

    monkeypatch.setattr("oghom.gmodules._unit_columns", shifted)
    return calls


def test_shifted_unit_column_fails_the_comparison(monkeypatch):
    # the first unit column of fwd moves down one generator; where the
    # injection products give an isomorphism, the mutant must not on at
    # least one input
    cases = offset_inputs()
    want = [colim_composition_by_injections(g0, lc, module)[1]
            for _, g0, lc, module in cases]
    calls = shift_first_fwd_column(monkeypatch)
    got = [check_colim_composition(g0, lc, module).iso
           for _, g0, lc, module in cases]
    assert len(calls) == 2 * len(cases)
    assert not any(g and not w for g, w in zip(got, want))
    assert any(w and not g for g, w in zip(got, want))


def test_shifted_unit_column_needs_the_identity_comparisons(monkeypatch):
    # with the shifted unit column, some input passes both well-definedness
    # tests and is still no isomorphism: only the comparisons of f then b
    # and b then f with the identities see it
    true_welldefined = gmodules.hom_welldefined
    verdicts = []

    def recorded(source, target, matrix):
        verdicts.append(true_welldefined(source, target, matrix))
        return verdicts[-1]

    shift_first_fwd_column(monkeypatch)
    monkeypatch.setattr("oghom.gmodules.hom_welldefined", recorded)
    only_identities = 0
    for _, g0, lc, module in offset_inputs():
        del verdicts[:]
        iso = check_colim_composition(g0, lc, module).iso
        only_identities += verdicts == [True, True] and not iso
    assert only_identities


@pytest.mark.parametrize("kind", ["ell", "representative"])
def test_wrong_action_choice_fails_the_choice_check(kind, monkeypatch):
    # the action column is shifted for a non-least middle identity, or
    # for an acting arrow that is not its class's least member; the
    # colimit itself uses only least choices and stays a module
    g0, lc, mods = clifford_parts()

    def corrupt(g0, a_module, e, i, g, ell, tgt_group, tgt_offsets):
        col = _quotient_action_column(g0, a_module, e, i, g, ell,
                                      tgt_group, tgt_offsets)
        least = (ell == min(g0.identity_lower_bounds(e, g0.d[g]))
                 if kind == "ell" else g == quotient(g0).class_of[g])
        if not least:
            col[0] += 1
        return col

    monkeypatch.setattr("oghom.gmodules._quotient_action_column", corrupt)
    rep = check_quotient_action(g0, lc, mods["sign"])
    assert not rep.ok
    assert {f[0] for f in rep.failures} == {kind}


def test_class_action_that_does_not_descend_fails_the_descent_check(
        monkeypatch):
    # colim_E's own constructor refuses such a matrix, so the corrupted
    # colimit is handed to check_quotient_action directly; every member
    # of a class computes the same corrupted matrix, so only descent
    # can see it
    g0, lc, mods = clifford_parts()
    colim = colim_E(g0, lc, mods["sign"])

    def corrupt(matrix):
        rows = matrix.to_lists()
        rows[0][0] += 1
        return ZMatrix(rows, ncols=matrix.ncols)

    action = colim.module.action
    for m in action:
        if not colim.module.base.is_identity(m):
            hom = action[m]
            action[m] = AbHom(hom.source, hom.target, corrupt(hom.matrix),
                              checked=True)
    monkeypatch.setattr("oghom.gmodules.colim_E", lambda *args: colim)
    monkeypatch.setattr("oghom.gmodules._class_action_matrix",
                        lambda *args: corrupt(_class_action_matrix(*args)))
    rep = check_quotient_action(g0, lc, mods["sign"])
    assert not rep.ok
    assert {f[0] for f in rep.failures} == {"descent"}


def seeded_modules():
    """(label, g0, lc, module) for 50 seeded random_og instances:
    random_module over the directed ones, and over the free ones, where
    random_module does not apply, the constant module of a cyclic
    group."""
    rng = random.Random(25)
    out = []
    for i in range(50):
        directed = i % 2 == 0
        rog = random_og(rng, n_identities=rng.randint(1, 5),
                        max_group=rng.randint(1, 4), directed=directed)
        g0 = rog.groupoid
        lc = build_lcat(g0)
        if directed:
            module = random_module(rng, rog, lc, finite=rng.random() < 0.5)
        else:
            group = FgAbGroup.from_invariants(*rng.choice(
                [(1, []), (0, [2]), (0, [3])]))
            one = ZMatrix.identity(group.ngens)
            module = module_from_parts(
                lc, {e: group for e in g0.identities},
                {(hi, lo): one for (lo, hi) in g0.identity_poset.covers()},
                {g: one for g in g0.nonidentity_arrows()})
        out.append(("seed25/%d/%s" % (i, "directed" if directed else "free"),
                    g0, lc, module))
    return out


@cache
def differential_cases():
    """(modules, maps) for the differential tests: every module of
    groupoid_modules and seeded_modules, and, where beta is
    transitive, B = colim_E of it and E(B); maps holds the identity of
    each module and the unit A -> E(B) of colim_E ⊣ E."""
    modules, maps = [], []
    for label, g0, lc, a_module in groupoid_modules() + seeded_modules():
        modules.append((label, a_module))
        if not is_principally_directed(g0)[0]:
            continue
        colim = colim_E(g0, lc, a_module)
        b_module = colim.module
        eb = expand(colim.q, lc, b_module)
        modules += [(label + "/colim_E", b_module), (label + "/E(B)", eb)]
        maps.append((label + "/unit", tau(
            colim, b_module, GMap.identity(b_module), eb)))
    maps += [(label + "/identity", GMap.identity(module))
             for label, module in modules]
    return modules, maps


def corrupted(h):
    """h with one matrix entry raised by 1, the first entry for which
    that stays well defined, or None where there is none."""
    rows = h.matrix.to_lists()
    for row in rows:
        for j in range(len(row)):
            row[j] += 1
            mat = ZMatrix(rows, ncols=h.matrix.ncols)
            if hom_welldefined(h.source, h.target, mat):
                return AbHom(h.source, h.target, mat, checked=True)
            row[j] -= 1
    return None


def test_functoriality_matches_the_pair_loop():
    # clean, and with each distinct hom object corrupted in turn (a hom
    # that expand shares among a class is corrupted for all of them)
    failing = 0
    modules, _ = differential_cases()
    for label, module in modules:
        cat, groups = module.base, module.groups
        assert check_functorial(cat, groups, module.action) == [], label
        assert functoriality_problems_by_pair(
            cat, groups, module.action) == [], label
        for h in {id(h): h for h in module.action.values()}.values():
            bad = corrupted(h)
            if bad is None:
                continue
            action = {m: bad if a is h else a
                      for m, a in module.action.items()}
            problems = check_functorial(cat, groups, action)
            assert problems == functoriality_problems_by_pair(
                cat, groups, action), label
            failing += bool(problems)
    assert failing > 500


def test_naturality_matches_the_morphism_loop():
    failing = 0
    _, maps = differential_cases()
    for label, gmap in maps:
        src, tgt, comps = gmap.source, gmap.target, gmap.components
        assert check_natural(src, tgt, comps) == [], label
        assert naturality_failures_by_morphism(src, tgt, comps) == [], label
        for o, h in comps.items():
            bad = corrupted(h)
            if bad is None:
                continue
            comps_bad = dict(comps)
            comps_bad[o] = bad
            problems = check_natural(src, tgt, comps_bad)
            assert problems == naturality_failures_by_morphism(
                src, tgt, comps_bad), label
            failing += bool(problems)
    assert failing > 150


def generator_categories():
    """(label, category): the bases of the differential modules, among
    them the quotient categories, the cyclic groups Z/1 .. Z/6 and S_3
    as one-object categories."""
    modules, _ = differential_cases()
    cats = list({id(m.base): (label, m.base) for label, m in modules}
                .values())
    cats += [("Z/%d" % m, group_category(m)) for m in range(1, 7)]
    cats.append(("S_3", permutation_group([(1, 0, 2), (1, 2, 0)])))
    return cats


def test_generators_generate():
    # the morphisms that are no composite of two non-identity ones come
    # first and the rest in morphism order, no generator is a product of
    # those before it, and every non-identity morphism is a product of
    # generators
    for label, cat in generator_categories():
        gens = cat.generators()
        assert cat.generators() is gens
        nonid = cat.nonidentity_morphisms()
        composites = {cat.compose(a, b) for a in nonid for b in nonid
                      if cat.composable(a, b)}
        irreducible = [m for m in nonid if m not in composites]
        rest = gens[len(irreducible):]
        assert gens[:len(irreducible)] == irreducible, label
        assert rest == sorted(rest, key=nonid.index), label
        for i, g in enumerate(gens):
            assert g in nonid and g not in products_of_generators(
                cat, gens[:i]), label
        assert set(nonid) <= products_of_generators(cat, gens), label
    assert group_category(3).generators() == ["t1"]


def test_generators_are_not_computed_by_construction_or_check(monkeypatch):
    # the order_structure path builds categories but no module
    def refuse(self):
        raise AssertionError("generators computed")

    monkeypatch.setattr(FiniteCategory, "generators", refuse)
    for name in fixtures.names():
        _, cand, _ = io.load(fixtures.doc(name))
        g0 = OrderedGroupoid.from_candidate(cand)
        lc = build_lcat(g0)
        assert lc.category.check() == []
        lc.category.left_cancellative()
        if is_principally_directed(g0)[0]:
            groupoid_as_category(quotient(g0).groupoid).check()


def test_check_adjunction_decides_few_maps(monkeypatch):
    # with functoriality and naturality decided at generators, the
    # triangle identities on seed 1648's random_og(rng, 10, 12) (163 L(G)
    # morphisms) take 166 equal_as_maps calls; deciding every composable
    # pair and every morphism takes 1,669.  Through expand_map, which
    # expanded B and colim_E E(B) again and checked the functoriality of
    # both and the naturality of E of the counit, they took 258
    rng = random.Random(1648)
    rog = random_og(rng, 10, 12)
    lc = build_lcat(rog.groupoid)
    a_module = random_module(rng, rog, lc)
    equal_as_maps = AbHom.equal_as_maps
    calls = []

    def spy(self, other):
        calls.append(other)
        return equal_as_maps(self, other)

    monkeypatch.setattr(AbHom, "equal_as_maps", spy)
    assert check_adjunction(rog.groupoid, lc, a_module) == (True, True)
    assert len(calls) == 166


@cache
def action_inputs():
    """(label, g0, lc, module): every principally directed module of
    groupoid_modules, and random_module over random_og(Random(s), 5, 4)
    for s = 0..39."""
    out = [case for case in groupoid_modules()
           if is_principally_directed(case[1])[0]]
    for s in range(40):
        rng = random.Random(s)
        rog = random_og(rng, 5, 4)
        lc = build_lcat(rog.groupoid)
        out.append(("random_og(%d, 5, 4)" % s, rog.groupoid, lc,
                    random_module(rng, rog, lc)))
    return out


def relation_shifted(module):
    """module rebuilt by the GModule constructor with each action matrix
    M replaced by M + R X, R the target's relations and X all ones: the
    same maps, with other entries wherever the target has a relation."""
    action = {}
    for m, h in module.action.items():
        shift = [sum(row) for row in h.target.relations.to_lists()]
        action[m] = AbHom(h.source, h.target, ZMatrix(
            [[v + d for v in row] for row, d in zip(h.matrix.to_lists(),
                                                    shift)],
            ncols=h.matrix.ncols))
    return GModule(module.base, module.groups, action)


def action_matrices(colim):
    return {m: colim.module.action[m].matrix
            for m in colim.module.base.nonidentity_morphisms()}


def test_class_action_matches_the_two_step_route():
    # over module_from_parts, (e, (ell|g)) acts by A_k P and the two
    # steps by (A_k I) P; over an expansion, by B_k and by B_k I; so
    # the matrices agree entry for entry at A and at E(colim_E A)
    inputs = action_inputs()
    assert len(inputs) == 55
    for label, g0, lc, a_module in inputs:
        colim = colim_E(g0, lc, a_module)
        eb = expand(colim.q, lc, colim.module)
        for c in (colim, colim_E(g0, lc, eb)):
            assert action_matrices(c) == class_actions_by_two_steps(
                g0, c), label


def test_class_action_matches_the_two_step_route_as_maps():
    # on a hand-built module whose matrices differ by relations, one
    # morphism and two steps give equal maps, not equal matrices
    differ = 0
    for label, g0, lc, a_module in action_inputs():
        colim = colim_E(g0, lc, relation_shifted(a_module))
        for m, mat in class_actions_by_two_steps(g0, colim).items():
            h = colim.module.action[m]
            assert h.equal_as_maps(AbHom(h.source, h.target, mat)), label
            differ += mat != h.matrix
    assert differ


def test_second_triangle_matches_expand_map():
    for label, g0, lc, a_module in action_inputs():
        for module in (a_module, relation_shifted(a_module)):
            verdicts = check_adjunction(g0, lc, module)
            assert verdicts == (True, True), label
            assert verdicts[1] == expand_triangle_by_expand_map(
                g0, lc, module), label


def test_check_adjunction_builds_each_expansion_once(monkeypatch):
    # E(B) and E(colim_E E(B)), and colim_E(A) and colim_E(E(B)), each
    # built and checked for functoriality once; E of the counit is read
    # off the counit, so expand_map is never called
    calls = Counter()

    def counted(f):
        def call(*args):
            calls[f.__name__] += 1
            return f(*args)
        return call

    def refuse(*args):
        raise AssertionError("expand_map called")

    for what in ("expand", "colim_E", "check_functorial"):
        monkeypatch.setattr(gmodules, what, counted(getattr(gmodules, what)))
    monkeypatch.setattr(gmodules, "expand_map", refuse)
    for label, g0, lc, a_module in action_inputs():
        calls.clear()
        assert check_adjunction(g0, lc, a_module) == (True, True), label
        assert calls == {"expand": 2, "colim_E": 2,
                         "check_functorial": 4}, label
