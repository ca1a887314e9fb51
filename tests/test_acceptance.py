"""Acceptance checklist: fourteen checks, one printed line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
Every check here is exact (canonical forms, counts, verdicts); there
are no tolerances.

One deliberate red: criterion 3 demands an instance whose identity
order is principally directed while the whole groupoid is not.  No
valid ordered groupoid can do that (identities are closed downward, so
lower bounds of identities are identities and directedness of the
identity order lifts to every principal ideal).  The twofold fixture
realises every other clause; the impossible clause is asserted as
stated and fails honestly.  The analysis lives in the decisions ledger
kept outside the package.
"""

import random

from oghom import fixtures, io
from oghom.beta import (
    beta_transitive,
    beta_witness,
    check_quotient_welldefined,
    is_principally_directed,
    quotient,
)
from oghom.gmodules import (
    check_colim_composition,
    check_quotient_action,
    colim_E,
    colim_E_map,
    colim_category,
    expand,
    expand_map,
    rho,
    tau,
)
from oghom.groupoid import GroupoidCandidate, OrderedGroupoid, validate
from oghom.homology import check_theorem, homology, homology_profile
from oghom.lcat import build_lcat
from oghom.randgen import (
    random_module,
    random_og,
    random_quotient_module,
)
from oghom.zmodule import homology_at, snf

from .oracles import (
    brute_force_homology,
    enumerate_gmaps,
    group_order,
    ideals_directed_by_scan,
    is_unimodular,
    periodic_cyclic_homology,
    random_int_matrix,
    random_ses,
    random_surjection,
    random_zero_composite,
)
from .test_groupoid import clifford_mutations

FIXTURES = ["chain2", "z2", "clifford", "twofold"]
DIRECTED_FIXTURES = ["chain2", "z2", "clifford"]


def report(n, ok, detail):
    line = "criterion %02d %s: %s" % (n, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def fixture_candidate(name):
    _, cand, _ = io.load(fixtures.doc(name))
    return cand


def directed_instance(rng, max_identities=3, max_group=3):
    return random_og(rng, n_identities=rng.randint(1, max_identities),
                     max_group=rng.randint(1, max_group), directed=True)


def identity_subgroupoid(g0):
    """The identities of g0 with the restricted order, as a groupoid."""
    pairs = [(a, b) for a in g0.identities for b in g0.identities
             if g0.identity_poset.leq(a, b)]
    cand = GroupoidCandidate.from_parts(g0.identities, {}, {}, pairs)
    return OrderedGroupoid.from_candidate(cand)


def test_criterion_01_axiom_validation():
    valid = sum(1 for name in FIXTURES
                if validate(fixture_candidate(name)).ok)
    rejected = 0
    for cand, axiom, witness in clifford_mutations():
        rep = validate(cand)
        if not rep.ok and rep.has(axiom, witness):
            rejected += 1
    report(1, valid == 4 and rejected == 10,
           "%d/4 fixtures valid, %d/10 single-edit mutations rejected "
           "with the expected witness" % (valid, rejected))


def test_criterion_02_directedness_equivalence():
    groupoids = [fixtures.load(name).groupoid for name in FIXTURES]
    rng = random.Random(202)
    while len(groupoids) < 4 + 200:
        rog = random_og(rng, n_identities=rng.randint(1, 5),
                        max_group=rng.randint(1, 4),
                        directed=rng.random() < 0.5)
        groupoids.append(rog.groupoid)
    agree = sum(1 for g0 in groupoids
                if ideals_directed_by_scan(g0)[0] == beta_transitive(g0)[0])
    report(2, agree == len(groupoids),
           "ideal-directedness and transitivity verdicts agree on %d/%d "
           "instances (4 fixtures + 200 random)" % (agree, len(groupoids)))


def test_criterion_03_counterexample_fidelity():
    g0 = fixtures.load("twofold").groupoid
    e_directed = is_principally_directed(identity_subgroupoid(g0))[0]
    verdict, reason = is_principally_directed(g0)
    a, b, c = reason["triple"] if reason["kind"] == "beta-chain" else (None,) * 3
    returned_valid = (not verdict
                      and reason["kind"] == "beta-chain"
                      and beta_witness(g0, a, b) is not None
                      and beta_witness(g0, b, c) is not None
                      and beta_witness(g0, a, c) is None)
    named_chain = (beta_witness(g0, "sA", "s") is not None
                   and beta_witness(g0, "s", "sB") is not None
                   and beta_witness(g0, "sA", "sB") is None)
    report(3, e_directed and returned_valid and named_chain,
           "identity order principally directed: %s (unsatisfiable: "
           "identities are down-closed, so a directed identity order "
           "forces directedness everywhere); verdict false with valid "
           "chain %r: %s; sA/s/sB chain confirmed: %s"
           % (e_directed, (a, b, c), returned_valid, named_chain))


def test_criterion_04_quotient_welldefined():
    groupoids = [fixtures.load(n).groupoid for n in DIRECTED_FIXTURES]
    rng = random.Random(204)
    while len(groupoids) < 3 + 100:
        groupoids.append(directed_instance(rng, 5, 4).groupoid)
    good = 0
    for g0 in groupoids:
        rep = check_quotient_welldefined(g0)
        q = quotient(g0)
        _, cand, _ = io.load(io.groupoid_to_doc(q.groupoid))
        if rep.ok and validate(cand).ok:
            good += 1
    report(4, good == len(groupoids),
           "all choice tuples compose identically and the quotient "
           "revalidates on %d/%d instances (3 fixtures + 100 random)"
           % (good, len(groupoids)))


def test_criterion_05_left_cancellative():
    categories = [fixtures.load(n).lc.category for n in DIRECTED_FIXTURES]
    rng = random.Random(205)
    while len(categories) < 3 + 100:
        rog = random_og(rng, n_identities=rng.randint(1, 4),
                        max_group=rng.randint(1, 4),
                        directed=rng.random() < 0.5)
        categories.append(build_lcat(rog.groupoid).category)
    good = sum(1 for cat in categories if cat.left_cancellative()[0])
    report(5, good == len(categories),
           "left cancellation verified exhaustively on %d/%d categories "
           "(3 fixtures + 100 random)" % (good, len(categories)))


def test_criterion_06_action_choice_independence():
    cliff = fixtures.load("clifford")
    cases = [(cliff.groupoid, cliff.lc, cliff.modules[name])
             for name in ["const", "sign"]]
    rng = random.Random(206)
    while len(cases) < 2 + 100:
        rog = directed_instance(rng)
        lc = build_lcat(rog.groupoid)
        cases.append((rog.groupoid, lc,
                      random_module(rng, rog, lc, finite=True, max_order=4)))
    good = 0
    counts = {"ell": 0, "descent": 0, "representative": 0}
    for g0, lc, module in cases:
        rep = check_quotient_action(g0, lc, module)
        if rep.ok:
            good += 1
        for key in counts:
            counts[key] += rep.counts[key]
    exercised = all(counts[k] > 0 for k in counts)
    report(6, good == len(cases) and exercised,
           "lower-bound, descent and representative choices all "
           "immaterial on %d/%d modules (checked %d/%d/%d choice points)"
           % (good, len(cases), counts["ell"], counts["descent"],
              counts["representative"]))


def test_criterion_07_adjunction_bijection():
    rng = random.Random(207)
    good = 0
    for _ in range(50):
        rog = directed_instance(rng)
        g0 = rog.groupoid
        lc = build_lcat(g0)
        a_module = random_module(rng, rog, lc, finite=True, max_order=4)
        q = quotient(g0)
        colim = colim_E(g0, lc, a_module)
        b_module = random_quotient_module(rng, q, max_order=6)
        sizes = [group_order(grp) for grp in list(a_module.groups.values())
                 + list(b_module.groups.values())]
        assert all(s is not None and s <= 64 for s in sizes)
        up = expand(q, lc, b_module)
        left = enumerate_gmaps(a_module, up)
        right = enumerate_gmaps(colim.module, b_module)
        round_trip = all(
            tau(colim, b_module, rho(colim, b_module, phi), up).equal(phi)
            for phi in left) and all(
            rho(colim, b_module, tau(colim, b_module, psi, up)).equal(psi)
            for psi in right)
        if len(left) == len(right) and round_trip:
            good += 1
    report(7, good == 50,
           "hom-set sizes match and both round trips are the identity "
           "on %d/50 instances" % good)


def test_criterion_08_epi_preservation():
    rng = random.Random(208)
    good = 0
    for _ in range(50):
        rog = directed_instance(rng)
        g0 = rog.groupoid
        lc = build_lcat(g0)
        q = quotient(g0)
        b_module = random_quotient_module(rng, q, max_order=6)
        small, xi = random_surjection(rng, b_module)
        up = expand_map(q, lc, xi)
        if xi.is_componentwise_surjective() and (
                up.is_componentwise_surjective()):
            good += 1
    report(8, good == 50,
           "%d/50 surjective quotient-module maps expand to "
           "componentwise surjections" % good)


def test_criterion_09_colim_composition():
    cases = []
    for name in DIRECTED_FIXTURES:
        bundle = fixtures.load(name)
        for module in sorted(bundle.modules):
            cases.append((bundle.groupoid, bundle.lc,
                          bundle.modules[module]))
    rng = random.Random(209)
    fixture_count = len(cases)
    while len(cases) < fixture_count + 100:
        rog = directed_instance(rng)
        lc = build_lcat(rog.groupoid)
        cases.append((rog.groupoid, lc,
                      random_module(rng, rog, lc, finite=True, max_order=4)))
    good = 0
    for g0, lc, module in cases:
        rep = check_colim_composition(g0, lc, module)
        if rep.ok and rep.equal_canonical and rep.iso is not None:
            good += 1
    report(9, good == len(cases),
           "one-step and two-step colimits share invariant factors and "
           "an explicit isomorphism on %d/%d modules (%d fixture + 100 "
           "random)" % (good, len(cases), fixture_count))


def test_criterion_10_colim_exactness():
    rng = random.Random(210)
    good = 0
    for _ in range(50):
        g0, lc, sub, mid, quo, incl, proj = random_ses(rng)
        csub = colim_E(g0, lc, sub)
        cmid = colim_E(g0, lc, mid)
        cquo = colim_E(g0, lc, quo)
        down_i = colim_E_map(csub, cmid, incl)
        down_p = colim_E_map(cmid, cquo, proj)
        exact = all(
            down_i.components[x].is_injective()
            and down_p.components[x].is_surjective()
            and homology_at(down_i.components[x],
                            down_p.components[x]).is_trivial()
            for x in csub.module.base.objects)
        if exact:
            good += 1
    report(10, good == 50,
           "%d/50 short exact sequences stay short exact after the "
           "class colimit" % good)


def test_criterion_11_h0_anchor():
    cases = []
    for name in FIXTURES + ["cyclic2", "cyclic3"]:
        bundle = fixtures.load(name)
        for module in sorted(bundle.modules):
            cases.append((bundle.lc.category, bundle.modules[module]))
    rng = random.Random(211)
    while len(cases) < len(FIXTURES) * 2 + 19:
        rog = directed_instance(rng)
        lc = build_lcat(rog.groupoid)
        cases.append((lc.category,
                      random_module(rng, rog, lc, finite=True, max_order=4)))
    good = 0
    for cat, module in cases:
        h0 = homology(cat, module, 0)  # raises on any internal mismatch
        colim, _ = colim_category(cat, module)
        if h0.canonical_form() == colim.canonical_form():
            good += 1
    report(11, good == len(cases),
           "H_0 equals the categorical colimit on %d/%d invocations "
           "(and every homology() call enforces the same equality)"
           % (good, len(cases)))


def test_criterion_12_main_comparison():
    cases = []
    for name in DIRECTED_FIXTURES:
        bundle = fixtures.load(name)
        for module in sorted(bundle.modules):
            cases.append((bundle.groupoid, bundle.lc,
                          bundle.modules[module]))
    rng = random.Random(212)
    fixture_count = len(cases)
    while len(cases) < fixture_count + 25:
        rog = directed_instance(rng)
        lc = build_lcat(rog.groupoid)
        cases.append((rog.groupoid, lc,
                      random_module(rng, rog, lc, finite=True, max_order=4)))
    good = 0
    for g0, lc, module in cases:
        rep = check_theorem(g0, lc, module, [0, 1, 2])
        if rep.ok:
            good += 1
    report(12, good == len(cases),
           "homology profiles agree in degrees 0..2 over the category "
           "and over the quotient on %d/%d modules (%d fixture + 25 "
           "random)" % (good, len(cases), fixture_count))


def test_criterion_13_linear_algebra_kernel():
    rng = random.Random(213)
    snf_good = 0
    for _ in range(1000):
        m = random_int_matrix(rng, max_dim=12, span=20)
        res = snf(m)
        diag = res.diagonal
        chain = all((a == 0 and b == 0) or (a != 0 and b % a == 0)
                    for a, b in zip(diag, diag[1:]))
        if (res.u.mul(m).mul(res.v) == res.s
                and is_unimodular(res.u) and is_unimodular(res.v)
                and all(d >= 0 for d in diag) and chain):
            snf_good += 1
    hom_good = 0
    for _ in range(100):
        f, g = random_zero_composite(rng, max_elements=512)
        if homology_at(f, g).canonical_form() == brute_force_homology(f, g):
            hom_good += 1
    report(13, snf_good == 1000 and hom_good == 100,
           "Smith-form postconditions on %d/1000 matrices; subquotients "
           "match the element-counting oracle on %d/100 complexes"
           % (snf_good, hom_good))


def test_criterion_14_cyclic_group_oracle():
    good = total = 0
    for m in range(1, 7):
        _, cand, module_docs = io.load(fixtures.cyclic_doc(m))
        g0 = OrderedGroupoid.from_candidate(cand)
        lc = build_lcat(g0)
        for name in sorted(module_docs):
            module = io.build_module(g0, lc, module_docs[name])
            unit = -1 if name == "sign" else 1
            profile = homology_profile(lc.category, module, 3)
            expected = [periodic_cyclic_homology(m, 0, unit, n)
                        for n in range(4)]
            total += 1
            if profile == expected:
                good += 1
    report(14, good == total,
           "nerve homology of Z/m (m = 1..6), trivial and sign "
           "coefficients, degrees 0..3: %d/%d profiles match the "
           "periodic-resolution oracle" % (good, total))
