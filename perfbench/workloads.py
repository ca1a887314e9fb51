"""The four benchmark workloads: seeded inputs, the timed job, checks.

A workload's inputs come from its seed in two steps.  ``pick`` is the
benchmark's own sampler: it draws candidate instances from a
``random.Random`` and keeps, for each accepted one, the generator state
before the draw and the draw's parameters (a recipe).  ``make`` rebuilds
one accepted instance from its recipe with the library's generators and
serialises it; only this step is timed as set-up.  A job's ``input`` is
all the timed call receives (JSON document text, or an integer matrix as
nested lists); ``meta`` is what the output check needs and never reaches
the timed call.  Checks raise ``CheckFailed``.

The generators keep each job inside a size band (chain counts, an
estimated cost, or a matrix size) so that different seeds give the same
amount of work: the benchmark compares medians across seeds, and an
unbanded random instance can cost 100 times another.
"""

import hashlib
import importlib
import json
import random
from collections import namedtuple
from math import gcd

from oghom import errors, fixtures, io, randgen
from oghom.groupoid import OrderedGroupoid
from oghom.zmodule import FgAbGroup, ZMatrix

# ``oghom.homology`` is shadowed on the package by the function of that
# name, so the modules are looked up rather than imported as attributes.
beta = importlib.import_module("oghom.beta")
groupoid = importlib.import_module("oghom.groupoid")
homology = importlib.import_module("oghom.homology")
lcat = importlib.import_module("oghom.lcat")
zmodule = importlib.import_module("oghom.zmodule")

Job = namedtuple("Job", "input meta")
Workload = namedtuple("Workload", "name tail_pct pick make run check "
                                  "canonical fingerprint")


class CheckFailed(Exception):
    pass


def digest(canonical):
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _canonical_digest(canonical):
    """Fingerprint for outputs whose canonical form is all there is."""
    return lambda out: digest(canonical(out))


def _workspace_text(g0, modules):
    gdoc = io.groupoid_to_doc(g0)
    gdoc.pop("schema")
    return io.dumps({"schema": 1, "groupoid": gdoc, "modules": modules})


def _load_bundle(text):
    """Document text -> (groupoid, L(G), module docs), as the CLI loads."""
    _, cand, module_docs = io.load(json.loads(text))
    g0 = OrderedGroupoid.from_candidate(cand)
    return g0, lcat.build_lcat(g0), module_docs


# ---------------------------------------------------------- nerve_cyclic

NERVE_DEGREE = 3
# (m, coefficient ring, action); "tor" draws the order k from the seed.
# The slot types are fixed so that every seed does the same work; m = 6
# is one job because its profile alone takes seconds.
NERVE_SLOTS = ([(3, "Z", 1), (3, "tor", 1), (3, "Z/2", -1)] * 2
               + [(4, "Z", 1), (4, "Z", -1), (4, "tor", 1), (4, "tor", -1),
                  (4, "tor", 1), (4, "tor", -1)]
               + [(5, "tor", 1)] * 4
               + [(6, "Z", -1)])


def cyclic_closed_form(m, k, u, degree):
    """H_degree of Z/m with coefficients Z (k = 0) or Z/k, the generator
    acting by the unit u, from the two-periodic resolution: H_0 is
    A/(u-1)A, odd degrees ker(u-1)/NA and even positive degrees
    ker N/(u-1)A, where N = 1 + u + ... + u^(m-1)."""
    d = u - 1
    n = sum(u ** i for i in range(m))

    def cyclic(order):
        return (1, ()) if order == 0 else (0, (order,) if order > 1 else ())

    def subquotient(a, b):
        # ker(x a) / im(x b) inside A
        if k == 0:
            return cyclic(abs(b)) if a == 0 else (0, ())
        return cyclic(gcd(a, k) * gcd(b, k) // k)

    if degree == 0:
        return cyclic(gcd(d, k) if k else abs(d))
    if degree % 2:
        return subquotient(d, n)
    return subquotient(n, d)


def nerve_pick(rng):
    recipes = []
    for m, ring, unit in NERVE_SLOTS:
        if ring == "Z":
            k = 0
        elif ring == "Z/2":
            k = 2
        else:
            k = rng.randint(2, 7)
        recipes.append((None, (m, k, unit)))
    rng.shuffle(recipes)
    return recipes


def nerve_make(rng, params):
    m, k, unit = params
    rank = 0 if k else 1
    spec = fixtures.cyclic_module_spec(m, rank, [k] if k else [], unit)
    return Job(io.dumps(fixtures.cyclic_doc(m, {"a": spec})), params)


def nerve_run(text):
    g0, lc, module_docs = _load_bundle(text)
    module = io.build_module(g0, lc, module_docs["a"], base="/modules/a")
    return homology.homology_profile(lc.category, module, NERVE_DEGREE)


def nerve_check(meta, profile):
    m, k, u = meta
    want = [cyclic_closed_form(m, k, u, n) for n in range(NERVE_DEGREE + 1)]
    if list(profile) != want:
        raise CheckFailed("Z/%d, k=%d, u=%d: got %r, closed form %r"
                          % (m, k, u, profile, want))


def nerve_canonical(profile):
    return [[rank, list(torsion)] for rank, torsion in profile]


# ---------------------------------------------------------- theorem_random

THEOREM_DEGREES = [0, 1, 2]
THEOREM_JOBS = 60
THEOREM_IDENTITIES = 6
THEOREM_MAX_GROUP = 3
# accepted numbers of 3-chains and 2-chains in the nerve of L(G)
THEOREM_CHAINS_3 = (45, 55)
THEOREM_CHAINS_2 = (20, 26)


def lcat_chain_counts(g0, top):
    """Chains of non-identity morphisms of L(G) of each length 0..top,
    counted from the groupoid without building L(G): the morphism
    (e, g), d(g) <= e, goes from e to r(g)."""
    edges = [(e, g0.r[g]) for g in g0.arrows for e in g0.identities
             if g != e and g0.identity_poset.leq(g0.d[g], e)]
    ending = {o: 1 for o in g0.identities}
    counts = [len(ending)]
    for _ in range(top):
        step = dict.fromkeys(ending, 0)
        for src, dst in edges:
            step[dst] += ending[src]
        ending = step
        counts.append(sum(ending.values()))
    return counts


def theorem_pick(rng):
    recipes = []
    while len(recipes) < THEOREM_JOBS:
        state = rng.getstate()
        rog = randgen.random_og(rng, THEOREM_IDENTITIES, THEOREM_MAX_GROUP)
        counts = lcat_chain_counts(rog.groupoid, 3)
        if not (THEOREM_CHAINS_3[0] <= counts[3] <= THEOREM_CHAINS_3[1]
                and THEOREM_CHAINS_2[0] <= counts[2] <= THEOREM_CHAINS_2[1]):
            continue
        recipes.append((state, None))
        rng.setstate(state)
        theorem_make(rng, None)  # draws the module, as the rebuild will
    return recipes


def theorem_make(rng, params):
    rog = randgen.random_og(rng, THEOREM_IDENTITIES, THEOREM_MAX_GROUP)
    lc = lcat.build_lcat(rog.groupoid)
    module = randgen.random_module(rng, rog, lc)
    text = _workspace_text(
        rog.groupoid, {"m0": io.module_to_doc(rog.groupoid, module)})
    return Job(text, None)


def theorem_run(text):
    g0, lc, module_docs = _load_bundle(text)
    module = io.build_module(g0, lc, module_docs["m0"], base="/modules/m0")
    return homology.check_theorem(g0, lc, module, THEOREM_DEGREES)


def theorem_check(meta, report):
    if not report.ok:
        raise CheckFailed("theorem report differs: %r" % (report.rows,))


def theorem_canonical(report):
    return report.rows


# ---------------------------------------------------------- order_structure

# (directed, identities, max group, accepted estimated cost in seconds)
ORDER_SLOTS = ([(True, 12, 7, (0.045, 0.055))] * 18
               + [(False, 10, 8, (0.012, 0.030))] * 14)


def order_cost(g0, directed):
    """Estimated seconds for one order_structure job on g0, from the
    sizes of its main loops: composable pairs of L(G) times its
    morphisms (the category check), beta-related pairs times arrows
    (the transitivity scan), composable arrow pairs times arrows
    (associativity) and squared order pairs (OG2).  The weights were
    fitted by least squares on a few hundred generated instances; the
    estimate only keeps the job sizes of different seeds alike and is
    independent of how fast the library runs."""
    ids, arrows = g0.identities, g0.arrows
    leq = g0.identity_poset.leq
    above = {e: sum(1 for f in ids if leq(e, f)) for e in ids}
    nmorph = sum(above[g0.d[g]] for g in arrows)
    out_deg = {o: sum(1 for g in arrows if leq(g0.d[g], o)) for o in ids}
    in_deg = dict.fromkeys(ids, 0)
    starts = dict.fromkeys(ids, 0)
    ends = dict.fromkeys(ids, 0)
    for g in arrows:
        in_deg[g0.r[g]] += above[g0.d[g]]
        starts[g0.d[g]] += 1
        ends[g0.r[g]] += 1
    lcat_pairs = sum(in_deg[o] * out_deg[o] for o in ids)
    arrow_pairs = sum(ends[o] * starts[o] for o in ids)
    bit = {a: 1 << i for i, a in enumerate(arrows)}
    up_mask = dict.fromkeys(arrows, 0)
    for lo, hi in g0.order.pairs():
        up_mask[lo] |= bit[hi]
    related = 0
    for g in arrows:
        mask = 0
        for k in g0.principal_ideal(g):
            mask |= up_mask[k]
        related += bin(mask).count("1")
    a, pairs = len(arrows), len(g0.order.pairs())
    if directed:
        micro = (0.18 * lcat_pairs * nmorph + 0.52 * related * a
                 + 0.81 * arrow_pairs * a + 0.57 * pairs * pairs)
    else:
        micro = (0.24 * lcat_pairs * nmorph + 0.68 * related * a
                 + 0.94 * arrow_pairs * a)
    return micro * 1e-6


def order_pick(rng):
    recipes = []
    for directed, n, max_group, (lo, hi) in ORDER_SLOTS:
        while True:
            state = rng.getstate()
            g0 = randgen.random_og(rng, n, max_group, directed).groupoid
            if lo <= order_cost(g0, directed) <= hi:
                break
        recipes.append((state, (directed, n, max_group)))
    rng.shuffle(recipes)
    return recipes


def order_make(rng, params):
    directed, n, max_group = params
    g0 = randgen.random_og(rng, n, max_group, directed).groupoid
    return Job(io.dumps(io.groupoid_to_doc(g0)), directed)


def order_run(text):
    _, cand, _ = io.load(json.loads(text))
    report = groupoid.validate(cand)
    g0 = OrderedGroupoid(cand, report)
    lc = lcat.build_lcat(g0)
    left_ok, _ = lc.category.left_cancellative()
    directed, counterexample = beta.is_principally_directed(g0)
    out = {"valid": report.ok, "left_cancellative": left_ok,
           "directed": directed, "counterexample": counterexample,
           "quotient": None, "refusal": None}
    try:
        out["quotient"] = io.dumps(io.quotient_to_doc(beta.quotient(g0)))
    except errors.NotPrincipallyDirected as exc:
        out["refusal"] = exc.counterexample
    return out


def order_check(directed_mode, out):
    if not out["valid"]:
        raise CheckFailed("generated groupoid fails validation")
    if not out["left_cancellative"]:
        raise CheckFailed("L(G) is not left cancellative")
    if directed_mode and not out["directed"]:
        raise CheckFailed("directed-mode instance judged not directed")
    if out["directed"] != (out["quotient"] is not None):
        raise CheckFailed("quotient verdict disagrees with directedness")
    if not out["directed"] and out["refusal"] != out["counterexample"]:
        raise CheckFailed("refusal carries another counterexample")


def order_canonical(out):
    return json.loads(json.dumps(out))


# ---------------------------------------------------------- snf_dense

SNF_SIZES = [20, 24, 28, 30, 32, 36, 40]
SNF_SPAN = 50


def snf_pick(rng):
    recipes = []
    for n in SNF_SIZES:
        recipes.append((rng.getstate(), n))
        snf_make(rng, n)
    rng.shuffle(recipes)
    return recipes


def snf_make(rng, n):
    rows = [[rng.randint(-SNF_SPAN, SNF_SPAN) for _ in range(n)]
            for _ in range(n)]
    return Job(rows, rows)


def snf_run(rows):
    m = ZMatrix(rows)
    form = FgAbGroup(m.nrows, m).canonical_form()
    return form, zmodule.snf(m)


def snf_check(rows, out):
    form, res = out
    m = ZMatrix(rows)
    if res.u.mul(m).mul(res.v) != res.s:
        raise CheckFailed("U M V != S")
    for t, tinv in ((res.u, res.uinv), (res.v, res.vinv)):
        if t.mul(tinv) != ZMatrix.identity(t.nrows):
            raise CheckFailed("transform times its inverse is not I")
    s = res.s.rows
    diag = res.diagonal
    for i, row in enumerate(s):
        for j, v in enumerate(row):
            if i != j and v:
                raise CheckFailed("S has an off-diagonal entry")
    if any(d < 0 for d in diag):
        raise CheckFailed("S has a negative diagonal entry")
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a and b % a):
            raise CheckFailed("diagonal breaks the divisibility chain")
    want = (sum(1 for d in diag if d == 0), tuple(d for d in diag if d > 1))
    if form != want:
        raise CheckFailed("canonical form %r, SNF diagonal gives %r"
                          % (form, want))


def snf_canonical(out):
    form, res = out
    return {"form": [form[0], list(form[1])], "diagonal": list(res.diagonal)}


def snf_fingerprint(out):
    # the transforms are part of the checked answer but not of the
    # canonical one (another correct SNF may pick other transforms)
    form, res = out
    return hash((form, res.s, res.u, res.v, res.uinv, res.vinv))


# Why each workload exists is recorded in BENCHMARK.json; the second
# field is the nearest-rank percentile, over the jobs' mean times,
# reported as job_tail_s.
WORKLOADS = {w.name: w for w in [
    Workload("nerve_cyclic", 80, nerve_pick, nerve_make, nerve_run,
             nerve_check, nerve_canonical,
             _canonical_digest(nerve_canonical)),
    Workload("theorem_random", 83, theorem_pick, theorem_make, theorem_run,
             theorem_check, theorem_canonical,
             _canonical_digest(theorem_canonical)),
    Workload("order_structure", 68, order_pick, order_make, order_run,
             order_check, order_canonical,
             _canonical_digest(order_canonical)),
    Workload("snf_dense", 70, snf_pick, snf_make, snf_run, snf_check,
             snf_canonical, snf_fingerprint),
]}


def recipes(name, seed):
    """The accepted draws of a workload's sampler for a seed."""
    return WORKLOADS[name].pick(random.Random("%s:%d" % (name, seed)))


def build(workload, recipes):
    """Rebuild and serialise the jobs that a list of recipes names."""
    rng = random.Random()
    jobs = []
    for state, params in recipes:
        if state is not None:
            rng.setstate(state)
        jobs.append(workload.make(rng, params))
    return jobs


def jobs(name, seed):
    """The job list of a workload for a seed."""
    return build(WORKLOADS[name], recipes(name, seed))
