"""The benchmark's own checks must be live: wrong answers count as failures.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from oghom.zmodule import ZMatrix  # noqa: E402


def small_jobs(name, count):
    """The cheapest few jobs of a workload, by input size."""
    jobs = W.jobs(name, run.DEFAULT_SEED)
    return sorted(jobs, key=lambda j: len(str(j.input)))[:count]


def test_closed_form_matches_known_groups():
    # H_*(Z/2; Z) = Z, Z/2, 0, Z/2; the sign action on Z shifts it
    assert [W.cyclic_closed_form(2, 0, 1, n) for n in range(4)] == [
        (1, ()), (0, (2,)), (0, ()), (0, (2,))]
    assert [W.cyclic_closed_form(4, 0, -1, n) for n in range(4)] == [
        (0, (2,)), (0, ()), (0, (2,)), (0, ())]
    assert W.cyclic_closed_form(6, 4, 1, 2) == (0, (2,))


def test_nerve_wrong_expected_answer_fails():
    job = small_jobs("nerve_cyclic", 1)[0]
    profile = W.nerve_run(job.input)
    W.nerve_check(job.meta, profile)
    m, k, u = job.meta
    with pytest.raises(W.CheckFailed):
        W.nerve_check((m + 1, k, u), profile)
    tampered = list(profile)
    tampered[0] = (tampered[0][0] + 1, tampered[0][1])
    with pytest.raises(W.CheckFailed):
        W.nerve_check(job.meta, tampered)


def test_snf_tampered_results_fail():
    rng = random.Random(5)
    rows = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
    form, res = W.snf_run(rows)
    W.snf_check(rows, (form, res))

    def with_entry(mat, i, j, delta):
        grid = [list(r) for r in mat.rows]
        grid[i][j] += delta
        return ZMatrix(grid)

    for field in ("s", "u", "v", "uinv", "vinv"):
        bad = W.zmodule.SNFResult(res.s, res.u, res.v, res.uinv, res.vinv)
        setattr(bad, field, with_entry(getattr(res, field), 0, 1, 1))
        with pytest.raises(W.CheckFailed):
            W.snf_check(rows, (form, bad))
    with pytest.raises(W.CheckFailed):
        W.snf_check(rows, ((form[0] + 1, form[1]), res))
    # a diagonal that breaks divisibility, with consistent transforms
    eye = ZMatrix.identity(2)
    s = ZMatrix([[2, 0], [0, 3]])
    bad = W.zmodule.SNFResult(s, eye, eye, eye, eye)
    with pytest.raises(W.CheckFailed):
        W.snf_check([[2, 0], [0, 3]], ((0, (6,)), bad))


def test_theorem_and_order_checks_reject_wrong_verdicts():
    job = small_jobs("theorem_random", 1)[0]
    report = W.theorem_run(job.input)
    W.theorem_check(job.meta, report)
    report.rows[0]["equal"] = False
    with pytest.raises(W.CheckFailed):
        W.theorem_check(job.meta, report)

    directed = [j for j in small_jobs("order_structure", 32) if j.meta][:1]
    out = W.order_run(directed[0].input)
    W.order_check(True, out)
    for key, value in (("valid", False), ("left_cancellative", False),
                       ("directed", False), ("quotient", None)):
        bad = dict(out, **{key: value})
        with pytest.raises(W.CheckFailed):
            W.order_check(True, bad)


def test_checker_counts_failures_and_digest_mismatch():
    workload = W.WORKLOADS["nerve_cyclic"]
    jobs = small_jobs("nerve_cyclic", 3)
    outs = [(workload.run(j.input), None) for j in jobs]
    good = [W.digest(workload.canonical(o)) for o, _ in outs]

    checker = run.Checker(workload, jobs, good)
    checker.round(outs)
    checker.round(outs)
    assert (checker.attempted, checker.failures) == (6, [])
    assert checker.digests == good

    wrong = ["0" * 16] + good[1:]
    checker = run.Checker(workload, jobs, wrong)
    checker.round(outs)
    assert len(checker.failures) == 1 and "recorded" in checker.failures[0]

    checker = run.Checker(workload, jobs, None)
    checker.round(outs)
    changed = [(list(outs[0][0])[:-1] + [(9, ())], None)] + outs[1:]
    checker.round(changed)
    checker.round([(None, "Traceback ...")] + outs[1:])
    assert len(checker.failures) == 2


def test_recorded_digests_cover_both_seeds():
    recorded = json.loads(run.EXPECTED.read_text())
    for name in W.WORKLOADS:
        for seed in (run.DEFAULT_SEED, run.HELDOUT_SEED):
            assert len(recorded[name][str(seed)]) == len(W.jobs(name, seed))


def test_inputs_depend_only_on_the_seed():
    assert W.jobs("snf_dense", 7) == W.jobs("snf_dense", 7)
    assert W.jobs("snf_dense", 7) != W.jobs("snf_dense", 8)


def test_rebuilt_jobs_equal_the_sampled_ones():
    # the sampler keeps the generator state before each accepted draw;
    # rebuilding from it must give the instance the sampler accepted
    recipes = W.recipes("theorem_random", 3)[:4]
    rng = random.Random("theorem_random:3")
    first = []
    while len(first) < 4:
        rog = W.randgen.random_og(rng, W.THEOREM_IDENTITIES,
                                  W.THEOREM_MAX_GROUP)
        counts = W.lcat_chain_counts(rog.groupoid, 3)
        if (W.THEOREM_CHAINS_3[0] <= counts[3] <= W.THEOREM_CHAINS_3[1]
                and W.THEOREM_CHAINS_2[0] <= counts[2]
                <= W.THEOREM_CHAINS_2[1]):
            module = W.randgen.random_module(
                rng, rog, W.lcat.build_lcat(rog.groupoid))
            first.append((rog.groupoid, module))
    rebuilt = W.build(W.WORKLOADS["theorem_random"], recipes)
    for (g0, module), job in zip(first, rebuilt):
        assert job.input == W._workspace_text(
            g0, {"m0": W.io.module_to_doc(g0, module)})


def test_tracer_restores_every_binding_and_counts_repeat():
    import oghom
    hom = sys.modules["oghom.homology"]
    before = (hom.homology_at, oghom.snf, W.zmodule.snf,
              W.zmodule.ColumnSolver.__dict__["solve_matrix"])
    workload = W.WORKLOADS["theorem_random"]
    jobs = small_jobs("theorem_random", 4)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            assert hom.homology_at is not before[0]
            assert oghom.snf is W.zmodule.snf is not before[1]
            for i, job in enumerate(jobs):
                tracer.job = i
                workload.run(job.input)
        counts.append(dict(tracer.counts))
    after = (hom.homology_at, oghom.snf, W.zmodule.snf,
             W.zmodule.ColumnSolver.__dict__["solve_matrix"])
    assert after == before
    assert counts[0] == counts[1] and counts[0]["zmodule.snf_calls"] > 0

    by_name, by_layer, by_degree, roots = tracing.summarize(tracer.spans)
    assert abs(sum(by_layer.values()) - roots) < 1e-9
    assert set(by_layer) <= set(tracing.LAYERS)
    assert by_degree[2] >= by_name["homology.h2"]


def test_degree_time_takes_in_the_lazy_canonical_form():
    workload = W.WORKLOADS["nerve_cyclic"]
    job = small_jobs("nerve_cyclic", 1)[0]
    tracer = tracing.Tracer()
    with tracer:
        workload.run(job.input)
    spans = tracer.spans
    forms = [s for s in spans if s[0] == "zmodule.canonical_orders"]
    # homology_profile takes each H_n's canonical form after homology(n)
    # returns; those calls sit outside the homology spans
    tagged = [s for s in forms if s[5] is not None and s[3] is None]
    assert sorted({s[5] for s in tagged}) == [0, 1, 2, 3]
    by_name, _, by_degree, _ = tracing.summarize(spans)
    for n in range(4):
        inside = sum(s[2] - s[1] for s in spans
                     if s[0] == "homology.h%d" % n)
        after = sum(s[2] - s[1] for s in tagged if s[5] == n)
        assert abs(by_degree[n] - inside - after) < 1e-9


def test_hook_time_is_not_charged_to_open_spans():
    calls = []

    def slow_hook(tracer, args, kwargs, result):
        time.sleep(0.05)
        calls.append(result)

    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda: 1, "zmodule.inner", slow_hook)
    outer = tracer._wrap(lambda: inner() + inner(), "homology.outer", None)
    t0 = tracer.now()
    assert outer() == 2
    elapsed = tracer.now() - t0
    assert len(calls) == 2 and tracer.paused >= 0.1
    by_name, _, _, roots = tracing.summarize(tracer.spans)
    assert by_name["homology.outer"] < 0.01 and elapsed < 0.01


def test_nearest_rank():
    values = list(range(1, 101))
    assert run.nearest_rank(values, 95) == (95, 5)
    assert run.nearest_rank(values, 80) == (80, 20)
    assert run.nearest_rank([3.0], 99) == (3.0, 0)


def test_host_probe_runs_before_each_job_outside_its_time():
    workload = W.WORKLOADS["snf_dense"]
    jobs = small_jobs("snf_dense", 2)
    probes = []
    batch, times, _ = run.run_round(workload, jobs, probes=probes)
    assert len(probes) == len(jobs) and min(probes) > 0
    assert batch == sum(times)
