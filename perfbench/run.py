"""Benchmark runner for oghom.

    python3 perfbench/run.py --workload nerve_cyclic --seed 1 --trace 0
    python3 perfbench/run.py                 # every workload, one child each

Imports the code under test from ``src/`` next to this directory, so two
checkouts are measured with identical benchmark code.  Each workload is
a closed loop in one thread: a round runs the seeded job list once, one
job at a time, and rounds repeat until ``--seconds`` (by default
``run_seconds`` of BENCHMARK.json) is used up.  Output checks run after
each round, outside every timer.  ``batch_s`` is the mean round time
and ``job_p50_s`` the median over jobs of each job's mean time, all
scaled to the nominal speed of a probe that runs between jobs.  With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced rounds alternate and the per-layer metrics, in
unscaled seconds, come from the traced round of median length.
The last line of standard output is one JSON object; a per-run record
goes to ``perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
HELDOUT_SEED = 2
SETUP_REPEATS = 5
MIN_TRACED_ROUNDS = 2
PROBE_STEPS = 1500
SETUP_PROBES = 20
# The probe's mean time on the host the baseline was measured on.
PROBE_NOMINAL_S = 0.0007

IMPORT_PROBE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import oghom, oghom.fixtures, oghom.io, oghom.randgen
print(time.perf_counter() - t)
"""

END_TO_END_UNITS = {"batch_s": "s", "job_p50_s": "s", "job_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def nearest_rank(sorted_values, pct):
    """Value at the nearest-rank percentile and how many lie beyond it."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1], len(sorted_values) - int(rank)


def import_seconds():
    """Import time of the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=60,
                         check=True)
    return float(out.stdout.strip())


def host_probe():
    """Time a fixed piece of interpreter work that belongs to the
    benchmark, never to the library: dict updates and big-integer row
    operations, the kind of work the jobs do."""
    t0 = time.perf_counter()
    x, acc = 1, {}
    for i in range(PROBE_STEPS):
        x = (x * 1103515245 + 12345) % (1 << 61)
        acc[i & 63] = acc.get(i & 63, 0) + (x >> 40)
    rows = [[(i * j) % 97 - 48 for j in range(8)] for i in range(8)]
    for k in range(7):
        p = rows[k][k] or 1
        for r in range(k + 1, 8):
            f = rows[r][k]
            rows[r] = [p * u - f * v for u, v in zip(rows[r], rows[k])]
    return time.perf_counter() - t0


def setup(workload, seed):
    """Run the workload's sampler once, untimed, then import the package
    and rebuild and serialise the sampled job list SETUP_REPEATS times;
    the inputs must come out identical every time."""
    import workloads
    recipes = workloads.recipes(workload.name, seed)
    times = []
    probes = []
    jobs = None
    for _ in range(SETUP_REPEATS):
        probes.extend(host_probe() for _ in range(SETUP_PROBES))
        imp = import_seconds()
        t0 = time.perf_counter()
        made = workloads.build(workload, recipes)
        gen = time.perf_counter() - t0
        if jobs is not None and made != jobs:
            raise RuntimeError("input generation is not deterministic")
        jobs = made
        times.append(imp + gen)
    return jobs, times, probes


class Checker:
    """Checks every job output after its round and counts failures.

    An output is checked in full the first time; on later rounds it must
    reproduce the fingerprint of that checked output exactly, which
    proves the same answer without repeating costly checks."""

    def __init__(self, workload, jobs, expected):
        self.workload = workload
        self.jobs = jobs
        self.expected = expected
        self.digests = [None] * len(jobs)
        self.seen = [None] * len(jobs)
        self.attempted = 0
        self.failures = []

    def _fail(self, index, message):
        self.failures.append("job %d: %s" % (index, message))

    def round(self, results):
        import workloads
        for i, (out, error) in enumerate(results):
            self.attempted += 1
            if error is not None:
                self._fail(i, "raised " + error)
                continue
            if self.seen[i] is not None:
                if self.workload.fingerprint(out) != self.seen[i]:
                    self._fail(i, "output differs from the checked one")
                continue
            try:
                self.workload.check(self.jobs[i].meta, out)
            except workloads.CheckFailed as exc:
                self._fail(i, str(exc))
                continue
            got = workloads.digest(self.workload.canonical(out))
            self.digests[i] = got
            if self.expected is not None and got != self.expected[i]:
                self._fail(i, "digest %s, recorded %s"
                           % (got, self.expected[i]))
                continue
            self.seen[i] = self.workload.fingerprint(out)


def run_round(workload, jobs, tracer=None, probes=None):
    """Run the job list once.  With a ``probes`` list, the host probe runs
    before each job, outside its time, and the round's time is the sum of
    the job times."""
    times = []
    results = []
    clock = time.perf_counter if tracer is None else tracer.now
    t0 = clock()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        if probes is not None:
            probes.append(host_probe())
        start = clock()
        try:
            results.append((workload.run(job.input), None))
        except Exception:  # a failed job is counted, the run goes on
            results.append((None, traceback.format_exc(limit=3)))
        times.append(clock() - start)
    batch = clock() - t0 if probes is None else sum(times)
    return batch, times, results


def layer_metrics(tracer_mod, spans, offset, counts, batch, njobs,
                  doc_bytes):
    by_name, by_layer, by_degree, roots = tracer_mod.summarize(spans, offset)
    out = {}
    for name in tracer_mod.SELF_TIME_SPANS:
        out[name + "_s"] = (by_name.get(name, 0.0), "s")
    for n in range(tracer_mod.MAX_DEGREE):
        out["homology.h%d_s" % n] = (by_degree.get(n, 0.0), "s")
    for layer in tracer_mod.LAYERS:
        out[layer + ".self_s"] = (by_layer.get(layer, 0.0), "s")
    for name, unit in tracer_mod.COUNTERS.items():
        out[name] = (counts.get(name, 0), unit)
    out["beta.directedness_calls"] = (
        counts.get("beta.directedness_calls", 0) / njobs, "calls/job")
    out["io.doc_bytes"] = (doc_bytes, "bytes")
    out["bench.traced_batch_s"] = (batch, "s")
    out["bench.other_s"] = (batch - roots, "s")
    return out


def measure(workload, jobs, checker, seconds, trace):
    """Run rounds until the time is used; return untraced round and job
    times plus, when tracing, the per-layer metrics."""
    import tracing as tracer_mod
    plain_rounds, plain_jobs = [], []
    traced = []  # (batch, span offset, span end, counts)
    tracer = tracer_mod.Tracer() if trace else None
    doc_bytes = sum(len(j.input.encode()) for j in jobs
                    if isinstance(j.input, str))
    probes = []
    start = time.perf_counter()
    spent = []
    while True:
        t0 = time.perf_counter()
        if trace and len(plain_rounds) > len(traced):
            tracer.reset_round()
            lo = len(tracer.spans)
            with tracer:
                batch, _, results = run_round(workload, jobs, tracer)
            traced.append((batch, lo, len(tracer.spans), dict(tracer.counts)))
        else:
            batch, times, results = run_round(workload, jobs, probes=probes)
            plain_rounds.append(batch)
            plain_jobs.append(times)
        checker.round(results)
        spent.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        enough = not trace or len(traced) >= MIN_TRACED_ROUNDS
        if enough and elapsed + statistics.median(spent) > seconds:
            break
    layers = None
    if trace:
        counts = [c for _, _, _, c in traced]
        if any(c != counts[0] for c in counts):
            checker.failures.append("counters differ between traced rounds")
        order = sorted(range(len(traced)), key=lambda i: traced[i][0])
        batch, lo, hi, cnt = traced[order[(len(order) - 1) // 2]]
        layers = layer_metrics(tracer_mod, tracer.spans[lo:hi], lo, cnt,
                               batch, len(jobs), doc_bytes)
        overhead = (statistics.fmean(t[0] for t in traced)
                    - statistics.fmean(plain_rounds))
        layers["bench.trace_overhead_s"] = (overhead, "s")
    return (plain_rounds, plain_jobs, probes, layers, tracer,
            [t[0] for t in traced])


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "oghom").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def write_record(args, record, tracer):
    RESULTS.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%f")
    base = RESULTS / ("%s-seed%d-trace%d-%s" % (args.workload, args.seed,
                                                args.trace, stamp))
    base.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        spans = [[n, round(s - origin, 7), round(e - origin, 7), p, j, d]
                 for n, s, e, p, j, d in tracer.spans]
        base.with_suffix(".spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "job", "degree"],
             "spans": spans}, separators=(",", ":")) + "\n")
    return base.with_suffix(".json")


def run_workload(args):
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    jobs, setup_times, setup_probes = setup(workload, args.seed)
    expected = None
    if EXPECTED.is_file():
        recorded = json.loads(EXPECTED.read_text())
        expected = recorded.get(workload.name, {}).get(str(args.seed))
    checker = Checker(workload, jobs, expected)
    rounds, job_times, probes, layers, tracer, traced_rounds = measure(
        workload, jobs, checker, args.seconds, args.trace)

    # A shared host runs the same job up to 1.6 times slower for tens of
    # seconds at a time, at times for longer than a run.  The probe runs
    # before every job and at set-up and slows down with the jobs, so the
    # times are scaled to the probe's nominal speed; the raw times are
    # kept in the record.
    scale = PROBE_NOMINAL_S / statistics.fmean(probes)
    setup_scale = PROBE_NOMINAL_S / statistics.fmean(setup_probes)
    per_job = sorted(statistics.fmean(times) for times in zip(*job_times))
    tail, beyond = nearest_rank(per_job, workload.tail_pct)
    raw = {
        "batch_s": statistics.fmean(rounds),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail,
        "setup_s": statistics.median(setup_times),
    }
    end_to_end = {name: value * (setup_scale if name == "setup_s" else scale)
                  for name, value in raw.items()}
    end_to_end["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len(checker.failures)
    attempted = checker.attempted
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end.items()}

    record = {
        "workload": workload.name, "seed": args.seed,
        "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED,
        "trace": args.trace, "seconds": args.seconds,
        "machine": {"platform": platform.platform(),
                    "machine": platform.machine(),
                    "processor": platform.processor(),
                    "nproc": len(os.sched_getaffinity(0)),
                    "cpu_count": os.cpu_count()},
        "python": platform.python_version(),
        "commit": commit(), "src_digest": source_digest(),
        "jobs_per_round": len(jobs), "rounds": rounds,
        "traced_rounds": traced_rounds,
        "setup_s_samples": setup_times,
        "tail_percentile": workload.tail_pct, "jobs_beyond_tail": beyond,
        "raw_s": raw, "scale": scale, "setup_scale": setup_scale,
        "probe_mean_s": statistics.fmean(probes), "probes": len(probes),
        "fail_rate": failed / attempted if attempted else 1.0,
        "failures": checker.failures[:20],
        "digests_recorded": expected is not None,
        "end_to_end": end_to_end, "metrics": metrics,
    }
    path = write_record(args, record, tracer)

    print("workload %s  seed %d  rounds %d  jobs/round %d  record %s"
          % (workload.name, args.seed, len(rounds), len(jobs),
             path.relative_to(ROOT)))
    for name, value in sorted(end_to_end.items()):
        print("  %-12s %14.6f %s" % (name, value, END_TO_END_UNITS[name]))
    print("  %-12s %14.6f ratio  (%d of %d jobs)"
          % ("fail_rate", record["fail_rate"], failed, attempted))
    print("  job_tail_s is p%g with %d of %d jobs beyond it; times scaled "
          "by %.4f (set-up %.4f)" % (workload.tail_pct, beyond, len(per_job),
                                     scale, setup_scale))
    if layers:
        for name, (value, unit) in sorted(layers.items()):
            print("  %-34s %16.6f %s" % (name, value, unit))
    for message in checker.failures[:5]:
        print("  FAILED " + message)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args):
    import workloads
    merged = {}
    correct, attempted, failed = True, 0, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, capture_output=True, text=True,
                               timeout=600)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode not in (0, 1) or not lines:
            sys.stderr.write(child.stderr)
            return 2
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            merged["%s.%s" % (name, metric)] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return 0 if correct else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "oghom" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no package at %s; run from a checkout "
                         "of the repository\n" % (SRC / "oghom"))
        return 2
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("perfbench: unknown workload %r (have: %s)\n"
                         % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
