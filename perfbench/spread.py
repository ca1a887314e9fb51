"""Run-to-run spread of the end-to-end metrics over ten runs.

    python3 perfbench/spread.py --workload snf_dense --first-seed 100
    python3 perfbench/spread.py --workload snf_dense --repeat-seed 1

Runs the benchmark ten times, one run at a time, either once per seed
from ``--first-seed`` on or ten times on the one ``--repeat-seed`` (which
separates the host's noise from the inputs' variation), and prints for
every metric the median and the distance between the first and third
quartiles as a share of the median, as ``statistics.quantiles(values,
n=4)`` gives them, marked where it exceeds the metric's bound in
BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BENCHMARK = HERE.parent / "BENCHMARK.json"
RUNS = 10


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--first-seed", type=int, default=100)
    group.add_argument("--repeat-seed", type=int)
    args = p.parse_args(argv)
    if args.repeat_seed is not None:
        seeds = [args.repeat_seed] * RUNS
    else:
        seeds = list(range(args.first_seed, args.first_seed + RUNS))
    bounds = {m["name"]: m["bound"]
              for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    values = {}
    for seed in seeds:
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: incorrect result\n%s" % (seed, out.stdout))
            return 1
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            row.append("%s=%.4f" % (name, metric["value"]))
        print("seed %d: %s wall=%.1f" % (seed, " ".join(row), wall),
              flush=True)
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        over = spread > bounds[name] and name != "setup_s"
        print("%-12s median %.5f  spread %.3f  bound %.2f%s"
              % (name, statistics.median(vals), spread, bounds[name],
                 "  OVER" if over else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
