"""Record the per-job output digests for the default and held-out seeds.

    python3 perfbench/record_digests.py

Runs every job of every workload once for both seeds through the
runner's checker, which checks each output in full, and writes
``perfbench/expected.json``.  Runs of those seeds then compare every
job's canonical output with the recorded digest.  Re-record only when an
intended change alters a canonical answer, and say why in the change.
"""

import json
import sys

import run


def main():
    sys.path.insert(0, str(run.SRC))
    sys.path.insert(0, str(run.HERE))
    import workloads
    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        recorded[name] = {}
        for seed in (run.DEFAULT_SEED, run.HELDOUT_SEED):
            jobs = workloads.jobs(name, seed)
            checker = run.Checker(workload, jobs, None)
            checker.round(run.run_round(workload, jobs)[2])
            if checker.failures:
                sys.stderr.write("%s seed %d: %s\n"
                                 % (name, seed, checker.failures[0]))
                return 1
            recorded[name][str(seed)] = checker.digests
            print("%s seed %d: %d jobs" % (name, seed, len(jobs)), flush=True)
    run.EXPECTED.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
