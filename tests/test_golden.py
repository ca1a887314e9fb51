"""Golden CLI outputs: every recorded run must reproduce byte for byte.

Each file under tests/golden/ holds, for one input, the exit code,
stdout and stderr of every command run on it with --json.  The inputs
are the built-in fixtures and a few seeded `oghom gen` instances (the
generated document is itself one of the recorded outputs).  A refactor
that changes a verdict, a witness, a canonical form or the JSON layout
shows up here as a diff.

To re-record after an intended output change:

    PYTHONPATH=src python -m tests.test_golden
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from oghom import fixtures
from oghom.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

FIXTURE_COMMANDS = [
    ["validate"], ["beta"], ["quotient"], ["lcat"], ["colim"], ["homology"],
    ["check", "adjunction"], ["check", "colim-composition"],
    ["check", "theorem"],
]
MODULE_COMMANDS = [
    ["beta"], ["quotient"], ["lcat"], ["colim"], ["homology"],
    ["check", "theorem"],
]
FREE_COMMANDS = [["beta"], ["quotient"], ["lcat"]]

# name -> (gen options, commands); the free instances include both
# principally directed ones and ones whose quotient is refused
GEN_CASES = {
    "gen-s2": (["--seed", "2", "--module"], MODULE_COMMANDS),
    "gen-s5": (["--seed", "5", "--module"], MODULE_COMMANDS),
    "gen-s10": (["--seed", "10", "--module"], MODULE_COMMANDS),
    "gen-free-i4-s3": (["--seed", "3", "--identities", "4", "--free"],
                       FREE_COMMANDS),
    "gen-free-i5-s1": (["--seed", "1", "--identities", "5", "--free"],
                       FREE_COMMANDS),
    "gen-free-i5-s2": (["--seed", "2", "--identities", "5", "--free"],
                       FREE_COMMANDS),
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _with_input(command, path):
    return command + [path, "--json"]


def run_case(name, tmp_dir):
    """All runs for one golden input, in recording order."""
    if name in GEN_CASES:
        options, commands = GEN_CASES[name]
        gen = run_cli(["gen"] + options + ["--json"])
        path = os.path.join(tmp_dir, name + ".json")
        with open(path, "w") as fh:
            fh.write(gen["stdout"])
        runs = [gen] + [run_cli(_with_input(c, path)) for c in commands]
        for r in runs[1:]:
            r["argv"] = [name if a == path else a for a in r["argv"]]
        return runs
    return [run_cli(_with_input(c, name)) for c in FIXTURE_COMMANDS]


def case_names():
    return fixtures.names() + sorted(GEN_CASES)


def golden_path(name):
    return os.path.join(GOLDEN_DIR, name + ".json")


@pytest.mark.parametrize("name", case_names())
def test_golden(name, tmp_path):
    with open(golden_path(name)) as fh:
        expected = json.load(fh)
    got = run_case(name, str(tmp_path))
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for g, e in zip(got, expected):
        assert g == e, "output of %s changed" % " ".join(e["argv"])


def record():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in case_names():
            with open(golden_path(name), "w") as fh:
                json.dump(run_case(name, tmp), fh, indent=1, sort_keys=True)
                fh.write("\n")


if __name__ == "__main__":
    record()
