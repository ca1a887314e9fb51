"""The benchmark's trace hooks must still fit the library.

`perfbench/tracing.py` wraps the functions named in its TARGETS and
reads the degree of a `homology` call from its third positional
argument.  A rename or a signature change in `src/oghom` would break
`perfbench/run.py --trace 1` without failing any library test, so the
hook table is read here (loaded, never installed) and checked against
the package, and the nerve counter is run on a real complex.  The
degree spans also need `homology_profile` to call `homology` once per
degree, with the degree in that place, on the group path too.
"""

import importlib
import importlib.util
import inspect
import os
from collections import defaultdict
from types import SimpleNamespace

from oghom import fixtures
from oghom.homology import nerve_complex

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    targets = load_tracing().TARGETS
    assert targets
    for modname, attr, _, _ in targets:
        owner = importlib.import_module(modname)
        if "." in attr:
            # methods are wrapped through the class __dict__
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), (modname, attr)
        else:
            assert callable(getattr(owner, attr, None)), (modname, attr)


def test_homology_degree_is_the_third_positional_parameter():
    homology = importlib.import_module("oghom.homology")
    params = list(inspect.signature(homology.homology).parameters.values())
    assert params[2].name == "n"
    assert params[2].kind == inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_nerve_counter_reads_the_sparse_complex():
    # whatever view of the complex the counter reads, its counts must
    # be those of the sparse form the library keeps
    bundle = fixtures.load("cyclic3")
    cx = nerve_complex(bundle.lc.category, bundle.modules["const"], 3)
    tracer = SimpleNamespace(counts=defaultdict(int))
    load_tracing()._count_nerve(tracer, (), {}, cx)
    assert [tracer.counts["homology.chain_rank.d%d" % n]
            for n in range(4)] == cx.ngens == [1, 2, 4, 8]
    assert [tracer.counts["homology.boundary_nnz.d%d" % n]
            for n in range(1, 4)] == [
        sum(1 for col in cx.columns[n] for v in col.values() if v)
        for n in range(1, 4)]


def test_group_profile_calls_homology_once_per_degree(monkeypatch):
    hom = importlib.import_module("oghom.homology")
    real, degrees = hom.homology, []

    def spy(*args, **kwargs):
        degrees.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(hom, "homology", spy)
    bundle = fixtures.load("cyclic3")
    cat = bundle.lc.category
    assert cat.is_group()
    hom.homology_profile(cat, bundle.modules["const"], 3)
    assert degrees == [0, 1, 2, 3]
