"""Spans and counters recorded around the library's public functions.

Nothing inside ``src/oghom`` is instrumented.  ``Tracer.install`` wraps
each function listed in ``TARGETS`` and rebinds the wrapper under every
name that a loaded ``oghom`` module bound to the original (``from .x
import f`` copies the reference, so patching only the defining module
would miss calls made from other modules).  ``Tracer.uninstall`` puts
every original back.

A span is ``(name, start, end, parent index, job index, degree)``;
spans are kept in memory and written out by the runner at the end.  A
span's self time is its duration minus the durations of its direct
children.  Times are read from ``Tracer.now``, a clock that stops while
a counter hook runs: hooks walk returned matrices, and that benchmark
work must not be charged to the span that is still open around them.

``degree`` is n for a ``homology(n)`` span, and for the later lazy
Smith normal form of a group that such a call returned (the span of
``FgAbGroup.canonical_orders``, which ``canonical_form`` calls): H_n's
time is ``homology(n)`` plus the canonical form of its answer.
"""

import sys
import time
from collections import defaultdict

LAYERS = ("io", "groupoid", "lcat", "category", "beta", "gmodules",
          "homology", "zmodule")
MAX_DEGREE = 4


def _count_validate(tracer, args, kwargs, result):
    counts = tracer.counts
    cand = args[0]
    counts["groupoid.arrows"] += len(cand.arrows)
    counts["groupoid.order_pairs"] += len(cand.order_pairs)


def _count_lcat(tracer, args, kwargs, result):
    counts = tracer.counts
    cat = result.category
    out_deg = defaultdict(int)
    in_deg = defaultdict(int)
    for m in cat.morphisms:
        out_deg[cat.dom[m]] += 1
        in_deg[cat.cod[m]] += 1
    counts["lcat.morphisms"] += len(cat.morphisms)
    counts["lcat.composable_pairs"] += sum(
        in_deg[o] * out_deg[o] for o in cat.objects)


def _count_directedness(tracer, args, kwargs, result):
    tracer.counts["beta.directedness_calls"] += 1


def _count_quotient(tracer, args, kwargs, result):
    tracer.counts["beta.classes"] += len(result.classes)


def _count_nerve(tracer, args, kwargs, result):
    counts = tracer.counts
    for n, group in enumerate(result.groups):
        counts["homology.chain_rank.d%d" % n] += group.ngens
    for n, bd in enumerate(result.boundaries):
        if bd is not None:
            counts["homology.boundary_nnz.d%d" % n] += sum(
                1 for row in bd.matrix.rows for v in row if v)


def _count_snf(tracer, args, kwargs, result):
    counts = tracer.counts
    m = args[0] if args else kwargs["m"]
    counts["zmodule.snf_calls"] += 1
    counts["zmodule.snf_cells"] += m.nrows * m.ncols
    peak = max((abs(v).bit_length()
                for mat in (result.s, result.u, result.v)
                for row in mat.rows for v in row), default=0)
    if peak > counts["zmodule.snf_peak_bits"]:
        counts["zmodule.snf_peak_bits"] = peak


def _count_solve(tracer, args, kwargs, result):
    tracer.counts["zmodule.solve_columns"] += args[1].ncols


def _degree(args, kwargs):
    return kwargs["n"] if "n" in kwargs else args[2]


def _degree_span(tracer, args, kwargs):
    n = _degree(args, kwargs)
    return "homology.h%d" % n, n


def _tag_degree(tracer, args, kwargs, result):
    tracer.answers[id(result)] = (result, _degree(args, kwargs))


def _orders_span(tracer, args, kwargs):
    answer = tracer.answers.get(id(args[0]))
    if answer is None or answer[0] is not args[0]:
        return "zmodule.canonical_orders", None
    return "zmodule.canonical_orders", answer[1]


# (module, attribute or Class.method, span name, counter hook)
TARGETS = [
    ("oghom.io", "load", "io.load", None),
    ("oghom.io", "build_module", "io.load", None),
    ("oghom.io", "quotient_to_doc", "io.dump", None),
    ("oghom.io", "dumps", "io.dump", None),
    ("oghom.groupoid", "validate", "groupoid.validate", _count_validate),
    ("oghom.groupoid", "OrderedGroupoid.__init__", "groupoid.construct",
     None),
    ("oghom.lcat", "build_lcat", "lcat.build_lcat", _count_lcat),
    ("oghom.category", "FiniteCategory.check", "category.check", None),
    ("oghom.category", "FiniteCategory.left_cancellative",
     "category.left_cancellative", None),
    ("oghom.beta", "is_principally_directed", "beta.is_principally_directed",
     _count_directedness),
    ("oghom.beta", "quotient", "beta.quotient", _count_quotient),
    ("oghom.gmodules", "colim_E", "gmodules.colim_E", None),
    ("oghom.gmodules", "colim_category", "gmodules.colim_category", None),
    ("oghom.gmodules", "module_from_parts", "gmodules.module_build", None),
    ("oghom.homology", "nerve_complex", "homology.nerve_complex",
     _count_nerve),
    ("oghom.homology", "homology", _degree_span, _tag_degree),
    ("oghom.zmodule", "FgAbGroup.canonical_orders", _orders_span, None),
    ("oghom.zmodule", "snf", "zmodule.snf", _count_snf),
    ("oghom.zmodule", "homology_at", "zmodule.homology_at", None),
    ("oghom.zmodule", "ColumnSolver.solve_matrix", "zmodule.solve_matrix",
     _count_solve),
]

SELF_TIME_SPANS = sorted({name for _, _, name, _ in TARGETS
                          if isinstance(name, str)}
                         | {"zmodule.canonical_orders"})
COUNTERS = dict(
    [("groupoid.arrows", "count"), ("groupoid.order_pairs", "count"),
     ("lcat.morphisms", "count"), ("lcat.composable_pairs", "count"),
     ("beta.directedness_calls", "count"), ("beta.classes", "count")]
    + [("homology.chain_rank.d%d" % n, "count")
       for n in range(MAX_DEGREE + 1)]
    + [("homology.boundary_nnz.d%d" % n, "count")
       for n in range(1, MAX_DEGREE + 1)]
    + [("zmodule.snf_calls", "count"), ("zmodule.snf_cells", "count"),
       ("zmodule.snf_peak_bits", "bits"),
       ("zmodule.solve_columns", "count")])


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.answers = {}  # id -> (group, n) for groups homology(n) gave
        self.job = None
        self.paused = 0.0
        self._stack = []
        self._undo = []

    def now(self):
        """perf_counter time less the time spent in counter hooks."""
        return time.perf_counter() - self.paused

    def reset_round(self):
        self.counts.clear()
        self.answers.clear()

    def _wrap(self, fn, name, hook):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if isinstance(name, str):
                label, degree = name, None
            else:
                label, degree = name(self, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock() - self.paused
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock() - self.paused
                stack.pop()
                spans[index] = (label, start, end, parent, self.job, degree)
            if hook is not None:
                hook_start = clock()
                hook(self, args, kwargs, result)
                self.paused += clock() - hook_start
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        loaded = [m for n, m in sorted(sys.modules.items())
                  if n == "oghom" or n.startswith("oghom.")]
        for modname, attr, name, hook in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, name, hook))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, hook)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def summarize(spans, offset=0):
    """Self time per span name and per layer, time per homology degree,
    and the summed duration of root spans, for a contiguous run of
    finished spans that began at position ``offset`` of the trace.  A
    degree's time is the duration of its spans that have no ancestor
    span with a degree, so nested ones are not counted twice."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent - offset] += end - start
    by_name = defaultdict(float)
    by_layer = defaultdict(float)
    by_degree = defaultdict(float)
    roots = 0.0
    for i, (name, start, end, parent, _, degree) in enumerate(spans):
        dur = end - start
        own = dur - child[i]
        by_name[name] += own
        by_layer[name.split(".")[0]] += own
        if parent is None:
            roots += dur
        if degree is None:
            continue
        up = parent
        while up is not None and spans[up - offset][5] is None:
            up = spans[up - offset][3]
        if up is None:
            by_degree[degree] += dur
    return by_name, by_layer, by_degree, roots
