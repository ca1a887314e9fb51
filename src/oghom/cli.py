"""Command line interface.

Subcommands: validate, beta, quotient, lcat, colim, homology, check
(adjunction | colim-composition | theorem), gen.  Inputs are JSON paths
or built-in fixture names.  --json switches to machine output.  Exit
codes: 0 all checks pass, 1 a mathematical check fails, 2 bad input.
"""

import argparse
import os
import random
import sys

from . import fixtures, io
from .beta import beta_classes, is_principally_directed, quotient
from .errors import (InputError, MathError, NotPrincipallyDirected,
                     SchemaViolation)
from .gmodules import check_adjunction, check_colim_composition, colim_E
from .groupoid import OrderedGroupoid, validate
from .homology import check_theorem, homology_profile
from .lcat import build_lcat
from .randgen import random_module, random_og


def _emit(doc):
    sys.stdout.write(io.dumps(doc))


def _resolve(inp):
    if not os.path.exists(inp) and inp in fixtures.DOCS:
        return fixtures.doc(inp)
    return inp


def _load_bundle(inp):
    _, cand, module_docs = io.load(_resolve(inp))
    return OrderedGroupoid.from_candidate(cand), module_docs


def _select_modules(g0, lc, module_docs, wanted):
    if wanted is not None:
        if wanted not in module_docs:
            raise SchemaViolation(io.pointer("/modules", wanted),
                                  "input has no module named %r" % wanted)
        names = [wanted]
    else:
        names = sorted(module_docs)
        if not names:
            raise SchemaViolation("/modules", "input carries no modules")
    return [(n, io.build_module(g0, lc, module_docs[n],
                                base=io.pointer("/modules", n)))
            for n in names]


def _degrees(text):
    """--degrees: "N" for 0..N, or a comma list; a usage error unless
    every degree is a non-negative integer and at least one is given."""
    try:
        if "," in text:
            degrees = sorted({int(p) for p in text.split(",") if p != ""})
        else:
            degrees = list(range(int(text) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError("not an integer list: %r" % text)
    if not degrees or degrees[0] < 0:
        raise argparse.ArgumentTypeError(
            "degrees must be non-negative and at least one: %r" % text)
    return degrees


def _at_least(low):
    """argparse type: an integer no smaller than `low`, else a usage
    error."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("not an integer: %r" % text)
        if value < low:
            raise argparse.ArgumentTypeError(
                "must be at least %d: %r" % (low, text))
        return value
    return parse


def cmd_validate(args):
    _, cand, _ = io.load(_resolve(args.input))
    report = validate(cand)
    if args.json:
        _emit({"valid": report.ok,
               "violations": [{"axiom": v.axiom, "witness": list(v.witness)}
                              for v in report.violations]})
    elif report.ok:
        print("valid ordered groupoid: %d identities, %d arrows"
              % (len(cand.identities), len(cand.arrows)))
    else:
        for v in report.violations:
            print("%s violated, witness %r" % (v.axiom, v.witness))
    return 0 if report.ok else 1


def cmd_beta(args):
    g0, _ = _load_bundle(args.input)
    classes, _ = beta_classes(g0)
    directed, counterexample = is_principally_directed(g0)
    if args.json:
        _emit({"classes": {cid: list(members)
                           for cid, members in classes.items()},
               "principally_directed": directed,
               "counterexample": counterexample})
    else:
        for cid in sorted(classes):
            print("class %s: %s" % (cid, " ".join(classes[cid])))
        print("principally directed: %s" % ("yes" if directed else "no"))
        if counterexample:
            print("counterexample: %r" % (counterexample,))
    return 0


def cmd_quotient(args):
    g0, _ = _load_bundle(args.input)
    q = quotient(g0)
    if args.json:
        _emit(io.groupoid_to_doc(q.groupoid))
    else:
        for cid in sorted(q.classes):
            print("class %s: %s" % (cid, " ".join(q.classes[cid])))
        qg = q.groupoid
        print("quotient: %d identities, %d arrows"
              % (len(qg.identities), len(qg.arrows)))
    return 0


def cmd_lcat(args):
    g0, _ = _load_bundle(args.input)
    lc = build_lcat(g0)
    ok, witness = lc.category.left_cancellative()
    if args.json:
        doc = io.lcat_to_doc(lc)
        doc["left_cancellative"] = ok
        _emit(doc)
    else:
        for m in sorted(lc.category.morphisms):
            print("(%s, %s): %s -> %s"
                  % (m[0], m[1], lc.category.dom[m], lc.category.cod[m]))
        print("left cancellative: %s" % ("yes" if ok else "no"))
        if witness:
            print("witness: %r" % (witness,))
    return 0 if ok else 1


def cmd_colim(args):
    g0, module_docs = _load_bundle(args.input)
    lc = build_lcat(g0)
    out = {}
    for name, module in _select_modules(g0, lc, module_docs, args.module):
        colim = colim_E(g0, lc, module)
        out[name] = {x: io.group_to_doc(colim.module.groups[x])
                     for x in colim.module.base.objects}
    if args.json:
        _emit({"modules": out})
    else:
        for name in sorted(out):
            for x in sorted(out[name]):
                form = out[name][x]
                print("%s: class %s: rank %d torsion %s"
                      % (name, x, form["rank"], form["torsion"]))
    return 0


def cmd_homology(args):
    g0, module_docs = _load_bundle(args.input)
    lc = build_lcat(g0)
    out = {}
    for name, module in _select_modules(g0, lc, module_docs, args.module):
        profile = homology_profile(lc.category, module, args.max_degree)
        out[name] = [{"degree": n, "rank": form[0],
                      "torsion": list(form[1])}
                     for n, form in enumerate(profile)]
    if args.json:
        _emit({"modules": out})
    else:
        for name in sorted(out):
            for row in out[name]:
                print("%s: H_%d: rank %d torsion %s"
                      % (name, row["degree"], row["rank"], row["torsion"]))
    return 0


def cmd_check(args):
    g0, module_docs = _load_bundle(args.input)
    lc = build_lcat(g0)
    rows = []
    ok = True
    for name, module in _select_modules(g0, lc, module_docs, args.module):
        if args.kind == "adjunction":
            colim_ok, expand_ok = check_adjunction(g0, lc, module)
            row = {"module": name, "colim_triangle": colim_ok,
                   "expand_triangle": expand_ok}
            row_ok = colim_ok and expand_ok
        elif args.kind == "colim-composition":
            report = check_colim_composition(g0, lc, module)
            row = {"module": name,
                   "total_colimit": io.group_to_doc(report.lhs),
                   "through_quotient": io.group_to_doc(report.rhs),
                   "equal_canonical": report.equal_canonical,
                   "comparison_iso": report.iso}
            row_ok = report.ok
        else:
            report = check_theorem(g0, lc, module, args.degrees)
            row = {"module": name, "degrees": report.rows}
            row_ok = report.ok
        rows.append(row)
        ok = ok and row_ok
    if args.json:
        _emit({"check": args.kind, "ok": ok, "results": rows})
    else:
        for row in rows:
            if args.kind == "theorem":
                for deg in row["degrees"]:
                    print("%s: degree %d: left rank %d torsion %s, "
                          "right rank %d torsion %s: %s"
                          % (row["module"], deg["degree"],
                             deg["left"]["rank"], deg["left"]["torsion"],
                             deg["right"]["rank"], deg["right"]["torsion"],
                             "equal" if deg["equal"] else "DIFFER"))
            else:
                print("%s: %s" % (row["module"], row))
        print("%s: %s" % (args.kind, "pass" if ok else "FAIL"))
    return 0 if ok else 1


def cmd_gen(args):
    rng = random.Random(args.seed)
    rog = random_og(rng, n_identities=args.identities,
                    max_group=args.max_group, directed=not args.free)
    gdoc = io.groupoid_to_doc(rog.groupoid)
    if not args.module:
        _emit(gdoc)
        return 0
    lc = build_lcat(rog.groupoid)
    module = random_module(rng, rog, lc, finite=True)
    gdoc.pop("schema")
    _emit({"schema": 1, "groupoid": gdoc,
           "modules": {"m0": io.module_to_doc(rog.groupoid, module)}})
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oghom",
        description="Finite ordered groupoids: validation, quotients, "
                    "module colimits, and category homology.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_, with_input=True):
        p = sub.add_parser(name, help=help_)
        if with_input:
            p.add_argument("input",
                           help="JSON path or fixture name (%s)"
                                % ", ".join(fixtures.names()))
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "check the axioms, report violations")
    add("beta", cmd_beta, "common-lower-bound classes and directedness")
    add("quotient", cmd_quotient, "quotient groupoid by the class relation")
    add("lcat", cmd_lcat, "the left-cancellative category of the input")

    p = add("colim", cmd_colim, "per-class colimits of a module")
    p.add_argument("--module", help="module name (default: all)")

    p = add("homology", cmd_homology, "homology profile over the category")
    p.add_argument("--module", help="module name (default: all)")
    p.add_argument("--max-degree", type=_at_least(0), default=2,
                   help="highest degree to compute (default 2)")

    p = sub.add_parser("check", help="run a named verification")
    p.add_argument("kind",
                   choices=["adjunction", "colim-composition", "theorem"])
    p.add_argument("input",
                   help="JSON path or fixture name (%s)"
                        % ", ".join(fixtures.names()))
    p.add_argument("--module", help="module name (default: all)")
    p.add_argument("--degrees", type=_degrees, default="2",
                   help="N for 0..N, or comma list (theorem; default 2)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_check)

    p = add("gen", cmd_gen, "emit a random instance as JSON",
            with_input=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--identities", type=_at_least(1), default=3)
    p.add_argument("--max-group", type=_at_least(1), default=4)
    # a module needs a quotient, which only directed instances have
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--free", action="store_true",
                      help="arbitrary identity order (may fail directedness)")
    mode.add_argument("--module", action="store_true",
                      help="include a random module")
    return parser


def _one_line(text):
    """`text` with every non-printable character escaped, so that an id
    holding a newline cannot split a message."""
    return "".join(c if c.isprintable()
                   else c.encode("unicode_escape").decode("ascii")
                   for c in text)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        # errors with a pointer already start with it
        where = " at" if hasattr(exc, "pointer") else ":"
        print(_one_line("input error%s %s" % (where, exc)), file=sys.stderr)
        return 2
    except NotPrincipallyDirected as exc:
        print(_one_line("check failed: %s" % exc), file=sys.stderr)
        if exc.counterexample is not None:
            print("counterexample: %r" % (exc.counterexample,),
                  file=sys.stderr)
        return 1
    except MathError as exc:
        print(_one_line("check failed: %s" % exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
