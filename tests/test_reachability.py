"""Every definition in the library is reached, or kept for a stated reason.

A top-level function or class of `src/oghom/*.py`, or a method that is
not a dunder, is reached when its name occurs as a name, an attribute
or an identifier-only string somewhere in those modules outside its own
body, or anywhere in `perfbench/` outside `perfbench/tests/`.  The
package `__init__.py` only re-exports, so it does not count as a use,
and neither do the tests.  A definition nothing reaches must be on
KEEP, with the reason it stays.  Likewise every name that such a module
imports occurs in it.  The library's settable values are counted and
pinned, so that a change adding or removing one shows it in its diff.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oghom"
BENCH = ROOT / "perfbench"

KEEP = {
    # next callers: the theorem and the adjunction at modules over G/beta
    # (ROADMAP item 5), then cohomology and the dual comparison (item 10)
    "randgen.random_quotient_module": "random modules over G/beta",
    # next callers: the exactness check of colim_E (ROADMAP item 11)
    "gmodules.GMap.is_componentwise_surjective": "epimorphisms of modules",
    "zmodule.AbHom.is_injective": "monomorphisms of groups",
    # next caller: ROADMAP item 1, homology by components and vertex groups
    "category.FiniteCategory.components": "connected components of a category",
    # no runtime caller since check_adjunction reads E of the counit
    # componentwise; acceptance criterion 08 and the tests call it
    "gmodules.expand_map": "E on module maps",
    # no runtime caller since H_0 is read as a cokernel; the `homology_at`
    # doctest and the dense oracles end their complexes with it
    "zmodule.AbHom.zero": "the zero hom between two groups",
    # the paper's choice-independence verifiers
    "beta.check_quotient_welldefined": "composition in G/beta is choice-free",
    "gmodules.check_quotient_action": "the class action is choice-free",
    # what the library is about
    "beta.beta_witness": "the definition of beta",
    "groupoid.ValidationReport.has": "the validation report's query",
}

IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def used_names(tree):
    """How often each name, attribute and identifier-only string occurs
    in `tree`."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIER.match(node.value)):
            found[node.value] += 1
    return found


def definitions(module, tree):
    """("module.name" or "module.Class.method", node) for the top-level
    functions and classes of `tree` and the non-dunder methods of its
    classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield "%s.%s" % (module, node.name), node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, defs[:2])
                            and not (item.name.startswith("__")
                                     and item.name.endswith("__"))):
                        yield "%s.%s.%s" % (module, node.name,
                                            item.name), item


def library_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def unreached():
    trees = library_trees()
    library = Counter()
    for tree in trees.values():
        library.update(used_names(tree))
    bench = Counter()
    for path in BENCH.rglob("*.py"):
        if "tests" not in path.relative_to(BENCH).parts:
            bench.update(used_names(ast.parse(path.read_text(
                encoding="utf-8"))))
    # a use inside the definition's own body does not count
    return {qualname for module, tree in trees.items()
            for qualname, node in definitions(module, tree)
            if not bench[node.name]
            and library[node.name] <= used_names(node)[node.name]}


def test_every_definition_is_reached_or_kept():
    extra = sorted(unreached() - set(KEEP))
    assert not extra, "reached by nothing and not on KEEP: %s" % extra


def imported_names(tree):
    """The names that the imports of `tree` bind."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def test_every_import_is_used():
    unused = sorted("%s.%s" % (module, name)
                    for module, tree in library_trees().items()
                    for name in imported_names(tree)
                    if not used_names(tree)[name])
    assert not unused, "imported and never used: %s" % unused


def test_every_kept_name_is_defined():
    defined = {q for module, tree in library_trees().items()
               for q, _ in definitions(module, tree)}
    assert not set(KEEP) - defined


SETTABLE_VALUES = 32


def test_settable_values():
    """The settable values of the library are its parameters with a
    default, in every function and lambda of `src/oghom`, plus each
    `--` option string that `cli.py` hands to `add_argument` (an
    option added to several subcommands counts once per subcommand).
    A change that adds or removes a knob changes SETTABLE_VALUES in
    the same diff."""
    defaults = sum(
        len(node.args.defaults)
        + sum(d is not None for d in node.args.kw_defaults)
        for tree in library_trees().values() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)))
    cli = library_trees()["cli"]
    options = [arg.value for node in ast.walk(cli)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "add_argument"
               for arg in node.args
               if isinstance(arg, ast.Constant)
               and isinstance(arg.value, str)
               and arg.value.startswith("--")]
    assert defaults + len(options) == SETTABLE_VALUES, (defaults, options)
