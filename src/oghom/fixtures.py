"""Named small instances for tests and the CLI.

Every fixture is a workspace document (groupoid plus modules) that goes
through the ordinary loading path, so fixtures double as input-format
examples.  chain2 is a two-element chain of identities; z2 is the
two-element group; clifford is the four-arrow groupoid whose order mixes
the group and the chain; twofold is the valid groupoid whose order side
branches, the stock non-principally-directed example.  cyclic_doc(m)
wraps the cyclic group of order m, whose homology is classical.
"""

from . import io
from .groupoid import OrderedGroupoid
from .lcat import build_lcat


def _const_module(identities, covers, arrows):
    groups = {e: {"rank": 1, "torsion": []} for e in identities}
    poset_maps = {"%s>%s" % (hi, lo): [[1]] for (hi, lo) in covers}
    arrow_maps = {g: [[1]] for g in arrows}
    return {"groups": groups, "poset_maps": poset_maps,
            "arrow_maps": arrow_maps}


def chain2_doc():
    return {
        "schema": 1,
        "groupoid": {
            "identities": ["e", "f"],
            "arrows": [],
            "compose": [],
            "order": [["f", "e"]],
        },
        "modules": {
            "const": _const_module(["e", "f"], [("e", "f")], []),
            "mixed": {
                "groups": {"e": {"rank": 1, "torsion": []},
                           "f": {"rank": 0, "torsion": [2]}},
                "poset_maps": {"e>f": [[1]]},
                "arrow_maps": {},
            },
        },
    }


def z2_doc():
    return {
        "schema": 1,
        "groupoid": {
            "identities": ["1"],
            "arrows": [{"id": "s", "d": "1", "r": "1", "inv": "s"}],
            "compose": [["s", "s", "1"]],
            "order": [],
        },
        "modules": {
            "const": _const_module(["1"], [], ["s"]),
            "sign": {
                "groups": {"1": {"rank": 1, "torsion": []}},
                "poset_maps": {},
                "arrow_maps": {"s": [[-1]]},
            },
        },
    }


def clifford_doc():
    return {
        "schema": 1,
        "groupoid": {
            "identities": ["1", "f"],
            "arrows": [
                {"id": "s", "d": "1", "r": "1", "inv": "s"},
                {"id": "t", "d": "f", "r": "f", "inv": "t"},
            ],
            "compose": [["s", "s", "1"], ["t", "t", "f"]],
            "order": [["f", "1"], ["t", "s"]],
        },
        "modules": {
            "const": _const_module(["1", "f"], [("1", "f")], ["s", "t"]),
            "sign": {
                "groups": {"1": {"rank": 1, "torsion": []},
                           "f": {"rank": 1, "torsion": []}},
                "poset_maps": {"1>f": [[1]]},
                "arrow_maps": {"s": [[-1]], "t": [[-1]]},
            },
        },
    }


def twofold_doc():
    return {
        "schema": 1,
        "groupoid": {
            "identities": ["1", "e", "f", "z1", "z2"],
            "arrows": [
                {"id": "s", "d": "1", "r": "1", "inv": "s"},
                {"id": "sA", "d": "e", "r": "e", "inv": "sA"},
                {"id": "sB", "d": "f", "r": "f", "inv": "sB"},
                {"id": "sz1", "d": "z1", "r": "z1", "inv": "sz1"},
                {"id": "sz2", "d": "z2", "r": "z2", "inv": "sz2"},
            ],
            "compose": [
                ["s", "s", "1"],
                ["sA", "sA", "e"],
                ["sB", "sB", "f"],
                ["sz1", "sz1", "z1"],
                ["sz2", "sz2", "z2"],
            ],
            "order": [
                ["e", "1"], ["f", "1"], ["z1", "e"], ["z2", "f"],
                ["sA", "s"], ["sB", "s"],
                ["sz1", "sA"], ["sz2", "sB"],
            ],
        },
        "modules": {
            "const": _const_module(
                ["1", "e", "f", "z1", "z2"],
                [("1", "e"), ("1", "f"), ("e", "z1"), ("f", "z2")],
                ["s", "sA", "sB", "sz1", "sz2"]),
        },
    }


def cyclic_module_spec(m, rank, torsion, unit):
    """Rank/torsion cyclic coefficients with the generator acting by a
    fixed unit; functoriality (unit^m = 1 on the group) is checked by
    the module constructor downstream."""
    arrow_maps = {"t%d" % i: [[unit ** i]] for i in range(1, m)}
    return {"groups": {"1": {"rank": rank, "torsion": list(torsion)}},
            "poset_maps": {},
            "arrow_maps": arrow_maps}


def cyclic_doc(m, modules=None):
    if m < 1:
        raise ValueError("cyclic_doc needs m >= 1")
    arrows = [{"id": "t%d" % i, "d": "1", "r": "1",
               "inv": "t%d" % (m - i)} for i in range(1, m)]
    compose = []
    for i in range(1, m):
        for j in range(1, m):
            k = (i + j) % m
            compose.append(["t%d" % i, "t%d" % j,
                            "1" if k == 0 else "t%d" % k])
    if modules is None:
        modules = {"const": cyclic_module_spec(m, 1, [], 1)}
        if m % 2 == 0:
            modules["sign"] = cyclic_module_spec(m, 1, [], -1)
    return {
        "schema": 1,
        "groupoid": {"identities": ["1"], "arrows": arrows,
                     "compose": compose, "order": []},
        "modules": modules,
    }


DOCS = {
    "chain2": chain2_doc,
    "z2": z2_doc,
    "clifford": clifford_doc,
    "twofold": twofold_doc,
    "cyclic2": lambda: cyclic_doc(2),
    "cyclic3": lambda: cyclic_doc(3),
    "cyclic4": lambda: cyclic_doc(4),
    "cyclic6": lambda: cyclic_doc(6),
}


class FixtureBundle:
    def __init__(self, name, groupoid, lc, modules):
        self.name = name
        self.groupoid = groupoid
        self.lc = lc
        self.modules = modules

    def __repr__(self):
        return "FixtureBundle(%r)" % self.name


def names():
    return sorted(DOCS)


def doc(name):
    if name not in DOCS:
        raise KeyError("unknown fixture %r (have: %s)"
                       % (name, ", ".join(names())))
    return DOCS[name]()


def load(name):
    """Build the fixture through the standard loading path."""
    _, cand, module_docs = io.load(doc(name))
    g0 = OrderedGroupoid.from_candidate(cand)
    lc = build_lcat(g0)
    modules = {mname: io.build_module(g0, lc, mdoc,
                                      base=io.pointer("/modules", mname))
               for mname, mdoc in module_docs.items()}
    return FixtureBundle(name, g0, lc, modules)
