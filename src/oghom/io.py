"""JSON documents: validation, loading, canonical serialization.

Two top-level document kinds, both carrying "schema": 1.  A bare
groupoid document lists identities, non-identity arrows (d, r, inverse),
the non-identity composition table, and order generators; unit
compositions and the reflexive-transitive order closure are inferred.  A
workspace wraps a groupoid together with named modules; a module gives a
group per identity, a matrix per covering pair of the identity order
(keyed "e>f"), and a matrix per non-identity arrow.

Malformed input raises SchemaViolation (with a JSON pointer) or
DanglingReference; those are input errors.  Structurally bad but
well-formed data (axiom violations, non-functorial actions) surfaces
later as math errors from the constructors.
"""

import json
import re

from .errors import DanglingReference, SchemaViolation
from .gmodules import module_from_parts
from .groupoid import GroupoidCandidate
from .homology import MAX_CHAIN_RANK
from .zmodule import FgAbGroup, ZMatrix

_MATRIX = {"type": "array",
           "items": {"type": "array", "items": {"type": "integer"}}}

_GROUP = {
    "oneOf": [
        {"type": "object",
         "required": ["rank"],
         "properties": {
             "rank": {"type": "integer", "minimum": 0},
             "torsion": {"type": "array",
                         "items": {"type": "integer", "minimum": 2}}},
         "additionalProperties": False},
        {"type": "object",
         "required": ["ngens", "relations"],
         "properties": {
             "ngens": {"type": "integer", "minimum": 0},
             "relations": _MATRIX},
         "additionalProperties": False},
    ]
}

_GROUPOID_CORE = {
    "type": "object",
    "required": ["identities", "arrows", "compose", "order"],
    "properties": {
        "schema": {"const": 1},
        "identities": {"type": "array", "minItems": 1,
                       "items": {"type": "string"}},
        "arrows": {"type": "array",
                   "items": {"type": "object",
                             "required": ["id", "d", "r", "inv"],
                             "properties": {"id": {"type": "string"},
                                            "d": {"type": "string"},
                                            "r": {"type": "string"},
                                            "inv": {"type": "string"}},
                             "additionalProperties": False}},
        "compose": {"type": "array",
                    "items": {"type": "array", "minItems": 3, "maxItems": 3,
                              "items": {"type": "string"}}},
        "order": {"type": "array",
                  "items": {"type": "array", "minItems": 2, "maxItems": 2,
                            "items": {"type": "string"}}},
    },
    "additionalProperties": False,
}

_MODULE = {
    "type": "object",
    "required": ["groups"],
    "properties": {
        "groups": {"type": "object", "additionalProperties": _GROUP},
        "poset_maps": {"type": "object", "additionalProperties": _MATRIX},
        "arrow_maps": {"type": "object", "additionalProperties": _MATRIX},
    },
    "additionalProperties": False,
}

_WORKSPACE = {
    "type": "object",
    "required": ["schema", "groupoid"],
    "properties": {
        "schema": {"const": 1},
        "groupoid": _GROUPOID_CORE,
        "modules": {"type": "object", "additionalProperties": _MODULE},
    },
    "additionalProperties": False,
}


# The checker below walks these dicts itself and knows exactly the
# keywords they use.  It reports what Draft 2020-12 jsonschema 4.26
# reports first (tests/oracles.py keeps that validator as the
# reference): every error is collected in jsonschema's order, and the
# least by its JSONPath string wins.


def _is_integer(value):
    # integral floats such as 2.0 count as integers, booleans do not
    return (isinstance(value, int) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer())


_IS_TYPE = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "integer": _is_integer,
}


def _type(value, arg, schema, path, errors):
    if not _IS_TYPE[arg](value):
        errors.append((path, "%r is not of type %r" % (value, arg)))


def _const(value, arg, schema, path, errors):
    # a boolean equals only itself, so true is not the constant 1
    if not (value is arg or not isinstance(value, bool) and value == arg):
        errors.append((path, "%r was expected" % (arg,)))


def _minimum(value, arg, schema, path, errors):
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and value < arg):
        errors.append((path, "%r is less than the minimum of %r"
                       % (value, arg)))


def _required(value, arg, schema, path, errors):
    if isinstance(value, dict):
        for name in arg:
            if name not in value:
                errors.append((path, "%r is a required property" % name))


def _properties(value, arg, schema, path, errors):
    if isinstance(value, dict):
        for name, sub in arg.items():
            if name in value:
                _walk(value[name], sub, path + (name,), errors)


def _additional_properties(value, arg, schema, path, errors):
    if not isinstance(value, dict):
        return
    known = schema.get("properties", {})
    extras = [name for name in value if name not in known]
    if arg is not False:
        for name in extras:
            _walk(value[name], arg, path + (name,), errors)
    elif extras:
        errors.append((path, "Additional properties are not allowed"
                       " (%s %s unexpected)"
                       % (", ".join(map(repr, sorted(extras, key=str))),
                          "was" if len(extras) == 1 else "were")))


def _items(value, arg, schema, path, errors):
    if not isinstance(value, list):
        return
    if arg.keys() == {"type"} and all(map(_IS_TYPE[arg["type"]], value)):
        return
    for i, item in enumerate(value):
        _walk(item, arg, path + (i,), errors)


def _min_items(value, arg, schema, path, errors):
    if isinstance(value, list) and len(value) < arg:
        errors.append((path, "%r %s" % (
            value, "should be non-empty" if arg == 1 else "is too short")))


def _max_items(value, arg, schema, path, errors):
    if isinstance(value, list) and len(value) > arg:
        errors.append((path, "%r %s" % (
            value, "is expected to be empty" if arg == 0 else "is too long")))


def _one_of(value, arg, schema, path, errors):
    # the branches of _GROUP exclude each other, so at most one holds
    if all(_errors(value, sub) for sub in arg):
        errors.append((path, "%r is not valid under any of the given"
                       " schemas" % (value,)))


_KEYWORDS = {
    "type": _type,
    "const": _const,
    "minimum": _minimum,
    "required": _required,
    "properties": _properties,
    "additionalProperties": _additional_properties,
    "items": _items,
    "minItems": _min_items,
    "maxItems": _max_items,
    "oneOf": _one_of,
}


def _walk(value, schema, path, errors):
    for keyword, arg in schema.items():
        _KEYWORDS[keyword](value, arg, schema, path, errors)


def _errors(value, schema):
    """Every (path, message) by which `value` breaks `schema`."""
    errors = []
    _walk(value, schema, (), errors)
    return errors


_PLAIN_KEY = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def pointer(base, *steps):
    """The JSON pointer `base` extended by `steps`, each escaped as RFC
    6901 asks ("~" as "~0", "/" as "~1")."""
    return base + "".join(
        "/" + str(step).replace("~", "~0").replace("/", "~1")
        for step in steps)


def _json_path(path):
    """The JSONPath string that jsonschema sorts its errors by."""
    text = "$"
    for elem in path:
        if isinstance(elem, int):
            text += "[%d]" % elem
        elif _PLAIN_KEY.match(elem):
            text += "." + elem
        else:
            escaped = elem.replace("\\", "\\\\").replace("'", "\\'")
            text += "['%s']" % escaped
    return text


def _check_schema(doc, schema):
    errors = _errors(doc, schema)
    if errors:
        # min keeps the first of equal keys, as a stable sort would
        path, message = min(errors, key=lambda e: _json_path(e[0]))
        raise SchemaViolation(pointer("", *path) or "/", message)


def load_document(source):
    """Parse JSON from a path (str) or pass a dict through."""
    if isinstance(source, dict):
        return source
    try:
        with open(source) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaViolation("", "cannot read %s: %s" % (source, exc))
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, undecodable bytes, an integer literal longer
        # than int() converts (sys.get_int_max_str_digits), or nesting
        # deeper than the parser recurses
        raise SchemaViolation("", "invalid JSON: %s" % exc)


def document_kind(doc):
    if not isinstance(doc, dict):
        raise SchemaViolation("", "top-level document must be an object")
    if doc.get("schema") != 1:
        raise SchemaViolation("/schema", "missing or unsupported version")
    if "groupoid" in doc:
        _check_schema(doc, _WORKSPACE)
        return "workspace"
    _check_schema(doc, _GROUPOID_CORE)
    return "groupoid"


def candidate_from_doc(gdoc, base=""):
    """Groupoid JSON object -> GroupoidCandidate, checking references."""
    identities = gdoc["identities"]
    seen = set()
    for i, e in enumerate(identities):
        if e in seen:
            raise SchemaViolation(pointer(base, "identities", i),
                                  "duplicate id %r" % e)
        seen.add(e)
    arrows = {}
    for i, a in enumerate(gdoc["arrows"]):
        if a["id"] in seen:
            raise SchemaViolation(pointer(base, "arrows", i, "id"),
                                  "duplicate id %r" % a["id"])
        seen.add(a["id"])
        arrows[a["id"]] = (a["d"], a["r"], a["inv"])
    idset = set(identities)
    for i, a in enumerate(gdoc["arrows"]):
        for field in ("d", "r"):
            if a[field] not in idset:
                raise DanglingReference(
                    pointer(base, "arrows", i, field), a[field])
        if a["inv"] not in seen:
            raise DanglingReference(pointer(base, "arrows", i, "inv"),
                                    a["inv"])
    compose = {}
    for i, (g, h, k) in enumerate(gdoc["compose"]):
        for j, ref in enumerate((g, h, k)):
            if ref not in seen:
                raise DanglingReference(pointer(base, "compose", i, j), ref)
        if (g, h) in compose and compose[(g, h)] != k:
            raise SchemaViolation(pointer(base, "compose", i),
                                  "conflicting entries for (%s, %s)" % (g, h))
        compose[(g, h)] = k
    order = []
    for i, (lo, hi) in enumerate(gdoc["order"]):
        for j, ref in enumerate((lo, hi)):
            if ref not in seen:
                raise DanglingReference(pointer(base, "order", i, j), ref)
        order.append((lo, hi))
    return GroupoidCandidate.from_parts(identities, arrows, compose, order)


def group_from_spec(spec):
    ngens = (int(spec["rank"]) + len(spec.get("torsion", []))
             if "rank" in spec else spec["ngens"])
    # refused before any matrix is allocated: a group is a summand of a
    # chain group in every degree
    if ngens > MAX_CHAIN_RANK:
        raise SchemaViolation("", "group has %d generators; at most %d are"
                              " supported" % (ngens, MAX_CHAIN_RANK))
    if "rank" in spec:
        return FgAbGroup.from_invariants(spec["rank"],
                                         spec.get("torsion", []))
    rels = spec["relations"]
    for row in rels:
        if len(row) != len(rels[0]):
            raise SchemaViolation("", "ragged relation matrix")
    if rels and len(rels) != ngens:
        raise SchemaViolation("", "relations must have ngens rows")
    if not rels:
        return FgAbGroup(ngens, None)
    return FgAbGroup(ngens, ZMatrix(rels))


def _matrix_from_doc(rows, nrows, ncols, pointer):
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise SchemaViolation(
            pointer, "expected a %dx%d matrix" % (nrows, ncols))
    return ZMatrix(rows, ncols=ncols)


def _cover_keys(g0):
    """The covering pairs (hi, lo) of the identity order by key "hi>lo"."""
    covers = {}
    for (lo, hi) in g0.identity_poset.covers():
        covers.setdefault("%s>%s" % (hi, lo), []).append((hi, lo))
    return covers


def _one_pair(pairs, at):
    """The covering pair of a key, refused when the key names several."""
    if len(pairs) > 1:
        raise SchemaViolation(
            at, "key names the covering pairs %s" % ", ".join(
                "(%r, %r)" % pair for pair in pairs))
    return pairs[0]


def module_parts_from_doc(g0, mdoc, base=""):
    """Module JSON -> (groups, poset_maps, arrow_maps) over g0."""
    idset = set(g0.identities)
    groups = {}
    for e, spec in mdoc["groups"].items():
        if e not in idset:
            raise DanglingReference(pointer(base, "groups", e), e)
        try:
            groups[e] = group_from_spec(spec)
        except SchemaViolation as exc:
            raise SchemaViolation(pointer(base, "groups", e), exc.message)
    for e in g0.identities:
        if e not in groups:
            raise SchemaViolation(pointer(base, "groups"),
                                  "missing group for identity %r" % e)

    # identity names may hold ">" as long as no two covering pairs share
    # a key
    covers = _cover_keys(g0)
    poset_maps = {}
    for key, rows in mdoc.get("poset_maps", {}).items():
        at = pointer(base, "poset_maps", key)
        pairs = covers.get(key)
        if pairs is None:
            if ">" not in key:
                raise SchemaViolation(at, "key must look like upper>lower")
            hi, lo = key.split(">", 1)
            for ref in (hi, lo):
                if ref not in idset:
                    raise DanglingReference(at, ref)
            raise SchemaViolation(
                at, "%r does not cover %r in the identity order" % (hi, lo))
        hi, lo = _one_pair(pairs, at)
        poset_maps[(hi, lo)] = _matrix_from_doc(
            rows, groups[lo].ngens, groups[hi].ngens, at)
    for pairs in covers.values():
        for (hi, lo) in pairs:
            if (hi, lo) not in poset_maps:
                raise SchemaViolation(
                    pointer(base, "poset_maps"),
                    "missing map for covering pair %s>%s" % (hi, lo))

    nonid = set(g0.nonidentity_arrows())
    arrow_maps = {}
    for g, rows in mdoc.get("arrow_maps", {}).items():
        at = pointer(base, "arrow_maps", g)
        if g not in nonid:
            raise DanglingReference(at, g)
        arrow_maps[g] = _matrix_from_doc(
            rows, groups[g0.r[g]].ngens, groups[g0.d[g]].ngens, at)
    for g in sorted(nonid):
        if g not in arrow_maps:
            raise SchemaViolation(pointer(base, "arrow_maps"),
                                  "missing map for arrow %r" % g)
    return groups, poset_maps, arrow_maps


def build_module(g0, lc, mdoc, base=""):
    groups, poset_maps, arrow_maps = module_parts_from_doc(g0, mdoc, base)
    return module_from_parts(lc, groups, poset_maps, arrow_maps)


def load(source):
    """Load a document -> (kind, candidate, {module name: module doc})."""
    doc = load_document(source)
    kind = document_kind(doc)
    if kind == "groupoid":
        return kind, candidate_from_doc(doc), {}
    cand = candidate_from_doc(doc["groupoid"], base="/groupoid")
    return kind, cand, dict(doc.get("modules", {}))


def groupoid_to_doc(g0):
    """Canonical groupoid document: sorted, closures spelled out."""
    arrows = [{"id": g, "d": g0.d[g], "r": g0.r[g], "inv": g0.inv[g]}
              for g in g0.nonidentity_arrows()]
    nonid = set(g0.nonidentity_arrows())
    compose = sorted([g, h, k]
                     for (g, h), k in g0.composition_table().items()
                     if g in nonid and h in nonid)
    order = sorted([lo, hi] for (lo, hi) in g0.order.pairs() if lo != hi)
    return {"schema": 1,
            "identities": sorted(g0.identities),
            "arrows": sorted(arrows, key=lambda a: a["id"]),
            "compose": compose,
            "order": order}


def dumps(doc):
    """Canonical text form: stable key order, trailing newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def quotient_to_doc(q):
    return {"classes": {cid: list(members)
                        for cid, members in sorted(q.classes.items())},
            "groupoid": groupoid_to_doc(q.groupoid)}


def lcat_to_doc(lc):
    cat = lc.category
    morphisms = []
    for (e, g) in sorted(cat.morphisms):
        morphisms.append({"object": e, "arrow": g,
                          "dom": cat.dom[(e, g)], "cod": cat.cod[(e, g)]})
    return {"objects": list(cat.objects), "morphisms": morphisms}


def group_to_doc(group):
    rank, torsion = group.canonical_form()
    return {"rank": rank, "torsion": list(torsion)}


def module_to_doc(g0, module):
    """Module -> loadable parts document, presentations preserved;
    refused, as loading would be, when two covering pairs share a key."""
    groups = {}
    for e in g0.identities:
        g = module.groups[e]
        groups[e] = {"ngens": g.ngens, "relations": g.relations.to_lists()}
    poset_maps = {}
    for key, pairs in _cover_keys(g0).items():
        hi, lo = _one_pair(pairs, pointer("", "poset_maps", key))
        poset_maps[key] = module.action[(hi, lo)].matrix.to_lists()
    arrow_maps = {}
    for g in g0.nonidentity_arrows():
        arrow_maps[g] = module.action[(g0.d[g], g)].matrix.to_lists()
    return {"groups": groups, "poset_maps": poset_maps,
            "arrow_maps": arrow_maps}
