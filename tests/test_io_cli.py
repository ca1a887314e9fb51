"""JSON schemas, pointers, canonical round trips, and the CLI."""

import contextlib
import copy
import io as textio
import json
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oghom
from oghom import fixtures, io
from oghom.cli import main
from oghom.errors import DanglingReference, SchemaViolation
from oghom.gmodules import module_from_parts
from oghom.groupoid import OrderedGroupoid, validate
from oghom.homology import MAX_CHAIN_RANK
from oghom.lcat import build_lcat
from oghom.randgen import random_og
from oghom.zmodule import FgAbGroup, ZMatrix

from .oracles import first_schema_error, schema_valid


def mutated(name, mutate):
    doc = copy.deepcopy(fixtures.doc(name))
    mutate(doc)
    return doc


def schema_error(doc, schema):
    try:
        io._check_schema(doc, schema)
    except SchemaViolation as exc:
        return exc.pointer, exc.message
    return None


def schema_parts(value, schema):
    """(part, subschema): `value` under `schema`, then each part of it
    under each schema dict that applies there, oneOf branches and
    parts that the schema refuses included."""
    yield value, schema
    for sub in schema.get("oneOf", ()):
        yield from schema_parts(value, sub)
    if isinstance(value, dict):
        named = schema.get("properties", {})
        others = schema.get("additionalProperties")
        for name, part in value.items():
            sub = named.get(name, others)
            if isinstance(sub, dict):
                yield from schema_parts(part, sub)
    elif isinstance(value, list) and "items" in schema:
        for part in value:
            yield from schema_parts(part, schema["items"])


def keyword_errors(value, schema):
    """io._errors with every compiled test failing, so that each
    keyword of each schema dict is checked on its own."""
    with mock.patch.dict(io._VALID, dict.fromkeys(io._VALID, never)):
        return io._errors(value, schema)


def never(value):
    return False


def assert_schema_check_agrees(doc):
    """io's checker rejects `doc` exactly when jsonschema finds an
    error, and then with jsonschema's first pointer and message; and
    the compiled test of each schema dict, at each part of `doc` that
    it applies to, holds exactly when the keywords and jsonschema find
    nothing there."""
    for schema in (io._WORKSPACE, io._GROUPOID_CORE):
        assert schema_error(doc, schema) == first_schema_error(doc, schema)
        for part, sub in schema_parts(doc, schema):
            valid = io._VALID[id(sub)](part)
            assert valid == (not keyword_errors(part, sub)), (part, sub)
            assert valid == schema_valid(part, sub), (part, sub)


# ---------------------------------------------------------------- documents


def test_load_from_path(tmp_path):
    p = tmp_path / "z2.json"
    p.write_text(io.dumps(fixtures.doc("z2")))
    kind, cand, mods = io.load(str(p))
    assert kind == "workspace"
    assert sorted(mods) == ["const", "sign"]
    assert validate(cand).ok


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(SchemaViolation):
        io.load(str(p))
    with pytest.raises(SchemaViolation):
        io.load(str(tmp_path / "absent.json"))


@pytest.mark.parametrize("mutate,pointer,kind", [
    (lambda d: d.pop("schema"), "/schema", SchemaViolation),
    (lambda d: d.update(schema=2), "/schema", SchemaViolation),
    (lambda d: d["groupoid"]["arrows"][0].pop("inv"),
     "/groupoid/arrows/0", SchemaViolation),
    (lambda d: d["groupoid"]["arrows"].append(
        dict(d["groupoid"]["arrows"][0])),
     "/groupoid/arrows/1/id", SchemaViolation),
    (lambda d: d["groupoid"]["identities"].append("s"),
     "/groupoid/arrows/0/id", SchemaViolation),
    (lambda d: d["groupoid"]["compose"].append(["s", "nope", "1"]),
     "/groupoid/compose/1/1", DanglingReference),
    (lambda d: d["groupoid"]["compose"].append(["s", "s", "s"]),
     "/groupoid/compose/1", SchemaViolation),
    (lambda d: d["groupoid"]["order"].append(["nope", "s"]),
     "/groupoid/order/0/0", DanglingReference),
])
def test_document_errors_carry_pointers(mutate, pointer, kind):
    doc = mutated("z2", mutate)
    assert_schema_check_agrees(doc)
    with pytest.raises(kind) as exc:
        io.load(doc)
    assert exc.value.pointer == pointer


def z2_parts():
    kind, cand, mods = io.load(fixtures.doc("z2"))
    g0 = OrderedGroupoid.from_candidate(cand)
    return g0, build_lcat(g0), mods


@pytest.mark.parametrize("mutate,pointer,kind", [
    (lambda d: d["groups"].pop("1"), "/m/groups", SchemaViolation),
    (lambda d: d["arrow_maps"].update(s=[[1, 0]]),
     "/m/arrow_maps/s", SchemaViolation),
    (lambda d: d["arrow_maps"].update(zz=[[1]]),
     "/m/arrow_maps/zz", DanglingReference),
    (lambda d: d["arrow_maps"].pop("s"), "/m/arrow_maps", SchemaViolation),
])
def test_module_errors_carry_pointers(mutate, pointer, kind):
    g0, lc, mods = z2_parts()
    mdoc = copy.deepcopy(mods["sign"])
    mutate(mdoc)
    assert_schema_check_agrees(
        mutated("z2", lambda d: d["modules"].update(m=mdoc)))
    with pytest.raises(kind) as exc:
        io.build_module(g0, lc, mdoc, base="/m")
    assert exc.value.pointer == pointer


def test_poset_map_errors():
    kind, cand, mods = io.load(fixtures.doc("chain2"))
    g0 = OrderedGroupoid.from_candidate(cand)
    lc = build_lcat(g0)

    mdoc = copy.deepcopy(mods["mixed"])
    del mdoc["poset_maps"]["e>f"]
    with pytest.raises(SchemaViolation) as exc:
        io.build_module(g0, lc, mdoc, base="/m")
    assert exc.value.pointer == "/m/poset_maps"

    mdoc = copy.deepcopy(mods["mixed"])
    mdoc["poset_maps"]["f>e"] = [[1]]
    with pytest.raises(SchemaViolation) as exc:
        io.build_module(g0, lc, mdoc, base="/m")
    assert exc.value.pointer == "/m/poset_maps/f>e"


def renamed(doc, old, new):
    """`doc` with identity `old` renamed to `new`, in ids and in the
    "upper>lower" keys of poset maps."""
    text = json.dumps(doc)
    for a in ('"%s"', '"%s>', '>%s"'):
        text = text.replace(a % old, a % json.dumps(new)[1:-1])
    return json.loads(text)


def test_identity_names_may_hold_the_key_separator(tmp_path, capsys):
    doc = renamed(fixtures.doc("chain2"), "e", "a>b")
    assert list(doc["modules"]["const"]["poset_maps"]) == ["a>b>f"]
    p = tmp_path / "renamed.json"
    p.write_text(io.dumps(doc))
    assert main(["validate", str(p)]) == 0
    capsys.readouterr()
    outs = []
    for path in (str(p), "chain2"):
        assert main(["homology", path, "--module", "const", "--json"]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    # module_to_doc writes the keys that load reads back
    _, cand, mods = io.load(doc)
    g0 = OrderedGroupoid.from_candidate(cand)
    lc = build_lcat(g0)
    for name, mdoc in mods.items():
        built = io.build_module(g0, lc, mdoc)
        again = io.module_to_doc(g0, built)
        assert list(again["poset_maps"]) == ["a>b>f"]
        rebuilt = io.build_module(g0, lc, again)
        for m in built.action:
            assert built.action[m].matrix == rebuilt.action[m].matrix


def test_key_naming_two_covering_pairs_is_refused():
    # "a>b>c" is the key of b>c below a and of c below a>b
    doc = {"schema": 1, "identities": ["a", "b>c", "a>b", "c"],
           "arrows": [], "compose": [], "order": [["b>c", "a"], ["c", "a>b"]]}
    g0 = OrderedGroupoid.from_candidate(io.load(doc)[1])
    mdoc = {"groups": {e: {"rank": 1} for e in g0.identities},
            "poset_maps": {"a>b>c": [[1]]}}
    with pytest.raises(SchemaViolation) as exc:
        io.build_module(g0, build_lcat(g0), mdoc, base="/m")
    assert exc.value.pointer == "/m/poset_maps/a>b>c"
    assert "('a', 'b>c')" in exc.value.message
    assert "('a>b', 'c')" in exc.value.message


def test_dump_of_a_shared_key_is_refused():
    # maps 1 and 2 of the two covering pairs keyed "a>b>c" would be
    # dumped as {"a>b>c": [[2]]}, losing map 1
    doc = {"schema": 1, "identities": ["a", "b>c", "a>b", "c"],
           "arrows": [], "compose": [], "order": [["b>c", "a"], ["c", "a>b"]]}
    g0 = OrderedGroupoid.from_candidate(io.load(doc)[1])
    groups = {e: FgAbGroup.free(1) for e in g0.identities}
    maps = {("a", "b>c"): ZMatrix([[1]]), ("a>b", "c"): ZMatrix([[2]])}
    module = module_from_parts(build_lcat(g0), groups, maps, {})
    with pytest.raises(SchemaViolation) as exc:
        io.module_to_doc(g0, module)
    assert exc.value.pointer == "/poset_maps/a>b>c"
    assert exc.value.message == (
        "key names the covering pairs ('a', 'b>c'), ('a>b', 'c')")


def test_pointers_escape_keys(tmp_path, capsys):
    # RFC 6901: "/" in a key is "~1", "~" is "~0"
    bad = {"ngens": 2, "relations": [[1], [1, 2]]}
    doc = mutated("chain2", lambda d: d["modules"].update(
        {"a/b": {"groups": {"e": bad, "f": {"rank": 1}}},
         "~": {"groups": {"e": {"rank": 1}, "f": {"rank": 2.5}}}}))
    assert_schema_check_agrees(doc)
    assert schema_error(doc, io._WORKSPACE)[0] == "/modules/~0/groups/f"
    doc["modules"]["~"]["groups"]["f"] = {"rank": 1}
    p = tmp_path / "slash.json"
    p.write_text(io.dumps(doc))
    assert main(["homology", str(p), "--module", "a/b"]) == 2
    assert capsys.readouterr().err == (
        "input error at /modules/a~1b/groups/e: ragged relation matrix\n")
    assert main(["homology", str(p), "--module", "a~b"]) == 2
    assert capsys.readouterr().err.startswith("input error at /modules/a~0b:")


def test_input_error_is_one_line(tmp_path):
    doc = renamed(fixtures.doc("chain2"), "e", "z\n")
    doc["modules"]["const"]["groups"]["z\n"] = {"ngens": 1,
                                                "relations": [[1, 2], [3]]}
    p = tmp_path / "newline.json"
    p.write_text(io.dumps(doc))
    code, err = cli(["homology", str(p), "--module", "const"])
    assert code == 2
    assert err == ("input error at /modules/const/groups/z\\n:"
                   " ragged relation matrix\n")


def test_group_specs():
    g = io.group_from_spec({"rank": 1, "torsion": [2, 4]})
    assert g.canonical_form() == (1, (2, 4))
    g2 = io.group_from_spec({"ngens": 2, "relations": [[2, 0], [0, 3]]})
    assert g2.canonical_form() == (0, (6,))
    with pytest.raises(SchemaViolation):
        io.group_from_spec({"ngens": 2, "relations": [[1], [1, 2]]})
    # unit torsion is screened out by the document schema itself
    doc = mutated("z2", lambda d: d["modules"]["sign"]["groups"]
                  .update({"1": {"rank": 0, "torsion": [1]}}))
    assert_schema_check_agrees(doc)
    with pytest.raises(SchemaViolation) as exc:
        io.load(doc)
    assert exc.value.pointer == "/modules/sign/groups/1"


def test_groupoid_doc_roundtrip_is_canonical():
    for name in fixtures.names():
        kind, cand, _ = io.load(fixtures.doc(name))
        g0 = OrderedGroupoid.from_candidate(cand)
        doc = io.groupoid_to_doc(g0)
        text = io.dumps(doc)
        kind2, cand2, _ = io.load(json.loads(text))
        g1 = OrderedGroupoid.from_candidate(cand2)
        assert io.dumps(io.groupoid_to_doc(g1)) == text
        assert g1.arrows == g0.arrows
        assert g1.composition_table() == g0.composition_table()


def test_dumps_deterministic():
    doc = {"b": 1, "a": [3, 2]}
    assert io.dumps(doc) == io.dumps(dict(sorted(doc.items())))
    assert io.dumps(doc).endswith("\n")


def test_module_doc_roundtrip():
    g0, lc, mods = z2_parts()
    built = io.build_module(g0, lc, mods["sign"], base="/m")
    doc = io.module_to_doc(g0, built)
    rebuilt = io.build_module(g0, lc, doc, base="/m")
    for m in built.action:
        assert built.action[m].matrix == rebuilt.action[m].matrix


@pytest.mark.parametrize("mutate,error", [
    # integral floats are integers, booleans are not
    (lambda d: d["modules"]["sign"]["groups"].update({"1": {"rank": 2.0}}),
     None),
    (lambda d: d["modules"]["sign"]["arrow_maps"].update(s=[[-1.0]]), None),
    (lambda d: d["modules"]["sign"]["arrow_maps"].update(s=[[True]]),
     ("/modules/sign/arrow_maps/s/0/0", "True is not of type 'integer'")),
    (lambda d: d["modules"]["sign"]["groups"].update({"1": {"rank": True}}),
     ("/modules/sign/groups/1",
      "{'rank': True} is not valid under any of the given schemas")),
    (lambda d: d["groupoid"].update(schema=True),
     ("/groupoid/schema", "1 was expected")),
    # errors at one location come in the schema's keyword order
    (lambda d: d["groupoid"].update(arrows=[{"id": "s", "r": "1", "x": 1}]),
     ("/groupoid/arrows/0", "'d' is a required property")),
    (lambda d: d["groupoid"]["identities"].clear(),
     ("/groupoid/identities", "[] should be non-empty")),
    (lambda d: d["groupoid"]["compose"][0].append(0),
     ("/groupoid/compose/0", "['s', 's', '1', 0] is too long")),
    (lambda d: d["groupoid"]["order"].append([]),
     ("/groupoid/order/0", "[] is too short")),
    # the least JSONPath string wins: $.modules.zz < $.modules['a b']
    (lambda d: d["modules"].update({"a b": {}, "zz": {}}),
     ("/modules/zz", "'groups' is a required property")),
    (lambda d: d.update(more=1, extra=0),
     ("/", "Additional properties are not allowed ('extra', 'more' were"
           " unexpected)")),
    # the compiled tests' edge cases: the constant 1 against true and
    # 1.0, integral floats and booleans in arrays, minimum, lengths,
    # extra and missing keys, and groups that match neither branch
    (lambda d: d.update(schema=True), ("/schema", "1 was expected")),
    (lambda d: d.update(schema=1.0), None),
    (lambda d: d["groupoid"].update(schema=1.0), None),
    (lambda d: d["modules"]["sign"]["groups"].update(
        {"1": {"rank": 0, "torsion": [2.0]}}), None),
    (lambda d: d["modules"]["sign"]["groups"].update(
        {"1": {"ngens": 1, "relations": [[2.0]]}}), None),
    (lambda d: d["modules"]["sign"]["groups"].update(
        {"1": {"rank": 0, "torsion": [True]}}),
     ("/modules/sign/groups/1", "{'rank': 0, 'torsion': [True]} is not"
      " valid under any of the given schemas")),
    (lambda d: d["modules"]["sign"]["groups"].update({"1": {"rank": -1}}),
     ("/modules/sign/groups/1",
      "{'rank': -1} is not valid under any of the given schemas")),
    (lambda d: d["modules"]["sign"]["groups"].update(
        {"1": {"ngens": -1, "relations": []}}),
     ("/modules/sign/groups/1", "{'ngens': -1, 'relations': []} is not"
      " valid under any of the given schemas")),
    (lambda d: d["modules"]["sign"]["groups"].update(
        {"1": {"rank": 1, "ngens": 1}}),
     ("/modules/sign/groups/1", "{'rank': 1, 'ngens': 1} is not valid"
      " under any of the given schemas")),
    (lambda d: d["modules"]["const"]["poset_maps"].update(
        {"1>1": [[1, True]]}),
     ("/modules/const/poset_maps/1>1/0/1", "True is not of type 'integer'")),
    (lambda d: d["groupoid"]["compose"][0].pop(),
     ("/groupoid/compose/0", "['s', 's'] is too short")),
    (lambda d: d["groupoid"]["order"].append(["1", "1", "1"]),
     ("/groupoid/order/0", "['1', '1', '1'] is too long")),
    (lambda d: d["groupoid"]["arrows"][0].update(x="1"),
     ("/groupoid/arrows/0",
      "Additional properties are not allowed ('x' was unexpected)")),
    (lambda d: d["groupoid"]["arrows"][0].pop("inv"),
     ("/groupoid/arrows/0", "'inv' is a required property")),
])
def test_schema_errors_follow_jsonschema(mutate, error):
    doc = mutated("z2", mutate)
    assert_schema_check_agrees(doc)
    assert schema_error(doc, io._WORKSPACE) == error


def test_least_json_path_is_reported_first():
    # as strings, $.arrows[10].r sorts before $.arrows[2].d
    arrows = [{"id": "a%d" % i, "d": "e", "r": "e", "inv": "a%d" % i}
              for i in range(11)]
    arrows[2]["d"] = 0
    arrows[10]["r"] = 0
    doc = {"schema": 1, "identities": ["e"], "arrows": arrows,
           "compose": [], "order": []}
    assert_schema_check_agrees(doc)
    with pytest.raises(SchemaViolation) as exc:
        io.load(doc)
    assert (exc.value.pointer, exc.value.message) == (
        "/arrows/10/r", "0 is not of type 'string'")


# ---------------------------------------------------------------- CLI


def test_cli_validate_fixture(capsys):
    assert main(["validate", "clifford"]) == 0
    out = capsys.readouterr().out
    assert "valid ordered groupoid" in out


def test_cli_validate_rejects(tmp_path, capsys):
    doc = mutated("clifford", lambda d: d["groupoid"]["compose"].append(
        ["s", "s", "f"]))
    doc["groupoid"]["compose"].remove(["s", "s", "1"])
    p = tmp_path / "bad.json"
    p.write_text(io.dumps(doc))
    assert main(["validate", str(p), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False
    assert {"axiom": "compose-typing", "witness": ["s", "s", "f"]} in (
        payload["violations"])


def test_cli_validate_reports_arrow_typing(tmp_path, capsys):
    # s's inverse named as t: t is not s's inverse, and s s^-1 is no unit
    doc = mutated("clifford",
                  lambda d: d["groupoid"]["arrows"][0].update(inv="t"))
    p = tmp_path / "bad.json"
    p.write_text(io.dumps(doc))
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr().out == (
        "arrow-typing violated, witness ('s',)\n"
        "inverse-law violated, witness ('s',)\n")


def test_cli_validate_order_ignores_hash_seed(tmp_path):
    # without e<1 and f<1 twofold breaks OG2 many times over; the
    # violation list must not follow the iteration order of string sets
    doc = mutated("twofold", lambda d: [
        d["groupoid"]["order"].remove(pair) for pair in (["e", "1"],
                                                         ["f", "1"])])
    p = tmp_path / "bad.json"
    p.write_text(io.dumps(doc))
    src = os.path.dirname(os.path.dirname(oghom.__file__))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c",
             "import sys; from oghom.cli import main; sys.exit(main())",
             "validate", str(p), "--json"],
            env=env, capture_output=True, timeout=60)
        assert run.returncode == 1, run.stderr
        outs.append(run.stdout)
    assert b'"OG2"' in outs[0]
    assert outs[0] == outs[1]


def test_cli_exit_code_on_bad_input(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{")
    assert main(["validate", str(p)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert "input error" in err


def test_cli_bad_group_spec_is_input_error(tmp_path, capsys):
    doc = mutated("clifford", lambda d: d["modules"]["sign"]["groups"]
                  .update({"1": {"ngens": 2, "relations": [[1]]}}))
    assert_schema_check_agrees(doc)
    p = tmp_path / "bad.json"
    p.write_text(io.dumps(doc))
    assert main(["colim", str(p), "--module", "sign"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error at /modules/sign/groups/1: ")
    assert "ngens rows" in err


@pytest.mark.parametrize("spec", [{"rank": 10 ** 30},
                                  {"ngens": 10 ** 30, "relations": []}])
def test_cli_oversized_group_is_input_error(tmp_path, capsys, spec):
    # refused at load, before a matrix of that size is asked for
    doc = mutated("clifford", lambda d: d["modules"]["sign"]["groups"]
                  .update({"1": spec}))
    assert_schema_check_agrees(doc)
    p = tmp_path / "huge.json"
    p.write_text(io.dumps(doc))
    assert main(["homology", str(p), "--module", "sign"]) == 2
    err = capsys.readouterr().err
    assert err == ("input error at /modules/sign/groups/1: group has %d"
                   " generators; at most %d are supported\n"
                   % (10 ** 30, MAX_CHAIN_RANK))


@pytest.mark.parametrize("mutate,pointer,message", [
    (lambda d: d["modules"]["sign"]["groups"].update(
        {"1": {"ngens": 2, "relations": [[1], [1, 2]]}}),
     "/modules/sign/groups/1", "ragged relation matrix"),
    (lambda d: d["groupoid"]["order"].append(["nope", "s"]),
     "/groupoid/order/0/0", "unresolved id 'nope'"),
    (lambda d: d["groupoid"]["arrows"][0].update(d="nope"),
     "/groupoid/arrows/0/d", "unresolved id 'nope'"),
    (lambda d: d["groupoid"]["arrows"][0].update(inv="nope"),
     "/groupoid/arrows/0/inv", "unresolved id 'nope'"),
    (lambda d: d["modules"]["sign"]["groups"].update(zz={"rank": 1}),
     "/modules/sign/groups/zz", "unresolved id 'zz'"),
    (lambda d: d["modules"]["sign"]["poset_maps"].update({"1f": [[1]]}),
     "/modules/sign/poset_maps/1f", "key must look like upper>lower"),
    (lambda d: d["modules"]["sign"]["poset_maps"].update({"1>nope": [[1]]}),
     "/modules/sign/poset_maps/1>nope", "unresolved id 'nope'"),
])
def test_cli_input_error_prints_pointer_once(tmp_path, capsys, mutate,
                                             pointer, message):
    doc = mutated("z2", mutate)
    assert_schema_check_agrees(doc)
    p = tmp_path / "bad.json"
    p.write_text(io.dumps(doc))
    assert main(["colim", str(p), "--module", "sign"]) == 2
    err = capsys.readouterr().err
    assert err == "input error at %s: %s\n" % (pointer, message)


def test_cli_top_level_array_is_input_error(tmp_path, capsys):
    p = tmp_path / "array.json"
    p.write_text(io.dumps([fixtures.doc("z2")]))
    assert main(["colim", str(p), "--module", "sign"]) == 2
    assert capsys.readouterr().err == (
        "input error at /: top-level document must be an object\n")


def test_cli_overlong_integer_literal_is_input_error(tmp_path, capsys):
    # json.load refuses integer literals longer than int() converts
    doc = mutated("clifford", lambda d: d["modules"]["const"]["arrow_maps"]
                  .update(s=[[123456789]]))
    p = tmp_path / "long.json"
    p.write_text(io.dumps(doc).replace("123456789", "9" * 5000))
    assert main(["homology", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error at /: invalid JSON: ")
    assert err.count("\n") == 1


def cli(argv):
    """(exit code, stderr) of one in-process CLI run."""
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def nodes(value, path=()):
    """(path, value) of `value` and of everything nested in it."""
    yield path, value
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


NAMES = ["a b", "e>f", "", "x'y", "é", "_1", "zz", "z\n", "1", "a/b", "~"]
VALUES = [True, False, None, "x", [], {}, -1, 0, 1.5, 2.0, 10 ** 30,
          [[1]], {"rank": 1}]
BAD_GROUPS = [{}, {"rank": 1, "ngens": 1}, {"relations": []},
              {"rank": 1, "torsion": [2], "x": 0}, {"ngens": 1},
              {"rank": -1}, {"rank": 1, "torsion": [1]},
              {"ngens": 2, "relations": [[1]]}]
# stands for an integer literal longer than json.load converts
OVERLONG = 987654321987654321987


def mutate_once(data, doc):
    """Apply one drawn mutation to `doc` in place."""
    kind = data.draw(st.sampled_from(
        ["remove", "add", "swap", "bool", "float", "huge", "ragged",
         "group", "module name", "identity name"]))
    everything = list(nodes(doc))
    ints = [p for p, v in everything if type(v) is int]
    if kind == "remove":
        dicts = [v for _, v in everything if isinstance(v, dict) and v]
        if dicts:
            d = data.draw(st.sampled_from(dicts))
            del d[data.draw(st.sampled_from(sorted(d)))]
    elif kind == "add":
        d = data.draw(st.sampled_from(
            [v for _, v in everything if isinstance(v, dict)]))
        d[data.draw(st.sampled_from(NAMES))] = copy.deepcopy(
            data.draw(st.sampled_from(VALUES)))
    elif kind == "swap":
        path = data.draw(st.sampled_from([p for p, _ in everything if p]))
        at(doc, path[:-1])[path[-1]] = copy.deepcopy(
            data.draw(st.sampled_from(VALUES)))
    elif kind in ("bool", "float", "huge") and ints:
        path = data.draw(st.sampled_from(ints))
        value = at(doc, path)
        at(doc, path[:-1])[path[-1]] = {
            "bool": lambda: bool(value),
            "float": lambda: float(value),
            "huge": lambda: data.draw(st.sampled_from(
                [10 ** 30, -10 ** 30, OVERLONG])),
        }[kind]()
    elif kind == "ragged":
        rows = [row for _, v in everything
                if isinstance(v, list) and v
                and all(isinstance(row, list) for row in v)
                for row in v]
        if rows:
            row = data.draw(st.sampled_from(rows))
            if row and data.draw(st.booleans()):
                row.pop()
            else:
                row.append(1)
    elif kind == "group":
        specs = [p for p, _ in everything if len(p) > 1 and p[-2] == "groups"]
        if specs:
            path = data.draw(st.sampled_from(specs))
            at(doc, path[:-1])[path[-1]] = copy.deepcopy(
                data.draw(st.sampled_from(BAD_GROUPS)))
    elif kind == "module name" and isinstance(doc.get("modules"), dict):
        modules = doc["modules"]
        if modules:
            old = data.draw(st.sampled_from(sorted(modules)))
            modules[data.draw(st.sampled_from(NAMES))] = modules.pop(old)
    elif kind == "identity name":
        ids = [v for p, v in everything
               if len(p) > 1 and p[-2] == "identities" and isinstance(v, str)]
        if ids:
            new = renamed(doc, data.draw(st.sampled_from(ids)),
                          data.draw(st.sampled_from(NAMES)))
            doc.clear()
            doc.update(new)


@given(st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_documents_never_crash(tmp_path, data):
    doc = copy.deepcopy(fixtures.doc(data.draw(st.sampled_from(
        fixtures.names()))))
    for _ in range(data.draw(st.integers(1, 3))):
        mutate_once(data, doc)
    text = io.dumps(doc)
    if str(OVERLONG) in text:
        text = text.replace(str(OVERLONG), "9" * 5000)
    else:
        assert_schema_check_agrees(doc)
    p = tmp_path / "fuzzed.json"
    p.write_text(text)
    for argv in (["validate", str(p)], ["homology", str(p)]):
        # an exception escaping main would fail the test here
        code, err = cli(argv)
        if code == 2:
            assert err.startswith("input error at /")
        elif code == 1:
            # a well-formed document whose data breaks an axiom or
            # functoriality fails a mathematical check
            assert err == "" or err.startswith("check failed: ")
        else:
            assert code == 0 and err == ""


def mutate_edge(data, doc):
    """Apply one drawn edit at a keyword's edge to `doc` in place: a
    boolean or an integral float for an integer, a negative integer, the
    constant 1 as true or 1.0, a key added or removed, a triple or pair
    one item too long or too short, or a group spec that matches
    neither branch of the group schema."""
    kind = data.draw(st.sampled_from(
        ["bool", "float", "negative", "const", "extra", "missing",
         "length", "group"]))
    everything = list(nodes(doc))
    ints = [p for p, v in everything if type(v) is int]
    if kind in ("bool", "float", "negative") and ints:
        path = data.draw(st.sampled_from(ints))
        value = at(doc, path)
        at(doc, path[:-1])[path[-1]] = {
            "bool": bool(value), "float": float(value),
            "negative": -1 - abs(value)}[kind]
    elif kind == "const":
        target = data.draw(st.sampled_from(
            [v for p, v in everything
             if p in ((), ("groupoid",)) and isinstance(v, dict)]))
        target["schema"] = data.draw(st.sampled_from([True, 1.0, 1, 2]))
    elif kind == "extra":
        d = data.draw(st.sampled_from(
            [v for _, v in everything if isinstance(v, dict)]))
        d[data.draw(st.sampled_from(NAMES))] = data.draw(
            st.sampled_from(["1", 1]))
    elif kind == "missing":
        dicts = [v for _, v in everything if isinstance(v, dict) and v]
        d = data.draw(st.sampled_from(dicts))
        del d[data.draw(st.sampled_from(sorted(d)))]
    elif kind == "length":
        rows = [v for p, v in everything if len(p) > 1
                and p[-2] in ("compose", "order") and isinstance(v, list)]
        if rows:
            row = data.draw(st.sampled_from(rows))
            if row and data.draw(st.booleans()):
                row.pop()
            else:
                row.append(row[0] if row else "1")
    else:
        specs = [p for p, _ in everything if len(p) > 1 and p[-2] == "groups"]
        if specs:
            path = data.draw(st.sampled_from(specs))
            at(doc, path[:-1])[path[-1]] = copy.deepcopy(
                data.draw(st.sampled_from(BAD_GROUPS)))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_compiled_schema_tests_agree_at_keyword_edges(data):
    doc = copy.deepcopy(fixtures.doc(data.draw(st.sampled_from(
        fixtures.names()))))
    for _ in range(data.draw(st.integers(1, 3))):
        mutate_edge(data, doc)
    assert_schema_check_agrees(doc)
    if isinstance(doc.get("groupoid"), dict):
        assert_schema_check_agrees(doc["groupoid"])


def keyword_calls(monkeypatch):
    """The path of each call into io._KEYWORDS from now on."""
    paths = []

    def counted(check):
        def call(value, arg, schema, path, errors):
            paths.append(path)
            return check(value, arg, schema, path, errors)
        return call

    for keyword, check in list(io._KEYWORDS.items()):
        monkeypatch.setitem(io._KEYWORDS, keyword, counted(check))
    return paths


def test_valid_documents_make_no_keyword_call(monkeypatch):
    # each schema dict's compiled test accepts its whole subtree
    docs = [fixtures.doc(name) for name in fixtures.names()]
    g0 = random_og(random.Random(1648), 16, 48).groupoid
    assert len(g0.arrows) == 408
    docs.append(io.groupoid_to_doc(g0))
    paths = keyword_calls(monkeypatch)
    for doc in docs:
        io.load(doc)
    assert paths == []


def test_bad_entry_is_walked_alone(monkeypatch):
    # only the bad compose entry and the objects enclosing it are walked
    doc = io.groupoid_to_doc(random_og(random.Random(1648), 16, 48).groupoid)
    i = len(doc["compose"]) // 2
    doc["compose"][i][1] = 7
    workspace = {"schema": 1, "groupoid": doc,
                 "modules": fixtures.doc("z2")["modules"]}
    for top, base in ((doc, ()), (workspace, ("groupoid",))):
        paths = keyword_calls(monkeypatch)
        with pytest.raises(SchemaViolation) as exc:
            io.load(top)
        monkeypatch.undo()
        bad = base + ("compose", i, 1)
        assert exc.value.pointer == io.pointer("", *bad)
        assert set(paths) == {bad[:n] for n in range(len(bad) + 1)}


def test_runtime_runs_without_jsonschema(tmp_path):
    # jsonschema is a test-only oracle: the CLI loads, checks and
    # refuses documents with the module blocked from import
    bad = tmp_path / "bad.json"
    bad.write_text(io.dumps(mutated(
        "clifford", lambda d: d["groupoid"]["arrows"][0].update(d=1))))
    src = os.path.dirname(os.path.dirname(oghom.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(code, *argv):
        return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    blocked = ("import sys; sys.modules['jsonschema'] = None;"
               " from oghom.cli import main; sys.exit(main())")
    ok = run(blocked, "homology", "clifford")
    assert ok.returncode == 0, ok.stderr
    refused = run(blocked, "validate", str(bad))
    assert refused.returncode == 2
    assert refused.stderr == ("input error at /groupoid/arrows/0/d:"
                              " 1 is not of type 'string'\n")
    imported = run("import sys, oghom.io;"
                   " print('jsonschema' in sys.modules)")
    assert imported.stdout == "False\n", imported.stderr


@pytest.mark.parametrize("command", ["homology", "colim"])
def test_cli_reads_integral_float_rank(tmp_path, capsys, command):
    # JSON Schema counts 1.0 as an integer, so the rank must load as 1
    outs = []
    for rank in (1, 1.0):
        doc = mutated("z2", lambda d: d["modules"]["sign"]["groups"]
                      .update({"1": {"rank": rank}}))
        assert_schema_check_agrees(doc)
        p = tmp_path / ("z2-%r.json" % rank)
        p.write_text(io.dumps(doc))
        assert ('"rank": %r' % rank) in p.read_text()
        assert main([command, str(p), "--module", "sign"]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] and outs[0].out


@pytest.mark.parametrize("degrees", ["x", "-1", ",", "0,-2"])
def test_cli_bad_degrees_is_usage_error(degrees, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "theorem", "z2", "--degrees", degrees])
    assert exc.value.code == 2
    assert "--degrees" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option", [
    (["homology", "z2", "--max-degree", "-1"], "--max-degree"),
    (["homology", "z2", "--max-degree", "x"], "--max-degree"),
    (["gen", "--seed", "x"], "--seed"),
    (["gen", "--max-group", "0"], "--max-group"),
    (["gen", "--identities", "-3"], "--identities"),
    (["gen", "--identities", "0"], "--identities"),
    (["gen", "--identities", "x"], "--identities"),
])
def test_cli_bad_integer_option_is_usage_error(argv, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument %s: " % option in err
    assert "Traceback" not in err


def test_cli_smallest_integer_options(capsys):
    assert main(["homology", "z2", "--module", "const",
                 "--max-degree", "0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["modules"]["const"] == [
        {"degree": 0, "rank": 1, "torsion": []}]
    assert main(["gen", "--identities", "1", "--max-group", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["identities"] == ["e0"] and doc["arrows"] == []


def test_cli_beta(capsys):
    assert main(["beta", "twofold", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["principally_directed"] is False
    assert payload["counterexample"]["kind"] == "beta-chain"
    assert main(["beta", "clifford"]) == 0
    out = capsys.readouterr().out
    assert "class 1: 1 f" in out and "principally directed: yes" in out


def test_cli_quotient(capsys):
    assert main(["quotient", "clifford", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    kind, cand, _ = io.load(doc)
    assert kind == "groupoid" and validate(cand).ok
    assert main(["quotient", "twofold"]) == 1
    err = capsys.readouterr().err
    assert "counterexample" in err


def test_cli_lcat(capsys):
    assert main(["lcat", "clifford"]) == 0
    out = capsys.readouterr().out
    assert "left cancellative: yes" in out
    assert "(1, t): 1 -> f" in out


def test_cli_colim(capsys):
    assert main(["colim", "clifford", "--module", "sign"]) == 0
    out = capsys.readouterr().out
    assert "sign: class 1: rank 1 torsion []" in out
    assert main(["colim", "clifford", "--module", "nope"]) == 2


def test_cli_homology(capsys):
    assert main(["homology", "clifford", "--module", "sign",
                 "--max-degree", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["modules"]["sign"] == [
        {"degree": 0, "rank": 0, "torsion": [2]},
        {"degree": 1, "rank": 0, "torsion": []},
        {"degree": 2, "rank": 0, "torsion": [2]},
    ]


def test_cli_check_theorem(capsys):
    assert main(["check", "theorem", "clifford", "--degrees", "1"]) == 0
    out = capsys.readouterr().out
    assert "theorem: pass" in out


@pytest.mark.parametrize("kind", ["theorem", "colim-composition",
                                  "adjunction"])
def test_cli_check_builds_one_quotient(kind, monkeypatch, capsys):
    # clifford carries two modules; both share one quotient
    beta = sys.modules["oghom.beta"]
    calls = []
    decide = beta.is_principally_directed

    def counted(g0):
        calls.append(g0)
        return decide(g0)

    monkeypatch.setattr(beta, "is_principally_directed", counted)
    assert len(fixtures.doc("clifford")["modules"]) == 2
    main(["check", kind, "clifford", "--json"])
    capsys.readouterr()
    assert len(calls) == 1


def test_cli_check_colim_composition(capsys):
    assert main(["check", "colim-composition", "chain2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_cli_check_adjunction_free_coefficients(capsys):
    # clifford's bundled modules are free; the triangle identities need
    # no finite hom sets
    assert main(["check", "adjunction", "clifford", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["results"] == [
        {"module": m, "colim_triangle": True, "expand_triangle": True}
        for m in ("const", "sign")]


def test_cli_check_adjunction_has_no_hom_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "adjunction", "clifford", "--hom-bound", "64"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --hom-bound" in capsys.readouterr().err


def test_cli_gen_roundtrip(tmp_path, capsys):
    assert main(["gen", "--seed", "5", "--identities", "3", "--module"]) == 0
    text = capsys.readouterr().out
    p = tmp_path / "gen.json"
    p.write_text(text)
    assert main(["validate", str(p)]) == 0
    capsys.readouterr()
    assert main(["check", "adjunction", str(p), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    row = payload["results"][0]
    assert row["colim_triangle"] is True and row["expand_triangle"] is True


def test_cli_gen_free_mode(capsys):
    assert main(["gen", "--seed", "9", "--free"]) == 0
    doc = json.loads(capsys.readouterr().out)
    kind, cand, _ = io.load(doc)
    assert kind == "groupoid" and validate(cand).ok
    # a module cannot ride along without the directed guarantee
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--seed", "9", "--free", "--module"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
