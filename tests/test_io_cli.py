"""JSON schemas, pointers, canonical round trips, and the CLI."""

import copy
import json

import pytest

from oghom import fixtures, io
from oghom.cli import main
from oghom.errors import DanglingReference, SchemaViolation
from oghom.groupoid import OrderedGroupoid, validate
from oghom.lcat import build_lcat


def mutated(name, mutate):
    doc = copy.deepcopy(fixtures.doc(name))
    mutate(doc)
    return doc


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
    with pytest.raises(kind) as exc:
        io.load(mutated("z2", mutate))
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


def test_group_specs():
    g = io.group_from_spec({"rank": 1, "torsion": [2, 4]})
    assert g.canonical_form() == (1, (2, 4))
    g2 = io.group_from_spec({"ngens": 2, "relations": [[2, 0], [0, 3]]})
    assert g2.canonical_form() == (0, (6,))
    with pytest.raises(SchemaViolation):
        io.group_from_spec({"ngens": 2, "relations": [[1], [1, 2]]})
    # unit torsion is screened out by the document schema itself
    with pytest.raises(SchemaViolation) as exc:
        io.load(mutated("z2", lambda d: d["modules"]["sign"]["groups"]
                        .update({"1": {"rank": 0, "torsion": [1]}})))
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
    p = tmp_path / "bad.json"
    p.write_text(io.dumps(doc))
    assert main(["colim", str(p), "--module", "sign"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error at /modules/sign/groups/1: ")
    assert "ngens rows" in err


@pytest.mark.parametrize("degrees", ["x", "-1", ",", "0,-2"])
def test_cli_bad_degrees_is_usage_error(degrees, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "theorem", "z2", "--degrees", degrees])
    assert exc.value.code == 2
    assert "--degrees" in capsys.readouterr().err


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


def test_cli_check_colim_composition(capsys):
    assert main(["check", "colim-composition", "chain2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_cli_check_adjunction_needs_finite(capsys):
    # clifford's bundled modules are free, so enumeration must refuse
    assert main(["check", "adjunction", "clifford"]) == 1
    assert "finite" in capsys.readouterr().err


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
    assert row["left_count"] == row["right_count"]


def test_cli_gen_free_mode(capsys):
    assert main(["gen", "--seed", "9", "--free"]) == 0
    doc = json.loads(capsys.readouterr().out)
    kind, cand, _ = io.load(doc)
    assert kind == "groupoid" and validate(cand).ok
    # a module cannot ride along without the directed guarantee
    assert main(["gen", "--seed", "9", "--free", "--module"]) == 2
