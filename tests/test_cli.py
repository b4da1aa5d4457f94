import json

import pytest

from kgraphs import cli, docio, families
from kgraphs.monoid import DEFAULT_BOUNDS, t_equal


@pytest.fixture
def pair_tail_doc(tmp_path):
    p = tmp_path / "loop_pair_tail.json"
    p.write_text(docio.dump_graph(families.loop_pair_tail()) + "\n")
    return str(p)


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(pair_tail_doc, capsys):
    code, out, _ = run(["validate", pair_tail_doc], capsys)
    assert code == cli.EXIT_OK
    assert "valid" in out


def test_validate_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{")
    code, _, err = run(["validate", str(p)], capsys)
    assert code == cli.EXIT_PARSE


def test_validate_bad_color(tmp_path, capsys):
    p = tmp_path / "badcolor.json"
    p.write_text(json.dumps({
        "format_version": 1, "k": 2, "vertices": ["v"],
        "edges": [{"id": "e", "color": 5, "range": "v", "source": "v"}],
        "squares": []}))
    code, _, _ = run(["validate", str(p)], capsys)
    assert code == cli.EXIT_PARSE


def test_validate_invalid_squares(tmp_path, capsys):
    p = tmp_path / "nonbij.json"
    p.write_text(json.dumps({
        "format_version": 1, "k": 2, "vertices": ["v"],
        "edges": [{"id": "f1", "color": 0, "range": "v", "source": "v"},
                  {"id": "f2", "color": 0, "range": "v", "source": "v"},
                  {"id": "g", "color": 1, "range": "v", "source": "v"}],
        "squares": [{"lo": ["f1", "g"], "hi": ["g", "f1"]},
                    {"lo": ["f2", "g"], "hi": ["g", "f1"]}]}))
    code, _, _ = run(["validate", str(p)], capsys)
    assert code == cli.EXIT_INVALID


def test_eq_exit_codes(pair_tail_doc, capsys):
    code, out, _ = run(["eq", pair_tail_doc, "v(0,0)", "u(1,0)"], capsys)
    assert code == cli.EXIT_OK and out.startswith("Yes")
    code, out, _ = run(["eq", "one-vertex-3x2", "v(0,0)", "v(1,0)"], capsys)
    assert code == cli.EXIT_NO and out.startswith("No")
    code, out, _ = run(["eq", "cycle4", "u(0,0)", "u(4,0)"], capsys)
    assert code == cli.EXIT_OK
    code, _, _ = run(["eq", pair_tail_doc, "v(1)", "u(1,0)"], capsys)
    assert code == cli.EXIT_PARSE


def test_eq_matches_library(pair_tail_doc, capsys):
    g = families.loop_pair_tail()
    a = docio.parse_element("v(0,0)", 2)
    b = docio.parse_element("u(1,0)", 2)
    lib = t_equal(g, a, b)
    code, out, _ = run(["eq", pair_tail_doc, "v(0,0)", "u(1,0)",
                        "--format", "structured"], capsys)
    doc = json.loads(out)
    assert doc["verdict"] == lib.value
    assert doc["certificate"] == lib.certificate.kind


def test_classify_text_and_strict(pair_tail_doc, capsys):
    code, out, _ = run(["classify", pair_tail_doc], capsys)
    assert code == cli.EXIT_OK
    assert "gradedBasicIdealSimple: yes" in out
    assert "simple: no" in out
    assert "semisimple: no" in out
    # looptail has an unknown aperiodicity verdict -> strict exit
    code, _, _ = run(["classify", "looptail", "--strict"], capsys)
    assert code == cli.EXIT_STRICT_UNKNOWN


def test_classify_structured(capsys):
    code, out, _ = run(["classify", "one-vertex-3x2", "--format", "structured"],
                       capsys)
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["properties"]["simple"]["verdict"] == "yes"
    assert doc["properties"]["semisimple"]["verdict"] == "no"


def test_gen_and_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "cycle4.json"
    code, _, _ = run(["gen", "cycle4", str(out_path)], capsys)
    assert code == cli.EXIT_OK
    g = docio.load_graph(out_path.read_text())
    assert len(g.vertices) == 4 and len(g.edges) == 8
    code, _, _ = run(["gen", "no-such-family"], capsys)
    assert code == cli.EXIT_PARSE


def test_export_dot(pair_tail_doc, capsys):
    code, out, _ = run(["export-dot", pair_tail_doc], capsys)
    assert code == cli.EXIT_OK
    assert out.count("->") == 4


def test_lattice_and_closure(capsys):
    code, out, _ = run(["lattice", "looptail"], capsys)
    assert code == cli.EXIT_OK
    assert "3 hereditary saturated sets" in out
    code, out, _ = run(["closure", "loop-pair-tail", "u"], capsys)
    assert code == cli.EXIT_OK
    assert "u, v" in out


def test_linepoints_lazy(capsys):
    code, out, _ = run(["linepoints", "grid2", "--depth", "3",
                        "--format", "structured"], capsys)
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["classes"] == 1
    assert len(doc["linePoints"]) == 10


def test_bounds_env_override(monkeypatch):
    monkeypatch.setenv("KGRAPHS_REWRITE", "5")
    monkeypatch.setenv("KGRAPHS_SAMPLE_DEPTH", "9")
    b = cli.bounds_from_env()
    assert b.rewrite == 5 and b.sample_depth == 9
    assert b.push == DEFAULT_BOUNDS.push


def test_eq_faults_end_in_exit_codes(monkeypatch, capsys):
    code, _, err = run(["eq", "cycle4", "nope(0,0)", "u(0,0)"], capsys)
    assert code == cli.EXIT_PARSE and "unknown vertex 'nope'" in err
    # lazy families are named over their sampled window
    code, out, _ = run(["eq", "grid2", "0|0(0,0)", "0|0(1,0)"], capsys)
    assert code == cli.EXIT_NO and out.startswith("No")
    for bad in ("abc", "-1"):
        monkeypatch.setenv("KGRAPHS_REWRITE", bad)
        code, _, err = run(["eq", "cycle4", "u(0,0)", "u(4,0)"], capsys)
        assert code == cli.EXIT_PARSE and "KGRAPHS_REWRITE" in err
        code, _, _ = run(["classify", "cycle4"], capsys)
        assert code == cli.EXIT_PARSE
