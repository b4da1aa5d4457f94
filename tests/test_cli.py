import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_invalid_documents_exit_2(tmp_path, capsys):
    pair_tail = docio.graph_to_document(families.loop_pair_tail())
    del pair_tail["squares"][0]
    cycle4 = docio.graph_to_document(families.cycle_pullback())
    cycle4["squares"] = []
    paths = {}
    for name, doc in (("pair_tail", pair_tail), ("cycle4", cycle4)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    for argv in (["validate", str(paths["pair_tail"])],
                 ["classify", str(paths["pair_tail"])],
                 ["eq", str(paths["pair_tail"]), "u(0,0)", "u(1,0)"],
                 ["lattice", str(paths["pair_tail"])],
                 ["classify", str(paths["cycle4"])]):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_INVALID, argv
        if argv[0] != "validate":
            assert out == "" and err.startswith("invalid graph: "), argv


def test_semigroup_cap_gives_unknown(tmp_path, capsys, cycles_3_to_13):
    p = tmp_path / "cycles.json"
    p.write_text(docio.dump_graph(cycles_3_to_13) + "\n")
    code, out, _ = run(["classify", str(p), "--format", "structured"], capsys)
    assert code == cli.EXIT_OK
    atomic = json.loads(out)["properties"]["atomic"]
    assert atomic["verdict"] == "unknown" and "SEMIGROUP_CAP" in atomic["note"]
    code, _, _ = run(["classify", str(p), "--strict"], capsys)
    assert code == cli.EXIT_STRICT_UNKNOWN
    code, _, err = run(["closure", str(p), "c3.0"], capsys)
    assert code == cli.EXIT_UNKNOWN and "4096 states" in err


def test_lattice_limits_exit_codes(tmp_path, capsys):
    # a valid graph past LATTICE_LIMIT is a search limit (unknown), and a
    # lazy family has no finite lattice to list (usage error, as in gen)
    p = tmp_path / "grid44.json"
    p.write_text(docio.dump_graph(families.finite_grid(2, (4, 4))) + "\n")
    assert run(["validate", str(p)], capsys)[0] == cli.EXIT_OK
    code, out, err = run(["lattice", str(p)], capsys)
    assert code == cli.EXIT_UNKNOWN and out == "" and "limited to 20" in err
    code, out, _ = run(["lattice", "grid2"], capsys)
    assert code == cli.EXIT_PARSE and out == ""


def test_flags_take_only_nonnegative_integers(capsys):
    for argv in (["classify", "fan3", "--bound", "-1"],
                 ["classify", "cycle4", "--depth", "1.5"],
                 ["eq", "cycle4", "u(0,0)", "u(4,0)", "--bound", "x"],
                 ["closure", "cycle4", "u", "--depth", "-2"],
                 ["linepoints", "bratteli", "--depth", "-1"]):
        code, _, err = run(argv, capsys)
        assert code == cli.EXIT_PARSE, argv
        assert "must be a nonnegative integer" in err
    code, _, _ = run(["linepoints", "grid2", "--depth", "0"], capsys)
    assert code == cli.EXIT_OK


def test_linepoints_past_the_leaf_depth_is_unknown(monkeypatch, capsys):
    # at leaf depth 0 the branching root counts as a leaf, but its orbit branches
    monkeypatch.setenv("KGRAPHS_LEAF_DEPTH", "0")
    code, _, err = run(["linepoints", "bratteli", "--depth", "0"], capsys)
    assert code == cli.EXIT_UNKNOWN and "is not a leaf" in err


def test_usage_errors_exit_as_parse_errors(capsys):
    for argv in (["eq", "cycle4"], ["no-such-command"], [],
                 ["classify", "cycle4", "--no-such-flag"],
                 ["eq", "cycle4", "u(0,0)", "u(0,0)", "--mode", "fast"]):
        code, _, err = run(argv, capsys)
        assert code == cli.EXIT_PARSE, argv
        assert "usage:" in err
    for argv in (["--help"], ["classify", "--help"]):
        code, out, _ = run(argv, capsys)
        assert code == cli.EXIT_OK and "usage:" in out


# ---------------------------------------------------------------------------
# fuzzing: every input ends in a documented exit code

_JUNK = st.sampled_from([None, "", "x", -1, 0, 1.5, 3, True, [], {}, ["x"],
                         {"id": "x"}, "v(0,0)"])


@st.composite
def _broken_documents(draw):
    """A dumped random graph with one field dropped, retyped or corrupted."""
    doc = docio.graph_to_document(families.random_2graph(draw(st.integers(0, 39))))
    holder = draw(st.sampled_from([doc, *doc["edges"], *doc["squares"]]))
    key = draw(st.sampled_from(sorted(holder)))
    how = draw(st.sampled_from(["drop", "retype", "corrupt"]))
    if how == "drop":
        del holder[key]
    elif how == "retype" or not isinstance(holder[key], list) or not holder[key]:
        holder[key] = draw(_JUNK)
    else:
        items = holder[key]
        i = draw(st.integers(0, len(items) - 1))
        op = draw(st.sampled_from(["duplicate", "delete", "replace", "append"]))
        if op == "duplicate":
            items.append(items[i])
        elif op == "delete":
            del items[i]
        elif op == "replace":
            items[i] = draw(_JUNK)
        else:
            items.append(draw(_JUNK))
    return json.dumps(doc)


_FUZZ_GRAPHS = {"cycle4": ["u", "z", "w", "v"], "looptail": ["a", "b"],
                "fan3": ["u", "v", "w", "x"]}


def _vertex_names(graph):
    return st.sampled_from(_FUZZ_GRAPHS[graph] + ["nope", "", "u v", "(", "0"])


@st.composite
def _element_texts(draw, graph):
    """Element strings from the element grammar, with junk mixed in."""
    k = 3 if graph == "fan3" else 2

    def term():
        n = draw(st.lists(st.integers(-3, 3), min_size=k - 1, max_size=k + 1)
                 | st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        text = f"{draw(_vertex_names(graph))}({','.join(map(str, n))})"
        coeff = draw(st.sampled_from(["", "*1", "*3", "*0", "*x"]))
        return text + coeff

    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["0", "", "+", "u(", "u(0,0", "u()", "*2"])
                    | st.text(max_size=8))
    return " + ".join(term() for _ in range(draw(st.integers(1, 2))))


_FIELDS = [f"KGRAPHS_{f.upper()}" for f in DEFAULT_BOUNDS.__dataclass_fields__]


@st.composite
def _env_values(draw):
    names = draw(st.lists(st.sampled_from(_FIELDS), max_size=2, unique=True))
    values = st.integers(0, 8).map(str) | st.sampled_from(["-1", "-7", "x", "", " 3", "1.5", "1e3"])
    return {name: draw(values) for name in names}


@st.composite
def _cli_inputs(draw, path):
    kind = draw(st.sampled_from(["validate", "eq", "closure"]))
    if kind == "validate":
        return ["validate", path], {}, draw(_broken_documents())
    graph = draw(st.sampled_from(sorted(_FUZZ_GRAPHS)))
    if kind == "eq":
        argv = ["eq", graph, draw(_element_texts(graph)), draw(_element_texts(graph))]
        if draw(st.booleans()):
            argv += ["--bound", draw(st.sampled_from(["0", "2", "-1", "x"]))]
        return argv, draw(_env_values()), None
    names = draw(st.lists(_vertex_names(graph), min_size=1, max_size=3))
    depth = draw(st.sampled_from(["0", "3", "-1", "x"]))
    return ["closure", graph, *names, "--depth", depth], {}, None


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzz_cli_ends_in_an_exit_code(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.json")
        argv, env, text = data.draw(_cli_inputs(path))
        if text is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for name in _FIELDS:
                os.environ.pop(name, None)
            os.environ.update(env)
            code = cli.main(argv)
    assert code in range(6), (argv, env)
