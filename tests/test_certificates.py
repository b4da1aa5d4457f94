"""Every certificate kind has a replayer bound to the verdicts it certifies,
and replay rejects a certificate under any other verdict."""

import ast
from pathlib import Path

import pytest

from kgraphs import families, tri
from kgraphs.classify import is_cofinal, kp_report
from kgraphs.lattice import ideal_membership, is_prime_ideal
from kgraphs.monoid import DEFAULT_BOUNDS, TElement, t_equal, t_equal_rewrite, t_leq
from kgraphs.tri import NO, YES, Certificate, Tri, no, replay, yes

SRC = Path(__file__).resolve().parent.parent / "src" / "kgraphs"


def _first_string(call: ast.Call):
    if call.args and isinstance(call.args[0], ast.Constant) and isinstance(call.args[0].value, str):
        return call.args[0].value
    return None


def certificate_kinds():
    """(kinds built by ``Certificate("<kind>", ...)``, {registered kind:
    the verdict names its ``register_replayer`` call declares})."""
    built, registered = set(), {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                continue
            kind = _first_string(node)
            if node.func.id == "Certificate" and kind is not None:
                built.add(kind)
            elif node.func.id == "register_replayer":
                assert kind is not None, f"{path.name}:{node.lineno}"
                registered[kind] = [getattr(a, "id", None) for a in node.args[1:]]
    return built, registered


def test_every_built_kind_has_a_replayer_and_declares_its_verdicts():
    built, registered = certificate_kinds()
    assert built == set(registered)  # no kind without a replayer, no dead replayer
    assert len(built) >= 37
    for kind, verdicts in registered.items():
        assert verdicts and set(verdicts) <= {"YES", "NO"}, kind
    assert set(tri._REPLAYERS) == set(registered)
    both = {kind for kind, (_, vs) in tri._REPLAYERS.items() if vs == {YES, NO}}
    assert both == {"graded_keys", "graded_order", "skew_rewrite"}


def flipped(t: Tri) -> Tri:
    return Tri(NO if t.is_yes else YES, t.certificate, t.note)


@pytest.mark.parametrize("family", sorted(families.FAMILIES))
def test_flipped_report_verdicts_do_not_replay(family):
    g = families.FAMILIES[family]()
    r = kp_report(g, DEFAULT_BOUNDS)
    decided = {name: t for name, t in r.verdicts().items() if not t.is_unknown}
    assert decided, family
    for name, t in decided.items():
        assert replay(g, t), name
        assert not replay(g, flipped(t)), name


def _query_verdicts():
    c4, lpt, lt = families.cycle_pullback(), families.loop_pair_tail(), families.looptail()
    fan, g2 = families.fan_3color(), families.grid(2)
    u, z = TElement.gen("u", (0, 0)), TElement.gen("z", (0, 0))
    x, v, w = (TElement.gen(name, (0, 0, 0)) for name in "xvw")
    expanded = TElement.from_pairs([((e.source, (1, 0, 0)), 1) for e in fan.out_edges("x", 0)])
    o, right = TElement.gen((0, 0), (0, 0)), TElement.gen((1, 0), (1, 0))
    return [
        (c4, t_equal(c4, u, z)), (c4, t_equal(c4, u, TElement.gen("u", (4, 0)))),
        (c4, t_leq(c4, u, TElement.gen("u", (4, 0)) + z)),
        (lpt, t_equal(lpt, u, TElement.gen("v", (0, 0)))),
        (fan, t_equal(fan, x, expanded)),
        (fan, t_equal(fan, v, w)), (fan, t_equal_rewrite(fan, v, w)),
        (g2, t_equal(g2, o, right)), (g2, t_equal(g2, o, TElement.gen((1, 0), (0, 0)))),
        (g2, t_leq(g2, o, right + o)), (g2, t_leq(g2, o, TElement.gen((1, 0), (0, 0)))),
        (lt, ideal_membership(lt, TElement.gen("a", (0, 0)), {"b"})),
        (lt, ideal_membership(lt, TElement.gen("b", (0, 0)), {"b"})),
        (lt, is_prime_ideal(lt, {"b"})), (lt, is_prime_ideal(lt, set(lt.vertices))),
    ]


def test_flipped_query_verdicts_do_not_replay():
    kinds = set()
    for g, t in _query_verdicts():
        assert not t.is_unknown and replay(g, t), (g.name, t)
        assert not replay(g, flipped(t)), (g.name, t.certificate.kind)
        kinds.add((t.value, t.certificate.kind))
    assert {("no", "kernel_stable"), ("yes", "level_equal"), ("yes", "equalizer"),
            ("yes", "order_equalizer"), ("yes", "skew_rewrite"), ("no", "skew_rewrite"),
            ("no", "trace_separates"),
            ("yes", "graded_keys"), ("no", "graded_keys"), ("yes", "graded_order"),
            ("no", "graded_order"), ("yes", "ideal_member"), ("no", "ideal_nonmember"),
            ("yes", "prime_tail"), ("no", "not_prime")} <= kinds


def test_skew_rewrite_needs_an_inner_verdict_of_its_own_value(fan3):
    v, w = TElement.gen("v", (0, 0, 0)), TElement.gen("w", (0, 0, 0))
    assert t_equal(fan3, v, w).certificate.kind == "trace_separates"
    t = t_equal_rewrite(fan3, v, w)
    assert t.is_no and t.certificate.kind == "skew_rewrite"
    inner = t.certificate.data["inner"]
    forged = no(Certificate("skew_rewrite", {**t.certificate.data, "inner": flipped(inner)}))
    assert not replay(fan3, forged)


def test_derived_certificates_check_what_their_parts_certify(cycle4):
    # cycle4 is cofinal but not semisimple: its cofinality verdict cannot
    # stand in for atomicity and freeness
    cofinal = is_cofinal(cycle4)
    assert cofinal.is_yes and cofinal.certificate.kind == "trivial_lattice"
    for data in ({"parts": (cofinal, cofinal)},
                 {"parts": (cofinal, cofinal), "of": ("atomic", "freeAction")}):
        assert not replay(cycle4, yes(Certificate("conjunction", data)))
    r = kp_report(cycle4, DEFAULT_BOUNDS)
    assert r.semisimple.is_no and r.semisimple.certificate.data["of"] == "freeAction"
    part = r.semisimple.certificate.data["part"]
    assert not replay(cycle4, no(Certificate("conjunction_fail", {"part": part, "of": "cofinal"})))
    assert not replay(cycle4, no(Certificate("conjunction_fail", {"part": part})))
    assert not replay(cycle4, yes(Certificate("free_action", {"inner": cofinal})))
    for t in r.verdicts().values():
        assert replay(cycle4, t)


def test_replay_past_the_semigroup_cap_rejects(cycles_3_to_13):
    # the semigroup outgrows its cap, so neither claim can be checked
    g = cycles_3_to_13
    assert not replay(g, yes(Certificate("trivial_lattice", {})))
    assert not replay(g, no(Certificate("proper_hs", {"h": ("c3.0", "c3.1", "c3.2")})))
    assert is_cofinal(g).is_unknown
