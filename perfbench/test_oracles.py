"""Each oracle rejects a deliberately wrong verdict.

    python3 perfbench/test_oracles.py        # or: python3 -m pytest perfbench

Where it can, a test first checks that the oracle accepts the program's own
output, then feeds it a wrong one and expects it rejected.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from kgraphs import Tri, families, kp_report, replay, t_equal  # noqa: E402
from kgraphs.monoid import TElement  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

B = workloads.BOUNDS


def gen(v, *n, c=1):
    return TElement.gen(v, n, c)


def report(name):
    g = families.FAMILIES[name]()
    return g, kp_report(g, B)


def flipped(rep, field, value):
    return replace(rep, **{field: Tri(value)})


def test_replay_rejects_a_forged_certificate():
    g = families.cycle_pullback()
    good = t_equal(g, gen("u", 0, 0), gen("u", 4, 0))
    assert good.is_yes and replay(g, good)
    forged = Tri("yes", replace(good.certificate, data={**good.certificate.data,
                                                        "b": gen("z", 0, 0)}))
    assert not replay(g, forged)


def test_level_oracle_decides_equality():
    data = oracles.GraphData(families.cycle_pullback())
    assert oracles.level_equal(data, gen("u", 0, 0), gen("u", 4, 0))
    assert oracles.level_equal(data, gen("u", 0, 0), gen("u", 1, 3))
    assert not oracles.level_equal(data, gen("u", 0, 0), gen("z", 0, 0))
    assert oracles.check_equal_verdict("yes", False, truth=False)
    assert oracles.check_equal_verdict("no", False, truth=True)
    assert not oracles.check_equal_verdict("unknown", False, truth=True)


def test_level_oracle_sees_a_singular_graph():
    # one vertex with one loop per color: every generator is the same class
    data = oracles.GraphData(families.random_single_vertex(_FixedRandom()))
    assert oracles.level_equal(data, gen("v", 0, 0), gen("v", 3, 1))


class _FixedRandom:
    """Stands in for random.Random: one loop of each color."""

    def randint(self, lo, hi):
        return 1

    def shuffle(self, xs):
        pass


def test_pairs_built_equal_never_get_no():
    assert oracles.check_equal_verdict("no", True)
    assert not oracles.check_equal_verdict("unknown", True)
    assert not oracles.check_equal_verdict("yes", True)


def test_order_a_below_a_plus_c():
    assert not oracles.check_leq_verdict("yes")
    assert oracles.check_leq_verdict("no")
    assert oracles.check_leq_verdict("unknown")


def test_graded_keys_decide_grid_equality():
    a, b = gen((0, 0), 0, 0), gen((1, 0), 1, 0)
    assert oracles.graded_keys(a) == oracles.graded_keys(b)
    assert oracles.graded_keys(a) != oracles.graded_keys(gen((0, 0), 1, 0))
    truth = oracles.graded_keys(a) == oracles.graded_keys(b)
    assert t_equal(families.grid(), a, b).value == "yes"
    assert oracles.check_equal_verdict("no", False, truth)


def test_cofinal_matches_single_vertex_closures():
    g, rep = report("looptail")
    assert rep.cofinal.value == "no" and not oracles.check_report(g, rep)
    assert oracles.check_report(g, flipped(rep, "cofinal", "yes"))
    g, rep = report("cycle4")
    assert rep.cofinal.value == "yes" and not oracles.check_report(g, rep)
    assert oracles.check_report(g, flipped(rep, "cofinal", "no"))


def test_atomic_matches_closure_of_leaves():
    g, rep = report("cycle4")
    assert rep.atomic.value == "yes"
    assert oracles.check_report(g, flipped(rep, "atomic", "no"))
    g, rep = report("one-vertex-3x3")
    assert rep.atomic.value == "no"
    assert oracles.check_report(g, flipped(rep, "atomic", "yes"))


def test_one_vertex_free_action():
    assert oracles.multiplicatively_independent(3, 2)
    assert not oracles.multiplicatively_independent(4, 8)
    assert not oracles.multiplicatively_independent(3, 3)
    g, rep = report("one-vertex-3x2")
    assert rep.free_action.value == "yes" and not oracles.check_report(g, rep)
    assert oracles.check_report(g, flipped(rep, "free_action", "no"))
    g, rep = report("one-vertex-3x3")
    assert rep.free_action.value == "no" and not oracles.check_report(g, rep)
    assert oracles.check_report(g, flipped(rep, "free_action", "yes"))


def test_periodic_witness_is_periodic():
    g, rep = report("cycle4")
    assert rep.periodic_witness is not None and not oracles.check_report(g, rep)
    a, _ = rep.periodic_witness
    assert oracles.check_report(g, replace(rep, periodic_witness=(a, (2, 0))))
    assert not oracles.check_report(g, replace(rep, periodic_witness=(a, (4, 0))))


def test_simple_is_cofinal_and_aperiodic():
    g, rep = report("one-vertex-3x2")
    assert rep.simple.value == "yes"
    assert oracles.check_report(g, flipped(rep, "simple", "unknown"))
    g, rep = report("cycle4")
    assert rep.simple.value == "no"
    assert oracles.check_report(g, flipped(rep, "simple", "yes"))


def test_free_action_implies_aperiodic():
    g, rep = report("one-vertex-3x2")
    bad = flipped(flipped(rep, "aperiodic", "no"), "simple", "no")
    assert any("free action" in f for f in oracles.check_report(g, bad))
    lazy, rep = report("grid2")
    assert not oracles.check_report(lazy, rep)
    bad = flipped(flipped(rep, "aperiodic", "no"), "simple", "no")
    assert oracles.check_report(lazy, bad)


def test_semisimple_is_no_without_sources():
    g, rep = report("cycle4")
    assert oracles.check_report(g, flipped(rep, "semisimple", "unknown"))
    assert oracles.check_report(g, flipped(rep, "semisimple", "yes"))


def test_membership_follows_the_vertex_set():
    h = frozenset({"b"})
    assert not oracles.check_membership("yes", "b", h)
    assert not oracles.check_membership("no", "a", h)
    assert oracles.check_membership("yes", "a", h)
    assert oracles.check_membership("no", "b", h)


def test_closure_oracle():
    data = oracles.GraphData(families.looptail())
    assert data.closure(["b"]) == frozenset({"b"})
    assert data.closure(["a"]) == frozenset({"a", "b"})
    assert oracles.check_closure({"a", "b"}, data.closure(["b"]))
    # saturation: v's only sources lie in {u}, so v joins the closure of u
    data = oracles.GraphData(families.loop_pair_tail())
    assert data.closure(["u"]) == frozenset({"u", "v"})


def test_cli_exit_codes_follow_the_library():
    assert not workloads.expect_exit(3)(3, "")
    assert workloads.expect_exit(3)(0, "")
    g, rep = report("loop-pair-tail")
    check = workloads.expect_report(rep)
    text = "".join(f"  {name}: {t.value}\n" for name, t in rep.verdicts().items())
    assert not check(0, text)
    assert check(0, text.replace("cofinal: yes", "cofinal: no"))
    assert check(5, text)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    print(f"{len(tests)} oracle tests passed")
