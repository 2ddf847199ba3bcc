"""Exact reference answers: longest mono paths, best colorings, arrowing."""
import itertools
import random

import pytest

from dipath_ramsey import (
    BudgetExceededError,
    EdgeColoring,
    OrientedGraph,
    SizeLimitError,
    arrowing_check,
    complete_symmetric,
    longest_mono_path,
    max_mono_path,
    min_max_mono_path,
    random_oriented_graph,
    transitive_tournament,
)


# -- per-color measurement -------------------------------------------------

def test_mono_paths_all_red_transitive():
    g = transitive_tournament(5)
    col = EdgeColoring(2, {e: 1 for e in g.edges()})
    res = longest_mono_path(g, col)
    assert res[1].value == 4
    assert res[2].value == 0
    assert res[2].witness.length == 0


def test_mono_paths_three_cycle_split():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    col = EdgeColoring(2, {(0, 1): 1, (1, 2): 1, (2, 0): 2})
    res = longest_mono_path(g, col)
    assert res[1].value == 2
    assert res[2].value == 1
    assert list(res[1].witness.vertices) == [0, 1, 2]


def test_mono_witness_is_monochromatic():
    rng = random.Random(4)
    for i in range(30):
        g = random_oriented_graph(8, rng.randint(0, 20), i)
        col = EdgeColoring(2, {e: rng.randint(1, 2) for e in g.edges()})
        for c, res in longest_mono_path(g, col).items():
            p = res.witness
            assert p.length == res.value
            assert p.is_valid_in(g)
            for a, b in zip(p.vertices, p.vertices[1:]):
                assert col.color(a, b) == c


def test_mono_paths_size_guard():
    g = complete_symmetric(17)
    col = EdgeColoring(1, {e: 1 for e in g.edges()})
    with pytest.raises(SizeLimitError):
        longest_mono_path(g, col)


def test_mono_paths_limit_override():
    # one cyclic class on 17 vertices is fine when the limit is raised
    g = complete_symmetric(17)
    col = EdgeColoring(1, {e: 1 for e in g.edges()})
    res = longest_mono_path(g, col, limit=17)
    assert res[1].value == 16


def test_mono_paths_dag_class_any_size():
    # acyclic classes skip the exponential route entirely
    g = transitive_tournament(40)
    col = EdgeColoring(2, {e: 1 + (e[0] + e[1]) % 2 for e in g.edges()})
    res = longest_mono_path(g, col)
    assert max(res[1].value, res[2].value) >= 19


def test_max_mono_default_zero():
    g = OrientedGraph(4)
    assert max_mono_path(g, EdgeColoring(2, {})) == 0


# -- best-coloring search --------------------------------------------------

def test_minmax_single_edge():
    g = OrientedGraph(2, [(0, 1)])
    res = min_max_mono_path(g, 1)
    assert res.value == 1


def test_minmax_two_edge_path():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    res = min_max_mono_path(g, 2)
    assert res.value == 1
    assert max_mono_path(g, res.witness) == 1


def test_minmax_complete_symmetric_3():
    res = min_max_mono_path(complete_symmetric(3), 2)
    assert res.value == 2
    assert res.explored == 21


def test_minmax_k3_matches_bruteforce():
    g = complete_symmetric(3)
    edges = g.edges()
    best = min(
        max_mono_path(g, EdgeColoring(2, dict(zip(edges, assign))))
        for assign in itertools.product((1, 2), repeat=len(edges))
    )
    assert min_max_mono_path(g, 2).value == best == 2


def test_minmax_witness_certifies():
    rng = random.Random(11)
    for i in range(15):
        n = rng.randint(2, 5)
        m = rng.randint(1, n * (n - 1) // 2)
        g = random_oriented_graph(n, m, i)
        res = min_max_mono_path(g, 2)
        assert max_mono_path(g, res.witness) == res.value


def test_minmax_empty_graph():
    res = min_max_mono_path(OrientedGraph(5), 3)
    assert res.value == 0
    assert res.explored == 0


def test_minmax_monotone_in_colors():
    rng = random.Random(3)
    for i in range(10):
        g = random_oriented_graph(5, rng.randint(1, 10), i + 40)
        v1 = min_max_mono_path(g, 1).value
        v2 = min_max_mono_path(g, 2).value
        v3 = min_max_mono_path(g, 3).value
        assert v1 >= v2 >= v3


def test_minmax_monotone_under_edge_addition():
    g_small = OrientedGraph(4, [(0, 1), (1, 2)])
    g_big = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    assert min_max_mono_path(g_small, 2).value <= min_max_mono_path(g_big, 2).value


def test_minmax_budget_precheck():
    g = random_oriented_graph(30, 190, 0)
    with pytest.raises(BudgetExceededError):
        min_max_mono_path(g, 2, budget=1000)


def test_arrowing_rot7_three_colors():
    # the 7-vertex rotational tournament: i -> i+1, i+2, i+3 (mod 7); 3^21
    # colorings, but the search settles it in a few thousand nodes
    rot7 = OrientedGraph(7, [(i, (i + d) % 7) for i in range(7) for d in (1, 2, 3)])
    assert arrowing_check(rot7, 2, 3) == (True, None)


def test_minmax_class_support_guard():
    # a color class that stays cyclic on >22 vertices cannot be measured
    g = complete_symmetric(24)
    with pytest.raises((SizeLimitError, BudgetExceededError)):
        min_max_mono_path(g, 1, budget=1 << 40)


# -- arrowing --------------------------------------------------------------

def test_arrowing_complete_symmetric_4():
    ok, witness = arrowing_check(complete_symmetric(4), 2, 2)
    assert ok and witness is None


def test_arrowing_single_edge_fails():
    g = OrientedGraph(2, [(0, 1)])
    ok, witness = arrowing_check(g, 2, 1)
    assert not ok
    assert witness is not None
    assert max_mono_path(g, witness) < 2


def test_arrowing_trivial_target():
    ok, witness = arrowing_check(OrientedGraph(3), 0, 2)
    assert ok and witness is None


def test_arrowing_matches_minmax():
    rng = random.Random(9)
    for i in range(12):
        n = rng.randint(2, 5)
        m = rng.randint(1, n * (n - 1) // 2)
        g = random_oriented_graph(n, m, i + 80)
        value = min_max_mono_path(g, 2).value
        for target in range(1, value + 2):
            ok, witness = arrowing_check(g, target, 2)
            assert ok == (value >= target)
            if not ok:
                assert max_mono_path(g, witness) < target


def test_oracle_result_to_dict():
    res = min_max_mono_path(OrientedGraph(2, [(0, 1)]), 1)
    d = res.to_dict()
    assert d["value"] == 1
    assert d["explored"] >= 1
    assert isinstance(d["witness"], list)
