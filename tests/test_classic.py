"""Two-run Hamilton decompositions and the path/coloring dichotomy."""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dipath_ramsey import (
    BLUE,
    RED,
    DirectedPath,
    EdgeColoring,
    OrientedGraph,
    complete_symmetric,
    gallai_roy,
    longest_path_exact,
    maximal_acyclic_subgraph,
    raynaud,
)


def _all_colorings(t):
    host = complete_symmetric(t)
    edges = host.edges()
    for bits in range(1 << len(edges)):
        yield EdgeColoring(2, {e: 1 + (bits >> i & 1)
                               for i, e in enumerate(edges)})


def _check(t, coloring):
    dec = raynaud(t, coloring)
    dec.validate(coloring)
    seg, _ = dec.best_segment()
    assert seg.length >= t // 2
    return dec


@pytest.mark.parametrize("t", [1, 2, 3])
def test_raynaud_exhaustive_tiny(t):
    for coloring in _all_colorings(t):
        _check(t, coloring)


def test_raynaud_exhaustive_t4():
    for coloring in _all_colorings(4):
        _check(4, coloring)


@pytest.mark.slow
def test_raynaud_exhaustive_t5():
    for coloring in _all_colorings(5):
        _check(5, coloring)


@pytest.mark.parametrize("t", [6, 9, 14, 25])
def test_raynaud_random_medium(t):
    rng = random.Random(t * 1337)
    host = complete_symmetric(t)
    edges = host.edges()
    for _ in range(30):
        coloring = EdgeColoring(2, {e: rng.randint(1, 2) for e in edges})
        _check(t, coloring)


def test_raynaud_monochromatic_is_hamilton():
    t = 7
    host = complete_symmetric(t)
    col = EdgeColoring(2, {e: RED for e in host.edges()})
    dec = raynaud(t, col)
    seg, color = dec.best_segment()
    assert color == RED
    assert seg.length == t - 1


def test_raynaud_rejects_partial_coloring():
    from dipath_ramsey import ColoringError
    with pytest.raises(ColoringError):
        raynaud(3, EdgeColoring(2, {(0, 1): 1}))


def test_maximal_acyclic_is_maximal():
    g = OrientedGraph(5, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 0)])
    h = maximal_acyclic_subgraph(g)
    kept = set(h.edges())
    assert kept <= set(g.edges())
    from dipath_ramsey import is_acyclic, find_cycle
    assert is_acyclic(h)
    for e in set(g.edges()) - kept:
        trial = OrientedGraph(g.n, list(kept | {e}), allow_antiparallel=True)
        assert find_cycle(trial) is not None


def _greedy_acyclic_reference(n, edges):
    """Lexicographic greedy with a DFS reachability test per edge."""
    out = {v: [] for v in range(n)}

    def reaches(a, b):
        seen, stack = {a}, [a]
        while stack:
            x = stack.pop()
            if x == b:
                return True
            for y in out[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return False

    kept = []
    for u, v in sorted(edges):
        if not reaches(v, u):
            out[u].append(v)
            kept.append((u, v))
    return kept


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
             .filter(lambda e: e[0] != e[1]), max_size=n * (n - 1)))))
def test_maximal_acyclic_matches_greedy_reference(case):
    n, edges = case
    g = OrientedGraph(n, edges, allow_antiparallel=True)
    h = maximal_acyclic_subgraph(g)
    assert h.edges() == _greedy_acyclic_reference(n, g.edges())
    assert [h.in_mask(v) for v in range(n)] == [
        sum(1 << u for u, w in h.edges() if w == v) for v in range(n)]


def test_gallai_roy_three_cycle():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    out = gallai_roy(g, 3)
    # 3-cycle: longest path 2, so 3 classes suffice
    from dipath_ramsey import VertexColoring
    assert isinstance(out, VertexColoring)
    assert out.is_proper(g)


def test_gallai_roy_path_branch():
    g = OrientedGraph(6, [(i, i + 1) for i in range(5)])
    out = gallai_roy(g, 3)
    assert isinstance(out, DirectedPath)
    assert out.length >= 3
    assert out.is_valid_in(g)


def test_gallai_roy_threshold_validation():
    with pytest.raises(ValueError):
        gallai_roy(OrientedGraph(2, [(0, 1)]), 0)


def test_gallai_roy_dichotomy_500_random():
    """Coloring branch proper with class count <= exact longest path + 1;
    path branch valid with >= threshold edges."""
    from dipath_ramsey import VertexColoring, random_digraph
    rng = random.Random(99)
    for i in range(500):
        n = rng.randint(1, 12)
        m = rng.randint(0, n * (n - 1))
        g = random_digraph(n, m, i)
        exact = longest_path_exact(g).length
        threshold = rng.randint(1, n + 1)
        out = gallai_roy(g, threshold)
        if isinstance(out, DirectedPath):
            assert out.is_valid_in(g)
            assert out.length >= threshold
        else:
            assert isinstance(out, VertexColoring)
            assert out.is_proper(g)
            assert out.num_classes <= exact + 1
