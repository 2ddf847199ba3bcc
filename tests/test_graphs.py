"""Core graph/coloring/path type behavior."""
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from dipath_ramsey import (
    ColoringError,
    DirectedPath,
    EdgeColoring,
    GraphShapeError,
    OrientedGraph,
    Tournament,
    complete_symmetric,
    is_tournament,
    random_digraph,
    transitive_tournament,
)
from dipath_ramsey import graphs
from dipath_ramsey.graphs import _transpose, mask_of


def test_rejects_self_loop():
    with pytest.raises(GraphShapeError):
        OrientedGraph(3, [(1, 1)])


def test_rejects_out_of_range():
    with pytest.raises(GraphShapeError):
        OrientedGraph(2, [(0, 2)])


def test_rejects_antiparallel_when_oriented():
    with pytest.raises(GraphShapeError):
        OrientedGraph(2, [(0, 1), (1, 0)])
    g = OrientedGraph(2, [(0, 1), (1, 0)], allow_antiparallel=True)
    assert g.edge_count == 2


def test_duplicate_edges_collapse():
    g = OrientedGraph(3, [(0, 1), (0, 1), (1, 2)])
    assert g.edge_count == 2


def test_edges_canonical_order():
    g = OrientedGraph(4, [(3, 0), (0, 2), (0, 1), (2, 1)])
    assert g.edges() == [(0, 1), (0, 2), (2, 1), (3, 0)]


def test_complete_symmetric_counts():
    g = complete_symmetric(4)
    assert g.edge_count == 12
    assert g.allow_antiparallel
    assert all(g.has_edge(u, v) for u in range(4) for v in range(4) if u != v)


def test_tournament_wrapper_validates():
    assert is_tournament(transitive_tournament(5))
    with pytest.raises(GraphShapeError):
        Tournament(OrientedGraph(3, [(0, 1)]))


def test_directed_path_basics():
    assert DirectedPath(()).length == 0
    assert DirectedPath((7,)).length == 0
    p = DirectedPath((0, 1, 2))
    assert p.length == 2
    assert p.edges() == [(0, 1), (1, 2)]
    with pytest.raises(GraphShapeError):
        DirectedPath((0, 1, 0))


def test_path_validity():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    assert DirectedPath((0, 1, 2)).is_valid_in(g)
    assert not DirectedPath((2, 1)).is_valid_in(g)
    assert not DirectedPath((0, 5)).is_valid_in(g)


def test_coloring_total_and_classes():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    col = EdgeColoring(2, {(0, 1): 1, (1, 2): 1, (2, 0): 2})
    col.validate_total(g)
    assert col.out_masks(1, g.n) == [0b010, 0b100, 0]
    missing = EdgeColoring(2, {(0, 1): 1})
    with pytest.raises(ColoringError):
        missing.validate_total(g)


def test_coloring_rejects_bad_color():
    with pytest.raises(ColoringError):
        EdgeColoring(2, {(0, 1): 3})
    with pytest.raises(ColoringError):
        EdgeColoring(2, {(0, 1): 0})


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_random_tournament_shape(n, seed):
    from dipath_ramsey import random_tournament
    t = random_tournament(n, seed)
    assert is_tournament(t.underlying)
    assert t.underlying.edge_count == n * (n - 1) // 2


def _dict_validate_message(assign, g):
    """validate_total's verdict computed from a plain dict of edges."""
    edges, got = set(g.edges()), set(assign)
    missing, extra = edges - got, got - edges
    if missing:
        return f"{len(missing)} uncolored edges, e.g. {sorted(missing)[0]}"
    if extra:
        return f"{len(extra)} colored non-edges, e.g. {sorted(extra)[0]}"
    return None


def test_mask_coloring_matches_plain_dict():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(0, 8)
        q = rng.randint(1, 4)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        assign = {e: rng.randint(1, q) for e in pairs if rng.random() < 0.6}
        col = EdgeColoring(q, assign)
        assert col.items() == sorted(assign.items())
        assert len(col) == len(assign)
        for u in range(-1, n + 1):
            for v in range(-1, n + 1):
                assert col.get(u, v) == assign.get((u, v))
                assert col.get(u, v, "none") == assign.get((u, v), "none")
                if (u, v) in assign:
                    assert col.color(u, v) == assign[(u, v)]
                else:
                    with pytest.raises(KeyError):
                        col.color(u, v)
        shuffled = list(assign.items())
        rng.shuffle(shuffled)
        assert col == EdgeColoring(q, dict(shuffled))
        assert col != EdgeColoring(q + 1, assign)
        if assign:
            e = rng.choice(sorted(assign))
            assert col != EdgeColoring(q, {**assign, e: assign[e] % q + 1}) or q == 1
            assert col != EdgeColoring(q, {k: c for k, c in assign.items() if k != e})
        for host in (OrientedGraph(n, assign, allow_antiparallel=True),
                     OrientedGraph(n + 1, pairs[: len(pairs) // 2], allow_antiparallel=True),
                     OrientedGraph(max(n - 1, 0))):
            want = _dict_validate_message(assign, host)
            if want is None:
                col.validate_total(host)
                for c in range(q + 2):
                    assert col.out_masks(c, host.n) == [
                        mask_of(v for (x, v), k in assign.items() if x == u and k == c)
                        for u in range(host.n)]
            else:
                with pytest.raises(ColoringError) as exc:
                    col.validate_total(host)
                assert str(exc.value) == want


def test_coloring_rejects_negative_vertex():
    with pytest.raises(ColoringError):
        EdgeColoring(1, {(-1, 0): 1})


def _is_tournament_pairwise(g) -> bool:
    return all(g.has_edge(u, v) != g.has_edge(v, u)
               for u in range(g.n) for v in range(u + 1, g.n))


@given(st.integers(0, 9), st.integers(0, 2**31), st.sampled_from(["full", "drop", "both"]))
def test_is_tournament_matches_pairwise(n, seed, tweak):
    """Tournaments, tournaments missing a pair, and digraphs with an
    antiparallel pair, against the pairwise definition."""
    rng = random.Random(seed)
    edges = [(u, v) if rng.random() < 0.5 else (v, u)
             for u in range(n) for v in range(u + 1, n)]
    if edges and tweak == "drop":
        edges.pop(rng.randrange(len(edges)))
    if edges and tweak == "both":
        u, v = edges[rng.randrange(len(edges))]
        edges.append((v, u))
    g = OrientedGraph(n, edges, allow_antiparallel=True)
    assert is_tournament(g) == _is_tournament_pairwise(g)
    assert is_tournament(g) == (tweak == "full" or n < 2)


def test_derived_in_masks_match_per_edge_loop(monkeypatch):
    """A graph built from out-masks alone derives the in-masks a per-edge
    loop gives, on both sides of the one density rule, `graphs._dense`:
    the transpose where it holds, the per-edge walk elsewhere.  Small
    graphs test its m >= 8n arm, graphs of 256 vertices and more its
    n^2 < 32 m arm."""
    transposed = []

    def counted(out, n):
        transposed.append(n)
        return _transpose(out, n)

    monkeypatch.setattr(graphs, "_transpose", counted)
    rng = random.Random(12)
    arms = Counter()
    for i in range(300):
        if i % 20 == 19:
            n = rng.randint(256, 300)
            # edge counts clustered around the n^2 / 32 arm
            m = round(n * n / 32 * rng.uniform(0.5, 1.5))
        else:
            n = rng.randint(0, 70)
            top = n * (n - 1)
            m = rng.randint(0, top)
            if i % 2:
                # edge counts clustered around the 8n arm
                m = min(top, round(8 * n * rng.uniform(0.5, 2)))
        g = random_digraph(n, m, i)
        want = [0] * n
        for u, v in g.edges():
            want[v] |= 1 << u
        before = len(transposed)
        bare = OrientedGraph.from_masks(n, g.out_masks(), None, True)
        assert [bare.in_mask(v) for v in range(n)] == want
        assert [bare.in_degree(v) for v in range(n)] == [w.bit_count() for w in want]
        took = len(transposed) > before
        assert took == graphs._dense(n, g.edge_count)
        arms[n >= 256, took] += 1
    assert arms[False, True] > 50 and arms[False, False] > 50
    assert arms[True, True] >= 3 and arms[True, False] >= 3


def test_rejects_negative_vertex_count():
    with pytest.raises(GraphShapeError, match="vertex count must be nonnegative, got -1"):
        OrientedGraph(-1)
