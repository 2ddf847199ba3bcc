"""The mask-filling generators and the sweep's random coloring against the
edge-by-edge versions in `reference_generators`: the same arguments give
the same graph or coloring, mask for mask."""
import pytest

import reference_generators as ref
from dipath_ramsey import (
    ColoringError,
    GraphShapeError,
    OrientedGraph,
    paley_tournament,
    random_digraph,
    random_oriented_graph,
    random_tournament,
)
from dipath_ramsey.experiment import _random_coloring
from dipath_ramsey.pseudorandom import is_prime

# small sizes, and sizes at and one below a power of two, where the
# rejection rate of the bit draws is highest and lowest
SIZES = (0, 1, 2, 3, 7, 8, 15, 16, 31, 32, 33, 63, 64)
SEEDS = (0, 1, 2, 12345)


def _assert_same_graph(new: OrientedGraph, old: OrientedGraph) -> None:
    assert new.n == old.n
    assert new.allow_antiparallel == old.allow_antiparallel
    assert new.edge_count == old.edge_count
    assert [new.out_mask(v) for v in range(new.n)] == [old.out_mask(v) for v in range(old.n)]
    # from_masks takes the in-masks on trust, so they are checked too
    assert [new.in_mask(v) for v in range(new.n)] == [old.in_mask(v) for v in range(old.n)]
    assert new == old


def _edge_counts(top: int) -> list[int]:
    return sorted({m for m in (0, 1, top // 3, top - 1, top) if 0 <= m <= top})


@pytest.mark.parametrize("n", SIZES)
def test_random_oriented_graph_matches_reference(n):
    for m in _edge_counts(n * (n - 1) // 2):
        for seed in SEEDS:
            _assert_same_graph(random_oriented_graph(n, m, seed),
                               ref.random_oriented_graph(n, m, seed))


@pytest.mark.parametrize("n", SIZES)
def test_random_digraph_matches_reference(n):
    for m in _edge_counts(n * (n - 1)):
        for seed in SEEDS:
            _assert_same_graph(random_digraph(n, m, seed),
                               ref.random_digraph(n, m, seed))


@pytest.mark.parametrize("n", [s for s in SIZES if s] + [100])
def test_random_tournament_matches_reference(n):
    for seed in SEEDS:
        _assert_same_graph(random_tournament(n, seed).underlying,
                           ref.random_tournament(n, seed).underlying)


def _message(make, *args):
    with pytest.raises(GraphShapeError) as info:
        make(*args)
    return str(info.value)


@pytest.mark.parametrize("new, old, n, m", [
    (random_oriented_graph, ref.random_oriented_graph, -1, 0),
    (random_oriented_graph, ref.random_oriented_graph, 0, 1),
    (random_oriented_graph, ref.random_oriented_graph, 4, -1),
    (random_oriented_graph, ref.random_oriented_graph, 4, 7),
    (random_digraph, ref.random_digraph, -1, 0),
    (random_digraph, ref.random_digraph, 0, 1),
    (random_digraph, ref.random_digraph, 4, -1),
    (random_digraph, ref.random_digraph, 5, 21),
])
def test_random_graph_errors_match_reference(new, old, n, m):
    assert _message(new, n, m, 0) == _message(old, n, m, 0)


def test_random_tournament_error_matches_reference():
    for n in (0, -3):
        assert _message(random_tournament, n, 0) == _message(ref.random_tournament, n, 0)


def test_is_prime_matches_reference():
    assert [is_prime(p) for p in range(-5, 3000)] == [ref.is_prime(p) for p in range(-5, 3000)]


def test_paley_rotation_matches_reference():
    """Every prime p = 3 mod 4 below 200; other p below 60 raise the same
    error."""
    primes = [p for p in range(200) if ref.is_prime(p) and p % 4 == 3]
    assert len(primes) == 24
    for p in primes:
        _assert_same_graph(paley_tournament(p).underlying,
                           ref.paley_tournament(p).underlying)
    for p in range(-2, 60):
        if p not in primes:
            assert _message(paley_tournament, p) == _message(ref.paley_tournament, p)


def _hosts():
    yield OrientedGraph(0)
    yield OrientedGraph(5)
    for n in (1, 2, 16, 33):
        yield random_tournament(n, n).underlying
    yield random_oriented_graph(40, 200, 3)
    yield random_digraph(31, 600, 4)  # antiparallel pairs


@pytest.mark.parametrize("colors", [1, 2, 3, 4, 5, 8])
def test_random_coloring_matches_reference(colors):
    for g in _hosts():
        for seed in SEEDS:
            new = _random_coloring(g, colors, seed)
            old = ref._random_coloring(g, colors, seed)
            assert new.num_colors == old.num_colors == colors  # unused colors count
            assert new.n == old.n
            for c in range(1, colors + 1):
                assert new.out_masks(c, g.n) == old.out_masks(c, g.n)
            assert new == old


def test_random_coloring_refuses_no_colors():
    for g in (OrientedGraph(0), random_tournament(4, 0).underlying):
        with pytest.raises(ColoringError, match="need at least one color"):
            _random_coloring(g, 0, 1)
