"""Generators, the pseudorandomness scan, and conditional path builders."""
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from dipath_ramsey import (
    DEFAULT_CONFIG,
    BudgetExceededError,
    GraphShapeError,
    OrientedGraph,
    ThreadingError,
    dfs_long_path,
    paley_tournament,
    pseudorandomness_exact,
    random_digraph,
    random_oriented_graph,
    random_tournament,
    refute_pseudorandomness,
    thread_path_through_sets,
    transitive_tournament,
)
from dipath_ramsey.graphs import is_tournament, iter_bits
from dipath_ramsey.pseudorandom import _violating_pair, is_prime
import reference_generators


def test_paley_three():
    t = paley_tournament(3)
    assert set(t.underlying.edges()) == {(1, 0), (2, 1), (0, 2)}


def test_paley_rejects_bad_modulus():
    with pytest.raises(GraphShapeError):
        paley_tournament(5)  # prime but 1 mod 4
    with pytest.raises(GraphShapeError):
        paley_tournament(9)  # composite


@pytest.mark.parametrize("p", [3, 7, 11, 19])
def test_paley_is_tournament(p):
    assert is_tournament(paley_tournament(p).underlying)


def test_random_tournament_deterministic():
    a = random_tournament(12, 42)
    b = random_tournament(12, 42)
    assert a.underlying == b.underlying
    c = random_tournament(12, 43)
    assert a.underlying != c.underlying


def test_random_oriented_graph_edge_count():
    g = random_oriented_graph(10, 17, 0)
    assert g.edge_count == 17
    assert not g.allow_antiparallel


@pytest.mark.parametrize("make", [random_oriented_graph, random_digraph])
def test_random_graphs_reject_negative_edge_count(make):
    with pytest.raises(GraphShapeError, match="m=-1 is outside"):
        make(10, -1, 0)
    assert make(10, 0, 0).edge_count == 0


@pytest.mark.parametrize("make", [random_oriented_graph, random_digraph])
def test_random_graphs_reject_negative_vertex_count(make):
    for m in (0, 3):
        with pytest.raises(GraphShapeError, match="vertex count must be nonnegative, got -3"):
            make(-3, m, 0)
    assert make(0, 0, 0).n == 0


def test_exact_on_transitive_three():
    report = pseudorandomness_exact(transitive_tournament(3))
    assert report.mode == "exact"
    assert report.k_star == 2
    assert report.vacuous
    assert report.counterexample == ((1,), (0,))


def test_exact_budget_defaults_to_subset_budget():
    """Without a budget the scan charges against the configured subset
    budget: T64 is refused at k=5, where C(64, 5) passes it."""
    limit = DEFAULT_CONFIG.subset_budget
    with pytest.raises(BudgetExceededError, match=rf"at k=5 \(\d+ > {limit}\)"):
        pseudorandomness_exact(random_tournament(64, 1))


def test_exact_finds_real_threshold():
    # transitive tournaments violate 1-pseudorandomness via (last, first)
    for n in (4, 6, 9):
        report = pseudorandomness_exact(transitive_tournament(n))
        assert report.k_star >= 2
        a, b = report.counterexample
        g = transitive_tournament(n)
        assert all(not g.has_edge(u, v) for u in a for v in b)


def _paley_bound(p):
    """ceil(sqrt(p)) for a prime p: QR_p is k-pseudorandom for every k >
    sqrt(p), since for disjoint A and B of size k the character-sum bound
    gives e(A -> B) = (k^2 + sum of chi(a - b)) / 2 >= (k^2 - k sqrt(p)) / 2."""
    return math.isqrt(p) + 1


@pytest.mark.parametrize("p, k_star", [(7, 2), (11, 3), (19, 4), (23, 4), (31, 4),
                                       (43, 5), (47, 5)])
def test_paley_exact_threshold_within_square_root(p, k_star):
    """The exact scan's k* on QR_p is at most ceil(sqrt(p)), a theorem, so
    a larger k* is a bug in the scan."""
    report = pseudorandomness_exact(paley_tournament(p))
    assert report.k_star == k_star <= _paley_bound(p)


def test_paley_never_refuted_at_square_root():
    """QR_p is ceil(sqrt(p))-pseudorandom for every prime p = 3 mod 4, so
    the sampled refuter, whose refutations are certain, finds nothing."""
    primes = [p for p in range(7, 140) if p % 4 == 3 and is_prime(p)]
    assert len(primes) == 17
    for p in primes:
        g = paley_tournament(p)
        for seed in range(5):
            assert refute_pseudorandomness(g, _paley_bound(p), 2000, seed) is None


def test_no_graph_is_very_pseudorandom():
    """k_star always exceeds log2(n)/2 on small tournaments."""
    for n in range(2, 17):
        for seed in range(3):
            report = pseudorandomness_exact(random_tournament(n, seed))
            assert report.k_star > math.log2(n) / 2


def _violating_pair_reference(g, k):
    """The plain scan over itertools.combinations that the pruned search
    replaced."""
    full = g.full_mask()
    for a in itertools.combinations(range(g.n), k):
        closed = 0
        for v in a:
            closed |= g.out_mask(v) | 1 << v
        free = full & ~closed
        if free.bit_count() >= k:
            return a, tuple(itertools.islice(iter_bits(free), k))
    return None


def test_violating_pair_matches_combinations_scan():
    rng = random.Random(31)
    found = missing = 0
    for i in range(300):
        n = rng.randint(0, 16)
        if i % 2:
            g = random_tournament(max(n, 1), i).underlying
        else:
            g = random_oriented_graph(n, rng.randint(0, n * (n - 1) // 2), i)
        for k in range(1, g.n // 2 + 1):
            got = _violating_pair(g, k)
            assert got == _violating_pair_reference(g, k)
            found += got is not None
            missing += got is None
    assert found and missing


def test_refute_validates_k():
    t = random_tournament(8, 0)
    with pytest.raises(ValueError):
        refute_pseudorandomness(t, 0, 10, 0)
    with pytest.raises(ValueError):
        refute_pseudorandomness(t, 5, 10, 0)


def test_refute_rejects_negative_trials():
    """A negative trial count is a bad value, not a search that found
    nothing; zero trials is a search that found nothing."""
    t = transitive_tournament(8)
    with pytest.raises(ValueError, match="trials must be at least 0, got -5"):
        refute_pseudorandomness(t, 3, -5, 0)
    assert refute_pseudorandomness(t, 3, 0, 0) is None


def test_refute_finds_planted_violation():
    # bipartite-free pair: no edges 0..2 -> 3..5
    edges = [(v, u) for u in range(3) for v in range(3, 6)]
    g = OrientedGraph(6, edges)
    found = refute_pseudorandomness(g, 3, 500, 1)
    assert found == ((0, 1, 2), (3, 4, 5))


def test_refute_one_sided():
    # complete symmetric is 1-pseudorandom; sampling can never refute
    from dipath_ramsey import complete_symmetric
    g = complete_symmetric(8)
    assert refute_pseudorandomness(g, 1, 200, 3) is None


def test_refute_replays_sample_draws():
    """The refuter draws each A with `getrandbits` calls in `sample`'s
    order, so it returns what the reference that calls `sample` returns,
    pair for pair, on both sides of `sample`'s pool threshold, on
    tournaments and on sparse graphs that refute often, with both
    outcomes on each side.  Above the threshold, n = 2^j - 1, 2^j and
    2^j + 1 give the draw table's ids at or above n 1, n and n - 2
    entries, and the perfbench lane's shapes run 1,000 trials."""
    rng = random.Random(41)
    outcomes = set()
    shapes = []
    for k in (1, 2, 5, 6, 10, 12):
        # the largest n at which `sample(range(n), k)` draws from a pool of
        # the values left, not redrawing repeats: 21 for k <= 5, else 85
        top = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
        power = 1 << top.bit_length()
        for n in (2 * k, top - 1, top, top + 1, top + 40, power - 1, power, power + 1):
            shapes += [(n, k, None, n <= top)] * 6
    # both lane shapes lie above their pool threshold of 85
    shapes += [(n, k, 1000, False) for n, k in ((128, 14), (256, 16)) for _ in range(4)]
    for i, (n, k, trials, pooled) in enumerate(shapes):
        seed = rng.getrandbits(32)
        if i % 2:
            g = random_tournament(n, seed)
        else:
            m = rng.randint(1, min(3 * n, n * (n - 1) // 2))
            g = random_oriented_graph(n, m, seed)
        trials = trials or rng.choice((1, 5, 40))
        got = refute_pseudorandomness(g, k, trials, seed)
        assert got == reference_generators.refute_pseudorandomness(
            g, k, trials, seed)
        outcomes.add((pooled, got is None))
    assert outcomes == set(itertools.product((True, False), repeat=2))


def test_dfs_long_path_hamilton_on_transitive():
    p = dfs_long_path(transitive_tournament(9))
    assert p.vertices == tuple(range(9))


def test_dfs_long_path_bound_small():
    for n in (6, 8, 10, 12):
        for seed in range(5):
            t = random_tournament(n, seed)
            report = pseudorandomness_exact(t)
            if report.vacuous:
                continue
            p = dfs_long_path(t)
            assert p.is_valid_in(t.underlying)
            assert p.length >= n - 2 * report.k_star + 1


def test_dfs_deterministic():
    t = random_tournament(20, 5)
    assert dfs_long_path(t).vertices == dfs_long_path(t).vertices


def test_dfs_empty_graph():
    assert dfs_long_path(OrientedGraph(0)).length == 0


def _dfs_reference(g: OrientedGraph) -> tuple[int, ...]:
    """The earlier dfs_long_path: it also snapshots the stack when the
    explored and unvisited sets have equal size and returns the longer of
    that snapshot and the deepest stack."""
    n = g.n
    if n == 0:
        return ()
    t_mask = g.full_mask()
    s_count = 0
    stack: list[int] = []
    snapshot = None
    best: tuple[int, ...] = ()

    def note_state():
        nonlocal snapshot, best
        if len(stack) > len(best):
            best = tuple(stack)
        if snapshot is None and s_count == t_mask.bit_count():
            snapshot = tuple(stack)

    note_state()
    while s_count < n:
        if not stack:
            lowest = t_mask & -t_mask
            t_mask &= ~lowest
            stack.append(lowest.bit_length() - 1)
            note_state()
            continue
        candidates = g.out_mask(stack[-1]) & t_mask
        if candidates:
            lowest = candidates & -candidates
            t_mask &= ~lowest
            stack.append(lowest.bit_length() - 1)
        else:
            stack.pop()
            s_count += 1
        note_state()
    return best if snapshot is None or len(best) >= len(snapshot) else snapshot


def test_dfs_matches_snapshot_reference():
    rng = random.Random(17)
    for n in range(61):
        for seed in range(4):
            m = rng.randint(0, n * (n - 1) // 2)
            hosts = [random_oriented_graph(n, m, seed)]
            if n:
                hosts.append(random_tournament(n, seed).underlying)
            for g in hosts:
                assert dfs_long_path(g).vertices == _dfs_reference(g)


def test_thread_simple_chain():
    g = OrientedGraph(6, [(0, 2), (2, 4), (1, 3), (3, 5), (0, 3)])
    p = thread_path_through_sets(g, [(0, 1), (2, 3), (4, 5)])
    assert p.is_valid_in(g)
    assert len(p.vertices) == 3


def test_thread_prefers_smallest_ids():
    from dipath_ramsey import complete_symmetric
    g = complete_symmetric(6)
    p = thread_path_through_sets(g, [(0, 1), (2, 3), (4, 5)])
    assert p.vertices == (0, 2, 4)


def test_thread_error_reports_index():
    g = OrientedGraph(4, [(0, 1)])
    with pytest.raises(ThreadingError) as exc:
        thread_path_through_sets(g, [(0,), (2,), (3,)])
    assert exc.value.index == 2  # set 2 cannot reach set 3

    with pytest.raises(ThreadingError) as exc:
        thread_path_through_sets(g, [(0,), (), (3,)])
    assert exc.value.index == 2

    with pytest.raises(ThreadingError):
        thread_path_through_sets(g, [(0, 1), (1, 2)])


def test_thread_empty_input():
    assert thread_path_through_sets(OrientedGraph(1), []).length == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 18), st.integers(0, 2**31))
def test_dfs_path_always_valid(n, seed):
    t = random_tournament(n, seed)
    p = dfs_long_path(t)
    assert p.is_valid_in(t.underlying)
    assert len(set(p.vertices)) == len(p.vertices)
