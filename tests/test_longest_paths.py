"""Longest-path machinery: DAG heights, exact search, cycle detection."""
import gc
import random
import statistics
import time

import pytest
from hypothesis import given, settings, strategies as st

from dipath_ramsey import (
    BudgetExceededError,
    CyclicGraphError,
    DirectedPath,
    OrientedGraph,
    complete_symmetric,
    find_cycle,
    gallai_roy,
    level_decomposition,
    longest_path_dag,
    longest_path_exact,
    maximal_acyclic_subgraph,
    random_digraph,
    random_oriented_graph,
    random_tournament,
    transitive_tournament,
)
from dipath_ramsey import graphs, paths
from dipath_ramsey.graphs import iter_bits, mask_of
from dipath_ramsey.paths import _heights, _levels, longest_path_masks
from reference_adversary import find_cycle as reference_find_cycle
from reference_paths import (
    _kahn,
    ascending_longest_path,
    memo_search_longest_path,
    reach_bound_longest_path,
    reference_longest_path,
)


def _random_oriented(n, m, seed):
    from dipath_ramsey import random_oriented_graph
    return random_oriented_graph(n, min(m, n * (n - 1) // 2), seed)


def test_find_cycle_on_acyclic_is_none():
    assert find_cycle(transitive_tournament(6)) is None


def test_find_cycle_returns_real_cycle():
    g = OrientedGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    cyc = find_cycle(g)
    assert cyc is not None
    t = len(cyc)
    assert t >= 2
    for i in range(t):
        assert g.has_edge(cyc[i], cyc[(i + 1) % t])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 12), st.integers(0, 132), st.integers(0, 2**31))
def test_find_cycle_exactly_when_cyclic(n, m, seed):
    """On random digraphs, antiparallel pairs included: a simple cycle of
    real edges when the graph is cyclic, by the reference's depth-first
    search as well as by Kahn's algorithm, and None otherwise."""
    g = random_digraph(n, min(m, n * (n - 1)), seed)
    cyc = find_cycle(g)
    assert (cyc is None) == (reference_find_cycle(g) is None)
    if cyc is not None:
        assert len(set(cyc)) == len(cyc) >= 2
        assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))


def test_level_decomposition_path():
    g = OrientedGraph(4, [(0, 1), (1, 2), (2, 3)])
    levels = level_decomposition(g)
    assert levels == [[0], [1], [2], [3]]


def test_longest_path_dag_transitive():
    p = longest_path_dag(transitive_tournament(7))
    assert p.vertices == tuple(range(7))
    assert p.length == 6


def test_longest_path_exact_matches_dag_on_acyclic():
    """One witness rule on acyclic graphs: the lexicographically first
    longest path, so on 0->2, 1->2 the path starts at 0."""
    g = OrientedGraph(3, [(0, 2), (1, 2)])
    assert longest_path_dag(g).vertices == longest_path_exact(g).vertices == (0, 2)
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = _random_oriented(n, rng.randint(0, 2 * n), rng.randint(0, 10**6))
        if find_cycle(g) is not None:
            continue
        assert longest_path_exact(g).vertices == longest_path_dag(g).vertices


def test_longest_path_exact_on_cycle():
    g = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    p = longest_path_exact(g)
    assert p.length == 3
    assert p.is_valid_in(g)


def test_longest_path_exact_past_sixteen_vertices():
    """No support size is refused: K17 with both directions gives 16, on
    its first descent."""
    p = longest_path_exact(complete_symmetric(17))
    assert list(p.vertices) == list(range(17))


def test_longest_path_auto_dispatch():
    assert longest_path_exact(transitive_tournament(20)).length == 19
    assert longest_path_exact(complete_symmetric(5)).length == 4


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 40), st.integers(0, 2**31))
def test_exact_path_is_valid_and_maximal_greedily(n, m, seed):
    from dipath_ramsey import random_digraph
    g = random_digraph(n, min(m, n * (n - 1)), seed)
    p = longest_path_exact(g)
    assert p.is_valid_in(g)
    # no single-edge extension exists at either end
    if p.vertices:
        used = set(p.vertices)
        tail = p.vertices[-1]
        assert all(v in used for v in iter_bits(g.out_mask(tail))) or p.length >= 1


def test_longest_path_exact_cyclic_support_of_any_size():
    """Acyclic inputs take the DAG route at any size, and a cyclic one is
    searched at any size: the 30-vertex graph with one 3-cycle gives 2,
    and so does the 3-cycle beside a 21-edge path on 25 vertices its
    path, 21, searched in a few dozen states."""
    assert longest_path_exact(transitive_tournament(40)).length == 39
    g = OrientedGraph(30, [(0, 1), (1, 2), (2, 0)])
    assert longest_path_exact(g).length == 2
    g = OrientedGraph(25, [(0, 1), (1, 2), (2, 0)] + [(i, i + 1) for i in range(3, 24)])
    vertices, explored = longest_path_masks(g.out_masks())
    assert vertices == list(range(3, 25)) and explored < 100


def _path_into_cycle(edges):
    """A directed path of `edges` edges whose last vertex lies on a
    3-cycle, as a graph."""
    n = edges + 3
    return OrientedGraph(n, [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 3)])


def test_search_too_deep_is_a_budget_error():
    """The cyclic search recurses once per path edge: a path too long for
    the interpreter's recursion limit raises BudgetExceededError, not
    RecursionError, and a shorter one is answered."""
    assert longest_path_exact(_path_into_cycle(300)).length == 302
    with pytest.raises(BudgetExceededError, match="recursion limit"):
        longest_path_exact(_path_into_cycle(1200))


def _sparse_64_class():
    """A class of ROADMAP item 14's n=64, m=200 corpus: the second of the
    two coin-flip classes of the seed-1 oriented graph, cyclic, whose
    longest path (27 edges) takes a few thousand states."""
    return _split(random_oriented_graph(64, 200, 1), 2, random.Random(1))[1]


def test_state_budget_refuses_by_states_charged(monkeypatch):
    """`explored` of a cyclic class is the states its search charged: with
    the budget set to that many the answer is unchanged, and at half of
    it the search raises BudgetExceededError."""
    adj = _sparse_64_class()
    vertices, explored = longest_path_masks(adj)
    assert len(vertices) == 28 and 1_000 < explored < paths._STATE_BUDGET
    monkeypatch.setattr(paths, "_STATE_BUDGET", explored)
    assert longest_path_masks(adj) == (vertices, explored)
    monkeypatch.setattr(paths, "_STATE_BUDGET", explored // 2)
    with pytest.raises(BudgetExceededError, match=f"exceeded {explored // 2} states"):
        longest_path_masks(adj)


def test_sixteen_vertex_classes_keep_the_budget_headroom():
    """1,000 seeded classes of 16-vertex oriented graphs, m = 40-120, each
    split at random into 1-3 classes, the shape of the oracle's path
    jobs: the worst charges under a fiftieth of the state budget (644
    states measured), so a change that makes the search visit many more
    states shows here before any such class is refused."""
    rng = random.Random(16)
    worst = count = 0
    while count < 1000:
        g = random_oriented_graph(16, rng.randint(40, 120), rng.getrandbits(32))
        for adj in _split(g, rng.randint(1, 3), rng):
            count += 1
            worst = max(worst, longest_path_masks(adj)[1])
    assert 500 < worst < paths._STATE_BUDGET / 50


def test_longest_path_dag_rejects_cycle():
    g = OrientedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 1), (3, 4)])
    for dag_only in (longest_path_dag, level_decomposition):
        with pytest.raises(CyclicGraphError) as exc:
            dag_only(g)
        cyc = exc.value.cycle
        assert cyc and all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))


def _brute_longest(n, adj):
    """Longest simple path (in edges) by DFS over every simple path."""
    best = 0

    def dfs(v, seen, length):
        nonlocal best
        best = max(best, length)
        for w in range(n):
            if adj[v] >> w & 1 and not seen >> w & 1:
                dfs(w, seen | 1 << w, length + 1)

    for v in range(n):
        dfs(v, 1 << v, 0)
    return best


def _brute_first_longest(n, adj):
    """The lexicographically first longest simple path, by DFS."""
    paths = []

    def dfs(path, seen):
        paths.append(path)
        for w in range(n):
            if adj[path[-1]] >> w & 1 and not seen >> w & 1:
                dfs(path + [w], seen | 1 << w)

    for v in range(n):
        dfs([v], 1 << v)
    return min(paths, key=lambda p: (-len(p), p), default=[])


@st.composite
def _digraphs(draw):
    """(n, edges): acyclic ones orient every edge along a random order."""
    n = draw(st.integers(0, 8))
    acyclic = draw(st.booleans())
    rank = draw(st.permutations(range(n)))
    pairs = [(u, v) for u in range(n) for v in range(n)
             if u != v and (not acyclic or rank[u] < rank[v])]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, k in zip(pairs, keep) if k]


@settings(max_examples=300, deadline=None)
@given(_digraphs())
def test_engine_matches_brute_force(graph):
    n, edges = graph
    g = OrientedGraph(n, edges, allow_antiparallel=True)
    adj = [g.out_mask(v) for v in range(n)]
    best = _brute_longest(n, adj)
    vertices, explored = longest_path_masks(adj)
    p = DirectedPath(vertices)
    assert p.is_valid_in(g)
    assert p.length == best
    # a cyclic search charges each (end, vertex set) state, end in the set,
    # at most once
    support = sum(1 for v in range(n) if g.degree(v))
    assert (explored == n if find_cycle(g) is None
            else explored <= support << max(0, support - 1))
    # one witness rule on both routes: lowest start, then lowest next vertex
    assert vertices == _brute_first_longest(n, adj)


def _path(n, ids):
    """Out-masks on n vertices of the directed path through `ids`."""
    adj = [0] * n
    for u, v in zip(ids, ids[1:]):
        adj[u] |= 1 << v
    return adj


def _deep_dags():
    """Acyclic inputs, the paths among them deep enough for the peel to
    spend its budget: directed paths along ascending, descending and
    shuffled ids; the same with a fan of sinks that every path vertex
    points to, so the last step has ties; TT_k; and random DAGs on
    shuffled ids."""
    rng = random.Random(4000)
    for k in (2, 3, 9, 40, 300):
        for ids in (range(k), range(k - 1, -1, -1), rng.sample(range(k), k)):
            yield _path(k, list(ids))
            sinks = rng.sample(range(k + 4), 4)
            rest = [v for v in range(k + 4) if v not in sinks]
            fan = _path(k + 4, [rest[i] for i in ids])
            yield [m | mask_of(sinks) if v in rest else 0 for v, m in enumerate(fan)]
        yield [((1 << k) - 1) ^ ((2 << v) - 1) for v in range(k)]
    for i in range(40):
        n = rng.randint(1, 60)
        rank = rng.sample(range(n), n)
        g = _random_oriented(n, rng.randint(0, 3 * n), i)
        yield [mask_of(v for v in iter_bits(g.out_mask(u) | g.in_mask(u)) if rank[u] < rank[v])
               for u in range(n)]


def test_handover_heights_match_the_peel():
    """Kahn's pass, handed the rest after any number of rounds, gives the
    heights the uncapped peel gives, so the same length and witness; the
    engine's cap hands over on the deep inputs.  The peel scans each
    vertex once per unit of its height, so it hands over exactly when the
    heights sum to more than the budget."""
    handed = 0
    for adj in _deep_dags():
        n = len(adj)
        peeled, left = _heights(adj, n * n)  # n rounds of at most n vertices
        assert not left
        edges = sum(map(int.bit_count, adj))
        for budget in (0, sum(peeled) // 2, 2 * edges):
            assert _heights(adj, budget) == (peeled, 0)
        assert _heights(adj) == _heights(adj, 2 * edges)
        handed += sum(peeled) > 2 * edges
        got = longest_path_masks(adj)
        assert DirectedPath(got[0]).length == max(peeled)
    assert handed >= 15
    # a back edge closes a cycle: the vertices that reach it get no height,
    # the rest get theirs, at any budget
    cyclic = _path(300, list(range(300)))
    cyclic[200] |= 1 << 100
    for budget in (0, 5000, 300 * 300):
        height, left = _heights(cyclic, budget)
        assert left == (1 << 201) - 1
        assert height[201:] == list(range(98, -1, -1))


def test_fallback_witness_is_lexicographically_first(monkeypatch):
    """The walk on heights from Kahn's pass alone, on small DAGs."""
    monkeypatch.setattr(paths, "_heights", lambda a: _heights(a, 0))
    rng = random.Random(7)
    for i in range(200):
        n = rng.randint(1, 8)
        rank = rng.sample(range(n), n)
        adj = [mask_of(v for v in range(n) if rank[u] < rank[v] and rng.random() < 0.4)
               for u in range(n)]
        assert longest_path_masks(adj)[0] == _brute_first_longest(n, adj)


def _red_mas(n, seed):
    """The maximal acyclic subgraph of a random half of a random
    tournament's edges, as `gallai_roy` builds it on the builder's red
    class: deep (a longest path of about 0.8n) and sparse, so its peel
    hands over to Kahn's pass in both directions."""
    rng = random.Random(seed)
    t = random_tournament(n, seed).underlying
    red = OrientedGraph(n, [e for e in t.edges() if rng.random() < 0.5])
    return red, maximal_acyclic_subgraph(red)


def _kahn_depths(out, within):
    """The reference: Kahn's `dist` on the graph `out` induces on the
    vertex mask `within`, the longest path ending at each vertex."""
    adj = [out[v] & within if within >> v & 1 else 0 for v in range(len(out))]
    indeg = [0 if within >> v & 1 else 1 for v in range(len(out))]
    for m in adj:
        for w in iter_bits(m):
            indeg[w] += 1
    return _kahn(adj, indeg)[1]


def _bucketed(depth, vertices):
    levels = [[] for _ in range(max(depth, default=0) + 1)]
    for v in vertices:
        levels[depth[v]].append(v)
    return levels


def test_levels_and_colorings_match_kahn():
    """`level_decomposition`, `_levels` on block masks and `gallai_roy`'s
    colorings give the levels of Kahn's DP, on random DAGs, transitive
    tournaments, a 4000-vertex path both ways and the deep maximal
    acyclic subgraphs that hand over to Kahn's pass.  `gallai_roy` is
    given the DAG itself (its own maximal acyclic subgraph) or, for the
    deep inputs, the red half; the path on ascending ids is left to the
    levels, since building its maximal acyclic subgraph is quadratic."""
    rng = random.Random(1717)
    cases = []
    for i in range(60):
        n = rng.randint(0, 60)
        rank = rng.sample(range(n), n)
        g = _random_oriented(n, rng.randint(0, 3 * n), i)
        dag = OrientedGraph(n, [(u, v) if rank[u] < rank[v] else (v, u) for u, v in g.edges()])
        cases.append((dag, dag))
    for k in (1, 2, 7, 40, 150):
        tt = transitive_tournament(k)
        cases.append((tt, tt))
    down = OrientedGraph(4000, [(v + 1, v) for v in range(3999)])
    cases.append((down, down))
    cases.append((OrientedGraph(4000, [(v, v + 1) for v in range(3999)]), None))
    handed = 0
    for n in (128, 256):
        red, mas = _red_mas(n, n)
        for adj in (mas.out_masks(), [mas.in_mask(v) for v in range(n)]):
            handed += sum(_heights(adj, n * n)[0]) > 2 * mas.edge_count
        cases.append((mas, red))
    assert handed == 4
    for dag, host in cases:
        n = dag.n
        out, inn = dag.out_masks(), [dag.in_mask(v) for v in range(n)]
        depth = _kahn_depths(out, dag.full_mask())
        assert level_decomposition(dag) == _bucketed(depth, range(n))
        half = mask_of(v for v in range(n) if rng.random() < 0.5)
        for within in (dag.full_mask(), half):
            assert _levels(inn, within) == \
                _bucketed(_kahn_depths(out, within), iter_bits(within))
        if host is not None:
            assert gallai_roy(host, max(n, 1)) == _bucketed(depth, range(n))


def _cpu_ms(f, adj):
    t0 = time.process_time()
    f(adj)
    return (time.process_time() - t0) * 1e3


def test_deep_and_dense_dags_against_the_kahn_route():
    """A 4000-vertex directed path, which spends the peel's budget and then
    hands over to Kahn's pass, costs at most twice the Kahn DP that
    `reference_longest_path` runs on acyclic input; the deep maximal
    acyclic subgraph at n=256, which hands over too, at most 1.5 times;
    TT300, which the peel finishes, costs less.  The median, over 15
    pairs of runs back to back, of the ratio of their CPU times: a slow
    spell of a shared machine slows both runs of a pair, where a best of
    7 runs of each failed when it fell between the last two."""
    for adj, most in ((_path(4000, list(range(4000))), 2.0),
                      (_red_mas(256, 256)[1].out_masks(), 1.5),
                      ([((1 << 300) - 1) ^ ((2 << v) - 1) for v in range(300)], 1.0)):
        ratios = []
        for _ in range(15):
            ours = _cpu_ms(longest_path_masks, adj)
            ratios.append(ours / _cpu_ms(reference_longest_path, adj))
        assert statistics.median(ratios) < most, ratios


def _bipartite_both_ways(a, b):
    n = a + b
    left, right = (1 << a) - 1, ((1 << n) - 1) ^ ((1 << a) - 1)
    return [right if v < a else left for v in range(n)]


def _reference_classes():
    """Cyclic classes of 9-16 vertices: random digraphs of 30-120 edges,
    the two classes of 2-colored 16-vertex 100-edge oriented graphs,
    K_{6,10} with both directions and two disjoint K8s."""
    rng = random.Random(1010)
    for i in range(40):
        n = rng.randint(9, 16)
        g = random_digraph(n, rng.randint(30, min(120, n * (n - 1))), i)
        yield [g.out_mask(v) for v in range(n)]
    for i in range(12):
        g = random_oriented_graph(16, 100, 500 + i)
        classes = [[0] * 16, [0] * 16]
        for u, v in g.edges():
            classes[rng.getrandbits(1)][u] |= 1 << v
        yield from classes
    yield _bipartite_both_ways(6, 10)
    k8 = (1 << 8) - 1
    yield [(k8 << (v & 8)) ^ 1 << v for v in range(16)]


def test_engine_matches_subset_dp_reference():
    """Same length as the subset DP it replaced, on cyclic classes, and
    at most one state charged per (end, vertex set), end in the set,
    where the DP charged the 2^support vertex sets; witnesses may differ
    but are paths."""
    cyclic = 0
    for adj in _reference_classes():
        n = len(adj)
        g = OrientedGraph.from_masks(n, adj, allow_antiparallel=True)
        cyclic += find_cycle(g) is not None
        got, explored = longest_path_masks(adj)
        ref, ref_explored = reference_longest_path(adj)
        assert len(got) == len(ref)
        support = ref_explored.bit_length() - 1
        assert explored <= support * ref_explored // 2
        assert DirectedPath(got).is_valid_in(g)
    assert cyclic == 40 + 24 + 2


def _split(g, colors, rng):
    """The color classes of g under a seeded coin per edge, as out-masks."""
    classes = [[0] * g.n for _ in range(colors)]
    for u, v in g.edges():
        classes[rng.randrange(colors)][u] |= 1 << v
    return classes


def _memo_search_classes():
    """The reference classes; both classes of 100 seeded 2-colored
    16-vertex 100-edge oriented graphs, the shape of the oracle's path
    jobs; 16-vertex oriented graphs of 30, 40 and 60 edges split into 1,
    2 and 3 classes; and the 2-color classes of 14-vertex 150-edge
    digraphs."""
    yield from _reference_classes()
    rng = random.Random(2020)
    for s in range(100):
        yield from _split(random_oriented_graph(16, 100, s), 2, rng)
    for m in (30, 40, 60):
        for colors in (1, 2, 3):
            for s in range(8):
                yield from _split(random_oriented_graph(16, m, 100 * m + s), colors, rng)
    for s in range(12):
        yield from _split(random_digraph(14, 150, s), 2, rng)


def test_engine_matches_memo_search_reference():
    """The bounded search gives the exact-value memo search's witness on
    every class, cyclic or not; `explored` differs by definition on a
    cyclic class (states charged against 2^support)."""
    cyclic = 0
    for adj in _memo_search_classes():
        got, explored = longest_path_masks(adj)
        ref, ref_explored = memo_search_longest_path(adj)
        assert got == ref
        if _heights(adj)[1]:
            cyclic += 1
        else:
            assert explored == ref_explored == len(adj)
    assert 300 < cyclic < 600


def test_two_sided_bound_matches_reach_bound_reference():
    """Bounding a state on both sides, by its dead ends and shared sole
    out-neighbors and by its shared sole in-neighbors, gives the witness
    of the one-sided reach bound it replaced on every class, in at most
    as many states: on the reference classes, and on both classes of 100
    seeded 2-colored 16-vertex 100-edge oriented graphs, the shape of the
    oracle's path jobs, where it charges under half the states (14,019
    against 62,714)."""
    def charged(adj):
        got, explored = longest_path_masks(adj)
        ref, ref_explored = reach_bound_longest_path(adj)
        assert got == ref and explored <= ref_explored
        return explored, ref_explored

    for adj in _reference_classes():
        charged(adj)
    rng = random.Random(2020)
    jobs = [charged(adj) for s in range(100)
            for adj in _split(random_oriented_graph(16, 100, s), 2, rng)]
    ours, ref = map(sum, zip(*jobs))
    assert ours < ref / 2


def test_descending_target_matches_ascending_reference():
    """Asking each start for a target that descends from the support size
    gives the witness of the loop it replaced, which asked the first
    start for its exact value and each later one whether it beats the
    best so far: on both classes of 200 seeded 2-colored 16-vertex
    100-edge oriented graphs, the shape of the oracle's path jobs, where
    it charges fewer states; on whole 16-vertex oriented graphs of 20, 30
    and 40 edges; on the classes of 2-colored 18-edge 6-vertex digraphs;
    and on the sparse 64-vertex class, a 3-cycle beside a 21-edge path,
    K17 and K14 with two sinks."""
    def same(adj):
        got, explored = longest_path_masks(adj)
        ref, ref_explored = ascending_longest_path(adj)
        assert got == ref
        return explored, ref_explored

    rng = random.Random(4040)
    jobs = [same(adj) for s in range(200)
            for adj in _split(random_oriented_graph(16, 100, s), 2, rng)]
    ours, ref = map(sum, zip(*jobs))
    assert ours < ref
    for m in (20, 30, 40):
        for s in range(100):
            same(random_oriented_graph(16, m, 1000 * m + s).out_masks())
    for s in range(100):
        for adj in _split(random_digraph(6, 18, s), 2, rng):
            same(adj)
    path = OrientedGraph(25, [(0, 1), (1, 2), (2, 0)] + [(i, i + 1) for i in range(3, 24)])
    for adj in (_sparse_64_class(), path.out_masks(), complete_symmetric(17).out_masks(),
                _clique_with_sinks(14, 2)):
        same(adj)


def test_state_budget_counts_the_current_descent(monkeypatch):
    """A state is charged before it descends, so the budget counts the
    states on the current descent too: K17's search answers on its first
    descent, charging 14 states, and at a budget of 13, or of 2, raises
    BudgetExceededError."""
    adj = complete_symmetric(17).out_masks()
    assert longest_path_masks(adj) == (list(range(17)), 14)
    for budget in (2, 13):
        monkeypatch.setattr(paths, "_STATE_BUDGET", budget)
        with pytest.raises(BudgetExceededError, match=f"exceeded {budget} states"):
            longest_path_masks(adj)
    monkeypatch.setattr(paths, "_STATE_BUDGET", 14)
    assert longest_path_masks(adj) == (list(range(17)), 14)


def _brute_from(adj, w):
    """Edges of the longest simple path out of w, by DFS."""
    def dfs(v, seen):
        return max((1 + dfs(x, seen | 1 << x) for x in iter_bits(adj[v] & ~seen)),
                   default=0)
    return dfs(w, 1 << w)


def test_search_window_holds_with_one_memo_for_every_call():
    """`_ahead` answers exactly inside its window, at least `cap` above it
    and an upper bound at most `floor` below it, when one memo serves
    calls from every start with caps and floors in random order: a bound
    stored under a high floor must not come back as a value under a lower
    one."""
    rng = random.Random(3030)
    below = 0
    for i in range(150):
        n = rng.randint(5, 9)
        g = random_digraph(n, rng.randint(n, n * (n - 1) // 2), i)
        adj = g.out_masks()
        into = [g.in_mask(w) for w in range(n)]
        values = [_brute_from(adj, w) for w in range(n)]
        memo = {}
        windows = [(w, cap, floor) for w in range(n) for cap in range(1, n)
                   for floor in range(-1, cap)]
        rng.shuffle(windows)
        for w, cap, floor in windows:
            got = paths._ahead(adj, into, memo, w, 1 << w, cap, floor)
            value = values[w]
            if value <= floor:
                assert value <= got <= floor
                below += got > value
            elif value >= cap:
                assert got >= cap
            else:
                assert got == value
    assert below  # some answers below the window are bounds, not values


def _clique_with_sinks(k, sinks):
    """Out-masks of the complete symmetric digraph on 0..k-1 with an edge
    from each clique vertex to each of `sinks` further vertices."""
    clique = (1 << k) - 1
    fan = ((1 << sinks) - 1) << k
    return [clique ^ 1 << v | fan for v in range(k)] + [0] * sinks


def test_reach_bound_settles_a_clique_with_sinks(monkeypatch):
    """K14 sending an edge to each of 2 sinks: support 16, longest path
    14 edges, one short of the 15 that the support allows.  A path out of
    a clique vertex ends at no more than one sink, so the reach bound caps
    it at 14 and the first descent settles it, in under 1,000 search
    calls; the exact-value memo search makes 975,215 to rule out 15."""
    calls = 0
    search = paths._ahead

    def counted(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(paths, "_ahead", counted)
    vertices, explored = longest_path_masks(_clique_with_sinks(14, 2))
    assert vertices == list(range(15))
    assert explored <= calls < 1000


def test_engine_takes_in_masks_from_graphs(monkeypatch):
    """A cyclic input gets its in-masks from graphs' one in-mask routine,
    once a call, with its edge count; an acyclic input needs none."""
    calls = []

    def counted(out, m):
        calls.append(m)
        return graphs._in_masks_of(out, m)

    monkeypatch.setattr(paths, "_in_masks_of", counted)
    for adj, m in ((complete_symmetric(5).out_masks(), 20),
                   (_clique_with_sinks(14, 2), 14 * 13 + 14 * 2)):
        before = len(calls)
        longest_path_masks(adj)
        assert calls[before:] == [m]
    before = len(calls)
    assert len(longest_path_masks(transitive_tournament(6).out_masks())[0]) == 6
    assert len(calls) == before


def test_engine_leaves_no_reference_cycles():
    """The search's memo is freed when the engine returns, not left in a
    reference cycle for the next full collection."""
    adj = _bipartite_both_ways(4, 6)
    gc.collect()
    gc.disable()
    try:
        assert len(longest_path_masks(adj)[0]) == 9
        assert gc.collect() == 0
    finally:
        gc.enable()
