"""Avoidance colorings: digit products, acyclic sets, the full pipeline."""
import math
import random
from dataclasses import astuple, replace

import pytest
from hypothesis import example, given, settings, strategies as st

from dipath_ramsey import (
    ColoringError,
    ConstantsConfig,
    EdgeColoring,
    GraphShapeError,
    OrientedGraph,
    Tournament,
    acyclic_edge_coloring,
    block_product_bound,
    block_product_coloring,
    check_partition,
    color_classes_coloring,
    complete_symmetric,
    constructive_chromatic,
    find_cycle,
    level_decomposition,
    longest_mono_path,
    max_mono_path,
    min_max_mono_path,
    minimal_base,
    random_digraph,
    random_oriented_graph,
    random_tournament,
    sparse_acyclic_set,
    symmetric_adversary,
    theorem1_adversary,
    tournament_acyclic_set,
    transitive_tournament,
)
from dipath_ramsey.adversary import (
    AcyclicSearchState,
    _acyclic_candidates,
    _completion_chain,
    _digits,
)
from dipath_ramsey.graphs import mask_of
import reference_adversary
from reference_builder import subgraph
from reference_classic import is_proper_partition

RELAXED = ConstantsConfig.relaxed()


# -- digit helpers ---------------------------------------------------------

def test_minimal_base():
    assert minimal_base(1, 2) == 1
    assert minimal_base(3, 2) == 2
    assert minimal_base(4, 2) == 2
    assert minimal_base(5, 2) == 3
    assert minimal_base(9, 1) == 9


def test_digits_msb_first():
    assert _digits(6, 2, 3) == (1, 1, 0)
    assert _digits(0, 3, 2) == (0, 0)


# -- chromatic merging -----------------------------------------------------

def test_chromatic_edgeless_single_class():
    assert constructive_chromatic(OrientedGraph(5)) == [[0, 1, 2, 3, 4]]


def test_chromatic_complete_symmetric_no_merge():
    assert constructive_chromatic(complete_symmetric(4)) == [[0], [1], [2], [3]]


def test_chromatic_single_edge():
    classes = constructive_chromatic(OrientedGraph(2, [(0, 1)]))
    assert classes == [[0], [1]]
    assert len(classes) <= 2 * math.sqrt(1) + 1


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 10), st.integers(0, 60), st.integers(0, 2**31))
def test_chromatic_proper_and_bounded(n, m, seed):
    g = random_digraph(n, min(m, n * (n - 1)), seed)
    classes = constructive_chromatic(g)
    assert is_proper_partition(g, classes)
    assert len(classes) <= 2 * math.sqrt(max(1, g.edge_count)) + 1


# -- acyclic sets ----------------------------------------------------------

def test_tournament_chain_transitive():
    chain = tournament_acyclic_set(Tournament(transitive_tournament(8)))
    assert len(chain) >= 4  # floor(log2 8) + 1


def test_tournament_chain_three_cycle():
    t = Tournament(OrientedGraph(3, [(0, 1), (1, 2), (2, 0)]))
    chain = tournament_acyclic_set(t)
    assert len(chain) == 2


@pytest.mark.parametrize("seed", range(6))
def test_tournament_chain_log_bound(seed):
    n = 32
    t = random_tournament(n, seed)
    chain = tournament_acyclic_set(t)
    assert len(chain) >= math.floor(math.log2(n)) + 1
    sub, _ = subgraph(t.underlying, chain)
    assert find_cycle(sub) is None


def test_sparse_acyclic_edgeless_takes_everything():
    res = sparse_acyclic_set(OrientedGraph(7))
    assert sorted(res.vertices) == list(range(7))
    assert res.achieved


def test_sparse_acyclic_transitive_whole_set():
    res = sparse_acyclic_set(transitive_tournament(9))
    assert sorted(res.vertices) == list(range(9))


def test_sparse_acyclic_rejects_antiparallel():
    g = OrientedGraph(2, [(0, 1), (1, 0)], allow_antiparallel=True)
    with pytest.raises(GraphShapeError):
        sparse_acyclic_set(g)


def test_sparse_acyclic_output_always_acyclic():
    rng = random.Random(0)
    for i in range(60):
        n = rng.randint(1, 30)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_oriented_graph(n, m, i)
        res = sparse_acyclic_set(g)
        sub, _ = subgraph(g, res.vertices)
        assert find_cycle(sub) is None
        eps = g.edge_count / (n * n)
        if eps < 0.25 and n >= 2:
            assert len(res.vertices) >= math.floor(math.log2(n))


def test_sparse_acyclic_vs_bruteforce_subsamples():
    """n=200 low density: beats the exact optimum of 15-vertex subsamples."""
    n = 200
    g = random_oriented_graph(n, round(0.01 * n * n), 7)
    res = sparse_acyclic_set(g)
    assert len(res.vertices) >= math.floor(math.log2(n))
    rng = random.Random(13)
    for _ in range(4):
        sample = sorted(rng.sample(range(n), 15))
        sub, _ = subgraph(g, sample)
        best = _max_acyclic_bruteforce(sub)
        assert len(res.vertices) >= best


def _max_acyclic_bruteforce(g) -> int:
    """Exact maximum acyclic induced subset by descending-size scan."""
    import itertools
    for size in range(g.n, 0, -1):
        for cand in itertools.combinations(range(g.n), size):
            sub, _ = subgraph(g, cand)
            if find_cycle(sub) is None:
                return size
    return 0


def test_sparse_acyclic_greedy_beats_target_on_random():
    # on sparse random graphs the greedy pass alone clears the target,
    # so the improvement loop stays idle and records no steps
    for seed in range(10):
        g = random_oriented_graph(120, 288, seed)
        res = sparse_acyclic_set(g)
        assert res.achieved
        assert len(res.vertices) >= res.target
        # state vertex ids are host ids; check the containment chain
        # whenever steps do occur
        for state in res.steps:
            u = set(state.U)
            assert not (u & set(state.R_star))
            assert not (set(state.R) & (u | set(state.R_star)))
            assert set(state.R_prime) <= set(state.R)
            assert set(state.R_double_prime) <= set(state.R_prime)


def _gadget(k: int, hubs: int = 0, seed: int | None = None) -> OrientedGraph:
    """k copies of w->a, a->v1, a->v2, v1->w, v2->w in role-major ids
    (w_i = i, a_i = k+i, v1_i = 2k+i, v2_i = 3k+i), plus `hubs` vertices
    that every gadget vertex points to, ids shuffled when `seed` is set."""
    edges = []
    for i in range(k):
        w, a, v1, v2 = i, k + i, 2 * k + i, 3 * k + i
        edges += [(w, a), (a, v1), (a, v2), (v1, w), (v2, w)]
    edges += [(u, 4 * k + h) for h in range(hubs) for u in range(4 * k)]
    perm = list(range(4 * k + hubs))
    if seed is not None:
        random.Random(seed).shuffle(perm)
    return OrientedGraph(len(perm), [(perm[u], perm[v]) for u, v in edges])


def test_sparse_acyclic_improvement_step_on_gadgets():
    """The greedy pass keeps every w and a (8 vertices at k=4) and the
    completion chain has 9; one step swaps the covered w's for the
    chain of all v's, and the a's and v's (12) are acyclic."""
    g = _gadget(4)
    res = sparse_acyclic_set(g, ConstantsConfig(c=4.0))
    out, inn = g.out_masks(), [g.in_mask(v) for v in range(g.n)]
    assert len(_completion_chain(out, inn, g.full_mask())) == 9
    assert len(res.steps) == 1
    step = res.steps[0]
    assert step.U == tuple(range(8))
    assert step.R_double_prime == tuple(range(8, 16))
    assert res.vertices == tuple(range(4, 16))
    assert not res.achieved
    assert find_cycle(subgraph(g, res.vertices)[0]) is None


def _reference_cases():
    """(graph, config) pairs for the reference comparison: random oriented
    graphs of every density regime, and the gadgets with and without hubs
    that the degree filter drops."""
    rng = random.Random(11)
    cases = []
    for i in range(900):
        n = rng.randint(0, 36)
        density = rng.choice([0.0, 0.02, 0.05, 0.1, 0.18, 0.24, 0.3])
        m = min(round(density * n * n), n * (n - 1) // 2)
        cfg = ConstantsConfig(c=rng.choice([0.1, 0.5, 1.0, 2.0, 4.0]))
        cases.append((random_oriented_graph(n, m, i), cfg))
    for k in range(1, 7):
        for hubs in range(3):
            for seed in (None, 1, 2):
                for c in (0.5, 4.0):
                    cases.append((_gadget(k, hubs, seed), ConstantsConfig(c=c)))
    return cases


def test_sparse_acyclic_matches_relabelling_reference():
    """The mask-level search gives the reference's vertices, target, flag
    and steps; the reference's step ids name the degree-filtered subgraph,
    so they are mapped to host ids first."""
    stepped = filtered = 0
    cases = _reference_cases()
    assert len(cases) >= 1000
    for g, cfg in cases:
        got, ref = sparse_acyclic_set(g, cfg), reference_adversary.sparse_acyclic_set(g, cfg)
        assert (got.vertices, got.target, got.achieved) == \
            (ref.vertices, ref.target, ref.achieved)
        eps = g.edge_count / (g.n * g.n) if g.n else 0.0
        keep = [v for v in range(g.n) if g.in_degree(v) <= 2 * eps * g.n]
        host = [AcyclicSearchState(*(tuple(keep[v] for v in part) for part in astuple(s)))
                for s in ref.steps]
        assert list(got.steps) == host
        stepped += bool(got.steps)
        filtered += bool(got.steps) and len(keep) < g.n
    assert stepped >= 20 and filtered >= 10


def test_acyclic_candidates_match_relabelling_reference():
    """On digraphs with antiparallel pairs, restricted to a random vertex
    set: the candidates found on the host's masks are the reference's,
    found on the relabelled subgraph, mapped back to host ids."""
    rng = random.Random(12)
    for i in range(300):
        n = rng.randint(1, 30)
        gen = random_digraph if i % 2 else random_oriented_graph
        cap = n * (n - 1) // (1 if i % 2 else 2)
        g = gen(n, min(cap, round(rng.choice([0.05, 0.15, 0.3, 0.6]) * n * n)), i)
        within = [v for v in range(n) if rng.random() < 0.8] or [0]
        cfg = RELAXED if i % 3 else ConstantsConfig()
        sub, back = subgraph(g, within)
        ref = [back[v] for v in reference_adversary._acyclic_candidates(sub, cfg)]
        out, inn = g.out_masks(), [g.in_mask(v) for v in range(n)]
        assert _acyclic_candidates(out, inn, mask_of(within), cfg) == ref


# -- digit colorings -------------------------------------------------------

def test_block_product_digit_table():
    """Four singleton blocks, q=2, r=0: hand-computed color table."""
    g = complete_symmetric(4)
    blocks = [(0,), (1,), (2,), (3,)]
    inner = EdgeColoring(3, {})
    col = block_product_coloring(g, blocks, inner, 0)
    assert col.color(0, 1) == 2   # (00) -> (01): second digit grows
    assert col.color(1, 2) == 1   # (01) -> (10): first digit grows
    assert col.color(1, 0) == 3   # (01) -> (00): no growth, escape color
    assert col.color(0, 3) == 1
    assert col.color(3, 0) == 3
    assert max_mono_path(g, col) <= block_product_bound(4, 2, 0) == 4


def test_block_product_single_block_is_inner():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    inner = EdgeColoring(2, {(0, 1): 1, (1, 2): 1})
    col = block_product_coloring(g, [(0, 1, 2)], inner, 2)
    assert col.color(0, 1) == 1 and col.color(1, 2) == 1


def test_block_product_rejects_overlap():
    g = complete_symmetric(3)
    with pytest.raises(ColoringError):
        block_product_coloring(g, [(0, 1), (1, 2)], EdgeColoring(2, {}), 0)


def test_block_product_rejects_understated_inner_bound():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    inner = EdgeColoring(2, {(0, 1): 1, (1, 2): 1})
    with pytest.raises(ColoringError):
        block_product_coloring(g, [(0, 1, 2)], inner, 1)


def test_block_product_rejects_inner_non_edge():
    """An inner pair inside a block that the host lacks is refused, before
    it could reach the result as a colored non-edge."""
    g = OrientedGraph(2, [(0, 1)])
    inner = EdgeColoring(2, {(0, 1): 1, (1, 0): 2})
    with pytest.raises(ColoringError, match=r"inner edge \(1,0\) is not an edge"):
        block_product_coloring(g, [(0, 1)], inner, 1)


@pytest.mark.parametrize("blocks, inner, error, message", [
    ([(0,), (1,)], EdgeColoring(1, {}), ColoringError, "at least 2 colors"),
    ([(0, 3)], EdgeColoring(2, {}), GraphShapeError, "block vertex 3 outside"),
    ([(0,), (1,)], EdgeColoring(2, {(0, 1): 1}), ColoringError,
     r"inner edge \(0,1\) does not stay within one block"),
    ([(0, 1), (2,)], EdgeColoring(2, {}), ColoringError,
     r"edge \(0,1\) inside block 0 missing from inner coloring"),
])
def test_block_product_rejects_bad_input(blocks, inner, error, message):
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(error, match=message):
        block_product_coloring(g, blocks, inner, 1)


def test_color_classes_three_cycle_singletons():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    col = color_classes_coloring(g, [[0], [1], [2]], 2)
    assert [col.color(u, v) for (u, v) in [(0, 1), (1, 2), (2, 0)]] == [2, 1, 3]
    assert max_mono_path(g, col) <= block_product_bound(3, 2, 0) == 4
    assert max_mono_path(g, col) <= 1


def test_color_classes_bipartite_q1():
    g = OrientedGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    classes = constructive_chromatic(g)
    col = color_classes_coloring(g, classes, 1)
    assert max_mono_path(g, col) <= block_product_bound(len(classes), 1, 0)


def test_color_classes_requires_proper():
    g = OrientedGraph(2, [(0, 1)])
    with pytest.raises(ColoringError, match=r"edge \(0,1\) inside block 0 missing"):
        color_classes_coloring(g, [[0, 1]], 1)


@pytest.mark.parametrize("classes", [
    [[0], [1]],             # vertex 2 in no class
    [[0, 2], [1], [2]],     # vertex 2 in two classes
    [[0, 2], [1, 3]],       # a vertex outside the host
    [[0, 2], [1], [-1]],    # a negative id
])
def test_color_classes_requires_a_partition(classes):
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(ColoringError, match="do not partition"):
        color_classes_coloring(g, classes, 1)


def test_acyclic_coloring_path_example():
    g = OrientedGraph(4, [(0, 1), (1, 2), (2, 3)])
    col = acyclic_edge_coloring(g, 2)
    assert [col.color(u, v) for (u, v) in [(0, 1), (1, 2), (2, 3)]] == [2, 1, 2]
    assert max_mono_path(g, col) == 1
    # 4 levels, base s = 2 (4 <= s^2): paths of at most s - 1 = 1 edge
    assert minimal_base(len(level_decomposition(g)), 2) - 1 == 1


def test_acyclic_coloring_q1_single_color():
    g = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    col = acyclic_edge_coloring(g, 1)
    assert all(c == 1 for _, c in col.items())


def test_acyclic_coloring_edgeless():
    col = acyclic_edge_coloring(OrientedGraph(4), 2)
    assert len(col) == 0


def test_acyclic_coloring_rejects_cycles():
    from dipath_ramsey import CyclicGraphError
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(CyclicGraphError):
        acyclic_edge_coloring(g, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.integers(1, 3), st.integers(0, 2**31))
def test_digit_monotonicity_invariant(num_blocks, q, seed):
    """Color y <= q strictly raises the y-th digit; escape color strictly
    lowers the digit sum."""
    rng = random.Random(seed)
    sizes = [rng.randint(1, 2) for _ in range(num_blocks)]
    total = sum(sizes)
    g = complete_symmetric(total)
    blocks, at = [], 0
    for s in sizes:
        blocks.append(tuple(range(at, at + s)))
        at += s
    owner = {v: i for i, b in enumerate(blocks) for v in b}
    inner_edges = [(u, v) for (u, v) in g.edges() if owner[u] == owner[v]]
    inner = EdgeColoring(q + 1, {e: q + 1 for e in inner_edges})
    col = block_product_coloring(g, blocks, inner, 1)
    s = minimal_base(num_blocks, q)
    codes = [_digits(i, s, q) for i in range(num_blocks)]
    for (u, v), c in col.items():
        bu, bv = owner[u], owner[v]
        if bu == bv:
            continue
        if c <= q:
            assert codes[bu][c - 1] < codes[bv][c - 1]
        else:
            assert sum(codes[bu]) > sum(codes[bv])


# -- full pipeline ---------------------------------------------------------

def test_theorem1_edgeless():
    result = theorem1_adversary(OrientedGraph(6), 1)
    assert len(result.coloring) == 0
    assert result.partition.total_bound >= 0


def test_theorem1_medium_trace_bound():
    g = random_oriented_graph(300, round(0.02 * 300 * 300), 11)
    result = theorem1_adversary(g, 1, RELAXED)
    check_partition(g, result, RELAXED, 1)
    measured = max_mono_path(g, result.coloring)
    assert measured <= result.partition.total_bound


def test_theorem1_dense_families_appear():
    """Default constants at q=1.  The second host reaches a step whose
    coverage goal is already met, which adds no family; the third runs out
    of candidates before a step's goal, and the leftovers stay behind."""
    for g, blocks in ((random_oriented_graph(40, 350, 2), [2]),
                      (random_oriented_graph(12, 43, 0), [2, 1]),
                      (random_digraph(40, 720, 0), [1, 5, 4])):
        result = theorem1_adversary(g, 1)
        check_partition(g, result, ConstantsConfig(), 1)
        assert [len(fam.blocks) for fam in result.partition.families] == blocks
        for fam in result.partition.families:
            assert len({len(b) for b in fam.blocks}) == 1
            for block in fam.blocks:
                sub, _ = subgraph(g, block)
                assert find_cycle(sub) is None
        measured = max_mono_path(g, result.coloring)
        assert measured <= result.partition.total_bound


def _corruptions(g, result):
    """(message, corrupted result) pairs, one per invariant of
    `check_partition`, each from the valid `result` on g by one change."""
    p = result.partition
    fam = p.families[0]
    cycle = tuple(find_cycle(g))
    every = tuple(range(g.n))
    u, v = next((u, v) for u, v in g.edges() if (u in p.x) != (v in p.x))
    flipped = dict(result.coloring.items())
    flipped[(u, v)] = 3 - flipped[(u, v)]
    yield "do not partition V", replace(p, x=p.x[1:])
    yield "block sizes", replace(p, families=(replace(fam, size=fam.size + 1),))
    yield "not acyclic", replace(p, families=(replace(fam, size=len(cycle), blocks=(cycle,)),))
    yield "termination threshold", replace(p, x=(), residue=every, covered=())
    yield "escape scheme", EdgeColoring(2, flipped)


def test_check_partition_catches_each_corruption():
    """A valid run with a family passes; each single corruption of its
    partition or coloring fails with the invariant it breaks."""
    g = random_oriented_graph(40, 350, 2)
    result = theorem1_adversary(g, 1)
    check_partition(g, result, ConstantsConfig(), 1)
    for message, bad in _corruptions(g, result):
        field = "coloring" if isinstance(bad, EdgeColoring) else "partition"
        with pytest.raises(AssertionError, match=message):
            check_partition(g, replace(result, **{field: bad}), ConstantsConfig(), 1)


@pytest.mark.parametrize("q", [1, 2])
def test_theorem1_valid_at_q(q):
    g = random_oriented_graph(60, 300, q)
    result = theorem1_adversary(g, q, RELAXED)
    result.coloring.validate_total(g)
    assert result.coloring.num_colors == q + 1
    check_partition(g, result, RELAXED, q)


def test_theorem1_escape_no_reentry():
    """Cross-part edges: color 1 only forward (X->res->covered), color 2
    only backward, so no monochromatic path leaves a part and returns."""
    g = random_oriented_graph(80, 600, 5)
    result = theorem1_adversary(g, 1, RELAXED)
    p = result.partition
    part = {}
    for v in p.x:
        part[v] = 0
    for v in p.residue:
        part[v] = 1
    for v in p.covered:
        part[v] = 2
    for (u, v), c in result.coloring.items():
        if part[u] != part[v]:
            assert c == (1 if part[u] < part[v] else 2)


def test_theorem1_color_classes_acyclic():
    """Every color class of the pipeline coloring is acyclic, so the exact
    measurement takes the DAG route at any size."""
    hosts = [random_oriented_graph(150, round(0.02 * 150 * 150), 1),
             random_oriented_graph(40, 350, 2),
             random_digraph(60, 500, 3),
             random_tournament(32, 4).underlying]
    families = 0
    for g in hosts:
        for q in (1, 2):
            for cfg in (ConstantsConfig(), RELAXED):
                res = theorem1_adversary(g, q, cfg)
                families += len(res.partition.families)
                for c in range(1, q + 1):
                    out = res.coloring.out_masks(c, g.n)
                    assert find_cycle(OrientedGraph.from_masks(g.n, out)) is None
                per_color = longest_mono_path(g, res.coloring)
                assert all(r.explored == g.n for r in per_color.values())
                assert max(r.value for r in per_color.values()) <= res.partition.total_bound
    assert families


def test_theorem1_beats_nothing_smaller_than_optimum():
    rng = random.Random(21)
    for i in range(25):
        n = rng.randint(2, 7)
        m = rng.randint(1, min(14, n * (n - 1) // 2))
        g = random_oriented_graph(n, m, i + 500)
        result = theorem1_adversary(g, 1, RELAXED)
        measured = max_mono_path(g, result.coloring)
        assert measured >= min_max_mono_path(g, 2).value


def _ref_color(i: int, j: int, count: int, q: int) -> int:
    """Digit-product color of an edge from group i to group j among
    `count` groups: base-s codes with q digits, most significant first;
    the lowest position where i's digit is below j's, else q + 1."""
    s = 1
    while s ** q < count:
        s += 1
    di = [i // s ** (q - 1 - y) % s for y in range(q)]
    dj = [j // s ** (q - 1 - y) % s for y in range(q)]
    return next((y + 1 for y in range(q) if di[y] < dj[y]), q + 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.floats(0.0, 0.45), st.integers(1, 3),
       st.integers(0, 2**31), st.booleans(), st.booleans())
@example(40, 350 / 780, 1, 2, False, False)  # one family of several blocks
@example(10, 0.4, 1, 0, True, False)  # two families
def test_theorem1_colors_follow_from_partition(n, density, q, seed, digraph, relaxed):
    """Every edge's color, recomputed one edge at a time from the returned
    partition: escape colors between parts, classes of the proper coloring
    inside X and the residue, then families, blocks and levels."""
    gen = random_digraph if digraph else random_oriented_graph
    g = gen(n, round(density * n * (n - 1) / (1 if digraph else 2)), seed)
    cfg = RELAXED if relaxed else ConstantsConfig()
    result = theorem1_adversary(g, q, cfg)
    p = result.partition
    part = {v: i for i, verts in enumerate((p.x, p.residue, p.covered)) for v in verts}
    cls = {}
    for verts in (p.x, p.residue):
        sub, back = subgraph(g, verts)
        classes = constructive_chromatic(sub)
        for c, members in enumerate(classes):
            for v in members:
                cls[back[v]] = (c, len(classes))
    place = {}
    for f, rec in enumerate(p.families):
        for b, block in enumerate(rec.blocks):
            levels = level_decomposition(subgraph(g, block)[0])
            for depth, members in enumerate(levels):
                for v in members:
                    place[block[v]] = (f, b, depth, len(levels))
    want = {}
    for u, v in g.edges():
        if part[u] != part[v]:
            want[(u, v)] = 1 if part[u] < part[v] else 2
        elif part[u] < 2:
            want[(u, v)] = _ref_color(cls[u][0], cls[v][0], cls[u][1], q)
        else:
            (fu, bu, lu, count), (fv, bv, lv, _) = place[u], place[v]
            if fu != fv:
                want[(u, v)] = _ref_color(fu, fv, len(p.families), q)
            elif bu != bv:
                want[(u, v)] = _ref_color(bu, bv, len(p.families[fu].blocks), q)
            else:
                want[(u, v)] = _ref_color(lu, lv, count, q + 1)
    assert result.coloring == EdgeColoring(q + 1, want)


# -- symmetric hosts -------------------------------------------------------

def test_symmetric_adversary_k4():
    g = complete_symmetric(4)
    col = symmetric_adversary(g, 1)
    col.validate_total(g)
    measured = max_mono_path(g, col)
    m = g.edge_count
    assert measured <= math.ceil(2 * math.sqrt(m) + 1)
    assert measured >= min_max_mono_path(g, 2).value == 2


def test_symmetric_adversary_single_pair():
    g = OrientedGraph(2, [(0, 1), (1, 0)], allow_antiparallel=True)
    col = symmetric_adversary(g, 1)
    assert max_mono_path(g, col) == 1


def test_symmetric_adversary_edgeless():
    assert len(symmetric_adversary(OrientedGraph(3), 1)) == 0


@pytest.mark.parametrize("n", [4, 6, 8])
def test_proposition4_desk(n):
    """Fewer than (n/3)^2 edges: the 2-coloring avoids mono paths of
    length n."""
    limit = max(1, math.ceil((n / 3) ** 2) - 1)
    rng = random.Random(n)
    for i in range(40):
        verts = rng.randint(2, 10)
        m = rng.randint(1, min(limit, verts * (verts - 1)))
        g = random_digraph(verts, m, i * 31 + n)
        col = symmetric_adversary(g, 1)
        assert max_mono_path(g, col) < n


def test_digit_colorings_need_a_positive_q():
    with pytest.raises(ValueError, match="q must be >= 1"):
        minimal_base(4, 0)
    with pytest.raises(ValueError, match="q must be >= 1"):
        acyclic_edge_coloring(transitive_tournament(3), 0)
