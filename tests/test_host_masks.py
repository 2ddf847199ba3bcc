"""The host-id mask helpers against the relabelling compositions they
replace: each one, run on a host's masks and a vertex mask, must give what
the same computation gives on the relabelled induced subgraph, mapped back
through the new-to-old list of `reference_builder.subgraph`.  No stage of
the package relabels; the last test checks a recursed trace against the
host."""
import random

import pytest

from dipath_ramsey import (
    BLUE,
    RED,
    ColoringError,
    ConstantsConfig,
    DirectedPath,
    EdgeColoring,
    OrientedGraph,
    block_product_coloring,
    complete_symmetric,
    constructive_chromatic,
    dfs_long_path,
    find_cycle,
    gallai_roy,
    level_decomposition,
    longest_path_dag,
    maximal_acyclic_subgraph,
    multicolor_path_finder,
    random_digraph,
    random_oriented_graph,
    random_tournament,
    theorem1_adversary,
    transitive_tournament,
    two_color_path_finder,
)
from dipath_ramsey import classic, paths
from dipath_ramsey.adversary import _chromatic_classes, _greedy_acyclic
from dipath_ramsey.graphs import iter_bits, mask_of
from dipath_ramsey.paths import _levels
from dipath_ramsey.pseudorandom import _dfs_path
from reference_adversary import _chromatic_classes as reference_chromatic_classes
from reference_builder import subgraph

PAIRS = 1200


def _host(rng: random.Random, i: int) -> OrientedGraph:
    """Oriented graphs, digraphs with antiparallel pairs, tournaments and
    DAGs on shuffled ids, n <= 40, one kind after another."""
    n = rng.randint(0, 40)
    kind = i % 4
    if kind == 0:
        return random_oriented_graph(n, rng.randint(0, n * (n - 1) // 2), i)
    if kind == 1:
        return random_digraph(n, rng.randint(0, n * (n - 1)), i)
    if kind == 2:
        return random_tournament(n, i).underlying if n else OrientedGraph(0)
    rank = rng.sample(range(n), n)
    g = random_oriented_graph(n, rng.randint(0, n * (n - 1) // 2), i)
    return OrientedGraph(n, [(u, v) if rank[u] < rank[v] else (v, u) for u, v in g.edges()])


def _pairs():
    """(host, out, inn, vertex mask): every fifth subset empty, every fifth
    full, the rest random at densities 0.2 to 0.9."""
    rng = random.Random(1205)
    for i in range(PAIRS):
        g = _host(rng, i)
        full = g.full_mask()
        pick = i % 5
        if pick == 0:
            within = 0
        elif pick == 1:
            within = full
        else:
            p = pick * 0.2 + 0.1
            within = mask_of(v for v in range(g.n) if rng.random() < p)
        yield g, g.out_masks(), [g.in_mask(v) for v in range(g.n)], within


def test_chromatic_classes_match_relabelling():
    for g, out, inn, within in _pairs():
        sub, back = subgraph(g, iter_bits(within))
        want = [[back[v] for v in cls] for cls in constructive_chromatic(sub)]
        assert _chromatic_classes(out, inn, within) == want


# (generator, n, density) of the adversary benchmark's three regimes:
# sparse oriented hosts, dense oriented hosts, digraphs with antiparallel
# pairs; density is edges over n^2, as in experiment manifests
_ADVERSARY_HOSTS = ((random_oriented_graph, 300, 0.02), (random_oriented_graph, 150, 0.3),
                    (random_digraph, 120, 0.2))


def test_chromatic_classes_match_pairwise_reference():
    """The merge by neighborhood masks against the pairwise merge it
    replaced, on 1,020 hosts of the three regimes at up to full size and
    four vertex masks each: every vertex, the low-degree part X as the
    adversary splits it at q = 1, the rest, and a random half."""
    rng = random.Random(1509)
    cfg = ConstantsConfig()
    for i in range(1020):
        gen, top, density = _ADVERSARY_HOSTS[i % 3]
        n = rng.randint(1, top)
        g = gen(n, round(density * n * n), i)
        out, inn = g.out_masks(), [g.in_mask(v) for v in range(n)]
        x = mask_of(v for v in range(n) if g.degree(v) <= cfg.degree_threshold(n, 1))
        half = mask_of(v for v in range(n) if rng.random() < 0.5)
        for within in (g.full_mask(), x, g.full_mask() ^ x, half):
            assert _chromatic_classes(out, inn, within) == \
                reference_chromatic_classes(out, inn, within)


def test_block_levels_match_relabelling():
    """On acyclic vertex sets: the random set itself when it is acyclic,
    else the part of it the greedy pass keeps."""
    whole = 0
    for g, out, inn, within in _pairs():
        acyclic = _greedy_acyclic(out, inn, within)
        whole += acyclic == within
        sub, back = subgraph(g, iter_bits(acyclic))
        want = [[back[v] for v in lv] for lv in level_decomposition(sub)]
        assert _levels(inn, acyclic) == want
    assert whole >= PAIRS // 3  # empty sets, sparse sets and DAG hosts


def test_dfs_path_matches_relabelling():
    for g, out, _, within in _pairs():
        sub, back = subgraph(g, iter_bits(within))
        want = tuple(back[v] for v in dfs_long_path(sub).vertices)
        assert _dfs_path(out, within) == want


def _parent_gallai_roy(g, threshold):
    """gallai_roy as the composition of its three public parts."""
    h = maximal_acyclic_subgraph(g)
    levels = level_decomposition(h)
    if len(levels) <= threshold:
        return levels
    return longest_path_dag(h)


def _as_tuple(outcome):
    if isinstance(outcome, DirectedPath):
        return ("path", outcome.vertices)
    return ("coloring", outcome)


def test_gallai_roy_matches_composition(monkeypatch):
    """Same outcome as the composition.  The first pass of `_heights` is
    on g's own out-masks; an acyclic host then needs no other on the path
    branch and one more on the coloring branch, the levels, while a cyclic
    host takes one more on each branch, on its maximal acyclic subgraph."""
    rng = random.Random(77)
    kinds = set()
    for i in range(300):
        g = _host(rng, i)
        acyclic = find_cycle(g) is None
        for threshold in (1, 2, 3, 5, 8, 40):
            want = _as_tuple(_parent_gallai_roy(g, threshold))
            calls = []
            heights = paths._heights
            for module in (classic, paths):
                monkeypatch.setattr(module, "_heights",
                                    lambda adj, *a: calls.append(adj) or heights(adj, *a))
            got = gallai_roy(g, threshold)
            monkeypatch.undo()
            assert _as_tuple(got) == want
            assert calls[0] == g.out_masks()
            assert len(calls) == (want[0] == "coloring") + (1 if acyclic else 2)
            kinds.add((acyclic, want[0]))
    assert len(kinds) == 4


def test_gallai_roy_empty_graph():
    assert gallai_roy(OrientedGraph(0), 1) == [[]]


def test_no_relabelling_outside_the_color_recursion():
    """The adversary, the two-color finder's block stage, the block
    product's inner check and the color recursion all run in host ids: a
    3-color run that recurses into the block stage leaves a trace whose
    blocks, block paths and cycles are checked on the host coloring."""
    dense = random_oriented_graph(40, 350, 2)
    result = theorem1_adversary(dense, 1)
    assert result.partition.families and result.partition.x
    digraph = random_digraph(40, 800, 1)
    result = theorem1_adversary(digraph, 2, ConstantsConfig.relaxed())
    assert len(result.partition.families) == 2 and result.partition.residue_classes

    g = complete_symmetric(42)
    col = EdgeColoring(2, {(u, v): RED if u % 2 == 0 and v == u + 1 else BLUE
                           for u, v in g.edges()})
    cert = two_color_path_finder(g, col, 1)
    cert.validate(g, col)
    assert len(cert.trace.cycles) == 6 and cert.branch == "blue-case"

    # color 3 runs from the even vertices to the odd ones, so the recursion
    # takes the evens, where the coloring above sits on their ranks; the
    # odd-to-even arcs keep colors 1 and 2 outside the class
    g = complete_symmetric(84)
    col = EdgeColoring(3, {(u, v): 3 if u % 2 < v % 2 else
                           RED if u % 4 == 0 and v == u + 2 else BLUE
                           for u, v in g.edges()})
    cert = multicolor_path_finder(g, col, 1, 2)
    cert.validate(g, col)
    trace = cert.trace
    assert trace.notes[-1] == "recursed on a class of 42 vertices"
    assert cert.branch == "blue-case" and len(trace.cycles) == 6
    seen = 0
    for block, path in zip(trace.blocks, trace.block_paths):
        assert not seen & mask_of(block) and all(v % 2 == 0 for v in block)
        seen |= mask_of(block)
        assert set(path) <= set(block)
        assert all(col.get(u, v) == BLUE for u, v in zip(path, path[1:]))
    for cyc in trace.cycles:
        assert all(col.get(u, v) == BLUE for u, v in zip(cyc, cyc[1:] + cyc[:1]))

    # two blocks on high ids, each with inner edges, small enough for the
    # exact inner check
    host = transitive_tournament(12)
    blocks = [(5, 7, 9), (8, 10, 11)]
    inner = EdgeColoring(2, {(5, 7): 1, (7, 9): 2, (5, 9): 2, (8, 10): 1, (10, 11): 1,
                             (8, 11): 2})
    inside = {e for b in blocks for e in host.edges() if e[0] in b and e[1] in b}
    assert inside == set(dict(inner.items()))
    others = [(v,) for v in range(12) if all(v not in b for b in blocks)]
    block_product_coloring(host, blocks + others, inner, 2).validate_total(host)
    with pytest.raises(ColoringError, match="color-1 path longer than r=1"):
        block_product_coloring(host, blocks + others, inner, 1)
