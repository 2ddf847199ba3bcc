"""Path construction in 2-colored and many-colored hosts."""
import itertools
import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import reference_builder

from dipath_ramsey import (
    BLUE,
    RED,
    ColoringError,
    ConstantsConfig,
    DEFAULT_CONFIG,
    EdgeColoring,
    GraphShapeError,
    OrientedGraph,
    complete_symmetric,
    multicolor_path_finder,
    random_oriented_graph,
    random_tournament,
    symmetric_multicolor_finder,
    transitive_tournament,
    two_color_path_finder,
)
from dipath_ramsey.graphs import mask_of

RELAXED = ConstantsConfig.relaxed()


def _all_color(g, c, num=2):
    return EdgeColoring(num, {e: c for e in g.edges()})


# -- two-color pipeline ----------------------------------------------------

def test_all_red_hamilton():
    g = complete_symmetric(9)
    cert = two_color_path_finder(g, _all_color(g, RED), 2)
    cert.validate(g, _all_color(g, RED))
    assert cert.branch == "red-case"
    assert cert.color == RED
    assert cert.path.length == 8
    assert cert.guarantee_active


def test_certificate_validate_rejects_foreign_path_and_wrong_color():
    g = complete_symmetric(9)
    col = _all_color(g, RED)
    cert = two_color_path_finder(g, col, 2)
    with pytest.raises(GraphShapeError, match="not a path of the host graph"):
        cert.validate(OrientedGraph(9), col)
    with pytest.raises(ColoringError, match=r"claims color 2 but \(0,1\) has color 1"):
        replace(cert, color=BLUE).validate(g, col)


def test_all_blue_blue_case_frozen():
    g = complete_symmetric(20)
    col = _all_color(g, BLUE)
    cert = two_color_path_finder(g, col, 1)
    cert.validate(g, col)
    assert cert.branch == "blue-case"
    assert cert.color == BLUE
    assert cert.path.length == 7
    assert cert.trace.blocks == ((0, 1, 2, 3, 4, 5, 6), (7, 8, 9, 10, 11, 12, 13))
    assert [len(c) for c in cert.trace.cycles] == [7, 7]
    assert cert.guarantee_active and cert.trace.floors_met
    assert cert.trace.c_blue == 28


def test_single_cycle_blue_lap():
    g = complete_symmetric(10)
    col = _all_color(g, BLUE)
    cert = two_color_path_finder(g, col, 1)
    cert.validate(g, col)
    assert cert.branch == "blue-case"
    assert cert.path.length == 6
    assert [len(c) for c in cert.trace.cycles] == [7]
    assert cert.trace.aux_branch == "blue"


def test_red_matching_goes_blue():
    g = complete_symmetric(42)
    assign = {}
    for (u, v) in g.edges():
        assign[(u, v)] = RED if (u % 2 == 0 and v == u + 1) else BLUE
    col = EdgeColoring(2, assign)
    cert = two_color_path_finder(g, col, 1)
    cert.validate(g, col)
    assert cert.branch == "blue-case"
    assert cert.path.length == 11
    assert len(cert.trace.blocks) == 6
    assert all(len(c) == 7 for c in cert.trace.cycles)
    assert cert.guarantee_active


def test_bipartite_red_threads_cycles():
    # red edges only left-to-right: blue cycles are joined by a red
    # step in the auxiliary decomposition, exercising the threading leg
    g = complete_symmetric(29)
    left = set(range(15))
    assign = {}
    for (u, v) in g.edges():
        assign[(u, v)] = RED if (u in left and v not in left) else BLUE
    col = EdgeColoring(2, assign)
    cert = two_color_path_finder(g, col, 2)
    cert.validate(g, col)
    assert cert.branch == "red-case"
    assert cert.trace.aux_branch == "red"
    assert cert.trace.aux_path == (1, 0)
    assert cert.path.vertices == (0, 15)
    assert not cert.trace.notes  # threading succeeded, no fallback note


def test_acyclic_blue_falls_back():
    # all-blue transitive host: no blue cycle can close, so the pipeline
    # honestly reports the fallback branch with a plain long path
    g = transitive_tournament(12)
    col = _all_color(g, BLUE)
    cert = two_color_path_finder(g, col, 1)
    cert.validate(g, col)
    assert cert.branch == "small-n-fallback"
    assert cert.path.length == 11
    assert not cert.guarantee_active
    assert not cert.trace.floors_met


def _planted_red_forward(g, k, cfg, seed):
    """Red runs forward between cfg.red_threshold(n, k) random vertex
    classes and blue takes the rest, so the red dichotomy gives a coloring
    and the block, cycle and Raynaud stages run."""
    rng = random.Random(seed)
    parts = cfg.red_threshold(g.n, k)
    cls = [rng.randrange(parts) for _ in range(g.n)]
    return EdgeColoring(2, {(u, v): RED if cls[u] < cls[v] else BLUE for u, v in g.edges()})


def test_short_block_cycle_misses_the_floors():
    # a cycle floor of the whole block (4k vertices): every block path meets
    # its floor, but some cycle is shorter than its block
    cfg = replace(RELAXED, cycle_floor_factor=4)
    g = random_tournament(48, 0).underlying
    col = _planted_red_forward(g, 2, cfg, 2001)
    cert = two_color_path_finder(g, col, 2, cfg)
    cert.validate(g, col)
    assert cert.branch == "blue-case"
    assert all(len(p) - 1 >= cfg.path_floor_factor * 2 for p in cert.trace.block_paths)
    assert min(map(len, cert.trace.cycles)) < cfg.cycle_floor_factor * 2
    assert cert.trace.floors_met is False
    assert cert.guarantee_active is False


def test_small_representative_set_misses_the_floors():
    # the red path threads the cycles and every block meets its floors,
    # but some cycle keeps fewer than 2k vertices with no blue edge into
    # the next cycle on the auxiliary path
    k = 4
    g = random_oriented_graph(48, 460, 0)
    col = _planted_red_forward(g, k, RELAXED, 4002)
    cert = two_color_path_finder(g, col, k, RELAXED)
    cert.validate(g, col)
    assert (cert.branch, cert.trace.aux_branch, cert.trace.notes) == ("red-case", "red", ())
    assert all(len(p) - 1 >= RELAXED.path_floor_factor * k for p in cert.trace.block_paths)
    assert len(cert.trace.cycles) == len(cert.trace.blocks)
    assert all(len(c) >= RELAXED.cycle_floor_factor * k for c in cert.trace.cycles)
    blue, cycles, hpath = col.out_masks(BLUE, g.n), cert.trace.cycles, cert.trace.aux_path
    reps = [sum(1 for v in cycles[a] if not blue[v] & mask_of(cycles[b]))
            for a, b in zip(hpath, hpath[1:])]
    assert min(reps) < 2 * k
    assert cert.trace.floors_met is False
    assert cert.guarantee_active is False


def test_red_threading_failure_falls_back():
    g = random_tournament(48, 3).underlying
    col = _planted_red_forward(g, 1, RELAXED, 3049)
    cert = two_color_path_finder(g, col, 1, RELAXED)
    cert.validate(g, col)
    assert (cert.branch, cert.trace.aux_branch) == ("small-n-fallback", "red")
    assert cert.trace.notes[0].startswith("red threading failed: ")
    assert cert.trace.floors_met is False
    assert cert.guarantee_active is False


def test_empty_graph_fallback():
    g = OrientedGraph(4)
    col = EdgeColoring(2, {})
    cert = two_color_path_finder(g, col, 1)
    cert.validate(g, col)
    assert cert.path.length == 0


def test_rejects_wrong_color_count():
    g = complete_symmetric(3)
    with pytest.raises(ColoringError):
        two_color_path_finder(g, EdgeColoring(3, {e: 1 for e in g.edges()}), 1)


def test_rejects_partial_coloring():
    g = complete_symmetric(3)
    edges = g.edges()
    partial = EdgeColoring(2, {e: 1 for e in edges[:-1]})
    with pytest.raises(ColoringError):
        two_color_path_finder(g, partial, 1)


def test_rejects_bad_k():
    g = complete_symmetric(3)
    with pytest.raises(ValueError):
        two_color_path_finder(g, _all_color(g, RED), 0)


def test_random_colorings_all_certify():
    t = random_tournament(128, 3)
    g = t.underlying
    rng = random.Random(77)
    k = 5
    for _ in range(50):
        col = EdgeColoring(2, {e: rng.randint(1, 2) for e in g.edges()})
        cert = two_color_path_finder(g, col, k, RELAXED)
        cert.validate(g, col)
        if cert.guarantee_active:
            tr = cert.trace
            scale = tr.c_red * k if cert.color == RED else tr.c_blue
            assert cert.path.length * scale >= g.n
            assert tr.floors_met


def test_trace_cycles_are_blue_cycles():
    g = complete_symmetric(20)
    col = _all_color(g, BLUE)
    cert = two_color_path_finder(g, col, 1)
    for cyc in cert.trace.cycles:
        for a, b in zip(cyc, cyc[1:]):
            assert col.color(a, b) == BLUE
        assert col.color(cyc[-1], cyc[0]) == BLUE


def test_aux_coloring_recountable():
    """The auxiliary blue relation means: at least k vertices of the source
    cycle have a blue edge into the target cycle."""
    g = complete_symmetric(42)
    assign = {}
    for (u, v) in g.edges():
        assign[(u, v)] = RED if (u % 2 == 0 and v == u + 1) else BLUE
    col = EdgeColoring(2, assign)
    k = 1
    cert = two_color_path_finder(g, col, k)
    cycles = cert.trace.cycles
    for (a, b), c in cert.trace.aux_coloring:
        sources = 0
        target = set(cycles[b])
        for u in cycles[a]:
            if any(col.color(u, v) == BLUE for v in target if g.has_edge(u, v)):
                sources += 1
        assert (c == BLUE) == (sources >= k)


# -- many colors -----------------------------------------------------------

def test_multicolor_two_colors_delegates():
    g = complete_symmetric(12)
    col = EdgeColoring(2, {e: (1 if e[0] < e[1] else 2) for e in g.edges()})
    a = two_color_path_finder(g, col, 2, DEFAULT_CONFIG)
    b = multicolor_path_finder(g, col, 2, 3, DEFAULT_CONFIG)
    assert a.path.vertices == b.path.vertices
    assert a.branch == b.branch


def test_multicolor_top_color_shortcut():
    g = complete_symmetric(8)
    col = EdgeColoring(3, {e: 3 for e in g.edges()})
    cert = multicolor_path_finder(g, col, 3, 5, DEFAULT_CONFIG)
    assert cert.branch == "monochromatic-shortcut"
    assert cert.color == 3
    assert cert.path.length >= 5
    assert cert.guarantee_active


def test_multicolor_inner_color_recurses():
    # everything in a non-top color: the top layer contributes nothing and
    # the recursion lands in the 2-color engine on the same host
    g = complete_symmetric(8)
    col = EdgeColoring(3, {e: 2 for e in g.edges()})
    cert = multicolor_path_finder(g, col, 3, 5, DEFAULT_CONFIG)
    cert.validate(g, col)
    assert cert.color == 2
    assert cert.path.length == 7


def test_multicolor_random_valid():
    t = random_tournament(64, 9)
    g = t.underlying
    rng = random.Random(5)
    shortcut_seen = False
    for i in range(20):
        col = EdgeColoring(3, {e: rng.randint(1, 3) for e in g.edges()})
        cert = multicolor_path_finder(g, col, 3, 4, RELAXED)
        cert.validate(g, col)
        shortcut_seen |= cert.branch == "monochromatic-shortcut"
    assert shortcut_seen


def test_multicolor_rejects_bad_k():
    """k is checked whatever the coloring holds, also when the top color
    alone would give the certificate."""
    g = complete_symmetric(8)
    for colors, c in ((2, 2), (3, 2), (3, 3)):
        col = EdgeColoring(colors, {e: c for e in g.edges()})
        for k in (0, -3):
            with pytest.raises(ValueError, match="k must be >= 1"):
                multicolor_path_finder(g, col, k, 3)


def test_multicolor_single_color_rejected():
    # the sparse finder bottoms out at the 2-color engine, which insists
    # on exactly two declared colors
    g = complete_symmetric(3)
    col = EdgeColoring(1, {e: 1 for e in g.edges()})
    with pytest.raises(ColoringError):
        multicolor_path_finder(g, col, 1, 2)


# -- symmetric hosts -------------------------------------------------------

def test_symmetric_one_color_identity():
    col = EdgeColoring(1, {e: 1 for e in complete_symmetric(5).edges()})
    cert = symmetric_multicolor_finder(5, col, 4)
    assert cert.branch == "monochromatic-shortcut"
    assert cert.path.vertices == (0, 1, 2, 3, 4)


def test_symmetric_two_color_exhaustive_t4():
    """All 4096 2-colorings of the 4-vertex symmetric host: every
    certificate validates and the worst monochromatic segment has 2 edges."""
    g = complete_symmetric(4)
    edges = g.edges()
    worst = len(edges)
    for bits in range(1 << len(edges)):
        col = EdgeColoring(2, {e: 1 + ((bits >> i) & 1)
                               for i, e in enumerate(edges)})
        cert = symmetric_multicolor_finder(4, col, 2)
        cert.validate(g, col)
        worst = min(worst, cert.path.length)
    assert worst == 2


def test_symmetric_three_color_t9_sampled():
    # frozen worst over 10^4 pinned-seed samples; 2 edges (3 vertices) is
    # also the true optimum here: a 3-block product coloring admits no
    # 3-edge monochromatic path
    g = complete_symmetric(9)
    edges = g.edges()
    rng = random.Random(123)
    worst = len(edges)
    for _ in range(10_000):
        col = EdgeColoring(3, {e: rng.randint(1, 3) for e in edges})
        cert = symmetric_multicolor_finder(9, col, 2)
        cert.validate(g, col)
        worst = min(worst, cert.path.length)
    assert worst == 2


def test_symmetric_three_color_product_coloring():
    """The 3x3 block product coloring is the hard instance: within-block
    edges color 1, cross edges colored by direction. The finder still
    certifies a 2-edge monochromatic path."""
    g = complete_symmetric(9)
    assign = {}
    for (u, v) in g.edges():
        bu, bv = u // 3, v // 3
        if bu == bv:
            assign[(u, v)] = 1
        elif bu < bv:
            assign[(u, v)] = 2
        else:
            assign[(u, v)] = 3
    col = EdgeColoring(3, assign)
    cert = symmetric_multicolor_finder(9, col, 2)
    cert.validate(g, col)
    assert cert.path.length >= 1


def test_symmetric_monochromatic_hamilton():
    col = EdgeColoring(4, {e: 3 for e in complete_symmetric(6).edges()})
    cert = symmetric_multicolor_finder(6, col, 3)
    assert cert.branch == "monochromatic-shortcut"
    assert cert.path.length == 5


def test_symmetric_finder_input_checks():
    col = EdgeColoring(2, {e: 1 for e in complete_symmetric(3).edges()})
    with pytest.raises(GraphShapeError, match="need at least one vertex"):
        symmetric_multicolor_finder(0, EdgeColoring(2, {}), 2)
    with pytest.raises(ValueError, match="n_target must be >= 1"):
        symmetric_multicolor_finder(3, col, 0)


def test_symmetric_raynaud_branches():
    g = complete_symmetric(6)
    half = {(u, v): (1 if (u < 3) == (v < 3) else 2) for (u, v) in g.edges()}
    col = EdgeColoring(2, half)
    cert = symmetric_multicolor_finder(6, col, 2)
    cert.validate(g, col)
    assert cert.branch in ("red-case", "blue-case")
    assert cert.path.length >= 3  # ceil(6/2) is the decomposition promise


def test_certificate_serialization_roundtrip_fields():
    g = complete_symmetric(5)
    col = _all_color(g, RED)
    cert = two_color_path_finder(g, col, 1)
    d = cert.to_dict()
    assert d["branch"] == cert.branch
    assert d["color"] == cert.color
    assert d["path"] == list(cert.path.vertices)
    assert "trace" in d and "threshold" in d["trace"]


# -- against the relabelling recursion -------------------------------------

def _in_host_ids(trace, ids, symmetric):
    """A trace of the reference recursion in host ids: vertex ids mapped
    through `ids`, and the recursion notes without their old tail.  The
    two-color finder's aux_path holds cycle indices, which stay."""
    def lift(vs):
        return tuple(ids[v] for v in vs)
    return replace(trace,
                   blocks=tuple(map(lift, trace.blocks)),
                   block_paths=tuple(map(lift, trace.block_paths)),
                   cycles=tuple(map(lift, trace.cycles)),
                   aux_path=lift(trace.aux_path) if symmetric else trace.aux_path,
                   notes=tuple(note.replace(" (trace below is in recursion-local ids)", "")
                               for note in trace.notes))


def _assert_matches_reference(got, want, ids, symmetric=False):
    assert got.path == want.path
    assert (got.color, got.branch, got.guarantee_active) == (
        want.color, want.branch, want.guarantee_active)
    assert got.trace == _in_host_ids(want.trace, ids, symmetric)


def _planted(g, colors, rng, red_classes):
    """Each color c >= 3 runs forward between 4 random vertex classes of
    its own on the edges no higher color took, so every top color is
    4-colorable and the finder recurses once per color above 2.  Red does
    the same between `red_classes` classes, or takes a fair coin's half of
    the rest when that is 0; blue takes what is left."""
    parts = [[rng.randrange(4) for _ in range(g.n)] for _ in range(colors - 2)]
    red = [rng.randrange(red_classes) for _ in range(g.n)] if red_classes else None
    assign = {}
    for u, v in g.edges():
        for c, cls in zip(range(colors, 2, -1), parts):
            if cls[u] < cls[v]:
                assign[(u, v)] = c
                break
        else:
            forward = red[u] < red[v] if red else rng.random() < 0.5
            assign[(u, v)] = RED if forward else BLUE
    return EdgeColoring(colors, assign)


def test_multicolor_matches_relabelling_reference_planted():
    rng = random.Random(18)
    branches = set()
    for n in (64, 128, 256):
        g = random_tournament(n, n).underlying
        for colors, red_classes in itertools.product((3, 4, 5), (0, 2, 4)):
            col = _planted(g, colors, rng, red_classes)
            for cfg in (RELAXED, DEFAULT_CONFIG):
                for k in (1, 2, math.ceil(2 * math.log2(n))):
                    got = multicolor_path_finder(g, col, k, 4, cfg)
                    want, ids = reference_builder.multicolor_path_finder(g, col, k, 4, cfg)
                    _assert_matches_reference(got, want, ids)
                    got.validate(g, col)
                    assert len(ids) < n
                    branches.add((got.branch, bool(got.trace.cycles)))
    # the dichotomy's path, the threaded red path, the blue walk, the fallback
    assert {("red-case", False), ("red-case", True), ("blue-case", True),
            ("small-n-fallback", False)} <= branches


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(3, 5), st.integers(1, 3), st.integers(1, 4),
       st.booleans(), st.integers(0, 2**32))
def test_multicolor_matches_relabelling_reference(n, colors, k, n_target, symmetric, seed):
    rng = random.Random(seed)
    g = complete_symmetric(n) if symmetric else random_tournament(n, seed).underlying
    col = EdgeColoring(colors, {e: rng.randint(1, colors) for e in g.edges()})
    got = multicolor_path_finder(g, col, k, n_target, RELAXED)
    want, ids = reference_builder.multicolor_path_finder(g, col, k, n_target, RELAXED)
    _assert_matches_reference(got, want, ids)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 10), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32))
def test_symmetric_matches_relabelling_reference(t, colors, n_target, seed):
    rng = random.Random(seed)
    col = EdgeColoring(colors, {e: rng.randint(1, colors)
                                for e in complete_symmetric(t).edges()})
    got = symmetric_multicolor_finder(t, col, n_target)
    want, ids = reference_builder.symmetric_multicolor_finder(t, col, n_target)
    _assert_matches_reference(got, want, ids, symmetric=True)
