"""Two-run Hamilton decompositions and the path/coloring dichotomy."""
import itertools
import os
import random
import re
import subprocess
import sys
from operator import xor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_classic
from dipath_ramsey import (
    BLUE,
    RED,
    DecompositionError,
    DirectedPath,
    EdgeColoring,
    OrientedGraph,
    builder,
    classic,
    complete_symmetric,
    gallai_roy,
    level_decomposition,
    longest_path_dag,
    longest_path_exact,
    maximal_acyclic_subgraph,
    multicolor_path_finder,
    random_digraph,
    random_oriented_graph,
    random_tournament,
    raynaud,
)
from dipath_ramsey.builder import _cut_rows


def _all_colorings(t):
    """Every 2-coloring of the complete symmetric digraph on t vertices:
    bit i of a counter colors edge i of the lexicographic edge list, 0 red
    and 1 blue.  Vertex u's t-1 out-edges are one run of bits, so a table
    per vertex spreads that run onto the other vertex ids, and the counter
    is the product of the tables, vertex 0's run changing fastest."""
    rows = [((1 << t) - 1) ^ 1 << u for u in range(t)]
    spread = []
    for u in range(t):
        heads = [v for v in range(t) if v != u]
        spread.append([sum(1 << v for k, v in enumerate(heads) if run >> k & 1)
                       for run in range(1 << len(heads))])
    for blue in itertools.product(*spread[::-1]):
        blue = blue[::-1]
        yield EdgeColoring.from_masks([list(map(xor, rows, blue)), list(blue)])


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_all_colorings_match_edge_dicts(t):
    edges = complete_symmetric(t).edges()
    expected = (EdgeColoring(2, {e: 1 + (bits >> i & 1) for i, e in enumerate(edges)})
                for bits in range(1 << len(edges)))
    assert list(_all_colorings(t)) == list(expected)


def _promise(t):
    """ceil(t/2) for t >= 2, and 0 for the single vertex."""
    return min(t - 1, (t + 1) // 2)


def _check(t, coloring):
    dec = raynaud(t, coloring)
    dec.validate(coloring)
    seg, _ = dec.best_segment()
    assert seg.length >= _promise(t)
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


def _validate_reference(dec, coloring):
    """HamiltonDecomposition.validate as it was on (u, v) tuples."""
    t = dec.t
    if sorted(dec.cycle) != list(range(t)):
        raise DecompositionError("cycle is not a permutation of the vertices")
    arcs = [(dec.cycle[i], dec.cycle[(i + 1) % t]) for i in range(t)] if t > 1 else []
    for seg, col in ((dec.red_segment, RED), (dec.blue_segment, BLUE)):
        for u, v in seg.edges():
            if coloring.color(u, v) != col:
                raise DecompositionError(f"segment arc {u}->{v} is not color {col}")
    red_arcs, blue_arcs = dec.red_segment.edges(), dec.blue_segment.edges()
    if set(red_arcs) & set(blue_arcs):
        raise DecompositionError("segments share an arc")
    covered = red_arcs + blue_arcs
    if not set(covered) <= set(arcs):
        raise DecompositionError("segment arc not on the cycle")
    missing = len(arcs) - len(covered)
    if missing not in (0, 1):
        raise DecompositionError("segments must cover the cycle up to its closing arc")
    if missing == 1 and dec.red_segment.length and dec.blue_segment.length:
        raise DecompositionError("an arc is uncovered but both segments are nonempty")
    best = max(dec.red_segment.length, dec.blue_segment.length)
    if best < _promise(t):
        raise DecompositionError(f"longest segment {best} below {_promise(t)}")


def _outcome(check, dec, coloring):
    try:
        check(dec, coloring)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    return None


def test_validate_matches_tuple_reference():
    """validate on masks and cycle positions raises what the tuple version
    raised, with the same message, on mutated decompositions and
    colorings."""
    from dipath_ramsey.classic import HamiltonDecomposition
    rng = random.Random(7)
    seen = set()
    for _ in range(3000):
        t = rng.randint(1, 7)
        edges = complete_symmetric(t).edges()
        assign = {e: rng.randint(1, 2) for e in edges}
        dec = raynaud(t, EdgeColoring(2, assign))
        cycle = list(dec.cycle)
        segs = [list(dec.red_segment.vertices), list(dec.blue_segment.vertices)]
        kind = rng.randrange(9)
        if kind == 1 and t > 1:
            i, j = rng.sample(range(t), 2)
            cycle[i], cycle[j] = cycle[j], cycle[i]
        elif kind == 2:
            segs.reverse()
        elif kind == 3:
            seg = rng.choice(segs)
            if seg:
                seg.pop(rng.choice((0, -1)))
        elif kind == 4:
            rng.choice(segs).append(rng.randint(-1, t + 1))
        elif kind == 5:
            segs[rng.randrange(2)] = rng.sample(range(t + 1), rng.randint(0, t))
        elif kind == 6 and edges:
            e = rng.choice(edges)
            assign[e] = 3 - assign[e]
        elif kind == 7 and edges:
            del assign[rng.choice(edges)]
        elif kind == 8:
            cycle[rng.randrange(t)] = rng.choice((-1, t))
        if len(set(segs[0])) < len(segs[0]) or len(set(segs[1])) < len(segs[1]):
            continue
        mutated = HamiltonDecomposition(tuple(cycle), DirectedPath(segs[0]),
                                        DirectedPath(segs[1]))
        colors = rng.choice((2, 2, 2, 1, 3))
        coloring = EdgeColoring(colors, {e: min(c, colors) for e, c in assign.items()})
        want = _outcome(_validate_reference, mutated, coloring)
        assert _outcome(HamiltonDecomposition.validate, mutated, coloring) == want
        seen.add(want and (want[0].__name__, re.sub(r"-?\d+", "#", want[1])))
    assert {msg for _, msg in filter(None, seen)} >= {
        "cycle is not a permutation of the vertices",
        "segment arc #-># is not color #",
        "segment arc not on the cycle",
        "segments must cover the cycle up to its closing arc",
        "an arc is uncovered but both segments are nonempty",
        "(#, #)",
    }


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


def test_raynaud_input_checks():
    from dipath_ramsey import ColoringError, GraphShapeError
    with pytest.raises(GraphShapeError, match="need at least one vertex"):
        raynaud(0, EdgeColoring(2, {}))
    host = complete_symmetric(3)
    for colors in (1, 3):
        with pytest.raises(ColoringError, match=f"need exactly 2 colors, got {colors}"):
            raynaud(3, EdgeColoring(colors, {e: 1 for e in host.edges()}))


def test_maximal_acyclic_is_maximal():
    g = OrientedGraph(5, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 0)])
    h = maximal_acyclic_subgraph(g)
    kept = set(h.edges())
    assert kept <= set(g.edges())
    from dipath_ramsey import find_cycle
    assert find_cycle(h) is None
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


def _mas_outcome(h):
    return (h.n, h.allow_antiparallel, h.out_masks(), [h.in_mask(v) for v in range(h.n)])


def _assert_mas_matches_reference(g):
    """The forward-closure MAS equals the ancestor-walk reference on g and
    on g rebuilt from its out-masks alone, which derives its in-masks."""
    bare = OrientedGraph.from_masks(g.n, g.out_masks(), None, g.allow_antiparallel)
    want = _mas_outcome(reference_classic.maximal_acyclic_subgraph(g))
    assert _mas_outcome(maximal_acyclic_subgraph(g)) == want
    assert _mas_outcome(maximal_acyclic_subgraph(bare)) == want


def test_maximal_acyclic_matches_ancestor_walk_reference():
    """Tournaments, oriented graphs and digraphs with antiparallel pairs
    on 0 to 100 vertices, sparse to complete; then classes on 64 to 256
    vertices whose closures run from both sides: red classes of random
    2-colorings of tournaments and dense digraphs mostly from the tails of
    kept backward edges outside a vertex's forward ancestors, sparse
    oriented graphs mostly from the heads inside them, and planted classes
    (edges up random parts) from each about as often."""
    rng = random.Random(23)
    cases = 0
    for i in range(240):
        n = rng.randint(0, 100) if i >= 8 else i
        kind = i % 3
        if kind == 0:
            g = random_tournament(n, i).underlying if n else OrientedGraph(0)
        elif kind == 1:
            g = random_oriented_graph(n, rng.randint(0, n * (n - 1) // 2), i)
        else:
            g = random_digraph(n, rng.randint(0, n * (n - 1)), i)
        _assert_mas_matches_reference(g)
        cases += 1
    for n in (1, 2, 17, 64):
        _assert_mas_matches_reference(complete_symmetric(n))
        _assert_mas_matches_reference(OrientedGraph(n, [(v, u) for u in range(n)
                                                        for v in range(u + 1, n)]))
    assert cases == 240
    for n in (64, 100, 160, 256):
        t = random_tournament(n, n).underlying
        parts = [rng.randrange(rng.choice((4, 8, 16))) for _ in range(n)]
        red, planted = [0] * n, [0] * n
        for u, v in t.edges():
            if rng.random() < 0.5:
                red[u] |= 1 << v
            if parts[u] < parts[v]:
                planted[u] |= 1 << v
        for g in (OrientedGraph.from_masks(n, red), OrientedGraph.from_masks(n, planted),
                  random_oriented_graph(n, 6 * n, n), random_digraph(n, n * n // 5, n)):
            _assert_mas_matches_reference(g)


def test_maximal_acyclic_matches_reference_on_builder_classes(monkeypatch):
    """The classes the builder hands gallai_roy, acyclic ones included, rows
    cut to the vertices still in play and built without in-masks, on
    random, planted and three-color colorings of tournaments; plus such
    rows cut to random vertex sets directly."""
    seen = []

    def checked(g):
        h = maximal_acyclic_subgraph(g)
        assert _mas_outcome(h) == _mas_outcome(reference_classic.maximal_acyclic_subgraph(g))
        seen.append(g.edge_count)

    def checked_gallai_roy(g, threshold):
        checked(g)
        return gallai_roy(g, threshold)

    monkeypatch.setattr(builder, "gallai_roy", checked_gallai_roy)
    rng = random.Random(24)
    calls = 0
    for i, n in enumerate((24, 48, 96, 128)):
        g = random_tournament(n, 100 + i).underlying
        edges = g.edges()
        parts = [rng.randrange(4) for _ in range(n)]
        colorings = (
            EdgeColoring(2, {e: rng.randint(1, 2) for e in edges}),
            EdgeColoring(2, {(u, v): 1 if parts[u] < parts[v] else 2 for u, v in edges}),
            EdgeColoring(3, {(u, v): 3 if parts[u] < parts[v] else rng.randint(1, 2)
                             for u, v in edges}),
        )
        for col in colorings:
            multicolor_path_finder(g, col, 4, 4)
            # one gallai_roy per color above the first
            calls += col.num_colors - 1
            assert len(seen) == calls
            for _ in range(3):
                calls += col.num_colors
                within = rng.getrandbits(n)
                for c in range(1, col.num_colors + 1):
                    rows = _cut_rows(col, c, n, within)
                    checked(OrientedGraph.from_masks(n, rows, allow_antiparallel=True))
    assert len(seen) == calls == 100 and max(seen) > 2000


def test_gallai_roy_skips_the_subgraph_on_acyclic_classes(monkeypatch):
    """An acyclic class is its own maximal acyclic subgraph: gallai_roy
    never builds one for it and returns what the composition returns."""
    rng = random.Random(30)
    monkeypatch.setattr(classic, "maximal_acyclic_subgraph",
                        lambda g: pytest.fail("subgraph built for an acyclic class"))
    branches = set()
    for n in (1, 8, 40, 128):
        parts = [rng.randrange(6) for _ in range(n)]
        t = random_tournament(n, n).underlying
        g = OrientedGraph(n, [e for e in t.edges() if parts[e[0]] < parts[e[1]]])
        tt = OrientedGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        for dag in (g, tt, OrientedGraph.from_masks(n, g.out_masks())):
            levels = level_decomposition(dag)
            for threshold in (1, 3, 6, n):
                got = gallai_roy(dag, threshold)
                if len(levels) <= threshold:
                    assert got == levels
                else:
                    assert got == longest_path_dag(dag)
                branches.add(isinstance(got, list))
    assert branches == {False, True}


def test_gallai_roy_three_cycle():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    out = gallai_roy(g, 3)
    # 3-cycle: longest path 2, so 3 classes suffice
    assert isinstance(out, list)
    assert reference_classic.is_proper_partition(g, out)


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
    from dipath_ramsey import random_digraph
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
            assert isinstance(out, list)
            assert reference_classic.is_proper_partition(g, out)
            assert len(out) <= exact + 1


def _switches(cols):
    return sum(c != d for c, d in zip(cols, cols[1:] + cols[:1])) if len(cols) > 1 else 0


def _stuck_shape(cols, alpha, beta):
    """The shape `raynaud`'s lemma gives a new vertex x that single insertion
    cannot place: both runs have at least two arcs; the arc pair
    (v_i -> x, x -> v_i+1) is (first, second) color on the first arc of
    the first run and on the last arc of the second run, (second, first)
    on the other two junction arcs, and never (c, c) on an interior arc of
    color c."""
    m = len(cols)
    a = cols.index(cols[-1]) if cols[0] != cols[-1] else 0
    if a < 2 or m - a < 2:
        return False
    f, s = cols[0], cols[-1]
    want = {0: (f, s), a - 1: (s, f), a: (s, f), m - 1: (f, s)}
    for i, c in enumerate(cols):
        pair = (alpha[i], beta[(i + 1) % m])
        if pair != want[i] if i in want else pair == (c, c):
            return False
    return True


def _check_cycle(cyc, cols, switches, red):
    m = len(cyc)
    assert sorted(cyc) == list(range(m))
    assert cols == [RED if red[u] >> w & 1 else BLUE
                    for u, w in zip(cyc, cyc[1:] + cyc[:1])]
    assert switches == _switches(cols) <= 2


def test_raynaud_insertion_lemma():
    """The lemma in raynaud's docstring on every small case: single
    insertion fails exactly on the stuck shape, a stuck x has a mono
    2-cycle with an interior vertex of each run, and the one-vertex repair
    then succeeds (on every coloring of the chords for m <= 4, on seeded
    random ones above)."""
    from dipath_ramsey.classic import _insert, _repair
    rng = random.Random(20)
    for m in range(2, 8):
        x, cyc = m, list(range(m))
        # colors[mask][u]: red where bit u of mask is set
        colors = [[BLUE - (mask >> u & 1) for u in range(m)] for mask in range(1 << m)]
        chords = [(u, v) for u in range(m) for v in range(m)
                  if u != v and v != (u + 1) % m]
        fills = (range(1 << len(chords)) if m <= 4
                 else [rng.getrandbits(len(chords)) for _ in range(16)])
        for a, first in itertools.product(range(m + 1), (RED, BLUE)):
            cols = [first] * a + [RED + BLUE - first] * (m - a)
            switches = _switches(cols)
            base = [(c == RED) << (u + 1) % m for u, c in enumerate(cols)]
            for into in range(1 << m):
                alpha = colors[into]
                head = [b | (into >> u & 1) << x for u, b in enumerate(base)]
                for out in range(1 << m):
                    red = head + [out]
                    placed = _insert(cyc, cols, switches, x, red)
                    beta = colors[out]
                    assert (placed is None) == _stuck_shape(cols, alpha, beta)
                    if placed is not None:
                        if m <= 5:
                            _check_cycle(*placed, red)
                        continue
                    runs = [[u for u in range(1, m) if cols[u - 1] == cols[u] == c]
                            for c in (first, cols[-1])]
                    for run, c in zip(runs, (RED + BLUE - first, first)):
                        assert any(alpha[u] == beta[u] == c for u in run)
                    for fill in fills:
                        full = red[:]
                        for k, (u, v) in enumerate(chords):
                            full[u] |= (fill >> k & 1) << v
                        repaired = _repair(cyc, cols, switches, x, full)
                        assert repaired is not None
                        _check_cycle(*repaired, full)


def test_verify_raynaud_step_script_runs():
    """The audit script patches `classic._insert` and `classic._repair` to
    count the construction layers, so it must still reach them through
    `raynaud`."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(root / "scripts" / "verify_raynaud_step.py"),
         "--max-exhaustive", "4", "--samples", "5"],
        capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    hits = re.search(r"single_insert: (\d+)", res.stdout)
    assert hits and int(hits.group(1)) > 0, res.stdout
