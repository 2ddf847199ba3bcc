"""Exact reference answers: longest mono paths, best colorings, arrowing."""
import collections
import functools
import gc
import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dipath_ramsey import (
    BudgetExceededError,
    EdgeColoring,
    OrientedGraph,
    arrowing_check,
    complete_symmetric,
    longest_mono_path,
    max_mono_path,
    min_max_mono_path,
    random_digraph,
    random_oriented_graph,
    random_tournament,
    transitive_tournament,
)
from dipath_ramsey import oracle, paths
from dipath_ramsey.paths import find_cycle, longest_path_masks
import reference_oracle
from reference_oracle import lexicographic_min_max
import reference_paths
from reference_paths import SizeLimitError, memo_search_longest_path, reference_longest_path


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


def test_mono_paths_size_guard(monkeypatch):
    """The guard on a cyclic class is the states its search charges, not
    its size: on a 2-colored 64-vertex 200-edge oriented graph, a budget
    of the most states one class charged gives the same answers, and
    half of it raises BudgetExceededError."""
    g = random_oriented_graph(64, 200, 1)
    rng = random.Random(1)
    col = EdgeColoring(2, {e: 1 + rng.randrange(2) for e in g.edges()})
    res = longest_mono_path(g, col)
    most = max(r.explored for r in res.values())
    assert most > 1_000
    monkeypatch.setattr(paths, "_STATE_BUDGET", most)
    assert longest_mono_path(g, col) == res
    monkeypatch.setattr(paths, "_STATE_BUDGET", most // 2)
    with pytest.raises(BudgetExceededError, match=f"exceeded {most // 2} states"):
        longest_mono_path(g, col)


def test_mono_paths_limit_override():
    """One cyclic class on 17 vertices, which once needed its vertex limit
    raised, is measured at the default: its Hamilton path, 16 edges."""
    g = complete_symmetric(17)
    col = EdgeColoring(1, {e: 1 for e in g.edges()})
    res = longest_mono_path(g, col)
    assert res[1].value == 16
    assert list(res[1].witness.vertices) == list(range(17))


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
    assert res.explored == 14


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
    """A color class that turns cyclic on more than 22 vertices above
    bound 3, which the class support guard once refused, is searched:
    five disjoint 5-cycles at q=1 give 4, the longest path of each cycle.
    The complete symmetric digraph on 24 vertices starts at bound 23,
    where a support of 24 = bound + 1 vertices holds no longer path, so
    no check searches."""
    g = OrientedGraph(25, [(5 * k + i, 5 * k + (i + 1) % 5)
                           for k in range(5) for i in range(5)])
    res = min_max_mono_path(g, 1)
    assert res.value == 4 and _reaches(g, res.witness) == 4
    assert min_max_mono_path(complete_symmetric(24), 1).value == 23


def test_minmax_acyclic_classes_above_guard_size():
    # the guard only concerns cyclic classes: a 30-vertex path is measured,
    # read off its heights and by the decisions bound by bound
    g = OrientedGraph(30, [(i, i + 1) for i in range(29)])
    res = min_max_mono_path(g, 1)
    assert res.value == 29
    assert max_mono_path(g, res.witness) == 29
    value, witness, _ = _searched_min_max(g, 1)
    assert value == 29 and max_mono_path(g, witness) == 29


def test_minmax_dense_acyclic_hosts_q1():
    """At q=1 the value is the host's longest path.  Dense acyclic hosts
    of 22 and 24 vertices stay fast, read off their heights and by the
    decisions bound by bound: there the check through each new edge is
    one DAG DP per side, not a search over the paths into its tail."""
    rng = random.Random(5)
    perm = list(range(22))
    rng.shuffle(perm)
    dense = OrientedGraph(22, [(perm[i], perm[j]) for i in range(22)
                               for j in range(i + 1, 22) if rng.random() < 0.7])
    t0 = time.perf_counter()
    for g in (transitive_tournament(22), dense, transitive_tournament(24)):
        longest, _ = longest_path_masks([g.out_mask(v) for v in range(g.n)])
        assert min_max_mono_path(g, 1).value == len(longest) - 1
        assert _searched_min_max(g, 1)[0] == len(longest) - 1
    assert len(longest) - 1 == 23
    assert time.perf_counter() - t0 < 10


def test_minmax_cycle_off_the_new_edges_above_guard_size():
    """A 3-cycle beside a 21-edge path on 25 vertices: the class is cyclic
    on more than 22 vertices, and the value is the path, which measuring
    the witness confirms at the default."""
    g = OrientedGraph(25, [(0, 1), (1, 2), (2, 0)] + [(i, i + 1) for i in range(3, 24)])
    res = min_max_mono_path(g, 1)
    assert res.value == 21
    assert max_mono_path(g, res.witness) == 21


# -- the search's per-edge check against measuring the whole class ------

def _reference_through(out, into, u, v, bound,
                       limit=reference_oracle.CLASS_SUPPORT_LIMIT):
    """Reference check: measure the whole class with the subset DP, which
    shares no search code with `_path_through`; by default it refuses a
    cyclic class of more than 22 vertices, as the package once did."""
    return len(reference_longest_path(out, bound, limit)[0]) > bound + 1


def _swap_check(monkeypatch, check):
    """Run the coloring search with the yes/no check `check(out, into, u,
    v, bound)` at every bound: one wrapper takes the place of both routes,
    `_short_through` and `_path_through`, and meets their mask contract by
    naming every earlier position as the conflict.  The search then backs
    up one edge at a time, as `reference_oracle.chronological_search`
    does."""
    def through(out, into, u, v, ends, bound, bits):
        return bits[u][v] - 1 if check(out, into, u, v, bound) else -1

    monkeypatch.setattr(oracle, "_path_through", through)
    monkeypatch.setattr(oracle, "_short_through", through)


def _count_searches(monkeypatch, names=("_ahead", "_behind")):
    """Count the calls of the check's searches, by name, through wrappers
    patched into the oracle module: by default the two above the short
    bound, the engine's shared `_ahead` and `_behind`."""
    calls = collections.Counter()
    for name in names:
        def counted(*args, _search=getattr(oracle, name), _name=name):
            calls[_name] += 1
            return _search(*args)
        monkeypatch.setattr(oracle, name, counted)
    return calls


def _random_class(rng, n, bound):
    """Masks of a random class on n vertices with no path of more than
    `bound` edges, plus a new edge (u, v): (out, into, u, v), or None when
    no edge is left to add."""
    out, into = [0] * n, [0] * n
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    rng.shuffle(pairs)
    for a, b in pairs[:rng.randint(0, len(pairs))]:
        out[a] |= 1 << b
        if len(reference_longest_path(out, bound)[0]) > bound + 1:
            out[a] ^= 1 << b
        else:
            into[b] |= 1 << a
    free = [(a, b) for a, b in pairs if not out[a] >> b & 1]
    if not free:
        return None
    u, v = free[0]
    out[u] |= 1 << v
    into[v] |= 1 << u
    return out, into, u, v


def _cycles_class(rng, n):
    """Masks of a class of disjoint 2- and 3-cycles covering n vertices,
    which has no path of more than 2 edges, plus a new edge (u, v) from
    one cycle to another."""
    order = rng.sample(range(n), n)
    out, into, cycles = [0] * n, [0] * n, []
    while order:
        left = len(order)
        size = left if left <= 3 else 2 if left == 4 or rng.random() < 0.5 else 3
        cycle, order = order[:size], order[size:]
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out[a] |= 1 << b
            into[b] |= 1 << a
        cycles.append(cycle)
    tail, head = rng.sample(cycles, 2)
    u, v = rng.choice(tail), rng.choice(head)
    out[u] |= 1 << v
    into[v] |= 1 << u
    return out, into, u, v


@functools.lru_cache(maxsize=None)
def _class_corpus():
    """Random classes on 2-9 vertices with no path longer than `bound`
    (0-7), and classes of 2- and 3-cycles on 23-26 vertices at bounds 2-5,
    each with a new edge, as ((out, into, u, v), bound).  Built once and
    shared by the tests that read it."""
    rng = random.Random(2024)
    cases = []
    for _ in range(3000):
        bound = rng.randint(0, 7)
        case = _random_class(rng, rng.randint(2, 9), bound)
        if case:
            cases.append((case, bound))
    for _ in range(60):
        cases.append((_cycles_class(rng, rng.randint(23, 26)), rng.randint(2, 5)))
    return tuple(cases)


def _positions(out, u, v):
    """A positions table for a check on the class `out`, as the search
    keeps one: bits[a][b] is 1 << the position of edge (a, b), the other
    edges in order and the new edge (u, v) last, and the edges by
    position."""
    edges = [(a, b) for a, row in enumerate(out) for b in range(len(out))
             if row >> b & 1 and (a, b) != (u, v)] + [(u, v)]
    bits = [{} for _ in out]
    for pos, (a, b) in enumerate(edges):
        bits[a][b] = 1 << pos
    return bits, edges


def test_path_through_matches_full_engine(monkeypatch):
    """Random classes with no path longer than `bound`, plus one new edge:
    both checks through the new edge agree with measuring the class, its
    limit raised to the class, `_path_through` on each of its routes at
    bounds 0-7, where a yes is every earlier position, and
    `_short_through` at bounds 0-3.  Classes of 2- and 3-cycles on 23-26
    vertices are answered at every bound, above the short bound too,
    where a size guard once refused them."""
    calls = _count_searches(monkeypatch, ("_ahead",))
    seen = set()
    for (out, into, u, v), bound in _class_corpus():
        n = len(out)
        want = _reference_through(out, into, u, v, bound, n)
        bits, _ = _positions(out, u, v)
        ends = 1 << u | 1 << v
        before = calls["_ahead"]
        got = oracle._path_through(out, into, u, v, ends, bound, bits)
        assert got == (bits[u][v] - 1 if want else -1)
        if calls["_ahead"] > before:
            route = "search"
        elif (oracle._dag_depth(out, v) is not None
              and oracle._dag_depth(into, u) is not None):
            route = "dag"
        else:
            route = "cutoff"
        acyclic = find_cycle(OrientedGraph.from_masks(n, out, into, True)) is None
        big = n > reference_oracle.CLASS_SUPPORT_LIMIT
        seen.add((route, want, acyclic, big))
        if bound <= oracle._SHORT_BOUND:
            assert (oracle._short_through(out, into, u, v, ends, bound, bits) >= 0) == want
            seen.add(("short", want, acyclic, big))
    # every route, with both answers where it has two: the support
    # cutoff only says no
    assert {(route, got) for route, got, _, _ in seen} == {
        ("short", True), ("short", False), ("dag", True), ("dag", False),
        ("search", True), ("search", False), ("cutoff", False)}
    # the short search on acyclic and cyclic classes, and both it and the
    # memo search on cyclic classes of more than 22 vertices; a cyclic
    # class may take the DAG walks
    assert {(got, acyclic) for route, got, acyclic, _ in seen
            if route == "short"} == set(itertools.product((True, False), repeat=2))
    for route in ("short", "search"):
        assert {got for r, got, _, big in seen if r == route and big} == {True, False}
    assert any(route == "dag" and not acyclic for route, _, acyclic, _ in seen)


def _is_one_path(edges):
    """Whether `edges` make one simple directed path."""
    nxt = dict(edges)
    starts = set(nxt) - set(nxt.values())
    if len(nxt) != len(edges) or len(starts) != 1:
        return False
    path = list(starts)
    while path[-1] in nxt and len(path) <= len(edges):
        path.append(nxt[path[-1]])
    return len(path) == len(edges) + 1 == len(set(path))


def test_short_through_names_a_path_of_the_class():
    """Backjumping is sound only if the mask `_short_through` returns names
    a path: on the random-class corpus at bounds 0-3, every nonnegative
    mask holds exactly `bound` positions, and their edges with the new
    edge (u, v) make one simple directed path of the class, of bound + 1
    edges.  Each bound names a path on some class."""
    named = collections.Counter()
    for (out, into, u, v), bound in _class_corpus():
        if bound > oracle._SHORT_BOUND:
            continue
        bits, edges = _positions(out, u, v)
        hit = oracle._short_through(out, into, u, v, 1 << u | 1 << v, bound, bits)
        if hit < 0:
            continue
        assert hit.bit_count() == bound
        path = [edges[pos] for pos in range(len(edges)) if hit >> pos & 1] + [(u, v)]
        assert _is_one_path(path)
        named[bound] += 1
    assert set(named) == {0, 1, 2, 3}


def _job_hosts():
    """The oracle's minmax and arrow job shapes: 7-vertex tournaments and
    18-edge 6-vertex digraphs."""
    return ([random_tournament(7, s).underlying for s in range(20)]
            + [random_digraph(6, 18, s) for s in range(40)])


def _decisions(g):
    """Minmax at q = 1 and 2, arrow of P_3 at q = 2 and of P_6 at q = 1,
    and the q = 1 decisions run from bound 1 up (on a tournament the
    product floor skips the refuted bounds above 3), as (answers, nodes):
    the values, arrow answers and witnesses, and the nodes of the two
    minmax questions and of the decisions from bound 1 up."""
    answers, nodes = [], []
    for q in (1, 2):
        res = min_max_mono_path(g, q)
        answers.append((res.value, res.witness))
        nodes.append(res.explored)
    for target, q in ((3, 2), (6, 1)):
        answers.append(arrowing_check(g, target, q))
    value, witness, explored = _searched_min_max(g, 1)
    answers.append((value, witness))
    nodes.append(explored)
    return answers, nodes


def _no_more_nodes(fast, ref):
    """`_decisions` of the backjumping search against those of a search
    that backs up one edge at a time: the same answers and witnesses, in
    at most as many nodes."""
    assert fast[0] == ref[0]
    assert all(a <= b for a, b in zip(fast[1], ref[1]))


def test_search_matches_check_before_short_bound(monkeypatch):
    """The coloring search finds the same colorings whether its check
    runs the short search at bounds up to 3 or, as before, the DAG walks,
    support cutoff and memo search at every bound
    (`reference_oracle.path_through`, a yes/no check, with which the
    search backs up one edge at a time): equal value and witness coloring
    for minmax and equal answer and refuting coloring for arrow, on the
    job shapes, in at most as many nodes.  The short search runs on every
    host."""
    shorts = 0
    for g in _job_hosts():
        with monkeypatch.context() as m:
            calls = _count_searches(m, ("_short_through",))
            fast = _decisions(g)
        shorts += calls["_short_through"] > 0
        with monkeypatch.context() as m:
            _swap_check(m, reference_oracle.path_through)
            _no_more_nodes(fast, _decisions(g))
    assert shorts == 60


def test_flat_short_checks_match_recursive_reference(monkeypatch):
    """The checks with one or two edges left, loops over the masks, name
    the same positions as the recursion they replaced
    (`reference_oracle.recursive_short_through`) on every check of the
    minmax decisions of 18-edge 6-vertex digraphs and 7-vertex
    tournaments and the arrow decisions of the tournaments at q = 2, 100
    seeded hosts each, the recursion's own calls at three edges left
    included; each length from 1 to 3 both finds a path and finds none."""
    short = oracle._short_through
    outcomes = collections.Counter()

    def compared(out, into, w, v, seen, left, bits):
        got = short(out, into, w, v, seen, left, bits)
        assert got == reference_oracle.recursive_short_through(out, into, w, v, seen, left, bits)
        outcomes[left, got >= 0] += 1
        return got

    monkeypatch.setattr(oracle, "_short_through", compared)
    for s in range(100):
        min_max_mono_path(random_digraph(6, 18, s), 2)
        t7 = random_tournament(7, s).underlying
        min_max_mono_path(t7, 2)
        arrowing_check(t7, 3, 2)
    assert set(outcomes) == set(itertools.product((1, 2, 3), (True, False)))


def test_swapped_check_reaches_every_short_check(monkeypatch):
    """`_swap_check` works through the name `_short_through`, so the
    coloring search must call that name at every check: at bounds 1-3 a
    decision run with the swapped subset-DP check makes as many checks,
    finds the same coloring, or none, and spends as many nodes as
    `reference_oracle.chronological_search` with that check."""
    calls = collections.Counter()

    def counted(name):
        def check(*args):
            calls[name] += 1
            return _reference_through(*args)
        return check

    checks = 0
    for g in _job_hosts():
        order = oracle._search_order(g)
        for q, bound in itertools.product((1, 2), (1, 2, 3)):
            calls.clear()
            with monkeypatch.context() as m:
                _swap_check(m, counted("swapped"))
                witness, nodes = oracle._decision_search(g.n, order, q, bound,
                                                         oracle.COLORING_BUDGET, 0)
            with monkeypatch.context() as m:
                m.setattr(reference_oracle, "chronological_through", counted("reference"))
                ref, ref_nodes = reference_oracle.chronological_search(g.n, order, q, bound)
            assert (witness is None) == (ref is None) and nodes == ref_nodes
            if witness is not None:
                assert list(witness.items()) == list(ref.items())
            assert calls["swapped"] == calls["reference"]
            checks += calls["swapped"]
    assert checks > 1000


def _memo_search(adj, into, memo, w, seen, cap, floor):
    """The exact-value memo search in the shared search's place: it takes
    no in-masks or floor and answers the value capped at `cap`."""
    return reference_paths._ahead(adj, memo, w, seen, cap)


def test_check_matches_memo_search_reference(monkeypatch):
    """The coloring search visits the same nodes whether its check runs
    the bounded search or the exact-value memo search it replaced: equal
    value, witness coloring and explored for minmax, and equal answer and
    refuting coloring for arrow, on the job shapes.  The memo search runs
    above the short bound only, which minmax and arrow at q = 1 reach."""
    searched = refuted = 0
    for g in _job_hosts():
        with monkeypatch.context() as m:
            calls = _count_searches(m)
            fast = _decisions(g)
        searched += calls["_ahead"] > 0
        with monkeypatch.context() as m:
            m.setattr(oracle, "_ahead", _memo_search)
            assert _decisions(g) == fast
        refuted += not fast[0][2][0]
    # the cyclic search runs on 59 hosts; arrow of P_3 answers both ways
    assert searched >= 55 and 0 < refuted < 60


def _complete_class(n):
    full = (1 << n) - 1
    out = [full ^ 1 << v for v in range(n)]
    return out, list(out)


def test_path_through_leaves_no_reference_cycles(monkeypatch):
    """A cyclic check frees its memo and refuted states when it returns,
    not at the next full collection: on a complete 8-vertex class no
    path has more than 7 edges, so the backward search refutes states
    until it has tried every path into u.  A disjoint edge 8->9 lifts the
    support to 10 vertices, past the cutoff at bound + 1, so the search
    runs."""
    out, into = _complete_class(8)
    out += [1 << 9, 0]
    into += [0, 1 << 8]
    calls = _count_searches(monkeypatch)
    gc.collect()
    gc.disable()
    try:
        assert not reference_oracle.package_through(out, into, 0, 1, 7)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert calls["_ahead"] and calls["_behind"] > 1


def test_path_through_small_support_needs_no_search(monkeypatch):
    """A cyclic class on bound + 1 vertices holds no path of more than
    `bound` edges, so the check answers no before any search."""
    def no_search(*args):
        raise AssertionError("searched a support of bound + 1 vertices")

    monkeypatch.setattr(oracle, "_ahead", no_search)
    out, into = _complete_class(20)
    assert not reference_oracle.package_through(out, into, 0, 1, 19)


def test_path_through_support_cutoff_comes_before_size_guard():
    """A cyclic class on 24 vertices, which the size guard once refused at
    bound 22, is searched there and holds a longer path; at bound 23 or
    more its support alone answers the check."""
    out, into = _complete_class(24)
    for bound in (23, 30):
        assert not reference_oracle.package_through(out, into, 0, 1, bound)
    assert reference_oracle.package_through(out, into, 0, 1, 22)


def _path_into_edge(edges):
    """A path of `edges` edges into u, the new edge (u, v), and a 3-cycle
    through v, as (out, into, u, v): no path of the class without the new
    edge has more than `edges` edges, and with it the longest has
    `edges` + 3."""
    n = edges + 4
    g = OrientedGraph(n, [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 3)])
    return g.out_masks(), [g.in_mask(w) for w in range(n)], n - 4, n - 3


def test_path_through_budget_is_per_check(monkeypatch):
    """The check's memo and refuted states are charged against the state
    budget: the 8-vertex complete class, whose check refutes states one
    by one, raises BudgetExceededError when the budget is 10 states.  A
    path into the tail too long for the recursion limit raises it too,
    and a shorter one is answered."""
    out, into = _complete_class(8)
    out += [1 << 9, 0]
    into += [0, 1 << 8]
    with monkeypatch.context() as m:
        m.setattr(paths, "_STATE_BUDGET", 10)
        with pytest.raises(BudgetExceededError, match="exceeded 10 states"):
            reference_oracle.package_through(out, into, 0, 1, 7)
    assert not reference_oracle.package_through(out, into, 0, 1, 7)
    assert reference_oracle.package_through(*_path_into_edge(300), 302)
    with pytest.raises(BudgetExceededError, match="recursion limit"):
        reference_oracle.package_through(*_path_into_edge(1200), 1202)


def _search_hosts():
    """d6 digraphs, t7 tournaments, and rotational hosts on Z_n: the
    rotational tournaments and circulants with random jump sets."""
    rng = random.Random(7)
    for i in range(240):
        yield random_digraph(6, rng.randint(4, 18), i)
    for i in range(30):
        yield random_tournament(7, i).underlying
    for n in (3, 5, 7):
        yield OrientedGraph(n, [(i, (i + d) % n) for i in range(n)
                                for d in range(1, n // 2 + 1)])
    for _ in range(30):
        n = rng.randint(4, 8)
        jumps = rng.sample(range(1, n), rng.randint(1, 3))
        yield OrientedGraph(n, [(i, (i + d) % n) for i in range(n) for d in jumps],
                            allow_antiparallel=True)


def test_search_matches_full_engine_check(monkeypatch):
    """The whole search, run once with each check, finds the same
    coloring: equal value and witness coloring, and the package's search,
    which backjumps on what its short check names, in at most the nodes
    of the one with the yes/no reference check, which backs up one edge
    at a time."""
    hosts = list(_search_hosts())
    assert len(hosts) >= 300
    for g in hosts:
        for q in (1, 2, 3):
            fast = min_max_mono_path(g, q)
            with monkeypatch.context() as m:
                _swap_check(m, _reference_through)
                ref = min_max_mono_path(g, q)
            _same_or_sooner(fast, ref)


def _guard_size_hosts():
    """48 hosts of 23-30 vertices: sparse oriented graphs and digraphs,
    DAGs with shuffled labels, and short cycles with a long path and
    chords."""
    rng = random.Random(23)
    for i in range(48):
        n = rng.randint(23, 30)
        kind = i % 4
        if kind == 0:
            yield random_oriented_graph(n, rng.randint(n, 2 * n), i)
        elif kind == 1:
            yield random_digraph(n, rng.randint(n, 2 * n), i)
        elif kind == 2:
            perm = rng.sample(range(n), n)
            p = rng.uniform(0.05, 0.4)
            yield OrientedGraph(n, [(perm[a], perm[b]) for a in range(n)
                                    for b in range(a + 1, n) if rng.random() < p])
        else:
            c = rng.randint(3, 6)
            edges = {(j, (j + 1) % c) for j in range(c)}
            edges |= {(j, j + 1) for j in range(c, n - 1)}
            for _ in range(rng.randint(0, n // 2)):
                a, b = rng.sample(range(n), 2)
                if (b, a) not in edges:
                    edges.add((a, b))
            yield OrientedGraph(n, sorted(edges))


def _outcome(g, q, budget):
    try:
        return min_max_mono_path(g, q, budget)
    except (BudgetExceededError, SizeLimitError) as exc:
        return type(exc)


def _same_or_sooner(fast, ref):
    """A minmax outcome (result or error type) of the backjumping search
    against one of a search that backs up one edge at a time: where the
    reference answered, the same value and witness in at most as many
    nodes, and else the same error, except that the backjumping search
    may answer where the reference ran out of nodes.  True when only the
    backjumping search answered."""
    if ref is BudgetExceededError and fast is not ref:
        return True
    if isinstance(ref, type):
        assert fast is ref
    else:
        assert (fast.value, fast.witness) == (ref.value, ref.witness)
        assert fast.explored <= ref.explored
    return False


def _longest(adj):
    """Edges of the longest path of out-masks `adj` by the exact-value
    memo search, its vertex limit raised to the host."""
    return len(memo_search_longest_path(adj, len(adj))[0]) - 1


def test_search_matches_full_engine_above_guard_size(monkeypatch):
    """On hosts above 22 vertices the search finds the reference's
    coloring: where the reference, the whole class measured with the
    subset DP as a yes/no check, with which the search backs up one edge
    at a time, gives an answer, the search gives the same value and
    witness in at most as many nodes; where it runs out of budget, so
    does the search, or the search answers.  The reference raises
    SizeLimitError on every cyclic class above 22 vertices, and so did
    the check with the size guard above bound 3
    (`reference_oracle.guarded_path_through`, run with no state budget,
    as it was); the search answers each question that check refused, and
    each that it ran out of nodes on (3 measured), and its witness's
    classes, measured by the memo search with its limit raised to the
    host, reach exactly the value (at q = 1 the host's longest path).
    Where only the reference refused, each witness class is measured by
    that memo search too."""
    budget = 20_000
    seen = set()
    refused_before = sooner = 0
    for g in _guard_size_hosts():
        for q in (1, 2):
            fast = _outcome(g, q, budget)
            assert fast is not SizeLimitError
            with monkeypatch.context() as m:
                _swap_check(m, _reference_through)
                ref = _outcome(g, q, budget)
            with monkeypatch.context() as m:
                _swap_check(m, reference_oracle.guarded_path_through)
                m.setattr(paths, "_STATE_BUDGET", float("inf"))
                before = _outcome(g, q, budget)
            seen.add(ref if isinstance(ref, type) else "answer")
            if before is SizeLimitError:
                refused_before += 1
                assert not isinstance(fast, type)
            elif _same_or_sooner(fast, before):
                sooner += 1
            if isinstance(before, type) and not isinstance(fast, type):
                assert fast.value == max(_longest(fast.witness.out_masks(c, g.n))
                                         for c in range(1, q + 1))
                if q == 1:
                    assert fast.value == _longest(g.out_masks())
            if ref is SizeLimitError:
                assert not isinstance(fast, type)
                seen.add("answer past the reference's limit")
                fast.witness.validate_total(g)
                for c in range(1, q + 1):
                    assert _longest(fast.witness.out_masks(c, g.n)) <= fast.value
            else:
                _same_or_sooner(fast, ref)
    assert seen == {"answer", BudgetExceededError, SizeLimitError,
                    "answer past the reference's limit"}
    assert refused_before >= 27 and sooner >= 1


def _decision(g, q, bound, budget):
    """One decision of the coloring search as (coloring items or None,
    nodes), or the type of the error it raised."""
    try:
        witness, nodes = oracle._decision_search(g.n, oracle._search_order(g), q,
                                                 bound, budget, 0)
    except (BudgetExceededError, SizeLimitError) as exc:
        return type(exc)
    return (None if witness is None else list(witness.items())), nodes


def _same_decision(fast, ref):
    """One decision of the backjumping search against the same decision
    backed up one edge at a time: the same coloring, or None, in at most
    as many nodes, or else the same error, except that the backjumping
    search may answer where the reference ran out of nodes.  True when
    the reference answered."""
    if ref is BudgetExceededError and fast is not ref:
        return False
    if isinstance(ref, type):
        assert fast is ref
        return False
    assert fast[0] == ref[0] and fast[1] <= ref[1]
    return True


def test_short_bound_decisions_above_guard_size(monkeypatch):
    """At bounds 1-3 the check has no size guard: on hosts of 23-30
    vertices each decision at q = 1 and 2 finds the coloring, or none,
    that the search finds with the subset DP, its limit raised to the
    host, as its yes/no check, in at most as many nodes, and a coloring
    found keeps every class at the bound on the subset DP.  Some of these
    decisions met the guard before the short search
    (`reference_oracle.path_through`), and a coloring found for one of
    them keeps every class at the bound on the memo search too, its limit
    raised to the host; every other decision is unchanged but for its
    nodes.  Backjumping answers 286 of the 288 decisions within 20,000
    nodes, against 279 backing up one edge at a time."""
    budget = 20_000
    answered = refused_before = ref_answered = 0
    for g in _guard_size_hosts():
        n = g.n
        for q, bound in itertools.product((1, 2), (1, 2, 3)):
            fast = _decision(g, q, bound, budget)
            with monkeypatch.context() as m:
                _swap_check(m, lambda out, into, u, v, b:
                            _reference_through(out, into, u, v, b, n))
                ref_answered += _same_decision(fast, _decision(g, q, bound, budget))
            with monkeypatch.context() as m:
                _swap_check(m, reference_oracle.path_through)
                m.setattr(paths, "_STATE_BUDGET", float("inf"))
                before = _decision(g, q, bound, budget)
            if before is SizeLimitError:
                refused_before += 1
            else:
                _same_decision(fast, before)
            if fast is BudgetExceededError:
                continue
            answered += 1
            witness = fast[0]
            if witness is not None:
                coloring = EdgeColoring(q, dict(witness))
                coloring.validate_total(g)
                for c in range(1, q + 1):
                    path, _ = reference_longest_path(coloring.out_masks(c, n), bound, n)
                    assert len(path) <= bound + 1
                    if before is SizeLimitError:
                        assert _longest(coloring.out_masks(c, n)) <= bound
    assert answered >= 283 and refused_before >= 5 and ref_answered < answered


# -- the edge order against the lexicographic and id-order references ----

def _order_corpus():
    """(host, q): the search hosts at q = 1, 2, 3, and seeded 18-edge
    6-vertex digraphs and 7-vertex tournaments at q = 2, 3."""
    hosts = list(_search_hosts())
    for q in (1, 2, 3):
        for g in hosts:
            yield g, q
    rng = random.Random(16)
    corpus = [random_digraph(6, 18, rng.getrandbits(32)) for _ in range(40)]
    corpus += [random_tournament(7, rng.getrandbits(32)).underlying for _ in range(20)]
    for q in (2, 3):
        for g in corpus:
            yield g, q


def _reaches(g, coloring):
    """Longest monochromatic path of a total coloring of g."""
    coloring.validate_total(g)
    return max_mono_path(g, coloring)


def test_vertex_order_matches_lexicographic_reference():
    """Coloring edges vertex by vertex changes which coloring is found
    first and how many nodes it takes, never the value or an arrow
    answer: both orders agree on every host, each new witness reaches
    exactly the value (below the target for arrow), and the new order
    visits fewer nodes over the corpus."""
    fast_nodes = ref_nodes = 0
    cases = 0
    for g, q in _order_corpus():
        if not g.edge_count:
            continue
        cases += 1
        res = min_max_mono_path(g, q)
        value, explored = lexicographic_min_max(g, q)
        assert res.value == value
        assert _reaches(g, res.witness) == value
        fast_nodes += res.explored
        ref_nodes += explored
        for target in (value, value + 1):  # the reference's answers: yes, no
            ok, witness = arrowing_check(g, target, q)
            assert ok == (value >= target)
            if not ok:
                assert _reaches(g, witness) < target
    assert cases >= 1000
    assert fast_nodes < ref_nodes


def _rank_corpus():
    """(host, q): the search hosts (d6, t7 and rotational) and TT2-TT8 at
    q = 1, 2, 3, hosts with an edge only."""
    hosts = list(_search_hosts()) + [transitive_tournament(n) for n in range(2, 9)]
    for q in (1, 2, 3):
        for g in hosts:
            if g.edge_count:
                yield g, q


def test_rank_order_matches_id_order_reference():
    """Taking the vertices with the most 2-paths first, and starting at
    the product floor, changes which coloring is found first and how many
    nodes it takes, never the value or an arrow answer.  On every host the
    value is the id-order reference's, run from bound 1 up; the witness is
    the one the rank order's decisions from bound 1 up find, and keeps
    each class at the value; each arrow answer from target 0 to value + 1
    is the reference's, and a refuting coloring stays below the target."""
    cases = 0
    for g, q in _rank_corpus():
        cases += 1
        res = min_max_mono_path(g, q)
        value, _ = reference_oracle.id_order_min_max(g, q)
        searched, witness, explored = _searched_min_max(g, q)
        assert res.value == searched == value
        assert res.witness == witness and res.explored <= explored
        assert _reaches(g, res.witness) == value
        for target in range(value + 2):
            ok, witness = arrowing_check(g, target, q)
            assert ok == (value >= target)
            if not ok:
                assert _reaches(g, witness) < target
    assert cases >= 900


def _small_hosts():
    """1,500 seeded small hosts, (host, q): 7-vertex tournaments and
    18-edge 6-vertex digraphs at q = 2, 8-vertex oriented graphs of 5-16
    edges at q = 1, and 7-vertex oriented graphs of 5-14 edges and
    6-vertex digraphs of 5-16 edges at q = 3."""
    rng = random.Random(5)
    for s in range(300):
        yield random_tournament(7, s).underlying, 2
        yield random_digraph(6, 18, s), 2
        yield random_oriented_graph(8, rng.randint(5, 16), s), 1
        yield random_oriented_graph(7, rng.randint(5, 14), s), 3
        yield random_digraph(6, rng.randint(5, 16), s), 3


def test_backjumping_matches_chronological_reference():
    """Backjumping skips only subtrees that hold no coloring: on the rank
    corpus and on 1,500 small hosts at q = 1-3, every decision from bound
    0 up to the value finds the coloring, or none, that the search backing
    up one edge at a time (`reference_oracle.chronological_search`) finds,
    in at most as many nodes, and over the 8,259 decisions backjumping
    spends 69 % of its nodes."""
    decisions = nodes = ref_nodes = 0
    for g, q in itertools.chain(_rank_corpus(), _small_hosts()):
        edges = oracle._search_order(g)
        for bound in range(g.n):
            witness, spent = oracle._decision_search(g.n, edges, q, bound,
                                                     oracle.COLORING_BUDGET, 0)
            ref, ref_spent = reference_oracle.chronological_search(g.n, edges, q, bound)
            assert witness == ref and spent <= ref_spent
            decisions += 1
            nodes += spent
            ref_nodes += ref_spent
            if witness is not None:
                break
    assert decisions > 8_000 and nodes < 0.75 * ref_nodes


def test_rank_order_spends_fewer_nodes_on_seven_vertex_tournaments():
    """On 300 seeded 7-vertex tournaments at q=2, the rank order's
    decisions from bound 1 up spend at most 60 % of the id order's nodes
    (33 % measured with backjumping, 53 % backing up one edge at a
    time)."""
    fast = ref = 0
    for seed in range(300):
        g = random_tournament(7, seed).underlying
        fast += _searched_min_max(g, 2)[2]
        ref += reference_oracle.id_order_min_max(g, 2)[1]
    assert fast <= 0.6 * ref


def test_product_floor_skips_refuted_bounds(monkeypatch):
    """A greedy clique of w vertices puts the value at the least b >= 0
    with (b+1)^q >= w: TT10 arrows P_3 at q=2 (10 > 3^2) and TT9 arrows
    P_2 at q=3 (9 > 2^3) with no decision run, and a 7-vertex
    tournament's minmax at q=2 starts at bound 2 (7 > 1^2).  An edgeless
    host's floor is 0, so it still does not arrow P_1."""
    bounds = []

    def recorded(n, edges, q, bound, *args):
        bounds.append(bound)
        return search(n, edges, q, bound, *args)

    search = oracle._decision_search
    assert oracle._product_floor(transitive_tournament(10), 2) == 3
    assert oracle._product_floor(transitive_tournament(9), 3) == 2
    with monkeypatch.context() as m:
        m.setattr(oracle, "_decision_search", recorded)
        assert arrowing_check(transitive_tournament(10), 3, 2) == (True, None)
        assert arrowing_check(transitive_tournament(9), 2, 3) == (True, None)
        assert bounds == []
        for seed in range(5):
            g = random_tournament(7, seed).underlying
            res = min_max_mono_path(g, 2)
            assert bounds[0] == 2 and res.value == _searched_min_max(g, 2)[0]
            bounds.clear()
    for n in (0, 1, 3):
        g = OrientedGraph(n)
        assert oracle._product_floor(g, 2) == 0
        assert arrowing_check(g, 0, 2) == (True, None)
        ok, witness = arrowing_check(g, 1, 2)
        assert not ok and len(witness) == 0


def test_nine_vertex_arrow_decisions_within_small_budget():
    """At q=2 the 9-vertex rotational tournament arrows P_4 within 200,000
    nodes (17,780; 39,577 backing up one edge at a time, about 1.17M in
    the lexicographic order), and TT9's one decision finds that it does
    not arrow P_3 within 5,000 (158; 2,605 backing up one edge at a time,
    45,422 in id order, 2.83M in the lexicographic one)."""
    rot9 = OrientedGraph(9, [(i, (i + d) % 9) for i in range(9) for d in range(1, 5)])
    assert arrowing_check(rot9, 4, 2, budget=200_000) == (True, None)
    tt9 = transitive_tournament(9)
    witness, nodes = oracle._decision_search(9, oracle._search_order(tt9), 2, 2, 5_000, 0)
    assert nodes <= 5_000 and _reaches(tt9, witness) == 2
    ok, witness = arrowing_check(tt9, 3, 2, budget=5_000)
    assert not ok
    assert _reaches(tt9, witness) == 2


def _rotational(n):
    """The rotational tournament on Z_n, n odd: i -> i+1, ..., i+(n-1)/2."""
    return OrientedGraph(n, [(i, (i + d) % n) for i in range(n) for d in range(1, n // 2 + 1)])


def test_coloring_search_golden_digest():
    """One digest pins what the coloring search returns: minmax at q = 1-3
    (value, explored and witness) on 40 seeded 7-vertex tournaments and 40
    seeded 18-edge 6-vertex digraphs, arrow of P_3 and P_4 at q=2 (answer
    and witness) on the tournaments, and six decisions above bound 3 with
    their nodes: rot7 -> P_6 and P_7 at q=1, rot9 -> P_5 and rot11 -> P_5
    and P_6 at q=2, and K*_8 at bound 4, q=2.  A change that lowers a node
    count, or finds another witness, updates the digest and says why."""
    h = hashlib.sha256()
    t7 = [random_tournament(7, s).underlying for s in range(40)]
    d6 = [random_digraph(6, 18, s) for s in range(40)]
    for g in t7 + d6:
        for q in (1, 2, 3):
            res = min_max_mono_path(g, q)
            h.update(repr((res.value, res.explored, res.witness.items())).encode())
    for g in t7:
        for target in (3, 4):
            ok, witness = arrowing_check(g, target, 2)
            h.update(repr((ok, None if witness is None else witness.items())).encode())
    nodes = []
    for g, q, bound in ((_rotational(7), 1, 5), (_rotational(7), 1, 6),
                        (_rotational(9), 2, 4), (_rotational(11), 2, 4),
                        (_rotational(11), 2, 5), (complete_symmetric(8), 2, 4)):
        witness, spent = oracle._decision_search(g.n, oracle._search_order(g), q, bound,
                                                 oracle.COLORING_BUDGET, 0)
        h.update(repr((None if witness is None else witness.items(), spent)).encode())
        nodes.append(spent)
    assert nodes == [16, 21, 72, 868, 117, 2_334]
    assert h.hexdigest()[:12] == "78279b1d9518"


@pytest.mark.slow
def test_oracle_reach_script_reports_each_question():
    """`scripts/oracle_reach.py` decides each question within the default
    budget of 2^22 nodes and prints its answer and nodes: TT10 -> P_3 in
    16,246 nodes (1,065,567 backing up one edge at a time), TT9 -> P_2 at
    q=3 within the budget, and TT16 -> P_4, which ran out of nodes backing
    up one edge at a time, in 159,967.  rot7 -> P_6 and rot7 -> P_7 at
    q=1 pin the per-edge check above bound 3, each answer confirmed by
    the exact path engine.  It then measures three cyclic classes with
    the exact path engine and prints each longest path."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(root / "scripts" / "oracle_reach.py")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    for line in ("rot9 -> P_4, q=2: arrows, 17,780 nodes",
                 "TT9 -> P_3, q=2: does not arrow, 158 nodes",
                 "TT10 -> P_3, q=2: arrows, 16,246 nodes",
                 "TT9 -> P_2, q=3: arrows, 33,713 nodes",
                 "rot7 -> P_2, q=3: arrows, 143 nodes",
                 "rot11 -> P_4, q=2: arrows, 43,032 nodes",
                 "TT16 -> P_4, q=2: does not arrow, 159,967 nodes",
                 "rot7 -> P_6, q=1: arrows, 16 nodes, longest path 6,",
                 "rot7 -> P_7, q=1: does not arrow, 21 nodes, longest path 6,",
                 "3-cycle beside a 21-edge path: longest path 21,",
                 "K14 with 2 sinks: longest path 14,",
                 "K17: longest path 16,"):
        assert line in res.stdout


def test_search_depth_is_not_bounded_by_frames():
    """The search keeps its place on each edge in lists, not in frames:
    TT46 (1,035 edges) at q=1 gives its longest path, 45, both read off
    its heights and from the decisions bound by bound, and a 1,100-vertex
    directed path does not arrow P_3 at q=2."""
    tt46 = transitive_tournament(46)
    assert min_max_mono_path(tt46, 1).value == 45
    assert _searched_min_max(tt46, 1)[0] == 45
    g = OrientedGraph(1100, [(i, i + 1) for i in range(1099)])
    ok, witness = arrowing_check(g, 3, 2)
    assert not ok and _reaches(g, witness) == 2


def _searched_min_max(g, q):
    """min_max_mono_path's decisions from bound 1 up, with no product
    floor, as (value, witness, explored)."""
    edges = oracle._search_order(g)
    spent = 0
    for bound in range(1, g.n):
        witness, spent = oracle._decision_search(g.n, edges, q, bound,
                                                 oracle.COLORING_BUDGET, spent)
        if witness is not None:
            return bound, witness, spent


def test_minmax_one_color_reads_an_acyclic_host_in_one_pass(monkeypatch):
    """At q=1 an acyclic host's value is its longest path: the value and
    witness the decisions from bound 1 up give, explored m and no decision
    run.  A cyclic host at q=1 still runs its decisions."""
    decisions = collections.Counter()

    def counted(n, edges, *args):
        decisions[find_cycle(OrientedGraph(n, edges)) is None] += 1
        return search(n, edges, *args)

    search = oracle._decision_search
    rng = random.Random(31)
    hosts = [transitive_tournament(n) for n in range(2, 12)]
    hosts += [OrientedGraph(n, [(i, i + 1) for i in range(n - 1)]) for n in (2, 9)]
    hosts += [random_oriented_graph(n, rng.randint(1, n * (n - 1) // 2), i)
              for i, n in enumerate(rng.randint(2, 9) for _ in range(120))]
    acyclic = 0
    for g in hosts:
        with monkeypatch.context() as m:
            m.setattr(oracle, "_decision_search", counted)
            res = min_max_mono_path(g, 1)
        value, witness, _ = _searched_min_max(g, 1)
        assert (res.value, res.witness) == (value, witness)
        if find_cycle(g) is None:
            acyclic += 1
            assert res.explored == g.edge_count
            assert res.value == len(longest_path_masks(g.out_masks())[0]) - 1
    assert decisions[True] == 0 and decisions[False] > 20 and acyclic > 40


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


def test_arrowing_check_needs_a_positive_q():
    with pytest.raises(ValueError, match="q must be >= 1"):
        arrowing_check(transitive_tournament(3), 1, 0)


@pytest.mark.parametrize("t, value", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 3), (7, 4)])
def test_raynaud_floor_is_tight(t, value):
    """Some 2-coloring of the complete symmetric digraph on t vertices has
    no monochromatic path longer than ceil(t/2), the length raynaud's
    longer run always reaches."""
    assert value == (t + 1) // 2
    assert min_max_mono_path(complete_symmetric(t), 2).value == value
