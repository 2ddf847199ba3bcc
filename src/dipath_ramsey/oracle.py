"""Exact reference answers for small colored digraphs.

Everything here is brute force with pruning, meant to check the
constructive modules and to pin expected values in tests, not to scale.
The two central questions: how long is the longest monochromatic path of a
given coloring, and what is the best (minimal) value an adversary can
force over all colorings with a given number of colors.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import paths
from .errors import BudgetExceededError
from .graphs import DirectedPath, EdgeColoring, OrientedGraph
from .paths import _TOO_DEEP, _ahead, _heights, longest_path_masks

# a check at a bound up to this is the plain depth-first search
# `_short_through`, whose recursion is at most `bound` + 1 frames deep and
# which needs no walks, support pass or memo at any class size; questions
# about P_2 to P_4 ask no more, and above it the paths the plain search
# tries grow as the degree to the power `bound`
_SHORT_BOUND = 3

# search nodes min_max_mono_path and arrowing_check may spend by default
COLORING_BUDGET = 1 << 22


@dataclass(frozen=True)
class OracleResult:
    value: int
    witness: DirectedPath | EdgeColoring
    explored: int

    def to_dict(self) -> dict:
        if isinstance(self.witness, DirectedPath):
            witness = list(self.witness.vertices)
        else:
            witness = [[u, v, c] for (u, v), c in self.witness.items()]
        return {"value": self.value, "witness": witness, "explored": self.explored}


def longest_mono_path(g: OrientedGraph, coloring: EdgeColoring) -> dict[int, OracleResult]:
    """Exact longest path per color class, as {color: result}.

    Acyclic classes are solved at any size by the engine's sink peel, or,
    once the peel has scanned more than twice as many vertices as the
    class has edges, by Kahn's counting pass on what is left.  Cyclic
    classes are searched over their support (vertices with an incident
    edge of that color) by the engine's path search, bounded by what a
    path can still reach, at any support size; BudgetExceededError is
    raised, rather than an estimate returned, when one search charges
    more than `paths._STATE_BUDGET` (end, vertex set) states or recurses
    past the interpreter's limit.  Each witness is the class's
    lexicographically first longest path, and `explored` of a cyclic
    class is the states its search charged (see `longest_path_masks`).
    """
    coloring.validate_total(g)
    out: dict[int, OracleResult] = {}
    for color in range(1, coloring.num_colors + 1):
        vertices, explored = longest_path_masks(coloring.out_masks(color, g.n))
        p = DirectedPath(vertices)
        out[color] = OracleResult(p.length, p, explored)
    return out


def max_mono_path(g: OrientedGraph, coloring: EdgeColoring) -> int:
    """Longest monochromatic path over all colors of one coloring: the
    oracle's one-number answer, which every witness bound is checked
    against."""
    per_color = longest_mono_path(g, coloring)
    return max((r.value for r in per_color.values()), default=0)


def _dag_depth(nbr: list[int], s: int) -> int | None:
    """Edges of the longest path from s along `nbr`, or None when a cycle
    is reachable from s.  Layer k holds the ends of the walks of k
    edges from s; without a cycle these are paths, so the last nonempty
    layer gives the longest.  A walk of as many edges as there are
    vertices reached shows a cycle."""
    layer = reach = 1 << s
    k = 0
    while True:
        nxt = 0
        while layer:
            low = layer & -layer
            layer ^= low
            nxt |= nbr[low.bit_length() - 1]
        if not nxt:
            return k
        reach |= nxt
        k += 1
        if k >= reach.bit_count():
            return None
        layer = nxt


def _path_through(out: list[int], into: list[int], u: int, v: int,
                  bound: int) -> bool:
    """Whether a class with no path of more than `bound` edges gains one
    when its new edge (u, v) comes in.  `out` and `into` are the class's
    out- and in-masks, the new edge included.

    Such a path must use (u, v): it is a path into u, the edge, and a path
    out of v, the two disjoint, with `bound` edges between them.  At a
    bound up to _SHORT_BOUND, `_short_through` grows the two paths one
    edge at a time and stops at the first pair long enough: no walks,
    support pass or memo, and at most bound + 1 frames deep; the coloring
    search calls it itself, to learn which edges the path uses.  Above it
    run the routes that stay polynomial on acyclic classes of any size
    and on dense cyclic classes at high bounds, and answer yes or no.
    When no cycle is reachable from v, v does not reach u (the edge would
    close one), so the two paths never meet.  If no cycle reaches u
    either, the answer is the longest path into u, plus 1, plus the
    longest path out of v, each read off its layers of walks, at any
    size.  Otherwise the class is cyclic, and a support (the vertices
    with an edge) of at most bound + 1 vertices holds no path of more
    than `bound` edges, so the answer is no with no search.  Else the
    paths into u are tried one by one, each against the longest path out
    of v that avoids it, found by the engine's own search, `paths._ahead`,
    with the class's in-masks for its bound.  Every path of the old class
    has at most `bound` edges, so both searches stop at that depth, and a
    search that reaches it has found the path.  v alone is asked whether
    `bound` edges leave it, with floor `bound` - 1, and if not, the upper
    bound it returns, `most`, caps the paths out of v; each path into u
    then asks only whether `left` edges out of v remain, with floor
    `left` - 1, so a state whose reach falls short ends at once.  `_ahead`
    keeps a bound on each (end, vertex set) state in one memo, and the
    backward search keeps the states it refutes.

    Size alone refuses nothing.  The budget is per check: the memo and
    the refuted states are each charged against `paths._STATE_BUDGET`,
    and past it, or past the interpreter's recursion limit, the check
    raises BudgetExceededError.  The coloring search's own node budget
    counts colorings tried, not these states.
    """
    if bound <= _SHORT_BOUND:
        # the positions of the path do not matter here: every edge's are 0
        n = len(out)
        return _short_through(out, into, u, v, 1 << u | 1 << v, bound, [[0] * n] * n) >= 0
    ahead = _dag_depth(out, v)
    if ahead is not None:
        behind = _dag_depth(into, u)
        if behind is not None:
            return behind + ahead >= bound
    support = 0  # the masks of `into` name the tails, those of `out` the heads
    for a, b in zip(out, into):
        support |= a | b
    size = support.bit_count()
    if size <= bound + 1:  # no simple path there has more than `bound` edges
        return False
    memo: dict = {}  # _ahead's bounds on (end, vertex set) states
    ends = 1 << u | 1 << v
    try:
        # below `bound`, no path out of v is longer than `most`
        most = _ahead(out, into, memo, v, ends, bound, bound - 1)
        return most >= bound or _behind(out, into, memo, set(), v, most, u, ends, bound)
    except RecursionError:
        raise BudgetExceededError(_TOO_DEEP) from None


def _short_through(out: list[int], into: list[int], w: int, v: int,
                   seen: int, left: int, bits: list) -> int:
    """The positions of a path into u that starts at w and covers `seen`,
    met by a path out of v of `left` edges that avoids it, or extended
    backward first, as the OR of their edges' `bits` (bits[a][b] names
    edge (a, b)'s position), or -1 when there is none: `_path_through`'s
    plain search, one edge at a time, with no memo.  The mask is ORed
    together as the search unwinds, so at the top it holds every edge of
    the path but (u, v).  With one or two edges left it loops over the
    masks in the order the recursion would take, so the mask is the same."""
    if not left:
        return 0
    if left <= 2:
        free = ~seen
        ahead = out[v] & free
        if left == 1:
            if ahead:
                return bits[v][(ahead & -ahead).bit_length() - 1]
            m = into[w] & free
            return bits[(m & -m).bit_length() - 1][w] if m else -1
        m = ahead
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            nxt = out[x] & free
            if nxt:
                return bits[v][x] | bits[x][(nxt & -nxt).bit_length() - 1]
        m = into[w] & free
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            nxt = ahead & ~low
            if nxt:
                return bits[x][w] | bits[v][(nxt & -nxt).bit_length() - 1]
            nxt = into[x] & free
            if nxt:
                return bits[x][w] | bits[(nxt & -nxt).bit_length() - 1][x]
        return -1
    hit = _out_of(out, v, seen, left, bits)
    if hit >= 0:
        return hit
    m = into[w] & ~seen
    while m:
        low = m & -m
        m ^= low
        x = low.bit_length() - 1
        hit = _short_through(out, into, x, v, seen | low, left - 1, bits)
        if hit >= 0:
            return hit | bits[x][w]
    return -1


def _out_of(out: list[int], w: int, seen: int, left: int, bits: list) -> int:
    """The positions of a path of `left` >= 1 edges that leaves w along
    `out` avoiding `seen`, as in `_short_through`, or -1."""
    m = out[w] & ~seen
    while m:
        low = m & -m
        m ^= low
        x = low.bit_length() - 1
        hit = 0 if left == 1 else _out_of(out, x, seen | low, left - 1, bits)
        if hit >= 0:
            return hit | bits[w][x]
    return -1


def _behind(out: list[int], into: list[int], memo: dict, dead: set, v: int,
            most: int, w: int, seen: int, left: int) -> bool:
    """Whether a path into u that starts at w and covers `seen` is met by
    a path out of v of `left` edges that avoids it, or can be extended
    backward first.  `most` caps the paths out of v; `dead` holds the
    (w, seen) states refuted so far, charged like `_ahead`'s memo against
    `paths._STATE_BUDGET`.  Like `_ahead`, a plain function that gets its
    tables as arguments, so they die with the caller's frame."""
    if left <= most and (not left
                         or _ahead(out, into, memo, v, seen, left, left - 1) >= left):
        return True
    m = into[w] & ~seen
    if not m or (w, seen) in dead:
        return False
    while m:
        low = m & -m
        m ^= low
        if _behind(out, into, memo, dead, v, most, low.bit_length() - 1,
                   seen | low, left - 1):
            return True
    if len(dead) >= paths._STATE_BUDGET:
        raise BudgetExceededError(f"backward path search exceeded {paths._STATE_BUDGET} states")
    dead.add((w, seen))
    return False


def _search_order(g: OrientedGraph) -> list[tuple[int, int]]:
    """g's edges in the coloring search's order.

    The vertices are ranked by in-degree times out-degree, the most 2-paths
    x -> v -> y through them first, ties by id, and the edges sorted by
    (later rank of their ends, earlier rank): every edge among the first k
    ranked vertices comes before any edge of the next.  The busiest
    vertices thus come first, where a class's paths close soonest.  Built
    once per question and shared by its decisions.
    """
    n = g.n
    rank = [0] * n
    for r, v in enumerate(sorted(range(n),
                                 key=lambda v: -g.in_degree(v) * g.out_degree(v))):
        rank[v] = r

    def key(e: tuple[int, int]) -> tuple[int, int]:
        a, b = rank[e[0]], rank[e[1]]
        return (a, b) if a > b else (b, a)

    # g.edges() is lexicographic and the sort stable, so (a, b) with a < b
    # stays ahead of (b, a)
    return sorted(g.edges(), key=key)


def _product_floor(g: OrientedGraph, q: int) -> int:
    """A lower bound on g's minmax at q colors: the least b >= 0 with
    (b+1)^q >= w, w the size of a greedy clique of g's underlying graph.

    A class with no path of more than b edges is (b+1)-colorable
    (Gallai-Roy), and the q classes' colorings multiply to a proper
    (b+1)^q-coloring of the underlying graph, which needs w colors.  The
    clique takes the vertices by underlying degree, highest first, each
    one adjacent to all taken before it.
    """
    nbr = [g.out_mask(v) | g.in_mask(v) for v in range(g.n)]
    common = (1 << g.n) - 1
    size = 0
    for v in sorted(range(g.n), key=lambda v: -nbr[v].bit_count()):
        if common >> v & 1:
            size += 1
            common &= nbr[v]
    b = 0
    while (b + 1) ** q < size:
        b += 1
    return b


def _decision_search(n: int, edges: list[tuple[int, int]], q: int, bound: int,
                     budget: int, spent: int) -> tuple[EdgeColoring | None, int]:
    """A q-coloring of the n-vertex host with edges `edges` and every
    monochromatic path <= bound, or None.

    Edges are colored in the order given, `_search_order`'s: vertex by
    vertex, the busiest first, so a class's paths close, and a coloring
    that cannot be completed is refuted, a few edges after they start.
    Colors are interchangeable, so edge i may only use colors up to one
    past the highest color already used (canonical-form symmetry
    reduction; the edge order is fixed, so this stays sound).  `spent`
    nodes are already charged against the budget.  The search only goes
    deeper while no class has a path longer than `bound`, so each node
    checks only the paths through its new edge.

    A dead end backjumps (conflict-directed backjumping, Prosser 1993):
    conf[pos] masks the earlier positions whose colors refuted those
    tried at pos, at a bound up to _SHORT_BOUND the other edges of the
    paths `_short_through` found, above it every earlier position.  When
    every color was tried, the search jumps to the highest position in
    the conflict, uncolors those in between and hands it the rest; an
    empty conflict means no coloring exists.  Where the canonical rule
    skipped colors the conflict is every earlier position: the skipped
    and the tried fresh color are all unused before pos, so swapping
    them maps any coloring onto one already refuted, but which colors
    are unused depends on every earlier edge.  A jump passes over no
    coloring, so the coloring found is plain backtracking's, in a subset
    of its nodes.
    """
    m = len(edges)
    # per-color out- and in-masks and edge counts, updated as edges are
    # (un)assigned
    adj = [[0] * n for _ in range(q + 1)]
    into = [[0] * n for _ in range(q + 1)]
    count = [0] * (q + 1)
    nodes = spent
    # bits[a][b] is 1 << the position of edge (a, b); a dict per tail, not
    # an n x n table, keeps a sparse host of many vertices small
    bits = [{} for _ in range(n)]
    for pos, (u, v) in enumerate(edges):
        bits[u][v] = 1 << pos
    short = bound <= _SHORT_BOUND
    # color[pos] is the color on edge pos, 0 while it has none, top[pos]
    # the highest color it may take: one past the highest on edges
    # 0..pos-1, at most q, and conf[pos] its conflict.  A loop, not a
    # recursion, so a host of any edge count fits in one frame.
    color = [0] * m
    top = [1] * (m + 1)
    conf = [0] * m
    pos = 0
    while pos < m:
        u, v = edges[pos]
        ubit, vbit = 1 << u, 1 << v
        c = color[pos]
        if c:  # take the color tried last off before the next
            adj[c][u] ^= vbit
            into[c][v] ^= ubit
            count[c] -= 1
            if c == top[pos]:  # every color tried: jump back
                why = conf[pos] if c == q else (1 << pos) - 1
                color[pos] = conf[pos] = 0
                if not why:
                    return None, nodes
                back = why.bit_length() - 1
                for p in range(pos - 1, back, -1):
                    c = color[p]
                    a, b = edges[p]
                    adj[c][a] ^= 1 << b
                    into[c][b] ^= 1 << a
                    count[c] -= 1
                    color[p] = conf[p] = 0
                conf[back] |= why ^ 1 << back
                pos = back
                continue
        c += 1
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"coloring search exceeded {budget} nodes")
        color[pos] = c
        out, inn = adj[c], into[c]
        out[u] |= vbit
        inn[v] |= ubit
        count[c] += 1
        hit = -1  # fewer than bound+1 edges can never form a longer path
        if count[c] > bound:
            if short:
                hit = _short_through(out, inn, u, v, ubit | vbit, bound, bits)
            elif _path_through(out, inn, u, v, bound):
                hit = bits[u][v] - 1
        if hit < 0:
            pos += 1
            top[pos] = c + 1 if c == top[pos - 1] < q else top[pos - 1]
        else:
            conf[pos] |= hit
    return EdgeColoring.from_masks(adj[1:]), nodes


def min_max_mono_path(g: OrientedGraph, q: int,
                      budget: int = COLORING_BUDGET) -> OracleResult:
    """Smallest achievable longest-monochromatic-path over all q-colorings.

    Exhaustive (with symmetry and pruning); the witness is a coloring
    attaining the minimum.  One decision runs per bound, from the product
    floor (`_product_floor`, a greedy clique's Gallai-Roy bound) up, all
    in one edge order (`_search_order`, the vertices with the most
    2-paths first); `explored` sums their nodes.  Each node checks only
    the paths through its new edge (`_path_through`).

    BudgetExceededError is raised when the search needs more than
    `budget` nodes, with no up-front estimate from q^|E|.  `budget`
    counts colorings tried, one per (edge, color), not the steps of the
    check through each new edge; a check above _SHORT_BOUND has its own
    budget of states, and raises BudgetExceededError past it.  No host
    or class is refused for its size.

    With one color on an acyclic host the value is the host's longest
    path, read off its heights in one pass, with every edge in color 1 as
    the witness.  No decision runs, so `budget` is not applied there, and
    `explored` is m, the nodes of the one decision that would succeed (at
    that bound each edge takes color 1 once): not the count summed over
    every decision that the search reports elsewhere, and not comparable
    with it.  A cyclic host at q=1 searches as at every other q.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if g.edge_count == 0:
        return OracleResult(0, EdgeColoring(q, {}), 0)
    if q == 1:
        out = g.out_masks()
        height, cyclic = _heights(out)
        if not cyclic:
            return OracleResult(max(height), EdgeColoring.from_masks([out]), g.edge_count)
    edges = _search_order(g)
    spent = 0
    for bound in range(_product_floor(g, q), g.n):
        witness, spent = _decision_search(g.n, edges, q, bound, budget, spent)
        if witness is not None:
            return OracleResult(bound, witness, spent)
    raise AssertionError("a path of length n-1 can never be exceeded")


def arrowing_check(g: OrientedGraph, n_target: int, q: int,
                   budget: int = COLORING_BUDGET) -> tuple[bool, EdgeColoring | None]:
    """Does every q-coloring of g contain a monochromatic path of length
    (in edges) at least n_target?  Equivalent to min_max_mono_path(g, q)
    >= n_target.  Returns (answer, witness) with a refuting coloring when
    the answer is False.  When the product floor reaches n_target the
    answer is True with no search (TT10 -> P_3 at q=2, TT9 -> P_2 at
    q=3); else one decision runs at bound n_target - 1."""
    if n_target < 0:
        raise ValueError("n_target must be >= 0")
    if q < 1:
        raise ValueError("q must be >= 1")
    if _product_floor(g, q) >= n_target:
        return True, None
    witness, _ = _decision_search(g.n, _search_order(g), q, n_target - 1, budget, 0)
    if witness is not None:
        return False, witness
    return True, None
