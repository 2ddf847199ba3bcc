"""Routes that the oracle's coloring search once ran, kept verbatim.

`chronological_search` is the search as it ran before it backjumped: on
a dead end it backs up one edge at a time, and its check at a bound up
to `oracle._SHORT_BOUND` is the plain depth-first search answering yes
or no (`short_through`).  The backjumping search must find the same
coloring, or none, on every decision, within at most as many nodes.

`id_order_search` colors the edges vertex by vertex in id order, the
reference for the rank order (the vertices with the most 2-paths first)
that replaced it, and `lexicographic_search` colors `g.edges()` in
lexicographic order, the reference for the id order: each must agree
with its successor on every value and arrow answer, while their
witnesses and node counts differ.  Both back up one edge at a time, and
run the package's per-edge check, `oracle._path_through`, looked up at
each call, which the oracle tests hold to the subset DP.

`path_through` is that check as it ran at every bound before a bound up
to `oracle._SHORT_BOUND` took the plain depth-first search: DAG walks,
the support cutoff, the 22-vertex guard and the memo search.  Patched in
for the package's check, it must give the same value and witness on
every input where it raises nothing.  `guarded_path_through` is the
check as it ran after that and before the guard went: the short search
up to `oracle._SHORT_BOUND`, `path_through` above it.  The package has
since dropped the guard; it stays here, as CLASS_SUPPORT_LIMIT and the
reference SizeLimitError, so that tests can count the questions each
check refused.  Both run the package's `_ahead` and `_behind`, which
charge `paths._STATE_BUDGET`; a test that wants either check exactly as
it was raises that budget out of reach.

`recursive_short_through` is `oracle._short_through` before its checks
with one or two edges left became loops: the recursion at every length,
with its own `recursive_out_of`.  It must return the same position mask
on every check."""
from dipath_ramsey import oracle
from dipath_ramsey.errors import BudgetExceededError
from dipath_ramsey.graphs import EdgeColoring, OrientedGraph
from dipath_ramsey.oracle import _behind, _dag_depth
from dipath_ramsey.paths import _ahead
from reference_paths import SizeLimitError

CLASS_SUPPORT_LIMIT = 22


def path_through(out: list[int], into: list[int], u: int, v: int,
                 bound: int) -> bool:
    """Whether a class with no path of more than `bound` edges gains one
    when its new edge (u, v) comes in.  `out` and `into` are the class's
    out- and in-masks, the new edge included.

    Such a path must use (u, v): it is a path into u, the edge, and a path
    out of v, the two disjoint, with `bound` edges between them.  When no
    cycle is reachable from v, v does not reach u (the edge would close
    one), so the two paths never meet.  If no cycle reaches u either, the
    answer is the longest path into u, plus 1, plus the longest path out
    of v, each read off its layers of walks, at any size.  Otherwise the
    class is cyclic, and its support (the vertices with an edge) decides
    first: a support of at most bound + 1 vertices holds no path of more
    than `bound` edges, so the answer is no with no search, and a support
    above CLASS_SUPPORT_LIMIT raises SizeLimitError.  Else the
    paths into u are tried one by one, each against the longest path out
    of v that avoids it, found by the engine's own search, `paths._ahead`.
    Every path of the old class has at most `bound` edges, so both
    searches stop at that depth, and a search that reaches it has found
    the path.  The longest path out of v alone, `most`, is asked for with
    no floor; each path into u then asks only whether `left` edges out of
    v remain, with floor `left` - 1, so a state whose reach falls short
    ends at once.  `_ahead` keeps a bound on each (end, vertex set) state
    in one memo, and the backward search keeps the states it refutes.
    """
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
    if size > CLASS_SUPPORT_LIMIT:
        raise SizeLimitError(f"cyclic support {size} > limit {CLASS_SUPPORT_LIMIT}")
    memo: dict = {}  # _ahead's bounds on (end, vertex set) states
    ends = 1 << u | 1 << v
    # no path out of v is longer than `most`
    most = _ahead(out, into, memo, v, ends, bound, -1)
    return most >= bound or _behind(out, into, memo, set(), v, most, u, ends, bound)


def guarded_path_through(out: list[int], into: list[int], u: int, v: int,
                         bound: int) -> bool:
    """The check with the 22-vertex guard above `oracle._SHORT_BOUND`
    only: the package's short search at a bound up to it, `path_through`
    above it."""
    if bound <= oracle._SHORT_BOUND:
        return short_through(out, into, u, v, 1 << u | 1 << v, bound)
    return path_through(out, into, u, v, bound)


def short_through(out: list[int], into: list[int], w: int, v: int,
                  seen: int, left: int) -> bool:
    """Whether a path into u that starts at w and covers `seen` is met by
    a path out of v of `left` edges that avoids it, or can be extended
    backward first: `_path_through`'s plain search, one edge at a time,
    with no memo.  With one edge left, the answer is whether v has an
    out-neighbor or w an in-neighbor outside `seen`."""
    if left <= 1:
        return not left or (out[v] | into[w]) & ~seen != 0
    if out_of(out, v, seen, left):
        return True
    m = into[w] & ~seen
    while m:
        low = m & -m
        m ^= low
        if short_through(out, into, low.bit_length() - 1, v, seen | low, left - 1):
            return True
    return False


def out_of(out: list[int], w: int, seen: int, left: int) -> bool:
    """Whether a path of `left` >= 1 edges leaves w along `out` avoiding
    `seen`."""
    m = out[w] & ~seen
    if left == 1 or not m:
        return m != 0
    while m:
        low = m & -m
        m ^= low
        if out_of(out, low.bit_length() - 1, seen | low, left - 1):
            return True
    return False


def recursive_short_through(out: list[int], into: list[int], w: int, v: int,
                            seen: int, left: int, bits: list) -> int:
    """The positions of a path into u that starts at w and covers `seen`,
    met by a path out of v of `left` edges that avoids it, or extended
    backward first, as the OR of their edges' `bits` (bits[a][b] names
    edge (a, b)'s position), or -1 when there is none, one edge at a
    time."""
    if not left:
        return 0
    hit = recursive_out_of(out, v, seen, left, bits)
    if hit >= 0:
        return hit
    m = into[w] & ~seen
    while m:
        low = m & -m
        m ^= low
        x = low.bit_length() - 1
        hit = 0 if left == 1 else recursive_short_through(out, into, x, v, seen | low,
                                                          left - 1, bits)
        if hit >= 0:
            return hit | bits[x][w]
    return -1


def recursive_out_of(out: list[int], w: int, seen: int, left: int, bits: list) -> int:
    """The positions of a path of `left` >= 1 edges that leaves w along
    `out` avoiding `seen`, as in `recursive_short_through`, or -1."""
    m = out[w] & ~seen
    while m:
        low = m & -m
        m ^= low
        x = low.bit_length() - 1
        hit = 0 if left == 1 else recursive_out_of(out, x, seen | low, left - 1, bits)
        if hit >= 0:
            return hit | bits[w][x]
    return -1


def chronological_through(out: list[int], into: list[int], u: int, v: int,
                          bound: int) -> bool:
    """The check `chronological_search` runs: `short_through` at a bound
    up to `oracle._SHORT_BOUND`, the package's `_path_through` above it,
    looked up at each call."""
    if bound <= oracle._SHORT_BOUND:
        return short_through(out, into, u, v, 1 << u | 1 << v, bound)
    return oracle._path_through(out, into, u, v, bound)


def chronological_search(n: int, edges: list[tuple[int, int]], q: int, bound: int,
                         budget: int = oracle.COLORING_BUDGET,
                         spent: int = 0) -> tuple[EdgeColoring | None, int]:
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
    """
    m = len(edges)
    # per-color out- and in-masks and edge counts, updated as edges are
    # (un)assigned
    adj = [[0] * n for _ in range(q + 1)]
    into = [[0] * n for _ in range(q + 1)]
    count = [0] * (q + 1)
    nodes = spent
    # color[pos] is the color on edge pos, 0 while it has none, and
    # top[pos] the highest color it may take: one past the highest on
    # edges 0..pos-1, at most q.  A loop, not a recursion, so a host of
    # any edge count fits in one frame.
    color = [0] * m
    top = [1] * (m + 1)
    pos = 0
    while pos < m:
        u, v = edges[pos]
        ubit, vbit = 1 << u, 1 << v
        c = color[pos]
        if c:  # take the color tried last off before the next
            adj[c][u] ^= vbit
            into[c][v] ^= ubit
            count[c] -= 1
            if c == top[pos]:  # every color tried: back up
                color[pos] = 0
                if not pos:
                    return None, nodes
                pos -= 1
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
        # fewer than bound+1 edges can never form a longer path
        if count[c] <= bound or not chronological_through(out, inn, u, v, bound):
            pos += 1
            top[pos] = c + 1 if c == top[pos - 1] < q else top[pos - 1]
    return EdgeColoring.from_masks(adj[1:]), nodes


def id_order_search(g: OrientedGraph, q: int, bound: int,
                    budget: int = oracle.COLORING_BUDGET,
                    spent: int = 0) -> tuple[EdgeColoring | None, int]:
    """A q-coloring of g with every monochromatic path <= bound, or None.

    Edges are colored vertex by vertex: every edge among vertices
    0..k-1 comes before any edge of vertex k, so a class's paths close,
    and a coloring that cannot be completed is refuted, a few edges after
    they start.  Colors are interchangeable, so edge i may only use colors
    up to one past the highest color already used (canonical-form
    symmetry reduction; the edge order is fixed, so this stays sound).
    `spent` nodes are already charged against the budget.  The search
    only goes deeper while no class has a path longer than `bound`, so
    each node checks only the paths through its new edge.
    """
    # g.edges() is lexicographic and the sort stable, so (a, b) with a < b
    # stays ahead of (b, a)
    edges = sorted(g.edges(), key=lambda e: (max(e), min(e)))
    m = len(edges)
    # per-color out- and in-masks and edge counts, updated as edges are
    # (un)assigned
    adj = [[0] * g.n for _ in range(q + 1)]
    into = [[0] * g.n for _ in range(q + 1)]
    count = [0] * (q + 1)
    nodes = spent
    # color[pos] is the color on edge pos, 0 while it has none, and
    # top[pos] the highest color it may take: one past the highest on
    # edges 0..pos-1, at most q.  A loop, not a recursion, so a host of
    # any edge count fits in one frame.
    color = [0] * m
    top = [1] * (m + 1)
    pos = 0
    while pos < m:
        u, v = edges[pos]
        ubit, vbit = 1 << u, 1 << v
        c = color[pos]
        if c:  # take the color tried last off before the next
            adj[c][u] ^= vbit
            into[c][v] ^= ubit
            count[c] -= 1
            if c == top[pos]:  # every color tried: back up
                color[pos] = 0
                if not pos:
                    return None, nodes
                pos -= 1
                continue
        c += 1
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"coloring search exceeded {budget} nodes")
        color[pos] = c
        out, inn = adj[c], into[c]
        out[u] |= vbit
        inn[v] |= ubit
        count[c] += 1
        # fewer than bound+1 edges can never form a longer path
        if count[c] <= bound or not oracle._path_through(out, inn, u, v, bound):
            pos += 1
            top[pos] = c + 1 if c == top[pos - 1] < q else top[pos - 1]
    return EdgeColoring.from_masks(adj[1:]), nodes


def id_order_min_max(g: OrientedGraph, q: int) -> tuple[int, int]:
    """(value, explored) of `min_max_mono_path` under the id order, its
    decisions run from bound 1 up, for a host with at least one edge."""
    spent = 0
    for bound in range(1, g.n):
        witness, spent = id_order_search(g, q, bound, spent=spent)
        if witness is not None:
            return bound, spent
    raise AssertionError("a path of length n-1 can never be exceeded")


def lexicographic_search(g: OrientedGraph, q: int, bound: int,
                         budget: int = oracle.COLORING_BUDGET,
                         spent: int = 0) -> tuple[EdgeColoring | None, int]:
    """A q-coloring of g with every monochromatic path <= bound, or None,
    with edges in lexicographic order; else as `oracle._decision_search`."""
    edges = g.edges()
    m = len(edges)
    adj = [[0] * g.n for _ in range(q + 1)]
    into = [[0] * g.n for _ in range(q + 1)]
    count = [0] * (q + 1)
    nodes = spent

    def dfs(pos: int, used: int) -> bool:
        nonlocal nodes
        if pos == m:
            return True
        u, v = edges[pos]
        ubit, vbit = 1 << u, 1 << v
        for c in range(1, min(q, used + 1) + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"coloring search exceeded {budget} nodes")
            out, inn = adj[c], into[c]
            out[u] |= vbit
            inn[v] |= ubit
            count[c] += 1
            ok = count[c] <= bound or not oracle._path_through(out, inn, u, v, bound)
            if ok and dfs(pos + 1, max(used, c)):
                return True
            out[u] ^= vbit
            inn[v] ^= ubit
            count[c] -= 1
        return False

    if dfs(0, 0):
        return EdgeColoring.from_masks(adj[1:]), nodes
    return None, nodes


def lexicographic_min_max(g: OrientedGraph, q: int) -> tuple[int, int]:
    """(value, explored) of `min_max_mono_path` under the lexicographic
    order, for a host with at least one edge."""
    spent = 0
    for bound in range(1, g.n):
        witness, spent = lexicographic_search(g, q, bound, spent=spent)
        if witness is not None:
            return bound, spent
    raise AssertionError("a path of length n-1 can never be exceeded")
