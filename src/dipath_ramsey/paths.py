"""Longest-path primitives: one exact engine (sink peeling on DAGs, a
memoized path search on small cyclic supports, shared with the oracle's
coloring search), cycle detection, and the level decomposition that
underpins the coloring constructions."""
from __future__ import annotations

from functools import reduce
from operator import or_

from .errors import CyclicGraphError, SizeLimitError
from .graphs import DirectedPath, OrientedGraph, iter_bits, mask_of

# bounds a cyclic search by 16 * 2^15 (end, vertex set) states and 15 frames
# of recursion; K16's longest path is found on the first descent, but a class
# whose longest path is far shorter than its support visits many states
EXACT_VERTEX_LIMIT = 16


def _kahn(adj: list[int], indeg: list[int]) -> tuple[list[int], list[int], list[int]]:
    """Kahn's algorithm on out-masks with the longest-path DP folded in.

    `indeg` holds the in-degrees and is used up.  Returns (order, dist,
    pred).  Ready vertices leave a stack from the top and successors are
    scanned in ascending order.  dist[v] is the length of the longest path
    ending at v and pred[v] the predecessor on the first such path found
    (-1 at a source).  `order` misses some vertex exactly when the graph
    has a cycle.
    """
    n = len(adj)
    ready = [v for v in range(n) if not indeg[v]]
    order = []
    dist = [0] * n
    pred = [-1] * n
    while ready:
        v = ready.pop()
        order.append(v)
        d = dist[v] + 1
        m = adj[v]
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            if d > dist[w]:
                dist[w] = d
                pred[w] = v
            indeg[w] -= 1
            if not indeg[w]:
                ready.append(w)
    return order, dist, pred


def _graph_kahn(g: OrientedGraph) -> tuple[list[int], list[int], list[int]]:
    return _kahn(g.out_masks(), [g.in_degree(v) for v in range(g.n)])


def _reach(adj: list[int], start: int, within: int) -> int:
    """The vertices reached from the set `start` along the masks `adj`
    through `within`, `start` included."""
    reach = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~reach
        reach |= frontier
    return reach


def _dag_path(dist: list[int], pred: list[int]) -> list[int]:
    """The longest path ending at the lowest vertex of greatest depth."""
    if not dist:
        return []
    v = dist.index(max(dist))
    path = [v]
    while pred[v] != -1:
        v = pred[v]
        path.append(v)
    path.reverse()
    return path


def _ahead(adj: list[int], memo: dict, w: int, seen: int, cap: int) -> int:
    """Edges of the longest path out of w along `adj` that avoids `seen`,
    or `cap` once one that long is found.

    `seen` holds w.  `memo` maps `seen | w << len(adj)` to the exact value
    of a finished state of 3+ edges, so one dict serves calls with any
    cap.  The memo is a plain argument, not a closure's cell: it is freed
    when the caller drops it, not at the next full collection.
    """
    m = adj[w] & ~seen
    if not m or cap <= 1:
        return cap if m else 0
    if cap > 2:
        key = seen | w << len(adj)
        best = memo.get(key)
        if best is not None:
            return best
    best = 0
    while m:
        low = m & -m
        m ^= low
        d = 1 + _ahead(adj, memo, low.bit_length() - 1, seen | low, cap - 1)
        if d >= cap:
            return cap
        if d > best:
            best = d
    if cap > 2:
        memo[key] = best
    return best


def _heights(adj: list[int], budget: int) -> list[int] | None:
    """The edges of the longest path out of each vertex of the digraph
    with out-masks `adj`, or None when it has a cycle.

    Sinks have height 0; each round then peels every vertex whose out-mask
    misses the vertices still left, and the round number is its height.  A
    round that peels nothing shows a cycle.  A long thin graph would cost
    a scan of what is left per edge of its depth, so once the rounds have
    scanned more than `budget` vertices, `_dfs_heights` takes over.
    """
    height = [0] * len(adj)
    live = [v for v, m in enumerate(adj) if m]
    left = mask_of(live)
    h = 0
    while live:
        budget -= len(live)
        if budget < 0:
            return _dfs_heights(adj)
        h += 1
        keep = []
        level = 0
        for v in live:
            if adj[v] & left:
                keep.append(v)
            else:
                level |= 1 << v
                height[v] = h
        if not level:
            return None
        left ^= level
        live = keep
    return height


def _dfs_heights(adj: list[int]) -> list[int] | None:
    """`_heights` at O(n + edges) steps, in one depth-first pass: a vertex
    gets its height when the last of its out-neighbors is done, and an
    out-neighbor still on the stack closes a cycle."""
    height = [-1] * len(adj)  # -1 unseen, -2 on the stack
    for root in range(len(adj)):
        if height[root] != -1:
            continue
        height[root] = -2
        stack, rest, best = [root], [adj[root]], [0]
        while stack:
            m = rest[-1]
            if m:
                low = m & -m
                rest[-1] = m ^ low
                w = low.bit_length() - 1
                h = height[w]
                if h == -1:
                    height[w] = -2
                    stack.append(w)
                    rest.append(adj[w])
                    best.append(0)
                elif h == -2:
                    return None
                elif h >= best[-1]:
                    best[-1] = h + 1
            else:
                h = best.pop()
                height[stack.pop()] = h
                rest.pop()
                if best and h >= best[-1]:
                    best[-1] = h + 1
    return height


def longest_path_masks(adj: list[int], bound: int | None = None,
                       limit: int = EXACT_VERTEX_LIMIT) -> tuple[list[int], int]:
    """Longest simple path of the digraph with out-masks `adj`, exactly.

    Returns (vertices, explored).  The witness is the lexicographically
    first longest path: it starts at the lowest vertex with a longest path
    and takes, at each step, the lowest next vertex that keeps one that
    long.

    An acyclic input is solved at any size from its vertices' heights,
    with explored = n and `bound` ignored: the path starts at the lowest
    vertex of greatest height and steps to the lowest out-neighbor one
    height down.  The heights come from peeling sinks while that has
    scanned at most twice as many vertices as there are edges, and from
    one depth-first pass past that (`_heights`).  A scan of the peel costs
    about a quarter of the pass's step per edge, and the adversary's
    classes scan up to 1.15 times their edge count, so the cap lets them
    finish the peel while a long path still costs about what Kahn's DP
    does.

    A cyclic input is searched from each vertex of its support (vertices
    with an edge) by `_ahead`, with one memo of (end, vertex set) states;
    a support above `limit` raises SizeLimitError, and explored =
    2^support is charged as the bound on the vertex sets.  With `bound`,
    the search stops at the first path of bound+1 edges, so the result is
    the longest path when that has at most `bound` edges and a path of
    exactly bound+1 edges otherwise.
    """
    n = len(adj)
    if not n:
        return [], 0
    height = _heights(adj, 2 * sum(map(int.bit_count, adj)))
    if height is not None:
        h = max(height)
        v = height.index(h)
        path = [v]
        while h:
            h -= 1
            m = adj[v]
            low = m & -m
            while height[low.bit_length() - 1] != h:
                m ^= low
                low = m & -m
            v = low.bit_length() - 1
            path.append(v)
        return path, n
    into = reduce(or_, adj)
    support = [v for v in range(n) if adj[v] or into >> v & 1]
    k = len(support)
    if k > limit:
        raise SizeLimitError(f"cyclic support {k} > limit {limit}")
    cap = k - 1 if bound is None else min(bound + 1, k - 1)
    memo: dict = {}
    need = -1
    for w in support:
        d = _ahead(adj, memo, w, 1 << w, cap)
        if d > need:
            need, v = d, w
            if d == cap:
                break
    path = [v]
    seen = 1 << v
    for rest in range(need - 1, -1, -1):
        # the lowest next vertex with `rest` edges still ahead of it
        m = adj[v] & ~seen
        low = m & -m
        while _ahead(adj, memo, low.bit_length() - 1, seen | low, rest) < rest:
            m ^= low
            low = m & -m
        v = low.bit_length() - 1
        path.append(v)
        seen |= low
    return path, 1 << k


def _dag_dp(g: OrientedGraph) -> tuple[list[int], list[int], list[int]]:
    order, dist, pred = _graph_kahn(g)
    if len(order) != g.n:
        raise CyclicGraphError("graph contains a directed cycle", find_cycle(g))
    return order, dist, pred


def find_cycle(g: OrientedGraph) -> list[int] | None:
    """Some directed cycle as a vertex list, or None if g is acyclic.

    Kahn's algorithm leaves exactly the vertices with an in-neighbor it
    also leaves, so a walk back along in-masks inside them must repeat a
    vertex; the walk from the repeat to itself, reversed, is the cycle.
    """
    left = g.full_mask() ^ mask_of(_graph_kahn(g)[0])
    if not left:
        return None
    walk, seen = [], 0
    v = (left & -left).bit_length() - 1
    while not seen >> v & 1:
        seen |= 1 << v
        walk.append(v)
        m = g.in_mask(v) & left
        v = (m & -m).bit_length() - 1
    return walk[walk.index(v):][::-1]


def topological_order(g: OrientedGraph) -> list[int]:
    """Kahn's algorithm; raises CyclicGraphError with a witness cycle."""
    return _dag_dp(g)[0]


def is_acyclic(g: OrientedGraph) -> bool:
    return len(_graph_kahn(g)[0]) == g.n


def level_decomposition(g: OrientedGraph) -> list[list[int]]:
    """Partition an acyclic graph's vertices by longest-path-ending length.

    Level j holds the vertices whose longest incoming path has exactly j
    edges; every edge goes from a strictly lower level to a higher one.
    """
    return _bucket(_dag_dp(g)[1], range(g.n))


def _levels(out: list[int], inn: list[int], within: int) -> list[list[int]]:
    """`level_decomposition` of the acyclic graph that the masks `out` and
    `inn` induce on the vertex mask `within`, in their ids."""
    adj = [0] * len(out)
    indeg = [1] * len(out)  # a vertex outside `within` is never ready
    for v in iter_bits(within):
        adj[v] = out[v] & within
        indeg[v] = (inn[v] & within).bit_count()
    return _bucket(_kahn(adj, indeg)[1], iter_bits(within))


def _bucket(dist: list[int], vertices) -> list[list[int]]:
    """`vertices` grouped by their value in `dist`, one list per value
    0..max(dist)."""
    out = [[] for _ in range(max(dist, default=0) + 1)]
    for v in vertices:
        out[dist[v]].append(v)
    return out


def longest_path_dag(g: OrientedGraph) -> DirectedPath:
    """Longest directed path of an acyclic graph, linear-time DP; raises
    CyclicGraphError with a witness cycle."""
    _, dist, pred = _dag_dp(g)
    return DirectedPath(_dag_path(dist, pred))


def longest_path_exact(g: OrientedGraph, limit: int = EXACT_VERTEX_LIMIT) -> DirectedPath:
    """Longest simple path of g; see `longest_path_masks`.

    Acyclic graphs of any size take the peel of sinks; only a cyclic
    support (vertices with an edge) above `limit` raises SizeLimitError.
    """
    vertices, _ = longest_path_masks([g.out_mask(v) for v in range(g.n)], limit=limit)
    return DirectedPath(vertices)

