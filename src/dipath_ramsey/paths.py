"""Longest-path primitives: one exact engine (linear DP on DAGs, subset DP
on small cyclic supports), cycle detection, and the level decomposition
that underpins the coloring constructions."""
from __future__ import annotations

from .errors import CyclicGraphError, SizeLimitError
from .graphs import DirectedPath, OrientedGraph

# the full subset DP on a complete 16-vertex digraph already takes ~1.5 s
EXACT_VERTEX_LIMIT = 16


def find_cycle(g: OrientedGraph) -> list[int] | None:
    """Some directed cycle as a vertex list, or None if g is acyclic."""
    WHITE, GRAY, BLACK = 0, 1, 2
    state = [WHITE] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if state[root] != WHITE:
            continue
        stack = [(root, iter(g.out_neighbors(root)))]
        state[root] = GRAY
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if state[w] == GRAY:
                    cycle = [w]
                    cur = v
                    while cur != w:
                        cycle.append(cur)
                        cur = parent[cur]
                    cycle.reverse()
                    return cycle
                if state[w] == WHITE:
                    state[w] = GRAY
                    parent[w] = v
                    stack.append((w, iter(g.out_neighbors(w))))
                    advanced = True
                    break
            if not advanced:
                state[v] = BLACK
                stack.pop()
    return None


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


def _subset_path(adj: list[int], support: list[int], bound: int | None) -> list[int]:
    """Longest simple path inside `support` by layered subset DP.

    Layer s maps each vertex set of size s that some simple path covers
    to the mask of vertices where such a path can end.  The last layer
    (or the layer of bound+2 vertices, when bound is given) yields the
    witness: lowest set mask, then lowest end vertex, then at each step
    back the lowest predecessor with an edge into the current vertex.
    """
    k = len(support)
    index = {v: i for i, v in enumerate(support)}
    sadj = []
    for v in support:
        m, s = adj[v], 0
        while m:
            low = m & -m
            s |= 1 << index[low.bit_length() - 1]
            m ^= low
        sadj.append(s)
    size = k if bound is None else min(k, bound + 2)
    layers = [{1 << i: 1 << i for i in range(k)}]
    while len(layers) < size:
        nxt = {}
        get = nxt.get
        for mask, ends in layers[-1].items():
            while ends:
                low = ends & -ends
                ends ^= low
                new = sadj[low.bit_length() - 1] & ~mask
                while new:
                    bit = new & -new
                    new ^= bit
                    m2 = mask | bit
                    nxt[m2] = get(m2, 0) | bit
        if not nxt:
            break
        layers.append(nxt)
    mask = min(layers[-1])
    ends = layers[-1][mask]
    v = (ends & -ends).bit_length() - 1
    path = [v]
    for layer in reversed(layers[:-1]):
        mask ^= 1 << v
        ends = layer[mask]
        while True:
            low = ends & -ends
            u = low.bit_length() - 1
            if sadj[u] >> v & 1:
                break
            ends ^= low
        path.append(u)
        v = u
    path.reverse()
    return [support[i] for i in path]


def longest_path_masks(adj: list[int], bound: int | None = None,
                       limit: int = EXACT_VERTEX_LIMIT) -> tuple[list[int], int]:
    """Longest simple path of the digraph with out-masks `adj`, exactly.

    Returns (vertices, explored).  An acyclic input is solved by the DAG
    DP at any size, with explored = n.  A cyclic input is restricted to its
    support (vertices with an edge) and solved by subset DP, with explored
    = 2^support; a support above `limit` raises SizeLimitError.  With
    `bound`, the subset DP stops at the first path of bound+1 edges, so the
    result is the longest path when that has at most `bound` edges and a
    path of exactly bound+1 edges otherwise.
    """
    n = len(adj)
    indeg = [0] * n
    into = 0
    for m in adj:
        into |= m
        while m:
            low = m & -m
            indeg[low.bit_length() - 1] += 1
            m ^= low
    order, dist, pred = _kahn(adj, indeg)
    if len(order) == n:
        return _dag_path(dist, pred), n
    support = [v for v in range(n) if adj[v] or into >> v & 1]
    if len(support) > limit:
        raise SizeLimitError(f"cyclic support {len(support)} > limit {limit}")
    return _subset_path(adj, support, bound), 1 << len(support)


def _dag_dp(g: OrientedGraph) -> tuple[list[int], list[int], list[int]]:
    order, dist, pred = _kahn([g.out_mask(v) for v in range(g.n)],
                              [g.in_degree(v) for v in range(g.n)])
    if len(order) != g.n:
        raise CyclicGraphError("graph contains a directed cycle", find_cycle(g))
    return order, dist, pred


def topological_order(g: OrientedGraph) -> list[int]:
    """Kahn's algorithm; raises CyclicGraphError with a witness cycle."""
    return _dag_dp(g)[0]


def is_acyclic(g: OrientedGraph) -> bool:
    try:
        topological_order(g)
        return True
    except CyclicGraphError:
        return False


def level_decomposition(g: OrientedGraph) -> list[list[int]]:
    """Partition an acyclic graph's vertices by longest-path-ending length.

    Level j holds the vertices whose longest incoming path has exactly j
    edges; every edge goes from a strictly lower level to a higher one.
    """
    level = _dag_dp(g)[1]
    out = [[] for _ in range(max(level, default=0) + 1)]
    for v in range(g.n):
        out[level[v]].append(v)
    return out


def longest_path_dag(g: OrientedGraph) -> DirectedPath:
    """Longest directed path of an acyclic graph, linear-time DP; raises
    CyclicGraphError with a witness cycle."""
    _, dist, pred = _dag_dp(g)
    return DirectedPath(_dag_path(dist, pred))


def longest_path_exact(g: OrientedGraph, limit: int = EXACT_VERTEX_LIMIT) -> DirectedPath:
    """Longest simple path of g; see `longest_path_masks`.

    Acyclic graphs of any size take the linear DAG route; only a cyclic
    support (vertices with an edge) above `limit` raises SizeLimitError.
    """
    vertices, _ = longest_path_masks([g.out_mask(v) for v in range(g.n)], limit=limit)
    return DirectedPath(vertices)

