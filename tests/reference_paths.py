"""Reference routes that the exact engine once ran, kept verbatim.

The layered subset DP is the reference for `paths.longest_path_masks` and
for the oracle's check through a new edge; it shares no search code with
either.  On acyclic input it runs Kahn's DP, which the package ran on
every DAG before `paths._heights` served them all: same lengths and
levels, its own witness, and a cost the tests hold the heights' Kahn
handover to on deep graphs.  `memo_search_longest_path` is the engine's
route before its cyclic search took a floor and a reach bound: the same
start loop and witness walk over `_ahead`, which memoizes the exact
value of each (end, vertex set) state, so it must give the same witness
on every input.  `reach_bound_longest_path` is the engine's route before
its bound took the in side and the shared sole out-neighbors: the same
witness again, in at least as many states.  `ascending_longest_path` is
the engine's start loop before its target descended from the support
size: the first start asked for its exact value, each later one only
whether it beats the longest path so far, over the package's `_ahead`;
the same witness again, in the states that loop charges.

The subset DP and the memo search keep the vertex limit the package
once had, here only: a cyclic support above `limit` (by default
VERTEX_LIMIT) raises this module's SizeLimitError, so that a test can
raise the limit to the host or count the questions the limit refused."""
from functools import reduce
from operator import or_

from dipath_ramsey import paths
from dipath_ramsey.paths import _heights, _walk

VERTEX_LIMIT = 16


class SizeLimitError(Exception):
    """A reference route's cyclic support exceeds its vertex limit."""


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


def reference_longest_path(adj: list[int], bound: int | None = None,
                           limit: int = VERTEX_LIMIT) -> tuple[list[int], int]:
    """`longest_path_masks` with Kahn's DP on acyclic input and the subset
    DP on cyclic input: same lengths, bound semantics, limit and explored,
    its own witnesses."""
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


def memo_search_longest_path(adj: list[int], limit: int = VERTEX_LIMIT
                             ) -> tuple[list[int], int]:
    """`longest_path_masks` with the exact-value memo search on cyclic
    input: the package's heights and walk on acyclic input."""
    n = len(adj)
    if not n:
        return [], 0
    height, cyclic = _heights(adj)
    if not cyclic:
        return _walk(adj, height), n
    into = reduce(or_, adj)
    support = [v for v in range(n) if adj[v] or into >> v & 1]
    k = len(support)
    if k > limit:
        raise SizeLimitError(f"cyclic support {k} > limit {limit}")
    cap = k - 1
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


def _reach_ahead(adj: list[int], memo: dict, w: int, seen: int, cap: int,
                 floor: int) -> int:
    """`paths._ahead` as it was before its bound took the in side and the
    shared sole out-neighbors: a state is bounded by its reach less all
    its dead ends but one, and charged when it returns."""
    free = ~seen
    m = adj[w] & free
    if not m or cap <= 1:
        return cap if m else 0
    key = None
    if cap > 2:
        key = seen | w << len(adj)
        top = memo.get(key)
        if top is None:
            reach = dead = 0
            frontier = m
            while frontier:
                reach |= frontier
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    out = adj[low.bit_length() - 1] & free
                    if out:
                        nxt |= out
                    else:
                        dead += 1
                frontier = nxt & ~reach
            top = reach.bit_count() - max(0, dead - 1)
        elif top >= 0:
            return top
        else:
            top = ~top
        if top <= floor:
            memo[key] = ~top
            return top
        if top < cap:
            cap = top
    best = 0
    while m:
        low = m & -m
        m ^= low
        d = 1 + _reach_ahead(adj, memo, low.bit_length() - 1, seen | low, cap - 1,
                             (best if best > floor else floor) - 1)
        if d >= cap:
            if key is not None:
                memo[key] = cap if cap == top else ~top
            return cap
        if d > best:
            best = d
    if key is not None:
        memo[key] = best if best > floor else ~best
    return best


def reach_bound_longest_path(adj: list[int]) -> tuple[list[int], int]:
    """`longest_path_masks` with the one-sided reach bound on cyclic input
    (`_reach_ahead`), as (vertices, states charged): the same start loop,
    floors and witness walk, so it must give the same witness, in at
    least as many states, with no limit or budget."""
    n = len(adj)
    if not n:
        return [], 0
    height, cyclic = _heights(adj)
    if not cyclic:
        return _walk(adj, height), n
    into = reduce(or_, adj)
    support = [v for v in range(n) if adj[v] or into >> v & 1]
    cap = len(support) - 1
    memo: dict = {}
    need = -1
    for w in support:
        d = _reach_ahead(adj, memo, w, 1 << w, cap, need)
        if d > need:
            need, v = d, w
            if d == cap:
                break
    path = [v]
    seen = 1 << v
    for rest in range(need - 1, -1, -1):
        m = adj[v] & ~seen
        low = m & -m
        while _reach_ahead(adj, memo, low.bit_length() - 1, seen | low, rest, rest - 1) < rest:
            m ^= low
            low = m & -m
        v = low.bit_length() - 1
        path.append(v)
        seen |= low
    return path, len(memo)


def ascending_longest_path(adj: list[int]) -> tuple[list[int], int]:
    """`longest_path_masks` with the start loop it ran before its target
    descended, as (vertices, states charged): the first start's exact
    value, then each start asked whether it beats the longest path so
    far, over the package's `_ahead` with the in-masks; the same witness
    walk, so it must give the same witness."""
    n = len(adj)
    if not n:
        return [], 0
    height, cyclic = _heights(adj)
    if not cyclic:
        return _walk(adj, height), n
    into = [0] * n
    for u, m in enumerate(adj):
        while m:
            low = m & -m
            into[low.bit_length() - 1] |= 1 << u
            m ^= low
    support = [v for v in range(n) if adj[v] or into[v]]
    cap = len(support) - 1
    memo: dict = {}
    need = -1
    for w in support:
        d = paths._ahead(adj, into, memo, w, 1 << w, cap, need)
        if d > need:
            need, v = d, w
            if d == cap:
                break
    path = [v]
    seen = 1 << v
    for rest in range(need - 1, -1, -1):
        m = adj[v] & ~seen
        low = m & -m
        while paths._ahead(adj, into, memo, low.bit_length() - 1, seen | low, rest,
                           rest - 1) < rest:
            m ^= low
            low = m & -m
        v = low.bit_length() - 1
        path.append(v)
        seen |= low
    return path, len(memo)
