"""Longest-path primitives: one exact engine (vertex heights on DAGs, a
path search on cyclic supports bounded by what the path can still reach,
shared with the oracle's coloring search), cycle detection, and the
level decomposition that underpins the coloring constructions.  One
routine, `_heights`, computes every height, level, longest DAG path and
acyclicity answer; one, `_ahead`, searches every cyclic class."""
from __future__ import annotations

from .errors import BudgetExceededError, CyclicGraphError
from .graphs import DirectedPath, OrientedGraph, _in_masks_of, iter_bits, mask_of

# the (end, vertex set) states one cyclic search may charge, at any class
# size, before it raises BudgetExceededError; the tests hold the 16-vertex
# classes below a fiftieth of it
_STATE_BUDGET = 1 << 20
_TOO_DEEP = "path search deeper than the interpreter's recursion limit"


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


def _ahead(adj: list[int], into: list[int], memo: dict, w: int, seen: int,
           cap: int, floor: int) -> int:
    """Edges of the longest path out of w along `adj` that avoids `seen`,
    exactly when that value lies strictly between `floor` and `cap`;
    otherwise at least `cap` when the path is that long, and an upper
    bound at most `floor` when it is that short.  A caller asking "at
    least r?" passes cap r and floor r - 1; floor -1 asks for the value.
    `into` holds the in-masks of `adj`.

    `seen` holds w.  A path out of w stays inside R, the vertices that w
    reaches outside `seen`, one vertex of R per edge, so it has at most
    |R| edges less the vertices of R it must miss, counted on two sides.
    Out side: a dead end of R (no out-neighbor outside `seen`) can only
    be last on the path, and of the vertices whose one out-neighbor
    outside `seen` is the same z only one can go on to z; all of those
    but one per z, dead ends included, are last or missed, and only one
    vertex is last.  In side: of the vertices of R whose one in-neighbor
    in R + w is the same y, only one is on the path.  The in side costs a
    second pass over R, so it runs only when the out side leaves the
    state one edge above `floor`, where it ends the most states.  A state
    whose bound is at most `floor` returns at once, and one whose bound
    is below `cap` stops at the first path that long.

    `memo` maps `seen | w << len(adj)` of a state that may have 3+ edges
    to its exact value d, or to ~u for an upper bound u, so one dict
    serves calls with any cap and floor.  The memo is a plain argument,
    not a closure's cell: it is freed when the caller drops it, not at
    the next full collection.  A new state's bound goes into the memo
    before it descends (its descendants cover more vertices, so none
    reads it), so `len(memo)` counts the states charged, on the current
    descent too; past _STATE_BUDGET the search raises BudgetExceededError.
    """
    free = ~seen
    m = adj[w] & free
    if not m or cap <= 1:
        return cap if m else 0
    key = None
    if cap > 2:
        key = seen | w << len(adj)
        top = memo.get(key)
        if top is None:
            if len(memo) >= _STATE_BUDGET:
                raise BudgetExceededError(f"path search exceeded {_STATE_BUDGET} states")
            reach = dead = sole = 0
            frontier = m
            while frontier:
                reach |= frontier
                nxt = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    out = adj[low.bit_length() - 1] & free
                    if not out:
                        dead += 1
                    else:
                        nxt |= out
                        if not out & (out - 1):  # its one way on: one vertex per z
                            if out & sole:
                                dead += 1
                            else:
                                sole |= out
                frontier = nxt & ~reach
            size = reach.bit_count()
            top = size - max(0, dead - 1)
            if top == floor + 1:
                within = reach | 1 << w
                rest, sole, clash = reach, 0, 0
                while rest:
                    low = rest & -rest
                    rest ^= low
                    inn = into[low.bit_length() - 1] & within
                    if not inn & (inn - 1):  # its one way in: one vertex per y
                        if inn & sole:
                            clash += 1
                        else:
                            sole |= inn
                top = min(top, size - clash)
            memo[key] = ~top
        elif top >= 0:
            return top
        else:
            top = ~top
        if top <= floor:
            return top
        if top < cap:
            cap = top
    best = 0
    while m:
        low = m & -m
        m ^= low
        # a child only counts once it beats both the floor and the best so far
        d = 1 + _ahead(adj, into, memo, low.bit_length() - 1, seen | low, cap - 1,
                       (best if best > floor else floor) - 1)
        if d >= cap:
            if key is not None:
                memo[key] = cap if cap == top else ~top
            return cap
        if d > best:
            best = d
    if key is not None:
        # above the floor the best child is exact, and so is the value
        memo[key] = best if best > floor else ~best
    return best


def _heights(adj: list[int], budget: int | None = None) -> tuple[list[int], int]:
    """The edges of the longest path out of each vertex of the digraph
    with out-masks `adj`, and the mask of the vertices that reach a cycle,
    which get no height; the package's one DAG routine.

    Sinks have height 0; each round then peels every vertex whose out-mask
    misses the vertices still left, and the round number is its height.  A
    round that peels nothing leaves only vertices that reach a cycle.  A
    long thin graph would cost a scan of what is left per edge of its
    depth, so once the rounds have scanned more than `budget` vertices
    (by default twice the edge count), Kahn's counting pass finishes:
    after h rounds each vertex left has height at least h + 1 and no
    peeled out-neighbor above h, so heights start at h + 1 and rise along
    the in-lists of what is left as each vertex's last out-neighbor there
    finishes.  A vertex that never finishes reaches a cycle.  Either way
    each unassigned vertex has an out-neighbor that is unassigned too.
    """
    n = len(adj)
    if budget is None:
        budget = 2 * sum(map(int.bit_count, adj))
    height = [0] * n
    live = [v for v, m in enumerate(adj) if m]
    left = mask_of(live)
    h = 0
    while live:
        budget -= len(live)
        if budget < 0:
            break
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
            return height, left
        left ^= level
        live = keep
    if not live:
        return height, 0
    count = [0] * n
    into = [[] for _ in range(n)]
    ready = []
    h += 1
    for v in live:
        height[v] = h
        m = adj[v] & left
        c = count[v] = m.bit_count()
        if c == 1:  # most vertices of a deep sparse graph
            into[m.bit_length() - 1].append(v)
        elif c:
            while m:
                w = m.bit_length() - 1
                into[w].append(v)
                m ^= 1 << w
        else:
            ready.append(v)
    while ready:
        w = ready.pop()
        d = height[w] + 1
        for v in into[w]:
            if d > height[v]:
                height[v] = d
            count[v] -= 1
            if not count[v]:
                ready.append(v)
    return height, mask_of(v for v in live if count[v]) if any(count) else 0


def _walk(adj: list[int], height: list[int]) -> list[int]:
    """The lexicographically first longest path of a DAG from its heights:
    the lowest vertex of greatest height, then at each step the lowest
    out-neighbor one height down."""
    if not height:
        return []
    h = max(height)
    v = height.index(h)
    path = [v]
    while h:
        h -= 1
        m = adj[v]
        v = (m & -m).bit_length() - 1
        while height[v] != h:
            m ^= 1 << v
            v = (m & -m).bit_length() - 1
        path.append(v)
    return path


def longest_path_masks(adj: list[int]) -> tuple[list[int], int]:
    """Longest simple path of the digraph with out-masks `adj`, exactly.

    Returns (vertices, explored).  The witness is the lexicographically
    first longest path: it starts at the lowest vertex with a longest path
    and takes, at each step, the lowest next vertex that keeps one that
    long.

    An acyclic input is solved at any size, with explored = n: `_heights`
    gives each vertex's height, its peel capped at twice as many scans as
    there are edges, and `_walk` reads the path off them.  The
    adversary's classes scan up to 1.15 times their edge count, so they
    finish the peel; a long path hands over to Kahn's pass.

    A cyclic input is searched from each vertex of its support (vertices
    with an edge) by `_ahead`, with the in-masks, built once, and one memo
    of bounds on (end, vertex set) states.  Every question asks for a
    length, not a value, so states whose bound falls short end at once.
    The target L starts one below the support size, and each round asks
    every start, in id order, for a path of L edges: the first that has
    one starts the witness, and if none does, each has returned an upper
    bound below L, the largest of which is the next L.  Each step of the
    witness asks whether the next vertex keeps the length still needed.
    Size alone refuses nothing: explored is the states charged, and the
    search raises BudgetExceededError past _STATE_BUDGET of them, or when
    a path is too long for the interpreter's recursion limit (about a
    thousand edges).
    """
    n = len(adj)
    if not n:
        return [], 0
    height, cyclic = _heights(adj)
    if not cyclic:
        return _walk(adj, height), n
    into = _in_masks_of(adj, sum(map(int.bit_count, adj)))  # for the bounds' in side
    support = [v for v in range(n) if adj[v] or into[v]]
    need = len(support) - 1
    memo: dict = {}
    try:
        v = -1
        while v < 0:
            top = 0
            for w in support:
                d = _ahead(adj, into, memo, w, 1 << w, need, need - 1)
                if d >= need:
                    v = w
                    break
                if d > top:
                    top = d
            else:
                # each start returned an upper bound below `need`
                need = top
        path = [v]
        seen = 1 << v
        for rest in range(need - 1, -1, -1):
            # the lowest next vertex with `rest` edges still ahead of it
            m = adj[v] & ~seen
            low = m & -m
            while _ahead(adj, into, memo, low.bit_length() - 1, seen | low, rest,
                         rest - 1) < rest:
                m ^= low
                low = m & -m
            v = low.bit_length() - 1
            path.append(v)
            seen |= low
    except RecursionError:
        raise BudgetExceededError(_TOO_DEEP) from None
    return path, len(memo)


def _cycle(adj: list[int], left: int) -> list[int]:
    """A directed cycle inside `left`, a vertex mask in which every vertex
    has an out-neighbor: walk forward from its lowest vertex until one
    repeats."""
    walk, seen = [], 0
    v = (left & -left).bit_length() - 1
    while not seen >> v & 1:
        seen |= 1 << v
        walk.append(v)
        m = adj[v] & left
        v = (m & -m).bit_length() - 1
    return walk[walk.index(v):]


def find_cycle(g: OrientedGraph) -> list[int] | None:
    """Some directed cycle as a vertex list, or None if g is acyclic."""
    out = g.out_masks()
    left = _heights(out)[1]
    return _cycle(out, left) if left else None


def level_decomposition(g: OrientedGraph) -> list[list[int]]:
    """Partition an acyclic graph's vertices by longest-path-ending length.

    Level j holds the vertices whose longest incoming path has exactly j
    edges, their height in the reverse graph; every edge goes from a
    strictly lower level to a higher one.  Raises CyclicGraphError with a
    witness cycle.
    """
    inn = [g.in_mask(v) for v in range(g.n)]
    depth, left = _heights(inn)
    if left:
        raise CyclicGraphError("graph contains a directed cycle", _cycle(inn, left)[::-1])
    return _bucket(depth, range(g.n))


def _levels(inn: list[int], within: int) -> list[list[int]]:
    """`level_decomposition` of the acyclic graph that the in-masks `inn`
    induce on the vertex mask `within`, in their ids."""
    adj = [0] * len(inn)
    for v in iter_bits(within):
        adj[v] = inn[v] & within
    return _bucket(_heights(adj)[0], iter_bits(within))


def _bucket(depth: list[int], vertices) -> list[list[int]]:
    """`vertices` grouped by their value in `depth`, one list per value
    0..max(depth)."""
    out = [[] for _ in range(max(depth, default=0) + 1)]
    for v in vertices:
        out[depth[v]].append(v)
    return out


def longest_path_dag(g: OrientedGraph) -> DirectedPath:
    """Longest directed path of an acyclic graph in linear time, the
    lexicographically first one (see `longest_path_masks`); raises
    CyclicGraphError with a witness cycle."""
    out = g.out_masks()
    height, left = _heights(out)
    if left:
        raise CyclicGraphError("graph contains a directed cycle", _cycle(out, left))
    return DirectedPath(_walk(out, height))


def longest_path_exact(g: OrientedGraph) -> DirectedPath:
    """Longest simple path of g; see `longest_path_masks`.

    Acyclic graphs of any size take the DAG route; a cyclic one raises
    BudgetExceededError only when its search runs out of states or of
    recursion depth.
    """
    vertices, _ = longest_path_masks(g.out_masks())
    return DirectedPath(vertices)
