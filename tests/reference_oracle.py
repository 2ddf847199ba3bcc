"""The coloring search that `oracle._decision_search` once ran, coloring
`g.edges()` in lexicographic order, kept as the reference for the
vertex-by-vertex order that replaced it: the two must agree on every
value and arrow answer, while their witnesses and node counts differ.
It runs the package's per-edge check, `oracle._path_through`, looked up
at each call, which the oracle tests hold to the subset DP."""
from dipath_ramsey import oracle
from dipath_ramsey.errors import BudgetExceededError
from dipath_ramsey.graphs import EdgeColoring, OrientedGraph


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
