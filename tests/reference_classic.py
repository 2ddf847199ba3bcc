"""The maximal acyclic subgraph as it walked each vertex's ancestors from
scratch along the kept in-masks, kept verbatim as the reference for
`classic.maximal_acyclic_subgraph`, which instead closes each vertex's
forward ancestors under the kept backward edges, from their heads or from
their tails, whichever are fewer.  It reads only out-masks, so it also
checks graphs built without in-masks.

`is_proper_partition` is the check the tests of `gallai_roy` and
`constructive_chromatic` share on the class lists they return."""
from dipath_ramsey.graphs import OrientedGraph
from dipath_ramsey.paths import _reach


def maximal_acyclic_subgraph(g: OrientedGraph) -> OrientedGraph:
    """Greedy maximal acyclic spanning subgraph, edges tried in canonical
    (lexicographic) order.  Maximal: every rejected edge closes a cycle."""
    n = g.n
    kept_out = [0] * n
    kept_in = [0] * n
    for u in range(n):
        # a head v > u has no kept out-edge yet, so the set of vertices
        # reaching u cannot change while u's edges are tried
        keep = kept_out[u] = g.out_mask(u) & ~_reach(kept_in, 1 << u, -1)
        bit = 1 << u
        while keep:
            low = keep & -keep
            kept_in[low.bit_length() - 1] |= bit
            keep ^= low
    return OrientedGraph.from_masks(n, kept_out, kept_in, g.allow_antiparallel)


def is_proper_partition(g: OrientedGraph, classes: list[list[int]]) -> bool:
    """The lists partition g's vertices and no edge of g joins two
    vertices of one list."""
    owner = {v: i for i, cls in enumerate(classes) for v in cls}
    return (sorted(v for cls in classes for v in cls) == list(range(g.n))
            and all(owner[u] != owner[v] for u, v in g.edges()))
