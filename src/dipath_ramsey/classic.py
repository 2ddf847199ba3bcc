"""Two classic constructive results used everywhere else in the package.

gallai_roy: a digraph either admits a proper coloring with few colors or
carries a long directed path, and one of the two witnesses is produced.

raynaud: every 2-coloring of a complete symmetric digraph admits a Hamilton
cycle splitting into two monochromatic paths.  Implemented by incremental
vertex insertion with escalating repair moves; every output is re-validated
before it is returned.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ColoringError, DecompositionError, GraphShapeError
from .graphs import (
    DirectedPath,
    EdgeColoring,
    OrientedGraph,
    VertexColoring,
)
from .paths import level_decomposition, longest_path_dag

RED, BLUE = 1, 2


def maximal_acyclic_subgraph(g: OrientedGraph) -> OrientedGraph:
    """Greedy maximal acyclic spanning subgraph, edges tried in canonical
    (lexicographic) order.  Maximal: every rejected edge closes a cycle."""
    n = g.n
    kept_out = [0] * n
    kept_in = [0] * n
    for u in range(n):
        # a head v > u has no kept out-edge yet, so the set of vertices
        # reaching u cannot change while u's edges are tried
        reach = frontier = 1 << u
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= kept_in[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~reach
            reach |= frontier
        keep = kept_out[u] = g.out_mask(u) & ~reach
        bit = 1 << u
        while keep:
            low = keep & -keep
            kept_in[low.bit_length() - 1] |= bit
            keep ^= low
    return OrientedGraph.from_masks(n, kept_out, kept_in, g.allow_antiparallel)


def gallai_roy(g: OrientedGraph, threshold: int) -> VertexColoring | DirectedPath:
    """Dichotomy: a proper coloring of g with at most `threshold` colors, or
    a directed path of g with at least `threshold` edges.

    A maximal acyclic spanning subgraph H is built greedily; vertices are
    colored by their level in H.  Properness for all of g follows from
    maximality: an edge of g missing from H is backward with respect to H's
    levels, so its endpoints still sit on distinct levels.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    h = maximal_acyclic_subgraph(g)
    levels = level_decomposition(h)
    if len(levels) <= threshold:
        colors = [0] * g.n
        for depth, members in enumerate(levels):
            for v in members:
                colors[v] = depth + 1
        return VertexColoring(colors, num_classes=len(levels))
    return longest_path_dag(h)


# ---------------------------------------------------------------------------
# Hamilton-cycle decomposition of 2-colored complete symmetric digraphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HamiltonDecomposition:
    """Hamilton cycle whose arc colors form at most two runs.

    red_segment spans the color-1 run and blue_segment the color-2 run; for
    a monochromatic cycle the other segment is empty and the segment covers
    the cycle minus its closing arc.
    """

    cycle: tuple[int, ...]
    red_segment: DirectedPath
    blue_segment: DirectedPath

    @property
    def t(self) -> int:
        return len(self.cycle)

    def best_segment(self) -> tuple[DirectedPath, int]:
        """The longer segment and its color (ties go to red)."""
        if self.red_segment.length >= self.blue_segment.length:
            return self.red_segment, RED
        return self.blue_segment, BLUE

    def validate(self, coloring: EdgeColoring) -> None:
        """Re-check every invariant against the source coloring."""
        t = self.t
        if sorted(self.cycle) != list(range(t)):
            raise DecompositionError("cycle is not a permutation of the vertices")
        arcs = [(self.cycle[i], self.cycle[(i + 1) % t]) for i in range(t)] if t > 1 else []
        for seg, col in ((self.red_segment, RED), (self.blue_segment, BLUE)):
            for u, v in seg.edges():
                if coloring.color(u, v) != col:
                    raise DecompositionError(f"segment arc {u}->{v} is not color {col}")
        red_arcs = self.red_segment.edges()
        blue_arcs = self.blue_segment.edges()
        if set(red_arcs) & set(blue_arcs):
            raise DecompositionError("segments share an arc")
        covered = red_arcs + blue_arcs
        if not set(covered) <= set(arcs):
            raise DecompositionError("segment arc not on the cycle")
        missing = len(arcs) - len(covered)
        if missing not in (0, 1):
            raise DecompositionError("segments must cover the cycle up to its closing arc")
        if missing == 1 and self.red_segment.length and self.blue_segment.length:
            raise DecompositionError("an arc is uncovered but both segments are nonempty")
        best = max(self.red_segment.length, self.blue_segment.length)
        if best < t // 2:
            raise DecompositionError(f"longest segment {best} below floor {t // 2}")


def _switch_count(cols: list[int]) -> int:
    m = len(cols)
    if m < 2:
        return 0
    return sum(1 for i in range(m) if cols[i] != cols[(i + 1) % m])


def _insert_at(cyc: list[int], cols: list[int], i: int, x: int, p: int, s: int):
    """Insert x after position i (replacing arc i), no validity check."""
    return (cyc[: i + 1] + [x] + cyc[i + 1:], cols[:i] + [p, s] + cols[i + 1:])


def _try_single_insert(cyc, cols, x, colfn):
    """Scan all positions; return the first insertion leaving <= 2 switches."""
    m = len(cyc)
    base = _switch_count(cols)
    for i in range(m):
        u, w = cyc[i], cyc[(i + 1) % m]
        p, s = colfn(u, x), colfn(x, w)
        left, right = cols[i - 1], cols[(i + 1) % m]
        old_local = (left != cols[i]) + (cols[i] != right)
        new_local = (left != p) + (p != s) + (s != right)
        if base - old_local + new_local <= 2:
            return _insert_at(cyc, cols, i, x, p, s)
    return None


def _remove_at(cyc, cols, i, colfn):
    """Drop the vertex at position i, splicing its neighbors directly."""
    m = len(cyc)
    u, w = cyc[i - 1], cyc[(i + 1) % m]
    cyc2 = cyc[:i] + cyc[i + 1:]
    # arc list rotates with the vertex list: arc j leaves cyc2[j]
    cols2 = cols[:]
    if i == 0:
        cols2 = cols2[1:]
        cols2[-1] = colfn(u, w)
    else:
        cols2[i - 1] = colfn(u, w)
        del cols2[i]
    return cyc2, cols2


def _try_repair_insert(cyc, cols, x, colfn):
    """Remove one resident vertex, place x freely, re-place the resident.

    Intermediate states may be invalid; only the final cycle must have at
    most two color switches.
    """
    m = len(cyc)
    if m < 3:
        return None
    for yi in range(m):
        y = cyc[yi]
        cyc2, cols2 = _remove_at(cyc, cols, yi, colfn)
        for xi in range(m - 1):
            u, w = cyc2[xi], cyc2[(xi + 1) % (m - 1)]
            cyc3, cols3 = _insert_at(cyc2, cols2, xi, x, colfn(u, x), colfn(x, w))
            placed = _try_single_insert(cyc3, cols3, y, colfn)
            if placed:
                return placed
    return None


def _try_pair_repair(cyc, cols, x, colfn):
    """Two-vertex repair, only affordable on small cycles."""
    m = len(cyc)
    if m < 4 or m > 12:
        return None
    for yi in range(m):
        y = cyc[yi]
        cyc2, cols2 = _remove_at(cyc, cols, yi, colfn)
        for zi in range(m - 1):
            z = cyc2[zi]
            cyc3, cols3 = _remove_at(cyc2, cols2, zi, colfn)
            for xi in range(m - 2):
                u, w = cyc3[xi], cyc3[(xi + 1) % (m - 2)]
                cyc4, cols4 = _insert_at(cyc3, cols3, xi, x, colfn(u, x), colfn(x, w))
                for yj in range(m - 1):
                    u2, w2 = cyc4[yj], cyc4[(yj + 1) % (m - 1)]
                    cyc5, cols5 = _insert_at(cyc4, cols4, yj, y, colfn(u2, y), colfn(y, w2))
                    placed = _try_single_insert(cyc5, cols5, z, colfn)
                    if placed:
                        return placed
    return None


def _build_by_insertion(order: list[int], colfn):
    """Grow a <= 2-switch Hamilton cycle by inserting `order` one by one."""
    if len(order) == 1:
        return [order[0]], []
    a, b = order[0], order[1]
    cyc = [a, b]
    cols = [colfn(a, b), colfn(b, a)]
    for x in order[2:]:
        placed = _try_single_insert(cyc, cols, x, colfn)
        if placed is None:
            placed = _try_repair_insert(cyc, cols, x, colfn)
        if placed is None:
            placed = _try_pair_repair(cyc, cols, x, colfn)
        if placed is None:
            return None
        cyc, cols = placed
    return cyc, cols


def _exhaustive_cycle(t: int, colfn):
    """Try every cyclic order; feasible only for tiny t."""
    for perm in itertools.permutations(range(1, t)):
        cyc = [0, *perm]
        cols = [colfn(cyc[i], cyc[(i + 1) % t]) for i in range(t)]
        if _switch_count(cols) <= 2:
            return cyc, cols
    return None


def _decomposition_from_cycle(cyc: list[int], cols: list[int], coloring: EdgeColoring) -> HamiltonDecomposition:
    t = len(cyc)
    if t == 1:
        d = HamiltonDecomposition((cyc[0],), DirectedPath((cyc[0],)), DirectedPath(()))
        d.validate(coloring)
        return d
    switches = _switch_count(cols)
    if switches == 0:
        seg = DirectedPath(cyc)
        red = seg if cols[0] == RED else DirectedPath(())
        blue = seg if cols[0] == BLUE else DirectedPath(())
        d = HamiltonDecomposition(tuple(cyc), red, blue)
        d.validate(coloring)
        return d
    if switches != 2:
        raise DecompositionError(f"cycle has {switches} color switches")
    # rotate so the red run starts at position 0
    start = next(i for i in range(t) if cols[i] == RED and cols[i - 1] == BLUE)
    cyc = cyc[start:] + cyc[:start]
    cols = cols[start:] + cols[:start]
    a = next(i for i in range(t) if cols[i] == BLUE)  # red-run arc count
    red = DirectedPath(cyc[: a + 1])
    blue = DirectedPath(cyc[a:] + cyc[:1])
    d = HamiltonDecomposition(tuple(cyc), red, blue)
    d.validate(coloring)
    return d


def raynaud(t: int, coloring: EdgeColoring) -> HamiltonDecomposition:
    """Hamilton cycle of the 2-colored complete symmetric digraph on t
    vertices, split into one red and one blue directed path.

    In particular best_segment() has length >= floor(t/2).  Color 1 is
    treated as red, color 2 as blue.
    """
    if t < 1:
        raise GraphShapeError("need at least one vertex")
    if coloring.num_colors != 2:
        raise ColoringError(f"need exactly 2 colors, got {coloring.num_colors}")
    coloring.validate_complete(t)
    red = coloring.out_masks(RED, t)

    def colfn(u: int, v: int) -> int:
        return RED if red[u] >> v & 1 else BLUE

    orders: list[list[int]] = [list(range(t)), list(range(t - 1, -1, -1))]
    for shift in (1, t // 2):
        if 0 < shift < t:
            orders.append(list(range(shift, t)) + list(range(shift)))
    built = None
    for order in orders:
        built = _build_by_insertion(order, colfn)
        if built:
            break
    if built is None and t <= 9:
        built = _exhaustive_cycle(t, colfn)
    if built is None:
        raise DecompositionError(f"no two-run Hamilton cycle found for t={t}")
    return _decomposition_from_cycle(built[0], built[1], coloring)
