"""Two classic constructive results used everywhere else in the package.

gallai_roy: a digraph either admits a proper coloring with few colors or
carries a long directed path, and one of the two witnesses is produced.

raynaud: every 2-coloring of a complete symmetric digraph admits a Hamilton
cycle splitting into two monochromatic paths (H. Raynaud, Period. Math.
Hungar. 3, 1973).  Implemented by inserting one vertex at a time, with a
one-vertex repair when plain insertion is stuck; the output is validated
before it is returned.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ColoringError, DecompositionError, GraphShapeError
from .graphs import DirectedPath, EdgeColoring, OrientedGraph
from .paths import _heights, _walk, level_decomposition

RED, BLUE = 1, 2


def maximal_acyclic_subgraph(g: OrientedGraph) -> OrientedGraph:
    """Greedy maximal acyclic spanning subgraph, edges tried in canonical
    (lexicographic) order.  Maximal: every rejected edge closes a cycle.

    When u's edges are tried, no vertex above u has a kept out-edge yet, so
    only vertices below u reach u, and every forward edge (u < v) is kept.
    So u's forward ancestors never change: anc[u], u together with them,
    is the OR of anc[x] over u's forward in-neighbours x, taken highest
    first, each one already covered dropped.  What reaches u is anc[u]
    closed under the kept backward edges, and a backward edge u -> v is
    kept exactly when v lies outside that set.

    The closure stays a union of anc sets, so it grows only along kept
    backward edges, and it runs from whichever end of them is fewer.  From
    the heads it holds, each round ORs in anc of every tail of a kept
    backward edge into a head it gained the round before.  From the tails
    outside it, anc of each tail with a kept out-edge into it is ORed in
    until none has one; such a tail has no forward out-neighbour inside
    (it would lie in the same anc set), so the test sees its backward
    edges alone.  Both reach the same fixpoint.
    """
    n = g.n
    anc = [0] * n
    # the kept backward edges, by head
    back_in = [0] * n
    heads = tails = 0
    kept_out = [0] * n
    for u in range(n):
        bit = 1 << u
        below = bit - 1
        seen = bit
        fwd = g.in_mask(u) & below
        while fwd:
            seen |= anc[fwd.bit_length() - 1]
            fwd &= ~seen
        anc[u] = seen
        new = seen & heads
        rest = tails & ~seen
        if rest.bit_count() < new.bit_count():
            new = 0
        else:
            rest = 0
        while rest:
            last = seen
            while rest:
                t = rest.bit_length() - 1
                if kept_out[t] & seen:
                    seen |= anc[t]
                    rest &= ~seen
                else:
                    rest ^= 1 << t
            rest = tails & ~seen if seen != last else 0
        while new:
            found = 0
            while new:
                low = new & -new
                found |= back_in[low.bit_length() - 1]
                new ^= low
            found &= ~seen
            grown = seen
            while found:
                grown |= anc[found.bit_length() - 1]
                found &= ~grown
            new = (grown ^ seen) & heads
            seen = grown
        keep = kept_out[u] = g.out_mask(u) & ~seen
        back = keep & below
        if back:
            heads |= back
            tails |= bit
            while back:
                low = back & -back
                back_in[low.bit_length() - 1] |= bit
                back ^= low
    kept_in = [g.in_mask(v) & ((1 << v) - 1) | back_in[v] for v in range(n)]
    return OrientedGraph.from_masks(n, kept_out, kept_in, g.allow_antiparallel)


def gallai_roy(g: OrientedGraph, threshold: int) -> list[list[int]] | DirectedPath:
    """Dichotomy: a proper coloring of g with at most `threshold` colors, as
    its ascending class lists, or a directed path of g with at least
    `threshold` edges.

    A maximal acyclic spanning subgraph H is built greedily; the classes
    are H's levels (`level_decomposition`), which partition the vertices.
    Properness for all of g follows from maximality: an edge of g missing
    from H is backward with respect to H's levels, so its endpoints still
    sit on distinct levels.  g's own heights come first: when no vertex
    reaches a cycle, g is acyclic, none of its edges closes one, and H is
    g itself, so the greedy pass is skipped and those heights are H's.
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    # the heights on the acyclic H give the count and the path; only a
    # coloring needs the levels, the heights on H's in-masks
    h = g
    out = g.out_masks()
    height, cyclic = _heights(out)
    if cyclic:
        h = maximal_acyclic_subgraph(g)
        out = h.out_masks()
        height = _heights(out)[0]
    if max(height, default=0) >= threshold:
        return DirectedPath(_walk(out, height))
    return level_decomposition(h)


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
        self._validate(coloring, range(self.t))

    def _validate(self, coloring: EdgeColoring, vertices) -> None:
        """validate() for a cycle through the ascending ids `vertices`."""
        cycle, t = self.cycle, len(self.cycle)
        if sorted(cycle) != list(vertices):
            raise DecompositionError("cycle is not a permutation of the vertices")
        # the cycle arc leaving u ends at succ[u]; a set of cycle arcs is a
        # mask over their tails
        succ = dict(zip(cycle, cycle[1:] + cycle[:1]))
        n = max(cycle, default=-1) + 1
        red = coloring.out_masks(RED, n)
        covered = []
        off_cycle = False
        # color() reads the lowest color first, so an arc in both masks is red
        for seg, col, rows, veto in ((self.red_segment, RED, red, [0] * n),
                                     (self.blue_segment, BLUE, coloring.out_masks(BLUE, n), red)):
            on = 0
            vs = seg.vertices
            for u, v in zip(vs, vs[1:]):
                if succ.get(u) == v and (rows[u] & ~veto[u]) >> v & 1:
                    on |= 1 << u
                # a cycle arc that fails the mask test is not color col
                elif coloring.color(u, v) != col:
                    raise DecompositionError(f"segment arc {u}->{v} is not color {col}")
                else:
                    off_cycle = True
            covered.append(on)
        # a cycle arc cannot pass both mask tests, so the segments share none
        if off_cycle:
            raise DecompositionError("segment arc not on the cycle")
        # every segment arc is a cycle arc now, one tail bit each
        red_len, blue_len = covered[0].bit_count(), covered[1].bit_count()
        missing = (t if t > 1 else 0) - red_len - blue_len
        if missing not in (0, 1):
            raise DecompositionError("segments must cover the cycle up to its closing arc")
        # these cover checks imply the bound ceil(t/2) for t >= 2: the
        # segments hold all t arcs, or one is empty and the other holds t - 1
        if missing == 1 and red_len and blue_len:
            raise DecompositionError("an arc is uncovered but both segments are nonempty")


def _delta(cols: list[int], i: int, p: int, s: int) -> int:
    """Change in the cycle's color-switch count when arc i, colored
    cols[i], is replaced by two arcs colored p and then s."""
    left, old, right = cols[i - 1], cols[i], cols[(i + 1) % len(cols)]
    return (left != p) + (p != s) + (s != right) - (left != old) - (old != right)


def _insert(cyc: list[int], cols: list[int], switches: int, x: int, red: list[int]):
    """Single insertion: x goes onto the first arc, in cycle order, that
    leaves at most two switches; (cycle, colors, switches) or None."""
    m, out = len(cyc), red[x]
    left = cols[-1]
    for i, old in enumerate(cols):
        # arc i runs from cyc[i] to cyc[j]; cols[j] is the arc after it
        j = i + 1 if i + 1 < m else 0
        p = RED if red[cyc[i]] >> x & 1 else BLUE
        s = RED if out >> cyc[j] & 1 else BLUE
        right = cols[j]
        # _delta(cols, i, p, s), inlined: this loop is the hot path
        new = switches + (left != p) + (p != s) + (s != right) - (left != old) - (old != right)
        if new <= 2:
            return cyc[:i + 1] + [x] + cyc[i + 1:], cols[:i] + [p, s] + cols[i + 1:], new
        left = old
    return None


def _repair(cyc: list[int], cols: list[int], switches: int, x: int, red: list[int]):
    """One-vertex repair: take a resident y out, splicing its neighbors;
    put x on an arc of what is left, whatever that does to the switches;
    then single-insert y.  The first (y, arc for x) pair, in cycle order,
    whose final cycle has at most two switches wins.  Only called when
    single insertion is stuck, so m >= 4 by lemma (1) of raynaud."""
    m = len(cyc)
    for yi, y in enumerate(cyc):
        u, w = cyc[yi - 1], cyc[(yi + 1) % m]
        g = RED if red[u] >> w & 1 else BLUE
        # the splice arc u->w sits at position j; arc j of cols2 leaves cyc2[j]
        cyc2 = cyc[:yi] + cyc[yi + 1:]
        if yi:
            cols2, j = cols[:yi - 1] + [g] + cols[yi + 1:], yi - 1
        else:
            cols2, j = cols[1:-1] + [g], m - 2
        s2 = switches - _delta(cols2, j, cols[yi - 1], cols[yi])
        for xi in range(m - 1):
            p = RED if red[cyc2[xi]] >> x & 1 else BLUE
            s = RED if red[x] >> cyc2[(xi + 1) % (m - 1)] & 1 else BLUE
            placed = _insert(cyc2[:xi + 1] + [x] + cyc2[xi + 1:],
                             cols2[:xi] + [p, s] + cols2[xi + 1:],
                             s2 + _delta(cols2, xi, p, s), y, red)
            if placed:
                return placed
    return None


def raynaud(t: int, coloring: EdgeColoring) -> HamiltonDecomposition:
    """Hamilton cycle of the 2-colored complete symmetric digraph on t
    vertices, split into one red and one blue directed path.

    In particular best_segment() has length >= ceil(t/2) for t >= 2 (the
    runs cover all t arcs, or one run is empty and the other holds t - 1).
    The exact oracle finds colorings with no longer monochromatic path for
    t = 2..7.  Color 1 is treated as red, color 2 as blue.

    The cycle starts as [0, 1] and takes the vertices 2, ..., t-1 in turn,
    keeping at most two color runs (0 or 2 switches) throughout.  A new
    vertex x goes by single insertion onto the first arc, in cycle order,
    whose replacement by v_i -> x -> v_i+1 keeps two runs.  If there is
    none, the one-vertex repair takes a resident y out, splicing its
    neighbors, puts x on an arc of what is left and single-inserts y.  If
    that fails too, DecompositionError is raised.

    Lemma.  Let C = v_0 ... v_m-1 (m >= 2) have at most two runs, and
    write a(v), b(v) for the colors of v -> x and x -> v.
    (1) If C has one run, or a run of one arc, single insertion succeeds.
    (2) Otherwise let the red run be v_0 -> ... -> v_a and the blue run
    v_a -> ... -> v_m = v_0, each of at least two arcs.  Single insertion
    fails exactly when (a(v_i), b(v_i+1)) is (R, B) on the first red arc
    and on the last blue arc, (B, R) on the last red arc and on the first
    blue arc, and not (c, c) on any interior arc of color c.
    (3) Then some interior vertex of the red run has blue arcs to and from
    x, and some interior vertex of the blue run has red arcs both ways.

    Proof.  Putting x on arc i replaces its color c_i by the pair
    (p, s) = (a(v_i), b(v_i+1)) and changes only the switches beside arc
    i.  (1) In a one-run cycle of color c, c, p, s, c has at most two
    switches.  A lone red arc between blue arcs turns B, R, B into
    B, p, s, B, which never has more switches.  (2) An interior arc of
    color c lies between arcs of color c: c, p, s, c has no switch for
    (p, s) = (c, c) and two otherwise, against none before.  The first
    red arc lies between a blue and a red arc: B, p, s, R has one switch,
    as B, R, R had, unless (p, s) = (R, B), which has three; so does the
    last blue arc.  The last red and the first blue arc lie between a red
    and a blue arc, and R, p, s, B gains switches only for (B, R).
    (3) b(v_1) = B.  Let j >= 1 be least with a(v_j) = B; j <= a-1 since
    a(v_a-1) = B.  Every i < j has a(v_i) = R, and arc i is the first red
    arc or an interior one, so b(v_i+1) = B; hence b(v_j) = B.  The blue
    run is the same with the colors swapped, from b(v_a+1) = R and
    a(v_m-1) = R.

    The repair.  Call y removable when taking it out (joining its
    neighbors) leaves at most two runs; only an inner vertex with inner
    neighbors joined by an arc of the other color is not.  Turning one arc
    of color c into three arcs of color c adds no switch.  In case (2),
    let j in 1..a-1 be least with a(v_j) = B and k in a+1..m-1 greatest
    with b(v_k) = R, so that a(v_j-1) = R and b(v_k+1) = B.  If
    v_k -> v_j is red and v_k is removable, taking v_k out and putting
    v_j-1 -> x -> v_k -> v_j in place of the red arc v_j-1 -> v_j leaves
    two runs.  If it is blue and v_j is removable, v_k -> v_j -> x -> v_k+1
    in place of the blue arc v_k -> v_k+1 does.  At the other junction,
    let j be greatest with b(v_j) = B and k least with a(v_k) = R, so that
    b(v_j+1) = R and a(v_k-1) = B.  If v_j -> v_k is red, moving v_k gives
    the red v_j -> v_k -> x -> v_j+1; if blue, moving v_j gives the blue
    v_k-1 -> x -> v_j -> v_k.
    Gap: when at both junctions the move needs a vertex that is not
    removable, no argument is given here.  The repair still succeeded in
    every case tried: test_raynaud_insertion_lemma tries every stuck x for
    m <= 7, under every coloring of the other arcs for m <= 4 and seeded
    random ones above, and every 2-coloring up to t = 5 plus random ones
    up to t = 100 decomposed without error.
    """
    if t < 1:
        raise GraphShapeError("need at least one vertex")
    if coloring.num_colors != 2:
        raise ColoringError(f"need exactly 2 colors, got {coloring.num_colors}")
    coloring.validate_complete(t)
    return _raynaud(range(t), coloring)


def _raynaud(vertices, coloring: EdgeColoring) -> HamiltonDecomposition:
    """raynaud's construction on the ascending, nonempty ids `vertices`, in
    those ids: every arc between two of them has color 1 or 2, and the
    cycle starts as their first two and takes the others in turn."""
    red = coloring.out_masks(RED, vertices[-1] + 1)
    cyc = list(vertices[:2])
    if len(cyc) == 1:
        # the red segment holds the lone vertex
        cols, switches = [RED], 0
    else:
        u, w = cyc
        cols = [RED if red[u] >> w & 1 else BLUE, RED if red[w] >> u & 1 else BLUE]
        switches = 2 * (cols[0] != cols[1])
    for x in vertices[2:]:
        placed = (_insert(cyc, cols, switches, x, red)
                  or _repair(cyc, cols, switches, x, red))
        if placed is None:
            raise DecompositionError(f"no two-run Hamilton cycle found for t={len(vertices)}")
        cyc, cols, switches = placed
    if switches == 0:
        seg = DirectedPath(cyc)
        empty = DirectedPath(())
        d = HamiltonDecomposition(tuple(cyc), *((seg, empty) if cols[0] == RED else (empty, seg)))
    else:
        # rotate so the red run starts at position 0; it has `a` arcs
        start = 0 if cols[0] == RED and cols[-1] == BLUE else cols.index(RED, cols.index(BLUE))
        cyc = cyc[start:] + cyc[:start]
        a = cols.count(RED)
        d = HamiltonDecomposition(tuple(cyc), DirectedPath(cyc[:a + 1]),
                                  DirectedPath(cyc[a:] + cyc[:1]))
    d._validate(coloring, vertices)
    return d
