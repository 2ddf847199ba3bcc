"""Constructive extraction of long monochromatic paths from edge-colored
pseudorandom digraphs.

The two-color finder follows a fixed pipeline: try the red graph's
path/coloring dichotomy, else chop color classes into uniform blocks, grow
a blue path and close it into a cycle inside each block, rank the cycles in
an auxiliary complete symmetric 2-colored graph, split its Hamilton cycle
into two runs, and convert the better run into either a threaded red path
or a walked blue path.  Multicolor inputs recurse on the top color's
largest class, in host ids.  Certificates carry the full trace plus a
guarantee flag that is set only when every stage met its configured floor.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .classic import BLUE, RED, _raynaud, gallai_roy, raynaud
from .config import DEFAULT_CONFIG, ConstantsConfig
from .errors import ColoringError, GraphShapeError, ThreadingError
from .graphs import DirectedPath, EdgeColoring, OrientedGraph, iter_bits, mask_of
from .pseudorandom import _dfs_path, thread_path_through_sets


@dataclass(frozen=True)
class BuilderTrace:
    threshold: int = 0
    num_classes: int = 0
    blocks: tuple[tuple[int, ...], ...] = ()
    block_paths: tuple[tuple[int, ...], ...] = ()
    cycles: tuple[tuple[int, ...], ...] = ()
    aux_coloring: tuple[tuple[tuple[int, int], int], ...] = ()
    aux_branch: str = ""
    aux_path: tuple[int, ...] = ()
    c_red: int = 0
    c_blue: int = 0
    floors_met: bool = True
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """The fields by name; json writes their tuples as arrays."""
        return dict(vars(self))


@dataclass(frozen=True)
class BuilderCertificate:
    path: DirectedPath
    color: int
    branch: str  # red-case | blue-case | monochromatic-shortcut | small-n-fallback
    guarantee_active: bool
    trace: BuilderTrace

    def validate(self, g: OrientedGraph, coloring: EdgeColoring) -> None:
        """Path exists in g and every edge carries this certificate's color."""
        if not self.path.is_valid_in(g):
            raise GraphShapeError("certificate path is not a path of the host graph")
        for (u, v) in self.path.edges():
            c = coloring.color(u, v)
            if c != self.color:
                raise ColoringError(
                    f"certificate claims color {self.color} but ({u},{v}) has color {c}")

    def to_dict(self) -> dict:
        return {
            "path": list(self.path.vertices),
            "length": self.path.length,
            "color": self.color,
            "branch": self.branch,
            "guarantee_active": self.guarantee_active,
            "trace": self.trace.to_dict(),
        }


def _best_effort(red_out: list[int], blue_out: list[int], within: int,
                 trace: BuilderTrace) -> BuilderCertificate:
    """Fallback when the pipeline stalls: longest cheap mono path in `within`."""
    pr = DirectedPath(_dfs_path(red_out, within))
    pb = DirectedPath(_dfs_path(blue_out, within))
    path, color = (pr, RED) if pr.length >= pb.length else (pb, BLUE)
    trace = replace(trace, floors_met=False,
                    notes=trace.notes + ("pipeline fell back to plain search",))
    return BuilderCertificate(path, color, "small-n-fallback", False, trace)


def _close_cycle(out: list[int], p: DirectedPath, k: int):
    """Longest cycle closed by one edge of the out-masks `out` from the
    path's last k vertices to its first k; None when no such edge exists."""
    vs = p.vertices
    top = len(vs)
    best = None
    for j in range(max(0, top - k), top):
        for i in range(min(k, top)):
            if i < j and out[vs[j]] >> vs[i] & 1:
                if best is None or j - i + 1 > best[1] - best[0] + 1:
                    best = (i, j)
    if best is None:
        return None
    return vs[best[0]: best[1] + 1]


def two_color_path_finder(g: OrientedGraph, coloring: EdgeColoring, k: int,
                          cfg: ConstantsConfig = DEFAULT_CONFIG) -> BuilderCertificate:
    """Long monochromatic path from a 2-colored digraph.

    When g is k-pseudorandom and the stage floors hold, the certificate's
    guarantee is active: length >= n/(c_red*k) for a red path or >= n/c_blue
    for a blue one, with c_red = c_blue = 4 * cfg.block_factor.
    """
    if coloring.num_colors != 2:
        raise ColoringError(f"need exactly 2 colors, got {coloring.num_colors}")
    if k < 1:
        raise ValueError("k must be >= 1")
    coloring.validate_total(g)
    return _two_color(g, coloring, g.full_mask(), k, cfg)


def _cut_rows(coloring: EdgeColoring, c: int, n: int, within: int) -> list[int]:
    """Out-masks of color c's edges with both ends in the vertex mask `within`."""
    return [row & within if within >> u & 1 else 0
            for u, row in enumerate(coloring.out_masks(c, n))]


def _two_color(g: OrientedGraph, coloring: EdgeColoring, within: int, k: int,
               cfg: ConstantsConfig) -> BuilderCertificate:
    """two_color_path_finder on the vertex mask `within` of g, inside which
    every edge has color 1 or 2; all ids are g's."""
    n = within.bit_count()
    f = cfg.block_factor
    c_red = c_blue = 4 * f
    red_out = _cut_rows(coloring, RED, g.n, within)
    blue_out = _cut_rows(coloring, BLUE, g.n, within)
    red = OrientedGraph.from_masks(g.n, red_out, allow_antiparallel=True)
    thr = cfg.red_threshold(n, k)
    base_trace = BuilderTrace(threshold=thr, c_red=c_red, c_blue=c_blue)

    outcome = gallai_roy(red, thr)
    if isinstance(outcome, DirectedPath):
        guarantee = outcome.length * c_red * k >= n
        return BuilderCertificate(outcome, RED, "red-case", guarantee,
                                  replace(base_trace, aux_branch="red",
                                          notes=("red dichotomy returned a path",)))

    classes = _classes_in(outcome, within)
    base_trace = replace(base_trace, num_classes=len(classes))
    bsize = f * k
    blocks: list[tuple[int, ...]] = []
    for cls in sorted(classes, key=lambda c: (len(c), c[0])):
        for start in range(0, len(cls) - bsize + 1, bsize):
            blocks.append(tuple(cls[start:start + bsize]))
    base_trace = replace(base_trace, blocks=tuple(blocks))
    if not blocks:
        return _best_effort(red_out, blue_out, within, base_trace)

    floors = True
    cycles: list[tuple[int, ...]] = []
    block_paths: list[tuple[int, ...]] = []
    for block in blocks:
        p = DirectedPath(_dfs_path(blue_out, mask_of(block)))
        block_paths.append(p.vertices)
        if p.length < cfg.path_floor_factor * k:
            floors = False
        cyc = _close_cycle(blue_out, p, k)
        if cyc is None:
            floors = False
            continue
        # a block path on its floor of path_floor_factor * k edges closes a
        # cycle of at least (path_floor_factor - 2) * k + 3 vertices, so this
        # check fails alone only when that is below cycle_floor_factor * k:
        # never under the default constants (see ConstantsConfig)
        if len(cyc) < cfg.cycle_floor_factor * k:
            floors = False
        cycles.append(tuple(cyc))
    base_trace = replace(base_trace, block_paths=tuple(block_paths),
                         cycles=tuple(cycles))
    if not cycles:
        return _best_effort(red_out, blue_out, within, base_trace)

    t = len(cycles)
    cyc_masks = [mask_of(c) for c in cycles]
    aux = {}
    for a in range(t):
        for b in range(t):
            if a == b:
                continue
            strong = sum(1 for v in cycles[a] if blue_out[v] & cyc_masks[b])
            aux[(a, b)] = BLUE if strong >= k else RED
    aux_coloring = EdgeColoring(2, aux)
    seg, seg_color = raynaud(t, aux_coloring).best_segment()
    hpath = seg.vertices
    base_trace = replace(base_trace,
                         aux_coloring=tuple(aux_coloring.items()),
                         aux_path=tuple(hpath))

    if seg_color == RED and len(hpath) >= 2:
        # one representative per cycle, connected by red edges: representatives
        # are chosen among vertices with no blue edge into the next cycle
        sets = []
        for idx, ci in enumerate(hpath):
            if idx == len(hpath) - 1:
                sets.append(cycles[ci])
                continue
            nxt = cyc_masks[hpath[idx + 1]]
            r = tuple(v for v in cycles[ci] if not blue_out[v] & nxt)
            if len(r) < 2 * k:
                floors = False
            sets.append(r)
        try:
            path = thread_path_through_sets(red, [tuple(s) for s in sets])
        except ThreadingError as exc:
            note = f"red threading failed: {exc}"
            return _best_effort(red_out, blue_out, within,
                                replace(base_trace, aux_branch="red",
                                        notes=(note,)))
        trace = replace(base_trace, aux_branch="red", floors_met=floors)
        guarantee = floors and path.length * c_red * k >= n
        return BuilderCertificate(path, RED, "red-case", guarantee, trace)

    # blue branch (also the single-cycle case): walk each cycle to a far
    # endpoint, hop a blue edge to the next cycle, lap the last one fully
    walk: list[int] = []
    entry = cycles[hpath[0]][0]
    for idx, ci in enumerate(hpath):
        cyc = cycles[ci]
        size = len(cyc)
        pos = cyc.index(entry)
        if idx == len(hpath) - 1:
            walk.extend(cyc[(pos + s) % size] for s in range(size))
            break
        nxt = cyc_masks[hpath[idx + 1]]
        # the blue auxiliary arc gives >= k exit vertices, and only k-1
        # positions lie before step k-1, so this scan always finds one
        for dist in range(k - 1, size):
            w = cyc[(pos + dist) % size]
            if blue_out[w] & nxt:
                break
        walk.extend(cyc[(pos + s) % size] for s in range(dist + 1))
        targets = blue_out[w] & nxt
        entry = (targets & -targets).bit_length() - 1
    path = DirectedPath(walk)
    trace = replace(base_trace, aux_branch="blue", floors_met=floors)
    guarantee = floors and path.length * c_blue >= n
    return BuilderCertificate(path, BLUE, "blue-case", guarantee, trace)


def _classes_in(classes: list[list[int]], within: int) -> list[list[int]]:
    """The nonempty classes of a vertex coloring cut to the mask `within`."""
    return [cut for cls in classes if (cut := [v for v in cls if within >> v & 1])]


def _color_recursion(coloring: EdgeColoring, n: int, colors: int, within: int,
                     n_target: int, base) -> BuilderCertificate:
    """The top-color step shared by both multicolor finders, on the vertex
    mask `within` of an n-vertex host, inside which the colors are 1..colors.

    Up to two colors go to `base(within)`.  Otherwise the top color's graph
    on `within` either holds a path of length n_target (the shortcut
    certificate) or is n_target-colorable, and the step recurses on its
    largest class with one color fewer."""
    if colors <= 2:
        return base(within)
    top = OrientedGraph.from_masks(n, _cut_rows(coloring, colors, n, within),
                                   allow_antiparallel=True)
    outcome = gallai_roy(top, n_target)
    if isinstance(outcome, DirectedPath):
        trace = BuilderTrace(threshold=n_target,
                             notes=(f"path found directly in color {colors}",))
        return BuilderCertificate(outcome, colors, "monochromatic-shortcut",
                                  outcome.length >= n_target, trace)
    # the vertices outside `within` are isolated in `top`, so they sit in
    # the first class and are cut away before the largest class is chosen
    back = max(_classes_in(outcome, within), key=len)
    inner = _color_recursion(coloring, n, colors - 1, mask_of(back), n_target, base)
    note = (f"recursed on a class of {len(back)} vertices",)
    return replace(inner, trace=replace(inner.trace, notes=inner.trace.notes + note))


def multicolor_path_finder(g: OrientedGraph, coloring: EdgeColoring, k: int,
                           n_target: int,
                           cfg: ConstantsConfig = DEFAULT_CONFIG) -> BuilderCertificate:
    """Monochromatic path from a (q+1)-colored digraph by color recursion.

    The top color's subgraph either contains a path of length n_target
    (done) or is n_target-colorable; recursing on the largest color class
    strips one color while preserving pseudorandomness, down to the
    two-color finder.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    if coloring.num_colors <= 2:
        return two_color_path_finder(g, coloring, k, cfg)
    if k < 1:
        raise ValueError("k must be >= 1")
    coloring.validate_total(g)
    return _color_recursion(coloring, g.n, coloring.num_colors, g.full_mask(), n_target,
                            lambda within: _two_color(g, coloring, within, k, cfg))


def _symmetric_base(coloring: EdgeColoring, within: int,
                    n_target: int) -> BuilderCertificate:
    """One color: the identity Hamilton path.  Two colors: the longer run of
    a two-run Hamilton cycle through the t vertices of `within`, at least
    ceil(t/2) edges for t >= 2."""
    if coloring.num_colors == 1:
        path = DirectedPath(iter_bits(within))
        return BuilderCertificate(
            path, 1, "monochromatic-shortcut", path.length >= n_target,
            BuilderTrace(notes=("single-color input; identity Hamilton path",)))
    seg, seg_color = _raynaud(list(iter_bits(within)), coloring).best_segment()
    branch = "red-case" if seg_color == RED else "blue-case"
    trace = BuilderTrace(aux_branch="red" if seg_color == RED else "blue",
                         aux_path=tuple(seg.vertices))
    return BuilderCertificate(seg, seg_color, branch, seg.length >= n_target, trace)


def symmetric_multicolor_finder(t: int, coloring: EdgeColoring,
                                n_target: int) -> BuilderCertificate:
    """Monochromatic path from a (q+1)-colored complete symmetric digraph,
    the upper bound for digraphs with antiparallel edges.

    Same recursion as the sparse finder, but the two-color base extracts
    the longer run of a two-run Hamilton cycle, guaranteeing ceil(t/2)
    edges for t >= 2.
    """
    if t < 1:
        raise GraphShapeError("need at least one vertex")
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    coloring.validate_complete(t)
    return _color_recursion(coloring, t, coloring.num_colors, (1 << t) - 1, n_target,
                            lambda within: _symmetric_base(coloring, within, n_target))
