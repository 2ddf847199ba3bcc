"""Constructive extraction of long monochromatic paths from edge-colored
pseudorandom digraphs.

The two-color finder follows a fixed pipeline: try the red graph's
path/coloring dichotomy, else chop color classes into uniform blocks, grow
a blue path and close it into a cycle inside each block, rank the cycles in
an auxiliary complete symmetric 2-colored graph, split its Hamilton cycle
into two runs, and convert the better run into either a threaded red path
or a walked blue path.  Multicolor inputs recurse on the top color's
subgraph.  Certificates carry the full trace plus a guarantee flag that is
set only when every stage met its configured floor.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .classic import BLUE, RED, gallai_roy, raynaud
from .config import DEFAULT_CONFIG, ConstantsConfig
from .errors import ColoringError, GraphShapeError, ThreadingError
from .graphs import DirectedPath, EdgeColoring, OrientedGraph, mask_of
from .pseudorandom import _dfs_path, dfs_long_path, thread_path_through_sets


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
        return {
            "threshold": self.threshold,
            "num_classes": self.num_classes,
            "blocks": [list(b) for b in self.blocks],
            "block_paths": [list(p) for p in self.block_paths],
            "cycles": [list(c) for c in self.cycles],
            "aux_coloring": [[list(e), c] for e, c in self.aux_coloring],
            "aux_branch": self.aux_branch,
            "aux_path": list(self.aux_path),
            "c_red": self.c_red,
            "c_blue": self.c_blue,
            "floors_met": self.floors_met,
            "notes": list(self.notes),
        }


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


def _best_effort(g: OrientedGraph, red: OrientedGraph, blue: OrientedGraph,
                 k: int, trace: BuilderTrace) -> BuilderCertificate:
    """Fallback when the pipeline cannot complete: longest cheap mono path."""
    pr = dfs_long_path(red, k)
    pb = dfs_long_path(blue, k)
    path, color = (pr, RED) if pr.length >= pb.length else (pb, BLUE)
    trace = replace(trace, floors_met=False,
                    notes=trace.notes + ("pipeline fell back to plain search",))
    return BuilderCertificate(path, color, "small-n-fallback", False, trace)


def _close_cycle(g: OrientedGraph, p: DirectedPath, k: int):
    """Longest cycle of g formed by one back edge from the path's last k
    vertices to its first k; None when no such edge exists."""
    vs = p.vertices
    top = len(vs)
    best = None
    for j in range(max(0, top - k), top):
        for i in range(min(k, top)):
            if i < j and g.has_edge(vs[j], vs[i]):
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
    n = g.n
    f = cfg.block_factor
    c_red = c_blue = 4 * f
    red = coloring.class_graph(g, RED)
    blue = coloring.class_graph(g, BLUE)
    thr = cfg.red_threshold(n, k)
    base_trace = BuilderTrace(threshold=thr, c_red=c_red, c_blue=c_blue)

    outcome = gallai_roy(red, thr)
    if isinstance(outcome, DirectedPath):
        guarantee = outcome.length * c_red * k >= n
        return BuilderCertificate(outcome, RED, "red-case", guarantee,
                                  replace(base_trace, aux_branch="red",
                                          notes=("red dichotomy returned a path",)))

    classes = [cls for cls in outcome.classes() if cls]
    base_trace = replace(base_trace, num_classes=len(classes))
    bsize = f * k
    blocks: list[tuple[int, ...]] = []
    for cls in sorted(classes, key=lambda c: (len(c), c[0])):
        for start in range(0, len(cls) - bsize + 1, bsize):
            blocks.append(tuple(cls[start:start + bsize]))
    base_trace = replace(base_trace, blocks=tuple(blocks))
    if not blocks:
        return _best_effort(g, red, blue, k, base_trace)

    floors = True
    cycles: list[tuple[int, ...]] = []
    block_paths: list[tuple[int, ...]] = []
    blue_out = blue.out_masks()
    for block in blocks:
        p = DirectedPath(_dfs_path(blue_out, mask_of(block)))
        block_paths.append(p.vertices)
        if p.length < cfg.path_floor_factor * k:
            floors = False
        cyc = _close_cycle(blue, p, k)
        if cyc is None:
            floors = False
            continue
        if len(cyc) < cfg.cycle_floor_factor * k:
            floors = False
        cycles.append(tuple(cyc))
    base_trace = replace(base_trace, block_paths=tuple(block_paths),
                         cycles=tuple(cycles))
    if not cycles:
        return _best_effort(g, red, blue, k, base_trace)

    t = len(cycles)
    cyc_masks = [mask_of(c) for c in cycles]
    aux = {}
    for a in range(t):
        for b in range(t):
            if a == b:
                continue
            strong = sum(1 for v in cycles[a] if blue.out_mask(v) & cyc_masks[b])
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
            r = tuple(v for v in cycles[ci] if not blue.out_mask(v) & nxt)
            if len(r) < 2 * k:
                floors = False
            sets.append(r)
        try:
            path = thread_path_through_sets(red, k, [tuple(s) for s in sets])
        except ThreadingError as exc:
            note = f"red threading failed: {exc}"
            return _best_effort(g, red, blue, k,
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
            if blue.out_mask(w) & nxt:
                break
        walk.extend(cyc[(pos + s) % size] for s in range(dist + 1))
        targets = blue.out_mask(w) & nxt
        entry = (targets & -targets).bit_length() - 1
    path = DirectedPath(walk)
    trace = replace(base_trace, aux_branch="blue", floors_met=floors)
    guarantee = floors and path.length * c_blue >= n
    return BuilderCertificate(path, BLUE, "blue-case", guarantee, trace)


def _color_recursion(coloring: EdgeColoring, n: int, n_target: int,
                     base, recurse) -> BuilderCertificate:
    """The top-color step shared by both multicolor finders.

    Up to two colors go to `base()`.  Otherwise the top color's subgraph
    either holds a path of length n_target (the shortcut certificate) or is
    n_target-colorable; `recurse(vertices, sub_coloring)` runs on its
    largest class with the top color stripped, and its path is lifted back.
    """
    qp1 = coloring.num_colors
    if qp1 <= 2:
        return base()
    top = OrientedGraph.from_masks(n, coloring.out_masks(qp1, n), allow_antiparallel=True)
    outcome = gallai_roy(top, n_target)
    if isinstance(outcome, DirectedPath):
        trace = BuilderTrace(threshold=n_target,
                             notes=(f"path found directly in color {qp1}",))
        return BuilderCertificate(outcome, qp1, "monochromatic-shortcut",
                                  outcome.length >= n_target, trace)
    back = max((cls for cls in outcome.classes() if cls), key=len)
    inner = recurse(back, coloring.induced(back, qp1 - 1))
    lifted = DirectedPath(back[v] for v in inner.path.vertices)
    note = (f"recursed on a class of {len(back)} vertices "
            f"(trace below is in recursion-local ids)",)
    trace = replace(inner.trace, notes=inner.trace.notes + note)
    return BuilderCertificate(lifted, inner.color, inner.branch,
                              inner.guarantee_active, trace)


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
    coloring.validate_total(g)
    return _color_recursion(
        coloring, g.n, n_target,
        lambda: two_color_path_finder(g, coloring, k, cfg),
        lambda back, sub: multicolor_path_finder(g.subgraph(back)[0], sub, k, n_target, cfg))


def _symmetric_base(t: int, coloring: EdgeColoring, n_target: int) -> BuilderCertificate:
    """One color: the identity Hamilton path.  Two colors: the longer run of
    a two-run Hamilton cycle, at least floor(t/2) edges."""
    if coloring.num_colors == 1:
        path = DirectedPath(range(t))
        return BuilderCertificate(
            path, 1, "monochromatic-shortcut", path.length >= n_target,
            BuilderTrace(notes=("single-color input; identity Hamilton path",)))
    seg, seg_color = raynaud(t, coloring).best_segment()
    branch = "red-case" if seg_color == RED else "blue-case"
    trace = BuilderTrace(aux_branch="red" if seg_color == RED else "blue",
                         aux_path=tuple(seg.vertices))
    return BuilderCertificate(seg, seg_color, branch, seg.length >= n_target, trace)


def symmetric_multicolor_finder(t: int, coloring: EdgeColoring,
                                n_target: int) -> BuilderCertificate:
    """Monochromatic path from a (q+1)-colored complete symmetric digraph.

    Same recursion as the sparse finder, but the two-color base extracts
    the longer run of a two-run Hamilton cycle, guaranteeing floor(t/2).
    """
    if t < 1:
        raise GraphShapeError("need at least one vertex")
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    coloring.validate_complete(t)
    return _color_recursion(
        coloring, t, n_target,
        lambda: _symmetric_base(t, coloring, n_target),
        lambda back, sub: symmetric_multicolor_finder(len(back), sub, n_target))
