"""The color recursion of the multicolor finders as it ran on relabelled
subgraphs, kept verbatim as the reference for the recursion on vertex masks
in `builder`.  Each step relabelled the largest class of the top color's
coloring to 0..t-1 with `subgraph` and `induced` (both kept here, with
their bit mover `_relabel`) and lifted the inner path back; the two-color
and symmetric bases and `gallai_roy` come from the package.

Both finders here also return the list that maps the ids of the innermost
instance, the ones its trace names, to host ids.

`subgraph` doubles as the relabelling oracle of the host-mask tests: the
induced subgraph on a vertex set, renumbered in ascending order.
"""
from dataclasses import replace
from typing import Iterable

from dipath_ramsey.builder import BuilderCertificate, BuilderTrace, two_color_path_finder
from dipath_ramsey.classic import RED, gallai_roy, raynaud
from dipath_ramsey.config import DEFAULT_CONFIG, ConstantsConfig
from dipath_ramsey.errors import ColoringError, GraphShapeError
from dipath_ramsey.graphs import DirectedPath, EdgeColoring, OrientedGraph, mask_of


def _relabel(mask: int, index: dict[int, int]) -> int:
    """`mask` with each set bit v moved to position index[v]."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << index[low.bit_length() - 1]
        mask ^= low
    return out


def subgraph(g: OrientedGraph, vertices: Iterable[int]) -> tuple[OrientedGraph, list[int]]:
    """Induced subgraph on `vertices`.

    Returns (graph, new_to_old) where the subgraph's vertex i corresponds
    to new_to_old[i] in g.  Vertex order is ascending.
    """
    keep = sorted(set(vertices))
    index = {old: new for new, old in enumerate(keep)}
    kmask = mask_of(keep)
    out = [_relabel(g.out_mask(u) & kmask, index) for u in keep]
    return OrientedGraph.from_masks(len(keep), out,
                                    allow_antiparallel=g.allow_antiparallel), keep


def induced(coloring: EdgeColoring, vertices: Iterable[int], num_colors: int) -> EdgeColoring:
    """The coloring of the edges inside `vertices`, relabelled in
    ascending order as `subgraph` does, with colors 1..num_colors; a
    higher color with an edge inside is an error."""
    keep = sorted(set(vertices))
    index = {old: new for new, old in enumerate(keep)}
    kmask = mask_of(keep)
    n = coloring.n
    masks = [[_relabel(rows[u] & kmask, index) if u < n else 0 for u in keep]
             for rows in (coloring.out_masks(c, n) for c in range(1, coloring.num_colors + 1))]
    for c, rows in enumerate(masks[num_colors:], num_colors + 1):
        if any(rows):
            raise ColoringError(f"color {c} has an edge inside the vertex set")
    return EdgeColoring.from_masks(
        masks[:num_colors] + [[]] * (num_colors - len(masks)))


def _color_recursion(coloring: EdgeColoring, n: int, n_target: int,
                     base, recurse) -> tuple[BuilderCertificate, list[int]]:
    qp1 = coloring.num_colors
    if qp1 <= 2:
        return base(), list(range(n))
    top = OrientedGraph.from_masks(n, coloring.out_masks(qp1, n), allow_antiparallel=True)
    outcome = gallai_roy(top, n_target)
    if isinstance(outcome, DirectedPath):
        trace = BuilderTrace(threshold=n_target,
                             notes=(f"path found directly in color {qp1}",))
        return BuilderCertificate(outcome, qp1, "monochromatic-shortcut",
                                  outcome.length >= n_target, trace), list(range(n))
    back = max((cls for cls in outcome if cls), key=len)
    inner, ids = recurse(back, induced(coloring, back, qp1 - 1))
    lifted = DirectedPath(back[v] for v in inner.path.vertices)
    note = (f"recursed on a class of {len(back)} vertices "
            f"(trace below is in recursion-local ids)",)
    trace = replace(inner.trace, notes=inner.trace.notes + note)
    return BuilderCertificate(lifted, inner.color, inner.branch,
                              inner.guarantee_active, trace), [back[v] for v in ids]


def multicolor_path_finder(g: OrientedGraph, coloring: EdgeColoring, k: int,
                           n_target: int, cfg: ConstantsConfig = DEFAULT_CONFIG):
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    coloring.validate_total(g)
    return _color_recursion(
        coloring, g.n, n_target,
        lambda: two_color_path_finder(g, coloring, k, cfg),
        lambda back, sub: multicolor_path_finder(subgraph(g, back)[0], sub, k, n_target, cfg))


def _symmetric_base(t: int, coloring: EdgeColoring, n_target: int) -> BuilderCertificate:
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


def symmetric_multicolor_finder(t: int, coloring: EdgeColoring, n_target: int):
    if t < 1:
        raise GraphShapeError("need at least one vertex")
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    coloring.validate_complete(t)
    return _color_recursion(
        coloring, t, n_target,
        lambda: _symmetric_base(t, coloring, n_target),
        lambda back, sub: symmetric_multicolor_finder(len(back), sub, n_target))
