"""Colorings that avoid long monochromatic paths on sparse digraphs.

The centerpiece is a pipeline that partitions the host graph into a
low-degree part, families of uniformly-sized acyclic blocks, and a sparse
residue, then colors each part with base-s digit comparisons so that any
monochromatic path is short.  Every returned bound is computed from the
actual partition found, so `measured <= bound` holds unconditionally.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import and_

from .config import DEFAULT_CONFIG, ConstantsConfig
from .errors import ColoringError, GraphShapeError
from .graphs import (
    EdgeColoring,
    OrientedGraph,
    Tournament,
    VertexColoring,
    mask_of,
)
from .paths import find_cycle, level_decomposition, longest_path_masks

# ---------------------------------------------------------------------------
# digit encodings
# ---------------------------------------------------------------------------


def minimal_base(count: int, q: int) -> int:
    """Smallest s >= 1 with count <= s^q (integer arithmetic only)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    s = 1
    while s ** q < count:
        s += 1
    return s


def _digits(index: int, base: int, width: int) -> tuple[int, ...]:
    out = [0] * width
    for y in range(width - 1, -1, -1):
        out[y] = index % base
        index //= base
    return tuple(out)


def _pair_color(di: tuple[int, ...], dj: tuple[int, ...], q: int) -> int:
    """Lowest position where di < dj, 1-based; the escape color q+1 if none."""
    for y in range(q):
        if di[y] < dj[y]:
            return y + 1
    return q + 1


def _increase_color(di: tuple[int, ...], dj: tuple[int, ...]) -> int:
    # for j > i some digit of j strictly exceeds i's; the first differing
    # position is such a digit, so the scan always lands
    for y, (a, b) in enumerate(zip(di, dj)):
        if b > a:
            return y + 1
    raise AssertionError("no increasing digit; indices not ordered")


# ---------------------------------------------------------------------------
# acyclic sets
# ---------------------------------------------------------------------------


def _chain_in_tournament(g: OrientedGraph, verts: list[int]) -> list[int]:
    """Greedy dominating chain: argmax out-degree, recurse into its
    out-neighborhood.  Consecutive nesting makes the chain transitive, hence
    acyclic; sizes halve at worst, giving floor(log2 n) + 1 vertices."""
    chain: list[int] = []
    alive = mask_of(verts)
    while alive:
        best_v, best_d = -1, -1
        m = alive
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m &= m - 1
            d = (g.out_mask(v) & alive & ~g.in_mask(v)).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        chain.append(best_v)
        alive &= g.out_mask(best_v) & ~g.in_mask(best_v)
    return chain


def tournament_acyclic_set(t: Tournament) -> list[int]:
    """Acyclic set of size >= floor(log2 n) + 1 in a tournament.

    Picks a vertex of maximum out-degree (at least half the rest), keeps
    only its out-neighbors, and repeats; the picked vertices form a
    transitive chain.
    """
    g = t.underlying
    return _chain_in_tournament(g, list(range(g.n)))


def _completion_chain(g: OrientedGraph, verts: list[int]) -> list[int]:
    """Chain via an implicit tournament completion of g restricted to verts.

    Missing pairs are oriented low id -> high id.  An acyclic set of the
    completion is acyclic in g, because the completion only gains edges.
    """
    if not verts:
        return []
    # build the completed tournament on local coordinates
    local = {v: i for i, v in enumerate(sorted(verts))}
    back = sorted(verts)
    edges = []
    for a in range(len(back)):
        for b in range(a + 1, len(back)):
            u, v = back[a], back[b]
            if g.has_edge(v, u) and not g.has_edge(u, v):
                edges.append((b, a))
            else:
                edges.append((a, b))
    t = OrientedGraph(len(back), edges)
    chain = _chain_in_tournament(t, list(range(len(back))))
    return [back[i] for i in chain]


@dataclass(frozen=True)
class AcyclicSearchState:
    """One improvement step of the sparse acyclic-set search."""

    U: tuple[int, ...]
    R_star: tuple[int, ...]
    R: tuple[int, ...]
    R_prime: tuple[int, ...]
    R_double_prime: tuple[int, ...]


@dataclass(frozen=True)
class AcyclicSetResult:
    vertices: tuple[int, ...]
    target: float
    achieved: bool
    steps: tuple[AcyclicSearchState, ...] = ()

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)


def _greedy_acyclic(g: OrientedGraph) -> list[int]:
    """Vertices accepted in id order while the induced subgraph stays acyclic."""
    kept: list[int] = []
    for v in range(g.n):
        sub, _ = g.subgraph(kept + [v])
        if find_cycle(sub) is None:
            kept.append(v)
    return kept


def sparse_acyclic_set(g: OrientedGraph, cfg: ConstantsConfig = DEFAULT_CONFIG) -> AcyclicSetResult:
    """Large acyclic vertex set in a sparse oriented graph.

    Density >= 1/4 delegates to the tournament-completion chain.  Otherwise:
    drop vertices of in-degree > 2*eps*n, grow a greedy acyclic set, then
    improve: among vertices whose out-neighborhoods in U fit a shared small
    cover, extract a chain R'' and swap it in for the covered part of U.
    Stops at the configured target or on non-improvement (flagged, never an
    error).  The result always has at least floor(log2 n) + 1 vertices.
    """
    n = g.n
    if n == 0:
        return AcyclicSetResult((), 0.0, True)
    for (u, v) in g.edges():
        if g.has_edge(v, u):
            raise GraphShapeError("input must be oriented (no antiparallel pairs)")
    eps = g.edge_count / (n * n)
    target = cfg.acyclic_target(n, eps)
    floor_chain = _completion_chain(g, list(range(n)))

    if eps >= 0.25 or n <= 2:
        best = floor_chain
        return AcyclicSetResult(tuple(sorted(best)), target, len(best) >= target)

    keep = [v for v in range(n) if g.in_degree(v) <= 2 * eps * n]
    h, back = g.subgraph(keep)
    u_local = _greedy_acyclic(h)
    steps: list[AcyclicSearchState] = []

    while len(u_local) < target:
        u_mask = mask_of(u_local)
        cover_limit = max(1, math.ceil(5 * eps * len(u_local)))
        outside = [v for v in range(h.n) if not (u_mask >> v) & 1]
        r_star, r = [], []
        for v in outside:
            if (h.out_mask(v) & u_mask).bit_count() > cover_limit:
                r_star.append(v)
            else:
                r.append(v)
        if not r:
            break
        # pack candidates while their combined cover stays within budget
        r.sort(key=lambda v: ((h.out_mask(v) & u_mask).bit_count(), v))
        cover = 0
        r_prime = []
        for v in r:
            newcov = cover | (h.out_mask(v) & u_mask)
            if newcov.bit_count() <= cover_limit:
                r_prime.append(v)
                cover = newcov
        r_dp = _completion_chain(h, r_prime)
        u_new = sorted(set(r_dp) | {v for v in u_local if not (cover >> v) & 1})
        if len(u_new) <= len(u_local):
            break
        steps.append(AcyclicSearchState(
            U=tuple(u_local), R_star=tuple(r_star), R=tuple(r),
            R_prime=tuple(r_prime), R_double_prime=tuple(r_dp)))
        u_local = u_new

    best = sorted(back[v] for v in u_local)
    if len(floor_chain) > len(best):
        best = sorted(floor_chain)
    sub, _ = g.subgraph(best)
    if find_cycle(sub) is not None:
        raise AssertionError("internal: produced vertex set is not acyclic")
    return AcyclicSetResult(tuple(best), target, len(best) >= target, tuple(steps))


# ---------------------------------------------------------------------------
# chromatic and digit colorings
# ---------------------------------------------------------------------------


def constructive_chromatic(g: OrientedGraph) -> VertexColoring:
    """Proper coloring by greedy class merging.

    Classes start as singletons; two classes merge whenever no edge joins
    them in either direction.  On exit every pair of classes is adjacent,
    so m >= C(count, 2) and the class count is at most 2*sqrt(m) + 1.
    """
    if g.n == 0:
        return VertexColoring((), num_classes=0)
    members: list[list[int]] = [[v] for v in range(g.n)]
    outm = [g.out_mask(v) for v in range(g.n)]
    inm = [g.in_mask(v) for v in range(g.n)]
    vmask = [1 << v for v in range(g.n)]
    i = 0
    while i < len(members):
        j = i + 1
        while j < len(members):
            joined = (outm[i] & vmask[j]) | (inm[i] & vmask[j]) \
                | (outm[j] & vmask[i]) | (inm[j] & vmask[i])
            if joined == 0:
                members[i].extend(members[j])
                outm[i] |= outm[j]
                inm[i] |= inm[j]
                vmask[i] |= vmask[j]
                del members[j], outm[j], inm[j], vmask[j]
            else:
                j += 1
        i += 1
    colors = [0] * g.n
    for idx, cls in enumerate(members):
        for v in cls:
            colors[v] = idx + 1
    return VertexColoring(colors, num_classes=len(members))


def block_product_coloring(g: OrientedGraph, blocks: list, inner: EdgeColoring,
                           r: int) -> EdgeColoring:
    """Extend per-block colorings across the edges between blocks.

    Block indices are encoded base-s with q digits (q+1 = inner.num_colors,
    s minimal with #blocks <= s^q).  An edge from block i to block j takes
    the lowest digit position where i's digit is below j's, or the escape
    color q+1 when no digit increases.  Monochromatic paths then visit at
    most q*s blocks, giving length <= q*(r+1)*s when inner paths have
    length <= r.
    """
    q = inner.num_colors - 1
    if q < 1:
        raise ColoringError("inner coloring must use at least 2 colors (q+1 with q >= 1)")
    owner: dict[int, int] = {}
    for idx, blk in enumerate(blocks):
        for v in blk:
            if v in owner:
                raise ColoringError(f"blocks overlap at vertex {v}")
            if not 0 <= v < g.n:
                raise GraphShapeError(f"block vertex {v} outside host graph")
            owner[v] = idx
    assign: dict[tuple[int, int], int] = {}
    for (u, v), c in inner.items():
        if owner.get(u) is None or owner.get(u) != owner.get(v):
            raise ColoringError(f"inner edge ({u},{v}) does not stay within one block")
        assign[(u, v)] = c
    _verify_inner_bound(g, blocks, inner, r)
    s = minimal_base(len(blocks), q)
    codes = [_digits(i, s, q) for i in range(len(blocks))]
    for (u, v) in g.edges():
        ou, ov = owner.get(u), owner.get(v)
        if ou is None or ov is None:
            continue  # outside the union; not this coloring's business
        if ou == ov:
            if (u, v) not in assign:
                raise ColoringError(f"edge ({u},{v}) inside block {ou} missing from inner coloring")
            continue
        assign[(u, v)] = _pair_color(codes[ou], codes[ov], q)
    return EdgeColoring(q + 1, assign)


_VERIFY_BLOCK_LIMIT = 12


def _verify_inner_bound(g, blocks, inner: EdgeColoring, r: int) -> None:
    # precondition spot-check, only where exact search is affordable
    for blk in blocks:
        if not blk or len(blk) > _VERIFY_BLOCK_LIMIT:
            continue
        sub = inner.induced(blk, inner.num_colors)
        if not len(sub):
            continue  # no inner edge, no inner path
        host = g.subgraph(blk)[0].out_masks()
        for c in range(1, inner.num_colors + 1):
            adj = list(map(and_, sub.out_masks(c, len(host)), host))
            if len(longest_path_masks(adj, bound=r)[0]) > r + 1:
                raise ColoringError(
                    f"inner coloring has a color-{c} path longer than r={r} in a block")


def class_coloring_bound(num_classes: int, q: int) -> int:
    """Monochromatic-path bound for a class-based digit coloring."""
    return q * minimal_base(num_classes, q) if num_classes else 0


def block_product_bound(num_blocks: int, q: int, r: int) -> int:
    return q * (r + 1) * minimal_base(num_blocks, q) if num_blocks else 0


def color_classes_coloring(g: OrientedGraph, vc: VertexColoring, q: int) -> EdgeColoring:
    """Digit coloring of all edges from a proper vertex coloring.

    Blocks are the color classes (independent, so no inner edges, r = 0);
    monochromatic paths have length <= q*s with s^q >= #classes.
    """
    if not vc.is_proper(g):
        raise ColoringError("vertex coloring is not proper for this graph")
    blocks = [cls for cls in vc.classes() if cls]
    return block_product_coloring(g, blocks, EdgeColoring(q + 1, {}), 0)


def acyclic_edge_coloring(z: OrientedGraph, q: int) -> EdgeColoring:
    """q-coloring of an acyclic graph with no long monochromatic path.

    Vertices are bucketed by longest-path level; every edge ascends levels,
    and it takes the color of the lowest digit position where the head's
    level code exceeds the tail's.  Any monochromatic path has at most s
    vertices, s minimal with (levels) <= s^q.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    levels = level_decomposition(z)  # raises on cyclic input
    lvl = [0] * z.n
    for depth, vs in enumerate(levels):
        for v in vs:
            lvl[v] = depth
    s = minimal_base(len(levels), q)
    codes = [_digits(i, s, q) for i in range(len(levels))]
    assign = {}
    for (u, v) in z.edges():
        assign[(u, v)] = _increase_color(codes[lvl[u]], codes[lvl[v]])
    return EdgeColoring(q, assign) if assign else EdgeColoring(q, {})


def acyclic_coloring_bound(z: OrientedGraph, q: int) -> int:
    """Edge-length bound certified by acyclic_edge_coloring: s - 1."""
    levels = level_decomposition(z)
    if not levels:
        return 0
    return minimal_base(len(levels), q) - 1


# ---------------------------------------------------------------------------
# the full sparse-graph pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyRecord:
    size: int               # uniform block size a_i fixed for the step
    eps: float              # density parameter the step was computed at
    blocks: tuple[tuple[int, ...], ...]
    inner_bound: int        # r_i: max certified mono-path bound inside a block
    bound: int              # combined family bound q*(r_i+1)*s_i

    def to_dict(self) -> dict:
        return {"size": self.size, "eps": self.eps,
                "blocks": [list(b) for b in self.blocks],
                "inner_bound": self.inner_bound, "bound": self.bound}


@dataclass(frozen=True)
class FamilyPartition:
    """Trace of the adversary pipeline: the three parts and their bounds."""

    x: tuple[int, ...]
    families: tuple[FamilyRecord, ...]
    residue: tuple[int, ...]
    covered: tuple[int, ...]
    x_bound: int
    covered_bound: int
    residue_bound: int
    crossing_bound: int
    total_bound: int
    x_classes: int = 0
    residue_classes: int = 0

    def to_dict(self) -> dict:
        return {
            "x": list(self.x),
            "families": [f.to_dict() for f in self.families],
            "residue": list(self.residue),
            "covered": list(self.covered),
            "bounds": {"x": self.x_bound, "covered": self.covered_bound,
                       "residue": self.residue_bound,
                       "crossing": self.crossing_bound,
                       "total": self.total_bound},
            "x_classes": self.x_classes,
            "residue_classes": self.residue_classes,
        }


@dataclass(frozen=True)
class AdversaryResult:
    coloring: EdgeColoring
    partition: FamilyPartition


def _acyclic_candidates(h: OrientedGraph, cfg: ConstantsConfig) -> list[int]:
    """Largest acyclic set we can cheaply find in h, antiparallel pairs
    reduced first so the sparse search sees an oriented graph."""
    bad: set[int] = set()
    for (u, v) in h.edges():
        if u < v and h.has_edge(v, u) and u not in bad and v not in bad:
            bad.add(v)
    keep = [v for v in range(h.n) if v not in bad]
    if not keep:
        return []
    sub, back = h.subgraph(keep)
    res = sparse_acyclic_set(sub, cfg)
    return sorted(back[v] for v in res.vertices)


def _class_digit_part(g: OrientedGraph, verts: list[int], q: int):
    """Chromatic-then-digit coloring of an induced part, in host coordinates."""
    if not verts:
        return {}, 0, 0
    sub, back = g.subgraph(sorted(verts))
    vc = constructive_chromatic(sub)
    ec = color_classes_coloring(sub, vc, q)
    assign = {(back[u], back[v]): c for (u, v), c in ec.items()}
    bound = 0 if sub.edge_count == 0 else class_coloring_bound(vc.num_classes, q)
    return assign, bound, vc.num_classes


def theorem1_adversary(g: OrientedGraph, q: int,
                       cfg: ConstantsConfig = DEFAULT_CONFIG) -> AdversaryResult:
    """The sparse-digraph adversary: a (q+1)-coloring plus its trace.

    Pipeline: split off the low-degree part X; repeatedly extract uniform
    acyclic blocks from the high-degree remainder (halving its size per
    step) until its edge count falls under the termination threshold; color
    blocks by levels, combine blocks and then families by digit products,
    color X and the residue through proper colorings, and join the three
    parts with one forward and one backward escape color.

    The trace's total_bound is computed from the partition actually found,
    so it is a true upper bound on the coloring's monochromatic paths
    whatever the input was.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    n = g.n
    deg_thr = cfg.degree_threshold(n, q)
    term = cfg.termination_threshold(n, q)
    x_verts = [v for v in range(n) if g.degree(v) <= deg_thr]
    x_set = set(x_verts)
    y_cur = [v for v in range(n) if v not in x_set]
    m = len(y_cur)

    families_raw: list[tuple[int, float, tuple[tuple[int, ...], ...]]] = []
    i = 1
    while y_cur:
        h, _ = g.subgraph(y_cur)
        if h.edge_count <= term:
            break
        floor_i = m / 2 ** i
        if len(y_cur) <= floor_i:
            i += 1  # this step's coverage goal is already met
            continue
        eps_i = h.edge_count / max(floor_i, 1.0) ** 2
        a_i = max(1, math.floor(cfg.acyclic_target(max(2, int(floor_i)), eps_i)))
        cand = _acyclic_candidates(h, cfg)
        # never fix a block size the current graph cannot deliver
        a_i = min(a_i, max(1, len(cand)), len(y_cur))
        blocks_i: list[tuple[int, ...]] = []
        while len(y_cur) > floor_i:
            if len(cand) < a_i:
                break  # leftovers stay for later steps or the residue
            block = tuple(sorted(y_cur[lv] for lv in cand[:a_i]))
            blocks_i.append(block)
            taken = set(block)
            y_cur = [v for v in y_cur if v not in taken]
            if not y_cur or len(y_cur) <= floor_i:
                break
            h, _ = g.subgraph(y_cur)
            cand = _acyclic_candidates(h, cfg)
        if blocks_i:
            families_raw.append((a_i, eps_i, tuple(blocks_i)))
        i += 1
        if i > m + 128:
            raise AssertionError("internal: family procedure failed to terminate")

    residue = tuple(sorted(y_cur))
    covered = tuple(sorted(v for (_, _, blocks) in families_raw for b in blocks for v in b))

    assign: dict[tuple[int, int], int] = {}

    x_assign, x_bound, x_classes = _class_digit_part(g, x_verts, q)
    assign.update(x_assign)
    r_assign, r_bound, r_classes = _class_digit_part(g, list(residue), q)
    assign.update(r_assign)

    # per-block acyclic colorings with q+1 digit colors, plus family metadata
    fam_records: list[FamilyRecord] = []
    fam_of: dict[int, int] = {}
    blk_of: dict[int, int] = {}
    for f_idx, (a_i, eps_i, blocks) in enumerate(families_raw):
        r_i = 0
        for b_idx, block in enumerate(blocks):
            sub, back = g.subgraph(list(block))
            ec = acyclic_edge_coloring(sub, q + 1)
            for (u, v), c in ec.items():
                assign[(back[u], back[v])] = c
            r_i = max(r_i, acyclic_coloring_bound(sub, q + 1))
            for v in block:
                fam_of[v] = f_idx
                blk_of[v] = b_idx
        s_i = minimal_base(len(blocks), q)
        fam_records.append(FamilyRecord(
            size=a_i, eps=eps_i, blocks=blocks, inner_bound=r_i,
            bound=q * (r_i + 1) * s_i))

    n_fam = len(fam_records)
    s_fams = minimal_base(n_fam, q) if n_fam else 1
    fam_codes = [_digits(idx, s_fams, q) for idx in range(n_fam)]
    blk_codes = [
        [_digits(b, minimal_base(len(rec.blocks), q), q) for b in range(len(rec.blocks))]
        for rec in fam_records
    ]
    max_f = max((rec.bound for rec in fam_records), default=0)
    w_bound = q * (max_f + 1) * s_fams if n_fam else 0

    part = {}
    for v in x_verts:
        part[v] = 0
    for v in residue:
        part[v] = 1
    for v in covered:
        part[v] = 2

    for (u, v) in g.edges():
        if (u, v) in assign:
            continue
        pu, pv = part[u], part[v]
        if pu == 2 and pv == 2:
            fu, fv = fam_of[u], fam_of[v]
            if fu == fv:
                assign[(u, v)] = _pair_color(
                    blk_codes[fu][blk_of[u]], blk_codes[fu][blk_of[v]], q)
            else:
                assign[(u, v)] = _pair_color(fam_codes[fu], fam_codes[fv], q)
        else:
            # escape scheme: X -> residue -> covered forward in color 1,
            # all reverse directions in color 2
            assign[(u, v)] = 1 if pu < pv else 2

    coloring = EdgeColoring(q + 1, assign)
    coloring.validate_total(g)
    total = x_bound + r_bound + w_bound + 2
    partition = FamilyPartition(
        x=tuple(sorted(x_verts)), families=tuple(fam_records), residue=residue,
        covered=covered, x_bound=x_bound, covered_bound=w_bound,
        residue_bound=r_bound, crossing_bound=2, total_bound=total,
        x_classes=x_classes, residue_classes=r_classes)
    return AdversaryResult(coloring, partition)


def check_partition(g: OrientedGraph, result: AdversaryResult,
                    cfg: ConstantsConfig, q: int) -> None:
    """Re-verify every structural invariant of an adversary run."""
    p = result.partition
    all_parts = list(p.x) + list(p.residue) + list(p.covered)
    if sorted(all_parts) != list(range(g.n)):
        raise AssertionError("X, residue, covered do not partition V")
    for rec in p.families:
        sizes = {len(b) for b in rec.blocks}
        if sizes and sizes != {rec.size}:
            raise AssertionError(f"family block sizes {sizes} != {rec.size}")
        for b in rec.blocks:
            sub, _ = g.subgraph(list(b))
            if find_cycle(sub) is not None:
                raise AssertionError("family block is not acyclic")
    res_sub, _ = g.subgraph(list(p.residue))
    if res_sub.edge_count > cfg.termination_threshold(g.n, q):
        raise AssertionError("residue edge count above the termination threshold")
    part = {}
    for v in p.x:
        part[v] = 0
    for v in p.residue:
        part[v] = 1
    for v in p.covered:
        part[v] = 2
    for (u, v), c in result.coloring.items():
        if part[u] != part[v]:
            want = 1 if part[u] < part[v] else 2
            if c != want:
                raise AssertionError(
                    f"cross-part edge ({u},{v}) colored {c}, escape scheme wants {want}")


def symmetric_adversary(g: OrientedGraph, q: int) -> EdgeColoring:
    """Adversary for dense or non-simple digraphs: proper-color then digit.

    With m edges the class count is at most 2*sqrt(m) + 1, so monochromatic
    paths have length <= q * ceil((2*sqrt(m)+1)^(1/q)).
    """
    vc = constructive_chromatic(g)
    return color_classes_coloring(g, vc, q)
