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
from itertools import accumulate, compress, repeat
from operator import add, and_, or_
from typing import Iterator

from .config import DEFAULT_CONFIG, ConstantsConfig
from .errors import ColoringError, GraphShapeError
from .graphs import (EdgeColoring, OrientedGraph, Tournament, _selectors, _union, iter_bits,
                     mask_of)
from .paths import _levels, _reach, level_decomposition, longest_path_masks

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


def _digit_product(out: list[int], groups, q: int, rows: list[list[int]]) -> None:
    """OR the digit-product colors of the edges between `groups` into rows.

    Group i gets the base-s code of i in q digits, s minimal with
    len(groups) <= s^q.  An edge (u, v) from group i to another group j
    takes the lowest position where i's digit is below j's, or the escape
    color q+1 when no digit increases, and is set in rows[c - 1][u].  Edges
    inside a group or leaving the groups' union are left alone.  The colors
    are found per group and digit as mask unions, never per edge.
    """
    s = minimal_base(len(groups), q)
    codes = [_digits(i, s, q) for i in range(len(groups))]
    gmasks = [mask_of(grp) for grp in groups]
    at = [[0] * s for _ in range(q)]
    for code, m in zip(codes, gmasks):
        for y, d in enumerate(code):
            at[y][d] |= m
    upto = [list(accumulate(row, or_)) for row in at]  # digit y at most d
    for code, own, grp in zip(codes, gmasks, groups):
        rest = upto[0][-1] & ~own  # groups no earlier digit has risen into
        masks = []
        for y, d in enumerate(code):
            masks.append(rest & ~upto[y][d])
            rest &= upto[y][d]
        masks.append(rest)  # no digit rises: the escape color
        for row, mask in zip(rows, masks):
            if mask:
                for u in grp:
                    row[u] |= out[u] & mask


# ---------------------------------------------------------------------------
# acyclic sets
# ---------------------------------------------------------------------------


def _chain_in_tournament(out: list[int], alive: int) -> list[int]:
    """Greedy dominating chain in the tournament with out-masks `out` on
    the vertex set `alive`: argmax out-degree, recurse into its
    out-neighborhood.  Consecutive nesting makes the chain transitive, hence
    acyclic; sizes halve at worst, giving floor(log2 n) + 1 vertices."""
    chain: list[int] = []
    while alive:
        best_v, best_d = -1, -1
        m = alive
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            d = (out[v] & alive).bit_count()
            if d > best_d:
                best_v, best_d = v, d
        chain.append(best_v)
        alive &= out[best_v]
    return chain


def tournament_acyclic_set(t: Tournament) -> list[int]:
    """Acyclic set of size >= floor(log2 n) + 1 in a tournament: the
    Erdős–Moser bound, the dense case of the acyclic-set lemma.

    Picks a vertex of maximum out-degree (at least half the rest), keeps
    only its out-neighbors, and repeats; the picked vertices form a
    transitive chain.
    """
    g = t.underlying
    return _chain_in_tournament(g.out_masks(), g.full_mask())


def _completion_chain(out: list[int], inn: list[int], within: int) -> list[int]:
    """Chain via an implicit tournament completion of the graph with out-
    and in-masks `out` and `inn`, restricted to the vertex mask `within`.

    Missing pairs are oriented low id -> high id.  An acyclic set of the
    completion is acyclic in the graph, because the completion only gains
    edges.
    """
    comp = [0] * len(out)
    for v in iter_bits(within):
        o, i = out[v], inn[v]
        lower = within & ((1 << v) - 1)
        higher = within & -(2 << v)
        comp[v] = (higher & (o | ~i)) | (lower & o & ~i)
    return _chain_in_tournament(comp, within)


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


def _rows_within(out: list[int], tails: int, heads: int) -> Iterator[int]:
    """The rows of `out` of the vertices in the mask `tails`, in id order,
    each cut to the mask `heads`."""
    return map(and_, compress(out, _selectors(tails, len(out))), repeat(heads))


def _edges_within(out: list[int], within: int) -> int:
    return sum(map(int.bit_count, _rows_within(out, within, within)))


def _greedy_acyclic(out: list[int], inn: list[int], within: int) -> int:
    """The vertices of the mask `within` accepted in id order while they
    stay acyclic, as a mask.  With the kept set acyclic, v closes a cycle
    with it exactly when a kept out-neighbor of v reaches a kept
    in-neighbor of v through kept vertices; so a vertex set is acyclic
    exactly when this keeps all of it."""
    kept = 0
    for v in iter_bits(within):
        if not _reach(out, out[v] & kept, kept) & inn[v]:
            kept |= 1 << v
    return kept


def sparse_acyclic_set(g: OrientedGraph, cfg: ConstantsConfig = DEFAULT_CONFIG) -> AcyclicSetResult:
    """Large acyclic vertex set in a sparse oriented graph: the paper's
    acyclic-set lemma, on which the lower bound's blocks rest.

    Density >= 1/4 delegates to the tournament-completion chain.  Otherwise:
    drop vertices of in-degree > 2*eps*n, grow a greedy acyclic set U, then
    improve: among the vertices R whose out-neighborhoods in U are small,
    pack R' while their union `cover` stays small, extract a chain R'' of
    R', and swap it in for the covered part of U.  The new set
    R'' + (U - cover) stays acyclic: both parts are, and no edge leaves R''
    into U - cover, since cover holds every out-neighbor in U of R'.
    Stops at the configured target or on non-improvement (flagged, never an
    error).  The result always has at least floor(log2 n) + 1 vertices.
    Vertex ids, the steps' included, are g's.
    """
    out, inn = g.out_masks(), g.in_masks()
    if any(map(and_, out, inn)):
        raise GraphShapeError("input must be oriented (no antiparallel pairs)")
    return _sparse_acyclic(out, inn, g.full_mask(), cfg)


def _sparse_acyclic(out: list[int], inn: list[int], within: int,
                    cfg: ConstantsConfig) -> AcyclicSetResult:
    """`sparse_acyclic_set` of the oriented graph that the masks `out` and
    `inn` induce on the vertex mask `within`."""
    n = within.bit_count()
    if n == 0:
        return AcyclicSetResult((), 0.0, True)
    eps = _edges_within(out, within) / (n * n)
    target = cfg.acyclic_target(n, eps)
    floor_chain = sorted(_completion_chain(out, inn, within))

    if eps >= 0.25 or n <= 2:
        return AcyclicSetResult(tuple(floor_chain), target, len(floor_chain) >= target)

    keep = mask_of(v for v in iter_bits(within)
                   if (inn[v] & within).bit_count() <= 2 * eps * n)
    u_mask = _greedy_acyclic(out, inn, keep)
    steps: list[AcyclicSearchState] = []

    while (size := u_mask.bit_count()) < target:
        cover_limit = max(1, math.ceil(5 * eps * size))
        r_star, r = [], []
        for v in iter_bits(keep & ~u_mask):
            (r_star if (out[v] & u_mask).bit_count() > cover_limit else r).append(v)
        if not r:
            break
        # pack candidates while their combined cover stays within budget
        r.sort(key=lambda v: ((out[v] & u_mask).bit_count(), v))
        cover = 0
        r_prime = []
        for v in r:
            newcov = cover | (out[v] & u_mask)
            if newcov.bit_count() <= cover_limit:
                r_prime.append(v)
                cover = newcov
        r_dp = _completion_chain(out, inn, mask_of(r_prime))
        u_new = mask_of(r_dp) | (u_mask & ~cover)
        if u_new.bit_count() <= size:
            break
        steps.append(AcyclicSearchState(
            U=tuple(iter_bits(u_mask)), R_star=tuple(r_star), R=tuple(r),
            R_prime=tuple(r_prime), R_double_prime=tuple(r_dp)))
        u_mask = u_new

    best = list(iter_bits(u_mask))
    if len(floor_chain) > len(best):
        best = floor_chain
    best_mask = mask_of(best)
    if _greedy_acyclic(out, inn, best_mask) != best_mask:
        raise AssertionError("internal: produced vertex set is not acyclic")
    return AcyclicSetResult(tuple(best), target, len(best) >= target, tuple(steps))


# ---------------------------------------------------------------------------
# chromatic and digit colorings
# ---------------------------------------------------------------------------


def constructive_chromatic(g: OrientedGraph) -> list[list[int]]:
    """Proper coloring by greedy class merging, as its ascending class lists.

    Classes start as singletons; two classes merge whenever no edge joins
    them in either direction.  On exit every pair of classes is adjacent,
    so m >= C(count, 2) and the class count is at most 2*sqrt(m) + 1.
    """
    return _chromatic_classes(g.out_masks(), g.in_masks(), g.full_mask())


def _chromatic_classes(out: list[int], inn: list[int], within: int) -> list[list[int]]:
    """`constructive_chromatic`'s classes of the graph that the masks `out`
    and `inn` induce on the vertex mask `within`.  Class i starts at the
    lowest vertex still single and absorbs, while there is one, the lowest
    single vertex outside its neighborhood, so every class is ascending."""
    classes = []
    single = within
    while single:
        cls = []
        near = 0  # neighbors of the class either way
        free = single
        while free:
            low = free & -free
            v = low.bit_length() - 1
            cls.append(v)
            single ^= low
            near |= out[v] | inn[v]
            free = single & ~near
        classes.append(cls)
    return classes


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
    size = max(g.n, inner.n)  # inner edges beyond the host are stray too
    owner = [-1] * size
    for idx, blk in enumerate(blocks):
        for v in blk:
            if not 0 <= v < g.n:
                raise GraphShapeError(f"block vertex {v} outside host graph")
            if owner[v] >= 0:
                raise ColoringError(f"blocks overlap at vertex {v}")
            owner[v] = idx
    bmasks = [mask_of(blk) for blk in blocks]
    own = [bmasks[b] if b >= 0 else 0 for b in owner]
    rows = [inner.out_masks(c, size) for c in range(1, q + 2)]
    colored = _union(rows)
    stray = _first_edge(m & ~mine for m, mine in zip(colored, own))
    if stray:
        raise ColoringError("inner edge (%d,%d) does not stay within one block" % stray)
    out = g.out_masks()
    # past the block check every inner edge lies on host vertices
    extra = _first_edge(m & ~o for m, o in zip(colored, out))
    if extra:
        raise ColoringError("inner edge (%d,%d) is not an edge of the host graph" % extra)
    _verify_inner_bound(out, blocks, rows, r)
    missing = _first_edge(o & mine & ~m for o, m, mine in zip(out, colored, own))
    if missing:
        raise ColoringError(f"edge ({missing[0]},{missing[1]}) inside block "
                            f"{owner[missing[0]]} missing from inner coloring")
    _digit_product(out, blocks, q, rows)
    return EdgeColoring.from_masks(rows)


def _first_edge(masks) -> tuple[int, int] | None:
    """(u, v) for the lowest bit v of the first nonzero mask, row u."""
    for u, m in enumerate(masks):
        if m:
            return u, (m & -m).bit_length() - 1
    return None


_VERIFY_BLOCK_LIMIT = 12


def _verify_inner_bound(out: list[int], blocks, rows: list[list[int]], r: int) -> None:
    # precondition spot-check, only where exact search is affordable; the
    # inner coloring's mask `rows` keep every edge inside one block
    for blk in blocks:
        if not blk or len(blk) > _VERIFY_BLOCK_LIMIT:
            continue
        if not any(row[v] for row in rows for v in blk):
            continue  # no inner edge, no inner path
        bmask, top = mask_of(blk), max(blk) + 1
        for c, row in enumerate(rows, 1):
            adj = [m & o & bmask for m, o in zip(row[:top], out)]
            if len(longest_path_masks(adj)[0]) > r + 1:
                raise ColoringError(
                    f"inner coloring has a color-{c} path longer than r={r} in a block")


def block_product_bound(num_blocks: int, q: int, r: int) -> int:
    return q * (r + 1) * minimal_base(num_blocks, q) if num_blocks else 0


def color_classes_coloring(g: OrientedGraph, classes: list[list[int]], q: int) -> EdgeColoring:
    """Digit coloring of all edges from a proper vertex coloring, given as
    class lists that partition the vertices.

    Blocks are the color classes (independent, so no inner edges, r = 0);
    monochromatic paths have length <= q*s with s^q >= #classes.  An edge
    inside a class is one the empty inner coloring misses, which
    `block_product_coloring` refuses.
    """
    if sorted(v for cls in classes for v in cls) != list(range(g.n)):
        raise ColoringError("vertex classes do not partition the graph's vertices")
    blocks = [cls for cls in classes if cls]
    return block_product_coloring(g, blocks, EdgeColoring(q + 1, {}), 0)


def acyclic_edge_coloring(z: OrientedGraph, q: int) -> EdgeColoring:
    """q-coloring of an acyclic graph with no long monochromatic path: the
    level-digit coloring of one block in the paper's lower bound.

    Vertices are bucketed by longest-path level; every edge ascends levels,
    and it takes the color of the lowest digit position where the head's
    level code exceeds the tail's.  Any monochromatic path has at most s
    vertices, s minimal with (levels) <= s^q.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    levels = level_decomposition(z)  # raises on cyclic input
    rows = [[0] * z.n for _ in range(q + 1)]
    _digit_product(z.out_masks(), levels, q, rows)
    # a later level has the larger code, so some digit rises: the escape
    # color q+1 never occurs
    return EdgeColoring.from_masks(rows[:q])


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
        return dict(vars(self))


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


def _acyclic_candidates(out: list[int], inn: list[int], within: int,
                        cfg: ConstantsConfig) -> list[int]:
    """Largest acyclic set we can cheaply find among the vertices of the
    mask `within`, in ascending order, antiparallel pairs reduced first so
    the sparse search sees an oriented graph."""
    # greedy over pairs u < v in lexicographic order: a pair whose ends
    # are both still in drops v
    bad = 0
    for u in iter_bits(within):
        if not bad >> u & 1:
            bad |= out[u] & inn[u] & ~bad & -(2 << u)
    return list(_sparse_acyclic(out, inn, within & ~bad, cfg).vertices)


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
    out, inn = g.out_masks(), g.in_masks()
    degrees = map(add, map(int.bit_count, out), map(int.bit_count, inn))
    x_verts = list(compress(range(n), map(deg_thr.__ge__, degrees)))
    x_mask = mask_of(x_verts)
    y_mask = g.full_mask() ^ x_mask
    m = y_mask.bit_count()

    families_raw: list[tuple[int, float, tuple[tuple[int, ...], ...]]] = []
    i = 1
    while y_mask:
        edges = _edges_within(out, y_mask)
        if edges <= term:
            break
        floor_i = m / 2 ** i
        if y_mask.bit_count() <= floor_i:
            i += 1  # this step's coverage goal is already met
            continue
        eps_i = edges / max(floor_i, 1.0) ** 2
        a_i = max(1, math.floor(cfg.acyclic_target(max(2, int(floor_i)), eps_i)))
        cand = _acyclic_candidates(out, inn, y_mask, cfg)
        # never fix a block size the current graph cannot deliver; cand is
        # never empty (the lowest vertex is never dropped as antiparallel, and
        # an acyclic set has a vertex), so the first block is always taken
        a_i = min(a_i, len(cand))
        blocks_i: list[tuple[int, ...]] = []
        while y_mask.bit_count() > floor_i:
            if len(cand) < a_i:
                break  # leftovers stay for later steps or the residue
            block = tuple(cand[:a_i])
            blocks_i.append(block)
            y_mask ^= mask_of(block)
            if y_mask.bit_count() <= floor_i:
                break
            cand = _acyclic_candidates(out, inn, y_mask, cfg)
        families_raw.append((a_i, eps_i, tuple(blocks_i)))
        i += 1
        if i > m + 128:
            raise AssertionError("internal: family procedure failed to terminate")

    residue = tuple(iter_bits(y_mask))
    covered = tuple(sorted(v for (_, _, blocks) in families_raw for b in blocks for v in b))

    # colors 1..q+1, plus one row list for the escape color of the level
    # products, which never occurs because block edges ascend levels
    rows = [[0] * n for _ in range(q + 2)]
    # one digit over the three parts: X -> residue -> covered forward in
    # color 1, all reverse directions in color 2
    _digit_product(out, [x_verts, residue, covered], 1, rows)

    # X and the residue (what y_mask holds now): proper coloring of the
    # part, then its classes
    found = []
    for part in (x_mask, y_mask):
        classes = _chromatic_classes(out, inn, part)
        _digit_product(out, classes, q, rows)
        inside = any(_rows_within(out, part, part))  # stops at the first edge
        bound = block_product_bound(len(classes), q, 0) if inside else 0
        found.append((bound, len(classes)))
    (x_bound, x_classes), (r_bound, r_classes) = found

    # blocks by levels with q+1 digits, then blocks within a family, then
    # families
    fam_records: list[FamilyRecord] = []
    for a_i, eps_i, blocks in families_raw:
        r_i = 0
        for block in blocks:
            levels = _levels(inn, mask_of(block))
            _digit_product(out, levels, q + 1, rows)
            r_i = max(r_i, minimal_base(len(levels), q + 1) - 1)
        _digit_product(out, blocks, q, rows)
        fam_records.append(FamilyRecord(
            size=a_i, eps=eps_i, blocks=blocks, inner_bound=r_i,
            bound=block_product_bound(len(blocks), q, r_i)))
    _digit_product(out, [[v for b in blocks for v in b] for _, _, blocks in families_raw],
                   q, rows)

    max_f = max((rec.bound for rec in fam_records), default=0)
    w_bound = block_product_bound(len(fam_records), q, max_f)

    coloring = EdgeColoring.from_masks(rows[:q + 1])
    coloring.validate_total(g)
    total = x_bound + r_bound + w_bound + 2
    partition = FamilyPartition(
        x=tuple(x_verts), families=tuple(fam_records), residue=residue,
        covered=covered, x_bound=x_bound, covered_bound=w_bound,
        residue_bound=r_bound, crossing_bound=2, total_bound=total,
        x_classes=x_classes, residue_classes=r_classes)
    return AdversaryResult(coloring, partition)


def check_partition(g: OrientedGraph, result: AdversaryResult,
                    cfg: ConstantsConfig, q: int) -> None:
    """Re-verify every structural invariant of an adversary run.

    The escape scheme is tested per part (X, residue, covered) and color:
    one pass over the part's rows of the color looks for an edge into a
    part the color may not reach.  Only when one is found does a scan of
    the vertices in id order name the first offending edge."""
    p = result.partition
    all_parts = list(p.x) + list(p.residue) + list(p.covered)
    if sorted(all_parts) != list(range(g.n)):
        raise AssertionError("X, residue, covered do not partition V")
    out, inn = g.out_masks(), g.in_masks()
    for rec in p.families:
        sizes = {len(b) for b in rec.blocks}
        if sizes and sizes != {rec.size}:
            raise AssertionError(f"family block sizes {sizes} != {rec.size}")
        for b in map(mask_of, rec.blocks):
            if _greedy_acyclic(out, inn, b) != b:
                raise AssertionError("family block is not acyclic")
    res, cov = mask_of(p.residue), mask_of(p.covered)
    x = g.full_mask() ^ res ^ cov  # the three parts partition V
    if _edges_within(out, res) > cfg.termination_threshold(g.n, q):
        raise AssertionError("residue edge count above the termination threshold")
    coloring = result.coloring
    masks = [coloring.out_masks(c, g.n) for c in range(1, coloring.num_colors + 1)]
    # per part, what each color may not reach from it: color 1 may only
    # run forward, color 2 only backward, no other color between parts
    rules = [(part, [before, after] + [before | after] * (len(masks) - 2))
             for part, before, after in ((x, 0, res | cov), (res, x, cov), (cov, x | res, 0))]
    if not any(w and any(_rows_within(rows, part, w))
               for part, wrong in rules for rows, w in zip(masks, wrong)):
        return
    for u in range(g.n):
        wrong = next(wrong for part, wrong in rules if part >> u & 1)
        bad = 0
        for rows_c, w in zip(masks, wrong):
            bad |= rows_c[u] & w
        if bad:
            v = (bad & -bad).bit_length() - 1
            want = 1 if wrong[1] >> v & 1 else 2
            raise AssertionError(
                f"cross-part edge ({u},{v}) colored {coloring.color(u, v)}, "
                f"escape scheme wants {want}")


def symmetric_adversary(g: OrientedGraph, q: int) -> EdgeColoring:
    """Adversary for dense or non-simple digraphs: proper-color then digit,
    the lower bound for digraphs with antiparallel edges.

    With m edges the class count is at most 2*sqrt(m) + 1, so monochromatic
    paths have length <= q * ceil((2*sqrt(m)+1)^(1/q)).
    """
    return color_classes_coloring(g, constructive_chromatic(g), q)
