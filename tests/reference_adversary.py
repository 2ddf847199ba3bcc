"""The acyclic-set search of the adversary as it ran on relabelled
subgraphs, kept verbatim as the reference for the mask-level search in
`adversary`.  Its acyclicity test is its own: a depth-first `find_cycle`
on the induced subgraph of each candidate set, sharing no code with the
reach loop and Kahn's algorithm that the mask-level search and
`paths.find_cycle` use.  Only the data classes, the tournament chain and
the configuration come from the package.

Step states of `sparse_acyclic_set` here carry the ids of the
degree-filtered subgraph, and `_acyclic_candidates` returns ids of its
argument graph; the tests map both to host ids before comparing.

`_chromatic_classes` is the pairwise class merge of the adversary, which
tested each later singleton against each class in turn and deleted list
items as it merged, kept verbatim as the reference for the merge by
neighborhood masks.

`check_partition` is the invariant check of the adversary, which scanned
the escape scheme one vertex at a time, kept verbatim (with its per-vertex
`_edges_within`, and the package's mask-level greedy test under another
name) as the reference for the check per part and color.
"""
import math

from dipath_ramsey.adversary import (AcyclicSearchState, AcyclicSetResult, AdversaryResult,
                                     _chain_in_tournament)
from dipath_ramsey.adversary import _greedy_acyclic as _greedy_acyclic_masks
from dipath_ramsey.config import DEFAULT_CONFIG, ConstantsConfig
from dipath_ramsey.errors import GraphShapeError
from dipath_ramsey.graphs import OrientedGraph, iter_bits, mask_of
from reference_builder import subgraph


def find_cycle(g: OrientedGraph) -> list[int] | None:
    """Some directed cycle as a vertex list, or None if g is acyclic."""
    WHITE, GRAY, BLACK = 0, 1, 2
    state = [WHITE] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if state[root] != WHITE:
            continue
        stack = [(root, iter_bits(g.out_mask(root)))]
        state[root] = GRAY
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if state[w] == GRAY:
                    cycle = [w]
                    cur = v
                    while cur != w:
                        cycle.append(cur)
                        cur = parent[cur]
                    cycle.reverse()
                    return cycle
                if state[w] == WHITE:
                    state[w] = GRAY
                    parent[w] = v
                    stack.append((w, iter_bits(g.out_mask(w))))
                    advanced = True
                    break
            if not advanced:
                state[v] = BLACK
                stack.pop()
    return None


def _completion_chain(g: OrientedGraph, verts: list[int]) -> list[int]:
    """Chain via an implicit tournament completion of g restricted to verts.

    Missing pairs are oriented low id -> high id.  An acyclic set of the
    completion is acyclic in g, because the completion only gains edges.
    """
    within = mask_of(verts)
    out = [0] * g.n
    for v in verts:
        o, i = g.out_mask(v), g.in_mask(v)
        lower = within & ((1 << v) - 1)
        higher = within & ~lower & ~(1 << v)
        out[v] = (higher & (o | ~i)) | (lower & o & ~i)
    return _chain_in_tournament(out, within)


def _greedy_acyclic(g: OrientedGraph) -> list[int]:
    """Vertices accepted in id order while the induced subgraph stays acyclic."""
    kept: list[int] = []
    for v in range(g.n):
        sub, _ = subgraph(g, kept + [v])
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
    if any(g.out_mask(v) & g.in_mask(v) for v in range(n)):
        raise GraphShapeError("input must be oriented (no antiparallel pairs)")
    eps = g.edge_count / (n * n)
    target = cfg.acyclic_target(n, eps)
    floor_chain = _completion_chain(g, list(range(n)))

    if eps >= 0.25 or n <= 2:
        best = floor_chain
        return AcyclicSetResult(tuple(sorted(best)), target, len(best) >= target)

    keep = [v for v in range(n) if g.in_degree(v) <= 2 * eps * n]
    h, back = subgraph(g, keep)
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
    sub, _ = subgraph(g, best)
    if find_cycle(sub) is not None:
        raise AssertionError("internal: produced vertex set is not acyclic")
    return AcyclicSetResult(tuple(best), target, len(best) >= target, tuple(steps))


def _acyclic_candidates(h: OrientedGraph, cfg: ConstantsConfig) -> list[int]:
    """Largest acyclic set we can cheaply find in h, antiparallel pairs
    reduced first so the sparse search sees an oriented graph."""
    # greedy over pairs u < v in lexicographic order: a pair whose ends
    # are both still in drops v
    bad = 0
    for u in range(h.n):
        if not bad >> u & 1:
            bad |= h.out_mask(u) & h.in_mask(u) & ~bad & -(2 << u)
    if not bad:
        return sorted(sparse_acyclic_set(h, cfg).vertices)
    sub, back = subgraph(h, (v for v in range(h.n) if not bad >> v & 1))
    res = sparse_acyclic_set(sub, cfg)
    return sorted(back[v] for v in res.vertices)


def _chromatic_classes(out: list[int], inn: list[int], within: int) -> list[list[int]]:
    """`constructive_chromatic`'s classes of the graph that the masks `out`
    and `inn` induce on the vertex mask `within`.  Class i absorbs later
    classes, singletons still, so every class is ascending."""
    members = [[v] for v in iter_bits(within)]
    near = [out[v] | inn[v] for v in iter_bits(within)]  # neighbors either way
    vmask = [1 << v for v in iter_bits(within)]
    i = 0
    while i < len(members):
        j = i + 1
        while j < len(members):
            if near[i] & vmask[j]:
                j += 1
            else:
                members[i] += members[j]
                near[i] |= near[j]
                vmask[i] |= vmask[j]
                del members[j], near[j], vmask[j]
        i += 1
    return members


def _edges_within(out: list[int], within: int) -> int:
    return sum((out[v] & within).bit_count() for v in iter_bits(within))


def check_partition(g: OrientedGraph, result: AdversaryResult,
                    cfg: ConstantsConfig, q: int) -> None:
    """Re-verify every structural invariant of an adversary run."""
    p = result.partition
    all_parts = list(p.x) + list(p.residue) + list(p.covered)
    if sorted(all_parts) != list(range(g.n)):
        raise AssertionError("X, residue, covered do not partition V")
    out, inn = g.out_masks(), [g.in_mask(v) for v in range(g.n)]
    for rec in p.families:
        sizes = {len(b) for b in rec.blocks}
        if sizes and sizes != {rec.size}:
            raise AssertionError(f"family block sizes {sizes} != {rec.size}")
        for b in map(mask_of, rec.blocks):
            if _greedy_acyclic_masks(out, inn, b) != b:
                raise AssertionError("family block is not acyclic")
    x, res, cov = mask_of(p.x), mask_of(p.residue), mask_of(p.covered)
    if _edges_within(out, res) > cfg.termination_threshold(g.n, q):
        raise AssertionError("residue edge count above the termination threshold")
    coloring = result.coloring
    masks = [coloring.out_masks(c, g.n) for c in range(1, coloring.num_colors + 1)]
    for u in range(g.n):
        before, after = ((0, res | cov) if x >> u & 1 else
                         (x, cov) if res >> u & 1 else (x | res, 0))
        # color 1 may only run forward, color 2 only backward, no other
        # color between parts
        wrong = [before, after] + [before | after] * (len(masks) - 2)
        bad = 0
        for rows_c, w in zip(masks, wrong):
            bad |= rows_c[u] & w
        if bad:
            v = (bad & -bad).bit_length() - 1
            want = 1 if after >> v & 1 else 2
            raise AssertionError(
                f"cross-part edge ({u},{v}) colored {coloring.color(u, v)}, "
                f"escape scheme wants {want}")
