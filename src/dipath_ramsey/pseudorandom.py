"""Tournament generators and k-pseudorandomness machinery.

A digraph is k-pseudorandom when every two disjoint k-sets A, B span at
least one edge from A to B.  This module measures that quantity exactly
(small n), refutes it by sampling (large n), and implements the two path
constructions whose guarantees are conditional on it.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import ceil, comb, isqrt, log

from .config import DEFAULT_CONFIG
from .errors import BudgetExceededError, GraphShapeError, ThreadingError
from .graphs import (
    DirectedPath,
    OrientedGraph,
    Tournament,
    as_graph,
    iter_bits,
    mask_of,
)

# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniform random tournament: one `random()` coin per pair u < v, in
    lexicographic order, gives u -> v below 0.5."""
    if n < 1:
        raise GraphShapeError("need n >= 1")
    coin = random.Random(seed).random
    out = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if coin() < 0.5:
                out[u] |= 1 << v
            else:
                out[v] |= 1 << u
    return _tournament(out)


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def paley_tournament(p: int) -> Tournament:
    """Quadratic-residue tournament on Z_p, for prime p congruent 3 mod 4.

    Edge i -> j exactly when (i - j) mod p is a nonzero square; p = 3 mod 4
    makes -1 a non-square, so exactly one direction exists per pair.
    """
    if not is_prime(p):
        raise GraphShapeError(f"{p} is not prime")
    if p % 4 != 3:
        raise GraphShapeError(f"{p} is not congruent to 3 mod 4")
    # 0 -> j exactly when -j is a square; i -> i + j whenever 0 -> j, so
    # vertex i's out-mask is vertex 0's rotated by i inside p bits
    first, full = mask_of({-(x * x) % p for x in range(1, p)}), (1 << p) - 1
    return _tournament([(first << i | first >> (p - i)) & full for i in range(p)])


def _tournament(out: list[int]) -> Tournament:
    # each vertex's in-mask is every other vertex outside its out-mask
    full = (1 << len(out)) - 1
    inn = [full ^ 1 << v ^ o for v, o in enumerate(out)]
    return Tournament(OrientedGraph.from_masks(len(out), out, inn))


def random_oriented_graph(n: int, m: int, seed: int) -> OrientedGraph:
    """Random oriented graph with exactly m edges (no antiparallel pairs)."""
    return _random_edges(n, m, seed, antiparallel=False)


def random_digraph(n: int, m: int, seed: int) -> OrientedGraph:
    """Random non-simple digraph with exactly m edges (antiparallel allowed)."""
    return _random_edges(n, m, seed, antiparallel=True)


def _random_edges(n: int, m: int, seed: int, antiparallel: bool) -> OrientedGraph:
    """m edges drawn as pairs u, v of `rng.randrange(n)`, spelled out as
    n.bit_length() random bits drawn again while >= n, so the same
    (n, m, seed) gives the same graph as every earlier version.  A loop, a
    taken edge and, unless antiparallel, a taken edge's reverse are skipped."""
    if n < 0:
        raise GraphShapeError(f"vertex count must be nonnegative, got {n}")
    top = n * (n - 1) if antiparallel else n * (n - 1) // 2
    if not 0 <= m <= top:
        raise GraphShapeError(f"m={m} is outside 0..{top} for n={n}")
    bits, k = random.Random(seed).getrandbits, n.bit_length()
    out, inn = [0] * n, [0] * n
    taken_in = [0] * n if antiparallel else inn
    while m:
        u = v = n
        while u >= n:
            u = bits(k)
        while v >= n:
            v = bits(k)
        if u == v or (out[u] | taken_in[u]) >> v & 1:
            continue
        out[u] |= 1 << v
        inn[v] |= 1 << u
        m -= 1
    return OrientedGraph.from_masks(n, out, inn, allow_antiparallel=antiparallel)


# ---------------------------------------------------------------------------
# pseudorandomness measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PseudorandomnessReport:
    mode: str  # "exact" | "sampled"
    k_star: int | None = None
    counterexample: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    trials: int = 0
    vacuous: bool = False
    explored: int = 0

    def to_dict(self) -> dict:
        out = {"mode": self.mode, "trials": self.trials, "vacuous": self.vacuous,
               "explored": self.explored}
        if self.k_star is not None:
            out["k_star"] = self.k_star
        if self.counterexample is not None:
            out["counterexample"] = [list(self.counterexample[0]),
                                     list(self.counterexample[1])]
        return out


def _violating_pair(g: OrientedGraph, k: int):
    """First (A, B) with |A|=|B|=k and no A->B edge, scanning A ascending.

    Only A needs enumeration: a partner B exists exactly when at least k
    vertices lie outside A and all of A's out-neighborhoods.  A grows
    depth-first in lexicographic order, carrying that free set.  Adding a
    vertex only shrinks it, so a prefix that leaves fewer than k free
    vertices has no extension and its subtree is skipped.
    """
    n = g.n
    closure = [g.out_mask(v) | 1 << v for v in range(n)]
    a: list[int] = []

    def grow(start: int, free: int) -> int:
        if len(a) == k:
            return free
        for v in range(start, n - k + len(a) + 1):
            rest = free & ~closure[v]
            if rest.bit_count() >= k:
                a.append(v)
                found = grow(v + 1, rest)
                if found:
                    return found
                a.pop()
        return 0

    free = grow(0, g.full_mask())
    if not free:
        return None
    return tuple(a), tuple(itertools.islice(iter_bits(free), k))


def pseudorandomness_exact(g, budget: int = DEFAULT_CONFIG.subset_budget) -> PseudorandomnessReport:
    """Minimal k_star such that g is k_star-pseudorandom, by upward scan.

    Monotone: once the property holds at k it holds for larger sizes, so the
    scan stops at the first passing k.  Sizes past floor(n/2) admit no
    disjoint pair at all; reaching them is reported as vacuous.

    `explored` is the budget charge, C(n, k) for each size scanned, not the
    number of sets A visited: the scan skips every A whose prefix already
    leaves fewer than k candidates for B.
    """
    g = as_graph(g)
    n = g.n
    explored = 0
    last_violation = None
    k = 1
    while True:
        if k > n // 2:
            return PseudorandomnessReport(
                mode="exact", k_star=k, counterexample=last_violation,
                vacuous=True, explored=explored)
        cost = comb(n, k)
        if explored + cost > budget:
            raise BudgetExceededError(
                f"subset budget exhausted at k={k} ({explored + cost} > {budget}); "
                "fall back to sampled mode")
        explored += cost
        violation = _violating_pair(g, k)
        if violation is None:
            return PseudorandomnessReport(
                mode="exact", k_star=k, counterexample=last_violation,
                vacuous=False, explored=explored)
        last_violation = violation
        k += 1


def refute_pseudorandomness(g, k: int, trials: int, seed: int):
    """Monte Carlo search for a violating pair; None means none was found.

    Each trial samples only A and applies the closure test of
    `_violating_pair`: some B exists exactly when k vertices lie outside A
    and its out-neighborhoods, and then the lowest k of them are B.  The
    search is one-sided: a returned pair is a certain refutation, while
    None only suggests the property holds.

    A is drawn as `random.Random(seed).sample(range(n), k)` draws it, the
    same `getrandbits` calls in the same order, so a seed gives the same
    pairs as a call of `sample` per trial: from a pool of the vertices not
    yet drawn when n is at most `sample`'s set-size threshold, else
    redrawing any draw that is already in A or at least n.  One table of
    2^w entries, w the bit length of n, marks the draws: an id holds the
    last trial that drew it, and an id at or above n holds trials + 1, so a
    draw is redrawn exactly when its entry is at least the current trial.
    Each vertex's closure is taken in as the vertex is drawn, and A is read
    off the table only for the pair returned.
    """
    g = as_graph(g)
    n = g.n
    if k < 1 or k > n // 2:
        raise ValueError(f"k must be in [1, {n // 2}] for n={n}")
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    closure = [g.out_mask(v) | 1 << v for v in range(n)]
    full = g.full_mask()
    bits = random.Random(seed).getrandbits
    setsize = 21  # `sample`'s threshold between its two ways of drawing
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    vertices = list(range(n)) if n <= setsize else None
    # the pool's size at each draw and the bits `randbelow` draws for it
    sizes = [(i, i.bit_length()) for i in range(n, n - k, -1)]
    width = n.bit_length()
    stamp = [0] * n + [trials + 1] * ((1 << width) - n)
    for trial in range(1, trials + 1):
        closed = 0
        if vertices is not None:
            pool = vertices[:]
            for i, w in sizes:
                j = bits(w)
                while j >= i:
                    j = bits(w)
                v = pool[j]
                pool[j] = pool[i - 1]
                stamp[v] = trial
                closed |= closure[v]
        else:
            for _ in range(k):
                j = bits(width)
                while stamp[j] >= trial:
                    j = bits(width)
                stamp[j] = trial
                closed |= closure[j]
        free = full & ~closed
        if free.bit_count() >= k:
            return (tuple(v for v in range(n) if stamp[v] == trial),
                    tuple(itertools.islice(iter_bits(free), k)))
    return None


# ---------------------------------------------------------------------------
# conditional path constructions
# ---------------------------------------------------------------------------


def dfs_long_path(g) -> DirectedPath:
    """Long path via depth-first search: the deepest stack, which always
    spans a directed path; the DFS lemma behind the paper's upper bound.

    At the moment the popped set S and the unvisited set T have equal
    size, no edge runs from S to T, so on a k-pseudorandom input
    |S| = |T| < k and the stack then holds more than n - 2k vertices: the
    result has length >= n - 2k + 1.

    Vertices are explored in ascending id order for reproducibility.
    """
    g = as_graph(g)
    return DirectedPath(_dfs_path(g.out_masks(), g.full_mask()))


def _dfs_path(out: list[int], within: int) -> tuple[int, ...]:
    """`dfs_long_path`'s vertices on the graph that the out-masks `out`
    induce on the vertex mask `within`, in their ids."""
    t_mask = within  # unvisited
    n = within.bit_count()
    s_count = 0
    stack: list[int] = []
    best: tuple[int, ...] = ()
    while s_count < n:
        # an empty stack restarts from the lowest unvisited vertex
        candidates = out[stack[-1]] & t_mask if stack else t_mask
        if not candidates:
            stack.pop()
            s_count += 1
            continue
        lowest = candidates & -candidates
        t_mask &= ~lowest
        stack.append(lowest.bit_length() - 1)
        if len(stack) > len(best):
            best = tuple(stack)
    return best


def thread_path_through_sets(g: OrientedGraph,
                             sets: list[tuple[int, ...]]) -> DirectedPath:
    """Path visiting one vertex from each set, in order.

    Works backwards: the good vertices of a set are those with an edge into
    the good part of the next set.  A k-pseudorandom graph keeps every good
    set large when all sets have >= 2k vertices; on failure the 1-based
    index of the set whose good part emptied is reported.
    """
    t = len(sets)
    if t == 0:
        return DirectedPath(())
    seen: set[int] = set()
    for idx, s in enumerate(sets):
        if not s:
            raise ThreadingError(f"set {idx + 1} is empty", idx + 1)
        overlap = seen & set(s)
        if overlap:
            raise ThreadingError(f"sets are not disjoint at {sorted(overlap)[0]}", idx + 1)
        seen |= set(s)
    good = [0] * t
    good[t - 1] = mask_of(sets[t - 1])
    for j in range(t - 2, -1, -1):
        nxt = good[j + 1]
        mask = 0
        for v in sets[j]:
            if g.out_mask(v) & nxt:
                mask |= 1 << v
        if mask == 0:
            raise ThreadingError(
                f"no vertex of set {j + 1} reaches the good part of set {j + 2}",
                j + 1)
        good[j] = mask
    path = []
    lowest = good[0] & -good[0]
    v = lowest.bit_length() - 1
    path.append(v)
    for j in range(1, t):
        options = g.out_mask(v) & good[j]
        lowest = options & -options
        v = lowest.bit_length() - 1
        path.append(v)
    return DirectedPath(path)
