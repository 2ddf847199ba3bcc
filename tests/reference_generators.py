"""The generators as they built hosts edge by edge, kept verbatim as the
reference for the mask-filling generators in `pseudorandom` and the random
coloring of `experiment`.  They draw through `randrange`, `random` and
`randint`, keep a set of tuple keys and pass an edge list (or an edge dict)
to the checking constructors, sharing no drawing or mask code with the
versions under test.  The sampled refuter is kept too, as it drew each set
A through `random.Random.sample`: the reference for the refuter that
replays those draws with `getrandbits`.
"""
import itertools
import random

from dipath_ramsey.errors import GraphShapeError
from dipath_ramsey.graphs import (EdgeColoring, OrientedGraph, Tournament, as_graph,
                                  iter_bits)


def random_tournament(n: int, seed: int) -> Tournament:
    """Uniform random tournament; identical (n, seed) gives identical edges."""
    if n < 1:
        raise GraphShapeError("need n >= 1")
    rng = random.Random(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return Tournament(OrientedGraph(n, edges))


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def paley_tournament(p: int) -> Tournament:
    """Quadratic-residue tournament on Z_p, for prime p congruent 3 mod 4.

    Edge i -> j exactly when (i - j) mod p is a nonzero square; p = 3 mod 4
    makes -1 a non-square, so exactly one direction exists per pair.
    """
    if not is_prime(p):
        raise GraphShapeError(f"{p} is not prime")
    if p % 4 != 3:
        raise GraphShapeError(f"{p} is not congruent to 3 mod 4")
    residues = {(x * x) % p for x in range(1, p)}
    edges = [(i, j) for i in range(p) for j in range(p)
             if i != j and (i - j) % p in residues]
    return Tournament(OrientedGraph(p, edges))


def random_oriented_graph(n: int, m: int, seed: int) -> OrientedGraph:
    """Random oriented graph with exactly m edges (no antiparallel pairs)."""
    if n < 0:
        raise GraphShapeError(f"vertex count must be nonnegative, got {n}")
    if not 0 <= m <= n * (n - 1) // 2:
        raise GraphShapeError(f"m={m} is outside 0..{n * (n - 1) // 2} for n={n}")
    rng = random.Random(seed)
    chosen = set()
    edges = []
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in chosen:
            continue
        chosen.add(key)
        edges.append((u, v))
    return OrientedGraph(n, edges)


def random_digraph(n: int, m: int, seed: int) -> OrientedGraph:
    """Random non-simple digraph with exactly m edges (antiparallel allowed)."""
    if n < 0:
        raise GraphShapeError(f"vertex count must be nonnegative, got {n}")
    if not 0 <= m <= n * (n - 1):
        raise GraphShapeError(f"m={m} is outside 0..{n * (n - 1)} for n={n}")
    rng = random.Random(seed)
    chosen = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            chosen.add((u, v))
    return OrientedGraph(n, sorted(chosen), allow_antiparallel=True)


def _random_coloring(g: OrientedGraph, colors: int, seed: int) -> EdgeColoring:
    rng = random.Random(seed)
    return EdgeColoring(colors,
                        {e: rng.randint(1, colors) for e in g.edges()})


def refute_pseudorandomness(g, k: int, trials: int, seed: int):
    """Monte Carlo search for a violating pair; None means none was found.

    Each trial samples only A and applies the closure test of
    `_violating_pair`: some B exists exactly when k vertices lie outside A
    and its out-neighborhoods, and then the lowest k of them are B.  The
    search is one-sided: a returned pair is a certain refutation, while
    None only suggests the property holds.
    """
    g = as_graph(g)
    n = g.n
    if k < 1 or k > n // 2:
        raise ValueError(f"k must be in [1, {n // 2}] for n={n}")
    closure = [g.out_mask(v) | 1 << v for v in range(n)]
    full = g.full_mask()
    vertices = range(n)
    rng = random.Random(seed)
    for _ in range(trials):
        a = rng.sample(vertices, k)
        closed = 0
        for v in a:
            closed |= closure[v]
        free = full & ~closed
        if free.bit_count() >= k:
            return tuple(sorted(a)), tuple(itertools.islice(iter_bits(free), k))
    return None
