"""Core graph types.

Vertices are always 0..n-1.  Adjacency is kept as one Python int bitmask per
vertex in each direction, so direction queries, neighborhood unions and
set-restricted scans are single big-int operations; a graph built from
out-masks alone derives its in-masks on first use, by the one density rule
(`_dense`) that every module follows: one bit-matrix transpose when
m >= 8n and n^2 < 32 m, else a walk over its edges.  Edge colorings keep
one such out-mask list per color.  Graphs are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import or_
from typing import Iterable, Iterator

from .errors import ColoringError, GraphShapeError


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of `mask` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# n^2 below _DENSE * m makes a graph dense enough that the O(n^2) bit
# table and transpose beat ORing one bit per edge (see formats).  Below
# n = 256 the walk also wins up to m = 8n, where the two arms meet; the
# measurements behind both arms are in CHANGES.md.
_DENSE = 32


def _dense(n: int, m: int) -> bool:
    """Whether n vertices and m edges take the O(n^2) bit table and transpose."""
    return m >= 8 * n and n * n < _DENSE * m


def _transpose(out: list[int], n: int) -> list[int]:
    """In-masks of the n x n bit matrix whose rows are `out`: row u's
    digits run from bit n - 1 down, so column v is every n-th digit."""
    spec = f"0{n}b"
    digits = "".join([format(row, spec) for row in reversed(out)])
    return [int(digits[n - 1 - v::n], 2) for v in range(n)]


def _in_masks_of(out: list[int], m: int) -> list[int]:
    """In-masks of the digraph with out-masks `out` and m edges: one
    transpose when it is dense, else one OR per edge."""
    n = len(out)
    if _dense(n, m):
        return _transpose(out, n)
    inn = [0] * n
    for u, row in enumerate(out):
        bit = 1 << u
        while row:
            low = row & -row
            inn[low.bit_length() - 1] |= bit
            row ^= low
    return inn


def _union(masks: list[list[int]]) -> list[int]:
    """The OR of equal-length mask lists, row by row."""
    union = masks[0]
    for rows in masks[1:]:
        union = list(map(or_, union, rows))
    return union


class OrientedGraph:
    """A finite digraph without self loops.

    With ``allow_antiparallel=False`` (the default) at most one of (u, v) and
    (v, u) may be present; with ``True`` both directions are legal, which is
    how complete symmetric digraphs and per-color subgraphs of them are
    represented.
    """

    __slots__ = ("n", "allow_antiparallel", "_out", "_in", "_m")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 allow_antiparallel: bool = False):
        if n < 0:
            raise GraphShapeError(f"vertex count must be nonnegative, got {n}")
        self.n = n
        self.allow_antiparallel = allow_antiparallel
        self._out = [0] * n
        self._in = [0] * n
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphShapeError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphShapeError(f"self loop at vertex {u}")
            if self._out[u] >> v & 1:
                continue
            if not allow_antiparallel and (self._out[v] >> u & 1):
                raise GraphShapeError(
                    f"antiparallel pair ({u},{v})/({v},{u}) in an oriented graph")
            self._out[u] |= 1 << v
            self._in[v] |= 1 << u
            m += 1
        self._m = m

    @classmethod
    def from_masks(cls, n: int, out: list[int], in_masks: list[int] | None = None,
                   allow_antiparallel: bool = False) -> "OrientedGraph":
        """Graph with out-masks `out` (and in-masks `in_masks`, when the
        caller has them), taken as given: the caller vouches for n vertices,
        no self loop, and no antiparallel pair unless allowed.  Missing
        in-masks are derived on first use."""
        g = cls.__new__(cls)
        g.n = n
        g.allow_antiparallel = allow_antiparallel
        g._out = out
        g._in = in_masks
        g._m = sum(map(int.bit_count, out))
        return g

    def _in_masks(self) -> list[int]:
        if self._in is None:
            self._in = _in_masks_of(self._out, self._m)
        return self._in

    # -- queries ---------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._out[u] >> v & 1)

    def out_mask(self, v: int) -> int:
        return self._out[v]

    def out_masks(self) -> list[int]:
        """All out-masks, one per vertex (a fresh list)."""
        return list(self._out)

    def in_mask(self, v: int) -> int:
        return (self._in or self._in_masks())[v]

    def out_degree(self, v: int) -> int:
        return self._out[v].bit_count()

    def in_degree(self, v: int) -> int:
        return (self._in or self._in_masks())[v].bit_count()

    def degree(self, v: int) -> int:
        return self.out_degree(v) + self.in_degree(v)

    def edges(self) -> list[tuple[int, int]]:
        """All edges sorted lexicographically; this is the canonical order
        used by the text format and by deterministic algorithms."""
        out = []
        for u in range(self.n):
            for v in iter_bits(self._out[u]):
                out.append((u, v))
        return out

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    # -- plumbing --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrientedGraph):
            return NotImplemented
        return (self.n == other.n
                and self.allow_antiparallel == other.allow_antiparallel
                and self._out == other._out)

    def __hash__(self):
        return hash((self.n, self.allow_antiparallel, tuple(self._out)))

    def __repr__(self) -> str:
        kind = "symmetric" if self.allow_antiparallel else "oriented"
        return f"OrientedGraph(n={self.n}, m={self._m}, {kind})"


def complete_symmetric(n: int) -> OrientedGraph:
    """The complete symmetric digraph: both directions of every pair."""
    edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    return OrientedGraph(n, edges, allow_antiparallel=True)


def transitive_tournament(n: int) -> OrientedGraph:
    """The transitive tournament TT_n: the edge (u, v) for every u < v."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return OrientedGraph(n, edges)


def is_tournament(g: OrientedGraph) -> bool:
    """Exactly one direction present for every vertex pair: each vertex's
    out- and in-masks are disjoint and together cover every other vertex."""
    full = g.full_mask()
    for v in range(g.n):
        o, i = g.out_mask(v), g.in_mask(v)
        if o & i or o | i != full ^ 1 << v:
            return False
    return True


@dataclass(frozen=True)
class Tournament:
    """An orientation of the complete graph; validated on construction."""

    underlying: OrientedGraph

    def __post_init__(self):
        if not is_tournament(self.underlying):
            raise GraphShapeError("underlying graph is not a tournament")


def as_graph(g) -> OrientedGraph:
    """Accept either a bare OrientedGraph or a Tournament wrapper."""
    return g.underlying if isinstance(g, Tournament) else g


@dataclass(frozen=True)
class DirectedPath:
    """A simple directed path given by its vertex sequence.

    The empty path (no vertices) is permitted and has length 0; so does the
    single-vertex path.  `length` counts edges.
    """

    vertices: tuple[int, ...]

    def __init__(self, vertices: Iterable[int]):
        object.__setattr__(self, "vertices", tuple(vertices))
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise GraphShapeError(f"path repeats a vertex: {self.vertices}")

    @property
    def length(self) -> int:
        return max(0, len(self.vertices) - 1)

    def is_valid_in(self, g: OrientedGraph) -> bool:
        vs = self.vertices
        if any(not (0 <= v < g.n) for v in vs):
            return False
        return all(g.has_edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1))

    def edges(self) -> list[tuple[int, int]]:
        vs = self.vertices
        return [(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]


class EdgeColoring:
    """A total map from a host graph's edges to colors 1..num_colors.

    Stored as one out-mask list per color, the layout OrientedGraph uses:
    bit v of ``_out[c - 1][u]`` is set when edge (u, v) has color c.  Each
    list has one row per vertex up to the highest id an edge touches, so
    equal assignments give equal lists.
    """

    __slots__ = ("num_colors", "_out", "_m")

    def __init__(self, num_colors: int, assignment: dict[tuple[int, int], int]):
        if num_colors < 1:
            raise ColoringError(f"need at least one color, got {num_colors}")
        colors = assignment.values()
        if colors and not (1 <= min(colors) and max(colors) <= num_colors):
            (u, v), c = next(item for item in assignment.items()
                             if not 1 <= item[1] <= num_colors)
            raise ColoringError(f"color {c} for edge ({u},{v}) outside 1..{num_colors}")
        ids = list(chain.from_iterable(assignment))
        if ids and min(ids) < 0:
            raise ColoringError("vertex ids must be nonnegative")
        n = 1 + max(ids, default=-1)
        out = [[0] * n for _ in range(num_colors)]
        for (u, v), c in assignment.items():
            out[c - 1][u] |= 1 << v
        self.num_colors = num_colors
        self._out = out
        self._m = len(assignment)

    @classmethod
    def from_masks(cls, masks: list[list[int]]) -> "EdgeColoring":
        """Coloring whose color c has the out-masks masks[c - 1], one color
        per list.  The caller vouches that no edge has two colors."""
        self = cls.__new__(cls)
        self.num_colors = len(masks)
        # one row past the highest tail, and past the highest head
        n = max(map(int.bit_length, chain.from_iterable(masks)), default=0)
        for rows in masks:
            last = len(rows)
            while last > n and not rows[last - 1]:
                last -= 1
            n = max(n, last)
        self._out = [rows[:n] + [0] * (n - len(rows)) for rows in masks]
        self._m = sum(map(int.bit_count, chain.from_iterable(self._out)))
        return self

    @property
    def n(self) -> int:
        """Rows held per color: one more than the highest vertex id an edge
        touches (0 for no edges)."""
        return len(self._out[0])

    def out_masks(self, c: int, n: int) -> list[int]:
        """Out-masks of color c's edges for vertices 0..n-1 (a fresh list;
        all zero for a color outside 1..num_colors)."""
        rows = self._out[c - 1][:n] if 1 <= c <= self.num_colors else []
        return rows + [0] * (n - len(rows))

    def get(self, u: int, v: int, default=None):
        if 0 <= v and 0 <= u < len(self._out[0]):
            for c, rows in enumerate(self._out, 1):
                if rows[u] >> v & 1:
                    return c
        return default

    def color(self, u: int, v: int) -> int:
        c = self.get(u, v)
        if c is None:
            raise KeyError((u, v))
        return c

    def items(self) -> list[tuple[tuple[int, int], int]]:
        """All ((u, v), color) pairs sorted by (u, v)."""
        out = []
        for u, rows in enumerate(zip(*self._out)):
            m = 0
            for row in rows:
                m |= row
            while m:
                low = m & -m
                c = 1
                while not rows[c - 1] & low:
                    c += 1
                out.append(((u, low.bit_length() - 1), c))
                m ^= low
        return out

    def __len__(self) -> int:
        return self._m

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeColoring):
            return NotImplemented
        return self.num_colors == other.num_colors and self._out == other._out

    def _check_covers(self, want: list[int]) -> None:
        """The colored edges are exactly those of the out-masks `want`."""
        have = _union(self._out)
        if len(have) != len(want):
            size = max(len(have), len(want))
            have = have + [0] * (size - len(have))
            want = want + [0] * (size - len(want))
        if have == want:
            return
        for what, diff in (("uncolored edges", [w & ~h for w, h in zip(want, have)]),
                           ("colored non-edges", [h & ~w for w, h in zip(want, have)])):
            count = sum(map(int.bit_count, diff))
            if count:
                u = next(i for i, m in enumerate(diff) if m)
                v = (diff[u] & -diff[u]).bit_length() - 1
                raise ColoringError(f"{count} {what}, e.g. {(u, v)}")

    def validate_total(self, g: OrientedGraph) -> None:
        """Every edge of g colored, and nothing else."""
        self._check_covers(g.out_masks())

    def validate_complete(self, t: int) -> None:
        """Every arc of the complete symmetric digraph on t vertices
        colored, and nothing else (validate_total on that host)."""
        full = (1 << t) - 1
        self._check_covers([full ^ 1 << u for u in range(t)])
