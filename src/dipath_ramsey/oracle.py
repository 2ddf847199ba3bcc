"""Exact reference answers for small colored digraphs.

Everything here is brute force with pruning, meant to check the
constructive modules and to pin expected values in tests, not to scale.
The two central questions: how long is the longest monochromatic path of a
given coloring, and what is the best (minimal) value an adversary can
force over all colorings with a given number of colors.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, SizeLimitError
from .graphs import DirectedPath, EdgeColoring, OrientedGraph
from .paths import EXACT_VERTEX_LIMIT, longest_path_masks

# the search only asks for a path of bound+1 edges, so its subset DP stops
# early and affords a larger cyclic support than a full longest-path call
_CLASS_SUPPORT_LIMIT = 22

# search nodes min_max_mono_path and arrowing_check may spend by default
COLORING_BUDGET = 1 << 22


@dataclass(frozen=True)
class OracleResult:
    value: int
    witness: object  # DirectedPath, EdgeColoring, or None
    explored: int

    def to_dict(self) -> dict:
        if isinstance(self.witness, DirectedPath):
            witness = list(self.witness.vertices)
        elif isinstance(self.witness, EdgeColoring):
            witness = [[u, v, c] for (u, v), c in self.witness.items()]
        else:
            witness = None
        return {"value": self.value, "witness": witness, "explored": self.explored}


def longest_mono_path(g: OrientedGraph, coloring: EdgeColoring,
                      limit: int = EXACT_VERTEX_LIMIT) -> dict[int, OracleResult]:
    """Exact longest path per color class, as {color: result}.

    Acyclic classes are handled in linear time at any size.  Cyclic classes
    are compressed to their support (vertices with an incident edge of that
    color) and solved by subset DP; support beyond `limit` raises
    SizeLimitError rather than returning an estimate.
    """
    coloring.validate_total(g)
    out: dict[int, OracleResult] = {}
    for color in range(1, coloring.num_colors + 1):
        try:
            vertices, explored = longest_path_masks(coloring.out_masks(color, g.n),
                                                    limit=limit)
        except SizeLimitError as exc:
            raise SizeLimitError(f"color {color}: {exc}") from None
        p = DirectedPath(vertices)
        out[color] = OracleResult(p.length, p, explored)
    return out


def max_mono_path(g: OrientedGraph, coloring: EdgeColoring,
                  limit: int = EXACT_VERTEX_LIMIT) -> int:
    """Longest monochromatic path over all colors of one coloring."""
    per_color = longest_mono_path(g, coloring, limit)
    return max((r.value for r in per_color.values()), default=0)


def _decision_search(g: OrientedGraph, q: int, bound: int, budget: int,
                     spent: int) -> tuple[EdgeColoring | None, int]:
    """A q-coloring of g with every monochromatic path <= bound, or None.

    Colors are interchangeable, so edge i may only use colors up to one
    past the highest color already used (canonical-form symmetry
    reduction).  `spent` nodes are already charged against the budget.
    """
    edges = g.edges()
    m = len(edges)
    # per-color out-masks and edge counts, updated as edges are (un)assigned
    adj = [[0] * g.n for _ in range(q + 1)]
    count = [0] * (q + 1)
    nodes = spent

    def dfs(pos: int, used: int) -> bool:
        nonlocal nodes
        if pos == m:
            return True
        e = edges[pos]
        u, bit = e[0], 1 << e[1]
        for c in range(1, min(q, used + 1) + 1):
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"coloring search exceeded {budget} nodes")
            adj[c][u] |= bit
            count[c] += 1
            # fewer than bound+1 edges can never form a longer path
            ok = count[c] <= bound or len(longest_path_masks(
                adj[c], bound, _CLASS_SUPPORT_LIMIT)[0]) <= bound + 1
            if ok and dfs(pos + 1, max(used, c)):
                return True
            adj[c][u] ^= bit
            count[c] -= 1
        return False

    if dfs(0, 0):
        return EdgeColoring.from_masks(adj[1:]), nodes
    return None, nodes


def min_max_mono_path(g: OrientedGraph, q: int,
                      budget: int = COLORING_BUDGET) -> OracleResult:
    """Smallest achievable longest-monochromatic-path over all q-colorings.

    Exhaustive (with symmetry and pruning); the witness is a coloring
    attaining the minimum.  Intended for |E| around 20 or less at q=2.
    The search is the only limit: it raises BudgetExceededError when it
    needs more than `budget` nodes, with no up-front estimate from q^|E|.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    if g.edge_count == 0:
        return OracleResult(0, EdgeColoring(q, {}), 0)
    spent = 0
    for bound in range(1, g.n):
        witness, spent = _decision_search(g, q, bound, budget, spent)
        if witness is not None:
            return OracleResult(bound, witness, spent)
    raise AssertionError("a path of length n-1 can never be exceeded")


def arrowing_check(g: OrientedGraph, n_target: int, q: int,
                   budget: int = COLORING_BUDGET) -> tuple[bool, EdgeColoring | None]:
    """Does every q-coloring of g contain a monochromatic path of length
    (in edges) at least n_target?  Equivalent to min_max_mono_path(g, q)
    >= n_target.  Returns (answer, witness) with a refuting coloring when
    the answer is False."""
    if n_target < 0:
        raise ValueError("n_target must be >= 0")
    if q < 1:
        raise ValueError("q must be >= 1")
    if n_target == 0:
        return True, None
    witness, _ = _decision_search(g, q, n_target - 1, budget, 0)
    if witness is not None:
        return False, witness
    return True, None
