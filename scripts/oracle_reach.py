#!/usr/bin/env python3
"""Reach of the oracle's coloring search on known arrow questions, and
of the exact path engine on known cyclic classes.

Runs one decision of the coloring search per question, directly and
without the product floor that lets `arrowing_check` skip some of them:
rot9 -> P_4, TT9 -> P_3, TT10 -> P_3, rot11 -> P_4 and TT16 -> P_4 at
q=2, TT9 -> P_2 and rot7 -> P_2 at q=3, and rot7 -> P_6 and rot7 -> P_7
at q=1 (rotn is the rotational tournament on Z_n, TTn the transitive
one).  The q=1 questions sit above bound 3, where the search checks each
new edge with `oracle._path_through` rather than the short search, and
`paths.longest_path_masks` confirms their answers: one color arrows P_k
exactly when the host has a path of k edges.  Then measures the longest
path of three cyclic classes with `paths.longest_path_masks`: a 3-cycle
beside a 21-edge path, K14 with an edge to each of 2 sinks, and K17
(Kn with both directions of every edge).  Prints the answer, the nodes
or states charged and the CPU seconds of each, and exits nonzero when an
answer differs from the known one or a search runs out of its budget.

    PYTHONPATH=src python scripts/oracle_reach.py

Each coloring search may take the oracle's default budget, 2^22 nodes,
and each path search the engine's, 2^20 states.
"""
import sys
import time

from dipath_ramsey import OrientedGraph, complete_symmetric, transitive_tournament
from dipath_ramsey import oracle
from dipath_ramsey.errors import BudgetExceededError
from dipath_ramsey.paths import longest_path_masks


def rotational(n: int) -> OrientedGraph:
    return OrientedGraph(n, [(i, (i + d) % n) for i in range(n)
                             for d in range(1, n // 2 + 1)])


# (name, host, target path edges, colors, whether it arrows)
QUESTIONS = [
    ("rot9 -> P_4, q=2", rotational(9), 4, 2, True),
    ("TT9 -> P_3, q=2", transitive_tournament(9), 3, 2, False),
    ("TT10 -> P_3, q=2", transitive_tournament(10), 3, 2, True),
    ("TT9 -> P_2, q=3", transitive_tournament(9), 2, 3, True),
    ("rot7 -> P_2, q=3", rotational(7), 2, 3, True),
    ("rot11 -> P_4, q=2", rotational(11), 4, 2, True),
    ("TT16 -> P_4, q=2", transitive_tournament(16), 4, 2, False),
    ("rot7 -> P_6, q=1", rotational(7), 6, 1, True),
    ("rot7 -> P_7, q=1", rotational(7), 7, 1, False),
]

# (name, out-masks of a cyclic class, edges of its longest path)
CLASSES = [
    ("3-cycle beside a 21-edge path",
     OrientedGraph(25, [(0, 1), (1, 2), (2, 0)]
                   + [(i, i + 1) for i in range(3, 24)]).out_masks(), 21),
    ("K14 with 2 sinks", OrientedGraph(16, [(a, b) for a in range(14) for b in range(16)
                                            if a != b], allow_antiparallel=True).out_masks(), 14),
    ("K17", complete_symmetric(17).out_masks(), 16),
]


def main() -> int:
    wrong = 0
    for name, g, target, q, known in QUESTIONS:
        t0 = time.process_time()
        try:
            witness, nodes = oracle._decision_search(
                g.n, oracle._search_order(g), q, target - 1, oracle.COLORING_BUDGET, 0)
        except BudgetExceededError:
            print(f"{name}: out of nodes after {oracle.COLORING_BUDGET:,}, "
                  f"{time.process_time() - t0:.2f} s")
            wrong += 1
            continue
        seconds = time.process_time() - t0
        arrows = witness is None
        bad = arrows != known
        confirm = ""
        if q == 1:
            # one color arrows P_target exactly when the host has such a path
            longest = len(longest_path_masks(g.out_masks())[0]) - 1
            bad |= (longest >= target) != known
            confirm = f", longest path {longest}"
        wrong += bad
        print(f"{name}: {'arrows' if arrows else 'does not arrow'}, "
              f"{nodes:,} nodes{confirm}, {seconds:.2f} s{'  WRONG' if bad else ''}")
    for name, adj, known in CLASSES:
        t0 = time.process_time()
        try:
            vertices, states = longest_path_masks(adj)
        except BudgetExceededError as exc:
            print(f"{name}: {exc}, {time.process_time() - t0:.2f} s")
            wrong += 1
            continue
        value = len(vertices) - 1
        status = "" if value == known else "  WRONG"
        wrong += value != known
        print(f"{name}: longest path {value}, {states:,} states, "
              f"{time.process_time() - t0:.2f} s{status}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
