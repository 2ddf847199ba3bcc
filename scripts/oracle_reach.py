#!/usr/bin/env python3
"""Reach of the oracle's coloring search on known arrow questions.

Runs one decision of the coloring search per question, directly and
without the product floor that lets `arrowing_check` skip some of them:
rot9 -> P_4, TT9 -> P_3, TT10 -> P_3, rot11 -> P_4 and TT16 -> P_4 at
q=2, and TT9 -> P_2 and rot7 -> P_2 at q=3 (rotn is the rotational
tournament on Z_n, TTn the transitive one).  Prints the answer, the nodes and the CPU seconds of
each, and exits nonzero when an answer differs from the known one or a
search runs out of nodes.

    PYTHONPATH=src python scripts/oracle_reach.py

Each search may take the oracle's default budget, 2^22 nodes.
"""
import sys
import time

from dipath_ramsey import OrientedGraph, transitive_tournament
from dipath_ramsey import oracle
from dipath_ramsey.errors import BudgetExceededError


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
        arrows = witness is None
        status = "" if arrows == known else "  WRONG"
        wrong += arrows != known
        print(f"{name}: {'arrows' if arrows else 'does not arrow'}, "
              f"{nodes:,} nodes, {time.process_time() - t0:.2f} s{status}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
