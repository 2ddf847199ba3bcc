#!/usr/bin/env python3
"""Exhaustive and randomized audit of the two-path cycle decomposition.

Checks every 2-coloring of the complete symmetric digraph for t <= 5
(over 10^6 instances at t=5), then random colorings for t up to 48.
Each decomposition is validated structurally and its best segment checked
against the ceil(t/2) promise (t >= 2).  Also reports how often each of the two
construction layers (single insertion, one-vertex repair) placed a new
vertex, by instrumenting the internal helpers.

Exits nonzero on the first violation.
"""
import argparse
import random
import sys
from collections import Counter

from dipath_ramsey import EdgeColoring, complete_symmetric, raynaud
from dipath_ramsey import classic

LAYERS = ("single_insert", "repair_insert")


class LayerCounter:
    """Wrap the two private construction layers with hit counters.  The
    repair single-inserts the vertex it moved; that inner call is the
    repair's work and is not counted as a single insertion."""

    def __init__(self):
        self.hits = Counter()
        self._orig = None
        self._in_repair = False

    def __enter__(self):
        insert, repair = self._orig = classic._insert, classic._repair

        def counted_insert(*args):
            out = insert(*args)
            if out and not self._in_repair:
                self.hits["single_insert"] += 1
            return out

        def counted_repair(*args):
            self._in_repair = True
            try:
                out = repair(*args)
            finally:
                self._in_repair = False
            if out:
                self.hits["repair_insert"] += 1
            return out

        classic._insert, classic._repair = counted_insert, counted_repair
        return self

    def __exit__(self, *exc):
        classic._insert, classic._repair = self._orig
        return False


def check_one(t: int, coloring: EdgeColoring) -> None:
    dec = raynaud(t, coloring)
    dec.validate(coloring)
    seg, _ = dec.best_segment()
    promise = min(t - 1, (t + 1) // 2)  # ceil(t/2) for t >= 2
    if seg.length < promise:
        raise AssertionError(
            f"t={t}: best segment {seg.length} < {promise}"
            f" for coloring {dict(coloring.items())}")


def exhaustive(t: int) -> int:
    host = complete_symmetric(t)
    edges = host.edges()
    for bits in range(1 << len(edges)):
        coloring = EdgeColoring(2, {e: 1 + ((bits >> i) & 1)
                                    for i, e in enumerate(edges)})
        check_one(t, coloring)
    return 1 << len(edges)


def randomized(t: int, samples: int, rng: random.Random) -> int:
    edges = complete_symmetric(t).edges()
    for _ in range(samples):
        coloring = EdgeColoring(2, {e: rng.randint(1, 2) for e in edges})
        check_one(t, coloring)
    return samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-exhaustive", type=int, default=5,
                    help="largest t checked over ALL colorings (default 5)")
    ap.add_argument("--samples", type=int, default=200,
                    help="random colorings per medium t (default 200)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    total = 0
    with LayerCounter() as counter:
        for t in range(1, args.max_exhaustive + 1):
            n = exhaustive(t)
            total += n
            print(f"t={t}: {n} colorings exhaustively verified")
        for t in (6, 9, 14, 25, 34, 48):
            n = randomized(t, args.samples, rng)
            total += n
            print(f"t={t}: {n} random colorings verified")
    print(f"\n{total} decompositions valid; construction layer hits:")
    for layer in LAYERS:
        print(f"  {layer:>14}: {counter.hits.get(layer, 0)}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"VIOLATION: {exc}", file=sys.stderr)
        sys.exit(1)
