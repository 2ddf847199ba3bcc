"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -m acceptance -s`` to see the verdict lines as they
happen; without ``-s`` they still appear for failing criteria.  Criterion 8
contains a sub-claim that is mathematically false (see the assertion
message for the counterexample); it is implemented as stated and left to
fail rather than weakened.
"""
import itertools
import math
import random
import time

import pytest

from dipath_ramsey import (
    ConstantsConfig,
    EdgeColoring,
    ExperimentManifest,
    GeneratorSpec,
    OrientedGraph,
    arrowing_check,
    block_product_bound,
    block_product_coloring,
    acyclic_edge_coloring,
    complete_symmetric,
    dfs_long_path,
    gallai_roy,
    level_decomposition,
    longest_path_exact,
    max_mono_path,
    min_max_mono_path,
    minimal_base,
    pseudorandomness_exact,
    random_oriented_graph,
    random_tournament,
    raynaud,
    refute_pseudorandomness,
    run_experiment,
    symmetric_adversary,
    theorem1_adversary,
    two_color_path_finder,
    DirectedPath,
)
from reference_classic import is_proper_partition

pytestmark = pytest.mark.acceptance

RELAXED = ConstantsConfig.relaxed()


def _verdict(num: int, ok: bool, detail: str, elapsed: float, limit: float):
    line = (f"ACCEPTANCE {num}: {'PASS' if ok and elapsed < limit else 'FAIL'}"
            f" ({detail}; {elapsed:.1f}s of {limit:.0f}s allowed)")
    print(line)
    assert ok, line
    assert elapsed < limit, line


def test_criterion_1_raynaud_exhaustive():
    t0 = time.time()
    checked = 0
    ok = True
    for t in (2, 3, 4):
        g = complete_symmetric(t)
        edges = g.edges()
        for bits in range(1 << len(edges)):
            col = EdgeColoring(2, {e: 1 + ((bits >> i) & 1)
                                   for i, e in enumerate(edges)})
            dec = raynaud(t, col)
            dec.validate(col)
            seg, _ = dec.best_segment()
            if seg.length < (t + 1) // 2:
                ok = False
            checked += 1
    _verdict(1, ok, f"{checked} colorings, all segments >= ceil(t/2)",
             time.time() - t0, 10)


def test_criterion_2_gallai_roy_dichotomy():
    t0 = time.time()
    rng = random.Random(2)
    colorings = paths = 0
    ok = True
    for i in range(500):
        n = rng.randint(1, 12)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_oriented_graph(n, m, i)
        thr = rng.randint(1, 6)
        outcome = gallai_roy(g, thr)
        if isinstance(outcome, DirectedPath):
            paths += 1
            if not (outcome.is_valid_in(g) and outcome.length >= thr):
                ok = False
        else:
            colorings += 1
            exact = longest_path_exact(g).length
            if not is_proper_partition(g, outcome) or len(outcome) > exact + 1:
                ok = False
    _verdict(2, ok, f"500 digraphs: {colorings} colorings, {paths} paths",
             time.time() - t0, 30)


def test_criterion_3_digit_coloring_bounds():
    t0 = time.time()
    rng = random.Random(3)
    ok = True
    for i in range(250):
        q = 1 + i % 3
        n = rng.randint(2, 14)
        # random DAG: edges oriented along a random permutation
        perm = list(range(n))
        rng.shuffle(perm)
        edges = []
        for u in range(n):
            for v in range(n):
                if perm[u] < perm[v] and rng.random() < 0.3:
                    edges.append((u, v))
        z = OrientedGraph(n, edges)
        col = acyclic_edge_coloring(z, q)
        levels = len(level_decomposition(z))
        if z.edge_count and max_mono_path(z, col) > minimal_base(levels, q):
            ok = False
    for i in range(250):
        q = 1 + i % 3
        n = rng.randint(2, 14)
        g = random_oriented_graph(n, rng.randint(0, n * (n - 1) // 2), i + 9000)
        verts = list(range(n))
        rng.shuffle(verts)
        blocks, at = [], 0
        while at < n:
            size = min(rng.randint(1, 2), n - at)
            blocks.append(tuple(sorted(verts[at:at + size])))
            at += size
        owner = {v: bi for bi, b in enumerate(blocks) for v in b}
        q1 = q + 1
        inner = EdgeColoring(q1, {(u, v): q1 for (u, v) in g.edges()
                                  if owner[u] == owner[v]})
        r = 1 if any(owner[u] == owner[v] for (u, v) in g.edges()) else 0
        col = block_product_coloring(g, blocks, inner, r)
        if g.edge_count and max_mono_path(g, col) > block_product_bound(
                len(blocks), q, r):
            ok = False
    _verdict(3, ok, "500 instances across q in {1,2,3}, exact search",
             time.time() - t0, 60)


def test_criterion_4_pseudorandomness_statistics():
    t0 = time.time()
    ok = True
    counts = {}
    for n in (32, 64):
        k = math.ceil(2 * math.log2(n))
        clean = sum(
            refute_pseudorandomness(random_tournament(n, seed), k,
                                    100_000, seed) is None
            for seed in range(20))
        counts[n] = clean
        if clean < 19:
            ok = False
    _verdict(4, ok, f"clean tournaments per n: {counts}", time.time() - t0, 120)


def test_criterion_5_dfs_path_bound():
    t0 = time.time()
    rng = random.Random(55)
    ok = True
    for i in range(200):
        n = rng.randint(3, 14)
        t = random_tournament(n, i)
        k_star = pseudorandomness_exact(t).k_star
        p = dfs_long_path(t)
        if p.length < n - 2 * k_star + 1:
            ok = False
    _verdict(5, ok, "200 tournaments n<=14, exact k_star",
             time.time() - t0, 120)


def test_criterion_6_adversary_validity():
    t0 = time.time()
    ok = True
    pairs = [(u, v) for u in range(4) for v in range(4) if u < v]
    for bits in range(3 ** 6):
        states, x = [], bits
        for _ in range(6):
            states.append(x % 3)
            x //= 3
        edges = [(u, v) if s == 1 else (v, u)
                 for (u, v), s in zip(pairs, states) if s]
        g = OrientedGraph(4, edges)
        res = theorem1_adversary(g, 1, RELAXED)
        res.coloring.validate_total(g)
        measured = max_mono_path(g, res.coloring)
        if not (min_max_mono_path(g, 2).value <= measured
                <= res.partition.total_bound):
            ok = False
    rng = random.Random(66)
    for i in range(200):
        n = rng.randint(2, 10)
        m = rng.randint(1, min(14, n * (n - 1) // 2))
        g = random_oriented_graph(n, m, i + 1000)
        res = theorem1_adversary(g, 1, RELAXED)
        res.coloring.validate_total(g)
        measured = max_mono_path(g, res.coloring)
        if not (min_max_mono_path(g, 2).value <= measured
                <= res.partition.total_bound):
            ok = False
    _verdict(6, ok, "729 orientations + 200 random graphs, q=1",
             time.time() - t0, 300)


def test_criterion_7_builder_soundness():
    t0 = time.time()
    ok = True
    for n in (64, 128):
        k = math.ceil(2 * math.log2(n))
        g = random_tournament(n, 1).underlying
        if refute_pseudorandomness(g, k, 50_000, n) is not None:
            ok = False  # sampled validation of the pseudorandomness level
            continue
        rng = random.Random(n)
        for _ in range(50):
            col = EdgeColoring(2, {e: rng.randint(1, 2) for e in g.edges()})
            cert = two_color_path_finder(g, col, k, RELAXED)
            cert.validate(g, col)
            tr = cert.trace
            scale = tr.c_red * k if cert.color == 1 else tr.c_blue
            if not (cert.guarantee_active and cert.path.length * scale >= n):
                ok = False
    _verdict(7, ok, "n in {64,128}, 50 colorings each, guarantees met",
             time.time() - t0, 300)


def test_criterion_8_duality_desk_scale():
    t0 = time.time()
    arrows, _ = arrowing_check(complete_symmetric(4), 2, 2)
    ok = arrows
    bad = []
    # literal sub-claim: every digraph with m < 4 edges admits a coloring
    # with no 2-edge monochromatic path, and symmetric_adversary finds it.
    # This is false: on the directed 3-cycle (m=3) the three cyclically
    # adjacent edges cannot be 2-colored without two consecutive edges
    # sharing a color, so EVERY coloring leaves a 2-edge path.  The true
    # threshold is m <= 2.  Kept as stated; expected to fail here.
    pairs3 = [(u, v) for u in range(6) for v in range(6) if u != v]
    for m in range(1, 4):
        for chosen in itertools.combinations(pairs3, m):
            g = OrientedGraph(6, list(chosen), allow_antiparallel=True)
            col = symmetric_adversary(g, 1)
            if max_mono_path(g, col) >= 2:
                bad.append(chosen)
    # exhaustive m <= 6 sweep at the 4-vertex host scale: the coloring is
    # total and never exceeds its own class-count bound
    pairs6 = [(u, v) for u in range(4) for v in range(4) if u != v]
    swept = 0
    for m in range(7):
        for chosen in itertools.combinations(pairs6, m):
            g = OrientedGraph(4, list(chosen), allow_antiparallel=True)
            col = symmetric_adversary(g, 1)
            col.validate_total(g)
            bound = math.ceil(2 * math.sqrt(m) + 1) if m else 0
            if max_mono_path(g, col) > bound:
                ok = False
            swept += 1
    if bad:
        ok = False
    _verdict(8, ok,
             f"arrowing ok={arrows}; {swept} digraphs swept; m<4 claim"
             f" violated by {len(bad)} digraphs (e.g. the directed 3-cycle);"
             f" true threshold is m<=2",
             time.time() - t0, 60)


def test_criterion_9_manifest_reproducibility(tmp_path):
    t0 = time.time()
    ok = True
    manifests = [
        ExperimentManifest(
            experiment_id="rep-pr", kind="prcheck",
            generator=GeneratorSpec("tournament", (16, 32)),
            repetitions=2, params={"mode": "sampled", "trials": 2000},
            csv_path=str(tmp_path / "p.csv"), json_path=str(tmp_path / "p.json")),
        ExperimentManifest(
            experiment_id="rep-adv", kind="adversary",
            generator=GeneratorSpec("oriented", (20,), density=0.08),
            repetitions=2, params={"q": 1},
            csv_path=str(tmp_path / "a.csv"), json_path=str(tmp_path / "a.json")),
        ExperimentManifest(
            experiment_id="rep-bld", kind="builder",
            generator=GeneratorSpec("tournament", (24,)),
            repetitions=2, params={"colors": 2, "k": 2},
            csv_path=str(tmp_path / "b.csv"), json_path=str(tmp_path / "b.json")),
    ]
    for m in manifests:
        first = run_experiment(m)
        again = run_experiment(m)
        if first.csv_text() != again.csv_text():
            ok = False
    _verdict(9, ok, "3 manifest kinds re-run bit-for-bit", time.time() - t0, 60)
