"""The benchmark's three workloads: seeded inputs, jobs and output checks.

Every input is generated from the workload's seed before timing starts and
written with the package's own writers, so each job reads it back through
the same entry points a user hits.  One *unit* is a fixed bundle of inputs
that gives each job kind of the workload a comparable share of the time;
a pass over the inputs holds ``max(MIN_UNITS, ceil(seconds *
UNITS_PER_SECOND))`` units.

Checks never trust the package: paths, colors and counterexamples are
re-checked against adjacency and color tables the benchmark kept itself.
"""
from __future__ import annotations

import csv
import importlib
import json
import math
import os
import random
from dataclasses import dataclass

from .harness import CheckFailed, Job, Outcome

WORKLOADS = ("upper-witness", "lower-witness", "exact-oracle")

# Each job's latency is its best of PASSES passes over the inputs, at
# reference speed (see harness.measure).  upper-witness repeats two passes,
# because its inputs are slow to write; the others time each of many
# distinct inputs once, because there the spread between seeds comes from
# the inputs as much as from the machine.  UNITS_PER_SECOND sizes a pass so
# that all passes together take about --seconds of idle-machine time.
PASSES = {"upper-witness": 2, "lower-witness": 1, "exact-oracle": 1}
UNITS_PER_SECOND = {"upper-witness": 0.13, "lower-witness": 0.95,
                    "exact-oracle": 7.0}
MIN_UNITS = {"upper-witness": 12, "lower-witness": 5, "exact-oracle": 20}
# a pass holds at least this many jobs, so that ten per-job latencies lie
# beyond the (nearest-rank) 90th percentile
MIN_JOBS = 100

# witness metric of each workload; the other one reads 1.0 there
WITNESS_METRIC = {"upper-witness": "witness_path_frac",
                  "lower-witness": "witness_bound_ratio"}


@dataclass
class Workload:
    jobs: list[Job]
    warmup: list[Job]      # one job of each kind, run during set-up


def _interleave(lanes: dict[str, list[Job]]) -> list[Job]:
    """Spread every lane evenly over the pass, so that any prefix of the
    job list holds the lanes in their full-pass proportions."""
    keyed = []
    for order, jobs in enumerate(lanes.values()):
        for i, job in enumerate(jobs):
            keyed.append(((i + 0.5) / len(jobs), order, job))
    keyed.sort(key=lambda item: item[:2])
    return [job for _, _, job in keyed]


class _Context:
    """Modules, paths and randomness shared by one workload's set-up."""

    def __init__(self, workload: str, seed: int | str, workdir: str, tracer, checkpoint):
        self.dr = importlib.import_module("dipath_ramsey")
        self.cli = importlib.import_module("dipath_ramsey.cli")
        self.runner = importlib.import_module("click.testing").CliRunner()
        self.rng = random.Random(f"perfbench:{workload}:{seed}")
        self.workdir = workdir
        self.tracer = tracer
        self.checkpoint = checkpoint  # called between chunks of set-up work
        self.label = f"{workload}-{seed}"

    def seed(self) -> int:
        return self.rng.getrandbits(62)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def cli_job(self, lane: str, args: list[str], check) -> Job:
        ctx = self

        def run():
            with ctx.tracer.region("cli.command"):
                res = ctx.runner.invoke(ctx.cli.main, args)
            if res.exit_code != 0:
                raise RuntimeError(f"exit code {res.exit_code}: {res.output[-400:]}")
            return res.stdout

        return Job(lane, run, check)

    def write_graph(self, name: str, g) -> str:
        path = self.path(name)
        self.dr.write_graph(path, g)
        return path

    def random_bits(self, count: int) -> list[int]:
        bits = self.rng.getrandbits(count)
        return [bits >> i & 1 for i in range(count)]

    def write_coloring(self, name: str, g, edges: list, colors: int,
                       palette: list[int]) -> tuple[str, bytearray]:
        """Write the coloring giving edges[i] the color palette[i]; also
        return it as an n*n table (0 = no edge) for the checks."""
        table = bytearray(g.n * g.n)
        assign = dict(zip(edges, palette))
        for (u, v), c in assign.items():
            table[u * g.n + v] = c
        path = self.path(name)
        self.dr.write_coloring(path, g, self.dr.EdgeColoring(colors, assign))
        return path, table


def _adjacency(n: int, edges: list) -> bytearray:
    table = bytearray(n * n)
    for u, v in edges:
        table[u * n + v] = 1
    return table


# ---------------------------------------------------------------------------
# independent checks
# ---------------------------------------------------------------------------


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _check_mono_path(vertices, color: int, table: bytearray, n: int) -> None:
    """A simple path whose every edge has `color` in `table`."""
    _require(all(isinstance(v, int) and 0 <= v < n for v in vertices),
             f"path vertex out of range: {vertices}")
    _require(len(set(vertices)) == len(vertices), "path repeats a vertex")
    for u, v in zip(vertices, vertices[1:]):
        _require(table[u * n + v] == color,
                 f"edge ({u},{v}) has color {table[u * n + v]}, not {color}")


def _check_no_edge_pair(a, b, k: int, adj: bytearray, n: int) -> None:
    """Two disjoint k-sets with no edge from A to B."""
    _require(len(set(a)) == k and len(set(b)) == k,
             f"counterexample sides are not {k}-sets")
    _require(not set(a) & set(b), "counterexample sides intersect")
    _require(all(0 <= v < n for v in (*a, *b)), "counterexample vertex out of range")
    _require(not any(adj[u * n + v] for u in a for v in b),
             "counterexample has an A->B edge")


def _longest_path(n: int, edges) -> int:
    """Longest simple path (in edges) by plain DFS; tiny graphs only."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    best = 0

    def dfs(v: int, seen: int, length: int) -> None:
        nonlocal best
        best = max(best, length)
        for w in adj[v]:
            if not seen >> w & 1:
                dfs(w, seen | 1 << w, length + 1)

    for v in range(n):
        dfs(v, 1 << v, 0)
    return best


def _check_coloring_witness(witness, edges: list, q: int, n: int) -> int:
    """A total q-coloring of `edges`; returns its longest mono path."""
    _require(witness is not None, "missing witness coloring")
    got = {(u, v): c for u, v, c in witness}
    _require(len(got) == len(witness) and set(got) == set(edges),
             "witness does not color exactly the host's edges")
    _require(all(1 <= c <= q for c in got.values()), "witness color out of range")
    return max(_longest_path(n, [e for e, c in got.items() if c == col])
               for col in range(1, q + 1))


# ---------------------------------------------------------------------------
# upper-witness: the builder on random tournaments
# ---------------------------------------------------------------------------


def _build_path_check(table: bytearray, n: int, colors: int):
    def check(stdout: str) -> Outcome:
        cert = json.loads(stdout)
        path = cert["path"]
        _require(cert["length"] == max(0, len(path) - 1), "length != path edges")
        _require(1 <= cert["color"] <= colors, "certificate color out of range")
        _check_mono_path(path, cert["color"], table, n)
        return Outcome(stdout.encode(), cert["length"] / n)
    return check


def _prcheck_check(adj: bytearray, n: int, k: int | None = None):
    def check(stdout: str) -> Outcome:
        report = json.loads(stdout)
        cex = report.get("counterexample")
        size = k
        if report["mode"] == "exact":
            k_star = report["k_star"]
            _require(k_star >= 1, "k_star below 1")
            _require(k_star == 1 or cex is not None,
                     "k_star > 1 without a counterexample at k_star - 1")
            size = k_star - 1
        if cex is not None:
            _check_no_edge_pair(cex[0], cex[1], size, adj, n)
        return Outcome(stdout.encode())
    return check


def _raynaud_job(ctx: _Context, t: int) -> Job:
    dr = ctx.dr
    table = bytearray(t * t)
    assign = {}
    for u in range(t):
        for v in range(t):
            if u != v:
                assign[(u, v)] = table[u * t + v] = ctx.rng.randint(1, 2)
    coloring = dr.EdgeColoring(2, assign)

    def run():
        dec = ctx.dr.raynaud(t, coloring)
        dec.validate(coloring)
        return dec

    def check(dec) -> Outcome:
        _require(sorted(dec.cycle) == list(range(t)), "cycle is not Hamiltonian")
        seg, _ = dec.best_segment()
        _require(seg.length >= t // 2, f"best segment {seg.length} < {t // 2}")
        _check_mono_path(list(dec.red_segment.vertices), 1, table, t)
        _check_mono_path(list(dec.blue_segment.vertices), 2, table, t)
        return Outcome(json.dumps([dec.cycle, dec.red_segment.vertices,
                                   dec.blue_segment.vertices]).encode())

    return Job(f"raynaud-t{t}", run, check)


def _upper_witness(ctx: _Context, units: int) -> dict[str, list[Job]]:
    dr = ctx.dr
    base = dr.ConstantsConfig().to_dict()
    # only the fields the relaxed constants change, so that removing an
    # unused config field elsewhere cannot invalidate this file
    overrides = {key: value for key, value in dr.ConstantsConfig.relaxed().to_dict().items()
                 if base.get(key) != value}
    cfg_path = ctx.path("relaxed.json")
    with open(cfg_path, "w", encoding="ascii") as fh:
        json.dump(overrides, fh, sort_keys=True)
    cfg = dr.ConstantsConfig.from_dict(overrides)

    lanes: dict[str, list[Job]] = {}
    for unit in range(units):
        for n in (128, 256):
            g = dr.random_tournament(n, ctx.seed()).underlying
            gpath = ctx.write_graph(f"t{unit}-{n}.graph", g)
            edges = g.edges()
            adj = _adjacency(n, edges)
            k = math.ceil(2 * math.log2(n))
            rng = ctx.rng

            # random 2-coloring: the red dichotomy returns a path at once
            cpath, table = ctx.write_coloring(
                f"t{unit}-{n}.rand2", g, edges, 2,
                [1 + bit for bit in ctx.random_bits(len(edges))])
            lanes.setdefault(f"build-random-{n}", []).append(ctx.cli_job(
                "build-path-random",
                ["build-path", "--colors", "2", "--k", str(k), "--config", cfg_path,
                 "--in", gpath, "--coloring", cpath],
                _build_path_check(table, n, 2)))

            # planted 2-coloring: red runs forward between as many random
            # vertex classes as the red threshold, so the dichotomy yields a
            # coloring and the block/cycle/Raynaud pipeline runs
            parts = cfg.red_threshold(n, 6)
            cls = [rng.randrange(parts) for _ in range(n)]
            cpath, table = ctx.write_coloring(
                f"t{unit}-{n}.plant2", g, edges, 2,
                [1 if cls[u] < cls[v] else 2 for u, v in edges])
            lanes.setdefault(f"build-planted-{n}", []).append(ctx.cli_job(
                "build-path-planted",
                ["build-path", "--colors", "2", "--k", "6", "--config", cfg_path,
                 "--in", gpath, "--coloring", cpath],
                _build_path_check(table, n, 2)))

            # 3-coloring whose top color runs forward between 4 random
            # classes: the top class is 4-colorable, so the multicolor
            # finder recurses on its largest class instead of stopping
            cls3 = [rng.randrange(4) for _ in range(n)]
            cpath, table = ctx.write_coloring(
                f"t{unit}-{n}.plant3", g, edges, 3,
                [3 if cls3[u] < cls3[v] else 1 + bit
                 for (u, v), bit in zip(edges, ctx.random_bits(len(edges)))])
            lanes.setdefault(f"build-3color-{n}", []).append(ctx.cli_job(
                "build-path-3color",
                ["build-path", "--colors", "3", "--k", str(k), "--n-target", "4",
                 "--config", cfg_path, "--in", gpath, "--coloring", cpath],
                _build_path_check(table, n, 3)))

            lanes.setdefault(f"prcheck-sampled-{n}", []).append(ctx.cli_job(
                "prcheck-sampled",
                ["prcheck", "--mode", "sampled", "--k", str(k), "--trials", "1000",
                 "--seed", str(ctx.seed()), "--in", gpath],
                _prcheck_check(adj, n, k)))
        for t in (48, 100):
            lanes.setdefault(f"raynaud-{t}", []).append(_raynaud_job(ctx, t))
        ctx.checkpoint()
    return lanes


# ---------------------------------------------------------------------------
# lower-witness: the adversary through single-cell experiment manifests
# ---------------------------------------------------------------------------

# (lane, generator model, n, density, q, manifests per unit); the counts
# give the three regimes comparable shares of the time
_ADVERSARY_REGIMES = (
    ("sparse", "oriented", 300, 0.02, 1, 12),   # every vertex lands in X
    ("dense", "oriented", 150, 0.3, 1, 1),      # families form
    ("digraph", "digraph", 120, 0.2, 2, 10),    # antiparallel pairs, 3 colors
)


def _adversary_check(csv_path: str):
    def check(_stdout: str) -> Outcome:
        with open(csv_path, "rb") as fh:
            data = fh.read()
        rows = list(csv.DictReader(data.decode("ascii").splitlines()))
        _require(len(rows) == 1, f"expected one CSV row, got {len(rows)}")
        row = rows[0]
        _require(row["ok"] == "1", f"adversary row not ok: {row}")
        bound = int(row["total_bound"])
        witness = None
        if row["measured"] != "":
            measured = int(row["measured"])
            _require(measured <= bound, "measured path exceeds the certified bound")
            if measured > 0:
                witness = bound / measured
        return Outcome(data, witness)
    return check


def _lower_witness(ctx: _Context, units: int) -> dict[str, list[Job]]:
    lanes: dict[str, list[Job]] = {}
    for lane, model, n, density, q, per_unit in _ADVERSARY_REGIMES:
        for i in range(units * per_unit):
            stem = ctx.path(f"{lane}-{i}")
            manifest = {
                "experiment_id": f"{ctx.label}-{lane}-{i}-{ctx.seed()}",
                "kind": "adversary",
                "generator": {"model": model, "sizes": [n], "density": density},
                "params": {"q": q},
                "repetitions": 1,
                "csv_path": stem + ".csv",
                "json_path": stem + ".json",
            }
            with open(stem + ".manifest.json", "w", encoding="ascii") as fh:
                json.dump(manifest, fh, sort_keys=True)
            lanes.setdefault(lane, []).append(ctx.cli_job(
                f"adversary-{lane}", ["experiment", "--manifest", stem + ".manifest.json"],
                _adversary_check(stem + ".csv")))
        ctx.checkpoint()
    return lanes


# ---------------------------------------------------------------------------
# exact-oracle: small exhaustive jobs
# ---------------------------------------------------------------------------

# Job times here spread from 2 to 250 ms over the inputs, so the median of
# a run sits where few jobs lie and moves with the seed.  Four cheap
# digraph jobs per unit put the median inside their dense cluster.
DIGRAPHS_PER_UNIT = 4


def _minmax_check(edges: list, n: int, q: int, values: dict, key):
    def check(stdout: str) -> Outcome:
        res = json.loads(stdout)
        value = _check_coloring_witness(res["witness"], edges, q, n)
        _require(value == res["value"],
                 f"witness reaches {value}, reported value {res['value']}")
        values[key] = res["value"]
        return Outcome(stdout.encode())
    return check


def _arrow_check(edges: list, n: int, q: int, target: int, values: dict, key):
    def check(stdout: str) -> Outcome:
        res = json.loads(stdout)
        _require(key in values, "no minmax value for this host")
        _require(res["arrows"] == (values[key] >= target),
                 f"arrows={res['arrows']} but minmax value is {values[key]}")
        if not res["arrows"]:
            reach = _check_coloring_witness(res["witness"], edges, q, n)
            _require(reach < target, "refuting coloring has a long mono path")
        return Outcome(stdout.encode())
    return check


def _path_check(table: bytearray, n: int):
    def check(stdout: str) -> Outcome:
        per_color = json.loads(stdout)
        _require(sorted(per_color) == ["1", "2"], "expected colors 1 and 2")
        for color, res in per_color.items():
            path = res["witness"]
            _require(res["value"] == max(0, len(path) - 1),
                     f"color {color}: value != witness length")
            _check_mono_path(path, int(color), table, n)
        return Outcome(stdout.encode())
    return check


def _exact_oracle(ctx: _Context, units: int) -> dict[str, list[Job]]:
    dr = ctx.dr
    lanes: dict[str, list[Job]] = {}
    minmax_values: dict = {}
    for i in range(units):
        t7 = dr.random_tournament(7, ctx.seed()).underlying
        path = ctx.write_graph(f"t7-{i}.graph", t7)
        edges = t7.edges()
        # minmax runs before arrow on the same host, whose check needs it
        lanes.setdefault("tournament7", []).extend([
            ctx.cli_job("oracle-minmax-t7", ["oracle", "--mode", "minmax", "--q", "2",
                                             "--in", path],
                        _minmax_check(edges, 7, 2, minmax_values, ("t7", i))),
            ctx.cli_job("oracle-arrow-t7", ["oracle", "--mode", "arrow", "--q", "2",
                                            "--n", "3", "--in", path],
                        _arrow_check(edges, 7, 2, 3, minmax_values, ("t7", i))),
        ])

        for j in range(DIGRAPHS_PER_UNIT):
            d6 = dr.random_digraph(6, 18, ctx.seed())
            path = ctx.write_graph(f"d6-{i}-{j}.graph", d6)
            lanes.setdefault(f"digraph6-{j}", []).append(ctx.cli_job(
                "oracle-minmax-d6", ["oracle", "--mode", "minmax", "--q", "2", "--in", path],
                _minmax_check(d6.edges(), 6, 2, minmax_values, ("d6", i, j))))

        o16 = dr.random_oriented_graph(16, 100, ctx.seed())
        gpath = ctx.write_graph(f"o16-{i}.graph", o16)
        o16_edges = o16.edges()
        cpath, table = ctx.write_coloring(
            f"o16-{i}.col", o16, o16_edges, 2,
            [1 + bit for bit in ctx.random_bits(len(o16_edges))])
        lanes.setdefault("oriented16", []).append(ctx.cli_job(
            "oracle-path", ["oracle", "--mode", "path", "--in", gpath,
                            "--coloring", cpath],
            _path_check(table, 16)))

        t22 = dr.random_tournament(22, ctx.seed()).underlying
        path = ctx.write_graph(f"t22-{i}.graph", t22)
        lanes.setdefault("tournament22", []).append(ctx.cli_job(
            "prcheck-exact", ["prcheck", "--mode", "exact", "--in", path],
            _prcheck_check(_adjacency(22, t22.edges()), 22)))
        ctx.checkpoint()
    return lanes


_BUILDERS = {"upper-witness": _upper_witness, "lower-witness": _lower_witness,
             "exact-oracle": _exact_oracle}


def build(workload: str, seed: int, seconds: float, workdir: str, tracer,
          checkpoint=lambda: None) -> Workload:
    """Import the package, generate and write the inputs, return the jobs.
    `checkpoint` is called after the import and after each chunk of inputs.

    The warm-up runs one job of each kind on one unit of inputs made from a
    fixed seed: job times vary tenfold between inputs, and set-up time
    should not vary with --seed."""
    ctx = _Context(workload, seed, workdir, tracer, checkpoint)
    checkpoint()
    units = max(MIN_UNITS[workload], math.ceil(seconds * UNITS_PER_SECOND[workload]))
    warm_dir = os.path.join(workdir, "warmup")
    os.makedirs(warm_dir)
    with tracer.region("perfbench.inputs"):
        jobs = _interleave(_BUILDERS[workload](ctx, units))
        warm = _BUILDERS[workload](
            _Context(workload, "warmup", warm_dir, tracer, checkpoint), 1)
    if len(jobs) < MIN_JOBS:
        raise ValueError(f"{workload}: {len(jobs)} jobs per pass, need {MIN_JOBS}")
    first = {}
    for lane in warm.values():
        for job in lane:
            first.setdefault(job.lane, job)
    return Workload(jobs, list(first.values()))
