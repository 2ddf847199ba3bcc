"""Experiment manifests and the deterministic run harness.

A manifest fully determines a run: generator model and sizes, the module
under test, constants, repetition count, and output paths.  Per-run seeds
are hashes of (experiment id, size, run index), so neither execution order
nor worker count can change a single row.  CSV rows carry only derived
quantities (bit-for-bit reproducible); wall-clock time lives in the JSON
aggregate alongside the effective constants.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import groupby, repeat

from .adversary import check_partition, theorem1_adversary
from .builder import multicolor_path_finder
from .config import DEFAULT_CONFIG, ConstantsConfig
from .errors import ColoringError, DipathError, ManifestError
from .graphs import EdgeColoring, OrientedGraph
from .oracle import max_mono_path
from .pseudorandom import (
    paley_tournament,
    pseudorandomness_exact,
    random_digraph,
    random_oriented_graph,
    random_tournament,
    refute_pseudorandomness,
)

_KINDS = ("prcheck", "adversary", "builder")
_MODELS = ("tournament", "paley", "oriented", "digraph")
# the params the kinds read: integers, and prcheck's `mode`
_INT_PARAMS = ("k", "trials", "q", "colors", "n_target")
_PRCHECK_MODES = ("exact", "sampled")

WORKERS_ENV = "DIPATH_RAMSEY_WORKERS"


def _known(data, keys, what: str):
    """`data` when it is an object whose keys all lie in `keys`."""
    if not isinstance(data, dict):
        raise ManifestError(f"{what} must be a JSON object")
    extra = sorted(set(data) - set(keys))
    if extra:
        raise ManifestError(f"unknown {what} keys: {extra}")
    return data


@dataclass(frozen=True)
class GeneratorSpec:
    model: str
    sizes: tuple[int, ...]
    density: float = 0.1

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ManifestError(f"unknown generator model {self.model!r}")
        if any(n < 0 for n in self.sizes):
            raise ManifestError("sizes must be nonnegative")
        if not 0.0 <= self.density <= 1.0:
            raise ManifestError("density must lie in [0, 1]")
        if self.model in ("oriented", "digraph"):
            for n in self.sizes:
                # an oriented host has at most one edge per pair, a digraph two
                top = n * (n - 1) // (2 if self.model == "oriented" else 1)
                if self._edge_count(n) > top:
                    # the largest density of four decimals that fits
                    fits = math.floor((top + 0.5) / (n * n) * 10**4)
                    while round(fits / 10**4 * n * n) > top:
                        fits -= 1
                    raise ManifestError(
                        f"density {self.density} asks for {self._edge_count(n)} edges "
                        f"at n={n}, above the {top} that the {self.model} model "
                        f"allows; the largest density for n={n} is {fits / 10**4:g}")

    def _edge_count(self, n: int) -> int:
        """Edges of an oriented or digraph host of n vertices."""
        return round(self.density * n * n)


@dataclass(frozen=True)
class ExperimentManifest:
    experiment_id: str
    kind: str
    generator: GeneratorSpec
    config: ConstantsConfig = DEFAULT_CONFIG
    repetitions: int = 1
    params: dict = field(default_factory=dict)
    csv_path: str = "results.csv"
    json_path: str = "results.json"

    def __post_init__(self):
        if not self.experiment_id:
            raise ManifestError("experiment_id must be nonempty")
        if self.kind not in _KINDS:
            raise ManifestError(
                f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.repetitions < 0:
            raise ManifestError("repetitions must be nonnegative")
        _known(self.params, _INT_PARAMS + ("mode",), "params")
        for key in _INT_PARAMS:
            value = self.params.get(key, 0)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ManifestError(f"params.{key} must be an integer, got {value!r}")
        if self.params.get("mode", "exact") not in _PRCHECK_MODES:
            raise ManifestError(f"params.mode must be one of {_PRCHECK_MODES}, "
                                f"got {self.params['mode']!r}")

    def to_dict(self) -> dict:
        """The fields by name, with the generator's and the config's as
        nested dicts and a copy of params."""
        return dict(vars(self), generator=dict(vars(self.generator)),
                    config=self.config.to_dict(), params=dict(self.params))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentManifest":
        _known(data, cls.__dataclass_fields__, "manifest")
        try:
            gen = _known(data["generator"], GeneratorSpec.__dataclass_fields__,
                         "generator")
            spec = GeneratorSpec(model=gen["model"],
                                 sizes=tuple(int(n) for n in gen["sizes"]),
                                 density=float(gen.get("density", 0.1)))
            cfg = (ConstantsConfig.from_dict(data["config"])
                   if "config" in data else DEFAULT_CONFIG)
            return cls(
                experiment_id=str(data["experiment_id"]),
                kind=str(data["kind"]),
                generator=spec,
                config=cfg,
                repetitions=int(data.get("repetitions", 1)),
                params=dict(data.get("params", {})),
                csv_path=str(data.get("csv_path", "results.csv")),
                json_path=str(data.get("json_path", "results.json")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"bad manifest field: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentManifest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class ResultRecord:
    manifest_hash: str
    kind: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    failures: int
    aggregates: dict
    wall_clock_seconds: float

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_dict(self) -> dict:
        return {
            "manifest_hash": self.manifest_hash,
            "kind": self.kind,
            "rows": len(self.rows),
            "failures": self.failures,
            "aggregates": self.aggregates,
            "wall_clock_seconds": self.wall_clock_seconds,
        }


def derive_seed(experiment_id: str, n: int, run_index: int) -> int:
    digest = hashlib.sha256(f"{experiment_id}:{n}:{run_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _generate(spec: GeneratorSpec, n: int, seed: int) -> OrientedGraph:
    if spec.model == "tournament":
        return random_tournament(n, seed).underlying
    if spec.model == "paley":
        return paley_tournament(n).underlying
    make = random_oriented_graph if spec.model == "oriented" else random_digraph
    return make(n, spec._edge_count(n), seed)


_COLUMNS = {
    "prcheck": ("n", "run", "seed", "mode", "k_star", "vacuous",
                "counterexample", "trials", "ok"),
    "adversary": ("n", "run", "seed", "q", "num_colors", "x_bound",
                  "residue_bound", "covered_bound", "total_bound",
                  "measured", "ok"),
    "builder": ("n", "run", "seed", "colors", "k", "branch", "color",
                "length", "guarantee_active", "ok"),
}


def _random_coloring(g: OrientedGraph, colors: int, seed: int) -> EdgeColoring:
    """Each edge in canonical order takes `rng.randint(1, colors)`, spelled
    out as colors.bit_length() random bits drawn again while >= colors."""
    if colors < 1:
        raise ColoringError(f"need at least one color, got {colors}")
    bits, k = random.Random(seed).getrandbits, colors.bit_length()
    rows = [[0] * g.n for _ in range(colors)]
    for u, v in g.edges():
        c = colors
        while c >= colors:
            c = bits(k)
        rows[c][u] |= 1 << v
    return EdgeColoring.from_masks(rows)


def _run_one(manifest: ExperimentManifest, n: int, run_index: int) -> tuple:
    seed = derive_seed(manifest.experiment_id, n, run_index)
    g = _generate(manifest.generator, n, seed)
    params = manifest.params
    cfg = manifest.config
    if manifest.kind == "prcheck":
        mode = params.get("mode", "exact")
        if mode == "exact":
            report = pseudorandomness_exact(g, budget=cfg.subset_budget)
            cex = "" if report.counterexample is None else _pair_str(report.counterexample)
            return (n, run_index, seed, report.mode,
                    report.k_star if report.k_star is not None else "",
                    int(report.vacuous), cex, report.trials, 1)
        k = params.get("k", max(1, math.ceil(2 * math.log2(max(2, n)))))
        trials = params.get("trials", 1000)
        found = refute_pseudorandomness(g, k, trials, seed)
        cex = "" if found is None else _pair_str(found)
        return (n, run_index, seed, "sampled", k, 0, cex, trials, 1)
    if manifest.kind == "adversary":
        q = params.get("q", 1)
        result = theorem1_adversary(g, q, cfg)
        part = result.partition
        ok = 1
        try:
            check_partition(g, result, cfg, q)
        except AssertionError:
            ok = 0
        # every class is acyclic (a digit rises along each digit edge, an
        # escape edge lowers the digit sum, and the parts' colors 1 and 2
        # run one way each) and shallow, so the engine peels its sinks in
        # a few rounds; its scans are capped at twice the class's edge
        # count, past which Kahn's counting pass takes over, at any size
        measured = max_mono_path(g, result.coloring)
        if measured > part.total_bound:
            ok = 0
        return (n, run_index, seed, q, result.coloring.num_colors,
                part.x_bound, part.residue_bound, part.covered_bound,
                part.total_bound, measured, ok)
    colors = params.get("colors", 2)
    k = params.get("k", max(1, math.ceil(2 * math.log2(max(2, n)))))
    coloring = _random_coloring(g, colors, seed ^ 0x5DEECE66D)
    cert = multicolor_path_finder(g, coloring, k, params.get("n_target", 2), cfg)
    ok = 1
    try:
        cert.validate(g, coloring)
    except DipathError:
        ok = 0
    return (n, run_index, seed, colors, k, cert.branch, cert.color,
            cert.path.length, int(cert.guarantee_active), ok)


def _pair_str(pair) -> str:
    a, b = pair
    return ";".join(",".join(str(v) for v in side) for side in (a, b))


def _run_cell(manifest: ExperimentManifest, n: int, run_index: int) -> tuple:
    """(row, error class name or None).  A run that raises a package error
    or a ValueError (a bad cell parameter) is a failed row: n, run and
    seed, empty fields, ok=0."""
    try:
        return _run_one(manifest, n, run_index), None
    except (DipathError, ValueError) as exc:
        seed = derive_seed(manifest.experiment_id, n, run_index)
        blanks = ("",) * (len(_COLUMNS[manifest.kind]) - 4)
        return (n, run_index, seed, *blanks, 0), type(exc).__name__


def run_experiment(manifest: ExperimentManifest) -> ResultRecord:
    """Execute every (size, repetition) cell and persist CSV + JSON.

    Row order is sorted by (n, run index) regardless of how workers finish,
    so identical manifests always produce identical CSV bytes.  A cell that
    raises a package error or a ValueError is a failed row; the error class
    is counted in the JSON aggregate, never in the CSV.
    """
    start = time.monotonic()
    tasks = [(n, r) for n in manifest.generator.sizes
             for r in range(manifest.repetitions)]
    workers = int(os.environ.get(WORKERS_ENV, "1") or "1")
    if workers > 1 and len(tasks) > 1:
        # imported here: the pool's modules cost every start of the package
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_run_cell, repeat(manifest), *zip(*tasks)))
    else:
        cells = [_run_cell(manifest, n, r) for n, r in tasks]
    cells.sort(key=lambda cell: (cell[0][0], cell[0][1]))
    columns = _COLUMNS[manifest.kind]
    aggregates = _aggregate(manifest.kind, columns, cells)
    record = ResultRecord(
        manifest_hash=manifest.hash(),
        kind=manifest.kind,
        columns=columns,
        rows=tuple(row for row, _ in cells),
        failures=sum(agg["failures"] for agg in aggregates.values()),
        aggregates=aggregates,
        wall_clock_seconds=round(time.monotonic() - start, 6),
    )
    with open(manifest.csv_path, "w", encoding="ascii", newline="") as fh:
        fh.write(record.csv_text())
    payload = {"manifest": manifest.to_dict(), "record": record.to_dict(),
               "config": manifest.config.to_dict()}
    with open(manifest.json_path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return record


def _aggregate(kind: str, columns: tuple[str, ...], cells: list) -> dict:
    """Per-size summary of `cells`, which come sorted by n."""
    numeric = {"prcheck": "k_star", "adversary": "total_bound",
               "builder": "length"}[kind]
    idx = columns.index(numeric)
    ok_idx = columns.index("ok")
    out = {}
    for n, group in groupby(cells, key=lambda cell: cell[0][0]):
        rows, errors = zip(*group)
        values = [row[idx] for row in rows if isinstance(row[idx], (int, float))]
        out[str(n)] = {
            "runs": len(rows),
            "failures": sum(1 for row in rows if not row[ok_idx]),
            "errors": dict(sorted(Counter(e for e in errors if e).items())),
            numeric: {
                "min": min(values) if values else None,
                "max": max(values) if values else None,
                "mean": (sum(values) / len(values)) if values else None,
            },
        }
    return out
