"""Text formats, manifests, and the experiment runner."""
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from dipath_ramsey import (
    BuilderCertificate,
    ColoringError,
    ConstantsConfig,
    EdgeColoring,
    ExperimentManifest,
    FormatError,
    GeneratorSpec,
    ManifestError,
    OracleResult,
    OrientedGraph,
    complete_symmetric,
    derive_seed,
    max_mono_path,
    min_max_mono_path,
    parse_coloring,
    parse_graph,
    random_digraph,
    read_colored,
    read_graph,
    run_experiment,
    serialize_coloring,
    serialize_graph,
    theorem1_adversary,
)
from dipath_ramsey import experiment
from dipath_ramsey.cli import main


# -- graph text format -----------------------------------------------------

def test_graph_roundtrip_three_cycle():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    text = serialize_graph(g)
    h = parse_graph(text)
    assert h.n == g.n and h.edges() == g.edges()
    assert serialize_graph(h) == text


def test_graph_roundtrip_symmetric():
    g = complete_symmetric(4)
    text = serialize_graph(g)
    assert "symmetric" in text.splitlines()[0]
    h = parse_graph(text)
    assert h.edges() == g.edges()


def test_graph_roundtrip_random_bulk():
    rng = random.Random(0)
    for i in range(10_000):
        n = rng.randint(0, 8)
        m = rng.randint(0, max(0, n * (n - 1)))
        g = random_digraph(n, m, i) if n else OrientedGraph(0)
        text = serialize_graph(g)
        assert serialize_graph(parse_graph(text)) == text


def test_graph_parse_bad_header():
    with pytest.raises(FormatError) as exc:
        parse_graph("3 1\n0 1\n")
    assert exc.value.line == 1


def test_graph_parse_unknown_kind():
    with pytest.raises(FormatError):
        parse_graph("3 1 undirected\n0 1\n")


def test_graph_parse_count_mismatch():
    with pytest.raises(FormatError) as exc:
        parse_graph("3 2 oriented\n0 1\n")
    assert exc.value.line >= 1


def test_graph_parse_out_of_range_edge():
    with pytest.raises(FormatError) as exc:
        parse_graph("2 1 oriented\n0 5\n")
    assert exc.value.line == 2


def test_graph_parse_antiparallel_in_oriented():
    text = "2 2 oriented\n0 1\n1 0\n"
    with pytest.raises(FormatError):
        parse_graph(text)


def test_graph_parse_duplicate_edge_line():
    with pytest.raises(FormatError) as exc:
        parse_graph("3 2 oriented\n0 1\n0 1\n")
    assert exc.value.line == 3
    with pytest.raises(FormatError) as exc:
        parse_graph("3 3 symmetric\n0 1\n1 0\n0 1\n")
    assert exc.value.line == 4


def test_graph_parse_non_ascii_digit_is_format_error():
    # "\u00b2".isdigit() holds, but int() rejects it
    with pytest.raises(FormatError) as exc:
        parse_graph("3 1 oriented\n0 \u00b2\n")
    assert (exc.value.line, exc.value.column) == (2, 2)
    with pytest.raises(FormatError) as exc:
        parse_graph("\u00b2 0 oriented\n")
    assert exc.value.line == 1
    g = OrientedGraph(2, [(0, 1)])
    with pytest.raises(FormatError) as exc:
        parse_coloring("0 1 \u00b2\n", g)
    assert (exc.value.line, exc.value.column) == (1, 3)


def test_graph_parse_reports_offending_line():
    with pytest.raises(FormatError) as exc:
        parse_graph("3 3 oriented\n0 1\n1 2\n2 2\n")
    assert exc.value.line == 4 and "self loop" in str(exc.value)
    with pytest.raises(FormatError) as exc:
        parse_graph("3 3 oriented\n0 1\n1 2\n1 0\n")
    assert exc.value.line == 4 and "antiparallel" in str(exc.value)


def test_parse_accepts_any_whitespace_layout():
    g = OrientedGraph(4, [(0, 1), (2, 1), (3, 0)])
    for text in ("4 3 oriented\n0\t1\n2  1\n 3 0 \n",
                 "4 3 oriented\r\n0 1\r\n2 1\r\n3 0\r\n",
                 "4 3 oriented\n0 1\n2 1\n3 0"):
        assert parse_graph(text) == g
    col = EdgeColoring(2, {(0, 1): 1, (2, 1): 2, (3, 0): 2})
    for text in ("0\t1 1\n2 1  2\n3 0 2\r\n", "0 1 1\n2 1 2\n3 0 2"):
        assert parse_coloring(text, g) == col


def test_read_rejects_non_ascii_byte(tmp_path):
    path = tmp_path / "g.graph"
    path.write_bytes("2 1 oriented\r\n0 1 \u00e9\n".encode("utf-8"))
    with pytest.raises(FormatError) as exc:
        read_graph(path)
    assert (exc.value.line, exc.value.column) == (2, 5)
    good = tmp_path / "h.graph"
    good.write_bytes(b"2 1 oriented\r\n0 1\r\n")
    col = tmp_path / "c.txt"
    col.write_bytes("0 1 1 # caf\u00e9\n".encode("utf-8"))
    with pytest.raises(FormatError) as exc:
        read_colored(good, col)
    assert exc.value.line == 1


# -- coloring text format --------------------------------------------------

def test_coloring_roundtrip():
    g = OrientedGraph(3, [(0, 1), (1, 2), (2, 0)])
    col = EdgeColoring(2, {(0, 1): 1, (1, 2): 2, (2, 0): 1})
    text = serialize_coloring(g, col)
    back = parse_coloring(text, g)
    assert back.items() == col.items()
    assert serialize_coloring(g, back) == text


def test_coloring_roundtrip_random_bulk():
    rng = random.Random(1)
    for i in range(300):
        n = rng.randint(2, 8)
        m = rng.randint(1, n * (n - 1))
        g = random_digraph(n, m, i)
        q = rng.randint(1, 4)
        col = EdgeColoring(q, {e: rng.randint(1, q) for e in g.edges()})
        text = serialize_coloring(g, col)
        back = parse_coloring(text, g, num_colors=q)
        assert back.items() == col.items()


def test_coloring_parse_non_edge():
    g = OrientedGraph(3, [(0, 1)])
    with pytest.raises(FormatError):
        parse_coloring("0 2 1\n", g)


def test_coloring_parse_duplicate():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(FormatError) as exc:
        parse_coloring("0 1 1\n0 1 2\n1 2 1\n", g)
    assert exc.value.line == 2


def test_coloring_parse_color_out_of_range():
    g = OrientedGraph(2, [(0, 1)])
    with pytest.raises(FormatError):
        parse_coloring("0 1 3\n", g, num_colors=2)
    with pytest.raises(FormatError):
        parse_coloring("0 1 0\n", g)


def test_coloring_parse_count_mismatch():
    g = OrientedGraph(3, [(0, 1), (1, 2)])
    with pytest.raises(FormatError):
        parse_coloring("0 1 1\n", g)


# -- manifests -------------------------------------------------------------

def _tiny_manifest(tmp_path, kind="prcheck", **params):
    return ExperimentManifest(
        experiment_id="tiny",
        kind=kind,
        generator=GeneratorSpec("tournament", (8, 10)),
        repetitions=2,
        params=params,
        csv_path=str(tmp_path / "out.csv"),
        json_path=str(tmp_path / "out.json"),
    )


def test_manifest_json_roundtrip(tmp_path):
    m = _tiny_manifest(tmp_path)
    again = ExperimentManifest.from_json(m.to_json())
    assert again == m
    assert again.hash() == m.hash()


def test_manifest_hash_changes_with_content(tmp_path):
    m = _tiny_manifest(tmp_path)
    other = ExperimentManifest.from_dict(
        {**m.to_dict(), "experiment_id": "tiny2"})
    assert other.hash() != m.hash()


def test_manifest_rejects_bad_model():
    with pytest.raises(ManifestError):
        GeneratorSpec("erdos", (4,))


def test_manifest_rejects_bad_kind(tmp_path):
    with pytest.raises(ManifestError):
        _tiny_manifest(tmp_path, kind="nonsense")


def test_manifest_rejects_bad_density():
    with pytest.raises(ManifestError):
        GeneratorSpec("oriented", (4,), density=1.5)


def test_manifest_rejects_density_beyond_the_model(tmp_path):
    """A host of n vertices gets round(density * n^2) edges.  An oriented
    host of 10 vertices holds 45, so density 0.5 (50 edges) is refused at
    load rather than run as a failed row."""
    with pytest.raises(ManifestError, match=r"50 edges at n=10.*largest density "
                                            r"for n=10 is 0\.4549$"):
        GeneratorSpec("oriented", (10,), density=0.5)
    data = _tiny_manifest(tmp_path, kind="adversary").to_dict()
    # n=20 fits 184 of its 190 pairs, n=10 not 46 of its 45
    data["generator"] = {"model": "oriented", "sizes": [20, 10], "density": 0.46}
    with pytest.raises(ManifestError, match="46 edges at n=10"):
        ExperimentManifest.from_dict(data)
    with pytest.raises(ManifestError, match="n=10"):
        GeneratorSpec("oriented", (10,), density=0.455)
    with pytest.raises(ManifestError, match=r"above the 90 that the digraph model"):
        GeneratorSpec("digraph", (10,), density=0.91)
    # at the boundary: the named largest density, a full digraph, and the
    # dense oriented regime of the benchmark all load
    GeneratorSpec("oriented", (10,), density=0.4549)
    GeneratorSpec("digraph", (10,), density=0.9)
    GeneratorSpec("oriented", (0, 1, 150), density=0.3)
    GeneratorSpec("tournament", (10,), density=1.0)


def test_manifest_rejects_garbage_json():
    with pytest.raises(ManifestError):
        ExperimentManifest.from_json("{not json")


def test_config_rejects_nonpositive_fields():
    with pytest.raises(ValueError, match="^c must be positive$"):
        ConstantsConfig(c=0)
    with pytest.raises(ValueError, match="^block_factor must be a positive integer$"):
        ConstantsConfig(block_factor=0)


def test_manifest_field_checks(tmp_path):
    data = _tiny_manifest(tmp_path).to_dict()
    with pytest.raises(ManifestError, match="sizes must be nonnegative"):
        ExperimentManifest.from_dict({**data, "generator": {"model": "tournament",
                                                            "sizes": [4, -1]}})
    with pytest.raises(ManifestError, match="experiment_id must be nonempty"):
        ExperimentManifest.from_dict({**data, "experiment_id": ""})
    with pytest.raises(ManifestError, match="repetitions must be nonnegative"):
        ExperimentManifest.from_dict({**data, "repetitions": -1})
    with pytest.raises(ManifestError, match="manifest must be a JSON object"):
        ExperimentManifest.from_json("[1, 2]")
    del data["kind"]
    with pytest.raises(ManifestError, match="bad manifest field: 'kind'"):
        ExperimentManifest.from_dict(data)


# the manifest that loaded as density 0.1 with one repetition and no colors
# param while its three misspelled keys were dropped
_MISSPELT = {"experiment_id": "x", "kind": "adversary",
             "generator": {"model": "oriented", "sizes": [10], "densty": 0.5},
             "params": {"q": 1, "colours": 3},
             "repetition": 5}


@pytest.mark.parametrize("fix, message", [
    ((), "unknown manifest keys: ['repetition']"),
    (("repetition",), "unknown generator keys: ['densty']"),
    (("repetition", "densty"), "unknown params keys: ['colours']"),
])
def test_manifest_refuses_unknown_keys(tmp_path, fix, message):
    """An unknown top-level, generator or params key is a ManifestError
    that names it, through from_dict and as one CLI Error line; `fix`
    drops the misspelt keys before the one named."""
    data = {key: value for key, value in _MISSPELT.items() if key not in fix}
    data["generator"] = {k: v for k, v in data["generator"].items() if k not in fix}
    data["csv_path"] = str(tmp_path / "out.csv")
    with pytest.raises(ManifestError, match=re.escape(message)):
        ExperimentManifest.from_dict(data)
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(data))
    res = CliRunner().invoke(main, ["experiment", "--manifest", str(mpath)])
    assert res.exit_code == 1
    assert res.output == f"Error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_derive_seed_stable():
    assert derive_seed("tiny", 8, 0) == derive_seed("tiny", 8, 0)
    assert derive_seed("tiny", 8, 0) != derive_seed("tiny", 8, 1)
    assert derive_seed("tiny", 8, 0) != derive_seed("other", 8, 0)


# -- the runner ------------------------------------------------------------

def test_run_experiment_prcheck(tmp_path):
    m = _tiny_manifest(tmp_path, mode="exact")
    record = run_experiment(m)
    assert record.ok
    assert record.columns[:3] == ("n", "run", "seed")
    assert "k_star" in record.columns
    k_idx = record.columns.index("k_star")
    assert all(int(row[k_idx]) >= 1 for row in record.rows)
    assert len(record.rows) == 4  # 2 sizes x 2 repetitions
    assert (tmp_path / "out.csv").exists()
    assert (tmp_path / "out.json").exists()
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["manifest"]["experiment_id"] == "tiny"
    assert payload["record"]["manifest_hash"] == m.hash()


def test_run_experiment_deterministic(tmp_path):
    m = _tiny_manifest(tmp_path, mode="exact")
    first = run_experiment(m)
    second = run_experiment(m)
    assert first.csv_text() == second.csv_text()
    assert "wall" not in first.csv_text()


def test_run_experiment_rows_sorted(tmp_path):
    m = _tiny_manifest(tmp_path, mode="exact")
    record = run_experiment(m)
    keys = [(int(r[0]), int(r[1])) for r in record.rows]
    assert keys == sorted(keys)


def test_run_experiment_empty_sizes(tmp_path):
    m = ExperimentManifest(
        experiment_id="empty", kind="prcheck",
        generator=GeneratorSpec("tournament", ()),
        csv_path=str(tmp_path / "e.csv"), json_path=str(tmp_path / "e.json"))
    record = run_experiment(m)
    assert record.ok and not record.rows


def test_run_experiment_adversary_kind(tmp_path):
    m = ExperimentManifest(
        experiment_id="adv", kind="adversary",
        generator=GeneratorSpec("oriented", (12, 20), density=0.08),
        repetitions=2, params={"q": 1},
        csv_path=str(tmp_path / "a.csv"), json_path=str(tmp_path / "a.json"))
    record = run_experiment(m)
    assert record.ok
    cols = record.columns
    for row in record.rows:
        data = dict(zip(cols, row))
        assert int(data["total_bound"]) >= 0
        if data["measured"] != "":
            assert int(data["measured"]) <= int(data["total_bound"])


def test_run_experiment_paley_model(tmp_path):
    """A paley cell builds the Paley tournament on p vertices."""
    m = ExperimentManifest(
        experiment_id="pal", kind="adversary",
        generator=GeneratorSpec("paley", (11,)),
        repetitions=1, params={"q": 1},
        csv_path=str(tmp_path / "p.csv"), json_path=str(tmp_path / "p.json"))
    record = run_experiment(m)
    assert record.ok
    (row,) = record.rows
    data = dict(zip(record.columns, row))
    assert data["n"] == 11 and data["ok"] == 1


def test_run_experiment_builder_kind(tmp_path):
    m = ExperimentManifest(
        experiment_id="bld", kind="builder",
        generator=GeneratorSpec("tournament", (24,)),
        repetitions=3, params={"colors": 2, "k": 2},
        csv_path=str(tmp_path / "b.csv"), json_path=str(tmp_path / "b.json"))
    record = run_experiment(m)
    assert record.ok
    branch_idx = record.columns.index("branch")
    assert all(row[branch_idx] for row in record.rows)


def test_run_experiment_builder_two_colors_refuses_bad_n_target(tmp_path):
    """Two colors take the multicolor finder too, so n_target < 1 makes
    every cell a failed row."""
    m = ExperimentManifest(
        experiment_id="bld0", kind="builder",
        generator=GeneratorSpec("tournament", (12,)),
        repetitions=2, params={"colors": 2, "k": 2, "n_target": 0},
        csv_path=str(tmp_path / "b.csv"), json_path=str(tmp_path / "b.json"))
    record = run_experiment(m)
    assert record.failures == 2
    assert record.aggregates["12"]["errors"] == {"ValueError": 2}


# sha256 of the CSV that three fixed one-cell manifests write, recorded
# from the edge-by-edge generators; a drift in a generator's or the random
# coloring's stream changes the host and with it the row
@pytest.mark.parametrize("kind, spec, params, digest", [
    ("adversary", GeneratorSpec("oriented", (60,), density=0.3), {"q": 1},
     "681b0732a76d477cc01d9d92dbb467205284cc7f30d070ae87f0df3c9e34f4fd"),
    ("adversary", GeneratorSpec("digraph", (40,), density=0.4), {"q": 2},
     "6043754ed169a295c26dc2055596c6c01caea09e0305b45cc03b44e7649c9e6e"),
    ("builder", GeneratorSpec("tournament", (32,)), {"colors": 2},
     "a4f802b153c8ebbd25f6acd0aa08100639bbbfcbd33cc0d01fdd60fa2204417c"),
])
def test_fixed_manifest_csv_bytes(tmp_path, kind, spec, params, digest):
    m = ExperimentManifest(
        experiment_id=f"csv-{kind}-{spec.model}", kind=kind, generator=spec,
        params=params, csv_path=str(tmp_path / "c.csv"),
        json_path=str(tmp_path / "c.json"))
    assert run_experiment(m).ok
    assert hashlib.sha256((tmp_path / "c.csv").read_bytes()).hexdigest() == digest


def test_run_experiment_parallel_matches_serial(tmp_path, monkeypatch):
    m = _tiny_manifest(tmp_path, mode="exact")
    serial = run_experiment(m)
    monkeypatch.setenv("DIPATH_RAMSEY_WORKERS", "2")
    parallel = run_experiment(m)
    assert parallel.csv_text() == serial.csv_text()


def test_cli_import_leaves_out_the_worker_pool():
    """The process pool is imported only when a run asks for workers, so
    starting the CLI loads neither concurrent.futures nor multiprocessing."""
    src = str(Path(experiment.__file__).resolve().parents[1])
    code = ("import sys; import dipath_ramsey.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_aggregates_present(tmp_path):
    m = _tiny_manifest(tmp_path, mode="exact")
    record = run_experiment(m)
    assert record.aggregates
    for key, agg in record.aggregates.items():
        assert agg["runs"] == 2
        assert agg["failures"] == 0


def test_run_experiment_error_cell_is_failed_row(tmp_path, monkeypatch):
    """The exact check exceeds its subset budget at n=64; that cell becomes
    a failed row and the n=8 row survives, in serial and pooled runs."""
    m = ExperimentManifest(
        experiment_id="budget", kind="prcheck",
        generator=GeneratorSpec("tournament", (8, 64)),
        repetitions=1, params={"mode": "exact"},
        csv_path=str(tmp_path / "b.csv"), json_path=str(tmp_path / "b.json"))
    serial = run_experiment(m)
    assert serial.failures == 1 and not serial.ok
    small, big = serial.rows
    assert small[0] == 8 and small[-1] == 1
    assert big[:3] == (64, 0, derive_seed("budget", 64, 0)) and big[-1] == 0
    assert set(big[3:-1]) == {""}
    assert "Error" not in (tmp_path / "b.csv").read_text()
    assert serial.aggregates["8"]["errors"] == {}
    assert serial.aggregates["64"]["errors"] == {"BudgetExceededError": 1}
    payload = json.loads((tmp_path / "b.json").read_text())
    assert payload["record"]["aggregates"]["64"]["errors"] == {"BudgetExceededError": 1}
    monkeypatch.setenv("DIPATH_RAMSEY_WORKERS", "2")
    pooled = run_experiment(m)
    assert pooled.rows == serial.rows
    assert pooled.aggregates == serial.aggregates


def test_run_experiment_negative_trials_is_failed_row(tmp_path):
    """A negative trial count makes the refuter raise ValueError, so every
    sampled cell is a failed row rather than a row with no counterexample."""
    m = ExperimentManifest(
        experiment_id="negtrials", kind="prcheck",
        generator=GeneratorSpec("tournament", (12,)),
        repetitions=2, params={"mode": "sampled", "k": 2, "trials": -5},
        csv_path=str(tmp_path / "t.csv"), json_path=str(tmp_path / "t.json"))
    record = run_experiment(m)
    assert record.failures == 2
    assert all(row[-1] == 0 for row in record.rows)
    assert record.aggregates["12"]["errors"] == {"ValueError": 2}


def test_run_experiment_bad_cell_parameter_is_failed_row(tmp_path):
    """The default k = 6 exceeds n/2 at n=8, so the refuter raises
    ValueError there; that cell becomes a failed row, n=32 still runs, and
    the CLI prints the JSON record with exit code 1 and no traceback."""
    m = ExperimentManifest(
        experiment_id="badk", kind="prcheck",
        generator=GeneratorSpec("tournament", (8, 32)),
        repetitions=1, params={"mode": "sampled", "trials": 50},
        csv_path=str(tmp_path / "k.csv"), json_path=str(tmp_path / "k.json"))
    record = run_experiment(m)
    small, big = record.rows
    assert small[:3] == (8, 0, derive_seed("badk", 8, 0)) and small[-1] == 0
    assert set(small[3:-1]) == {""}
    assert big[0] == 32 and big[-1] == 1
    assert record.aggregates["8"]["errors"] == {"ValueError": 1}
    assert record.aggregates["32"]["errors"] == {}

    mpath = tmp_path / "m.json"
    mpath.write_text(m.to_json())
    res = CliRunner().invoke(main, ["experiment", "--manifest", str(mpath)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.output
    printed = json.loads(res.output)
    assert printed["rows"] == 2 and printed["failures"] == 1
    assert printed["aggregates"] == record.aggregates


def _fail_check_partition(real):
    def check(g, result, cfg, q):
        if g.n == 12:
            raise AssertionError("partition invariant broken")
        return real(g, result, cfg, q)
    return check


def _measure_above_bound(real):
    def measure(g, coloring):
        per_color = real(g, coloring)
        if g.n == 12:
            # no adversary bound on 12 vertices comes near this
            per_color[1] = OracleResult(10**6, None, 0)
        return per_color
    return measure


def _fail_validate(real):
    def validate(self, g, coloring):
        if g.n == 12:
            raise ColoringError("certificate path changes color")
        return real(self, g, coloring)
    return validate


@pytest.mark.parametrize("kind, model, params, owner, name, wrap", [
    ("adversary", "oriented", {"q": 1}, experiment, "check_partition",
     _fail_check_partition),
    ("adversary", "oriented", {"q": 1}, experiment, "longest_mono_path",
     _measure_above_bound),
    ("builder", "tournament", {"colors": 2, "k": 2}, BuilderCertificate, "validate",
     _fail_validate),
])
def test_run_experiment_failed_check_is_failed_row(tmp_path, monkeypatch, kind, model,
                                                  params, owner, name, wrap):
    """A cell whose own check fails (the adversary's partition check, its
    measured path against the claimed bound, or the builder certificate's
    validation) keeps its full row with ok=0 and no error class, while
    the other cell passes and the CSV is written."""
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    m = ExperimentManifest(
        experiment_id=f"bad-{name}", kind=kind,
        generator=GeneratorSpec(model, (10, 12), density=0.2),
        params=params, csv_path=str(tmp_path / "f.csv"),
        json_path=str(tmp_path / "f.json"))
    record = run_experiment(m)
    assert record.failures == 1
    good, bad = record.rows
    assert good[0] == 10 and good[-1] == 1
    assert bad[0] == 12 and bad[-1] == 0
    assert "" not in bad  # a full row, not an error cell's blanks
    assert record.aggregates["12"]["errors"] == {}
    if name == "longest_mono_path":
        data = dict(zip(record.columns, bad))
        assert data["measured"] > data["total_bound"]
    assert (tmp_path / "f.csv").read_text() == record.csv_text()


@pytest.mark.parametrize("params", [
    {"k": [1]}, {"q": "2"}, {"trials": 2.5}, {"colors": True},
    {"n_target": None}, {"mode": 1}, {"mode": "exakt"},
])
def test_manifest_rejects_bad_params(tmp_path, params):
    """A param of the wrong type, or an unknown mode, is a ManifestError
    before any cell runs, through run_experiment and as one CLI Error line,
    never a TypeError traceback from inside the sweep."""
    data = {**_tiny_manifest(tmp_path, kind="builder").to_dict(), "params": params}
    with pytest.raises(ManifestError, match=f"params.{next(iter(params))} must be"):
        run_experiment(ExperimentManifest.from_dict(data))
    assert not (tmp_path / "out.csv").exists()

    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(data))
    res = CliRunner().invoke(main, ["experiment", "--manifest", str(mpath)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"Error: params.{next(iter(params))} must be" in res.output
    assert "Traceback" not in res.output
    assert not (tmp_path / "out.csv").exists()


# -- adversary vs oracle cross-check ---------------------------------------

def test_adversary_never_beats_oracle_exhaustive():
    """Every oriented graph on 4 vertices with at most 5 edges: the
    pipeline coloring is measurable and lands between the true optimum
    and its own claimed bound."""
    import itertools
    pairs = [(u, v) for u in range(4) for v in range(4) if u < v]
    failures = 0
    for orient_bits in range(3 ** 6):
        states, x = [], orient_bits
        for _ in range(6):
            states.append(x % 3)
            x //= 3
        edges = []
        for (u, v), s in zip(pairs, states):
            if s == 1:
                edges.append((u, v))
            elif s == 2:
                edges.append((v, u))
        if len(edges) > 5:
            continue
        g = OrientedGraph(4, edges)
        result = theorem1_adversary(g, 1)
        measured = max_mono_path(g, result.coloring)
        optimum = min_max_mono_path(g, 2).value
        if not (optimum <= measured <= result.partition.total_bound):
            failures += 1
    assert failures == 0
