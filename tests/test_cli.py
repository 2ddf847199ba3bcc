"""End-to-end runs of the command line interface."""
import io
import json
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from dipath_ramsey import (
    EdgeColoring,
    ExperimentManifest,
    GeneratorSpec,
    OrientedGraph,
    min_max_mono_path,
    random_tournament,
    serialize_coloring,
    serialize_graph,
    transitive_tournament,
    write_graph,
)
from dipath_ramsey.cli import main


def test_gen_and_prcheck(tmp_path):
    runner = CliRunner()
    gpath = tmp_path / "t.graph"
    res = runner.invoke(main, ["gen", "--model", "random", "--n", "12",
                               "--seed", "3", "--out", str(gpath)])
    assert res.exit_code == 0, res.output
    assert gpath.read_text().startswith("12 66 oriented")

    res = runner.invoke(main, ["prcheck", "--mode", "exact",
                               "--in", str(gpath)])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["k_star"] >= 1
    assert report["mode"] == "exact"


def test_prcheck_rejects_negative_trials(tmp_path):
    """A negative --trials is an `Error:` line and exit status 1, not a
    report with no counterexample."""
    gpath = tmp_path / "tt.graph"
    write_graph(str(gpath), transitive_tournament(8))
    res = CliRunner().invoke(main, ["prcheck", "--mode", "sampled", "--k", "3",
                                    "--trials", "-5", "--in", str(gpath)])
    assert res.exit_code == 1
    assert not isinstance(res.exception, ValueError)
    assert "Error: trials must be at least 0, got -5" in res.output
    assert "counterexample" not in res.output


def test_prcheck_sampled_output(tmp_path):
    """The sampled mode's JSON, and any counterexample it returns checked
    on its own: two disjoint k-sets with no edge from the first to the
    second.  About half the draws of A in TT8 at k=2 give one."""
    runner = CliRunner()
    for name, g, k in (("random", random_tournament(12, 3).underlying, 3),
                       ("tt", transitive_tournament(8), 2)):
        gpath = tmp_path / f"{name}.graph"
        write_graph(str(gpath), g)
        res = runner.invoke(main, ["prcheck", "--mode", "sampled", "--k", str(k),
                                   "--trials", "50", "--seed", "1", "--in", str(gpath)])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.output)
        assert set(payload) == {"mode", "k", "trials", "counterexample"}
        assert (payload["mode"], payload["k"], payload["trials"]) == ("sampled", k, 50)
        found = payload["counterexample"]
        if name == "tt":
            assert found is not None
        if found is not None:
            a, b = found
            assert len(set(a)) == len(set(b)) == k and not set(a) & set(b)
            assert all(0 <= v < g.n for v in a + b)
            assert not any(g.has_edge(u, v) for u in a for v in b)


def test_gen_paley_requires_prime(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["gen", "--model", "paley", "--p", "9",
                               "--out", str(tmp_path / "p.graph")])
    assert res.exit_code != 0


def test_gen_rejects_negative_density(tmp_path):
    runner = CliRunner()
    for model in ("oriented", "digraph"):
        gpath = tmp_path / f"{model}.graph"
        res = runner.invoke(main, ["gen", "--model", model, "--n", "10",
                                   "--density", "-0.5", "--out", str(gpath)])
        assert res.exit_code != 0
        assert "Error: m=-50 is outside" in res.output
        assert not gpath.exists()


def test_bad_numeric_options_are_cli_errors(tmp_path):
    runner = CliRunner()
    gpath, cpath = tmp_path / "t.graph", tmp_path / "t.col"
    res = runner.invoke(main, ["gen", "--model", "random", "--n", "6",
                               "--seed", "1", "--out", str(gpath)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["adversary", "--q", "1", "--in", str(gpath),
                               "--out", str(cpath)])
    assert res.exit_code == 0, res.output
    cases = [
        (["oracle", "--mode", "minmax", "--q", "0"], "q must be >= 1"),
        (["oracle", "--mode", "arrow", "--n", "-1"], "n_target must be >= 0"),
        (["prcheck", "--mode", "sampled", "--k", "0"], "k must be in [1, 3]"),
        (["adversary", "--q", "0", "--out", str(tmp_path / "x.col")], "q must be >= 1"),
        (["build-path", "--k", "0", "--coloring", str(cpath)], "k must be >= 1"),
        (["gen", "--model", "oriented", "--n", "-3", "--out", str(tmp_path / "x.graph")],
         "vertex count must be nonnegative, got -3"),
    ]
    for args, message in cases:
        if args[0] != "gen":
            args = args + ["--in", str(gpath)]
        res = runner.invoke(main, args)
        assert res.exit_code == 1, args
        assert not isinstance(res.exception, ValueError), args
        assert f"Error: {message}" in res.output, args
    assert not (tmp_path / "x.graph").exists()


def test_adversary_command(tmp_path):
    runner = CliRunner()
    gpath = tmp_path / "g.graph"
    runner.invoke(main, ["gen", "--model", "oriented", "--n", "30",
                         "--density", "0.05", "--seed", "1",
                         "--out", str(gpath)])
    cpath = tmp_path / "col.txt"
    tpath = tmp_path / "trace.json"
    res = runner.invoke(main, ["adversary", "--q", "1", "--in", str(gpath),
                               "--out", str(cpath), "--trace", str(tpath)])
    assert res.exit_code == 0, res.output
    assert cpath.exists()
    trace = json.loads(tpath.read_text())
    assert "bounds" in trace and trace["bounds"]["total"] >= 2


def test_build_path_command(tmp_path):
    runner = CliRunner()
    gpath = tmp_path / "g.graph"
    runner.invoke(main, ["gen", "--model", "random", "--n", "16",
                         "--seed", "5", "--out", str(gpath)])
    cpath = tmp_path / "col.txt"
    res = runner.invoke(main, ["adversary", "--q", "1", "--in", str(gpath),
                               "--out", str(cpath)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["build-path", "--colors", "2", "--k", "2",
                               "--in", str(gpath), "--coloring", str(cpath)])
    assert res.exit_code == 0, res.output
    cert = json.loads(res.output)
    assert cert["branch"]
    assert len(cert["path"]) == cert["length"] + 1


def test_build_path_two_colors_refuses_bad_n_target(tmp_path):
    """Every color count goes through the multicolor finder, which refuses
    n_target < 1 before it looks at the colors."""
    runner = CliRunner()
    gpath, cpath = tmp_path / "g.graph", tmp_path / "col.txt"
    runner.invoke(main, ["gen", "--model", "random", "--n", "16",
                         "--seed", "5", "--out", str(gpath)])
    runner.invoke(main, ["adversary", "--q", "1", "--in", str(gpath), "--out", str(cpath)])
    res = runner.invoke(main, ["build-path", "--colors", "2", "--k", "2", "--n-target", "0",
                               "--in", str(gpath), "--coloring", str(cpath)])
    assert res.exit_code == 1
    assert "Error: n_target must be >= 1" in res.output
    assert "Traceback" not in res.output


def test_build_path_three_colors_refuses_bad_k(tmp_path):
    """k is checked up front also when the top color alone would give a
    shortcut certificate."""
    runner = CliRunner()
    gpath, cpath = tmp_path / "g.graph", tmp_path / "col.txt"
    g = transitive_tournament(8)
    gpath.write_text(serialize_graph(g))
    cpath.write_text(serialize_coloring(g, EdgeColoring(3, {e: 3 for e in g.edges()})))
    res = runner.invoke(main, ["build-path", "--colors", "3", "--k", "0", "--n-target", "1",
                               "--in", str(gpath), "--coloring", str(cpath)])
    assert res.exit_code == 1
    assert res.output.count("Error:") == 1
    assert "Error: k must be >= 1" in res.output
    assert "Traceback" not in res.output


def test_oracle_modes(tmp_path):
    runner = CliRunner()
    gpath = tmp_path / "g.graph"
    gpath.write_text("3 3 symmetric\n0 1\n1 0\n1 2\n")
    res = runner.invoke(main, ["oracle", "--mode", "minmax", "--q", "2",
                               "--in", str(gpath)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["value"] >= 1

    res = runner.invoke(main, ["oracle", "--mode", "arrow", "--q", "1",
                               "--n", "2", "--in", str(gpath)])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["arrows"] in (True, False)

    colpath = tmp_path / "c.txt"
    colpath.write_text("0 1 1\n1 0 1\n1 2 2\n")
    res = runner.invoke(main, ["oracle", "--mode", "path", "--in", str(gpath),
                               "--coloring", str(colpath)])
    assert res.exit_code == 0, res.output
    per_color = json.loads(res.output)
    assert per_color["1"]["value"] == 1


def _oracle_path(tmp_path, g, coloring):
    """`oracle --mode path` on g and a coloring of it, through files."""
    gpath, cpath = tmp_path / "g.graph", tmp_path / "g.col"
    write_graph(str(gpath), g)
    cpath.write_text(serialize_coloring(g, coloring))
    return CliRunner().invoke(main, ["oracle", "--mode", "path", "--in", str(gpath),
                                     "--coloring", str(cpath)])


def test_oracle_path_measures_the_minmax_witness_past_the_old_limit(tmp_path):
    """A 3-cycle beside a 21-edge path, on 25 vertices: minmax at q=1 is
    21, and the path mode measures its witness, a cyclic class on 25
    vertices, as 21 at the default."""
    g = OrientedGraph(25, [(0, 1), (1, 2), (2, 0)] + [(i, i + 1) for i in range(3, 24)])
    res = _oracle_path(tmp_path, g, min_max_mono_path(g, 1).witness)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["1"]["value"] == 21


def test_oracle_path_too_deep_is_one_error_line(tmp_path):
    """A 1,200-edge path that ends in a 3-cycle is too deep for the path
    search's recursion: one `Error:` line and exit status 1, not a
    traceback."""
    n = 1203
    g = OrientedGraph(n, [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 3)])
    res = _oracle_path(tmp_path, g, EdgeColoring(1, {e: 1 for e in g.edges()}))
    assert res.exit_code == 1
    assert res.output.count("Error:") == 1 and "recursion limit" in res.output
    assert "Traceback" not in res.output


def test_oracle_arrow_needs_n(tmp_path):
    runner = CliRunner()
    gpath = tmp_path / "g.graph"
    gpath.write_text("2 1 oriented\n0 1\n")
    res = runner.invoke(main, ["oracle", "--mode", "arrow", "--in", str(gpath)])
    assert res.exit_code != 0


def test_experiment_command(tmp_path):
    manifest = ExperimentManifest(
        experiment_id="cli-e2e", kind="prcheck",
        generator=GeneratorSpec("tournament", (8,)),
        repetitions=1, params={"mode": "exact"},
        csv_path=str(tmp_path / "r.csv"), json_path=str(tmp_path / "r.json"))
    mpath = tmp_path / "m.json"
    mpath.write_text(manifest.to_json())
    runner = CliRunner()
    res = runner.invoke(main, ["experiment", "--manifest", str(mpath)])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["failures"] == 0
    assert (tmp_path / "r.csv").read_text().startswith("n,run,seed")


def _streamed(path) -> bytes:
    """The bytes `json.dump` streams for the file's object, chunk by
    chunk, with the trailing newline: the files' format."""
    buf = io.StringIO()
    json.dump(json.loads(path.read_text()), buf, indent=2, sort_keys=True)
    buf.write("\n")
    return buf.getvalue().encode("ascii")


def test_json_files_are_written_as_streamed(tmp_path):
    """`adversary --trace`, `build-path --out` and an experiment's JSON
    record each write their file in one piece, with the same bytes."""
    runner = CliRunner()
    gpath, cpath = tmp_path / "g.graph", tmp_path / "col.txt"
    runner.invoke(main, ["gen", "--model", "random", "--n", "16",
                         "--seed", "5", "--out", str(gpath)])
    tpath, opath = tmp_path / "trace.json", tmp_path / "cert.json"
    res = runner.invoke(main, ["adversary", "--q", "1", "--in", str(gpath),
                               "--out", str(cpath), "--trace", str(tpath)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, ["build-path", "--colors", "2", "--k", "2", "--in", str(gpath),
                               "--coloring", str(cpath), "--out", str(opath)])
    assert res.exit_code == 0, res.output
    manifest = ExperimentManifest(
        experiment_id="json-bytes", kind="adversary",
        generator=GeneratorSpec("oriented", (40,), density=0.05),
        repetitions=1, params={"q": 1},
        csv_path=str(tmp_path / "r.csv"), json_path=str(tmp_path / "r.json"))
    mpath = tmp_path / "m.json"
    mpath.write_text(manifest.to_json())
    res = runner.invoke(main, ["experiment", "--manifest", str(mpath)])
    assert res.exit_code == 0, res.output
    for path in (tpath, opath, tmp_path / "r.json"):
        assert path.read_bytes() == _streamed(path)


def test_malformed_graph_is_cli_error(tmp_path):
    runner = CliRunner()
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph\n")
    res = runner.invoke(main, ["prcheck", "--in", str(bad)])
    assert res.exit_code != 0
    assert "Error" in res.output


def test_non_ascii_input_is_cli_error(tmp_path):
    runner = CliRunner()
    bad = tmp_path / "bad.graph"
    bad.write_bytes("3 1 oriented\n0 1 caf\u00e9\n".encode("utf-8"))
    res = runner.invoke(main, ["prcheck", "--in", str(bad)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: line 2" in res.output and "non-ASCII" in res.output


def test_bad_config_is_cli_error(tmp_path):
    runner = CliRunner()
    gpath = tmp_path / "g.graph"
    runner.invoke(main, ["gen", "--model", "oriented", "--n", "10",
                         "--seed", "1", "--out", str(gpath)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_key": 1}))
    res = runner.invoke(main, ["adversary", "--config", str(cfg), "--in", str(gpath),
                               "--out", str(tmp_path / "c.txt")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: bad config" in res.output and "no_such_key" in res.output
    assert "Traceback" not in res.output


def test_non_ascii_manifest_is_cli_error(tmp_path):
    runner = CliRunner()
    mpath = tmp_path / "m.json"
    mpath.write_bytes('{"experiment_id": "caf\u00e9"}'.encode("utf-8"))
    res = runner.invoke(main, ["experiment", "--manifest", str(mpath)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: line 1" in res.output and "non-ASCII" in res.output
    assert "Traceback" not in res.output


def test_unwritable_output_is_cli_error(tmp_path):
    """An output path under a missing directory, or a worker count that is
    not a number, ends in one `Error:` line, not a traceback."""
    runner = CliRunner()
    missing = tmp_path / "no-such-dir"
    res = runner.invoke(main, ["gen", "--model", "random", "--n", "6",
                               "--out", str(missing / "t.graph")])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: " in res.output and "No such file or directory" in res.output
    cases = [(str(missing / "r.csv"), {}, "No such file or directory"),
             (str(tmp_path / "r.csv"), {"DIPATH_RAMSEY_WORKERS": "abc"},
              "invalid literal for int()")]
    for csv_path, env, message in cases:
        manifest = ExperimentManifest(
            experiment_id="cli-unwritable", kind="prcheck",
            generator=GeneratorSpec("tournament", (6,)),
            repetitions=1, params={"mode": "exact"},
            csv_path=csv_path, json_path=str(tmp_path / "r.json"))
        mpath = tmp_path / "m.json"
        mpath.write_text(manifest.to_json())
        res = runner.invoke(main, ["experiment", "--manifest", str(mpath)], env=env)
        assert res.exit_code == 1, res.output
        assert isinstance(res.exception, SystemExit)
        assert "Error: " in res.output and message in res.output
        assert "Traceback" not in res.output
    assert not missing.exists()


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    """Every `dipath-ramsey` line of the README's CLI block, in order, in
    an empty directory that holds only the manifest the README shows."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cli = readme.split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", cli, re.S).group(1)
    (manifest,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    lines = [line for line in block.splitlines() if line.startswith("dipath-ramsey ")]
    assert len(lines) == 15 and lines[-1].endswith("--manifest manifest.json")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "manifest.json").write_text(manifest, encoding="ascii")
    runner = CliRunner()
    for line in lines:
        res = runner.invoke(main, shlex.split(line, comments=True)[1:])
        assert res.exit_code == 0, (line, res.output)
    record = json.loads(res.output)
    assert (record["rows"], record["failures"]) == (5, 0)
    assert (tmp_path / "results.csv").read_text().count("\n") == 6


def test_usage_errors_name_the_missing_option(tmp_path):
    """Each option a mode needs is a usage error (exit status 2).  The
    sampled check and the path oracle ask for it before they read the
    graph, so a bad graph file is not what they report."""
    bad = tmp_path / "bad.graph"
    bad.write_text("not a graph\n")
    cases = [
        (["gen", "--model", "paley", "--out", str(tmp_path / "p.graph")],
         "--model paley requires --p"),
        (["gen", "--model", "random", "--out", str(tmp_path / "r.graph")],
         "--model random requires --n"),
        (["prcheck", "--mode", "sampled", "--in", str(bad)], "--mode sampled requires --k"),
        (["oracle", "--mode", "path", "--in", str(bad)], "--mode path requires --coloring"),
    ]
    for args, message in cases:
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 2, args
        assert f"Error: {message}" in res.output, args
    assert not list(tmp_path.glob("[pr].graph"))
