"""scripts/bench.py reads perfbench's output lines and summarises runs."""
import importlib.util
import json
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

# prints what perfbench/run.py prints, with jobs_per_s = 100 * seed and
# one failed job in the exact-oracle workload
_STUB = textwrap.dedent('''\
    import argparse, json
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload"); ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    a = ap.parse_args()
    failed = int(a.workload == "exact-oracle")
    print(f"perfbench workload={a.workload} seed={a.seed}")
    print("  env git_sha=abc123 python=3.11.7 nproc=2 cpu='x'")
    print(f"  output digest sha256=d{a.seed}ff (matches baseline)")
    print("  times at reference speed (reference work = 1.9 ms); the reference ran "
          "1.50x slower (median; quartiles 1.40-1.60) during the jobs")
    print(json.dumps({"attempted": 4, "correct": not failed, "failed": failed,
                      "metrics": {"jobs_per_s": {"unit": "jobs/s", "value": 100.0 * a.seed}}}))
    raise SystemExit(failed)
''')


def test_run_once_reads_each_line(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(_STUB)
    run = bench.run_once(str(tmp_path), "lower-witness", 2)
    assert run["exit_code"] == 0
    assert run["env"] == {"git_sha": "abc123", "python": "3.11.7", "nproc": 2}
    assert (run["digest"], run["digest_status"]) == ("d2ff", "matches baseline")
    assert run["slowdown"] == 1.5
    assert run["result"]["metrics"]["jobs_per_s"]["value"] == 200.0
    failed = bench.run_once(str(tmp_path), "exact-oracle", 1)
    assert failed["exit_code"] == 1 and failed["result"]["failed"] == 1


def test_summarise_gives_median_quartiles_and_counts():
    def run(value, failed=0, digest="aa"):
        return {"digest": digest, "digest_status": "matches baseline", "slowdown": 1.0,
                "result": {"attempted": 10, "failed": failed,
                           "metrics": {"jobs_per_s": {"unit": "jobs/s", "value": value}}}}
    runs = [run(1.0), run(2.0), run(3.0, failed=1), run(4.0, digest="bb"),
            {"digest": None, "digest_status": None, "slowdown": None, "result": None}]
    got = bench.summarise(runs)
    spread = got["metrics"]["jobs_per_s"]
    assert spread["median"] == 2.5 and spread["values"] == [1.0, 2.0, 3.0, 4.0]
    assert spread["q1"] < 2.5 < spread["q3"]
    assert (got["runs"], got["no_result"]) == (5, 1)
    assert got["failed"] == [0, 0, 1, 0] and got["attempted"] == [10] * 4
    assert got["digests"] == ["aa", "bb"]
    json.dumps(got)  # the summary is what BENCH_<label>.json holds
    one = bench.summarise([run(7.0)])["metrics"]["jobs_per_s"]
    assert (one["median"], one["q1"], one["q3"]) == (7.0, 7.0, 7.0)


def test_read_summary_takes_the_counts_of_the_last_summary_line():
    lines = ["tests/test_x.py::test_ok 36.48s call", "FAILED tests/test_acceptance.py::t",
             "455 passed, 1 failed in 116.32s (0:01:56)"]
    assert bench.read_summary(lines) == {"passed": 455, "failed": 1, "deselected": 0}
    quiet = "1 failed, 455 passed, 3 deselected in 113.33s (0:01:53)"
    assert bench.read_summary([quiet, ""]) == {"passed": 455, "failed": 1, "deselected": 3}
    framed = "==== 12 passed, 2 deselected, 1 warning in 0.50s ===="
    assert bench.read_summary([framed]) == {"passed": 12, "failed": 0, "deselected": 2}
    assert bench.read_summary(["3 passed", "collected 3 items"]) is None


def test_run_tier1_times_one_run_and_writes_no_cache(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_stub.py").write_text(
        "def test_ok():\n    pass\n\n\ndef test_bad():\n    assert False\n")
    run = bench.run_tier1(str(tmp_path))
    assert run["exit_code"] == 1 and run["wall_s"] > 0
    assert run["counts"] == {"passed": 1, "failed": 1, "deselected": 0}
    assert not (tmp_path / ".pytest_cache").exists()
