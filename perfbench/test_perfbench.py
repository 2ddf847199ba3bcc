"""Tests of the benchmark's own machinery, on tiny inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from perfbench import harness, layers, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


class FakeClock:
    """A clock that only moves when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


# -- self-time accounting -----------------------------------------------------


def _total_self(tr):
    return sum(st.self_s for st in tr.stats.values())


def test_nested_spans_self_time():
    clock = FakeClock()
    tr = Tracer(clock)

    def inner():
        clock.tick(1.0)

    def middle():
        clock.tick(2.0)
        inner_w()
        clock.tick(0.5)

    def outer():
        clock.tick(4.0)
        middle_w()

    inner_w = tr.wrap("m.inner", inner)
    middle_w = tr.wrap("m.middle", middle)
    outer_w = tr.wrap("m.outer", outer)
    tr.active = True
    outer_w()
    assert tr.self_s("m.inner") == 1.0
    assert tr.self_s("m.middle") == 2.5
    assert tr.self_s("m.outer") == 4.0
    assert tr.root_s == 7.5 == _total_self(tr)


def test_recursive_spans_count_each_level_once():
    clock = FakeClock()
    tr = Tracer(clock)

    def rec(depth):
        clock.tick(1.0)
        if depth:
            rec_w(depth - 1)
        clock.tick(0.25)

    rec_w = tr.wrap("m.rec", rec)
    tr.active = True
    rec_w(3)
    assert tr.calls("m.rec") == 4
    assert tr.self_s("m.rec") == 4 * 1.25
    assert tr.root_s == _total_self(tr) == 5.0


def test_inactive_tracer_records_nothing():
    tr = Tracer(FakeClock())
    f = tr.wrap("m.f", lambda: 3)
    assert f() == 3
    assert tr.stats == {} and tr.root_s == 0.0


def test_error_spans_are_closed_and_counted():
    tr = Tracer(FakeClock())

    def boom():
        raise KeyError("x")

    f = tr.wrap("m.boom", boom)
    tr.active = True
    with pytest.raises(KeyError):
        f()
    assert tr.calls("m.boom") == 1 and tr.errors("m.boom", "KeyError") == 1
    assert tr._stack == []


def test_install_on_package_nests_builder_spans():
    import dipath_ramsey as dr
    from dipath_ramsey import builder, classic

    original = classic.gallai_roy
    tr = Tracer()
    tr.install()
    layers.register_hooks(tr)
    try:
        # one wrapper object serves every namespace that held the function
        assert builder.gallai_roy is classic.gallai_roy is dr.gallai_roy
        assert classic.gallai_roy is not original
        g = dr.random_tournament(24, 5).underlying
        coloring = dr.EdgeColoring(3, {e: 1 + (e[0] * 7 + e[1]) % 3 for e in g.edges()})
        tr.active = True
        dr.multicolor_path_finder(g, coloring, 2, 24, dr.ConstantsConfig.relaxed())
        tr.active = False
    finally:
        tr.uninstall()
    assert classic.gallai_roy is original and builder.gallai_roy is original
    # multicolor recursion, then two-color -> gallai_roy -> acyclic subgraph
    assert tr.calls("builder.multicolor_path_finder") >= 2
    assert tr.calls("builder.two_color_path_finder") == 1
    assert tr.calls("classic.maximal_acyclic_subgraph") >= tr.calls("classic.gallai_roy") >= 2
    assert _total_self(tr) == pytest.approx(tr.root_s, rel=1e-9)
    values, absent = layers.collect(tr, wall_s=tr.root_s, overhead_ratio=1.0)
    assert absent == []
    assert values["trace.unattributed_s"] == pytest.approx(0.0, abs=1e-9)
    assert 0.0 <= values["classic.gallai_roy.path_ratio"] <= 1.0
    assert set(values) == set(layers.metric_units())


def test_missing_function_is_reported_absent():
    tr = Tracer()
    tr.install()
    tr.uninstall()
    tr.installed.discard("paths.longest_path_length_masks")
    values, absent = layers.collect(tr, wall_s=1.0, overhead_ratio=1.0)
    assert "paths.longest_path_length_masks" in absent
    assert values["paths.longest_path_length_masks.self_s"] == 0.0


# -- percentile rule ----------------------------------------------------------


def test_percentile_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert harness.percentile(values, 90) == 90.0
    assert harness.percentile(values, 50) == 50.0
    assert harness.percentile([3.0], 90) == 3.0
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_p90_needs_a_hundred_samples():
    assert harness.samples_beyond(workloads.MIN_JOBS, 90) == 10
    assert harness.samples_beyond(workloads.MIN_JOBS - 1, 90) == 9


# -- output checks count as failures -----------------------------------------


def _jobs(check):
    return [harness.Job("ok", lambda: "a", lambda out: harness.Outcome(out.encode())),
            harness.Job("x", lambda: "b", check)]


def test_broken_check_raises_failed_ratio():
    def broken(out):
        raise harness.CheckFailed("deliberately wrong")

    good = harness.measure(_jobs(lambda out: harness.Outcome(out.encode())), passes=5)
    bad = harness.measure(_jobs(broken), passes=5)
    assert good.failed == 0 and good.attempted == 10
    assert bad.failed == 5 and bad.attempted == 10
    assert "deliberately wrong" in bad.errors[0]


def test_job_exception_and_changed_output_are_failures():
    def crash():
        raise RuntimeError("exit code 1")

    outputs = iter(["v1", "v2"])
    jobs = [harness.Job("crash", crash, lambda out: harness.Outcome(b"")),
            harness.Job("flaky", lambda: next(outputs),
                        lambda out: harness.Outcome(out.encode()))]
    res = harness.measure(jobs, passes=2)
    assert res.failed == 3  # two crashes, one output that changed between passes


def test_latency_is_the_best_pass():
    clock = FakeClock()
    ticks = iter([3.0, 1.0, 2.0, 5.0, 5.0, 4.0])

    def run():
        clock.tick(next(ticks))
        return "x"

    jobs = [harness.Job("a", run, lambda out: harness.Outcome(b"x")),
            harness.Job("b", run, lambda out: harness.Outcome(b"x"))]
    res = harness.measure(jobs, passes=3, clock=clock,
                          reference=lambda clock: harness.REFERENCE_S)
    assert res.latencies == [2.0, 1.0]  # a ran 3, 2, 5; b ran 1, 5, 4
    assert res.timed_s == 20.0 and res.attempted == 6 and res.passes == 3
    assert res.jobs_per_s == 2 / 3.0


def test_latency_is_scaled_by_the_local_reference():
    ref = harness.REFERENCE_S
    assert harness.REFERENCE_WINDOW == 3
    # a spell at half speed covers the last seven jobs; one reference
    # reading in the fast stretch is an outlier the local median ignores
    raw = [1.0] * 7 + [2.0] * 7
    refs = [ref] * 7 + [2 * ref] * 7
    refs[2] = 5 * ref
    assert harness.scale_to_reference(raw, refs) == pytest.approx([1.0] * 14)
    assert harness.scale_to_reference([3.0], [2 * ref]) == [1.5]


def test_reference_work_is_fixed():
    assert harness.reference_work() == harness.reference_work()
    assert harness.time_reference() > 0


def test_certificate_check_rejects_a_wrong_color():
    n = 3
    table = bytearray(n * n)
    table[0 * n + 1] = 1
    table[1 * n + 2] = 2
    check = workloads._build_path_check(table, n, 2)
    good = json.dumps({"path": [0, 1], "length": 1, "color": 1})
    assert check(good).witness == pytest.approx(1 / 3)
    for bad in ({"path": [0, 1, 2], "length": 2, "color": 1},
                {"path": [0, 1], "length": 2, "color": 1},
                {"path": [1, 0], "length": 1, "color": 1}):
        with pytest.raises(harness.CheckFailed):
            check(json.dumps(bad))


def test_counterexample_check():
    n = 4
    adj = bytearray(n * n)
    adj[0 * n + 2] = 1
    check = workloads._prcheck_check(adj, n, 1)
    check(json.dumps({"mode": "sampled", "counterexample": [[0], [3]]}))
    with pytest.raises(harness.CheckFailed):
        check(json.dumps({"mode": "sampled", "counterexample": [[0], [2]]}))


def test_workload_jobs_pass_their_checks(tmp_path):
    for name in workloads.WORKLOADS:
        workdir = tmp_path / name
        workdir.mkdir()
        wl = workloads.build(name, seed=3, seconds=0, workdir=str(workdir), tracer=Tracer())
        lanes = {job.lane for job in wl.jobs}
        # one job per lane keeps this test small
        picked = [next(j for j in wl.jobs if j.lane == lane) for lane in sorted(lanes)]
        if name == "exact-oracle":  # arrow's check needs the minmax before it
            picked.sort(key=lambda j: j.lane != "oracle-minmax-t7")
        res = harness.measure(picked, passes=1)
        assert res.failed == 0, res.errors


# -- the command --------------------------------------------------------------


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def test_benchmark_json_lists_every_metric_and_workload():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.metric_units()


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-oracle",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    bench = _benchmark_json()
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}


def test_command_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
