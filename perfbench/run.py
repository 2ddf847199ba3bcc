#!/usr/bin/env python3
"""Benchmark of the dipath_ramsey toolkit.

    python3 perfbench/run.py --workload upper-witness --seed 1 --seconds 15 --trace 0

Runs one workload in this process, one job at a time, through the click CLI
invoked in-process (and `raynaud` library calls).  With ``--trace 0`` it
reports the end-to-end metrics, with times scaled to reference speed (see
perfbench/harness.py); with ``--trace 1`` it wraps the package's
public functions and reports per-layer self times and counters instead.
Every output is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the exit code
is nonzero when any job failed.  ``--workload all`` runs the three
workloads one after another, each in its own process, so that each one's
peak memory and import time are its own.

The package is imported from ``src/`` of the checkout this file sits in;
without it the command exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
BASELINE = os.path.join(ROOT, "perfbench", "baseline.json")

# set-up runs at least 3 and at most 9 times, while the reps so far took
# under SETUP_BUDGET_S; its median is setup_s
SETUP_REPS = (3, 9)
SETUP_BUDGET_S = 2.0
# the traced run fails when more than this share of its wall time lies
# under no span: the trace would then not say where the time goes
UNATTRIBUTED_LIMIT = 0.05
WORKERS_ENV = "DIPATH_RAMSEY_WORKERS"
# the witness metric a workload does not produce reads this constant
NO_WITNESS = 1.0


def _purge_package() -> None:
    """Forget the package and click, so the next set-up imports them anew."""
    for name in list(sys.modules):
        if name.split(".", 1)[0] in ("dipath_ramsey", "click"):
            del sys.modules[name]


def _check_import() -> None:
    dr = importlib.import_module("dipath_ramsey")
    where = os.path.realpath(dr.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"dipath_ramsey imported from {where}, not from {SRC}")


def _baseline_digest(name: str, seed: int, seconds: float) -> str | None:
    """The output digest baseline.json records for this run, if any."""
    try:
        with open(BASELINE, encoding="ascii") as fh:
            base = json.load(fh)
    except (OSError, ValueError):
        return None
    if base.get("seconds") != seconds:
        return None
    return base.get("workloads", {}).get(name, {}).get("digest", {}).get(str(seed))


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<48} {text:>14} {unit}{'  ' + note if note else ''}")


def _setup(harness, workloads, name, seed, seconds, tracer, reps):
    """Import, generate and write inputs, warm up; repeated as `reps` and
    SETUP_BUDGET_S allow, keeping the last set of jobs.  The reference is
    timed between chunks of each repeat, and each chunk is scaled to
    reference speed like a job (see harness.measure).
    Returns (workload, [scaled seconds per rep], [measured seconds per rep]),
    where neither count the reference's own time."""
    base = os.path.join(WORK, f"{name}-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    scaled, times = [], []
    wl = None
    least, most = reps
    while len(times) < least or (len(times) < most and sum(times) < SETUP_BUDGET_S):
        rep = len(times)
        wl = None
        if most > 1:
            _purge_package()
        gc.collect()
        workdir = os.path.join(base, f"setup{rep}")
        os.makedirs(workdir)
        chunks, refs = [], []
        mark = time.perf_counter()

        def checkpoint():
            nonlocal mark
            chunks.append(time.perf_counter() - mark)
            # in a traced set-up the reference would run inside its spans
            refs.append(harness.REFERENCE_S if tracer.active
                        else harness.time_reference())
            mark = time.perf_counter()

        wl = workloads.build(name, seed, seconds, workdir, tracer, checkpoint)
        for job in wl.warmup:
            try:
                job.run()
            except Exception:  # the timed run counts this job's failure
                pass
            checkpoint()
        times.append(sum(chunks))
        scaled.append(sum(harness.scale_to_reference(chunks, refs)))
        if rep:
            shutil.rmtree(os.path.join(base, f"setup{rep - 1}"), ignore_errors=True)
    _check_import()
    return wl, scaled, times


def _report_common(harness, name, seed, seconds, res) -> None:
    env = harness.environment(ROOT)
    digest = harness.output_digest(res)
    known = _baseline_digest(name, seed, seconds)
    status = ("no baseline for this seed and --seconds" if known is None
              else "matches baseline" if known == digest else "CHANGED from baseline")
    print(f"perfbench workload={name} seed={seed}")
    print(f"  env git_sha={env['git_sha']} python={env['python']} "
          f"nproc={env['nproc']} cpu={env['cpu']!r}")
    print(f"  output digest sha256={digest} ({status})")
    for err in res.errors:
        print(f"  FAILED {err}")


def run_untraced(name: str, seed: int, seconds: float) -> dict:
    from perfbench import harness, tracer, workloads

    wl, setup_scaled, setup_times = _setup(harness, workloads, name, seed, seconds,
                                           tracer.Tracer(), SETUP_REPS)
    gc.collect()
    res = harness.measure(wl.jobs, workloads.PASSES[name])
    lat = res.latencies
    witnesses = list(res.witnesses.values())
    witness = statistics.fmean(witnesses) if witnesses else NO_WITNESS
    metric = workloads.WITNESS_METRIC.get(name)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "jobs_per_s": res.jobs_per_s,
        "job_p50_ms": harness.percentile(lat, 50) * 1e3,
        "job_p90_ms": harness.percentile(lat, 90) * 1e3,
        "peak_rss_mb": harness.peak_rss_mb(),
        "witness_path_frac": witness if metric == "witness_path_frac" else NO_WITNESS,
        "witness_bound_ratio": witness if metric == "witness_bound_ratio" else NO_WITNESS,
    }
    _report_common(harness, name, seed, seconds, res)
    print(f"  times at reference speed (reference work = {harness.REFERENCE_S * 1e3:g} ms); "
          f"the reference ran {statistics.median(res.slowdown):.2f}x slower "
          f"(median; quartiles {_quartiles(res.slowdown)}) during the jobs")
    notes = {
        "setup_s": "median of " + ", ".join(f"{t:.3f}" for t in setup_scaled)
                   + "; measured " + ", ".join(f"{t:.3f}" for t in setup_times),
        "jobs_per_s": f"{len(lat)} jobs, best of {res.passes} pass(es), "
                      f"{res.timed_s:.2f} s measured in all",
        "job_p90_ms": f"{len(lat)} samples, {harness.samples_beyond(len(lat), 90)} beyond",
    }
    for key in ("witness_path_frac", "witness_bound_ratio"):
        notes[key] = (f"mean over {len(witnesses)} jobs" if key == metric
                      else "constant: no such jobs in this workload")
    units = harness.END_TO_END
    for key, value in values.items():
        _print_metric(key, value, units[key], notes.get(key, ""))
    _print_metric("failed_ratio", res.failed / res.attempted, "failed/attempted",
                  f"{res.failed} of {res.attempted}")
    return {"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def _quartiles(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.2f}-{q3:.2f}"


def run_traced(name: str, seed: int, seconds: float) -> dict:
    from perfbench import harness, layers, tracer, workloads

    importlib.import_module("dipath_ramsey")
    tr = tracer.Tracer()
    layers.register_hooks(tr)
    tr.install()
    try:
        tr.active = True
        wl, _, (setup_wall,) = _setup(harness, workloads, name, seed, seconds, tr, (1, 1))
        tr.active = False
    finally:
        tr.uninstall()
    # an untraced pass, run first and with no wrapper in place, is the base
    # of the tracing overhead
    plain = harness.measure(wl.jobs, passes=1)

    def traced(job):
        def run():
            tr.active = True
            try:
                return job.run()
            finally:
                tr.active = False
        return harness.Job(job.lane, run, job.check)

    tr.install()
    try:
        res = harness.measure([traced(j) for j in wl.jobs], passes=1)
    finally:
        tr.uninstall()
    overhead = sum(res.latencies) / sum(plain.latencies)
    values, absent = layers.collect(tr, setup_wall + res.timed_s, overhead)
    res.failed += plain.failed
    res.attempted += plain.attempted
    res.errors += plain.errors
    _report_common(harness, name, seed, seconds, res)
    units = layers.metric_units()
    for key, value in values.items():
        _print_metric(key, value, units[key],
                      "ABSENT" if key.rsplit(".", 1)[0] in absent else "")
    share = values["trace.unattributed_ratio"]
    covered = share <= UNATTRIBUTED_LIMIT
    print(f"  {'' if covered else 'FAILED '}trace coverage: {share:.1%} of the traced wall "
          f"{values['trace.wall_s']:.3f} s (set-up {setup_wall:.3f} s + "
          f"{len(res.latencies)} jobs) lies under no span; the limit is "
          f"{UNATTRIBUTED_LIMIT:.0%}")
    for key in absent:
        print(f"  absent: {key} (not found in the package)")
    for span, self_s in layers.other_spans(tr)[:5]:
        print(f"  in trace.other_self_s: {span} {self_s:.4f} s")
    correct = res.failed == 0 and covered
    return {"correct": correct, "attempted": res.attempted, "failed": res.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def run_all(args, names) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined, sort_keys=True))
    return status


def main(argv=None) -> int:
    sys.path[:0] = [SRC, ROOT]
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1, help="input seed")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="job time per run; sets how many inputs a pass holds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dipath_ramsey", "__init__.py")):
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop(WORKERS_ENV, None)  # one job at a time, no worker pool

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    try:
        run = run_traced if args.trace else run_untraced
        result = run(args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(os.path.join(WORK, f"{args.workload}-{os.getpid()}"),
                      ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
