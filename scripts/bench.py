#!/usr/bin/env python3
"""Repeated perfbench runs summarised in one file, BENCH_<label>.json.

Runs `perfbench/run.py --workload W --seed S --seconds 15` of the checkout
at --root (by default the one this script sits in) as a subprocess,
--repeats times for each workload at seeds 1 and 2.  From each run it reads
the environment line, the output digest line, the reference slowdown line
and the last line, the JSON result.  It writes BENCH_<label>.json beside
this script's checkout: the git sha, Python version and nproc the runs
report, and per workload and seed each metric's median and quartiles with
its values in run order, the digests, and the failed and attempted counts.
It also times one Tier-1 run of that checkout's tests, `python -m pytest
-q --continue-on-collection-errors -p no:cacheprovider` with its src/ on
PYTHONPATH, so no cache is written into it, and records the wall seconds,
the exit code and the passed, failed and deselected counts of pytest's
summary line.

    python3 scripts/bench.py --label change
    python3 scripts/bench.py --label parent --root ../parent-checkout

Only the standard library is used, and perfbench/ is run as it is.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("upper-witness", "lower-witness", "exact-oracle")
SEEDS = (1, 2)
SECONDS = 15

_ENV = re.compile(r"env git_sha=(\S+) python=(\S+) nproc=(\d+)")
_DIGEST = re.compile(r"output digest sha256=([0-9a-f]+) \((.+)\)")
_SLOWDOWN = re.compile(r"the reference ran ([0-9.]+)x slower")
_SUMMARY_END = re.compile(r" in [0-9.]+s\b")
_COUNT = re.compile(r"(\d+) (passed|failed|deselected)\b")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def _spread(values: list[float]) -> dict:
    """Median and quartiles of `values`, and the values themselves."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def run_once(root: str, workload: str, seed: int) -> dict:
    """One perfbench run, read from its standard output."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS)],
        cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    run = {"exit_code": proc.returncode, "env": None, "digest": None, "digest_status": None,
           "slowdown": None, "result": None}
    for line in lines:
        if (m := _ENV.search(line)) and run["env"] is None:
            run["env"] = {"git_sha": m[1], "python": m[2], "nproc": int(m[3])}
        elif m := _DIGEST.search(line):
            run["digest"], run["digest_status"] = m[1], m[2]
        elif m := _SLOWDOWN.search(line):
            run["slowdown"] = float(m[1])
    if lines and lines[-1].startswith("{"):
        run["result"] = json.loads(lines[-1])
    return run


def read_summary(lines: list[str]) -> dict | None:
    """The passed, failed and deselected counts of pytest's summary line,
    the last line that ends in its run time, such as "455 passed, 1
    failed in 116.32s (0:01:56)"; a count the line lacks is 0.  None when
    no line is a summary."""
    for line in reversed(lines):
        if _SUMMARY_END.search(line):
            counts = dict.fromkeys(("passed", "failed", "deselected"), 0)
            counts.update((word, int(k)) for k, word in _COUNT.findall(line))
            return counts
    return None


def run_tier1(root: str) -> dict:
    """One Tier-1 run of the tests of the checkout at `root`: its exit
    code, wall seconds and summary counts (None when it printed none)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"),
                                                      env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          capture_output=True, text=True, check=False)
    return {"exit_code": proc.returncode, "wall_s": round(time.perf_counter() - t0, 2),
            "counts": read_summary(proc.stdout.splitlines())}


def summarise(runs: list[dict]) -> dict:
    """Per-metric spread over the runs that printed a result."""
    done = [r["result"] for r in runs if r["result"] is not None]
    metrics = {}
    for name in sorted(done[0]["metrics"]) if done else ():
        values = [res["metrics"][name]["value"] for res in done]
        metrics[name] = {"unit": done[0]["metrics"][name]["unit"], **_spread(values)}
    slowdowns = [r["slowdown"] for r in runs if r["slowdown"] is not None]
    return {
        "runs": len(runs),
        "no_result": len(runs) - len(done),
        "failed": [res["failed"] for res in done],
        "attempted": [res["attempted"] for res in done],
        "digests": sorted({r["digest"] for r in runs if r["digest"]}),
        "digest_status": sorted({r["digest_status"] for r in runs if r["digest_status"]}),
        "slowdown": _spread(slowdowns) if slowdowns else None,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    ap.add_argument("--repeats", type=int, default=5, help="runs per workload and seed")
    ap.add_argument("--root", default=HERE, help="checkout whose perfbench/run.py runs")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if not re.fullmatch(r"[\w.-]+", args.label):
        ap.error("--label may hold only letters, digits, '_', '.' and '-'")
    root = os.path.abspath(args.root)
    env = None
    workloads = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            runs = []
            for i in range(args.repeats):
                run = run_once(root, workload, seed)
                env = env or run["env"]
                runs.append(run)
                print(f"{workload} seed={seed} run {i + 1}/{args.repeats}: exit "
                      f"{run['exit_code']}, digest {(run['digest'] or '-')[:8]}", file=sys.stderr)
            workloads.setdefault(workload, {})[str(seed)] = summarise(runs)
    tier1 = run_tier1(root)
    print(f"tier-1: exit {tier1['exit_code']}, {tier1['wall_s']} s, {tier1['counts']}",
          file=sys.stderr)
    out = {"label": args.label, **(env or {}), "seconds": SECONDS, "repeats": args.repeats,
           "workloads": workloads, "tier1": tier1}
    path = os.path.join(HERE, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
