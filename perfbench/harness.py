"""Timing loop, output checks and end-to-end statistics.

A job is one CLI command, or one library call, on inputs generated before
timing starts.  The loop is closed: one job at a time, each started when
the previous one and its untimed output check have finished.

Times are reported at reference speed.  On a shared machine other tenants
slow this process down by up to 2x, for seconds to minutes at a time, and a
run of half a minute can sit wholly inside such a spell.  So a fixed piece
of pure-Python work that never touches the package, `reference_work`, is
timed right before every job, and each job's time is scaled by
``REFERENCE_S / (the reference's local median time)``: the time the job
would have taken had the machine run at the speed at which the reference
takes REFERENCE_S.  A change to the package cannot move the reference, so a
faster package still reads faster.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable


# end-to-end metrics of an untraced run, with their units
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "witness_path_frac": "ratio",
    "witness_bound_ratio": "ratio",
}


# time of `reference_work` on an otherwise idle 2-vCPU Xeon VM (Python 3.11);
# every reported time is scaled to this speed
REFERENCE_S = 0.0019
# a job is scaled by the median reference time of the jobs within this many
# places of it in its pass: spells of slowness last seconds, while one
# reference timing is noisy
REFERENCE_WINDOW = 3

_REF_N = 11
_REF_EDGES = [(u, v) for u in range(_REF_N) for v in range(_REF_N)
              if u != v and (u * 7 + v * 3) % 5 < 2]
_REF_TEXT = "\n".join(f"{u} {v} {1 + (u + v) % 2}" for u, v in _REF_EDGES * 12)
_REF_JSON = json.dumps({"path": list(range(200)),
                        "rows": [[u, v, (u ^ v) & 1] for u, v in _REF_EDGES]})


def reference_work() -> int:
    """Fixed pure-Python work like the package's: a bitmask DFS for a
    longest path, then line parsing and a JSON round trip."""
    adj = [[] for _ in range(_REF_N)]
    for u, v in _REF_EDGES:
        adj[u].append(v)
    best = 0

    def dfs(v: int, seen: int, length: int) -> None:
        nonlocal best
        if length > best:
            best = length
        for w in adj[v]:
            if not seen >> w & 1:
                dfs(w, seen | 1 << w, length + 1)

    dfs(0, 1, 0)
    rows = [tuple(map(int, line.split())) for line in _REF_TEXT.splitlines()]
    return best + len(rows) + len(json.dumps(json.loads(_REF_JSON)))


def time_reference(clock=time.perf_counter) -> float:
    """Seconds `reference_work` takes now, with the collector off so that
    the package's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        reference_work()
        return clock() - start
    finally:
        if enabled:
            gc.enable()


def scale_to_reference(raw: list[float], refs: list[float]) -> list[float]:
    """raw[i] * REFERENCE_S / the median of refs[i - REFERENCE_WINDOW :
    i + REFERENCE_WINDOW + 1]."""
    w = REFERENCE_WINDOW
    return [value * REFERENCE_S / statistics.median(refs[max(0, i - w): i + w + 1])
            for i, value in enumerate(raw)]


class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclass
class Outcome:
    """What a check learned from one correct output."""

    digest: bytes            # deterministic bytes that enter the output digest
    witness: float | None = None


@dataclass
class Job:
    lane: str
    run: Callable[[], Any]                 # timed
    check: Callable[[Any], Outcome]        # untimed; raises CheckFailed


@dataclass
class RunResult:
    latencies: list[float] = field(default_factory=list)  # per job: best pass,
    #                                                         at reference speed
    timed_s: float = 0.0     # job time of all passes, as measured
    slowdown: list[float] = field(default_factory=list)  # reference time / REFERENCE_S
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict[int, bytes] = field(default_factory=dict)
    witnesses: dict[int, float] = field(default_factory=dict)

    @property
    def jobs_per_s(self) -> float:
        """Jobs per second of a pass run at each job's best time."""
        return len(self.latencies) / sum(self.latencies)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, p: float) -> int:
    """How many samples lie above the nearest-rank p-th percentile."""
    return count - max(1, math.ceil(p / 100 * count)) if count else 0


def _attempt(job: Job, index: int, result: RunResult, clock) -> float:
    """Run one job, check it, record the outcome; returns its latency."""
    failure = None
    start = clock()
    try:
        output = job.run()
    except Exception as exc:  # a failed job is counted, not fatal
        output, failure = None, exc
    latency = clock() - start
    if failure is None:
        try:
            outcome = job.check(output)
        except Exception as exc:  # includes CheckFailed
            failure = exc
    if failure is not None:
        _fail(result, job, index, "".join(
            traceback.format_exception_only(type(failure), failure)).strip())
        outcome = Outcome(b"FAILED")
    if index not in result.digests:
        result.digests[index] = outcome.digest
        if outcome.witness is not None:
            result.witnesses[index] = outcome.witness
    elif result.digests[index] != outcome.digest and failure is None:
        _fail(result, job, index, "output differs from the first pass")
    return latency


def _fail(result: RunResult, job: Job, index: int, message: str) -> None:
    result.failed += 1
    if len(result.errors) < 5:
        result.errors.append(f"{job.lane}#{index}: {message}")


def measure(jobs: list[Job], passes: int, clock=time.perf_counter,
            reference=time_reference) -> RunResult:
    """Run `passes` whole passes over `jobs`, timing `reference` before
    each job; a job's latency is its best pass at reference speed.

    Other tenants only ever add time, so the fastest of a job's repeats
    reads the code's own speed more steadily than one timing or a mean.
    """
    result = RunResult()
    best = [math.inf] * len(jobs)
    for _ in range(passes):
        raw, refs = [], []
        for index, job in enumerate(jobs):
            refs.append(reference(clock))
            raw.append(_attempt(job, index, result, clock))
        result.timed_s += sum(raw)
        result.slowdown += [ref / REFERENCE_S for ref in refs]
        for index, latency in enumerate(scale_to_reference(raw, refs)):
            best[index] = min(best[index], latency)
        result.passes += 1
    result.latencies = best
    result.attempted = passes * len(jobs)
    return result


def output_digest(result: RunResult) -> str:
    h = hashlib.sha256()
    for key in sorted(result.digests):
        h.update(key.to_bytes(4, "big"))
        h.update(hashlib.sha256(result.digests[key]).digest())
    return h.hexdigest()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_sha(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str) -> dict:
    return {"git_sha": git_sha(root), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu_model()}
