"""Shared machinery of the benchmark: the machine-speed reference, the call
recorder that times (and, in a traced run, spans) every call the benchmark
makes into pbl, the closed job loop, percentiles, set-up probes and the
environment record.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from array import array
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


# The reference loop's time on the 2-vCPU machine the first baseline was
# recorded on; a speed of 1 means that machine at its usual pace.
REFERENCE_S = 0.005
_REF_H = np.array([[2, 1 - 1j, 0.5j], [1 + 1j, -1, 0.3], [-0.5j, 0.3, 0.7]])
SPEEDS: list[float] = []


def speed() -> float:
    """The machine's speed now: REFERENCE_S over the time of a fixed
    reference loop that does not use pbl (plain Python arithmetic and small
    Hermitian eigenproblems, pbl's own mix).  A shared 2-vCPU machine's
    speed can drift by 20-40% over minutes, for the loop as for pbl, so the
    wall time of a job run in this process, multiplied by the speed
    measured right after it, is steady from run to run where the wall time
    is not.  It does not hold for a child process's time: measured in this
    process, the speed after a child has run does not follow the child's
    pace, so subprocess timings stay wall times.  Every sample is kept in
    SPEEDS."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(20000):
        s += (i * 1.5) % 7.0
    for _ in range(200):
        np.linalg.eigvalsh(_REF_H)
    SPEEDS.append(REFERENCE_S / (time.perf_counter() - t0))
    return SPEEDS[-1]


class OpFailed(Exception):
    """A call into pbl raised; the rest of the job is abandoned."""


def child_env() -> dict:
    """Environment for pbl subprocesses: the checkout's src/ on the path,
    default logging, bytecode caching on (cold means a fresh interpreter,
    not an uncompiled package)."""
    env = dict(os.environ)
    env.pop("PBL_LOG", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Recorder:
    """Times every call into pbl.  Untraced it keeps one duration per call
    (which `run_jobs` may rescale by the machine's speed); traced it also
    keeps a span (name, tag, start, end, parent, job) in wall time and the
    counts reported next to it.  Spans stay in memory until the run ends."""

    def __init__(self):
        # an array, not a list: 8 bytes a call keeps the benchmark's own
        # share of peak_rss_mb small however many calls a run makes
        self.call_times = array("d")
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        self.failures: list[str] = []
        self.tracing = False
        self.job = -1
        self._parent = None

    @property
    def attempted(self) -> int:
        return len(self.call_times)

    def call(self, name: str, fn, *args, tag=None, **kwargs):
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any raise from pbl is a failed operation
            self.failures.append(f"{name}({tag}): {type(exc).__name__}: {exc}")
            raise OpFailed(name) from exc
        finally:
            t1 = time.perf_counter()
            self.call_times.append(t1 - t0)
        if self.tracing:
            self.spans.append((name, tag, t0, t1, self._parent, self.job))
        return out

    def count(self, name: str, value: float):
        if self.tracing:
            self.counts.append((name, value, self.job))

    def begin_job(self):
        self.job += 1
        if self.tracing:
            self._parent = len(self.spans)
            self.spans.append(["job", None, time.perf_counter(), None, None, self.job])

    def end_job(self):
        if self.tracing:
            self.spans[self._parent][3] = time.perf_counter()
            self.spans[self._parent] = tuple(self.spans[self._parent])
            self._parent = None


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(what)

    def add_recorder(self, rec: Recorder):
        self.attempted += rec.attempted
        self.failed += len(rec.failures)
        self.reasons.extend(rec.failures)


class SetupProbes:
    """Set-up probes: `runs` fresh interpreters running argv from the root,
    spread over the job loop's measurement window, so that their median
    sees the machine at the pace the jobs saw it.  Between jobs, `due()`
    runs as many as the elapsed share of the window calls for; `rest()`
    runs any left when the window has closed."""

    def __init__(self, argv, runs: int):
        self.argv, self.runs = argv, runs
        self.times: list[float] = []

    def due(self, share: float):
        while len(self.times) < min(self.runs, math.ceil(share * self.runs)):
            self._probe()

    def rest(self) -> list[float]:
        while len(self.times) < self.runs:
            self._probe()
        return self.times

    def _probe(self):
        t0 = time.perf_counter()
        proc = subprocess.run(
            self.argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=170
        )
        self.times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")


def run_jobs(job, rec: Recorder, seconds: float, after=None, min_jobs: int = 1, trace_every: int = 0,
             probes: SetupProbes | None = None, rescale: bool = False):
    """Closed loop with one client: the next job starts when the previous
    one returns, and no job starts that would, at the median job time so
    far, end after `seconds`.  With `rescale`, a job's time and
    the times of its calls are multiplied by the speed measured right after
    it.  `after(output)` and any set-up probes due run between jobs,
    outside the timing; a failed job's output is None.  With
    trace_every = n, every n-th job is traced.  Returns the job times, split
    by traced or not."""
    times = {True: [], False: []}
    done = []
    start = time.perf_counter()
    deadline = start + seconds
    while len(done) < min_jobs or time.perf_counter() + statistics.median(done) <= deadline:
        rec.tracing = trace_every > 0 and len(done) % trace_every == 0
        rec.begin_job()
        mark = len(rec.call_times)
        t0 = time.perf_counter()
        try:
            out = job(rec)
        except OpFailed:
            out = None
        dt = time.perf_counter() - t0
        rec.end_job()
        if rescale:
            f = speed()
            for i in range(mark, len(rec.call_times)):
                rec.call_times[i] *= f
            dt *= f
        times[rec.tracing].append(dt)
        done.append(dt)
        if after is not None:
            after(out)
        if probes is not None:
            probes.due((time.perf_counter() - start) / seconds)
    rec.tracing = False
    return times


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation."""
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[int(round(q)) - 1])


def timing_summary(values) -> dict:
    """Median and p90 with the sample count and how many samples lie above
    the p90; the p90 is only trustworthy with at least 10 above it."""
    p90 = percentile(values, 90)
    return {
        "p50": float(statistics.median(values)),
        "p90": p90,
        "n": len(values),
        "above_p90": sum(v > p90 for v in values),
    }


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, or, when the workload runs pbl in
    child processes (one at a time), of the largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    """Commit, source digest and toolchain versions of this run."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except OSError:  # no git: a source checkout is identified by its digest
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        # read from the installed metadata: importing scipy here would put
        # it into the workload's memory and hide a lazier import in pbl
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
    }
