"""Runs one workload of the pbl benchmark and prints its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it imports pbl from the checkout's src/.  The inputs
are made from --seed and the measurement lasts about --seconds.  With
--trace 0 it prints every end-to-end metric of BENCHMARK.json: the job and
call times of the in-process workloads are wall times rescaled by the
machine speed measured right after each job (`harness.speed`), since a
shared machine's speed can drift over minutes, and all other times are
wall times.  With --trace 1 it runs all three workloads with spans around
every call the benchmark makes into pbl and prints every per-layer metric,
plus the tracing overhead.  Human-readable lines come first (metric, value,
unit, sample count, failures, environment); the last line is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every operation is checked against an oracle that does not use pbl, and
`correct` is false when any operation or check failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    ROOT,
    SRC,
    WORK,
    OpFailed,
    Recorder,
    SPEEDS,
    SetupProbes,
    Tally,
    environment,
    peak_rss_mb,
    run_jobs,
    timing_summary,
)

WORKLOADS = ("cli_cold", "bound_pipeline", "orbit_geometry")
SETUP_RUNS = 9
MIN_SESSIONS = 3
IMPORT_RUNS = 3
WARM_ROUNDS = 5
# the traced in-process parts get at least this long each
MIN_TRACED_SECONDS = 5.0


def _check_oracles(check, *args, tally: Tally, what: str):
    """Runs an oracle check; a check that cannot even read the output
    counts as one failed check."""
    try:
        check(*args, tally)
    except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
        tally.check(False, f"{what}: output could not be checked ({type(exc).__name__}: {exc})")


def probe_setup(name: str, seed: int):
    """Set-up probe run in a fresh interpreter: import pbl, make the inputs,
    run the untimed warm-up job."""
    w = importlib.import_module(name)
    w.job(Recorder(), w.make_inputs(seed))


def in_process_part(name: str, seed: int, seconds: float, tally: Tally, trace_every: int, probes=None):
    """Warm-up job, closed-loop jobs whose outputs must match the warm-up's
    exactly, with any set-up probes due run between them, then oracle checks
    on the warm-up's outputs.  Returns (recorder, job times, calls made by
    the warm-up, peak RSS before the oracles ran)."""
    w = importlib.import_module(name)
    inp = w.make_inputs(seed)
    rec = Recorder()
    try:
        first = w.job(rec, inp)
    except OpFailed:  # the recorder has counted the failed call
        first = None
    n_warm = rec.attempted
    ref = None if first is None else w.fingerprint(first)

    def after(out):
        tally.check(out is not None and w.fingerprint(out) == ref, f"{name}: a job's outputs differ")

    times = run_jobs(
        lambda r: w.job(r, inp), rec, seconds, after, trace_every=trace_every, probes=probes, rescale=True
    )
    rss = peak_rss_mb(children=False)
    if first is not None:
        _check_oracles(w.check, first, inp, tally=tally, what=name)
    tally.add_recorder(rec)
    return rec, times, n_warm, rss


def run_in_process(name: str, seed: int, seconds: float, tally: Tally) -> dict:
    probes = SetupProbes(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--probe-setup"],
        SETUP_RUNS,
    )
    rec, times, n_warm, rss = in_process_part(name, seed, seconds, tally, trace_every=0, probes=probes)
    return end_to_end(probes.rest(), times[False], rec.call_times[n_warm:], rss)


def cli_warm_up(seed: int, tally: Tally):
    """One untimed cold call, so that later calls find the bytecode compiled."""
    import cli_cold

    WORK.mkdir(exist_ok=True)
    code, _, err = cli_cold.run_cold(["verify", "--seed", str(seed)])
    tally.check(code == 0 and "Traceback" not in err, f"warm-up call: exit {code}, {err.strip()[-300:]!r}")


def cli_sessions(seed: int, seconds: float, tally: Tally, trace_every: int, min_sessions: int, probes=None):
    """Closed-loop cold sessions, with any set-up probes due run between
    them; each session's stdout must match the first one's, and the first
    one's outputs are checked by the oracles."""
    import cli_cold

    first = []

    def after(results):
        cli_cold.check_calls(results, seed, tally)
        if not first:
            first.append(results)
        else:
            tally.check(
                all(results[n][1] == first[0][n][1] for n in results),
                "cli_cold: a session's stdout differs from the first session's",
            )

    rec = Recorder()
    times = run_jobs(
        lambda r: cli_cold.run_session(seed, r), rec, seconds, after,
        min_jobs=min_sessions, trace_every=trace_every, probes=probes,
    )
    rss = peak_rss_mb(children=True)
    _check_oracles(cli_cold.check_outputs, first[0], tally=tally, what="cli_cold")
    return rec, times, rss


def run_cli(seed: int, seconds: float, tally: Tally) -> dict:
    cli_warm_up(seed, tally)
    probes = SetupProbes([sys.executable, "-c", "import pbl"], SETUP_RUNS)
    rec, times, rss = cli_sessions(seed, seconds, tally, trace_every=0, min_sessions=MIN_SESSIONS, probes=probes)
    return end_to_end(probes.rest(), times[False], rec.call_times, rss)


def end_to_end(setup, jobs, calls, rss) -> dict:
    """metric -> (value, sample count, samples above the p90 or None)."""
    s = timing_summary(jobs)
    return {
        "setup_s": (statistics.median(setup), len(setup), None),
        "job_s_p50": (s["p50"], s["n"], None),
        "job_s_p90": (s["p90"], s["n"], s["above_p90"]),
        "call_s_p50": (statistics.median(calls), len(calls), None),
        "peak_rss_mb": (rss, 1, None),
    }


def run_traced(seed: int, seconds: float, tally: Tally):
    """All three workloads with spans: cli_cold first (import times, cold
    sessions, warm in-process calls), then the two in-process workloads with
    every other job traced, so the overhead is measured side by side."""
    import cli_cold
    import layers

    start = time.perf_counter()
    metrics = {}
    cli_warm_up(seed, tally)
    imports, scipy = cli_cold.import_times(IMPORT_RUNS)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["cli.import_scipy_s"] = statistics.median(scipy)

    cli_rec, _, _ = cli_sessions(seed, seconds / 3, tally, trace_every=1, min_sessions=1)
    names = [name for name, _, _ in cli_cold.session(seed)]
    for name in names:
        metrics[f"cli.cold.{name}_s"] = statistics.median(
            s[3] - s[2] for s in cli_rec.spans if s[0] == f"cli.cold.{name}"
        )

    warm = {name: [] for name in names}
    for round_ in range(WARM_ROUNDS + 1):
        for name, argv, want in cli_cold.session(seed):
            t0 = time.perf_counter()
            code, _, err = cli_cold.run_warm(argv)
            if round_:
                warm[name].append(time.perf_counter() - t0)
            tally.check(code == want and "Traceback" not in err, f"warm {name}: exit {code}")
    for name, values in warm.items():
        metrics[f"cli.warm.{name}_s"] = statistics.median(values)

    left = max(seconds - (time.perf_counter() - start), 2 * MIN_TRACED_SECONDS)
    recs = {}
    for name in ("bound_pipeline", "orbit_geometry"):
        rec, times, _, _ = in_process_part(name, seed, left / 2, tally, trace_every=2)
        recs[name] = rec
        metrics[f"{name}.trace_overhead_s"] = statistics.median(times[True]) - statistics.median(times[False])
    metrics.update(layers.in_process_metrics(recs))
    recs["cli_cold"] = cli_rec
    return metrics, recs


def write_spans(recs: dict, path: Path):
    """Spans as JSON lines: part, id, name, tag, start, end, parent, job."""
    with path.open("w") as fh:
        for part, rec in recs.items():
            for i, (name, tag, t0, t1, parent, job) in enumerate(rec.spans):
                fh.write(
                    json.dumps(
                        {"part": part, "id": i, "name": name, "tag": tag, "start": t0, "end": t1,
                         "parent": parent, "job": job}
                    )
                    + "\n"
                )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.seed %= 2**32  # numpy and `pbl verify` take non-negative seeds

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "pbl" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"benchmark: no pbl sources under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    spec = json.loads(spec_path.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    WORK.mkdir(exist_ok=True)
    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    tally = Tally()

    if args.trace:
        values, recs = run_traced(args.seed, args.seconds, tally)
        write_spans(recs, WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        wanted = spec["per_layer"]
        samples = {}
    else:
        if args.workload == "cli_cold":
            results = run_cli(args.seed, args.seconds, tally)
        else:
            results = run_in_process(args.workload, args.seed, args.seconds, tally)
        values = {name: r[0] for name, r in results.items()}
        samples = {name: r[1:] for name, r in results.items()}
        wanted = spec["end_to_end"]

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        print(f"benchmark: metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 3
    for m in wanted:
        line = f"metric {m['name']:<40} {values[m['name']]:.6g} {m['unit']}"
        if m["name"] in samples:
            n, above = samples[m["name"]]
            line += f" n={n}"
            if above is not None:
                line += f" above_p90={above}" + (" (fewer than 10: indicative only)" if above < 10 else "")
        print(line)
    if SPEEDS:
        print(f"speed median {statistics.median(SPEEDS):.4g} over {len(SPEEDS)} samples "
              f"(job and call times above are wall times times the speed; 1 is the baseline machine's usual pace)")
    frac = tally.failed / max(tally.attempted, 1)
    print(f"failed_frac {frac:.6g} ({tally.failed} of {tally.attempted} operations)")
    for reason in tally.reasons[:20]:
        print(f"failure {reason}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
