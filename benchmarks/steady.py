"""Steadiness check: runs each workload several times, each with another
seed, and reports every end-to-end metric's run-to-run spread against its
bound in BENCHMARK.json.

    python3 benchmarks/steady.py --runs 10 [--out benchmarks/baselines/NAME.json]

Every workload runs with seeds 1..runs and BENCHMARK.json's run_seconds.
The spread is (Q3 - Q1) / median of the per-run values, with the quartiles
of `statistics.quantiles(values, n=4)`.  A metric is steady when its spread
is within its bound, `setup_s` included; the spread is also printed as a
share of the bound.  With --out, the per-run values, medians, spreads and
the environment are written as JSON, which is how a baseline is recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import environment  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """The run's result line and its wall time, set-up and checks included."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - t0


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {"environment": environment(), "run_seconds": seconds, "workloads": {}}
    steady = True
    for w in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            res, wall = run_once(w, seed, seconds)
            runs.append({"seed": seed, "wall_s": wall, **res})
            print(f"{w} seed={seed} wall={wall:.1f}s correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            ok = s <= m["bound"]
            steady &= ok
            summary[m["name"]] = {"median": statistics.median(values), "spread": s, "bound": m["bound"]}
            print(f"  {w:<16} {m['name']:<12} median {statistics.median(values):<12.6g} "
                  f"spread {s:.4f} ({s / m['bound']:.2f} of bound {m['bound']})  {'ok' if ok else 'NOT STEADY'}", flush=True)
        steady &= all(r["correct"] for r in runs)
        record["workloads"][w] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if steady else "not steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
