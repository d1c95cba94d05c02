"""Workload `cli_cold`: a researcher's paper-reproduction session, each call
a cold `python -m pbl.cli` subprocess.

Interpreter start-up and `import pbl` take most of every call, so this is
the workload where import-path changes and the default `--jobs` process
pool show, while compute changes should leave it nearly flat.  No call
passes `--jobs`: users get the default pool, and a program without the flag
must still run the session.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import subprocess
import sys

import lattices as L
from harness import ROOT, WORK, Recorder, Tally, child_env

FIT_SWEEP = ("--k", "50..400:25", "--rx", "6", "--c-exponent", "2", "--fit")
COUNT_DELTAS = tuple(0.5 * i for i in range(9))
COUNT_K = 6
MAXIMA_K = 20


def cusp_path(seed: int):
    return WORK / f"cusp-{seed}.jsonl"


def session(seed: int) -> list[tuple[str, list[str], int]]:
    """(name, argv, expected exit code) of every call, in order."""
    return [
        ("verify", ["verify", "--seed", str(seed)], 0),
        ("bound_cocompact", ["bound", "cocompact", *FIT_SWEEP], 0),
        ("bound_cusp", ["bound", "cusp", *FIT_SWEEP], 0),
        ("lattice_sum", ["lattice-sum", "--k", "6", "--tol", "1e-8"], 0),
        ("gamma_chain", ["gamma-chain", "--k", "6..20"], 0),
        ("count", ["count", "--delta", "0..4:0.5"], 0),
        ("maxima", ["maxima", "--k", str(MAXIMA_K)], 0),
        ("fit", ["fit", "--in", str(cusp_path(seed))], 0),
        ("usage_error", ["lattice-sum", "--k", "4"], 2),
    ]


def run_cold(argv: list[str]) -> tuple[int, str, str]:
    """One cold call: (exit code, stdout, stderr)."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pbl.cli", *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
    except subprocess.TimeoutExpired as exc:
        return -1, exc.stdout or "", f"timed out after {exc.timeout} s"
    return proc.returncode, proc.stdout, proc.stderr


def run_session(seed: int, rec: Recorder) -> dict:
    """All calls back to back, each one a span `cli.cold.<name>`; returns
    the results by name.  The cusp report is saved for the fit that reads it."""
    results = {}
    for name, argv, _ in session(seed):
        results[name] = rec.call(f"cli.cold.{name}", run_cold, argv)
        if name == "bound_cusp":
            cusp_path(seed).write_text(results[name][1])
    return results


def run_warm(argv: list[str]) -> tuple[int, str, str]:
    """The same argv through pbl.cli.main in this process."""
    import pbl.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = pbl.cli.main(argv)
        except Exception as exc:  # escaping main is a failed call, as a traceback would be
            return -1, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _rows(stdout: str) -> list[dict]:
    rows = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    return [r for r in rows if not (len(r) == 1 and "config" in r)]


def check_calls(results: dict, seed: int, tally: Tally):
    """Exit codes and clean stderr for every call of one session."""
    for name, _, want_code in session(seed):
        code, _, err = results[name]
        tally.check(
            code == want_code and "Traceback" not in err,
            f"{name}: exit {code} (want {want_code}), stderr {err.strip()[-300:]!r}",
        )


def check_outputs(results: dict, tally: Tally):
    """Oracle checks on one session's outputs, against values computed
    without pbl."""
    import oracles as O  # mpmath loads only here, after the timing

    def rows(name):
        try:
            return _rows(results[name][1])
        except json.JSONDecodeError as exc:
            tally.check(False, f"{name}: unparsable output ({exc})")
            return []

    verify = rows("verify")
    tally.check(bool(verify) and all(r["pass"] is True for r in verify), "verify: a check failed")

    slopes = {}
    for which, (lo, hi) in (("cocompact", (1.98, 2.02)), ("cusp", (2.45, 2.55))):
        out = rows(f"bound_{which}")
        body = [r for r in out if "k" in r]
        fit = [r for r in out if "fit_slope" in r]
        for r in body:
            k = r["k"]
            want = O.cocompact_log_terms(2, k, 6.0, 1.0, 2)
            if which == "cusp":
                want["cusp_term"] = O.cusp_log_term(k, 1.0, 2, 1.0)
            total = O.log_sum_exp(want.values())
            tally.check(
                all(O.close(r[f"log_{n}"], v, 1e-12, 1e-12) for n, v in want.items())
                and O.close(r["log_total"], total, 1e-12, 1e-12),
                f"bound {which} k={k}: {r} vs mpmath {want}",
            )
        slope = fit[0]["fit_slope"] if len(fit) == 1 else math.nan
        slopes[which] = slope
        tally.check(len(body) == 15 and lo <= slope <= hi, f"bound {which}: slope {slope} outside [{lo}, {hi}]")

    ls = (rows("lattice_sum") or [{}])[0]
    brute = O.lattice_sum(6, L.GAUSSIAN)
    tally.check(
        bool(ls) and -1e-12 * brute <= brute - ls["sum"] <= ls["tail_bound"] + 1e-12 * brute,
        f"lattice-sum k=6: {ls.get('sum')} vs brute {brute}",
    )

    chain = rows("gamma_chain")
    tally.check(len(chain) == 15, f"gamma-chain: {len(chain)} rows, want 15")
    for r in chain:
        tally.check(
            abs(r["beta_ratio"] - 1) <= 1e-8
            and abs(r["r_ratio"] - 0.5) <= 1e-8
            and O.close(r["beta_closed"], O.beta_integral(r["k"]), 1e-12),
            f"gamma-chain k={r['k']}: {r}",
        )

    counts = rows("count")
    tally.check(len(counts) == len(COUNT_DELTAS), f"count: {len(counts)} rows")
    for r, delta in zip(counts, COUNT_DELTAS):
        lo, hi = O.orbit_count_range(L.GAUSSIAN, complex(-COUNT_K / (4 * math.pi), 0.0), 0j, delta)
        tally.check(
            r["delta"] == delta and lo <= r["counted"] <= hi and r["bound"] >= r["counted"],
            f"count delta={delta}: {r} vs brute [{lo}, {hi}]",
        )

    mx = (rows("maxima") or [{}])[0]
    x_star = MAXIMA_K / (4 * math.pi)
    tally.check(
        bool(mx) and abs(mx["x1"] + x_star) <= 1e-6 * x_star and mx["z2_abs"] <= 1e-6,
        f"maxima k={MAXIMA_K}: {mx} vs ridge x1 = {-x_star}",
    )

    fit = (rows("fit") or [{}])[0]
    tally.check(
        bool(fit) and fit["slope"] == slopes["cusp"] and fit["n_points"] == 15,
        f"fit: slope {fit.get('slope')} vs the cusp sweep's {slopes['cusp']}",
    )

    code, out, err = results["usage_error"]
    lines = err.strip().splitlines()
    tally.check(
        code == 2 and out == "" and len(lines) == 1 and lines[0].startswith("pbl: "),
        f"usage error: exit {code}, stderr {err!r}",
    )


def import_times(runs: int) -> tuple[list[float], list[float]]:
    """`python -X importtime -c "import pbl"`: the cumulative time of pbl
    and the part of it spent in scipy (top-most scipy imports), per run."""
    line = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")
    totals, scipy = [], []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import pbl"],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        entries = [
            (len(m.group(3)), m.group(4), int(m.group(2)))
            for m in map(line.match, proc.stderr.splitlines())
            if m
        ]
        # entries are listed as imports finish, so a module's parent is the
        # next entry with less indentation
        total = next(cum for depth, name, cum in entries if name == "pbl")
        in_scipy = 0
        for i, (depth, name, cum) in enumerate(entries):
            if name.split(".")[0] != "scipy":
                continue
            parent = next((n for d, n, _ in entries[i + 1 :] if d < depth), "")
            if parent.split(".")[0] != "scipy":
                in_scipy += cum
        totals.append(total * 1e-6)
        scipy.append(in_scipy * 1e-6)
    return totals, scipy
