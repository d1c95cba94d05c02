"""Command-line front end.

Subcommands: verify, bound (cocompact|cusp), lattice-sum, gamma-chain,
count, maxima, fit.  Output is JSON Lines by default (CSV with
--format csv), with the effective configuration echoed in a header so a
report is reproducible from its own first line.  Floats are printed with 17
significant digits; identical configs produce byte-identical output.

Exit codes: 0 pass, 1 verification failure, 2 usage/precondition,
3 internal numerical failure.  PBL_LOG={error,info,debug} controls
diagnostics on standard error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from .bounds import (
    ConstantModel,
    cocompact_bound,
    cusp_bound,
    cusp_lattice_sum,
    gamma_integral_chain,
    maxima_locate,
    scaling_fit,
)
from .counting import OrbitSource, counting_function, counting_upper_bound, min_displacement
from .errors import NumericalError, PblError, PreconditionError
from .geometry import curvature_determinant, petersson_objective
from .hermitian import Model, ModelPoint, ball_form, model2_form, model3_form
from .lattice import HeisenbergParam, LatticeSpec, stabilizer_matrix
from .logreal import LogReal
from .transforms import _GAMMA3, cayley_gamma2, cayley_gamma23, verify_isometry

log = logging.getLogger("pbl")

# -- output formatting -------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return json.dumps(str(v))


def _jsonl(row: dict) -> str:
    parts = [f"{json.dumps(key)}: {_fmt(val)}" for key, val in row.items()]
    return "{" + ", ".join(parts) + "}"


class Writer:
    def __init__(self, fmt: str, out_path, config: dict):
        self.fmt = fmt
        self.lines = []
        self.out_path = out_path
        self.header_done = False
        self.config = config

    def _emit_header(self, columns=None):
        cfg = ", ".join(f"{k}={_fmt(v)}" for k, v in self.config.items())
        if self.fmt == "csv":
            self.lines.append(f"# config: {cfg}")
            if columns:
                self.lines.append(",".join(columns))
        else:
            self.lines.append(_jsonl({"config": cfg}))
        self.header_done = True

    def row(self, row: dict):
        if not self.header_done:
            self._emit_header(list(row.keys()))
        if self.fmt == "csv":
            self.lines.append(",".join(_fmt(v).strip('"') for v in row.values()))
        else:
            self.lines.append(_jsonl(row))

    def close(self):
        if not self.header_done:
            self._emit_header()
        text = "\n".join(self.lines) + "\n"
        if self.out_path:
            with open(self.out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


# -- config handling ---------------------------------------------------------

_LATTICE_DEFAULTS = {
    "a1_re": 1.0,
    "a1_im": 0.0,
    "a2_re": 0.0,
    "a2_im": 1.0,
    "beta_step": 1.0,
}


def _read_config_file(path: str) -> dict:
    cfg = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PreconditionError(f"--config: malformed line {raw.strip()!r}")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


def _resolve(ns, file_cfg: dict, defaults: dict) -> dict:
    """flags > config file > defaults; returns the effective mapping."""
    out = {}
    for key, default in defaults.items():
        flag_val = getattr(ns, key, None)
        if flag_val is not None:
            out[key] = flag_val
        elif key in file_cfg:
            raw = file_cfg[key]
            if isinstance(default, bool):
                out[key] = raw.lower() in ("1", "true", "yes")
            elif isinstance(default, (int, float)) and not isinstance(default, bool):
                out[key] = type(default)(float(raw)) if isinstance(default, int) else float(raw)
            else:
                out[key] = raw
        else:
            out[key] = default
    return out


def _lattice_spec(cfg: dict) -> LatticeSpec:
    return LatticeSpec(
        a1=complex(cfg["a1_re"], cfg["a1_im"]),
        a2=complex(cfg["a2_re"], cfg["a2_im"]),
        beta_step=cfg["beta_step"],
    )


def _parse_krange(spec: str):
    """'6' -> [6]; '6..60' -> 6,...,60; '50..400:25' -> 50,75,...,400."""
    step = 1
    body = spec
    if ":" in spec:
        body, step_s = spec.split(":", 1)
        step = int(step_s)
    if ".." in body:
        lo_s, hi_s = body.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(body)
    if step <= 0 or hi < lo:
        raise PreconditionError(f"--k: malformed range {spec!r}")
    return list(range(lo, hi + 1, step))


def _parse_frange(spec: str):
    """'2.0' -> [2.0]; '0..4:0.5' -> 0.0, 0.5, ..., 4.0."""
    if ".." not in spec:
        return [float(spec)]
    body, _, step_s = spec.partition(":")
    lo_s, hi_s = body.split("..", 1)
    lo, hi = float(lo_s), float(hi_s)
    step = float(step_s) if step_s else 1.0
    if step <= 0 or hi < lo:
        raise PreconditionError(f"--delta: malformed range {spec!r}")
    count = int(round((hi - lo) / step)) + 1
    return [lo + i * step for i in range(count)]


# -- verify ------------------------------------------------------------------


def _verify_checks(curvature_step: float, perturb_gamma3: bool, seed: int):
    h_ball, h2, h3 = ball_form(2), model2_form(), model3_form()
    g3 = np.array(_GAMMA3)
    if perturb_gamma3:
        g3 = g3 + np.array([[1e-6, 0, 0], [0, 0, 0], [0, 0, 0]])

    yield ("cayley_gamma3_identity", verify_isometry(g3, h_ball, h3), 1e-12)
    yield (
        "cayley_gamma23_identity",
        verify_isometry(cayley_gamma23().mat, h3, h2),
        1e-12,
    )
    yield ("cayley_gamma2_identity", verify_isometry(cayley_gamma2().mat, h_ball, h2), 1e-12)

    rng = np.random.default_rng(seed)
    g23 = cayley_gamma23().mat
    g23_inv = np.linalg.inv(g23)
    worst = 0.0
    for _ in range(100):
        p = HeisenbergParam(complex(rng.normal(), rng.normal()), float(rng.normal()))
        m2 = stabilizer_matrix(p, Model.M2).mat
        m3 = stabilizer_matrix(p, Model.M3).mat
        worst = max(worst, float(np.abs(g23 @ m2 @ g23_inv - m3).max()))
    yield ("stabilizer_conjugation", worst, 1e-12)

    mismatches = 0
    for _ in range(10_000):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        zt = np.append(z, 1.0)
        ind_ball = float((zt.conj() @ h_ball.entries @ zt).real)
        if (ind_ball < 0) != (abs(z[0]) ** 2 + abs(z[1]) ** 2 < 1):
            mismatches += 1
        ind2 = float((zt.conj() @ h2.entries @ zt).real)
        if (ind2 < 0) != (2 * z[0].imag - abs(z[1]) ** 2 > 0):
            mismatches += 1
        ind3 = float((zt.conj() @ h3.entries @ zt).real)
        if (ind3 < 0) != (2 * z[0].real + abs(z[1]) ** 2 < 0):
            mismatches += 1
    yield ("membership_equivalence", float(mismatches), 0.0)

    curv_tol = max(1e-4, 10.0 * curvature_step**2)
    for n in (2, 3):
        target = (4 * math.pi) ** -n
        worst = 0.0
        for _ in range(5):
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            v *= 0.6 * rng.uniform(0.1, 1.0) / np.linalg.norm(v)
            det = curvature_determinant(ModelPoint.ball(v), h=curvature_step)
            worst = max(worst, abs(det - target) / target)
        yield (f"curvature_determinant_n{n}", worst, curv_tol)

    for k in (6, 20):
        p = maxima_locate(k, tol=1e-5)
        x_star = k / (4 * math.pi)
        err = abs(p.coords[0].real + x_star) / x_star + abs(p.coords[1])
        yield (f"maxima_location_k{k}", err, 1e-6)


def cmd_verify(ns, file_cfg):
    defaults = {"curvature_step": 1e-4, "perturb_gamma3": False, "seed": 0}
    cfg = _resolve(ns, file_cfg, defaults)
    writer = Writer(ns.format or "jsonl", ns.out, cfg)
    ok = True
    for name, residual, tol in _verify_checks(
        cfg["curvature_step"], cfg["perturb_gamma3"], cfg["seed"]
    ):
        passed = residual <= tol
        ok = ok and passed
        writer.row(
            {"name": name, "residual": residual, "tolerance": tol, "pass": passed}
        )
    writer.close()
    return 0 if ok else 1


# -- bound -------------------------------------------------------------------


def cmd_bound(ns, file_cfg):
    defaults = {
        "n": 2,
        "k": "6",
        "rx": 1.0,
        "c_gamma": 1.0,
        "c_exponent": 0,
        "tol": 1e-6,
        "fit": False,
        **_LATTICE_DEFAULTS,
    }
    cfg = _resolve(ns, file_cfg, defaults)
    cfg["which"] = ns.which
    ks = _parse_krange(cfg["k"])
    if ns.which == "cusp" and min(ks) < 6:
        raise PreconditionError("--k: cusp bound requires k >= 6")
    if ns.which == "cocompact" and min(ks) < 2 * cfg["n"] + 2:
        raise PreconditionError(f"--k: cocompact bound requires k >= 2n+2 = {2 * cfg['n'] + 2}")
    if cfg["rx"] <= 0:
        raise PreconditionError("--rx: injectivity radius must be positive")
    log.info("bound sweep over %d weights", len(ks))
    cm = ConstantModel(cfg["c_gamma"], cfg["c_exponent"])
    writer = Writer(ns.format or "jsonl", ns.out, cfg)
    rows = []
    for k in ks:
        if ns.which == "cocompact":
            row = cocompact_bound(cfg["n"], k, cfg["rx"], cm).row()
        else:
            rep = cusp_bound(k, cfg["rx"], cm, _lattice_spec(cfg), cfg["tol"])
            row = rep.row()
            row["log_cusp_sum_scaled"] = rep.extras["cusp_sum_scaled"].log()
            row["cusp_dominates_sum"] = rep.extras["cusp_dominates_sum"]
        rows.append(row)
        writer.row(row)
    if cfg["fit"]:
        fit = scaling_fit(ks, lambda k: LogReal.from_log(rows[ks.index(k)]["log_total"]))
        if writer.fmt == "csv":
            writer.lines.append(
                f"# fit: slope={_fmt(fit.slope)} intercept={_fmt(fit.intercept)} "
                f"residual_rms={_fmt(fit.residual_rms)}"
            )
        else:
            writer.row(
                {
                    "fit_slope": fit.slope,
                    "fit_intercept": fit.intercept,
                    "fit_residual_rms": fit.residual_rms,
                }
            )
    writer.close()
    return 0


# -- lattice-sum, gamma-chain, count, maxima, fit ----------------------------


def cmd_lattice_sum(ns, file_cfg):
    defaults = {"k": 6, "tol": 1e-8, **_LATTICE_DEFAULTS}
    cfg = _resolve(ns, file_cfg, defaults)
    if cfg["k"] < 6:
        raise PreconditionError("--k: lattice sum requires k >= 6")
    if not (0 < cfg["tol"] <= 1e-3):
        raise PreconditionError("--tol: certified tolerance must lie in (0, 1e-3]")
    res = cusp_lattice_sum(cfg["k"], _lattice_spec(cfg), cfg["tol"])
    writer = Writer(ns.format or "jsonl", ns.out, cfg)
    writer.row(
        {
            "k": res.k,
            "log_sum": res.value.log(),
            "sum": res.value.to_float(),
            "r_alpha": res.r_alpha,
            "r_beta": res.r_beta,
            "tail_bound": res.tail_majorant,
            "n_terms": res.n_terms,
        }
    )
    writer.close()
    return 0


def cmd_gamma_chain(ns, file_cfg):
    defaults = {"k": "6"}
    cfg = _resolve(ns, file_cfg, defaults)
    ks = _parse_krange(cfg["k"])
    if min(ks) < 6:
        raise PreconditionError("--k: gamma chain requires k >= 6")
    writer = Writer(ns.format or "jsonl", ns.out, cfg)
    for k in ks:
        gc = gamma_integral_chain(k)
        writer.row(
            {
                "k": gc.k,
                "beta_closed": gc.beta_closed,
                "beta_quad": gc.beta_quad,
                "beta_ratio": gc.beta_ratio,
                "log_r_closed": gc.r_closed.log(),
                "log_r_quad": gc.r_quad.log(),
                "r_ratio": gc.r_ratio,
                "log_chained": gc.chained.log(),
            }
        )
    writer.close()
    return 0


def cmd_count(ns, file_cfg):
    defaults = {"k": 6, "delta": "0..4:0.5", "rx": "auto", **_LATTICE_DEFAULTS}
    cfg = _resolve(ns, file_cfg, defaults)
    spec = _lattice_spec(cfg)
    z = ModelPoint.m3(complex(-cfg["k"] / (4 * math.pi), 0.0), 0.0)
    src = OrbitSource.from_lattice(spec)
    if str(cfg["rx"]).strip() == "auto":
        rx = min_displacement(src, z)
    else:
        rx = float(cfg["rx"])
        if rx <= 0:
            raise PreconditionError("--rx: injectivity radius must be positive")
    deltas = _parse_frange(str(cfg["delta"]))
    writer = Writer(ns.format or "jsonl", ns.out, {**cfg, "rx_effective": rx})
    for delta in deltas:
        counted = counting_function(src, z, z, delta)
        bound = counting_upper_bound(2, rx, delta)
        writer.row({"delta": delta, "counted": counted, "bound": bound})
    writer.close()
    return 0


def cmd_maxima(ns, file_cfg):
    defaults = {"k": 6, "tol": 1e-6}
    cfg = _resolve(ns, file_cfg, defaults)
    if cfg["k"] < 1:
        raise PreconditionError("--k: weight must be >= 1")
    if cfg["tol"] <= 0:
        raise PreconditionError("--tol: tolerance must be positive")
    p = maxima_locate(cfg["k"], cfg["tol"])
    x_star = cfg["k"] / (4 * math.pi)
    writer = Writer(ns.format or "jsonl", ns.out, cfg)
    writer.row(
        {
            "k": cfg["k"],
            "x1": p.coords[0].real,
            "x1_target": -x_star,
            "x1_rel_err": abs(p.coords[0].real + x_star) / x_star,
            "z2_abs": abs(p.coords[1]),
            "log_objective": petersson_objective(p, cfg["k"]).log(),
        }
    )
    writer.close()
    return 0


def _read_rows(path: str):
    rows = []
    with open(path) as fh:
        first = fh.readline()
        fh.seek(0)
        if first.lstrip().startswith("{"):
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                obj = json.loads(line)
                if "config" in obj and len(obj) == 1:
                    continue
                rows.append(obj)
        else:
            import csv as _csv

            lines = [l for l in fh if not l.startswith("#")]
            reader = _csv.DictReader(lines)
            for rec in reader:
                rows.append({k: v for k, v in rec.items()})
    return rows


def cmd_fit(ns, file_cfg):
    defaults = {"x": "k", "y": "log_total"}
    cfg = _resolve(ns, file_cfg, defaults)
    if not ns.input:
        raise PreconditionError("--in: an input report path is required")
    cfg["in"] = ns.input
    try:
        rows = _read_rows(ns.input)
    except OSError as exc:
        raise PblError(f"--in: {exc}") from None
    rows = [r for r in rows if cfg["x"] in r and cfg["y"] in r]
    if len(rows) < 5:
        raise PreconditionError("--in: need at least 5 rows with the given columns")
    ks = [int(float(r[cfg["x"]])) for r in rows]
    ys = {k: float(r[cfg["y"]]) for k, r in zip(ks, rows)}
    fit = scaling_fit(ks, lambda k: LogReal.from_log(ys[k]))
    writer = Writer(ns.format or "jsonl", ns.out, cfg)
    writer.row(
        {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "residual_rms": fit.residual_rms,
            "n_points": len(ks),
        }
    )
    writer.close()
    return 0


# -- parser ------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("jsonl", "csv"), default=None)
    sp.add_argument("--config", default=None)


def _add_lattice_flags(sp):
    for key in _LATTICE_DEFAULTS:
        sp.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pbl",
        description="Hyperbolic-ball identity checks, lattice sums, and bound sweeps.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--curvature-step", dest="curvature_step", type=float, default=None)
    p.add_argument(
        "--perturb-gamma3", dest="perturb_gamma3", action="store_const", const=True,
        default=None, help="negative control: corrupt a Cayley matrix"
    )
    p.add_argument("--seed", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("bound", help="bound sweeps over the weight")
    p.add_argument("which", choices=("cocompact", "cusp"))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", default=None, help="weight or range, e.g. 6, 6..60, 50..400:25")
    p.add_argument("--rx", type=float, default=None)
    p.add_argument("--c-gamma", dest="c_gamma", type=float, default=None)
    p.add_argument("--c-exponent", dest="c_exponent", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--fit", action="store_const", const=True, default=None)
    _add_lattice_flags(p)
    _add_common(p)

    p = sub.add_parser("lattice-sum", help="certified stabilizer lattice sum")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    _add_lattice_flags(p)
    _add_common(p)

    p = sub.add_parser("gamma-chain", help="closed form vs quadrature integrals")
    p.add_argument("--k", default=None)
    _add_common(p)

    p = sub.add_parser("count", help="orbit counts vs the closed-form bound")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--delta", default=None, help="value or range, e.g. 0..4:0.5")
    p.add_argument("--rx", default=None, help="radius or 'auto'")
    _add_lattice_flags(p)
    _add_common(p)

    p = sub.add_parser("maxima", help="locate the cusp-objective ridge")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    _add_common(p)

    p = sub.add_parser("fit", help="fit a growth exponent to a report")
    p.add_argument("--in", dest="input", default=None)
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    _add_common(p)

    return ap


_COMMANDS = {
    "verify": cmd_verify,
    "bound": cmd_bound,
    "lattice-sum": cmd_lattice_sum,
    "gamma-chain": cmd_gamma_chain,
    "count": cmd_count,
    "maxima": cmd_maxima,
    "fit": cmd_fit,
}


def main(argv=None) -> int:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("PBL_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level, format="pbl: %(message)s")
    ap = build_parser()
    ns = ap.parse_args(argv)
    file_cfg = {}
    if ns.config:
        try:
            file_cfg = _read_config_file(ns.config)
        except OSError as exc:
            print(f"pbl: --config: {exc}", file=sys.stderr)
            return 2
    try:
        return _COMMANDS[ns.command](ns, file_cfg)
    except (PreconditionError,) as exc:
        print(f"pbl: precondition violated: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"pbl: numerical failure: {exc}", file=sys.stderr)
        return 3
    except PblError as exc:
        print(f"pbl: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
