"""Command-line front end.

Subcommands: verify, bound (cocompact|cusp), lattice-sum, gamma-chain,
count, maxima, fit, each declared once in _COMMANDS with its flags and their
defaults.  The flag --a-b is the config key a_b, with its default's type (a
bool makes a switch); a flag beats the --config file, which beats the
default, and _resolve converts flag and config text by one rule (an int
option, or an end of a weight range, takes 6, 6.0 or 1e1, not 6.7).  Output
is JSON Lines by default (CSV with --format csv), with the effective
configuration echoed in a header so a report is reproducible from its own
first line.  Floats are printed with 17
significant digits; identical configs produce byte-identical output.

Exit codes: 0 pass, 1 verification failure, 2 usage/precondition (one
stderr line naming the flag, or --config and the key), 3 internal numerical
failure.  PBL_LOG={error,info,debug} controls diagnostics on standard error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

# the commands that use arrays import numpy and their modules when they run,
# so the closed-form commands and usage errors never load it
from .closed_forms import (
    ConstantModel,
    cocompact_bound,
    gamma_integral_chain,
    ridge_locate,
    ridge_log_objective,
    scaling_fit,
)
from .errors import (
    DomainError,
    NumericalError,
    PblError,
    PreconditionError,
    _check_exact_int,
    _check_positive,
    _check_rel_tol,
)
from .logreal import LogReal


def _info(message: str) -> None:
    """One `pbl: ` diagnostic line on stderr when PBL_LOG is info or debug."""
    if os.environ.get("PBL_LOG", "error").lower() in ("info", "debug"):
        print(f"pbl: {message}", file=sys.stderr)


# -- output formatting -------------------------------------------------------


def _fmt(v) -> str:
    if hasattr(v, "item"):  # a numpy scalar
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    return json.dumps(str(v))


def _jsonl(row: dict) -> str:
    """One JSON object.  JSON has no inf or nan, so a float that is not
    finite is written as null; a report's log_* columns carry its value."""
    parts = []
    for key, val in row.items():
        text = _fmt(val)
        parts.append(f"{json.dumps(key)}: {'null' if text in ('inf', '-inf', 'nan') else text}")
    return "{" + ", ".join(parts) + "}"


def _write_report(fmt: str, out_path, config: dict, rows: list) -> None:
    """The config header, in CSV the columns of the first row, then one line
    per row; a str row (a CSV comment) is written as it is."""
    cfg = ", ".join(f"{k}={_fmt(v)}" for k, v in config.items())
    if fmt == "csv":
        lines = [f"# config: {cfg}", *(",".join(row) for row in rows[:1])]
        lines += [
            row if isinstance(row, str) else ",".join(_fmt(v).strip('"') for v in row.values())
            for row in rows
        ]
    else:
        lines = [_jsonl({"config": cfg}), *map(_jsonl, rows)]
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PblError(f"--out: {exc}") from None
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


# the values a switch takes in a config file, case-insensitive
_SWITCH_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _read_config_file(path: str) -> dict:
    cfg = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, ValueError) as exc:
        raise PblError(f"--config: {exc}") from None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PreconditionError(f"--config: malformed line {raw.strip()!r}")
        key, val = line.split("=", 1)
        cfg[key.strip()] = val.strip()
    return cfg


def _value(name: str, raw: str, default):
    """The option text raw as a value of its default's type: a switch word
    for a bool, a number for a float, an integral number for an int, text
    parsed by its default's parser for a `_Parsed`, other text as it is.
    name ("--k" for a flag, "--config: k" for a config line) leads every
    error."""
    if isinstance(default, _Parsed):
        return _Parsed(raw, default.parse, name)
    if isinstance(default, bool):
        if raw.lower() not in _SWITCH_VALUES:
            raise PreconditionError(f"{name}: {raw!r} is not one of {', '.join(_SWITCH_VALUES)}")
        return _SWITCH_VALUES[raw.lower()]
    if isinstance(default, str):
        return raw
    try:
        return type(default)(raw)  # an int literal stays exact past 2^53
    except ValueError:
        val = _number(name, raw)  # a float option that float() refused fails here
    if not val.is_integer():
        raise PreconditionError(f"{name}: {raw!r} is not an integer")
    return int(val)


def _resolve(ns, file_cfg: dict, defaults: dict) -> dict:
    """flags > config file > defaults, each flag or config text converted by
    _value; returns the effective mapping.  A config key the command does
    not declare is a precondition error."""
    unknown = sorted(file_cfg.keys() - defaults.keys())
    if unknown:
        names = ", ".join(map(repr, unknown))
        raise PreconditionError(f"--config: unknown key{'s' * (len(unknown) > 1)} {names}")
    out = dict(defaults)
    for key, default in defaults.items():
        if getattr(ns, key, None) is not None:
            out[key] = _value("--" + key.replace("_", "-"), getattr(ns, key), default)
        elif key in file_cfg:
            out[key] = _value(f"--config: {key}", file_cfg[key], default)
    return out


def _lattice_spec(cfg: dict):
    from .lattice import LatticeSpec

    for key in ("a1_re", "a1_im", "a2_re", "a2_im"):
        if not math.isfinite(cfg[key]):
            flag = "--" + key.replace("_", "-")
            raise PreconditionError(f"{flag}: need a finite value, got {cfg[key]}")
    _check_positive(cfg["beta_step"], "--beta-step")
    try:
        return LatticeSpec(
            a1=complex(cfg["a1_re"], cfg["a1_im"]),
            a2=complex(cfg["a2_re"], cfg["a2_im"]),
            beta_step=cfg["beta_step"],
        )
    except DomainError as exc:
        raise PreconditionError(f"--a1-re, --a1-im, --a2-re, --a2-im: {exc}") from None


# most values one --k or --delta range may hold
_MAX_SWEEP = 100_000


def _number(flag: str, raw) -> float:
    try:
        return float(raw)
    except ValueError:
        raise PreconditionError(f"{flag}: {raw!r} is not a number") from None


def _parse_range(flag: str, spec: str, kind: type):
    """Weights (kind int) '6' -> [6]; '6..60' -> 6,...,60; '50..400:25' ->
    50,75,...,400.  Distances (kind float) '0..4:0.5' -> 0.0, 0.5, ..., 4.0;
    no value passes hi ('0..1:0.6' -> 0.0, 0.6).  Each end and the step
    convert by `_value`'s rule for kind, so '6.0..1e1' is 6..10."""
    body, _, step_s = spec.partition(":")
    lo_s, dots, hi_s = body.partition("..")
    lo = _value(flag, lo_s, kind())
    hi = _value(flag, hi_s, kind()) if dots else lo
    step = _value(flag, step_s, kind()) if step_s else kind(1)
    if not (step > 0 and lo <= hi and hi - lo < _MAX_SWEEP * step):
        raise PreconditionError(f"{flag}: malformed range {spec!r} (at most {_MAX_SWEEP} values)")
    if kind is int:
        count = (hi - lo) // step
    else:
        # the slack keeps an end that (hi - lo) / step misses by a rounding
        # (0..0.3:0.1), and min() keeps that end from passing hi
        count = math.floor((hi - lo) / step * (1 + 1e-12))
    return [min(lo + i * step, hi) for i in range(count + 1)]


def _radius_or_auto(flag: str, text: str):
    """None for 'auto', else the radius as a number."""
    return None if text.strip() == "auto" else _number(flag, text)


class _Parsed(str):
    """Option text, which the report header echoes as it is, and .parsed,
    what parse(name, text) makes of it: a range's values, or a radius.  As
    a default it gives `_value` the parser for the flag or config text."""

    def __new__(cls, text: str, parse, name: str = ""):
        self = super().__new__(cls, text)
        self.parse, self.parsed = parse, parse(name, text)
        return self


def _range(text: str, kind: type) -> _Parsed:
    return _Parsed(text, functools.partial(_parse_range, kind=kind))


# -- verify ------------------------------------------------------------------


def _standard_normals(rng, n: int):
    """n standard normals as a float array from the stream of rng, a
    random.Random: Box-Muller on 53-bit uniforms cut from rng.randbytes,
    so that a large sample costs one call into the stream."""
    import numpy as np

    m = (n + 1) // 2
    u = (np.frombuffer(rng.randbytes(16 * m), dtype="<u8") >> np.uint64(11)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log1p(-u[:m]))  # 1 - u lies in (0, 1]
    angle = 2.0 * math.pi * u[m:]
    return np.concatenate((radius * np.cos(angle), radius * np.sin(angle)))[:n]


def _verify_draws(seed: int):
    """The samples of the identity suite, all from random.Random(seed):
    100 Heisenberg parameters with standard normal parts; 10_000 points
    (z0, z1) of C^2 with standard normal parts; and for n in (2, 3), five
    ball points of C^n in random directions with norms uniform in
    [0.06, 0.6]."""
    import random

    import numpy as np

    from .lattice import HeisenbergParam

    rng = random.Random(seed)

    def gauss():
        return rng.gauss(0.0, 1.0)

    def ball_point(n):
        v = np.array([complex(gauss(), gauss()) for _ in range(n)])
        return v * (0.6 * rng.uniform(0.1, 1.0) / np.linalg.norm(v))

    params = [HeisenbergParam(complex(gauss(), gauss()), gauss()) for _ in range(100)]
    s = _standard_normals(rng, 40_000).reshape(10_000, 2, 2)
    points = (s[:, 0] + 1j * s[:, 1]).T
    balls = {n: [ball_point(n) for _ in range(5)] for n in (2, 3)}
    return params, points, balls


def _verify_checks(curvature_step: float, perturb_gamma3: bool, seed: int):
    import numpy as np

    from .geometry import curvature_determinant
    from .hermitian import Model, ModelPoint, ball_form, model2_form, model3_form
    from .lattice import stabilizer_matrix
    from .transforms import _GAMMA3, cayley_gamma2, cayley_gamma23, verify_isometry

    h_ball, h2, h3 = ball_form(2), model2_form(), model3_form()
    g3 = np.array(_GAMMA3)
    if perturb_gamma3:
        g3 = g3 + np.array([[1e-6, 0, 0], [0, 0, 0], [0, 0, 0]])

    g23 = cayley_gamma23().mat
    yield ("cayley_gamma3_identity", verify_isometry(g3, h_ball, h3), 1e-12)
    yield ("cayley_gamma23_identity", verify_isometry(g23, h3, h2), 1e-12)
    yield ("cayley_gamma2_identity", verify_isometry(cayley_gamma2().mat, h_ball, h2), 1e-12)

    params, (z0, z1), balls = _verify_draws(seed)
    g23_inv = np.linalg.inv(g23)
    worst = 0.0
    for p in params:
        m2 = stabilizer_matrix(p, Model.M2).mat
        m3 = stabilizer_matrix(p, Model.M3).mat
        worst = max(worst, float(np.abs(g23 @ m2 @ g23_inv - m3).max()))
    yield ("stabilizer_conjugation", worst, 1e-12)

    zt = np.stack([z0, z1, np.ones_like(z0)], axis=1)

    def negative(h):
        return ((zt.conj() @ h.entries) * zt).sum(axis=1).real < 0

    mismatches = (
        np.count_nonzero(negative(h_ball) != (np.abs(z0) ** 2 + np.abs(z1) ** 2 < 1))
        + np.count_nonzero(negative(h2) != (2 * z0.imag - np.abs(z1) ** 2 > 0))
        + np.count_nonzero(negative(h3) != (2 * z0.real + np.abs(z1) ** 2 < 0))
    )
    yield ("membership_equivalence", float(mismatches), 0.0)

    curv_tol = max(1e-4, 10.0 * curvature_step * curvature_step)
    for n, vs in balls.items():
        target = (4 * math.pi) ** -n
        worst = 0.0
        for v in vs:
            try:
                det = curvature_determinant(ModelPoint.ball(v), h=curvature_step)
            except (DomainError, PreconditionError) as exc:  # the step is at fault
                raise PreconditionError(f"--curvature-step: {exc}") from None
            worst = max(worst, abs(det - target) / target)
        yield (f"curvature_determinant_n{n}", worst, curv_tol)

    for k in (6, 20):
        x1, x2, y2 = ridge_locate(k, 1e-5)  # the path of `maxima`
        x_star = k / (4 * math.pi)
        err = abs(x1 + x_star) / x_star + abs(complex(x2, y2))
        yield (f"maxima_location_k{k}", err, 1e-6)


def cmd_verify(ns, cfg):
    if cfg["seed"] < 0:
        raise PreconditionError("--seed: must be nonnegative")
    rows = [
        {"name": name, "residual": residual, "tolerance": tol, "pass": residual <= tol}
        for name, residual, tol in _verify_checks(
            cfg["curvature_step"], cfg["perturb_gamma3"], cfg["seed"]
        )
    ]
    return (0 if all(row["pass"] for row in rows) else 1), rows


# -- bound -------------------------------------------------------------------


def _bound_sweep(which, rows_of, ns, cfg):
    """`bound <which>`: the shared checks in flag order, then rows_of's rows and the fit."""
    cfg["which"] = which
    n = cfg.get("n", 2)  # the one-cusp bound is the n = 2 bound
    ks = cfg["k"].parsed
    _check_exact_int(ks[-1], "--k")
    _check_exact_int(n, "--n", at_least=2)
    _check_exact_int(min(ks), "--k", at_least=2 * n + 2)
    _check_positive(cfg["rx"], "--rx")
    _check_positive(cfg["c_gamma"], "--c-gamma")
    _check_exact_int(cfg["c_exponent"], "--c-exponent")
    _info(f"bound sweep over {len(ks)} weights")
    rows = list(rows_of(cfg, ks, ConstantModel(cfg["c_gamma"], cfg["c_exponent"])))
    if cfg["fit"]:
        if len(ks) < 5:
            raise PreconditionError(f"--fit: need at least 5 weights in --k, got {len(ks)}")
        totals = {row["k"]: row["log_total"] for row in rows}
        fit = scaling_fit(ks, lambda k: LogReal.from_log(totals[k]))._asdict()
        comment = "# fit: " + " ".join(f"{key}={_fmt(v)}" for key, v in fit.items())
        rows.append(comment if ns.format == "csv" else {f"fit_{key}": v for key, v in fit.items()})
    return 0, rows


def _cocompact_rows(cfg, ks, cm):
    return (cocompact_bound(cfg["n"], k, cfg["rx"], cm).row() for k in ks)


def _cusp_rows(cfg, ks, cm):
    from .bounds import cusp_bound

    spec = _lattice_spec(cfg)  # one lattice for the whole sweep
    _check_rel_tol(cfg["tol"], "--tol")
    for k in ks:
        rep = cusp_bound(k, cfg["rx"], cm, spec, cfg["tol"])
        scaled, dominates = rep.extras["cusp_sum_scaled"], rep.extras["cusp_dominates_sum"]
        yield {**rep.row(), "log_cusp_sum_scaled": scaled.log(), "cusp_dominates_sum": dominates}


# -- lattice-sum, gamma-chain, count, maxima, fit ----------------------------


def cmd_lattice_sum(ns, cfg):
    _check_exact_int(cfg["k"], "--k", at_least=6)
    _check_rel_tol(cfg["tol"], "--tol")
    from .bounds import cusp_lattice_sum

    res = cusp_lattice_sum(cfg["k"], _lattice_spec(cfg), cfg["tol"])
    return 0, [
        {
            "k": res.k,
            "log_sum": res.value.log(),
            "sum": res.value.to_float(),
            "r_alpha": res.r_alpha,
            "r_beta": res.r_beta,
            "tail_bound": res.tail_majorant,
            "n_terms": res.n_terms,
        }
    ]


def cmd_gamma_chain(ns, cfg):
    ks = cfg["k"].parsed
    _check_exact_int(ks[-1], "--k")
    _check_exact_int(min(ks), "--k", at_least=6)
    return 0, [
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
        for gc in map(gamma_integral_chain, ks)
    ]


def cmd_count(ns, cfg):
    from .counting import OrbitSource, counting_function, counting_upper_bound, min_displacement
    from .hermitian import ModelPoint

    _check_exact_int(cfg["k"], "--k", at_least=1)
    spec = _lattice_spec(cfg)
    z = ModelPoint.m3(complex(-cfg["k"] / (4 * math.pi), 0.0), 0.0)
    src = OrbitSource.from_lattice(spec)
    rx = cfg["rx"].parsed
    if rx is None:
        rx = min_displacement(src, z)
    else:
        _check_positive(rx, "--rx")
    deltas = cfg["delta"].parsed
    if deltas[0] < 0:
        raise PreconditionError(f"--delta: need delta >= 0, got {deltas[0]}")
    cfg["rx_effective"] = rx
    return 0, [
        {
            "delta": d,
            "counted": counting_function(src, z, z, d),
            "bound": counting_upper_bound(2, rx, d),
        }
        for d in deltas
    ]


def cmd_maxima(ns, cfg):
    _check_exact_int(cfg["k"], "--k", at_least=1)
    if not cfg["tol"] > 0:
        raise PreconditionError("--tol: tolerance must be positive")
    x1, x2, y2 = ridge_locate(cfg["k"], cfg["tol"])
    x_star = cfg["k"] / (4 * math.pi)
    return 0, [
        {
            "k": cfg["k"],
            "x1": x1,
            "x1_target": -x_star,
            "x1_rel_err": abs(x1 + x_star) / x_star,
            "z2_abs": abs(complex(x2, y2)),
            "log_objective": ridge_log_objective(cfg["k"], -2.0 * x1 - x2 * x2 - y2 * y2, x1),
        }
    ]


def _read_rows(path: str):
    """The rows of a JSONL or CSV report; a report that does not parse
    raises ValueError."""
    with open(path) as fh:
        lines = fh.readlines()
    if lines and lines[0].lstrip().startswith("{"):
        rows = [json.loads(line) for line in lines if line.strip()]
        return [r for r in rows if isinstance(r, dict) and set(r) != {"config"}]
    import csv  # only a CSV report needs it

    try:
        return list(csv.DictReader(line for line in lines if not line.startswith("#")))
    except csv.Error as exc:
        raise ValueError(exc) from None


def cmd_fit(ns, cfg):
    if not ns.input:
        raise PreconditionError("--in: an input report path is required")
    cfg["in"] = ns.input
    try:
        rows = _read_rows(ns.input)
    except (OSError, ValueError) as exc:
        raise PblError(f"--in: {exc}") from None
    rows = [r for r in rows if cfg["x"] in r and cfg["y"] in r]
    if len(rows) < 5:
        raise PreconditionError("--in: need at least 5 rows with the given columns")
    try:
        xs, ys = ([float(r[cfg[col]]) for r in rows] for col in ("x", "y"))
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"--in: {exc}") from None
    ks = [int(x) for x in xs if x.is_integer()]
    if len(set(ks)) < len(xs):
        raise PreconditionError(f"--in: {cfg['x']} values must be distinct integers")
    if not all(map(math.isfinite, ys)):
        raise PreconditionError(f"--in: {cfg['y']} values must be finite")
    bad = [k for k in ks if not 1 <= k <= 2**53]
    if bad:
        raise PreconditionError(f"--in: {cfg['x']} values must be in [1, 2^53], got {bad[0]:.17g}")
    by_k = dict(zip(ks, ys))
    fit = scaling_fit(ks, lambda k: LogReal.from_log(by_k[k]))
    return 0, [{**fit._asdict(), "n_points": len(ks)}]


# -- parser ------------------------------------------------------------------

# name -> (handler, help line, flag defaults), in --help order; the defaults
# are also the report header's key order.  A handler takes the parsed flags
# and the effective configuration, and returns its exit code and report rows.
_GROUPS = {"bound": "bound sweeps over the weight"}  # the help of "bound <command>"
_SWEEP_DEFAULTS = {"k": _range("6", int), "rx": 1.0, "c_gamma": 1.0, "c_exponent": 0}
_COMMANDS = {
    "verify": (
        cmd_verify,
        "run the identity suite",
        {"curvature_step": 1e-4, "perturb_gamma3": False, "seed": 0},
    ),
    "bound cocompact": (
        functools.partial(_bound_sweep, "cocompact", _cocompact_rows),
        "the cocompact bound, growth k^n",
        {"n": 2, **_SWEEP_DEFAULTS, "fit": False},
    ),
    "bound cusp": (
        functools.partial(_bound_sweep, "cusp", _cusp_rows),
        "the one-cusp bound (n = 2), growth k^{5/2}",
        {**_SWEEP_DEFAULTS, "tol": 1e-6, "fit": False, **_LATTICE_DEFAULTS},
    ),
    "lattice-sum": (
        cmd_lattice_sum,
        "certified stabilizer lattice sum",
        {"k": 6, "tol": 1e-8, **_LATTICE_DEFAULTS},
    ),
    "gamma-chain": (
        cmd_gamma_chain, "closed form vs quadrature integrals", {"k": _range("6", int)}
    ),
    "count": (
        cmd_count,
        "orbit counts vs the closed-form bound",
        {
            "k": 6,
            "delta": _range("0..4:0.5", float),
            "rx": _Parsed("auto", _radius_or_auto),
            **_LATTICE_DEFAULTS,
        },
    ),
    "maxima": (cmd_maxima, "locate the cusp-objective ridge", {"k": 6, "tol": 1e-6}),
    "fit": (cmd_fit, "fit a growth exponent to a report", {"x": "k", "y": "log_total"}),
}

_FLAG_HELP = {
    ("verify", "perturb_gamma3"): "negative control: corrupt a Cayley matrix",
    ("bound", "k"): "weight or range, e.g. 6, 6..60, 50..400:25",
    ("count", "delta"): "value or range, e.g. 0..4:0.5",
    ("count", "rx"): "radius or 'auto'",
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pbl",
        description="Hyperbolic-ball identity checks, lattice sums, and bound sweeps.",
    )
    subs = {"": ap.add_subparsers(dest="command", required=True)}
    for name, (_, help_line, defaults) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subs:
            subs[group] = subs[""].add_parser(group, help=_GROUPS[group]).add_subparsers(required=True)
        p = subs[group].add_parser(leaf, help=help_line)
        p.set_defaults(command=name)
        if name == "fit":
            p.add_argument("--in", dest="input", default=None)
        for key, default in defaults.items():
            # every flag stores its text, a switch the word "true", for _resolve
            kind = {"action": "store_const", "const": "true"} if isinstance(default, bool) else {}
            flag_help = _FLAG_HELP.get((group or name, key))
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None, help=flag_help, **kind)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("jsonl", "csv"), default=None)
        p.add_argument("--config", default=None)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built once per process: building it costs far
    more than parsing, and parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    handler, _, defaults = _COMMANDS[ns.command]
    try:
        file_cfg = _read_config_file(ns.config) if ns.config else {}
        cfg = _resolve(ns, file_cfg, defaults)
        code, rows = handler(ns, cfg)
        _write_report(ns.format or "jsonl", ns.out, cfg, rows)
        return code
    except PreconditionError as exc:
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
