import importlib
import inspect
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pbl
from pbl import cli
from pbl.cli import _fmt, _jsonl, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out):
    rows = []
    for line in out.strip().splitlines():
        obj = json.loads(line)
        if set(obj) == {"config"}:
            continue
        rows.append(obj)
    return rows


# every call of a paper-reproduction session, then the three functions that
# once used scipy (matrix exponential, tail quadrature, Gamma-chain quadrature)
_SESSION_SCRIPT = """
import contextlib, io, math, sys
from pbl import (GAUSSIAN_SPEC, ModelPoint, OrbitSource, ball_form, gamma_integral_chain,
                 min_displacement, random_isometry, tail_bound)
from pbl.cli import main

cusp = sys.argv[1]
sweep = ["--k", "50..400:25", "--rx", "6", "--c-exponent", "2", "--fit"]
session = [
    (["verify", "--seed", "0"], 0),
    (["bound", "cocompact", *sweep], 0),
    (["bound", "cusp", *sweep], 0),
    (["lattice-sum", "--k", "6", "--tol", "1e-8"], 0),
    (["gamma-chain", "--k", "6..20"], 0),
    (["count", "--delta", "0..4:0.5"], 0),
    (["maxima", "--k", "20"], 0),
    (["fit", "--in", cusp], 0),
    (["lattice-sum", "--k", "4"], 2),
]
for argv, want in session:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == want, (argv, code)
    if argv[:2] == ["bound", "cusp"]:
        with open(cusp, "w") as fh:
            fh.write(out.getvalue())
random_isometry(ball_form(2), 0)
src = OrbitSource.from_lattice(GAUSSIAN_SPEC)
z = ModelPoint.m3(-1.0, 0.0)
tail_bound(lambda r: math.cosh(r / 2) ** -12, 2, min_displacement(src, z), 3.0, src, z, z)
gamma_integral_chain(20)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_import_loads_no_scipy(tmp_path):
    # pbl depends on numpy alone: no command or kernel imports scipy
    src = os.path.dirname(os.path.dirname(pbl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _SESSION_SCRIPT, str(tmp_path / "cusp.jsonl")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# `import pbl` alone with no argv, else one pbl.cli.main call; prints the
# exit code and whether numpy, numpy.random, dataclasses, inspect and csv
# got loaded
_LAZY_SCRIPT = """
import contextlib, io, sys
if len(sys.argv) == 1:
    import pbl
    code = 0
else:
    from pbl.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
print(code, *(m in sys.modules for m in ("numpy", "numpy.random", "dataclasses", "inspect", "csv")))
"""

_SWEEP = ["--k", "50..400:25", "--rx", "6", "--c-exponent", "2", "--fit"]


# no command loads numpy.random: verify draws from random.Random
@pytest.mark.parametrize(
    "argv, want_code, loads_numpy, loads_dataclasses, loads_inspect, loads_csv",
    [
        ([], 0, False, False, False, False),
        (["bound", "cocompact", *_SWEEP], 0, False, False, False, False),
        (["gamma-chain", "--k", "6..20"], 0, False, False, False, False),
        (["fit", "--in", "REPORT"], 0, False, False, False, False),
        (["maxima", "--k", "20"], 0, False, False, False, False),
        (["lattice-sum", "--k", "4"], 2, False, False, False, False),
        (["--help"], 0, False, False, False, False),
        (["verify", "--seed", "0"], 0, True, True, True, False),
        (["lattice-sum", "--k", "6"], 0, True, True, True, False),
        (["count", "--delta", "0..1:0.5"], 0, True, True, True, False),
        (["bound", "cusp", "--k", "50..100:25", "--rx", "6"], 0, True, True, True, False),
    ],
    ids=[
        "import", "bound-cocompact", "gamma-chain", "fit", "maxima", "usage-error", "help",
        "verify", "lattice-sum", "count", "bound-cusp",
    ],
)
def test_numpy_loads_only_for_array_commands(
    tmp_path, argv, want_code, loads_numpy, loads_dataclasses, loads_inspect, loads_csv
):
    report = tmp_path / "report.jsonl"
    assert main(["bound", "cocompact", *_SWEEP, "--out", str(report)]) == 0
    argv = [str(report) if a == "REPORT" else a for a in argv]
    src = os.path.dirname(os.path.dirname(pbl.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_SCRIPT, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loads = (loads_numpy, False, loads_dataclasses, loads_inspect, loads_csv)
    assert proc.stdout.split() == [str(want_code), *map(str, loads)]


def test_overflowing_beta_squares_print_no_warning():
    # with step 1e300 every beta but 0 squares to inf: a term of exactly 0
    src = os.path.dirname(os.path.dirname(pbl.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "pbl.cli", "lattice-sum", "--k", "6", "--beta-step", "1e300"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    row = json.loads(proc.stdout.splitlines()[-1])
    assert math.isfinite(row["sum"]) and row["sum"] > 1.0


def test_lazy_namespace():
    for name in pbl.__all__:
        getattr(pbl, name)
    assert set(pbl.__all__) <= set(dir(pbl))
    assert pbl.cusp_bound is pbl.bounds.cusp_bound
    assert pbl.ConstantModel is pbl.bounds.ConstantModel is pbl.closed_forms.ConstantModel
    with pytest.raises(AttributeError):
        pbl.no_such_name


@pytest.mark.parametrize("module", sorted(pbl._BY_MODULE))
def test_submodule_exports_only_its_own_definitions(module):
    # a name is exported by the module that defines it, and by pbl itself
    mod = importlib.import_module(f"pbl.{module}")
    for name in getattr(mod, "__all__", ()):
        obj = getattr(mod, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == mod.__name__, name


@pytest.mark.parametrize("module", sorted(pbl._BY_MODULE))
def test_registry_names_only_what_its_module_exports(module):
    # pbl's lazy names and each submodule's __all__ must not drift apart
    mod = importlib.import_module(f"pbl.{module}")
    assert set(pbl._BY_MODULE[module]) <= set(mod.__all__)


@pytest.mark.parametrize(
    "value, plain",
    [
        (np.float64(0.1), 0.1),
        (np.float64(-1e300), -1e300),
        (np.float64(math.inf), math.inf),
        (np.float64(-math.inf), -math.inf),
        (np.float64(math.nan), math.nan),
        (np.float32(0.1), 0.10000000149011612),
        (np.float32(math.inf), math.inf),
        (np.float32(math.nan), math.nan),
        (np.int64(-7), -7),
        (np.int64(2**62), 2**62),
        (np.bool_(True), True),
        (np.bool_(False), False),
    ],
)
def test_fmt_prints_numpy_scalars_as_python_scalars(value, plain):
    assert type(_fmt(value)) is str
    assert _fmt(value) == _fmt(plain)


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) >= 7
        for r in rows:
            assert set(r) == {"name", "residual", "tolerance", "pass"}
            assert r["pass"] is True
            assert r["residual"] <= r["tolerance"]

    def test_loose_curvature_step(self, capsys):
        code, out, _ = run(capsys, "verify", "--curvature-step", "1e-2")
        assert code == 0
        curv = [r for r in rows_of(out) if r["name"].startswith("curvature")]
        assert curv and all(r["tolerance"] == pytest.approx(1e-3) for r in curv)
        assert all(r["residual"] <= 1e-3 for r in curv)

    def test_perturbed_negative_control(self, capsys):
        code, out, _ = run(capsys, "verify", "--perturb-gamma3")
        assert code == 1
        bad = [r for r in rows_of(out) if not r["pass"]]
        assert any(r["name"] == "cayley_gamma3_identity" for r in bad)

    @pytest.mark.parametrize("seed", range(5))
    def test_every_seed_passes_and_repeats(self, capsys, seed):
        code, out, _ = run(capsys, "verify", "--seed", str(seed))
        assert code == 0
        assert all(r["pass"] is True for r in rows_of(out))
        assert run(capsys, "verify", "--seed", str(seed)) == (0, out, "")

    def test_seeds_move_the_curvature_residuals(self, capsys):
        residuals = {}
        for seed in range(5):
            for r in rows_of(run(capsys, "verify", "--seed", str(seed))[1]):
                if r["name"].startswith("curvature"):
                    residuals.setdefault(r["name"], set()).add(r["residual"])
        assert len(residuals) == 2
        assert all(len(values) == 5 for values in residuals.values())

    @pytest.mark.parametrize("seed", range(5))
    def test_draws_keep_their_kind_size_and_range(self, seed):
        params, (z0, z1), balls = cli._verify_draws(seed)
        assert len(params) == 100
        assert z0.shape == z1.shape == (10_000,)
        # the membership check cannot pass vacuously: each model's boundary
        # has at least 100 sample points on either side
        for inside in (
            np.abs(z0) ** 2 + np.abs(z1) ** 2 < 1,
            2 * z0.imag - np.abs(z1) ** 2 > 0,
            2 * z0.real + np.abs(z1) ** 2 < 0,
        ):
            assert 100 <= np.count_nonzero(inside) <= 10_000 - 100
        for n, vs in balls.items():
            assert len(vs) == 5
            assert all(v.shape == (n,) and 0.06 <= np.linalg.norm(v) <= 0.6 for v in vs)

    def test_standard_normals_are_standard_normal(self):
        x = cli._standard_normals(random.Random(0), 40_001)
        assert x.shape == (40_001,) and np.isfinite(x).all()
        # mean, variance and the share within one standard deviation, each
        # within about 4 standard errors of a standard normal's
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1) < 0.03
        assert abs(np.mean(np.abs(x) < 1) - 0.6827) < 0.01
        assert np.array_equal(x, cli._standard_normals(random.Random(0), 40_001))


class TestBound:
    def test_cocompact_single_row(self, capsys):
        code, out, _ = run(capsys, "bound", "cocompact", "--n", "2", "--k", "6", "--rx", "1.0")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 1
        assert rows[0]["log_identity_term"] == 0.0
        assert rows[0]["k"] == 6

    def test_cusp_sweep_row_count_and_fit(self, capsys):
        code, out, _ = run(
            capsys, "bound", "cusp", "--k", "6..60", "--rx", "1.0", "--fit", "--tol", "1e-4"
        )
        assert code == 0
        rows = rows_of(out)
        fit_rows = [r for r in rows if "fit_slope" in r]
        data_rows = [r for r in rows if "k" in r]
        assert len(data_rows) == 55
        assert len(fit_rows) == 1
        assert all("log_cusp_term" in r for r in data_rows)

    def test_cusp_k_below_six_exits_2(self, capsys):
        code, _, err = run(capsys, "bound", "cusp", "--k", "4")
        assert code == 2
        assert "--k" in err and "k >= 6" in err

    def test_bad_rx_exits_2(self, capsys):
        code, _, err = run(capsys, "bound", "cocompact", "--k", "8", "--rx", "-1")
        assert code == 2
        assert "--rx" in err
        for argv, flag in [
            (("bound", "cocompact", "--rx", "inf"), "--rx"),
            (("bound", "cocompact", "--rx", "nan"), "--rx"),
            (("bound", "cusp", "--rx", "inf"), "--rx"),
            (("bound", "cusp", "--rx", "nan"), "--rx"),
            (("bound", "cocompact", "--c-gamma", "inf"), "--c-gamma"),
            (("bound", "cusp", "--c-gamma", "inf"), "--c-gamma"),
            (("count", "--delta", "2", "--rx", "inf"), "--rx"),
            (("count", "--delta", "2", "--rx", "nan"), "--rx"),
        ]:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert flag in err and len(err.strip().splitlines()) == 1, argv

    @pytest.mark.parametrize("which", ["cocompact", "cusp"])
    def test_huge_rx_stays_finite(self, capsys, which):
        code, out, err = run(capsys, "bound", which, "--k", "60", "--rx", "3000")
        assert code == 0 and "Traceback" not in err
        (row,) = rows_of(out)
        assert math.isfinite(row["log_total"])


@pytest.mark.parametrize("rx", ["5e-324", "1e-322"])
@pytest.mark.parametrize("which", ["cocompact", "cusp"])
def test_subnormal_rx_gives_finite_terms(capsys, which, rx):
    # r_x / 4 and r_x / 8 underflow here; the terms must not
    code, out, err = run(capsys, "bound", which, "--k", "6", "--rx", rx)
    assert (code, err) == (0, "")
    (row,) = rows_of(out)
    logs = {key: v for key, v in row.items() if key.startswith("log_")}
    assert len(logs) >= 4 and all(map(math.isfinite, logs.values()))
    # sinh(5 r/8) / sinh(r/4) = 5/2 to double precision
    assert logs["log_ring_term"] == pytest.approx(4 * math.log(2.5), rel=1e-15)


@pytest.mark.parametrize("which", ["cocompact", "cusp"])
def test_overflowing_total_is_json_null(capsys, which):
    # exp(log_total) passes the double range; json has no inf
    code, out, err = run(capsys, "bound", which, "--k", "6..8", "--rx", "1e-77")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 4
    rows = [json.loads(line) for line in lines][1:]
    for row in rows:
        assert row["normalized_total"] is None
        assert math.isfinite(row["log_total"]) and row["log_total"] > 709.8


@pytest.mark.parametrize("k, rx", [("100", "1e307"), ("6", "9e307")])
@pytest.mark.parametrize("which", ["cocompact", "cusp"])
def test_vanishing_ring_term_is_null(capsys, which, k, rx):
    # k log cosh(3 r_x / 8) overflows: the ring term is exactly 0, log -inf
    code, out, err = run(capsys, "bound", which, "--k", k, "--rx", rx)
    assert (code, err) == (0, "")
    (row,) = rows_of(out)
    assert row["log_ring_term"] is None and math.isfinite(row["log_total"])
    code, out, err = run(capsys, "bound", which, "--k", k, "--rx", rx, "--format", "csv")
    assert (code, err) == (0, "")
    header, values = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
    assert dict(zip(header, values))["log_ring_term"] == "-inf"


def test_jsonl_writes_non_finite_floats_as_null():
    row = {"a": math.inf, "b": -math.inf, "c": math.nan, "d": np.float32(math.inf), "e": 1.5, "f": "inf"}
    assert json.loads(_jsonl(row)) == {"a": None, "b": None, "c": None, "d": None, "e": 1.5, "f": "inf"}


class TestDiagnostics:
    def test_info_prints_the_sweep_line(self, capsys, monkeypatch):
        monkeypatch.setenv("PBL_LOG", "info")
        code, out, err = run(capsys, "bound", "cocompact", "--k", "6..8")
        assert code == 0 and len(rows_of(out)) == 3
        assert err == "pbl: bound sweep over 3 weights\n"

    def test_default_prints_nothing(self, capsys, monkeypatch):
        monkeypatch.delenv("PBL_LOG", raising=False)
        code, _, err = run(capsys, "bound", "cocompact", "--k", "6..8")
        assert (code, err) == (0, "")

    def test_numpy_free_command_loads_no_logging(self):
        script = (
            "import contextlib, io, sys\n"
            "from pbl.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['bound', 'cocompact', '--k', '6..8'])\n"
            "print(code, 'logging' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(pbl.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src, "PBL_LOG": "info"},
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]
        assert proc.stderr == "pbl: bound sweep over 3 weights\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("bound", "cocompact", "--k"), "--k"),
        (("bound", "cusp", "--k"), "--k"),
        (("gamma-chain", "--k"), "--k"),
        (("lattice-sum", "--k"), "--k"),
        (("count", "--delta", "1", "--k"), "--k"),
        (("maxima", "--k"), "--k"),
        (("bound", "cocompact", "--c-exponent"), "--c-exponent"),
    ],
)
def test_int_beyond_2_53_exits_2(capsys, argv, flag):
    code, out, err = run(capsys, *argv, "9" * 400)
    assert (code, out) == (2, "")
    assert flag in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bound", "cusp", "--k", "5"), "--k: need k >= 6, got 5"),
        (("bound", "cocompact", "--k", "5..9"), "--k: need k >= 6, got 5"),
        (("bound", "cocompact", "--n", "3", "--k", "7"), "--k: need k >= 8, got 7"),
        (("lattice-sum", "--k", "5"), "--k: need k >= 6, got 5"),
        (("gamma-chain", "--k", "5"), "--k: need k >= 6, got 5"),
        (("maxima", "--k", "0"), "--k: need k >= 1, got 0"),
        (("bound", "cocompact", "--rx", "0"), "--rx: need 0 < rx < inf, got 0.0"),
        (("bound", "cusp", "--rx=-1e-300"), "--rx: need 0 < rx < inf, got -1e-300"),
        (("count", "--delta", "2", "--rx", "0"), "--rx: need 0 < rx < inf, got 0.0"),
        (("bound", "cocompact", "--c-gamma", "0"), "--c-gamma: need 0 < c-gamma < inf, got 0.0"),
        (("bound", "cocompact", "--n", "1", "--k", "6"), "--n: need n >= 2, got 1"),
        (("count", "--k", "0", "--delta", "1"), "--k: need k >= 1, got 0"),
        (("bound", "cusp", "--tol", "0"), "--tol: need 2.2e-16 <= tol <= 1e-3, got 0.0"),
        (("bound", "cusp", "--tol", "1"), "--tol: need 2.2e-16 <= tol <= 1e-3, got 1.0"),
        (("lattice-sum", "--tol", "2e-16"), "--tol: need 2.2e-16 <= tol <= 1e-3, got 2e-16"),
        (("lattice-sum", "--beta-step", "0"), "--beta-step: need 0 < beta-step < inf, got 0.0"),
        (("count", "--delta=-1"), "--delta: need delta >= 0, got -1.0"),
        (("lattice-sum", "--a1-re", "nan"), "--a1-re: need a finite value, got nan"),
        (("bound", "cusp", "--a2-im", "inf"), "--a2-im: need a finite value, got inf"),
        (
            ("lattice-sum", "--a2-im", "0"),
            "--a1-re, --a1-im, --a2-re, --a2-im: alpha basis is degenerate over R",
        ),
        (
            ("lattice-sum", "--a1-re", "1e308", "--a1-im", "1e308"),
            "--a1-re, --a1-im, --a2-re, --a2-im: a1 and a2 must have |Re| + |Im| in the double range",
        ),
        (
            ("verify", "--curvature-step", "0"),
            "--curvature-step: stencil step h must be positive, with h^2 > 0",
        ),
        (
            ("verify", "--curvature-step", "0.5"),
            "--curvature-step: point too close to the boundary for the stencil",
        ),
        (("bound", "cocompact", "--k", "6..9", "--fit"), "--fit: need at least 5 weights in --k, got 4"),
    ],
    ids=[
        "cusp-k", "cocompact-k-range", "cocompact-n3-k", "lattice-sum-k", "gamma-chain-k",
        "maxima-k", "cocompact-rx", "cusp-rx", "count-rx", "c-gamma", "cocompact-n", "count-k",
        "cusp-tol-0", "cusp-tol-1", "lattice-sum-tol", "beta-step", "count-delta", "a1-re-nan",
        "a2-im-inf", "degenerate-basis", "basis-modulus", "curvature-step-0",
        "curvature-step-wide", "fit-4",
    ],
)
def test_bounded_flag_just_out_of_range_names_flag_and_bound(capsys, argv, message):
    # every command states a bound in the one shared form of pbl.errors, and
    # a value the library rejects is reported against the flag that set it
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"pbl: precondition violated: {message}\n"


def test_csv_fit_is_the_last_line_with_the_jsonl_digits(capsys):
    argv = ("bound", "cocompact", "--k", "6..20", "--fit")
    code, jsonl, _ = run(capsys, *argv)
    assert code == 0
    # the JSONL fit row's own text, so no digit is lost to a float round trip
    fit_row = jsonl.splitlines()[-1]
    digits = [part.split(": ")[1] for part in fit_row.strip("{}").split(", ")]
    code, csv_out, err = run(capsys, *argv, "--format", "csv")
    assert (code, err) == (0, "")
    lines = csv_out.splitlines()
    assert lines[-1] == "# fit: slope={} intercept={} residual_rms={}".format(*digits)
    assert list(json.loads(fit_row)) == ["fit_slope", "fit_intercept", "fit_residual_rms"]
    # the config comment, the column header, then one row per weight
    assert len(lines) == 2 + 15 + 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("bound", "cusp", "--n", "5", "--k", "6"), "--n"),
        (("bound", "cocompact", "--a2-im", "0"), "--a2-im"),
        (("bound", "cocompact", "--tol", "1e-6"), "--tol"),
    ],
)
def test_flag_the_bound_does_not_read_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert f"unrecognized arguments: {flag}" in captured.err


class _ReadKeys(dict):
    """A configuration that records which keys its handler reads."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


# cheap valid arguments of every command; REPORT is a bound report for fit
_CHEAP = {
    "verify": [],
    "bound cocompact": ["--k", "6..10"],
    "bound cusp": ["--k", "6..10", "--tol", "1e-4"],
    "lattice-sum": [],
    "gamma-chain": [],
    "count": ["--delta", "0..1", "--rx", "1"],
    "maxima": [],
    "fit": ["--in", "REPORT"],
}


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_every_declared_flag_is_read(name, tmp_path):
    """A command declares only the flags its handler reads, so no flag is
    silently ignored and the report header holds only what shaped the run."""
    report = tmp_path / "report.jsonl"
    assert main(["bound", "cocompact", "--k", "6..10", "--out", str(report)]) == 0
    argv = [*name.split(), *(str(report) if a == "REPORT" else a for a in _CHEAP[name])]
    ns = cli.build_parser().parse_args(argv)
    handler, _, defaults = cli._COMMANDS[name]
    cfg = _ReadKeys(cli._resolve(ns, {}, defaults))
    code, _ = handler(ns, cfg)
    assert code == 0
    assert set(defaults) - cfg.read == set()


def test_lattice_area_overflow_exits_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "bound", "cusp", "--k", "6", "--a1-re", "1e200", "--a2-im", "1e200")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "area" in err


def test_elongated_cell_is_not_called_degenerate(capsys):
    # 1e20 x 1 and 1e308 x 1 rectangles: count sums their columns, and the
    # lattice sum's disc exceeds the budget, where both once rejected the
    # basis as degenerate
    for x in ("1e20", "1e308"):
        cell = ("--a1-re", x)
        code, out, err = run(capsys, "count", "--delta", "2", *cell)
        assert (code, err) == (0, "")
        code, out, err = run(capsys, "lattice-sum", *cell)
        assert (code, out) == (3, "")
        assert err.startswith("pbl: numerical failure: the alpha disc of radius ")


def test_huge_alpha_cell_sums_its_zero_line(capsys):
    # past 2^54, 2 + diam rounds to diam; the cell area stays finite, and
    # past 1e154 |alpha|^2 of the disc's other columns overflows
    sums = []
    for x in ("1e17", "1e150", "1e154"):
        cell = ("--a1-re", x, "--a2-im", x)
        basis = ("--k", "6", "--tol", "1e-8", *cell)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "lattice-sum", *basis)
            assert (code, err) == (0, "")
            (row,) = rows_of(out)
            assert row["tail_bound"] <= 1e-8 * row["sum"]
            code, out, err = run(capsys, "bound", "cusp", *basis)
            assert (code, err) == (0, "")
            cusp = rows_of(out)[0]
            code, out, err = run(capsys, "count", "--delta", "2", "--k", "6", *cell)
            assert (code, err) == (0, "")
        # C(k) = 1, so the scaled sum is the lattice sum itself
        assert cusp["log_cusp_sum_scaled"] == row["log_sum"]
        sums.append(row["log_sum"])
    # every column but alpha = 0 adds (1 + x)^{-3} with x >= 1e33, below an ulp
    assert sums[0] == sums[1] == sums[2]


class TestLatticeSumCmd:
    def test_fields(self, capsys):
        code, out, _ = run(capsys, "lattice-sum", "--k", "6", "--tol", "1e-8")
        assert code == 0
        (row,) = rows_of(out)
        assert {"k", "log_sum", "sum", "r_alpha", "r_beta", "tail_bound", "n_terms"} <= set(row)
        assert row["tail_bound"] <= 1e-8 * row["sum"]

    def test_k_precondition(self, capsys):
        code, _, err = run(capsys, "lattice-sum", "--k", "4")
        assert code == 2 and "--k" in err

    def test_enumeration_budget_exits_3(self, capsys):
        code, out, err = run(capsys, "lattice-sum", "--k", "6", "--a2-re", "0", "--a2-im", "1e-6")
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1 and "numerical failure" in err


    def test_tolerance_at_the_floor_exits_3_fast(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "lattice-sum", "--k", "6", "--tol", "2.220446049250313e-16")
        assert time.perf_counter() - t0 < 1.0
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1 and "terms" in err


class TestGammaChainCmd:
    def test_beta_ratio_one(self, capsys):
        code, out, _ = run(capsys, "gamma-chain", "--k", "6")
        assert code == 0
        (row,) = rows_of(out)
        assert abs(row["beta_ratio"] - 1.0) < 1e-8
        assert abs(row["r_ratio"] - 0.5) < 1e-8

    def test_weight_1e8(self, capsys):
        # the Wallis-integral quadratures and the Stirling Gamma ratio hold to
        # rounding at large k, where the O(k log k) logs must cancel exactly
        code, out, err = run(capsys, "gamma-chain", "--k", "100000000")
        assert code == 0 and err == ""
        (row,) = rows_of(out)
        assert abs(row["beta_ratio"] - 1.0) <= 1e-12
        assert abs(row["r_ratio"] - 0.5) <= 1e-12


@pytest.mark.parametrize(
    "spec, want",
    [
        ("0..1:0.6", [0.0, 0.6]),
        ("0..2:0.75", [0.0, 0.75, 1.5]),
        ("0..4:0.5", [0.5 * i for i in range(9)]),
        ("0..0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
    ],
)
def test_float_range_stops_at_its_upper_end(capsys, spec, want):
    code, out, err = run(capsys, "count", "--delta", spec, "--rx", "1")
    assert (code, err) == (0, "")
    assert [row["delta"] for row in rows_of(out)] == want


class TestCountCmd:
    def test_nine_rows_dominated(self, capsys):
        code, out, _ = run(capsys, "count", "--delta", "0..4:0.5", "--rx", "auto")
        assert code == 0
        rows = rows_of(out)
        assert len(rows) == 9
        for r in rows:
            assert r["counted"] <= r["bound"]

    def test_huge_rx_stays_finite(self, capsys):
        code, out, err = run(capsys, "count", "--delta", "0", "--rx", "3000")
        assert code == 0 and "Traceback" not in err
        (row,) = rows_of(out)
        assert math.isfinite(row["bound"])

    def test_huge_delta_exits_3(self, capsys):
        code, out, err = run(capsys, "count", "--delta", "1500", "--rx", "1")
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1 and "numerical failure" in err

    def test_explicit_rx(self, capsys):
        code, out, _ = run(capsys, "count", "--delta", "2.0", "--rx", "1.5")
        assert code == 0
        assert len(rows_of(out)) == 1

    def test_skewed_basis_counts_from_delta_zero(self, capsys):
        # a2 = 0.999 + 0.01i: the alpha disc is sized by the ridge's own
        # Re <gamma z, z>, not by |s0|, which asked for ~5e6 columns here
        argv = ("count", "--k", "200", "--a2-re", "0.999", "--a2-im", "0.01")
        code, out, err = run(capsys, *argv, "--delta", "0..1:0.5", "--rx", "1")
        assert code == 0, err
        assert [r["counted"] for r in rows_of(out)] == [1, 7141, 56561]

    def test_ridge_displacement_at_k_1e9(self, capsys):
        # cosh^2(d/2) - 1 = 1/q^2 is below eps here; the auto radius keeps
        # its digits rather than reaching 0 and failing the --rx check
        code, out, err = run(capsys, "count", "--k", "1000000000", "--delta", "0")
        assert (code, err) == (0, "")
        header = json.loads(out.splitlines()[0])["config"]
        rx = float(header.rpartition("rx_effective=")[2])
        assert rx == pytest.approx(2 * math.asinh(2 * math.pi / 1e9), rel=1e-15)
        assert [r["counted"] for r in rows_of(out)] == [1]


class TestMaximaCmd:
    def test_location(self, capsys):
        code, out, _ = run(capsys, "maxima", "--k", "6")
        assert code == 0
        (row,) = rows_of(out)
        assert row["x1"] == pytest.approx(-6 / (4 * math.pi), rel=1e-6)
        assert row["x1_rel_err"] <= 1e-6

    def test_unreachable_tolerance_exits_3(self, capsys):
        # the ridge check resolves no tolerance below 1e-14: it compares two
        # rounded values, each a few eps from the ridge
        code, _, err = run(capsys, "maxima", "--k", "6", "--tol", "1e-15")
        assert code == 3
        assert "numerical failure" in err


class TestFitCmd:
    def test_fit_from_bound_report(self, capsys, tmp_path):
        path = tmp_path / "rows.jsonl"
        code, out, _ = run(
            capsys, "bound", "cocompact", "--k", "50..400:50", "--rx", "6.0",
            "--c-gamma", "1.0", "--c-exponent", "2", "--out", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "fit", "--in", str(path))
        assert code == 0
        (row,) = rows_of(out)
        assert row["slope"] == pytest.approx(2.0, abs=0.02)
        assert row["n_points"] == 8

    @pytest.mark.parametrize(
        "fmt, rows",
        [
            (
                "jsonl",
                '{"slope": 1.4831788588367234, "intercept": -1.635367772756698, '
                '"residual_rms": 0.028281277982618789, "n_points": 5}\n',
            ),
            (
                "csv",
                "slope,intercept,residual_rms,n_points\n"
                "1.4831788588367234,-1.635367772756698,0.028281277982618789,5\n",
            ),
        ],
    )
    def test_exact_output(self, capsys, tmp_path, fmt, rows):
        path = tmp_path / "rows.csv"
        path.write_text("k,log_total\n6,1.0\n7,1.25\n8,1.5\n9,1.625\n10,1.75\n")
        code, out, err = run(capsys, "fit", "--in", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        assert out.split("\n", 1)[1] == rows

    def test_unparsable_csv_input(self, capsys, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("k,log_total\n6," + "x" * 200_000 + "\n")
        code, out, err = run(capsys, "fit", "--in", str(path))
        assert (code, out) == (2, "")
        assert err == "pbl: --in: field larger than field limit (131072)\n"

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "fit")
        assert code == 2 and "--in" in err

    def test_non_numeric_log_total(self, capsys, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            "".join(
                f'{{"k": {k}, "log_total": {chr(34) + "x" + chr(34) if k == 8 else k / 4}}}\n'
                for k in range(6, 11)
            )
        )
        code, out, err = run(capsys, "fit", "--in", str(path))
        assert (code, out) == (2, "")
        assert err == "pbl: precondition violated: --in: could not convert string to float: 'x'\n"

    def test_unreadable_input(self, capsys, tmp_path):
        code, out, err = run(capsys, "fit", "--in", str(tmp_path / "absent.jsonl"))
        assert code == 2 and out == ""
        assert err.startswith("pbl: --in: ") and len(err.strip().splitlines()) == 1

    def test_truncated_input(self, capsys, tmp_path):
        path = tmp_path / "rows.jsonl"
        code, _, _ = run(capsys, "bound", "cocompact", "--k", "50..400:50", "--out", str(path))
        assert code == 0
        path.write_text(path.read_text()[:-20])
        code, out, err = run(capsys, "fit", "--in", str(path))
        assert code == 2 and out == ""
        assert err.startswith("pbl: --in: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("k, shown", [("0", "0"), ("-3", "-3"), ("1e300", "1.0000000000000001e+300")])
    def test_rejects_weights_out_of_range(self, capsys, tmp_path, k, shown):
        path = tmp_path / "rows.csv"
        path.write_text(f"k,log_total\n{k},1.0\n7,1.1\n8,1.2\n9,1.3\n10,1.4\n")
        code, out, err = run(capsys, "fit", "--in", str(path))
        assert (code, out) == (2, "")
        assert err == f"pbl: precondition violated: --in: k values must be in [1, 2^53], got {shown}\n"

    @pytest.mark.parametrize(
        "bad_row",
        ["9,nan", "9,inf", "6.7,1.0", "8,1.0"],
        ids=["nan_y", "inf_y", "non_integral_x", "duplicate_x"],
    )
    def test_rejects_bad_values(self, capsys, tmp_path, bad_row):
        path = tmp_path / "rows.csv"
        path.write_text("k,log_total\n" + "\n".join(["6,1.0", "7,1.1", "8,1.2", bad_row, "10,1.4"]) + "\n")
        code, out, err = run(capsys, "fit", "--in", str(path))
        assert code == 2 and out == ""
        assert "--in: " in err and len(err.strip().splitlines()) == 1


class TestOutputDiscipline:
    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "bound", "cusp", "--k", "6..10", "--rx", "1.0", "--tol", "1e-6")
        _, out2, _ = run(capsys, "bound", "cusp", "--k", "6..10", "--rx", "1.0", "--tol", "1e-6")
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "count", "--delta", "0..2:1", "--rx", "1.0", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "delta,counted,bound"
        assert len(lines) == 5

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.jsonl"
        code, out, _ = run(capsys, "maxima", "--k", "6", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().count("\n") >= 2

    def test_out_into_missing_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "maxima", "--k", "6", "--out", str(tmp_path / "no" / "x.jsonl"))
        assert code == 2 and out == ""
        assert err.startswith("pbl: --out: ") and len(err.strip().splitlines()) == 1

    def test_config_header_first_line(self, capsys):
        _, out, _ = run(capsys, "maxima", "--k", "6")
        first = json.loads(out.splitlines()[0])
        assert "config" in first and "k=6" in first["config"]

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run(capsys, "gamma-chain", "--k", "6")
        row_line = out.strip().splitlines()[-1]
        assert "1.1780972450961724" in row_line  # 3 pi / 8 to 17 digits


class TestConfigFile:
    @pytest.mark.parametrize(
        "raw, on", [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)]
    )
    def test_switch_values(self, capsys, tmp_path, raw, on):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"fit = {raw}\n")
        code, out, _ = run(capsys, "bound", "cocompact", "--k", "6..10", "--config", str(cfg))
        assert code == 0
        assert len(rows_of(out)) == 5 + on

    @pytest.mark.parametrize("raw", ["on", "off", "2", ""])
    def test_unknown_switch_value_exits_2(self, capsys, tmp_path, raw):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"fit = {raw}\n")
        code, out, err = run(capsys, "bound", "cocompact", "--k", "6..10", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "--config: fit" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "lines, names",
        [
            ("n=5\nfitt=true\n", "keys 'fitt', 'n'"),
            ("fitt=true\n", "key 'fitt'"),
            ("fit=true\ntol=1e-7\na1_re=2\n", "keys 'a1_re', 'tol'"),
        ],
    )
    def test_undeclared_key_exits_2(self, capsys, tmp_path, lines, names):
        # n is a cocompact key, tol and a1_re cusp keys: none is read here
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        argv = ["cusp", "--k", "6"] if "n=" in lines else ["cocompact", "--k", "6..10"]
        code, out, err = run(capsys, "bound", *argv, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"pbl: precondition violated: --config: unknown {names}\n"

    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=8\ntol=1e-7\n")
        code, out, _ = run(capsys, "lattice-sum", "--config", str(cfg))
        assert code == 0
        (row,) = rows_of(out)
        assert row["k"] == 8

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k=8\n")
        code, out, _ = run(capsys, "lattice-sum", "--config", str(cfg), "--k", "10")
        assert code == 0
        (row,) = rows_of(out)
        assert row["k"] == 10

    def test_int_options_take_integral_values_only(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        for raw in ("6", "6.0"):
            cfg.write_text(f"k={raw}\n")
            code, out, _ = run(capsys, "maxima", "--config", str(cfg))
            assert code == 0 and "k=6," in out.splitlines()[0]
        for raw in ("6.7", "inf", "nan", "abc"):
            cfg.write_text(f"k={raw}\n")
            code, out, err = run(capsys, "maxima", "--config", str(cfg))
            assert (code, out) == (2, ""), raw
            assert "--config: k" in err and len(err.strip().splitlines()) == 1, raw

    def test_lattice_fields_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a1_re=2.0\na1_im=0.0\na2_re=0.0\na2_im=2.0\nbeta_step=1.0\n")
        code, out, _ = run(capsys, "lattice-sum", "--k", "6", "--config", str(cfg))
        assert code == 0
        (row,) = rows_of(out)
        # sparser lattice, smaller sum
        assert row["sum"] < 1.9435


# every number option of every command; bound cocompact runs at k = 30 so
# that --n up to 10 passes its k >= 2n + 2 check and an error names --n
_NUMBER_OPTIONS = [
    (name, key)
    for name, (_, _, defaults) in cli._COMMANDS.items()
    for key, default in defaults.items()
    if type(default) in (int, float)
]
_PARITY_ARGS = {"bound cocompact": ["--k", "30"]}


def _exit_of(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


@pytest.mark.parametrize("name, key", _NUMBER_OPTIONS, ids=[" ".join(o) for o in _NUMBER_OPTIONS])
def test_flag_and_config_line_convert_alike(name, key, tmp_path, capsys):
    """`--key V` and a config line `key=V` go through one conversion: the
    same exit code, on success the same header, on failure one stderr line
    each that names the flag (or, for the config line, its key)."""
    assert_flag_and_config_line_alike([*name.split(), *_PARITY_ARGS.get(name, [])], key, tmp_path, capsys)


# the range options and count's radius, whose text the header echoes
_TEXT_OPTIONS = [
    ("bound cocompact", "k"), ("bound cusp", "k"), ("gamma-chain", "k"), ("count", "delta"), ("count", "rx")
]


@pytest.mark.parametrize("name, key", _TEXT_OPTIONS, ids=[" ".join(o) for o in _TEXT_OPTIONS])
def test_range_and_radius_text_convert_alike(name, key, tmp_path, capsys):
    """A range's ends and step, and count's --rx, convert by the number
    options' rule, from a flag and from a config line alike."""
    assert_flag_and_config_line_alike(name.split(), key, tmp_path, capsys)


@pytest.mark.parametrize(
    "argv, same_as",
    [
        (["bound", "cusp", "--k", "6.0"], ["bound", "cusp", "--k", "6"]),
        (["bound", "cocompact", "--k", "6.0..1e1:2.0"], ["bound", "cocompact", "--k", "6..10:2"]),
        (["gamma-chain", "--k", "1e1"], ["gamma-chain", "--k", "10"]),
        (["count", "--delta", "0..1e0:5e-1", "--rx", "1e0"], ["count", "--delta", "0..1:0.5", "--rx", "1"]),
    ],
)
def test_range_ends_take_integral_numbers(capsys, argv, same_as):
    # the rows agree; the header echoes each text as it was given
    code, out, err = run(capsys, *argv)
    want = run(capsys, *same_as)
    assert (code, err, out.splitlines()[1:]) == (0, "", want[1].splitlines()[1:])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "cusp", "--k", "6.5"], "--k: '6.5' is not an integer"),
        (["gamma-chain", "--k", "6..abc"], "--k: 'abc' is not a number"),
        (["count", "--delta", "0..2:x"], "--delta: 'x' is not a number"),
        (["count", "--rx", "abc"], "--rx: 'abc' is not a number"),
    ],
)
def test_range_and_radius_errors_name_the_flag(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"pbl: precondition violated: {message}\n")


@pytest.mark.parametrize(
    "command, line, message",
    [
        ("count", "rx=abc", "--config: rx: 'abc' is not a number"),
        ("count", "delta=0..x", "--config: delta: 'x' is not a number"),
        ("gamma-chain", "k=6..7.5", "--config: k: '7.5' is not an integer"),
    ],
)
def test_range_and_radius_errors_name_the_config_line(capsys, tmp_path, command, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    got = run(capsys, command, "--config", str(cfg))
    assert got == (2, "", f"pbl: precondition violated: {message}\n")


def assert_flag_and_config_line_alike(argv, key, tmp_path, capsys):
    flag, cfg = "--" + key.replace("_", "-"), tmp_path / "run.cfg"
    for raw in ("6", "6.0", "1e1", "6.7", "abc", "inf", "nan"):
        cfg.write_text(f"{key}={raw}\n")
        by_flag = _exit_of([*argv, flag, raw]), *capsys.readouterr()
        by_config = _exit_of([*argv, "--config", str(cfg)]), *capsys.readouterr()
        assert by_flag[0] == by_config[0], (raw, by_flag, by_config)
        if by_flag[0] == 0:
            assert by_flag[1].splitlines()[0] == by_config[1].splitlines()[0], raw
            continue
        for names, (_, out, err) in (((flag,), by_flag), ((flag, f"--config: {key}"), by_config)):
            assert out == "" and len(err.splitlines()) == 1, (raw, err)
            assert any(n in err for n in names), (raw, err)


# -- fuzz ----------------------------------------------------------------------

# "9" * 400 is an int beyond the double range; 1e17, 1e150 and 1e154 make
# alpha cells whose area is finite but whose diameter absorbs 2
# (2 + diam == diam), and past 1e154 |alpha|^2 overflows
VOCAB = (
    "0", "-1", "1e-300", "6", "1500", "3000", "1e17", "1e150", "1e154", "1e308", "inf", "nan",
    "abc", "9" * 400,
)
# sweeps of at most 5 values, and malformed ones
RANGES = VOCAB + (
    "6..10", "6..3000:1000", "0..2:0.5", "-1..3", "10..6", "6..abc", "nan..6", "0..inf",
    "0..1e308", "6..10:0",
)
LATTICE = {flag: VOCAB for flag in ("--a1-re", "--a1-im", "--a2-re", "--a2-im", "--beta-step")}
SWEEP = {"--k": RANGES, "--rx": VOCAB, "--c-gamma": VOCAB, "--c-exponent": VOCAB}
FLAGS = {
    "verify": {"--curvature-step": VOCAB, "--perturb-gamma3": None, "--seed": VOCAB},
    "bound cocompact": {"--n": VOCAB, **SWEEP, "--fit": None},
    "bound cusp": {**SWEEP, "--tol": VOCAB, "--fit": None, **LATTICE},
    "lattice-sum": {"--k": VOCAB, "--tol": VOCAB, **LATTICE},
    "gamma-chain": {"--k": RANGES},
    "count": {"--k": VOCAB, "--delta": RANGES, "--rx": VOCAB + ("auto",), **LATTICE},
    "maxima": {"--k": VOCAB, "--tol": VOCAB},
    "fit": {"--in": VOCAB, "--x": VOCAB + ("k",), "--y": VOCAB + ("log_total",)},
}
# file flags name files in the test's working directory; --out writes what --in reads
COMMON = {"--out": VOCAB, "--format": VOCAB + ("jsonl", "csv"), "--config": VOCAB}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = {**FLAGS[command], **COMMON}
    argv = command.split()
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=4)):
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(st.sampled_from(flags[flag])))
    return argv


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=argvs())
def test_fuzzed_argv_exits_cleanly(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@st.composite
def config_files(draw):
    """A command and a --config file of key=value lines: the command's keys
    with fuzz-vocabulary values or free text, and lines of raw bytes."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    flags = FLAGS[command]
    keys = sorted(flag[2:].replace("-", "_") for flag in flags)
    values = st.sampled_from(sorted(set(RANGES))) | st.text(max_size=12)
    line = st.tuples(st.sampled_from(keys), values).map(
        lambda kv: f"{kv[0]}={kv[1]}".encode("utf-8", "surrogatepass")
    )
    lines = draw(st.lists(line | st.binary(max_size=8), max_size=4))
    return command.split(), b"\n".join(lines)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=config_files())
def test_fuzzed_config_exits_cleanly(case, tmp_path, capsys):
    argv, content = case
    path = tmp_path / "run.cfg"
    path.write_bytes(content)
    try:
        code = main([*argv, "--config", str(path)])
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


def test_verify_rejects_a_negative_seed(capsys):
    code, out, err = run(capsys, "verify", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "pbl: precondition violated: --seed: must be nonnegative\n"
