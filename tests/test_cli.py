import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pbl
from pbl.cli import main


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


def test_import_loads_no_scipy():
    # scipy is imported only inside the three functions that compute with it
    src = os.path.dirname(os.path.dirname(pbl.__file__))
    code = "import sys, pbl, pbl.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


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


def test_lattice_area_overflow_exits_2(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "bound", "cusp", "--k", "6", "--a1-re", "1e200", "--a2-im", "1e200")
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "area" in err


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


class TestMaximaCmd:
    def test_location(self, capsys):
        code, out, _ = run(capsys, "maxima", "--k", "6")
        assert code == 0
        (row,) = rows_of(out)
        assert row["x1"] == pytest.approx(-6 / (4 * math.pi), rel=1e-6)
        assert row["x1_rel_err"] <= 1e-6

    def test_unreachable_tolerance_exits_3(self, capsys):
        # machine-precision flatness caps the optimizer near 1e-8 relative
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

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "fit")
        assert code == 2 and "--in" in err

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


# -- fuzz ----------------------------------------------------------------------

VOCAB = ("0", "-1", "1e-300", "6", "1500", "3000", "1e308", "inf", "nan", "abc")
# sweeps of at most 5 values, and malformed ones
RANGES = VOCAB + (
    "6..10", "6..3000:1000", "0..2:0.5", "-1..3", "10..6", "6..abc", "nan..6", "0..inf",
    "0..1e308", "6..10:0",
)
LATTICE = {flag: VOCAB for flag in ("--a1-re", "--a1-im", "--a2-re", "--a2-im", "--beta-step")}
BOUND = {
    "--n": VOCAB, "--k": RANGES, "--rx": VOCAB, "--c-gamma": VOCAB, "--c-exponent": VOCAB,
    "--tol": VOCAB, "--fit": None, **LATTICE,
}
FLAGS = {
    "verify": {"--curvature-step": VOCAB, "--perturb-gamma3": None, "--seed": VOCAB},
    "bound cocompact": BOUND,
    "bound cusp": BOUND,
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
