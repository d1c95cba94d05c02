"""The stdout of the deterministic CLI calls of a paper-reproduction
session, byte for byte, against the files in tests/golden/: each call in
JSON Lines, and again with --format csv in <name>_csv.out.

tests/golden/help.out pins the --help text of pbl and of each subcommand,
`bound cocompact` and `bound cusp` included, at 80 columns.  After a
deliberate output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files whose bytes changed and prints their names.
"""

import argparse
import contextlib
import difflib
import io
import json
import os
import pathlib

import pytest

from pbl import cli
from pbl.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
_SWEEP = ["--k", "50..400:25", "--rx", "6", "--c-exponent", "2", "--fit"]
CALLS = {
    "verify": ["verify", "--seed", "0"],
    "bound_cocompact_fit": ["bound", "cocompact", *_SWEEP],
    "bound_cusp_fit": ["bound", "cusp", *_SWEEP],
    "lattice_sum": ["lattice-sum", "--k", "6", "--tol", "1e-8"],
    "gamma_chain": ["gamma-chain", "--k", "6..20"],
    "count": ["count", "--delta", "0..4:0.5"],
    "maxima": ["maxima", "--k", "20"],
}
CALLS.update({f"{name}_csv": [*argv, "--format", "csv"] for name, argv in list(CALLS.items())})


def stdout_of(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (argv, code)
    return out.getvalue()


def help_text(parser=None) -> str:
    """format_help() of the pbl parser, then of each subparser in turn,
    nested ones (`bound cusp`) under their group; the width follows COLUMNS."""
    parser = parser or cli.build_parser()
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return parser.format_help() + "".join(help_text(p) for a in subs for p in a.choices.values())


def assert_same(got: str, want: str, what: str):
    diff = "".join(
        difflib.unified_diff(want.splitlines(True), got.splitlines(True), "golden", "now")
    )
    assert got == want, f"{what} changed its output:\n{diff}"


@pytest.mark.parametrize("name", list(CALLS))
def test_cli_stdout_matches_golden(name):
    want = (GOLDEN / f"{name}.out").read_text()
    assert_same(stdout_of(CALLS[name]), want, f"pbl {' '.join(CALLS[name])}")


@pytest.mark.parametrize("name", ["count", "bound_cusp_fit_csv"])
def test_out_file_holds_the_stdout_bytes(name, tmp_path, capsys):
    path = tmp_path / "report"
    assert main([*CALLS[name], "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert_same(path.read_text(), (GOLDEN / f"{name}.out").read_text(), f"--out of {name}")


def test_failing_verify_prints_every_row(capsys):
    """Exit 1 is a verdict, not an error: the report is printed in full."""
    assert main(["verify", "--seed", "0", "--perturb-gamma3"]) == 1
    got = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    want = [json.loads(line) for line in (GOLDEN / "verify.out").read_text().splitlines()]
    assert got[0] == {"config": want[0]["config"].replace("=false", "=true")}
    assert [r["name"] for r in got[1:]] == [r["name"] for r in want[1:]]
    assert [r["name"] for r in got[1:] if not r["pass"]] == ["cayley_gamma3_identity"]


def test_help_matches_golden(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert_same(help_text(), (GOLDEN / "help.out").read_text(), "pbl --help")


def test_interleaved_calls_match_golden(capsys):
    """main parses with one parser per process: the calls run forwards and
    backwards, with a usage error and a failing call between any two, print
    the golden bytes every time."""
    for name in [*CALLS, *reversed(CALLS)]:
        with pytest.raises(SystemExit):
            main(["bound"])
        assert main(["lattice-sum", "--k", "4"]) == 2
        capsys.readouterr()
        assert stdout_of(CALLS[name]) == (GOLDEN / f"{name}.out").read_text(), name


def test_main_builds_the_parser_once(monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for name in ("maxima", "gamma_chain", "maxima"):
            stdout_of(CALLS[name])
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def rewrite(golden=GOLDEN, calls=CALLS) -> list:
    """Rewrite each golden file whose bytes differ from its call's stdout,
    then help.out if it differs from help_text(), and return the paths
    rewritten."""
    texts = {name: stdout_of(argv) for name, argv in calls.items()}
    texts["help"] = help_text()
    changed = []
    for name, got in texts.items():
        path = golden / f"{name}.out"
        if not path.exists() or path.read_text() != got:
            path.write_text(got)
            changed.append(path)
    return changed


def test_rewrite_touches_only_changed_files(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    calls = {name: CALLS[name] for name in ("maxima", "gamma_chain")}
    for name in (*calls, "help"):
        (tmp_path / f"{name}.out").write_text((GOLDEN / f"{name}.out").read_text())
    (tmp_path / "maxima.out").write_text("stale\n")
    (tmp_path / "help.out").write_text("stale\n")
    assert rewrite(tmp_path, calls) == [tmp_path / "maxima.out", tmp_path / "help.out"]
    for name in ("maxima", "help"):
        assert (tmp_path / f"{name}.out").read_text() == (GOLDEN / f"{name}.out").read_text()
    assert rewrite(tmp_path, calls) == []


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for path in rewrite():
        print(f"rewrote {path.relative_to(GOLDEN.parent.parent)}")
