"""Mutation check of the certified margins.

    python tests/mutants.py [NAME ...]

Each mutant weakens one rounding bound or margin of the library.  It is
applied to a copy of `src/` and `tests/` in a temporary directory, where
the mutant's tests run under pytest; the mutant is killed when they fail.
The script prints one line per mutant and exits 1 if a mutant survives
that `KNOWN_SURVIVORS` does not name.  pytest does not collect this file;
`test_mutant_list.py` checks that each source text below occurs exactly
once, so that the list follows the code.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    text: str  # exact source text, present once
    replacement: str
    tests: tuple[str, ...]


_COUNTING = "src/pbl/counting.py"
_COLUMN_TESTS = ("tests/test_counting.py",)

MUTANTS = [
    Mutant(
        "eta = 0",
        _COUNTING,
        "eta = _ROUND_SINH2 * (4.0 + delta)",
        "eta = 0.0 * (4.0 + delta)",
        _COLUMN_TESTS,
    ),
    Mutant(
        "no beta-end pad",
        _COUNTING,
        "pad = _ROUND_TERMS * (hw_out + np.abs(im) + np.abs(offset))",
        "pad = 0.0 * (hw_out + np.abs(im) + np.abs(offset))",
        _COLUMN_TESTS,
    ),
    Mutant(
        "no subnormal widening",
        _COUNTING,
        "s_out = root * root * (1.0 + eta) + _ROUND_SUBNORMAL",
        "s_out = root * root * (1.0 + eta)",
        _COLUMN_TESTS,
    ),
    Mutant(
        "no subnormal narrowing",
        _COUNTING,
        "s_in = root * root * (1.0 - eta) - _ROUND_SUBNORMAL",
        "s_in = root * root * (1.0 - eta)",
        _COLUMN_TESTS,
    ),
    Mutant(
        "narrow interval past s_in",
        _COUNTING,
        "hi[1] = np.where(b <= s_in, np.maximum(hi[1], lo[1] - 1.0), lo[1] - 1.0)",
        "hi[1] = np.maximum(hi[1], lo[1] - 1.0)",
        _COLUMN_TESTS,
    ),
    Mutant(
        "no Im A margin",
        _COUNTING,
        "err = _ROUND_TERMS * np.abs(alpha) * (abs(z2) + abs(w2))",
        "err = 0.0 * np.abs(alpha) * (abs(z2) + abs(w2))",
        _COLUMN_TESTS,
    ),
    Mutant(
        "no disc pad",
        _COUNTING,
        "disc = spec.disc((abs(z2 - w2) + math.sqrt(2.0 * g_max)) * (1.0 + 1e-12))",
        "disc = spec.disc(abs(z2 - w2) + math.sqrt(2.0 * g_max))",
        _COLUMN_TESTS,
    ),
]

# mutants no test can kill, with the reason
KNOWN_SURVIVORS = {
    "no Im A margin": "the margin covers numpy builds whose SIMD complex "
    "product rounds a lane differently; on a build that rounds every lane "
    "alike, Im A is bit-identical between the columns and the points",
    "no disc pad": "eta widens S, and so sqrt(2 g_max), by ~2^-45 relative, "
    "which covers the few roundings of g and of the radius wherever "
    "sqrt(2 g_max) is not far below |z2 - w2|; no test puts a column within "
    "an ulp of the disc's edge",
}


def run(mutant: Mutant) -> bool:
    """True if the mutant survives its tests."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for sub in ("src", "tests"):
            shutil.copytree(ROOT / sub, tmp / sub, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        target = tmp / mutant.path
        source = target.read_text()
        if source.count(mutant.text) != 1:
            raise SystemExit(f"{mutant.name}: source text not found exactly once")
        target.write_text(source.replace(mutant.text, mutant.replacement))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # 1 is a test failure; any other nonzero code (interrupted, internal
        # or usage error, nothing collected) says nothing about the mutant
        if proc.returncode not in (0, 1):
            raise SystemExit(f"{mutant.name}: pytest exited with {proc.returncode}")
        return proc.returncode == 0


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unexpected = 0
    for mutant in chosen:
        survived = run(mutant)
        if not survived:
            verdict = "killed"
        elif mutant.name in KNOWN_SURVIVORS:
            verdict = "survives (known: " + KNOWN_SURVIVORS[mutant.name] + ")"
        else:
            verdict, unexpected = "SURVIVES", unexpected + 1
        print(f"{mutant.name}: {verdict}", flush=True)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
