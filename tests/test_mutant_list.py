import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("mutants", Path(__file__).with_name("mutants.py"))
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_source_text_occurs_once(mutant):
    source = (mutants.ROOT / mutant.path).read_text()
    assert source.count(mutant.text) == 1
    assert mutant.replacement != mutant.text
    assert all((mutants.ROOT / t).exists() for t in mutant.tests)


def test_known_survivors_are_listed_mutants():
    assert set(mutants.KNOWN_SURVIVORS) <= {m.name for m in mutants.MUTANTS}
