"""The mutation gate's sites (tests/mutants.py): each mutant's old text occurs
exactly once in its file, and each of its test files exists."""

import pytest

import mutants


@pytest.mark.parametrize("m", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_mutant_site_occurs_exactly_once(m):
    assert mutants.occurrences(m) == 1
    assert all((mutants.ROOT / t.split("::")[0]).is_file() for t in m.tests)
