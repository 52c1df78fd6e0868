"""The mutant table (tests/mutants.py): its texts still match the tree,
and -- marked ``mutants``, run by CI -- every mutant is caught by its
selection."""

import pytest

from .mutants import MUTANTS, ROOT, run


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_old_text_appears_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


def test_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.mutants
@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_the_mutant_is_caught(mutant):
    outcome = run(mutant)
    assert outcome.caught, outcome.report
