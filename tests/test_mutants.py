"""The mutant table (tests/mutants.py): its texts still match the tree,
every static rule has a verdict, and -- marked ``mutants``, run by CI --
every mutant is caught by its selection."""

import pytest

from repro.staticcheck import all_rules

from .mutants import MUTANTS, ROOT, run

#: conventions no runtime check enforces: kept without a mutant
CONVENTIONS = {"no-wallclock", "seeded-rng-only"}

#: rules retired because a test kills the defect each one guarded
RETIRED = {"lease-guard", "sanitizer-hook", "sim-process-yields",
           "window-epoch"}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_old_text_appears_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


def test_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(ids) == len(set(ids))


def test_every_rule_has_a_verdict():
    kept = {rule.name for rule in all_rules()}
    rule_only = {m.rule for m in MUTANTS if m.kind == "rule-only"}
    killed = {m.rule for m in MUTANTS if m.kind == "killed" and m.rule}
    assert {m.kind for m in MUTANTS} <= {"killed", "rule-only"}
    assert rule_only == kept - CONVENTIONS
    assert RETIRED <= killed and not RETIRED & kept


@pytest.mark.mutants
@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.id)
def test_the_mutant_is_caught(mutant):
    outcome = run(mutant)
    assert outcome.caught, outcome.report
