"""The table of kept mutants parses, and each one still names a line of the code; no mutant is run here."""

from __future__ import annotations

import pytest

from mutants import KINDS, MUTANTS, ROOT, Mutant


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_names_one_text_of_its_file(mutant: Mutant) -> None:
    # tests/mutants.py exits 1 on a missing or repeated old text, so a
    # refactor that moves a mutated line must update the table with it.
    assert mutant.kind in KINDS
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert (ROOT / mutant.test).is_file()
