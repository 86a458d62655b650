"""The table of kept mutants parses, and each one still names a line of the code; no mutant is run to its end here."""

from __future__ import annotations

import pytest

import mutants
from mutants import KINDS, MUTANTS, ROOT, Mutant


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_names_one_text_of_its_file(mutant: Mutant) -> None:
    # tests/mutants.py exits 1 on a missing or repeated old text, so a
    # refactor that moves a mutated line must update the table with it.
    assert mutant.kind in KINDS
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert (ROOT / mutant.test).is_file()


def test_a_run_past_the_timeout_is_stopped_and_fails_the_script(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    # No test file finishes in 10 ms, so the unmutated run and the mutant's run are both stopped.
    mutant = MUTANTS[0]
    monkeypatch.setattr(mutants, "TIMEOUT_S", 0.01)
    monkeypatch.setattr(mutants, "MUTANTS", (mutant,))
    assert mutants.main() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"BROKEN     {mutant.test} timed out unmutated after 0.01 s"
    assert out[1].startswith(f"FAIL       {mutant.name}: timed out in ")
