from pathlib import Path

import pytest

import mutants

SRC = Path(__file__).parents[1] / "src" / "percolator"


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda m: m.name)
def test_every_mutant_applies_once(mutant):
    """Each snippet of the mutation catalogue occurs exactly once in its
    file, so a refactor that moves one fails here and updates the mutant,
    and the mutated file still compiles."""
    source = (SRC / mutant.file).read_text()
    for snippet, _ in mutant.edits:
        assert source.count(snippet) == 1, snippet
    changed = mutants.mutated(mutant, source)
    assert changed != source
    compile(changed, mutant.file, "exec")
