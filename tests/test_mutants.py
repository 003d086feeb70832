"""scripts/mutants.py: every catalogued mutant still applies."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_text_occurs_once_and_names_existing_tests():
    mutants = _mutants()
    assert len({m[0] for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for name, path, text, replacement, kills in mutants.MUTANTS:
        assert (ROOT / path).read_text().count(text) == 1, name
        assert text != replacement and kills, name
        for test_id in kills:
            file, func = test_id.split("::")
            assert f"\ndef {func}(" in (ROOT / file).read_text(), test_id
