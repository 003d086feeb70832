"""A catalogue of seeded mutants, each with the tests that must kill it.

    python3 scripts/mutants.py

Runs from the root of a checkout.  It copies `src/` and `tests/` to a
temporary directory once, then applies one mutant at a time to the copy:
a mutant replaces one exact text, which must occur exactly once in its
file, and then its tests run under pytest in a subprocess.  A mutant is
killed when a named test fails, and survives when they all pass; any
other pytest outcome (a collection error, no test run) is an error.
Before the first mutant, every named test must pass on the unmutated
copy.  The checkout itself is never written.  Prints one line per
mutant and exits 0 when every mutant was killed, 1 when one survived,
2 on an error.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FGA = "src/homlab/fga.py"
LOGIC = "src/homlab/logic.py"

# (name, file, exact text, replacement, test ids that must fail)
MUTANTS = (
    ("sort keyed by its moduli alone", LOGIC,
     "key = st.moduli[s], tuple(st.negation[s]), sums",
     "key = st.moduli[s]",
     ["tests/test_logic.py::test_edited_sort_is_not_merged_with_an_equal_one"]),
    ("symbol keyed without its image positions", LOGIC,
     "ids.setdefault((sort(src), sort(tgt), images), len(ids))",
     "ids.setdefault((sort(src), sort(tgt)), len(ids))",
     ["tests/test_logic.py::"
      "test_shapes_keep_variable_names_context_order_and_images",
      "tests/test_logic.py::test_compiled_evaluator_matches_reference"]),
    ("context variables keyed without their names", LOGIC,
     "return (tuple((v, sort(s)) for v, s in seq.context),",
     "return (tuple(sort(s) for v, s in seq.context),",
     ["tests/test_logic.py::"
      "test_shapes_keep_variable_names_context_order_and_images"]),
    ("row value indexes shared across calls", LOGIC,
     "indexes, bits = [None] * len(table), self.bits",
     "indexes, bits = globals().setdefault('_shared', {}).setdefault("
     "id(table), [None] * len(table)), self.bits",
     ["tests/test_logic.py::test_table_edits_between_calls_are_seen"]),
    ("exists stops at its first hit", LOGIC,
     "if hit == every:",
     "if hit != settled:",
     ["tests/test_logic.py::test_vector_path_matches_reference",
      "tests/test_logic.py::test_routes_agree_mod_three"]),
    ("scalar plus row translated by the other operand's sum row", LOGIC,
     "pad = pads[k] = _pad(sums[k])",
     "pad = pads[k] = _pad(sums[b(env)[0]])",
     ["tests/test_logic.py::test_vector_path_matches_reference",
      "tests/test_logic.py::test_byte_vectors_at_the_cut_off"]),
    ("byte vectors past 256 elements", LOGIC,
     "return bytes if size <= BYTE_CARRIER else list",
     "return bytes if size <= BYTE_CARRIER + 1 else list",
     ["tests/test_logic.py::test_byte_vectors_at_the_cut_off"]),
    ("sign of ic in alpha flipped", LOGIC,
     'return [[(1, f"{q.ia}@{k}")], [(-1, f"{q.ic}@{k}")]]',
     'return [[(1, f"{q.ia}@{k}")], [(1, f"{q.ic}@{k}")]]',
     ["tests/test_logic.py::test_semantic_failure_details",
      "tests/test_logic.py::"
      "test_segment_sequents_hold_where_the_hand_written_ones_do",
      "tests/test_cli.py::test_flavors_expand_the_axiom_set"]),
    ("segment check one step off", LOGIC,
     "check, i = _PART_CHECKS[family, which]",
     "check, i = _PART_CHECKS[family, which][0], "
     "_PART_CHECKS[family, which][1] - 1",
     ["tests/test_logic.py::test_semantic_validation_passes",
      "tests/test_logic.py::test_square_axioms_both_routes",
      "tests/test_logic.py::test_semantic_failure_details"]),
    ("symbol chain composed outermost first", LOGIC,
     "return reduce(GroupHom.__matmul__, homs)",
     "return reduce(GroupHom.__matmul__, reversed(homs))",
     ["tests/test_logic.py::test_composition_detected_on_prisms",
      "tests/test_logic.py::test_semantic_failure_details"]),
    ("Hermite step without its U update", FGA,
     "\n                _axpy(u, PU, e // p)", "",
     ["tests/test_fga.py::test_smith_output_pinned",
      "tests/test_fga.py::test_smith_matches_dense_reference"]),
)


def pytest_status(copy: Path, tests: list) -> int:
    """pytest's exit code for the tests, run on the copy."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests],
        cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src"),
                       "PYTHONDONTWRITEBYTECODE": "1"},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        tests = sorted({t for m in MUTANTS for t in m[4]})
        if pytest_status(copy, tests) != 0:
            print("the named tests do not pass unmutated", file=sys.stderr)
            return 2
        survived = False
        for name, path, text, replacement, kills in MUTANTS:
            source = (copy / path).read_text()
            if source.count(text) != 1:
                print(f"{name}: text not found once in {path}", file=sys.stderr)
                return 2
            (copy / path).write_text(source.replace(text, replacement))
            code = pytest_status(copy, kills)
            (copy / path).write_text(source)
            if code not in (0, 1):
                print(f"{name}: pytest exited {code}", file=sys.stderr)
                return 2
            print(f"{'killed' if code else 'survived'}: {name}", flush=True)
            survived = survived or code == 0
        return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
