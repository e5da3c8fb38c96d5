"""Golden differential test of the Mini-C compiler.

``tests/data/compile_golden.json`` (written by
``scripts/compile_golden.py`` before the compiler's front half and
scheduler were last rewritten) records the sha256 of the assembly
``compile_source`` emits for 140 (program, options) pairs: the suite
under the F3/A4/A5 option sets plus ``hoist_loads``, and 40 seeded
``gen:`` programs under ``-O2`` and ``max_hoist=8, hoist_loads=True``.
The assembly carries ``@sched`` provenance, so every hoist decision is
pinned.  ``scripts/compile_golden.py --check`` prints the first
mismatch as an assembly diff.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "scripts"))
import compile_golden  # noqa: E402
from repro.workloads import workload_names  # noqa: E402


def test_fixture_covers_the_corpus():
    golden = compile_golden.load()
    pairs = [(entry["program"], entry["options"])
             for entry in golden["entries"]]
    assert pairs == compile_golden.cases()
    assert len(pairs) == 140
    assert golden["option_sets"] == compile_golden.OPTION_SETS


def test_fixture_distinguishes_hoist_decisions():
    """Scheduling changes every suite program's assembly, so a digest
    pins the scheduler's decisions and not just the front end's."""
    digests = {(entry["program"], entry["options"]): entry["sha256"]
               for entry in compile_golden.load()["entries"]}
    for program in workload_names():
        assert digests[program, "O2"] != digests[program, "O0"], program


def test_a_changed_digest_is_reported():
    golden = compile_golden.load()
    entry = dict(golden["entries"][0], sha256="0" * 64)
    tampered = dict(golden, entries=[entry])
    assert compile_golden.mismatches(tampered) == [
        (entry["program"], entry["options"])]


def test_compiled_programs_match_golden():
    differing = compile_golden.mismatches(compile_golden.load())
    assert not differing, (
        "%d compiled programs differ from the golden, first %r; run "
        "`PYTHONPATH=src python scripts/compile_golden.py --check` for "
        "an assembly diff" % (len(differing), differing[0]))
