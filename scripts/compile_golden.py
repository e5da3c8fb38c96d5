#!/usr/bin/env python
"""Write or check the compiler golden fixture (``tests/data/compile_golden.json``).

The fixture pins the Mini-C compiler's complete output: the sha256 of
the assembly text ``compile_source`` emits, whose ``@sched`` /
``@callee-save`` provenance annotations record every hoist decision.
A rewrite of the lexer, parser, liveness or scheduler must reproduce
every digest (``tests/test_compile_golden.py``).

* Curated suite (scale 1.0) under each option set the F3, A4 and A5
  experiments compile with (``-O0``; ``max_hoist`` 2, 4 and 8;
  ``scalar_opt``) plus ``hoist_loads``.
* 40 seeded ``gen:`` programs of 40 to 100 statements, whose knobs
  vary with the seed, under the default ``-O2`` and under
  ``max_hoist=8, hoist_loads=True``.

Write the fixture only from a commit whose compiler is known good (the
point of the fixture is to be written *before* the compiler changes),
and never regenerate it to make a compiler change pass::

    PYTHONPATH=src python scripts/compile_golden.py          # write
    PYTHONPATH=src python scripts/compile_golden.py --check  # verify

``--check`` names the first differing (program, options) pair and
prints a unified diff against the assembly that the compiler of the
commit that last wrote the fixture emits (extracted with
``git archive``).
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

from repro.lang import CompilerOptions, compile_source
from repro.workloads import get_workload, workload_names

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
FIXTURE = os.path.join(ROOT, "tests", "data", "compile_golden.json")
SCALE = 1.0

#: option-set name -> CompilerOptions keyword arguments
OPTION_SETS = {
    "O0": {"opt_level": 0},
    "O2-h2": {"max_hoist": 2},
    "O2": {},
    "O2-h8": {"max_hoist": 8},
    "O2-scalar": {"scalar_opt": True},
    "O2-loads": {"hoist_loads": True},
    "O2-h8-loads": {"max_hoist": 8, "hoist_loads": True},
}
SUITE_OPTIONS = ("O0", "O2-h2", "O2", "O2-h8", "O2-scalar", "O2-loads")
GENERATED_OPTIONS = ("O2", "O2-h8-loads")


def generated_names():
    """The 40 ``gen:`` programs: sizes n40..n100, knobs varying with
    the seed."""
    return ["gen:s%d:n%d:b%d:d%d:p%d"
            % (seed, (40, 55, 70, 85, 100)[seed % 5],
               (20, 40, 60, 40)[seed % 4], 10 + 20 * (seed % 3),
               (50, 85, 100)[seed % 3])
            for seed in range(1, 41)]


def cases():
    """Every (program, option-set name) pair the fixture pins."""
    pairs = [(name, options) for name in workload_names()
             for options in SUITE_OPTIONS]
    pairs += [(name, options) for name in generated_names()
              for options in GENERATED_OPTIONS]
    return pairs


def source_of(program: str) -> str:
    return get_workload(program).source(SCALE)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build() -> dict:
    entries = []
    sources = {}
    for program, options in cases():
        if program not in sources:
            sources[program] = source_of(program)
        text = compile_source(sources[program],
                              CompilerOptions(**OPTION_SETS[options]))
        entries.append({"program": program, "options": options,
                        "sha256": digest(text)})
    return {"scale": SCALE, "option_sets": OPTION_SETS, "entries": entries}


def load() -> dict:
    with open(FIXTURE) as stream:
        return json.load(stream)


def mismatches(golden: dict, stop_at_first: bool = False):
    """``(program, options)`` pairs whose digest differs from *golden*."""
    differing = []
    sources = {}
    for entry in golden["entries"]:
        program = entry["program"]
        if program not in sources:
            sources[program] = get_workload(program).source(golden["scale"])
        options = CompilerOptions(**golden["option_sets"][entry["options"]])
        if digest(compile_source(sources[program], options)) \
                != entry["sha256"]:
            differing.append((program, entry["options"]))
            if stop_at_first:
                break
    return differing


def _fixture_commit() -> str:
    """The commit that last wrote the fixture (``HEAD`` if none)."""
    result = subprocess.run(
        ["git", "-C", ROOT, "log", "-1", "--format=%H", "--",
         os.path.relpath(FIXTURE, ROOT)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return result.stdout.strip() or "HEAD"


def reference_assembly(revision: str, source: str, options: dict) -> str:
    """Compile *source* with the compiler of git *revision*."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", revision, "src"],
        stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory() as tree:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree)
        code = ("import json, sys\n"
                "from repro.lang import CompilerOptions, compile_source\n"
                "sys.stdout.write(compile_source(sys.stdin.read(), "
                "CompilerOptions(**json.loads(sys.argv[1]))))\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        result = subprocess.run(
            [sys.executable, "-c", code, json.dumps(options)],
            input=source, stdout=subprocess.PIPE, check=True, text=True,
            env=env)
    return result.stdout


def check(revision: str) -> int:
    golden = load()
    differing = mismatches(golden, stop_at_first=True)
    if not differing:
        print("all %d compiled programs match %s"
              % (len(golden["entries"]), os.path.relpath(FIXTURE)))
        return 0
    program, options = differing[0]
    keywords = golden["option_sets"][options]
    print("first mismatch: %s under %s %s"
          % (program, options, json.dumps(keywords, sort_keys=True)))
    source = get_workload(program).source(golden["scale"])
    current = compile_source(source, CompilerOptions(**keywords))
    try:
        expected = reference_assembly(revision, source, keywords)
    except (OSError, subprocess.CalledProcessError) as error:
        print("cannot build the reference compiler at %s: %s"
              % (revision, error))
        return 1
    if digest(expected) != next(
            entry["sha256"] for entry in golden["entries"]
            if (entry["program"], entry["options"]) == differing[0]):
        print("warning: the compiler at %s does not reproduce the "
              "fixture either" % revision)
    sys.stdout.writelines(difflib.unified_diff(
        expected.splitlines(True), current.splitlines(True),
        fromfile="%s (%s)" % (program, revision[:12]),
        tofile="%s (working tree)" % program))
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="verify the fixture instead of writing it")
    parser.add_argument("--out", default=FIXTURE)
    args = parser.parse_args(argv)
    if args.check:
        return check(_fixture_commit())
    doc = build()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as stream:
        # One entry per line keeps the file diffable and compact.
        stream.write("{\n")
        for key in ("scale", "option_sets"):
            stream.write("%s: %s,\n" % (json.dumps(key),
                                        json.dumps(doc[key],
                                                   sort_keys=True)))
        stream.write('"entries": [\n')
        stream.write(",\n".join(json.dumps(entry, sort_keys=True)
                                for entry in doc["entries"]))
        stream.write("\n]\n}\n")
    print("wrote %d digests to %s" % (len(doc["entries"]), args.out),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
