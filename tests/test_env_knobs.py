"""Every ``REPRO_*`` environment variable the package reads is
documented, and every documented one is still read.

The code side is the set of ``"REPRO_..."`` string literals under
``src/repro``; the documented side is every ``REPRO_...`` name in
``docs/harness.md`` and ``docs/observability.md``.
"""

from __future__ import annotations

import glob
import os
import re

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _names(pattern: str, paths) -> set:
    names = set()
    for path in paths:
        with open(path, encoding="utf-8") as stream:
            names.update(re.findall(pattern, stream.read()))
    return names


def test_env_knobs_match_the_docs():
    source = _names(r"[\"'](REPRO_[A-Z_]+)[\"']", glob.glob(
        os.path.join(ROOT, "src", "repro", "**", "*.py"), recursive=True))
    documented = _names(r"REPRO_[A-Z_]+", [
        os.path.join(ROOT, "docs", name)
        for name in ("harness.md", "observability.md")])
    assert source, "no REPRO_* literals found under src/repro"
    assert source - documented == set(), "read but undocumented"
    assert documented - source == set(), "documented but never read"
