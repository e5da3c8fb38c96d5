"""Golden differential test of the cycle-level core.

``tests/data/pipeline_golden.json`` (written by
``scripts/pipeline_golden.py`` before the core's last rewrite) records
every ``PipelineStats`` counter and the L1/L2 miss counts of 540 runs:
the suite at scale 0.2 and 20 generated programs, on nine machines,
each with elimination off and on, plus the whole timeline of two
telemetry-on runs.  Every entry must reproduce exactly under both
front-end modes: the tests follow ``REPRO_FRONTEND`` like every other
simulation, so the default run checks the block front end and::

    REPRO_FRONTEND=scalar python -m pytest -q tests/test_pipeline_*.py

(a CI step) checks the scalar reference.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict

import pytest

from repro import obs
from repro.analysis import analyze_deadness
from repro.pipeline import simulate
from repro.workloads import get_workload

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "scripts"))
import pipeline_golden  # noqa: E402

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "pipeline_golden.json")


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as stream:
        return json.load(stream)


@pytest.fixture(scope="module")
def traces(golden):
    """Workload name -> (trace, analysis), built once for both modes."""
    cache = {}

    def get(name):
        if name not in cache:
            _machine, trace = get_workload(name).run(scale=golden["scale"])
            cache[name] = (trace, analyze_deadness(trace))
        return cache[name]

    return get


def test_runs_match_golden(golden, traces):
    by_workload = defaultdict(list)
    for run in golden["runs"]:
        by_workload[run["workload"]].append(run)
    assert len(golden["runs"]) == 540
    mismatches = []
    for name, runs in by_workload.items():
        trace, analysis = traces(name)
        for run in runs:
            config = pipeline_golden.machine_config(run["preset"],
                                                    run["overrides"])
            result = simulate(trace, config, analysis)
            got = pipeline_golden.record(result)
            if got != run["values"]:
                diff = {field: (want, have) for field, want, have
                        in zip(golden["fields"], run["values"], got)
                        if want != have}
                mismatches.append((name, run["preset"], run["overrides"],
                                   diff))
    assert not mismatches, mismatches[:5]


def test_timelines_match_golden(golden, traces):
    obs.configure_obs(obs.ObsConfig(**golden["obs"]))
    try:
        for entry in golden["timelines"]:
            trace, analysis = traces(entry["workload"])
            config = pipeline_golden.machine_config(entry["preset"],
                                                    entry["overrides"])
            result = simulate(trace, config, analysis)
            assert result.timeline == entry["timeline"], entry["workload"]
    finally:
        obs.reset_obs()
