"""Block vs scalar front end: cycle-exact equivalence.

The simulator's default ``block`` front end consumes pre-decoded
column blocks from the kernel layer (fetch-window arithmetic plus a
sparse control-flow walk) instead of per-instruction Python dispatch.
The ``scalar`` mode is the retained reference path.  These tests pin
the contract from docs/kernels.md: the two modes produce *identical*
results — same cycles, same stats, same timelines — on every config
shape the pipeline supports.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis import analyze_deadness
from repro.pipeline import default_config, simulate
from repro.workloads import get_workload

CONFIGS = (
    ("default", {}),
    ("eliminate", {"eliminate": True}),
    ("eliminate-no-stores", {"eliminate": True,
                             "eliminate_stores": False}),
    ("narrow", {"fetch_width": 2, "rename_width": 2, "issue_width": 2,
                "commit_width": 2, "rob_size": 32, "iq_size": 12,
                "lsq_size": 8}),
    ("eliminate-flush", {"eliminate": True,
                         "recovery_mode": "flush"}),
)


@pytest.fixture(scope="module")
def traced():
    _machine, trace = get_workload("sort").run(scale=0.3)
    return trace, analyze_deadness(trace)


def _doc(result):
    stats = result.stats
    return (stats.cycles, stats.committed, stats.branches,
            stats.branch_mispredicts, pickle.dumps(stats),
            pickle.dumps(result.timeline))


@pytest.mark.parametrize("label,overrides",
                         CONFIGS, ids=[c[0] for c in CONFIGS])
def test_block_matches_scalar(label, overrides, traced):
    trace, analysis = traced
    config = default_config(**overrides)
    scalar = simulate(trace, config, analysis, frontend="scalar")
    block = simulate(trace, config, analysis, frontend="block")
    assert _doc(scalar) == _doc(block)


def test_frontend_env_and_validation(traced, monkeypatch):
    trace, analysis = traced
    config = default_config()
    monkeypatch.setenv("REPRO_FRONTEND", "scalar")
    scalar = simulate(trace, config, analysis)
    monkeypatch.setenv("REPRO_FRONTEND", "block")
    block = simulate(trace, config, analysis)
    assert _doc(scalar) == _doc(block)
    with pytest.raises(ValueError):
        simulate(trace, config, analysis, frontend="vliw")
