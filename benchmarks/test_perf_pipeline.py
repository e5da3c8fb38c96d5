"""Pipeline + kernel hot-path benchmarks (``BENCH_pipeline.json``).

Where ``test_perf_simulators.py`` guards the legacy-vs-fused analysis
structure, this file characterizes the per-pass kernel timings behind
the block front end: a cold and a hot per-pass table (the
``kernel:<pass>`` spans — fused, prediction stream, front-end columns,
static-index decode), the fused pass plus the pipeline front-end pass
over one decoded table (``hot_path_s``), and the simulator wall time
(``simulate_s``).

Run with ``pytest benchmarks/``; ``BENCH_pipeline.json`` is rewritten
at the repo root, next to ``BENCH_kernels.json``.  See
``docs/benchmarks.md`` for the trajectory format.
"""

import json
import os
import statistics
import time

import pytest

from repro import kernels
from repro.analysis import analyze_deadness
from repro.pipeline import default_config, simulate
from repro.pipeline.core import _classify_fu
from repro.workloads import get_workload

#: timed reruns per measurement; the median filters scheduler noise
ROUNDS = 5
#: untimed runs before measuring, so allocator pools and branch
#: predictors are warm for round one
WARMUP = 2


@pytest.fixture(scope="module")
def traced():
    workload = get_workload("pchase")
    _, trace = workload.run(scale=0.5)
    return workload, trace, analyze_deadness(trace)


def _median_of(fn, rounds=ROUNDS, warmup=WARMUP):
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _pass_table(trace, analysis, fu, hot):
    """One per-pass ``kernel:<pass>`` timing table: run every pass
    once and harvest :func:`kernels.pass_totals`.  *hot* reuses one
    decoded table after a warm-up run; cold decodes fresh."""
    dead = analysis.dead

    def passes(decoded):
        kernels.fused(decoded)
        kernels.prediction_stream(decoded, dead)
        kernels.frontend(decoded, fu)

    if hot:
        decoded = kernels.decode(trace, analysis.statics)
        passes(decoded)
        kernels.reset_pass_totals()
        kernels.static_indices(trace)
        passes(decoded)
    else:
        kernels.reset_pass_totals()
        kernels.static_indices(trace)
        passes(kernels.DecodedTrace(trace, analysis.statics,
                                    kernels.static_indices(trace)))
    totals = kernels.pass_totals()
    kernels.reset_pass_totals()
    return {name: {"calls": bucket["calls"],
                   "items": bucket["items"],
                   "seconds": round(bucket["seconds"], 6)}
            for name, bucket in sorted(totals.items())}


def _hot_path_seconds(trace, analysis, fu):
    """The fused backward pass plus the pipeline front-end pass over
    one decoded table."""
    decoded = kernels.decode(trace, analysis.statics)

    def run():
        kernels.fused(decoded)
        kernels.frontend(decoded, fu)

    return _median_of(run)


def test_perf_pipeline_passes(benchmark, traced):
    _, trace, analysis = traced
    fu = _classify_fu(analysis.statics)
    config = default_config()

    doc = {
        "workload": trace.program.name,
        "dynamic": len(trace),
        "cold_passes": _pass_table(trace, analysis, fu, hot=False),
        "hot_passes": _pass_table(trace, analysis, fu, hot=True),
        "hot_path_s": round(_hot_path_seconds(trace, analysis, fu), 6),
        "simulate_s": round(_median_of(
            lambda: simulate(trace, config, analysis),
            rounds=3, warmup=1), 6),
    }

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_pipeline.json"), "w") as stream:
        json.dump(doc, stream, indent=2, sort_keys=True)
        stream.write("\n")

    def run():
        return simulate(trace, config, analysis).stats.cycles

    cycles = benchmark.pedantic(run, rounds=3, iterations=1)
    assert cycles > 0
