"""Simulator throughput microbenchmarks (regression guards).

Unlike the figure benchmarks, these time the substrate itself:
instructions per second through the emulator, the deadness analysis,
and the timing model.  They exist so performance regressions in the
hot loops show up in `pytest benchmarks/ --benchmark-only`.

``test_perf_kernels_sweep`` additionally writes ``BENCH_kernels.json``
at the repo root: cold/hot kernel timings plus the legacy-vs-fused
analysis/sweep comparison (see ``docs/kernels.md`` for the layer this
measures).
"""

import json
import os
import time

import pytest

from repro import kernels
from repro.analysis import analyze_deadness
from repro.pipeline import default_config, simulate
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def traced():
    workload = get_workload("pchase")
    _, trace = workload.run(scale=0.5)
    return workload, trace, analyze_deadness(trace)


def test_perf_emulator(benchmark):
    workload = get_workload("pchase")
    program = workload.compile(scale=0.5)

    def run():
        from repro.emulator import run_program

        machine, trace = run_program(program)
        return len(trace)

    dynamic = benchmark.pedantic(run, rounds=3, iterations=1)
    assert dynamic > 10_000


def test_perf_deadness_analysis(benchmark, traced):
    _, trace, _ = traced

    def run():
        return analyze_deadness(trace).n_dead

    dead = benchmark.pedantic(run, rounds=3, iterations=1)
    assert dead > 0


def test_perf_timing_simulator(benchmark, traced):
    _, trace, analysis = traced

    def run():
        return simulate(trace, default_config(), analysis).stats.cycles

    cycles = benchmark.pedantic(run, rounds=3, iterations=1)
    assert cycles > 0


def test_perf_elimination_simulator(benchmark, traced):
    _, trace, analysis = traced

    def run():
        return simulate(trace, default_config(eliminate=True),
                        analysis).stats.eliminated

    eliminated = benchmark.pedantic(run, rounds=3, iterations=1)
    assert eliminated > 0


# ---------------------------------------------------------------------
# Kernel layer: fused pass + sweep executor vs the legacy structure
# ---------------------------------------------------------------------

#: sweep points sharing one trace (F6 evaluates six predictor designs)
SWEEP_POINTS = 6


def _best_of(fn, rounds=3):
    best = None
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return best


def _time_kernels(trace, analysis):
    """Cold/hot kernel timings plus the legacy-vs-fused comparison
    over one labelled trace.

    *legacy* reproduces the pre-kernel structure: every analysis
    consumer re-derives the static-index column and makes its own
    walk (deadness, kill distance, per-static counts), and every
    sweep point re-extracts its event stream from the full trace.
    *fused* is the kernel-layer structure: decode once, one fused
    backward pass, one shared prediction stream for all sweep points.
    """
    dead = analysis.dead

    def decode():
        return kernels.DecodedTrace(trace, analysis.statics,
                                    kernels.static_indices(trace))

    decoded = decode()

    def cold():
        fresh = decode()
        kernels.fused(fresh)
        kernels.prediction_stream(fresh, dead)

    def hot():
        kernels.fused(decoded)
        kernels.prediction_stream(decoded, dead)

    def legacy():
        kernels.deadness(decode())
        kernels.kill_distances(decode(), dead)
        kernels.static_counts(decode(), dead)
        for _point in range(SWEEP_POINTS):
            kernels.prediction_stream(decode(), dead)

    def fused():
        fresh = decode()
        kernels.fused(fresh)
        kernels.prediction_stream(fresh, dead)

    legacy_s = _best_of(legacy)
    fused_s = _best_of(fused)
    return {
        "cold_s": round(_best_of(cold), 6),
        "hot_s": round(_best_of(hot), 6),
        "legacy_sweep_s": round(legacy_s, 6),
        "fused_sweep_s": round(fused_s, 6),
        "speedup": round(legacy_s / fused_s, 3),
    }


def test_perf_kernels_sweep(benchmark, traced):
    _, trace, analysis = traced
    doc = {
        "workload": trace.program.name,
        "dynamic": len(trace),
        "sweep_points": SWEEP_POINTS,
    }
    doc.update(_time_kernels(trace, analysis))

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCH_kernels.json"), "w") as stream:
        json.dump(doc, stream, indent=2, sort_keys=True)
        stream.write("\n")

    decoded = kernels.decode(trace)

    def run():
        fused = kernels.fused(decoded)
        stream = kernels.prediction_stream(decoded, analysis.dead)
        return fused.deadness.n_dead + stream.n_events

    total = benchmark.pedantic(run, rounds=3, iterations=1)
    assert total > 0
    assert doc["speedup"] >= 2.0, \
        "fused+sweep path under 2x: %r" % (doc,)
