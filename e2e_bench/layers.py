"""Per-layer attribution for one benchmark repetition, measured from outside.

The benchmark adds no spans or counters to ``src/``.  Instead, a traced
repetition wraps the public per-call entry points of each ``repro``
package (never a per-event or per-cycle method) and reads the counters
the program already keeps: ``kernels.pass_totals()`` for the kernel
passes and ``Engine.stats`` for stage hits and misses.

Every wrapped call keeps a frame on a stack.  On exit the call's *self*
time is its duration minus the time of wrapped calls nested inside it,
minus the kernel-pass seconds recorded inside it but outside those
nested calls.  Kernel passes are reported as their own rows, so for the
repetition::

    sum(layer self times) + sum(kernel pass seconds) + harness.self_s
        == traced wall_s

holds by construction.  Work done in pool worker processes is not seen
by the wrappers in the parent; it shows up as the parent's time blocked
in the engine's dispatch calls, ``harness.dispatch_wait_s``.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Optional

#: Layer row -> the entry point it is measured at, ``moves``: {workload:
#: end-to-end metric the row should move there}, and ``no_effect``: the
#: workloads whose timed run it should not touch.  The smoke test
#: requires at least one call on every ``moves`` workload, so a moved
#: import site cannot silently zero a layer, and no call on a
#: ``no_effect`` one.  ``"predict-hot:setup"`` means the calls happen in
#: that workload's cache-filling set-up.
LAYERS: Dict[str, Dict[str, object]] = {
    "lang.compile": {
        "entry": "repro.lang.compiler.compile_source",
        "moves": {"corpus-cold": "wall_s"},
        "no_effect": {"predict-hot": "wall_s"},
    },
    "emulator.run": {
        "entry": "repro.emulator.machine.Machine.run",
        "moves": {"corpus-cold": "wall_s", "predict-hot:setup": "setup_s"},
    },
    "analysis.deadness": {
        "entry": "repro.analysis.liveness.analyze_deadness",
        "moves": {"corpus-cold": "wall_s", "predict-hot:setup": "setup_s"},
    },
    "kernels.decode": {
        "entry": "kernels.pass_totals()['decode']",
        "moves": {"corpus-cold": "wall_s"},
    },
    "kernels.fused": {
        "entry": "kernels.pass_totals()['fused']",
        "moves": {"corpus-cold": "wall_s"},
    },
    "kernels.frontend": {
        "entry": "kernels.pass_totals()['frontend']",
        "moves": {"timing-cold": "wall_s"},
    },
    "kernels.prediction_stream": {
        "entry": "kernels.pass_totals()['prediction-stream']",
        "moves": {"predict-hot": "wall_s"},
    },
    "predictors.evaluate": {
        "entry": "repro.predictors.dead.evaluate.evaluate_predictor",
        "moves": {"predict-hot": "wall_s"},
        "no_effect": {"timing-cold": "wall_s"},
    },
    "predictors.paths": {
        "entry": "repro.predictors.dead.paths.compute_paths",
        "moves": {"timing-cold": "wall_s", "predict-hot:setup": "setup_s"},
    },
    "pipeline.setup": {
        "entry": "repro.pipeline.core.Simulator.__init__",
        "moves": {"timing-cold": "wall_s, peak_rss_mb"},
        "no_effect": {"predict-hot": "wall_s"},
    },
    "pipeline.loop": {
        "entry": "repro.pipeline.core.Simulator.run",
        "moves": {"timing-cold": "wall_s"},
        "no_effect": {"predict-hot": "wall_s"},
    },
    "harness.cache_load": {
        "entry": "repro.harness.cachedir.CacheDir.load",
        "moves": {"corpus-cold": "wall_s, cache_mb",
                  "timing-cold": "wall_s, cache_mb",
                  "predict-hot": "wall_s"},
    },
    "harness.cache_store": {
        "entry": "repro.harness.cachedir.CacheDir.store",
        "moves": {"corpus-cold": "wall_s, cache_mb",
                  "timing-cold": "wall_s, cache_mb"},
    },
    "harness.plane_attach": {
        "entry": "repro.harness.artifacts.ArtifactPlane.attach"
                 " (+attach_handle)",
        "moves": {"corpus-cold": "wall_s, cache_mb",
                  "timing-cold": "wall_s, cache_mb",
                  "predict-hot": "wall_s"},
    },
    "harness.plane_store": {
        "entry": "repro.harness.artifacts.ArtifactPlane.store",
        "moves": {"corpus-cold": "wall_s, cache_mb",
                  "timing-cold": "wall_s, cache_mb"},
    },
    "harness.dispatch": {
        "entry": "repro.harness.engine.Engine.run_cells"
                 " (+prefetch_simulations)",
        "moves": {"corpus-cold": "wall_s"},
    },
}

#: kernel pass name (as ``pass_totals`` keys it) -> metric stem
KERNEL_PASSES = {"decode": "decode", "fused": "fused",
                 "prediction-stream": "prediction_stream",
                 "frontend": "frontend"}

STAGES = ("compile", "trace", "analysis", "paths", "timing")


def kernel_seconds(totals: Dict[str, Dict[str, float]]) -> float:
    return sum(bucket["seconds"] for bucket in totals.values())


class Recorder:
    """Wraps the layers' entry points and accumulates self time, calls
    and work counts per layer row."""

    def __init__(self):
        from repro import kernels

        self._pass_totals = kernels.pass_totals
        #: open wrapped calls: [nested wall seconds, nested kernel seconds]
        self._stack: List[List[float]] = []
        self.rows: Dict[str, Dict[str, float]] = {
            layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS
            if not layer.startswith("kernels.")}
        self.counts: Dict[str, float] = {
            "emulator.insts": 0, "analysis.insts": 0,
            "predictors.events": 0, "pipeline.committed": 0,
            "pipeline.cycles": 0, "harness.cells": 0,
            "harness.dispatches": 0}

    def _kernel_now(self) -> float:
        return kernel_seconds(self._pass_totals())

    def wrap(self, layer: str, function: Callable,
             count: Optional[Callable] = None) -> Callable:
        row = self.rows[layer]
        stack = self._stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            kernel_start = self._kernel_now()
            frame = [0.0, 0.0]
            stack.append(frame)
            try:
                result = function(*args, **kwargs)
            finally:
                stack.pop()
                duration = time.perf_counter() - started
                kernel = self._kernel_now() - kernel_start
                row["calls"] += 1
                row["self_s"] += duration - frame[0] - (kernel - frame[1])
                if stack:
                    stack[-1][0] += duration
                    stack[-1][1] += kernel
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`.  Functions are
        rebound wherever a ``repro`` module imported them by name;
        methods are replaced on their class."""
        from repro import kernels
        from repro.analysis import liveness
        from repro.emulator.machine import Machine
        from repro.harness.artifacts import ArtifactPlane
        from repro.harness.cachedir import CacheDir
        from repro.harness.engine import Engine
        from repro.lang import compiler
        from repro.pipeline.core import Simulator
        from repro.predictors.dead import evaluate, paths

        def add(counts, key, value):
            counts[key] += value

        def count_evaluate(counts, result, args, kwargs):
            stream = kwargs.get("stream")
            if stream is None:
                stream = (args[5] if len(args) > 5 else
                          kernels.prediction_stream_for(args[0]))
            add(counts, "predictors.events", stream.n_events)

        def count_dispatch(counts, result, args, kwargs):
            add(counts, "harness.cells", len(args[1]))
            add(counts, "harness.dispatches", 1)

        def count_loop(counts, result, args, kwargs):
            add(counts, "pipeline.committed", result.stats.committed)
            add(counts, "pipeline.cycles", result.stats.cycles)

        functions = [
            ("lang.compile", compiler.compile_source, None),
            ("analysis.deadness", liveness.analyze_deadness,
             lambda c, r, a, k: add(c, "analysis.insts", r.n_dynamic)),
            ("predictors.evaluate", evaluate.evaluate_predictor,
             count_evaluate),
            ("predictors.paths", paths.compute_paths, None),
        ]
        for layer, function, count in functions:
            _rebind(function, self.wrap(layer, function, count))
        methods = [
            ("emulator.run", Machine, "run",
             lambda c, r, a, k: add(c, "emulator.insts", r)),
            ("pipeline.setup", Simulator, "__init__", None),
            ("pipeline.loop", Simulator, "run", count_loop),
            ("harness.cache_load", CacheDir, "load", None),
            ("harness.cache_store", CacheDir, "store", None),
            ("harness.plane_attach", ArtifactPlane, "attach", None),
            ("harness.plane_attach", ArtifactPlane, "attach_handle", None),
            ("harness.plane_store", ArtifactPlane, "store", None),
            ("harness.dispatch", Engine, "run_cells", count_dispatch),
            ("harness.dispatch", Engine, "prefetch_simulations", None),
        ]
        for layer, owner, name, count in methods:
            setattr(owner, name, self.wrap(layer, owner.__dict__[name],
                                           count))


def _rebind(original: Callable, wrapper: Callable) -> None:
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


def _thousands_per_s(amount: float, seconds: float) -> float:
    return amount / seconds / 1e3 if seconds > 0 else 0.0


def layer_metrics(recorder: Recorder, wall_s: float,
                  kernels_before: Dict[str, Dict[str, float]],
                  kernels_after: Dict[str, Dict[str, float]],
                  stage_counts: Dict[str, Dict[str, float]]
                  ) -> Dict[str, float]:
    """The per-layer metric values of one traced repetition."""
    rows, counts = recorder.rows, recorder.counts
    out: Dict[str, float] = {}

    def self_s(layer):
        return rows[layer]["self_s"]

    out["lang.compile_s"] = self_s("lang.compile")
    out["lang.compile_calls"] = rows["lang.compile"]["calls"]
    out["emulator.run_s"] = self_s("emulator.run")
    out["emulator.insts"] = counts["emulator.insts"]
    out["analysis.deadness_s"] = self_s("analysis.deadness")
    out["analysis.insts"] = counts["analysis.insts"]

    def kernel_delta(name, field):
        return (kernels_after.get(name, {}).get(field, 0)
                - kernels_before.get(name, {}).get(field, 0))

    kernel_total = sum(kernel_delta(name, "seconds")
                       for name in kernels_after)
    for name, stem in KERNEL_PASSES.items():
        out["kernels.%s_s" % stem] = kernel_delta(name, "seconds")
        out["kernels.%s_items" % stem] = kernel_delta(name, "items")
    out["kernels.other_s"] = kernel_total - sum(
        kernel_delta(name, "seconds") for name in KERNEL_PASSES)

    evaluate_s = self_s("predictors.evaluate")
    out["predictors.evaluate_s"] = evaluate_s
    out["predictors.evaluate_calls"] = rows["predictors.evaluate"]["calls"]
    out["predictors.events"] = counts["predictors.events"]
    out["predictors.kevents_per_s"] = _thousands_per_s(
        counts["predictors.events"], evaluate_s)
    out["predictors.paths_s"] = self_s("predictors.paths")

    loop_s = self_s("pipeline.loop")
    out["pipeline.setup_s"] = self_s("pipeline.setup")
    out["pipeline.loop_s"] = loop_s
    out["pipeline.sims"] = rows["pipeline.loop"]["calls"]
    out["pipeline.committed"] = counts["pipeline.committed"]
    out["pipeline.cycles"] = counts["pipeline.cycles"]
    out["pipeline.loop_kinst_per_s"] = _thousands_per_s(
        counts["pipeline.committed"], loop_s)

    hits = misses = 0
    for stage in STAGES:
        bucket = stage_counts.get(stage, {})
        stage_hits = int(bucket.get("hits", 0))
        stage_misses = int(bucket.get("misses", 0))
        out["harness.stage_hits.%s" % stage] = stage_hits
        out["harness.stage_misses.%s" % stage] = stage_misses
        hits += stage_hits
        misses += stage_misses
    out["harness.cache_hit_ratio"] = (hits / (hits + misses)
                                      if hits + misses else 0.0)
    out["harness.cache_load_s"] = self_s("harness.cache_load")
    out["harness.cache_store_s"] = self_s("harness.cache_store")
    out["harness.plane_attach_s"] = self_s("harness.plane_attach")
    out["harness.plane_store_s"] = self_s("harness.plane_store")
    dispatches = counts["harness.dispatches"]
    out["harness.cells_per_dispatch"] = (
        counts["harness.cells"] / dispatches if dispatches else 0.0)
    out["harness.dispatch_wait_s"] = self_s("harness.dispatch")
    attributed = sum(row["self_s"] for row in rows.values())
    out["harness.self_s"] = wall_s - attributed - kernel_total
    out["traced_wall_s"] = wall_s
    return out
