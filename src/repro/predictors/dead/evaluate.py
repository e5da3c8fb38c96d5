"""Trace-driven predictor evaluation.

Walks the committed trace in order.  For each *eligible* instruction
(produces a register value, no side effects — the same population the
elimination hardware considers) the predictor is consulted with the
predicted future path, then trained with the resolved outcome and the
actual path, mirroring the lookup-at-rename / train-at-commit timing of
the hardware scheme.  The few-hundred-instruction skew between rename
and commit is not modelled here (the timing simulator models it); for
steady-state accuracy/coverage it is irrelevant.

Each design runs that sequence as one fused batch walk
(:meth:`~repro.predictors.dead.base.DeadPredictor.walk`): slot, tag,
lookup and update are inlined over the event stream with the table in
local variables, and the walk's counters land in the statistics (and
an attached probe) in bulk afterwards, so the walk itself makes no
per-event call and no per-event telemetry test.
"""

from __future__ import annotations

from repro import kernels, obs
from repro.analysis.liveness import DeadnessAnalysis
from repro.kernels.base import PredictionStream
from repro.predictors.dead.base import (
    DeadPredictionStats,
    DeadPredictor,
    WalkOutcome,
)
from repro.predictors.dead.paths import PathInfo, compute_paths


def evaluate_predictor(analysis: DeadnessAnalysis,
                       predictor: DeadPredictor,
                       paths: PathInfo = None,
                       stats: DeadPredictionStats = None,
                       probe=None,
                       stream: PredictionStream = None
                       ) -> DeadPredictionStats:
    """Run *predictor* over one labelled trace; return its statistics.

    Pass an existing *stats* object to accumulate across workloads
    (the paper reports suite-wide accuracy/coverage).

    *probe* is an optional
    :class:`~repro.obs.introspect.PredictorProbe` that additionally
    records per-PC confusion counts and table churn; when telemetry is
    on (``repro.obs``) a probe is created automatically, the walk runs
    inside a ``predict:<design>`` span, and the finished walk is
    registered with the active collector.

    *stream* is the trace's per-PC event stream
    (:class:`~repro.kernels.base.PredictionStream`); by default the
    memoized stream for *analysis* is used, so sweeping many predictor
    configurations over one trace extracts the events once and each
    configuration walks only the eligible instances and conditional
    branches instead of the full dynamic stream.
    """
    trace = analysis.trace
    if paths is None:
        paths = compute_paths(trace, analysis.statics)
    if stats is None:
        stats = DeadPredictionStats()
    if stream is None:
        stream = kernels.prediction_stream_for(analysis)

    collector = obs.get_collector()
    if collector is None:
        _account(predictor.walk(stream, paths), stream, stats, probe)
        return stats

    workload = trace.program.name
    if probe is None:
        probe = obs.new_probe()
    with collector.tracer.span("predict:%s" % predictor.name,
                               workload=workload, events=stream.n_events):
        _account(predictor.walk(stream, paths), stream, stats, probe)
        collector.add_probe(workload, predictor.name, probe, predictor)
    return stats


def _account(outcome: WalkOutcome, stream: PredictionStream,
             stats: DeadPredictionStats, probe) -> None:
    """Add one walk's counters to *stats* and, if given, *probe*."""
    dead = stream.eligible_dead
    stats.add_walk(len(dead), sum(dead), len(outcome.true_positive_pcs),
                   len(outcome.false_positive_pcs))
    if probe is not None:
        probe.record_walk(stream.eligible_pc, dead,
                          outcome.true_positive_pcs,
                          outcome.false_positive_pcs)
        probe.allocations += outcome.allocations
        probe.evictions += outcome.evictions
