"""Shared trace-kernel layer: single-pass walks over committed traces.

The hot loops of every analysis consumer — backward deadness, kill
distance, per-static locality counters, the per-PC prediction event
stream, the pipeline front end's decode block — live here as timed
*kernel passes* over the trace's structure-of-arrays columns
(:mod:`repro.kernels.passes`), returning the canonical result columns
of :mod:`repro.kernels.base`.  See ``docs/kernels.md``.

Module-level helpers bind the kernels to the repo's concrete types:
:func:`decode` builds the :class:`DecodedTrace` (reusing the trace's
cached static-index column), and :func:`prediction_stream_for` memoizes
the per-trace event stream on the analysis object so a sweep derives it
once and every sweep point replays it.
"""

from __future__ import annotations

from repro.kernels.base import (
    DeadnessColumns,
    DecodedTrace,
    FrontendColumns,
    FusedColumns,
    KillColumns,
    PredictionStream,
    StaticCounts,
    pass_totals,
    reset_pass_totals,
)
from repro.kernels.passes import (
    deadness,
    frontend,
    fused,
    kill_distances,
    prediction_stream,
    static_counts,
    static_indices,
)

__all__ = [
    "DeadnessColumns",
    "DecodedTrace",
    "FrontendColumns",
    "FusedColumns",
    "KillColumns",
    "PredictionStream",
    "StaticCounts",
    "deadness",
    "decode",
    "default_backend_name",
    "frontend",
    "fused",
    "kill_distances",
    "pass_totals",
    "prediction_stream",
    "prediction_stream_for",
    "reset_pass_totals",
    "static_counts",
    "static_indices",
]


def default_backend_name() -> str:
    """Always ``"python"``: the name benchmark records report for the
    one kernel implementation."""
    return "python"


def decode(trace, statics=None) -> DecodedTrace:
    """The decoded micro-op table for *trace*.

    Reuses the trace's cached static-index column when available (any
    :class:`~repro.emulator.trace.Trace`), falling back to the decode
    kernel for duck-typed traces in tests.
    """
    if statics is None:
        from repro.analysis.statics import StaticTable
        statics = StaticTable(trace.program)
    column = getattr(trace, "static_indices", None)
    sidx = column() if column is not None else static_indices(trace)
    return DecodedTrace(trace=trace, statics=statics, sidx=sidx)


def prediction_stream_for(analysis) -> PredictionStream:
    """The per-PC event stream for an analyzed trace, memoized on the
    analysis object (sweeps share one stream across all points)."""
    stream = getattr(analysis, "_prediction_stream", None)
    if stream is None:
        decoded = decode(analysis.trace, analysis.statics)
        stream = prediction_stream(decoded, analysis.dead)
        analysis._prediction_stream = stream
    return stream
