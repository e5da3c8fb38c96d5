"""Kernel result columns, pass timing and canonical forms.

A *kernel* is one hot walk over a committed trace's structure-of-arrays
columns (the passes themselves are in :mod:`repro.kernels.passes`).
Every pass takes a :class:`DecodedTrace` — the per-program
:class:`~repro.analysis.statics.StaticTable` plus the precomputed
static-index column for the whole trace — and returns one of the
column types below in **canonical** form: kill distances are ordered
by the *dead write's* dynamic index (ascending), ``by_provenance`` tags
and per-static counter keys are sorted ascending, and every column
holds plain Python values (``bool`` labels, ``int`` counters).  The
harness caches and compares these results byte for byte.

Every pass invocation is timed: the per-pass wall time feeds the
module-level accumulator (:func:`pass_totals`, used by the kernel
benchmarks) and — when telemetry is on — a ``kernel:<pass>`` span plus
``repro_kernel_pass_*`` metrics, so fused-pass savings are visible in
``obs report`` / ``obs hotspots`` next to the stage spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro import obs

__all__ = [
    "DeadnessColumns",
    "DecodedTrace",
    "FrontendColumns",
    "FusedColumns",
    "KillColumns",
    "PredictionStream",
    "StaticCounts",
    "pass_totals",
    "record_pass",
    "reset_pass_totals",
]


# ---------------------------------------------------------------------
# Result columns (the kernel contract's output types)
# ---------------------------------------------------------------------


@dataclass
class DecodedTrace:
    """The decoded micro-op table for one trace: the program's static
    facts plus the static index of every dynamic instruction."""

    trace: object
    statics: object
    #: static index per dynamic instruction (the decode column)
    sidx: Sequence[int]

    def __len__(self) -> int:
        return len(self.sidx)


@dataclass
class DeadnessColumns:
    """Per-instance deadness labels plus the summary counters."""

    dead: List[bool]
    direct: List[bool]
    n_eligible: int = 0
    n_dead: int = 0
    n_direct: int = 0
    n_dead_stores: int = 0


@dataclass
class KillColumns:
    """Kill distances of dead register writes, victim-ascending."""

    #: distance to the overwriting write, ordered by the dead write's
    #: dynamic index (the canonical order)
    distances: List[int] = field(default_factory=list)
    unkilled: int = 0
    #: provenance tag -> distances (tags sorted, victim-ascending)
    by_provenance: Dict[str, List[int]] = field(default_factory=dict)


@dataclass
class StaticCounts:
    """Per-static dynamic-instance counters (keys sorted ascending)."""

    #: static index -> dynamic instances
    totals: Dict[int, int] = field(default_factory=dict)
    #: static index -> dead instances (only statics with >= 1)
    deads: Dict[int, int] = field(default_factory=dict)


@dataclass
class FusedColumns:
    """Everything the fused backward pass produces in one walk."""

    deadness: DeadnessColumns
    kills: KillColumns
    counts: StaticCounts


@dataclass
class PredictionStream:
    """The per-PC event stream predictor evaluation walks.

    Two position-sorted event lists replace the full-trace scan: the
    *eligible* instances (the population every dead predictor is
    consulted on) and the conditional branches (which feed the global
    history of history-based designs).  A sweep builds the
    stream once per trace and every sweep point walks only the events.
    """

    #: dynamic indices of eligible instructions, ascending
    eligible_index: List[int] = field(default_factory=list)
    #: pc per eligible instruction (parallel to ``eligible_index``)
    eligible_pc: List[int] = field(default_factory=list)
    #: deadness label per eligible instruction
    eligible_dead: List[bool] = field(default_factory=list)
    #: dynamic indices of conditional branches, ascending
    branch_index: List[int] = field(default_factory=list)
    #: resolved outcome per conditional branch
    branch_taken: List[bool] = field(default_factory=list)

    @property
    def n_events(self) -> int:
        return len(self.eligible_index) + len(self.branch_index)


@dataclass
class FrontendColumns:
    """The pipeline front end's pre-decoded column block.

    Per-dynamic gathers of the static fact tables (one indexed lookup
    per column in the cycle loop instead of a ``table[sidx[tidx]]``
    double dispatch) plus the two derived event streams the block-wise
    fetch stage needs: the control-transfer positions (where fetch
    groups can end) and the running conditional-branch count (so a
    fetched block updates the branch counter with one subtraction).

    Canonical form: every column is a plain Python list with the exact
    element types of the per-static tables (``int`` registers/FU
    classes, ``bool`` flags); ``control_index`` is ascending and
    ``cond_prefix`` has ``len(trace) + 1`` entries with
    ``cond_prefix[0] == 0``.
    """

    dest: Sequence[int]
    src1: Sequence[int]
    src2: Sequence[int]
    is_load: Sequence[bool]
    is_store: Sequence[bool]
    eligible: Sequence[bool]
    #: function-unit class per dynamic instruction (the caller supplies
    #: the per-static classification; the kernel only gathers it)
    fu: Sequence[int]
    #: dynamic indices of control transfers (branches *and* jumps),
    #: ascending — the only places a fetch group can end
    control_index: Sequence[int] = field(default_factory=list)
    #: ``cond_prefix[i]`` = conditional branches among the first *i*
    #: dynamic instructions (length ``n + 1`` prefix sums)
    cond_prefix: Sequence[int] = field(default_factory=list)


# ---------------------------------------------------------------------
# Pass timing
# ---------------------------------------------------------------------

#: pass name -> {"calls", "items", "seconds"}; per-process accumulator
#: the kernel benchmarks read (always on — one dict update per kernel
#: *call*, never per element).
_PASS_TOTALS: Dict[str, Dict[str, float]] = {}


def pass_totals() -> Dict[str, Dict[str, float]]:
    """Accumulated per-pass timings since the last reset."""
    return {name: dict(bucket) for name, bucket in _PASS_TOTALS.items()}


def reset_pass_totals() -> None:
    _PASS_TOTALS.clear()


def record_pass(name: str, items: int, seconds: float) -> None:
    """Account one pass invocation that walked *items* elements."""
    bucket = _PASS_TOTALS.setdefault(
        name, {"calls": 0, "items": 0, "seconds": 0.0})
    bucket["calls"] += 1
    bucket["items"] += items
    bucket["seconds"] += seconds
    collector = obs.get_collector()
    if collector is None:
        return
    collector.tracer.add("kernel:%s" % name, seconds, items=items)
    collector.registry.counter(
        "repro_kernel_pass_total", "kernel pass executions",
        kernel=name).inc()
    collector.registry.counter(
        "repro_kernel_pass_items_total",
        "dynamic items walked by kernel passes",
        kernel=name).inc(items)
    collector.registry.histogram(
        "repro_kernel_pass_seconds", "kernel pass wall time",
        kernel=name).observe(seconds)
