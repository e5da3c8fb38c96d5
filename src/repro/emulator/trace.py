"""Dynamic instruction traces.

A :class:`Trace` records the committed instruction stream of one
program run in structure-of-arrays form (parallel Python lists), which
is both the fastest representation for the analysis passes and the
lightest in memory for the 10^5-instruction runs the experiments use.

For dynamic instruction *i*:

* ``pcs[i]``   — byte address of the instruction (static identity),
* ``taken[i]`` — branch outcome (False for non-branches),
* ``addrs[i]`` — effective memory address (-1 for non-memory ops).

Static properties (opcode, registers read/written, side effects) are
looked up through the owning :class:`~repro.isa.program.Program`; use
:meth:`Trace.static_index` or the precomputed tables in
:class:`repro.analysis.statics.StaticTable` for bulk passes.
"""

from __future__ import annotations

from typing import List

from repro.isa.instructions import Instruction
from repro.isa.program import Program, TEXT_BASE


class Trace:
    """The committed dynamic instruction stream of one program run."""

    __slots__ = ("program", "pcs", "taken", "addrs", "_sidx",
                 "artifact_bundle")

    def __init__(self, program: Program):
        self.program = program
        self.pcs: List[int] = []
        self.taken: List[bool] = []
        self.addrs: List[int] = []
        #: lazily decoded static-index column (see static_indices)
        self._sidx: List[int] = []
        #: attached artifact-plane column bundle, if the harness
        #: materialized this trace from one (duck-typed — the kernel
        #: layer hydrates its columns from here instead of re-deriving;
        #: see ``repro.harness.artifacts``)
        self.artifact_bundle = None

    def __len__(self) -> int:
        return len(self.pcs)

    def append(self, pc: int, taken: bool, addr: int) -> None:
        self.pcs.append(pc)
        self.taken.append(taken)
        self.addrs.append(addr)

    def static_indices(self) -> List[int]:
        """The precomputed static-index column for the whole trace.

        Decoded once by the kernel layer's decode kernel and cached;
        every bulk pass (analysis kernels, the pipeline front end,
        predictor paths) shares this column instead of re-deriving
        ``(pc - TEXT_BASE) >> 2`` per instruction.  Recomputed if the
        trace grew since the last decode.
        """
        if len(self._sidx) != len(self.pcs):
            bundle = self.artifact_bundle
            if bundle is not None:
                try:
                    if bundle.n == len(self.pcs) and bundle.has("sidx"):
                        self._sidx = bundle.ints("sidx")
                        return self._sidx
                except Exception:
                    pass  # fall through to a fresh decode
            from repro import kernels
            self._sidx = kernels.static_indices(self)
        return self._sidx

    def static_index(self, i: int) -> int:
        """Index into ``program.instructions`` of dynamic instruction *i*."""
        sidx = self._sidx
        if len(sidx) == len(self.pcs):
            return sidx[i]
        return (self.pcs[i] - TEXT_BASE) >> 2

    def instruction(self, i: int) -> Instruction:
        """The static instruction behind dynamic instruction *i*."""
        return self.program.instructions[self.static_index(i)]
