"""Backward liveness dataflow over the IR CFG.

Classic iterative analysis on virtual registers::

    live_out(B) = union of live_in(S) for S in successors(B)
    live_in(B)  = use(B) | (live_out(B) - def(B))

where ``use(B)`` is the set of vregs with an upward-exposed use in B.
Used by the speculative-hoisting scheduler (safety conditions) and the
linear-scan register allocator (interval construction).

``use(B)``/``def(B)`` can be handed in precomputed: the scheduler keeps
them per block and refreshes only the blocks a hoist edits.  The
fixpoint itself always starts from empty sets, so the result is the
least solution however the inputs were obtained.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.lang.ir import Block, IRFunction, VReg


class LivenessInfo:
    """Per-block live-in/live-out sets for one function."""

    def __init__(self, live_in: Dict[str, Set[VReg]],
                 live_out: Dict[str, Set[VReg]]):
        self.live_in = live_in
        self.live_out = live_out


#: a block's upward-exposed uses and its defs
UseDef = Tuple[Set[VReg], Set[VReg]]


def block_use_def(block: Block) -> UseDef:
    """Upward-exposed uses and defs of one block (terminator included)."""
    uses: Set[VReg] = set()
    defs: Set[VReg] = set()
    instrs = list(block.instrs)
    if block.terminator is not None:
        instrs.append(block.terminator)
    for instr in instrs:
        for vreg in instr.uses():
            if vreg not in defs:
                uses.add(vreg)
        for vreg in instr.defs():
            defs.add(vreg)
    return uses, defs


def compute_liveness(
        function: IRFunction,
        use_def: Optional[Dict[str, UseDef]] = None) -> LivenessInfo:
    """Iterate the backward dataflow to a fixpoint.

    *use_def* maps each block label to its :func:`block_use_def`
    result; blocks are scanned here when it is omitted.
    """
    if use_def is None:
        use_def = {block.label: block_use_def(block)
                   for block in function.blocks}
    live_in: Dict[str, Set[VReg]] = {b.label: set() for b in function.blocks}
    live_out: Dict[str, Set[VReg]] = {b.label: set()
                                      for b in function.blocks}
    # Iterate blocks in reverse layout order for fast convergence,
    # reading each block's successors once rather than per iteration.
    order = [(block.label, block.successors()) + use_def[block.label]
             for block in reversed(function.blocks)]
    changed = True
    while changed:
        changed = False
        for label, successors, uses, defs in order:
            out: Set[VReg] = set()
            for successor in successors:
                out |= live_in[successor]
            live_out[label] = out
            new_in = uses | (out - defs)
            if new_in != live_in[label]:
                live_in[label] = new_in
                changed = True
    return LivenessInfo(live_in, live_out)
