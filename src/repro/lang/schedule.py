"""Speculative hoisting — the compiler pass the paper blames.

Out-of-order cores reward compilers for issuing work early, so
schedulers move side-effect-free instructions from a branch's successor
blocks *above* the branch (global code motion / speculation).  The cost
the paper quantifies: on every dynamic path that takes the *other* arm,
the hoisted instruction's result is never used — a dynamically dead
instance of an otherwise useful static instruction ("partially dead").

This pass performs exactly that motion on the IR CFG.  For each block B
ending in a conditional branch with arms T and F, it moves up to
``max_hoist`` leading instructions from each single-predecessor arm to
the end of B, subject to the safety conditions below, and tags each
moved instruction with ``sched`` provenance.

Safety conditions for hoisting instruction I (defining ``d``) from arm
S (other arm O):

1. I is speculation-safe (``side_effect_free``; loads only when the
   ``hoist_loads`` option is set, since a hoisted load can compute a
   wild address on the path where its guard fails);
2. every vreg I uses is defined before S (not by a non-hoisted
   instruction earlier in S's prefix);
3. ``d`` is not live-in to O (hoisting must not clobber a value the
   other path reads) and not live-in to S (no use of the old value
   above I — guaranteed for the scanned prefix, checked anyway);
4. ``d`` is not read by B's terminator (the branch must still see its
   original operands);
5. ``d`` is not defined by an earlier non-hoisted instruction in the
   scanned prefix (ordering within S must be preserved).

Note that condition 3 deliberately *permits* the canonical
partial-deadness pattern: when both arms assign the same variable,
``d`` is not live-in to either arm, hoisting the first arm's assignment
is safe (the other arm overwrites it), and every trip down the other
arm manufactures a dead instance.

Liveness is incremental.  The pass computes it once per function and
reuses it from arm to arm until a hoist actually moves an instruction,
since nothing else edits the function.  A hoist changes the use/def
sets of exactly two blocks, the branch block and the arm, so only
those two are rescanned; the fixpoint is then rerun from empty sets,
which yields the least solution whatever the edit was.  A hoist can
shrink live sets (the arm no longer reads the moved instruction's
operands), and a fixpoint warm-started from the old solution is only
guaranteed to be *a* solution, not the least one.  For the hoists this
pass makes the two happen to coincide, but only by an argument about
which sets can shrink; starting from empty sets needs no such argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

from repro.lang.ir import (
    Block,
    CondBr,
    IRFunction,
    IRModule,
    Load,
    LoadGlobal,
    VReg,
)
from repro.lang.liveness import block_use_def, compute_liveness

#: Provenance tag attached to every hoisted instruction.
SCHED_TAG = "sched"


@dataclass
class ScheduleOptions:
    """Aggressiveness knobs for the hoisting scheduler."""

    #: maximum instructions hoisted from each branch arm
    max_hoist: int = 4
    #: also hoist (speculation-safe in this ISA, but can widen the
    #: memory footprint) loads
    hoist_loads: bool = False


@dataclass
class ScheduleStats:
    """What the pass did, for the compiler's -v output and tests."""

    branches_seen: int = 0
    instructions_hoisted: int = 0


def _hoistable(instr, options: ScheduleOptions) -> bool:
    if instr.side_effect_free:
        return True
    if options.hoist_loads and isinstance(instr, (Load, LoadGlobal)):
        return True
    return False


def hoist_function(function: IRFunction,
                   options: ScheduleOptions) -> ScheduleStats:
    """Run speculative hoisting over one function, in place."""
    stats = ScheduleStats()
    blocks = function.block_map()
    predecessors = function.predecessors()
    use_def = {block.label: block_use_def(block)
               for block in function.blocks}
    liveness = None

    for block in function.blocks:
        terminator = block.terminator
        if not isinstance(terminator, CondBr):
            continue
        stats.branches_seen += 1
        branch_uses: Set[VReg] = set(terminator.uses())
        arms = (terminator.if_true, terminator.if_false)
        for arm_label, other_label in (arms, arms[::-1]):
            if arm_label == other_label:
                continue
            if len(predecessors[arm_label]) != 1:
                continue
            arm = blocks[arm_label]
            if liveness is None:
                liveness = compute_liveness(function, use_def)
            live_in_other = liveness.live_in[other_label]
            live_in_arm = liveness.live_in[arm_label]
            hoisted = _hoist_prefix(block, arm, branch_uses, live_in_other,
                                    live_in_arm, options)
            if hoisted:
                # Only these two blocks changed; the next arm reruns
                # the fixpoint from empty sets (see the module notes).
                use_def[block.label] = block_use_def(block)
                use_def[arm_label] = block_use_def(arm)
                liveness = None
            stats.instructions_hoisted += hoisted
    return stats


def _hoist_prefix(block: Block, arm: Block, branch_uses: Set[VReg],
                  live_in_other: Set[VReg], live_in_arm: Set[VReg],
                  options: ScheduleOptions) -> int:
    """Hoist a safe leading prefix of *arm* into *block*; return count."""
    defined_in_arm: Set[VReg] = set()
    used_by_skipped: Set[VReg] = set()
    hoisted = 0
    index = 0
    while index < len(arm.instrs) and hoisted < options.max_hoist:
        instr = arm.instrs[index]
        if not _hoistable(instr, options):
            break
        defs = instr.defs()
        if len(defs) != 1:
            break
        dst = defs[0]
        if any(vreg in defined_in_arm for vreg in instr.uses()):
            # Depends on an instruction we are not moving; later
            # instructions may still be independent, but moving them
            # past this one could reorder defs -- stop scanning.
            break
        unsafe = (dst in live_in_other or dst in live_in_arm
                  or dst in branch_uses or dst in defined_in_arm
                  # Hoisting would lift this def above a skipped
                  # instruction that reads dst's old value.
                  or dst in used_by_skipped)
        if unsafe:
            defined_in_arm.add(dst)
            used_by_skipped.update(instr.uses())
            index += 1
            continue
        # Move it: append to the predecessor, before the terminator.
        del arm.instrs[index]
        instr.provenance = SCHED_TAG
        block.instrs.append(instr)
        hoisted += 1
    return hoisted


def hoist_module(module: IRModule,
                 options: ScheduleOptions = None) -> ScheduleStats:
    """Run the scheduler over every function; return combined stats."""
    if options is None:
        options = ScheduleOptions()
    total = ScheduleStats()
    for function in module.functions:
        stats = hoist_function(function, options)
        total.branches_seen += stats.branches_seen
        total.instructions_hoisted += stats.instructions_hoisted
    return total
