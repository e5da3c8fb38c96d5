"""The out-of-order core: cycle loop, rename, issue, commit, recovery.

One :class:`Simulator` instance runs one trace on one configuration.
Stage order within a cycle is commit -> issue -> rename -> fetch, so a
resource freed at commit is available to rename in the same cycle
(idealized but consistent across configurations).

Front end: the core consumes pre-decoded column blocks from the kernel
layer's ``frontend`` pass — the fetch buffer is a contiguous trace
window advanced block-wise (next-stopper pointer + conditional prefix
sums for the branch counters), rename reads per-dynamic gathered
columns, and the gshare/RAS precomputation walks only control
instructions.  ``tests/test_pipeline_golden.py`` pins every counter of
600 runs against a recorded fixture.

Rename-map conventions: ``rat[arch]`` holds an ``int`` physical
register, or an :class:`InFlight` object when the architectural
register was last written by an *eliminated* (predicted-dead)
instruction — that object is the paper's "squashed" token.  A
non-eliminated instruction renaming a source to a token is the
misprediction detector; an instruction renaming its *destination* over
a token is the verifier.

Soundness invariants of the elimination machinery (DESIGN.md §5.6):

* An eliminated instruction may only commit once **verified**: its
  destination has been renamed over by a younger instruction *and*
  every eliminated instruction that renamed a source to its token is
  itself verified (or squashed).  An unverified instruction at the ROB
  head stalls, and after ``verify_timeout`` cycles is conservatively
  recovered.
* Recovery is by **replay** (default): the squashed instruction is
  still in the ROB with its source mappings — whose physical registers
  cannot have been freed while it is in flight — so it is allocated a
  register and re-dispatched, together with the transitive chain of
  eliminated producers it read from.  When replay resources are
  unavailable, recovery falls back to a **flush**: a ROB walk from the
  tail undoes rename mappings back to the oldest chain member, which
  is then refetched with its prediction suppressed.
* A token whose producer already *committed* (necessarily verified
  dead) can be re-exposed in the RAT by a flush that rolls back past
  the overwriter.  Any instruction subsequently renaming that token as
  a source is itself dynamically dead (stores cannot be — a live read
  would have prevented the verified commit), so the source is treated
  as ready garbage rather than triggering an impossible recovery.

Idle-cycle fast-forward (cycle-exact): a cycle that commits, issues,
renames and fetches nothing, starts no recovery at rename, and ends
with no eliminated instruction at the ROB head (whose verify stall
counts every cycle) repeats unchanged until the next event, so the
loop jumps straight to the earliest of: the ROB head's ``done_at``, the
earliest IQ wake time (an entry ready now would have issued: validated
configs have at least one unit per class and two read ports), a future
``fetch_resume`` or ``rename_blocked_until``, the timeline's next
sample, and ``max_cycles``.  The only counters a frozen cycle
increments are the stalled rename's: one of
``rename_stalls_{rob,iq,lsq,preg}`` and, when the stalled instruction
was eligible, ``elim_predictions`` (the repeated predictor lookup is
pure).  The jump adds the skipped cycles times those increments.  The
IQ wake cache relies on the same validation: every latency is at least
one cycle, so no result is ready in the cycle its producer issues.  A
source's ready time never changes once its producer issued: a register
is reallocated only after every reader of it committed, and a flush
removes the squashed readers from the IQ at once.

Register-file reuse: ``phys_regs`` enters the run only as the initial
free-list length.  Physical register *names* are interchangeable, and
the free-list length is read by exactly two decisions — rename's stall
(``len(free_list) <= reserve``) and a replay's refusal
(``needed > len(free_list)``).  With ``k`` more registers every
free-list length is larger by ``k`` at every cycle, as long as neither
decision ever fired at the smaller size; so a run with
``PipelineResult.regs_bound`` False is also the run of every larger
register file.  The harness answers such requests without simulating
(``repro.harness.engine``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import kernels
from repro.analysis.liveness import DeadnessAnalysis, analyze_deadness
from repro.analysis.statics import StaticTable
from repro.emulator.trace import Trace
from repro.isa.instructions import Opcode
from repro.obs import new_timeline
from repro.pipeline.cache import build_hierarchy
from repro.pipeline.config import MachineConfig, default_config
from repro.pipeline.elimination import EliminationEngine
from repro.pipeline.stats import PipelineStats
from repro.predictors.branch import GshareBranchPredictor, ReturnAddressStack

_INF = 1 << 60

# Function-unit classes.
_FU_ALU, _FU_MUL, _FU_DIV, _FU_MEM, _FU_BRANCH = range(5)

_NUM_ARCH = 32

#: ``src_tokens`` of an instruction that read no squashed token
_NO_TOKENS = ()


class InFlight:
    """One in-flight instruction (ROB entry)."""

    __slots__ = ("seq", "tidx", "pc", "fu", "srcs", "src_tokens",
                 "token_readers", "arch_dest", "new_preg", "old_preg",
                 "is_load", "is_store", "mispredict", "eliminated",
                 "verified", "verifies", "verified_by", "done_at",
                 "squashed", "committed", "recovered", "stall_cycles",
                 "wake")

    def __init__(self, seq: int, tidx: int, pc: int, fu: int,
                 srcs: List[int], src_tokens, arch_dest: int, old_preg,
                 new_preg: Optional[int], is_load: bool, is_store: bool,
                 mispredict: bool, eliminated: bool):
        self.seq = seq
        self.tidx = tidx
        self.pc = pc
        self.fu = fu
        self.srcs = srcs
        #: producers whose squashed tokens this eliminated instruction
        #: read (never appended to after rename)
        self.src_tokens = src_tokens
        self.token_readers: List["InFlight"] = []
        self.arch_dest = arch_dest
        self.old_preg = old_preg  # int or InFlight token
        self.new_preg = new_preg
        self.is_load = is_load
        self.is_store = is_store
        self.mispredict = mispredict
        self.eliminated = eliminated
        self.verified = False
        self.verifies: Optional["InFlight"] = None
        self.verified_by: Optional["InFlight"] = None
        self.done_at = _INF
        self.squashed = False
        self.committed = False
        self.recovered = False
        self.stall_cycles = 0
        #: cycle every source is ready, cached by the issue stage once
        #: all producers have issued (-1 until then)
        self.wake = -1

    def commit_ready(self) -> bool:
        """May this verified eliminated instruction commit?"""
        if not self.verified:
            return False
        for reader in self.token_readers:
            if reader.eliminated and not (reader.verified
                                          or reader.squashed):
                return False
        return True


@dataclass
class PipelineResult:
    """Everything one simulation run produced."""

    config: MachineConfig
    stats: PipelineStats
    l1d_misses: int = 0
    l2_misses: int = 0
    #: cycle-sampled pipeline timeline (``Timeline.to_dict()``) when
    #: telemetry was enabled for the run, else None.  Plain data so the
    #: cached artifact carries its telemetry across reloads.
    timeline: Optional[Dict[str, object]] = None
    #: True when the register-file size decided anything: rename
    #: stalled for a free register, or a replay was refused for lack of
    #: them.  An unbound result holds for any larger ``phys_regs``
    #: (module docstring).
    regs_bound: bool = False


def _classify_fu(statics: StaticTable) -> List[int]:
    fu = []
    for index in range(len(statics)):
        opcode = statics.opcode[index]
        if statics.is_load[index] or statics.is_store[index]:
            fu.append(_FU_MEM)
        elif statics.is_branch[index]:
            fu.append(_FU_BRANCH)
        elif opcode in (Opcode.MUL, Opcode.MULH):
            fu.append(_FU_MUL)
        elif opcode in (Opcode.DIV, Opcode.REM):
            fu.append(_FU_DIV)
        else:
            fu.append(_FU_ALU)
    return fu


def _control_flags_sparse(trace: Trace, statics: StaticTable,
                          config: MachineConfig, columns):
    """Precompute the branch outcomes the front end sees.  The
    gshare/RAS walk visits only control instructions (non-branches
    never touch predictor state).  Returns the full per-dynamic
    mispredict flag column plus the ascending list of fetch *stoppers*
    — actual-taken control transfers and mispredicted branches, the
    indices where a fetch block must end."""
    gshare = GshareBranchPredictor(config.gshare_entries,
                                   config.gshare_history)
    ras = ReturnAddressStack(config.ras_depth)
    pcs = trace.pcs
    taken = trace.taken
    n = len(pcs)
    sidx = trace.static_indices()
    is_cond = statics.is_cond_branch
    opcode = statics.opcode
    mispredict = [False] * n
    stops: List[int] = []
    for i in columns.control_index:
        si = sidx[i]
        if is_cond[si]:
            outcome = taken[i]
            predicted = gshare.predict_and_update(pcs[i], outcome)
            if predicted != outcome:
                mispredict[i] = True
                stops.append(i)
            elif outcome:
                stops.append(i)
        else:
            stops.append(i)
            op = opcode[si]
            if op == Opcode.JAL:
                ras.push(pcs[i] + 4)
            elif op == Opcode.JALR:
                actual_target = pcs[i + 1] if i + 1 < n else -1
                if not ras.predict_return(actual_target):
                    mispredict[i] = True
    return mispredict, stops


class Simulator:
    """Trace-driven out-of-order timing simulation of one run."""

    def __init__(self, trace: Trace, config: MachineConfig = None,
                 analysis: DeadnessAnalysis = None):
        self.trace = trace
        self.config = config if config is not None else default_config()
        if analysis is None:
            analysis = analyze_deadness(trace)
        self.analysis = analysis
        self.statics = analysis.statics
        self.stats = PipelineStats()
        self.l1d = build_hierarchy(self.config)
        self.elimination: Optional[EliminationEngine] = None
        if self.config.eliminate:
            self.elimination = EliminationEngine(self.config, analysis)
        decoded = kernels.decode(trace, self.statics)
        self._columns = kernels.frontend(decoded,
                                         _classify_fu(self.statics))
        self._mispredict, self._stops = _control_flags_sparse(
            trace, self.statics, self.config, self._columns)
        #: cycle-sampled telemetry; None (the default) costs one
        #: ``is not None`` test per cycle in the main loop.
        self.timeline = new_timeline()
        #: set when a replay is refused for lack of free registers
        self._replay_refused = False
        config = self.config
        self._latency = [config.alu_latency, config.mul_latency,
                         config.div_latency, config.agen_latency,
                         config.branch_latency]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 50_000_000) -> PipelineResult:
        trace = self.trace
        config = self.config
        stats = self.stats
        pcs = trace.pcs
        addrs = trace.addrs
        n = len(pcs)

        latencies = self._latency
        mispredict_flags = self._mispredict
        columns = self._columns
        f_dest = columns.dest
        f_src1 = columns.src1
        f_src2 = columns.src2
        f_load = columns.is_load
        f_store = columns.is_store
        f_eligible = columns.eligible
        f_fu = columns.fu
        cond_prefix = columns.cond_prefix
        stops = self._stops
        n_stops = len(stops)
        elim = self.elimination
        train_stores = config.eliminate_stores
        use_replay = config.recovery_mode == "replay"
        timeline = self.timeline
        l1d_access = self.l1d.access

        # Rename state: merged physical register file.
        rat: List[object] = list(range(_NUM_ARCH))
        # The replay reserve is additional storage brought by the
        # elimination hardware itself; rename never sees it, so the
        # baseline and elimination configurations expose identical
        # renaming headroom.
        preg_reserve = (config.replay_reserve_pregs
                        if config.eliminate else 0)
        total_pregs = config.phys_regs + preg_reserve
        free_list = deque(range(_NUM_ARCH, total_pregs))
        ready_at = [0] * total_pregs

        rob: deque = deque()
        iq: List[InFlight] = []
        lsq_used = 0
        # The fetch buffer is always the contiguous trace window
        # [fq_head, fq_tail): fetch appends at the tail, rename
        # consumes at the head, a flush collapses both to the refetch
        # point.  Two ints replace the old per-instruction deque.
        fq_head = 0
        fq_tail = 0
        fetch_buffer_cap = 3 * config.fetch_width

        fetch_resume = 0
        rename_blocked_until = 0
        committed = 0
        seq = 0
        cycle = 0

        fu_limits = (config.alu_units, config.mul_units, config.div_units,
                     config.mem_ports, config.branch_units)

        # Hot per-cycle config reads as locals (dataclass attribute
        # access is a dict lookup per read; the cycle loop makes
        # several per instruction).
        commit_width = config.commit_width
        issue_width = config.issue_width
        rename_width = config.rename_width
        fetch_width = config.fetch_width
        rob_size = config.rob_size
        iq_size = config.iq_size
        lsq_size = config.lsq_size
        rf_read_ports = config.rf_read_ports
        verify_timeout = config.verify_timeout
        eliminate_stores = config.eliminate_stores
        stop_ptr = 0

        # Hot counters as locals, added to ``stats`` after the loop.
        rf_reads = rf_writes = dcache_accesses = 0
        preg_allocs = preg_frees = 0
        branches = branch_mispredicts = 0
        n_eliminated = elim_predictions = 0
        stalls_rob = stalls_iq = stalls_lsq = stalls_preg = 0

        while committed < n:
            if cycle >= max_cycles:
                raise RuntimeError("simulation did not finish in %d cycles"
                                   % max_cycles)

            # ---- commit ----
            commits = 0
            while rob and commits < commit_width:
                head = rob[0]
                if head.eliminated:
                    if not head.commit_ready():
                        stats.verify_stall_cycles += 1
                        head.stall_cycles += 1
                        if head.stall_cycles > verify_timeout:
                            stats.timeout_recoveries += 1
                            chain = self._collect_chain(head)
                            new_lsq = None
                            if use_replay:
                                new_lsq = self._try_replay(
                                    chain, iq, rat, free_list, ready_at,
                                    lsq_used)
                            if new_lsq is not None:
                                lsq_used = new_lsq
                                rename_blocked_until = max(
                                    rename_blocked_until,
                                    cycle + config.replay_penalty)
                            else:
                                self._flush(chain[0], rob, iq, rat,
                                            free_list)
                                fq_head = fq_tail = chain[0].tidx
                                stop_ptr = bisect_left(stops, fq_tail)
                                fetch_resume = cycle + \
                                    config.recovery_penalty
                                lsq_used = self._recount_lsq(rob)
                        break
                elif head.done_at > cycle:
                    break
                rob.popleft()
                head.committed = True
                tidx = head.tidx
                if head.is_store and not head.eliminated:
                    dcache_accesses += 1
                    l1d_access(addrs[tidx])
                    lsq_used -= 1
                elif head.is_load and not head.eliminated:
                    lsq_used -= 1
                if head.arch_dest:
                    old = head.old_preg
                    if type(old) is int:
                        free_list.append(old)
                        preg_frees += 1
                    # Token old mapping: the eliminated producer had no
                    # physical register -- a saved allocation and free.
                committed += 1
                commits += 1
                if elim is not None:
                    # Instructions that forced a recovery already
                    # trained "live" there; training them dead again at
                    # commit would re-arm the same costly prediction.
                    if not head.recovered:
                        if head.eliminated:
                            elim.note_success(head.pc)
                        if f_eligible[tidx] or (
                                train_stores and head.is_store):
                            elim.train_commit(tidx, head.pc)
                    if not committed & 1023:
                        elim.decay_strikes()
            if committed >= n:
                stats.cycles = cycle + 1
                break

            # ---- issue ----
            # Oldest first.  Readiness is tested first (via the cached
            # wake time): an entry that fails any test just stays
            # queued, so the test order cannot change which entries
            # issue.  Issued entries leave the queue in place; squashed
            # ones already left it in _flush.
            issued = 0
            if iq:
                fu_used = [0, 0, 0, 0, 0]
                rf_reads_left = rf_read_ports
                fired = []
                for entry in iq:
                    wake = entry.wake
                    if wake < 0:
                        wake = 0
                        for preg in entry.srcs:
                            ready = ready_at[preg]
                            if ready > wake:
                                wake = ready
                        if wake == _INF:  # a producer has not issued
                            continue
                        entry.wake = wake
                    if wake > cycle:
                        continue
                    fu = entry.fu
                    if fu_used[fu] >= fu_limits[fu]:
                        continue
                    reads = len(entry.srcs)
                    if reads > rf_reads_left:
                        continue
                    # Issue it.
                    fu_used[fu] += 1
                    rf_reads_left -= reads
                    rf_reads += reads
                    latency = latencies[fu]
                    if entry.is_load:
                        dcache_accesses += 1
                        latency += l1d_access(addrs[entry.tidx])
                    done_at = cycle + latency
                    entry.done_at = done_at
                    if entry.new_preg is not None:
                        ready_at[entry.new_preg] = done_at
                        rf_writes += 1
                    if entry.mispredict:
                        fetch_resume = done_at + config.redirect_penalty
                    fired.append(entry)
                    issued += 1
                    if issued == issue_width:
                        break
                for entry in fired:
                    iq.remove(entry)

            # ---- rename / dispatch ----
            # Which stall counter a stalled rename bumped (1 rob, 2 iq,
            # 3 lsq, 4 preg) and whether it made a prediction first:
            # the per-cycle increments an idle-cycle jump repeats.
            stall = 0
            predicted = False
            replayed = False
            flush_fired = False
            rename_from = fq_head
            rename_end = fq_head + rename_width
            if rename_end > fq_tail:
                rename_end = fq_tail
            if cycle < rename_blocked_until:
                rename_end = fq_head
            while fq_head < rename_end:
                tidx = fq_head
                if len(rob) >= rob_size:
                    stalls_rob += 1
                    stall = 1
                    break
                pc = pcs[tidx]
                is_load = f_load[tidx]
                is_store = f_store[tidx]
                dest = f_dest[tidx]
                src1 = f_src1[tidx]
                src2 = f_src2[tidx]
                eligible = f_eligible[tidx]
                fu = f_fu[tidx]

                eliminated = False
                if elim is not None:
                    if (eligible or
                            (is_store and eliminate_stores)):
                        elim_predictions += 1
                        predicted = True
                        eliminated = elim.should_eliminate(tidx, pc)

                if not eliminated:
                    if len(iq) >= iq_size:
                        stalls_iq += 1
                        stall = 2
                        break
                    if (is_load or is_store) and \
                            lsq_used >= lsq_size:
                        stalls_lsq += 1
                        stall = 3
                        break
                    if dest and len(free_list) <= preg_reserve:
                        stalls_preg += 1
                        stall = 4
                        break

                # Read source mappings.  A live consumer finding a
                # squashed token is the dead-misprediction detector.  A
                # token whose producer already committed is a
                # verified-dead producer re-exposed by a flush: this
                # consumer is itself dead, the value is architectural
                # garbage (sound, see module docstring).
                srcs: List[int] = []
                src_tokens = _NO_TOKENS
                dead_producer: Optional[InFlight] = None
                if src1 > 0:
                    mapping = rat[src1]
                    if type(mapping) is int:
                        srcs.append(mapping)
                    elif not mapping.committed:
                        if eliminated:
                            src_tokens = [mapping]
                        else:
                            dead_producer = mapping
                if src2 > 0 and dead_producer is None:
                    mapping = rat[src2]
                    if type(mapping) is int:
                        srcs.append(mapping)
                    elif not mapping.committed:
                        if not eliminated:
                            dead_producer = mapping
                        elif src_tokens:
                            src_tokens.append(mapping)
                        else:
                            src_tokens = [mapping]

                if dead_producer is not None:
                    stats.reader_recoveries += 1
                    chain = self._collect_chain(dead_producer)
                    new_lsq = None
                    if use_replay:
                        new_lsq = self._try_replay(chain, iq, rat,
                                                   free_list, ready_at,
                                                   lsq_used)
                    if new_lsq is not None:
                        lsq_used = new_lsq
                        rename_blocked_until = cycle + \
                            config.replay_penalty
                        replayed = True
                        # The consumer renames once the stall expires.
                        break
                    self._flush(chain[0], rob, iq, rat, free_list)
                    fq_head = fq_tail = chain[0].tidx
                    stop_ptr = bisect_left(stops, fq_tail)
                    fetch_resume = cycle + config.recovery_penalty
                    lsq_used = self._recount_lsq(rob)
                    flush_fired = True
                    break

                if dest:
                    old = rat[dest]
                    if eliminated:
                        preg = None
                    else:
                        preg = free_list.popleft()
                        ready_at[preg] = _INF
                        preg_allocs += 1
                else:
                    old = preg = None
                entry = InFlight(seq, tidx, pc, fu, srcs,
                                 src_tokens, dest, old, preg, is_load,
                                 is_store, mispredict_flags[tidx],
                                 eliminated)
                seq += 1
                if src_tokens:
                    for token in src_tokens:
                        token.token_readers.append(entry)
                if dest:
                    rat[dest] = entry if eliminated else preg
                    if type(old) is not int and not old.committed \
                            and old.eliminated and not old.verified:
                        # Overwriting a squashed mapping verifies that
                        # the eliminated producer really was dead.
                        old.verified = True
                        old.verified_by = entry
                        entry.verifies = old
                elif eliminated and is_store:
                    # An eliminated store poisons no rename mapping; its
                    # deadness is verified by the overwriting store in
                    # the memory-order queue, which this timing model
                    # treats as immediate.
                    entry.verified = True

                if eliminated:
                    n_eliminated += 1
                    entry.done_at = cycle  # never executes
                else:
                    iq.append(entry)
                    if is_load or is_store:
                        lsq_used += 1
                rob.append(entry)
                fq_head += 1
            if flush_fired:
                cycle += 1
                continue
            renamed = fq_head - rename_from

            # ---- fetch ----
            fetched_from = fq_tail
            if cycle >= fetch_resume and fq_tail < n:
                # One arithmetic step per cycle: the block runs to the
                # width/buffer/trace limit or through the next stopper,
                # whichever is nearest; branch counters come from the
                # conditional prefix sums.  stop_ptr is monotone
                # (re-bisected only on a flush).
                budget = fetch_width
                room = fetch_buffer_cap - (fq_tail - fq_head)
                if room < budget:
                    budget = room
                if budget > 0:
                    end = fq_tail + budget
                    if end > n:
                        end = n
                    stop = stops[stop_ptr] if stop_ptr < n_stops else n
                    if stop < end:
                        end = stop + 1
                        stop_ptr += 1
                        if mispredict_flags[stop]:
                            branch_mispredicts += 1
                            fetch_resume = _INF  # until it resolves
                    branches += cond_prefix[end] - cond_prefix[fq_tail]
                    fq_tail = end

            if timeline is not None and cycle >= timeline.next_due:
                timeline.record(cycle, len(rob), len(iq), lsq_used,
                                fq_tail - fq_head, renamed, issued,
                                commits, committed, n_eliminated,
                                stats.reader_recoveries
                                + stats.timeout_recoveries, fq_tail)
            cycle += 1

            # ---- idle-cycle fast-forward ----
            # A cycle that moved nothing repeats unchanged until the
            # next event (module docstring): jump there, charging the
            # skipped cycles the frozen rename stage's stall counts.
            if (commits or issued or renamed or replayed
                    or fq_tail != fetched_from
                    or (rob and rob[0].eliminated)):
                continue
            # Nothing issued, so the scan above cached the wake time of
            # every entry whose producers have all issued.
            target = min([entry.wake for entry in iq if entry.wake >= 0],
                         default=_INF)
            if rob and rob[0].done_at < target:
                target = rob[0].done_at
            if cycle <= fetch_resume < target:
                target = fetch_resume
            if cycle <= rename_blocked_until < target:
                target = rename_blocked_until
            if timeline is not None and timeline.next_due < target:
                target = timeline.next_due
            if max_cycles < target:
                target = max_cycles
            if target > cycle:
                skipped = target - cycle
                if stall == 1:
                    stalls_rob += skipped
                elif stall == 2:
                    stalls_iq += skipped
                elif stall == 3:
                    stalls_lsq += skipped
                elif stall == 4:
                    stalls_preg += skipped
                if predicted:
                    elim_predictions += skipped
                cycle = target

        stats.rf_reads += rf_reads
        stats.rf_writes += rf_writes
        stats.dcache_accesses += dcache_accesses
        stats.preg_allocs += preg_allocs
        stats.preg_frees += preg_frees
        stats.branches += branches
        stats.branch_mispredicts += branch_mispredicts
        stats.eliminated += n_eliminated
        stats.elim_predictions += elim_predictions
        stats.rename_stalls_rob += stalls_rob
        stats.rename_stalls_iq += stalls_iq
        stats.rename_stalls_lsq += stalls_lsq
        stats.rename_stalls_preg += stalls_preg
        stats.committed = committed
        stats.dcache_misses = self.l1d.stats.misses
        stats.recoveries = (stats.reader_recoveries
                            + stats.timeout_recoveries)
        result = PipelineResult(config=self.config, stats=stats)
        result.l1d_misses = self.l1d.stats.misses
        if self.l1d.parent is not None:
            result.l2_misses = self.l1d.parent.stats.misses
        result.regs_bound = bool(stats.rename_stalls_preg
                                 or self._replay_refused)
        if timeline is not None:
            # A closing sample so the timeline always reaches the end
            # of the run, whatever the sampling grid.
            timeline.record(stats.cycles - 1, len(rob), len(iq),
                            lsq_used, fq_tail - fq_head, 0, 0, 0,
                            committed, stats.eliminated,
                            stats.recoveries, fq_tail)
            result.timeline = timeline.to_dict()
        return result

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _collect_chain(self, target: InFlight) -> List[InFlight]:
        """The eliminated instructions that must re-execute to
        materialize *target*'s value: target plus, transitively, every
        still-eliminated, uncommitted producer it read a token from.
        Sorted oldest first; every member is in the ROB (guaranteed by
        the commit gating, see module docstring)."""
        chain: List[InFlight] = []
        seen = set()

        def visit(entry: InFlight) -> None:
            if id(entry) in seen:
                return
            seen.add(id(entry))
            for token in entry.src_tokens:
                if token.committed or not token.eliminated:
                    continue
                visit(token)
            chain.append(entry)

        visit(target)
        chain.sort(key=lambda entry: entry.seq)
        return chain

    def _try_replay(self, chain: List[InFlight], iq: List[InFlight],
                    rat: List[object], free_list: deque,
                    ready_at: List[int], lsq_used: int) -> Optional[int]:
        """Re-dispatch every chain member from the ROB; return the new
        LSQ occupancy, or None when resources do not allow it (the
        caller falls back to a flush)."""
        stats = self.stats
        pregs_needed = sum(1 for entry in chain if entry.arch_dest)
        if pregs_needed > len(free_list):
            # Without registers the values cannot be materialized;
            # the caller falls back to a flush (which frees plenty).
            self._replay_refused = True
            return None
        # Replay entries may transiently overflow the IQ/LSQ: they
        # re-enter from the ROB while rename is stalled for
        # replay_penalty cycles, so the structural overshoot is bounded
        # by the chain length and drains immediately.

        for entry in chain:
            entry.eliminated = False
            entry.verified = False
            entry.done_at = _INF
            if entry.arch_dest:
                preg = free_list.popleft()
                entry.new_preg = preg
                ready_at[preg] = _INF
                stats.preg_allocs += 1
                if rat[entry.arch_dest] is entry:
                    rat[entry.arch_dest] = preg
                elif entry.verified_by is not None and \
                        entry.verified_by.old_preg is entry:
                    # Already renamed over: hand the register to the
                    # overwriter's old-mapping slot so it is freed at
                    # the overwriter's commit (no leak).
                    entry.verified_by.old_preg = preg
            # Wire up values from producers replayed in this chain.
            for token in entry.src_tokens:
                if token.new_preg is not None:
                    entry.srcs.append(token.new_preg)
            entry.src_tokens = []
            iq.append(entry)
            if entry.is_load or entry.is_store:
                lsq_used += 1
            stats.replayed += 1
            entry.recovered = True
            if self.elimination is not None:
                self.elimination.note_recovery(entry.tidx, entry.pc)
        return lsq_used

    def _flush(self, target: InFlight, rob: deque, iq: List[InFlight],
               rat: List[object], free_list: deque) -> None:
        """Squash from the ROB tail back to and including *target*,
        undoing rename mappings in reverse order; the caller resets the
        fetch stream to the target's trace index."""
        stats = self.stats
        stats.flush_recoveries += 1
        while rob:
            entry = rob[-1]
            if entry.seq < target.seq:
                break
            rob.pop()
            entry.squashed = True
            stats.squashed += 1
            if entry.arch_dest:
                rat[entry.arch_dest] = entry.old_preg
                if entry.new_preg is not None:
                    free_list.append(entry.new_preg)
                    entry.new_preg = None
            if entry.verifies is not None:
                entry.verifies.verified = False
                entry.verifies = None
        # Every queued entry is also in the ROB, so the walk above
        # marked the squashed ones; drop them from the queue now.
        iq[:] = [entry for entry in iq if not entry.squashed]
        target.recovered = True
        if self.elimination is not None:
            self.elimination.note_recovery(target.tidx, target.pc)

    @staticmethod
    def _recount_lsq(rob: deque) -> int:
        return sum(1 for entry in rob
                   if (entry.is_load or entry.is_store)
                   and not entry.eliminated)


def simulate(trace: Trace, config: MachineConfig = None,
             analysis: DeadnessAnalysis = None) -> PipelineResult:
    """Run *trace* through the timing model under *config*."""
    return Simulator(trace, config, analysis).run()
