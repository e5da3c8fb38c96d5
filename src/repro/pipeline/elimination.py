"""Dead-instruction elimination state (the paper's mechanism).

The :class:`EliminationEngine` owns everything the hardware scheme adds
to the core: the path-refined dead predictor, the per-run blacklist of
dynamic instances that caused a recovery (the hardware analogue is the
confidence clear performed on recovery — the blacklist additionally
guarantees forward progress on immediate re-fetch), and the predicted/
actual future-path signatures the predictor consumes.

The core consults :meth:`should_eliminate` at rename and calls
:meth:`train_commit` at commit (with the exact liveness label, standing
in for the hardware's read/overwrite tracking — see DESIGN.md §2) and
:meth:`note_recovery` when a consumer read or a verification timeout
squashes a predicted-dead instruction.
"""

from __future__ import annotations

from typing import List, Set

from repro.analysis.liveness import DeadnessAnalysis
from repro.pipeline.config import MachineConfig
from repro.predictors.branch import GshareBranchPredictor
from repro.predictors.dead.paths import compute_paths
from repro.predictors.dead.table import PathDeadPredictor


class EliminationEngine:
    """Predictor + recovery bookkeeping for one simulation run."""

    def __init__(self, config: MachineConfig, analysis: DeadnessAnalysis,
                 max_strikes: int = 3):
        predictor_config = config.dead_predictor
        self.predictor = PathDeadPredictor(
            entries=predictor_config.entries,
            tag_bits=predictor_config.tag_bits,
            path_bits=predictor_config.path_bits,
            conf_bits=predictor_config.conf_bits,
            threshold=predictor_config.threshold,
        )
        paths = compute_paths(
            analysis.trace, analysis.statics,
            path_bits=predictor_config.path_bits,
            branch_predictor=GshareBranchPredictor(
                config.gshare_entries, config.gshare_history))
        self.predicted_path: List[int] = paths.predicted
        self.actual_path: List[int] = paths.actual
        self.dead_labels: List[bool] = analysis.dead
        self.blacklist: Set[int] = set()
        #: recovery strikes per static pc: +2 on a recovery, -1 on a
        #: successful verified elimination.  A static whose recovery
        #: *rate* stays above ~1/3 (typically because its kill distance
        #: exceeds the machine's window, e.g. callee-save restores)
        #: saturates the counter and is disabled; well-behaved statics
        #: decay back to zero.  Hardware: a small up/down counter per
        #: predictor entry.
        self.strikes: dict = {}
        self.max_strikes = max_strikes
        self.strike_increment = 2
        self.strike_ceiling = 2 * max_strikes
        # The predictor's table and slot geometry, bound here so the
        # two per-instruction calls below do the slot, lookup and
        # update math inline (PathDeadPredictor._slot/predict/train)
        # instead of three method calls each.
        predictor = self.predictor
        self._tags = predictor.tags
        self._confs = predictor.confs
        self._index_mask = predictor.entries - 1
        self._index_bits = predictor._index_bits
        self._tag_mask = predictor._tag_mask
        self._path_mask = predictor._path_mask
        self._path_shift = predictor._path_shift
        self._threshold = predictor.threshold
        self._conf_max = predictor._conf_max

    def should_eliminate(self, tidx: int, pc: int) -> bool:
        """Consult the predictor at rename time for dynamic *tidx*."""
        if tidx in self.blacklist:
            return False
        if self.strikes.get(pc, 0) >= self.max_strikes:
            return False
        word = pc >> 2
        slot = (word ^ ((self.predicted_path[tidx] & self._path_mask)
                        << self._path_shift)) & self._index_mask
        tag = (word >> self._index_bits) & self._tag_mask
        return self._tags[slot] == tag and \
            self._confs[slot] >= self._threshold

    def train_commit(self, tidx: int, pc: int) -> None:
        """Commit-time training with the resolved liveness outcome."""
        word = pc >> 2
        slot = (word ^ ((self.actual_path[tidx] & self._path_mask)
                        << self._path_shift)) & self._index_mask
        tag = (word >> self._index_bits) & self._tag_mask
        confs = self._confs
        if self._tags[slot] != tag:
            if self.dead_labels[tidx]:
                self._tags[slot] = tag
                confs[slot] = 1
        elif self.dead_labels[tidx]:
            if confs[slot] < self._conf_max:
                confs[slot] += 1
        else:
            confs[slot] = 0

    def note_success(self, pc: int) -> None:
        """An eliminated instance committed verified: decay strikes."""
        strikes = self.strikes.get(pc, 0)
        if strikes:
            self.strikes[pc] = strikes - 1

    def decay_strikes(self) -> None:
        """Periodic aging (the core calls this every ~1K commits): a
        disabled static earns no successes, so without aging the
        disabled state would be absorbing — one cold-start double fault
        would lock an otherwise profitable static out forever."""
        self.strikes = {pc: strikes - 1
                        for pc, strikes in self.strikes.items()
                        if strikes > 1}

    def note_recovery(self, tidx: int, pc: int) -> None:
        """A prediction for *tidx* forced a recovery: clear confidence
        (train live), record a strike against the static instruction,
        and pin this instance to execute on re-fetch."""
        self.blacklist.add(tidx)
        self.strikes[pc] = min(self.strikes.get(pc, 0)
                               + self.strike_increment,
                               self.strike_ceiling)
        self.predictor.train(pc, False, self.actual_path[tidx], tidx)
