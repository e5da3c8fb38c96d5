"""The dead-instruction predictor designs.

All table predictors are direct-mapped and tagged; sizes are powers of
two and the hardware budget is ``entries * entry_bits``.  See
DESIGN.md §5.4 for the update policy rationale: dead-instruction
mispredictions (predicting dead when live) force a pipeline recovery,
so confidence clears instantly on a live outcome along the learned
path, while coverage builds with a small saturating counter.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.predictors.dead.base import DeadPredictor, WalkOutcome


def _check_power_of_two(entries: int) -> None:
    if entries <= 0 or entries & (entries - 1):
        raise ValueError("entries must be a positive power of two")


class PathDeadPredictor(DeadPredictor):
    """The paper's predictor: indexed by PC *and* future control flow.

    The PC and the next-N-branch path jointly select a tagged entry, so
    every (static instruction, future path) pair gets its own
    confidence counter: paths along which the instruction dies build
    confidence independently of paths along which it lives — this is
    how the predictor separates the useful and useless instances of a
    partially dead static instruction.  Lookup consumes the *predicted*
    path (available at rename via the branch predictor); training
    consumes the resolved path (available at commit).

    Training policy, biased by the asymmetric cost of mistakes (a
    false "dead" forces a pipeline recovery, a false "live" only
    forfeits a small saving):

    * dead  -> saturating confidence increment (allocate on tag miss);
    * live  -> confidence := 0 on tag hit, no allocation on miss.
    """

    name = "path"

    def __init__(self, entries: int = 2048, tag_bits: int = 8,
                 path_bits: int = 3, conf_bits: int = 2,
                 threshold: int = 2):
        _check_power_of_two(entries)
        if threshold > (1 << conf_bits) - 1:
            raise ValueError("threshold exceeds confidence range")
        if (1 << path_bits) > entries:
            raise ValueError("path_bits too large for the table")
        self.entries = entries
        self.tag_bits = tag_bits
        self.path_bits = path_bits
        self.conf_bits = conf_bits
        self.threshold = threshold
        self._index_bits = entries.bit_length() - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._path_mask = (1 << path_bits) - 1
        self._path_shift = self._index_bits - path_bits
        self._conf_max = (1 << conf_bits) - 1
        self.tags: List[int] = [-1] * entries  # -1 == invalid
        self.confs: List[int] = [0] * entries

    def _slot(self, pc: int, path: int) -> "tuple[int, int]":
        word = pc >> 2
        # Fold the path into the high index bits so consecutive static
        # instructions do not collide with each other's paths.
        index = (word ^ ((path & self._path_mask) << self._path_shift)) \
            & (self.entries - 1)
        tag = (word >> self._index_bits) & self._tag_mask
        return index, tag

    def predict(self, pc: int, predicted_path: int, index: int) -> bool:
        slot, tag = self._slot(pc, predicted_path)
        return self.tags[slot] == tag and \
            self.confs[slot] >= self.threshold

    def train(self, pc: int, dead: bool, actual_path: int,
              index: int) -> None:
        slot, tag = self._slot(pc, actual_path)
        if self.tags[slot] != tag:
            if dead:
                self.tags[slot] = tag
                self.confs[slot] = 1
            return
        if dead:
            if self.confs[slot] < self._conf_max:
                self.confs[slot] += 1
        else:
            self.confs[slot] = 0

    def walk(self, stream, paths) -> WalkOutcome:
        tags = self.tags
        confs = self.confs
        index_mask = self.entries - 1
        index_bits = self._index_bits
        tag_mask = self._tag_mask
        path_mask = self._path_mask
        path_shift = self._path_shift
        threshold = self.threshold
        conf_max = self._conf_max
        predicted_paths = paths.predicted
        actual_paths = paths.actual
        true_positives = []
        false_positives = []
        allocations = evictions = 0
        for i, pc, dead in zip(stream.eligible_index, stream.eligible_pc,
                               stream.eligible_dead):
            word = pc >> 2
            tag = (word >> index_bits) & tag_mask
            # Lookup along the predicted path ...
            path = predicted_paths[i] & path_mask
            slot = (word ^ (path << path_shift)) & index_mask
            if tags[slot] == tag and confs[slot] >= threshold:
                if dead:
                    true_positives.append(pc)
                else:
                    false_positives.append(pc)
            # ... then train along the resolved one (usually the same
            # path, hence the same slot).
            actual = actual_paths[i] & path_mask
            if actual != path:
                slot = (word ^ (actual << path_shift)) & index_mask
            held = tags[slot]
            if held != tag:
                if dead:
                    allocations += 1
                    if held != -1:
                        evictions += 1
                    tags[slot] = tag
                    confs[slot] = 1
            elif dead:
                if confs[slot] < conf_max:
                    confs[slot] += 1
            else:
                confs[slot] = 0
        return WalkOutcome(true_positives, false_positives,
                           allocations, evictions)

    def storage_bits(self) -> int:
        # tag + confidence + valid bit, per entry.
        return self.entries * (self.tag_bits + self.conf_bits + 1)


class SignatureDeadPredictor(DeadPredictor):
    """Design alternative: one learned dead-path signature per PC.

    Entry = {tag, path signature, confidence}; predicts dead iff the
    predicted future path equals the single learned signature.  Cheaper
    per static instruction than :class:`PathDeadPredictor` but can
    track only one dead path at a time, and uncorrelated far branches
    keep invalidating the signature — the F6 experiment quantifies how
    much that costs.
    """

    name = "signature"

    def __init__(self, entries: int = 2048, tag_bits: int = 8,
                 path_bits: int = 3, conf_bits: int = 2,
                 threshold: int = 2):
        _check_power_of_two(entries)
        if threshold > (1 << conf_bits) - 1:
            raise ValueError("threshold exceeds confidence range")
        self.entries = entries
        self.tag_bits = tag_bits
        self.path_bits = path_bits
        self.conf_bits = conf_bits
        self.threshold = threshold
        self._index_bits = entries.bit_length() - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._path_mask = (1 << path_bits) - 1
        self._conf_max = (1 << conf_bits) - 1
        self.tags: List[int] = [-1] * entries
        self.sigs: List[int] = [0] * entries
        self.confs: List[int] = [0] * entries

    def _slot(self, pc: int) -> "tuple[int, int]":
        word = pc >> 2
        return word & (self.entries - 1), \
            (word >> self._index_bits) & self._tag_mask

    def predict(self, pc: int, predicted_path: int, index: int) -> bool:
        slot, tag = self._slot(pc)
        return (self.tags[slot] == tag
                and self.confs[slot] >= self.threshold
                and self.sigs[slot] == (predicted_path & self._path_mask))

    def train(self, pc: int, dead: bool, actual_path: int,
              index: int) -> None:
        slot, tag = self._slot(pc)
        path = actual_path & self._path_mask
        if self.tags[slot] != tag:
            if dead:
                self.tags[slot] = tag
                self.sigs[slot] = path
                self.confs[slot] = 1
            return
        if dead:
            if self.sigs[slot] == path:
                if self.confs[slot] < self._conf_max:
                    self.confs[slot] += 1
            else:
                self.sigs[slot] = path
                self.confs[slot] = 1
        elif self.sigs[slot] == path:
            self.confs[slot] = 0

    def walk(self, stream, paths) -> WalkOutcome:
        tags = self.tags
        sigs = self.sigs
        confs = self.confs
        index_mask = self.entries - 1
        index_bits = self._index_bits
        tag_mask = self._tag_mask
        path_mask = self._path_mask
        threshold = self.threshold
        conf_max = self._conf_max
        predicted_paths = paths.predicted
        actual_paths = paths.actual
        true_positives = []
        false_positives = []
        allocations = evictions = 0
        for i, pc, dead in zip(stream.eligible_index, stream.eligible_pc,
                               stream.eligible_dead):
            word = pc >> 2
            slot = word & index_mask
            tag = (word >> index_bits) & tag_mask
            # Lookup and training share the slot (PC-indexed).
            if tags[slot] != tag:
                if dead:
                    allocations += 1
                    if tags[slot] != -1:
                        evictions += 1
                    tags[slot] = tag
                    sigs[slot] = actual_paths[i] & path_mask
                    confs[slot] = 1
                continue
            if confs[slot] >= threshold and \
                    sigs[slot] == predicted_paths[i] & path_mask:
                if dead:
                    true_positives.append(pc)
                else:
                    false_positives.append(pc)
            path = actual_paths[i] & path_mask
            if dead:
                if sigs[slot] == path:
                    if confs[slot] < conf_max:
                        confs[slot] += 1
                else:
                    sigs[slot] = path
                    confs[slot] = 1
            elif sigs[slot] == path:
                confs[slot] = 0
        return WalkOutcome(true_positives, false_positives,
                           allocations, evictions)

    def storage_bits(self) -> int:
        return self.entries * (self.tag_bits + self.path_bits
                               + self.conf_bits + 1)


class BimodalDeadPredictor(DeadPredictor):
    """PC-only baseline: a tagged confidence counter per static.

    Increments on dead outcomes, clears on live outcomes.  It can only
    learn "this static is (almost) always dead", so partially dead
    statics — the majority of dead instances — oscillate below the
    threshold and are never covered.
    """

    name = "bimodal"

    def __init__(self, entries: int = 2048, tag_bits: int = 8,
                 conf_bits: int = 2, threshold: int = 2):
        _check_power_of_two(entries)
        if threshold > (1 << conf_bits) - 1:
            raise ValueError("threshold exceeds confidence range")
        self.entries = entries
        self.tag_bits = tag_bits
        self.conf_bits = conf_bits
        self.threshold = threshold
        self._index_bits = entries.bit_length() - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._conf_max = (1 << conf_bits) - 1
        self.tags: List[int] = [-1] * entries
        self.confs: List[int] = [0] * entries

    def _slot(self, pc: int) -> "tuple[int, int]":
        word = pc >> 2
        return word & (self.entries - 1), \
            (word >> self._index_bits) & self._tag_mask

    def predict(self, pc: int, predicted_path: int, index: int) -> bool:
        slot, tag = self._slot(pc)
        return self.tags[slot] == tag and \
            self.confs[slot] >= self.threshold

    def train(self, pc: int, dead: bool, actual_path: int,
              index: int) -> None:
        slot, tag = self._slot(pc)
        if self.tags[slot] != tag:
            if dead:
                self.tags[slot] = tag
                self.confs[slot] = 1
            return
        if dead:
            if self.confs[slot] < self._conf_max:
                self.confs[slot] += 1
        else:
            self.confs[slot] = 0

    def walk(self, stream, paths) -> WalkOutcome:
        tags = self.tags
        confs = self.confs
        index_mask = self.entries - 1
        index_bits = self._index_bits
        tag_mask = self._tag_mask
        threshold = self.threshold
        conf_max = self._conf_max
        true_positives = []
        false_positives = []
        allocations = evictions = 0
        for pc, dead in zip(stream.eligible_pc, stream.eligible_dead):
            word = pc >> 2
            slot = word & index_mask
            tag = (word >> index_bits) & tag_mask
            # Lookup and training share the slot (PC-indexed).
            if tags[slot] != tag:
                if dead:
                    allocations += 1
                    if tags[slot] != -1:
                        evictions += 1
                    tags[slot] = tag
                    confs[slot] = 1
                continue
            if confs[slot] >= threshold:
                if dead:
                    true_positives.append(pc)
                else:
                    false_positives.append(pc)
            if dead:
                if confs[slot] < conf_max:
                    confs[slot] += 1
            else:
                confs[slot] = 0
        return WalkOutcome(true_positives, false_positives,
                           allocations, evictions)

    def storage_bits(self) -> int:
        return self.entries * (self.tag_bits + self.conf_bits + 1)


class HistoryDeadPredictor(DeadPredictor):
    """Control-flow-history baseline: indexes by PC and *past* branch
    outcomes (the global history register), the information a
    conventional correlating predictor would use.

    The paper's insight is that deadness is decided by the *future*
    path — whether the upcoming branch skips the consumer — which past
    history only predicts indirectly (insofar as the past correlates
    with the future).  This design isolates that claim: identical
    structure to :class:`PathDeadPredictor`, but fed the last N branch
    outcomes instead of the next N predictions.  The history advances
    along the committed path: :meth:`note_branch` per resolved branch
    in the per-event form, the merged branch stream in :meth:`walk`.
    """

    name = "history"

    def __init__(self, entries: int = 2048, tag_bits: int = 8,
                 history_bits: int = 3, conf_bits: int = 2,
                 threshold: int = 2):
        _check_power_of_two(entries)
        if threshold > (1 << conf_bits) - 1:
            raise ValueError("threshold exceeds confidence range")
        if (1 << history_bits) > entries:
            raise ValueError("history_bits too large for the table")
        self.entries = entries
        self.tag_bits = tag_bits
        self.history_bits = history_bits
        self.conf_bits = conf_bits
        self.threshold = threshold
        self._index_bits = entries.bit_length() - 1
        self._tag_mask = (1 << tag_bits) - 1
        self._history_mask = (1 << history_bits) - 1
        self._history_shift = self._index_bits - history_bits
        self._conf_max = (1 << conf_bits) - 1
        self.history = 0
        self.tags: List[int] = [-1] * entries
        self.confs: List[int] = [0] * entries

    def note_branch(self, taken: bool) -> None:
        """Shift a resolved branch outcome into the global history."""
        self.history = ((self.history << 1) | int(taken)) \
            & self._history_mask

    def _slot(self, pc: int) -> "tuple[int, int]":
        word = pc >> 2
        index = (word ^ (self.history << self._history_shift)) \
            & (self.entries - 1)
        tag = (word >> self._index_bits) & self._tag_mask
        return index, tag

    def predict(self, pc: int, predicted_path: int, index: int) -> bool:
        slot, tag = self._slot(pc)
        return self.tags[slot] == tag and \
            self.confs[slot] >= self.threshold

    def train(self, pc: int, dead: bool, actual_path: int,
              index: int) -> None:
        # Prediction and training share the same history context here
        # (both happen at the instruction's position in the walk).
        slot, tag = self._slot(pc)
        if self.tags[slot] != tag:
            if dead:
                self.tags[slot] = tag
                self.confs[slot] = 1
            return
        if dead:
            if self.confs[slot] < self._conf_max:
                self.confs[slot] += 1
        else:
            self.confs[slot] = 0

    def walk(self, stream, paths) -> WalkOutcome:
        tags = self.tags
        confs = self.confs
        index_mask = self.entries - 1
        index_bits = self._index_bits
        tag_mask = self._tag_mask
        history_mask = self._history_mask
        history_shift = self._history_shift
        threshold = self.threshold
        conf_max = self._conf_max
        eligible_index = stream.eligible_index
        branch_index = stream.branch_index
        branch_taken = stream.branch_taken
        n_branches = len(branch_index)
        # Two-pointer merge of branch outcomes into the eligible walk
        # (the index lists are disjoint and ascending).  ``next_branch``
        # is the dynamic index of the next unconsumed branch, or one
        # past the last eligible event once none remain before it.
        end = eligible_index[-1] + 1 if eligible_index else 0
        b = 0
        next_branch = branch_index[0] if n_branches else end
        history = self.history
        context = history << history_shift
        true_positives = []
        false_positives = []
        allocations = evictions = 0
        for i, pc, dead in zip(eligible_index, stream.eligible_pc,
                               stream.eligible_dead):
            if next_branch < i:
                while True:
                    history = ((history << 1) | branch_taken[b]) \
                        & history_mask
                    b += 1
                    next_branch = branch_index[b] if b < n_branches \
                        else end
                    if next_branch >= i:
                        break
                context = history << history_shift
            word = pc >> 2
            slot = (word ^ context) & index_mask
            tag = (word >> index_bits) & tag_mask
            # Lookup and training share the history context, hence
            # the slot.
            if tags[slot] != tag:
                if dead:
                    allocations += 1
                    if tags[slot] != -1:
                        evictions += 1
                    tags[slot] = tag
                    confs[slot] = 1
                continue
            if confs[slot] >= threshold:
                if dead:
                    true_positives.append(pc)
                else:
                    false_positives.append(pc)
            if dead:
                if confs[slot] < conf_max:
                    confs[slot] += 1
            else:
                confs[slot] = 0
        for taken in branch_taken[b:]:
            history = ((history << 1) | taken) & history_mask
        self.history = history
        return WalkOutcome(true_positives, false_positives,
                           allocations, evictions)

    def storage_bits(self) -> int:
        return self.entries * (self.tag_bits + self.conf_bits + 1) \
            + self.history_bits


class OracleDeadPredictor(DeadPredictor):
    """Perfect dead-instruction knowledge (upper bound, zero state)."""

    name = "oracle"

    def __init__(self, dead_labels: Sequence[bool]):
        self.dead_labels = dead_labels

    def predict(self, pc: int, predicted_path: int, index: int) -> bool:
        return bool(self.dead_labels[index])

    def train(self, pc: int, dead: bool, actual_path: int,
              index: int) -> None:
        pass

    def walk(self, stream, paths) -> WalkOutcome:
        # With the trace's own labels this is just the dead events.
        labels = self.dead_labels
        predicted = [(pc, dead) for i, pc, dead in
                     zip(stream.eligible_index, stream.eligible_pc,
                         stream.eligible_dead) if labels[i]]
        return WalkOutcome([pc for pc, dead in predicted if dead],
                           [pc for pc, dead in predicted if not dead])

    def storage_bits(self) -> int:
        return 0
