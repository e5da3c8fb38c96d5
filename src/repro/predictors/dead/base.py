"""Predictor interface and the accuracy/coverage statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple


@dataclass
class DeadPredictionStats:
    """The paper's two headline metrics plus their raw counters.

    * **accuracy** = correct dead predictions / all dead predictions
      (how often acting on a prediction is safe);
    * **coverage** = correctly predicted dead instructions / all dead
      instructions (how much of the opportunity is captured).
    """

    eligible: int = 0
    dead: int = 0
    predicted_dead: int = 0
    true_positives: int = 0
    false_positives: int = 0

    @property
    def accuracy(self) -> float:
        if self.predicted_dead == 0:
            return 1.0
        return self.true_positives / self.predicted_dead

    @property
    def coverage(self) -> float:
        if self.dead == 0:
            return 0.0
        return self.true_positives / self.dead

    def record(self, predicted: bool, actually_dead: bool) -> None:
        self.eligible += 1
        if actually_dead:
            self.dead += 1
        if predicted:
            self.predicted_dead += 1
            if actually_dead:
                self.true_positives += 1
            else:
                self.false_positives += 1

    def add_walk(self, eligible: int, dead: int, true_positives: int,
                 false_positives: int) -> None:
        """Add one whole walk's counters at once (what ``record`` would
        accumulate over the walk's eligible events)."""
        self.eligible += eligible
        self.dead += dead
        self.predicted_dead += true_positives + false_positives
        self.true_positives += true_positives
        self.false_positives += false_positives

    def summary(self) -> str:
        return ("eligible=%d dead=%d predicted=%d accuracy=%.1f%% "
                "coverage=%.1f%%" % (self.eligible, self.dead,
                                     self.predicted_dead,
                                     100 * self.accuracy,
                                     100 * self.coverage))


class WalkOutcome(NamedTuple):
    """What one fused walk hands back to ``evaluate_predictor``.

    The positive predictions are kept as the PC of each one, in walk
    order: their lengths are the true/false-positive counts, and with
    the stream's per-event labels they rebuild the per-PC confusion
    a probe reports.  Allocations and evictions count table churn (a
    dead outcome installing a new tag; the slot held a valid one)."""

    true_positive_pcs: List[int]
    false_positive_pcs: List[int]
    allocations: int = 0
    evictions: int = 0


class DeadPredictor:
    """Interface shared by all dead-instruction predictors.

    Each predictor exists in two equivalent forms:

    * ``predict`` / ``train``, one eligible instance at a time — the
      form the timing core's elimination engine drives.  ``predict``
      receives the *predicted* future path (from the branch predictor,
      as available in a real front end) and ``train`` the *actual*
      resolved path (as available at commit).  ``index`` is the
      dynamic instruction number; hardware predictors ignore it (only
      the oracle uses it).
    * ``walk``, a whole trace's eligible events at once — the form
      :func:`~repro.predictors.dead.evaluate.evaluate_predictor`
      calls.  It must leave the table in exactly the state the
      predict-then-train sequence over the same events would, and
      report exactly the predictions that sequence would make
      (``tests/test_predictor_walk.py`` pins the two forms against
      each other).
    """

    name = "abstract"

    def predict(self, pc: int, predicted_path: int, index: int) -> bool:
        raise NotImplementedError

    def train(self, pc: int, dead: bool, actual_path: int,
              index: int) -> None:
        raise NotImplementedError

    def walk(self, stream, paths) -> WalkOutcome:
        """Predict, then train, on every eligible event of *stream* (a
        :class:`~repro.kernels.base.PredictionStream`) in order, with
        the future-path signatures of *paths* (a
        :class:`~repro.predictors.dead.paths.PathInfo`)."""
        raise NotImplementedError

    def storage_bits(self) -> int:
        """Hardware state in bits (for the <5 KB claim)."""
        raise NotImplementedError

    def storage_kb(self) -> float:
        return self.storage_bits() / 8192.0
