"""Differential test: every design's fused walk against the per-event form.

``evaluate_predictor`` runs each design's :meth:`DeadPredictor.walk`,
which inlines lookup and training over the whole event stream.  The
reference below is the per-event loop it replaced — ``predict``, record,
then ``train`` on every eligible instance in dynamic order, with branch
outcomes fed to history designs through ``note_branch`` — and it lives
only here.  The two must agree count for count on every statistic, on
the final table state, and on a probe's per-PC confusion and churn,
over the curated suite at reduced scale and a seeded generated corpus,
for every configuration the F5/F6/A1/A2 experiments sweep (plus small
tables that force aliasing).
"""

import pytest

from repro import kernels
from repro.analysis import analyze_deadness
from repro.kernels.base import PredictionStream
from repro.obs.introspect import PredictorProbe
from repro.predictors.dead import (
    BimodalDeadPredictor,
    DeadPredictionStats,
    HistoryDeadPredictor,
    OracleDeadPredictor,
    PathDeadPredictor,
    ProfileDeadPredictor,
    SignatureDeadPredictor,
    compute_paths,
    evaluate_predictor,
)
from repro.workloads import get_workload, workload_names

SUITE_SCALE = 0.05

#: 54 seeded corpus programs; the knobs rotate so low-bias (hard to
#: predict) and high-deadness programs are both represented
CORPUS = ["gen:s%d:n16:b%d:d%d:p%d" % (seed, 20 + 20 * (seed % 3),
                                       10 + 20 * (seed % 4),
                                       (50, 70, 85, 100)[seed % 4])
          for seed in range(1, 55)]


def _design(make, path_bits=3):
    """A configuration: predictor factory (of the run) + path length."""
    return make, path_bits


CONFIGS = {}
for _entries in (256, 512, 1024, 2048, 4096, 8192):                # F5
    CONFIGS["path/entries=%d" % _entries] = _design(
        lambda run, e=_entries: PathDeadPredictor(entries=e))
for _bits in range(7):                                              # A1
    CONFIGS["path/path_bits=%d" % _bits] = _design(
        lambda run, b=_bits: PathDeadPredictor(path_bits=b),
        max(_bits, 1))
for _conf, _threshold in ((1, 1), (2, 1), (2, 2), (2, 3), (3, 5),
                          (3, 7)):                                  # A2
    CONFIGS["path/conf=%d/%d" % (_conf, _threshold)] = _design(
        lambda run, c=_conf, t=_threshold: PathDeadPredictor(
            conf_bits=c, threshold=t))
CONFIGS.update({                                                    # F6
    "profile": _design(lambda run: ProfileDeadPredictor(run[1])),
    "bimodal": _design(lambda run: BimodalDeadPredictor()),
    "history": _design(lambda run: HistoryDeadPredictor()),
    "signature": _design(lambda run: SignatureDeadPredictor()),
    "oracle": _design(lambda run: OracleDeadPredictor(run[1].dead)),
    # Tiny tables: aliasing, evictions and tag churn on every design.
    "path/entries=16": _design(
        lambda run: PathDeadPredictor(entries=16, tag_bits=2)),
    "bimodal/entries=16": _design(
        lambda run: BimodalDeadPredictor(entries=16, tag_bits=2)),
    "history/entries=16": _design(
        lambda run: HistoryDeadPredictor(entries=16, tag_bits=2,
                                         history_bits=4)),
    "signature/entries=16": _design(
        lambda run: SignatureDeadPredictor(entries=16, tag_bits=2,
                                           path_bits=2)),
    "profile/threshold=0.5": _design(
        lambda run: ProfileDeadPredictor(run[1], threshold=0.5)),
    "oracle/inverted": _design(
        lambda run: OracleDeadPredictor([not d for d in run[1].dead])),
})

_STATE = ("tags", "confs", "sigs", "history")
_COUNTERS = ("eligible", "dead", "predicted_dead", "true_positives",
             "false_positives")


def _build(name, scale):
    _machine, trace = get_workload(name).run(scale=scale)
    analysis = analyze_deadness(trace)
    stream = kernels.prediction_stream_for(analysis)
    paths = {bits: compute_paths(trace, analysis.statics, bits)
             for bits in range(1, 7)}
    return name, analysis, stream, paths


def _first_half(run):
    """The run with its eligible events cut at half and every branch
    kept, so branches outlive the last lookup (the end-of-walk history
    must still absorb them)."""
    name, analysis, stream, paths = run
    half = len(stream.eligible_index) // 2
    cut = PredictionStream(
        eligible_index=stream.eligible_index[:half],
        eligible_pc=stream.eligible_pc[:half],
        eligible_dead=stream.eligible_dead[:half],
        branch_index=stream.branch_index,
        branch_taken=stream.branch_taken)
    return name + "[:half]", analysis, cut, paths


@pytest.fixture(scope="module")
def runs():
    suite = [_build(name, SUITE_SCALE) for name in workload_names()]
    corpus = [_build(name, 1.0) for name in CORPUS]
    return suite + corpus + [_first_half(run) for run in suite]


def reference_walk(predictor, analysis, paths, stream):
    """The per-event predict → record → train loop, with churn read off
    the table around each ``train`` (a dead outcome that installs a new
    tag is an allocation, an eviction if the slot held a valid one)."""
    stats = DeadPredictionStats()
    probe = PredictorProbe()
    tags = getattr(predictor, "tags", None)
    note_branch = getattr(predictor, "note_branch", None)
    branches = list(zip(stream.branch_index, stream.branch_taken))
    b = 0
    for i, pc, dead in zip(stream.eligible_index, stream.eligible_pc,
                           stream.eligible_dead):
        if note_branch is not None:
            while b < len(branches) and branches[b][0] < i:
                note_branch(branches[b][1])
                b += 1
        prediction = predictor.predict(pc, paths.predicted[i], i)
        stats.record(prediction, dead)
        probe.record(pc, prediction, dead)
        if tags is not None:
            if isinstance(predictor, PathDeadPredictor):
                slot, _tag = predictor._slot(pc, paths.actual[i])
            else:
                slot, _tag = predictor._slot(pc)
            held = tags[slot]
        predictor.train(pc, dead, paths.actual[i], i)
        if tags is not None and tags[slot] != held:
            probe.allocations += 1
            if held != -1:
                probe.evictions += 1
    if note_branch is not None:
        for _index, taken in branches[b:]:
            note_branch(taken)
    return stats, probe


def _snapshot(stats, probe, predictor):
    return {
        "stats": {name: getattr(stats, name) for name in _COUNTERS},
        "confusion": probe.confusion,
        "allocations": probe.allocations,
        "evictions": probe.evictions,
        "state": {name: getattr(predictor, name) for name in _STATE
                  if hasattr(predictor, name)},
    }


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_fused_walk_matches_per_event_reference(runs, config):
    make, path_bits = CONFIGS[config]
    for run in runs:
        name, analysis, stream, paths_by_bits = run
        paths = paths_by_bits[path_bits]

        predictor = make(run)
        stats, probe = reference_walk(predictor, analysis, paths, stream)
        expected = _snapshot(stats, probe, predictor)

        predictor = make(run)
        probe = PredictorProbe()
        stats = evaluate_predictor(analysis, predictor, paths,
                                   probe=probe, stream=stream)
        assert _snapshot(stats, probe, predictor) == expected, name

        # Telemetry off: the same walk, the same counters and state.
        predictor = make(run)
        stats = evaluate_predictor(analysis, predictor, paths,
                                   stream=stream)
        unobserved = _snapshot(stats, PredictorProbe(), predictor)
        assert unobserved["stats"] == expected["stats"], name
        assert unobserved["state"] == expected["state"], name


def test_corpus_exercises_every_branch_of_the_walks(runs):
    """Guard against a corpus too easy to tell the forms apart: the
    configurations above must see positive and negative predictions
    of both kinds, and tiny tables must evict."""
    totals = DeadPredictionStats()
    probe = PredictorProbe()
    for _name, analysis, stream, paths in runs:
        evaluate_predictor(analysis,
                           PathDeadPredictor(entries=16, tag_bits=2),
                           paths[3], totals, probe=probe, stream=stream)
    tp, fp, tn, fn = probe.totals()
    assert min(tp, fp, tn, fn) > 0
    assert probe.evictions > 0
    assert len(runs) >= 60
