"""The elimination engine: predictor wiring, strikes, blacklist."""

from repro.analysis import analyze_deadness
from repro.pipeline.config import default_config
from repro.pipeline.elimination import EliminationEngine
from repro.workloads import get_workload


def _engine():
    _, trace = get_workload("sort").run(scale=0.2)
    analysis = analyze_deadness(trace)
    return EliminationEngine(default_config(eliminate=True), analysis), \
        analysis


def test_paths_cover_trace():
    engine, analysis = _engine()
    assert len(engine.predicted_path) == len(analysis.trace)
    assert len(engine.actual_path) == len(analysis.trace)


def test_cold_engine_predicts_nothing():
    engine, analysis = _engine()
    for tidx in range(min(50, len(analysis.trace))):
        assert not engine.should_eliminate(tidx,
                                           analysis.trace.pcs[tidx])


def test_training_enables_prediction():
    engine, analysis = _engine()
    # Find a dead dynamic instance and train its (pc, path) to
    # saturation.
    tidx = analysis.dead.index(True)
    pc = analysis.trace.pcs[tidx]
    for _ in range(4):
        engine.train_commit(tidx, pc)
    # Prediction fires when the predicted path matches the trained one.
    if engine.predicted_path[tidx] == engine.actual_path[tidx]:
        assert engine.should_eliminate(tidx, pc)


def test_recovery_blacklists_instance():
    engine, analysis = _engine()
    tidx = analysis.dead.index(True)
    pc = analysis.trace.pcs[tidx]
    for _ in range(4):
        engine.train_commit(tidx, pc)
    engine.note_recovery(tidx, pc)
    assert not engine.should_eliminate(tidx, pc)
    assert tidx in engine.blacklist


def test_strikes_disable_and_decay():
    engine, analysis = _engine()
    tidx = analysis.dead.index(True)
    pc = analysis.trace.pcs[tidx]
    for _ in range(2):
        engine.note_recovery(tidx, pc)
    assert engine.strikes[pc] >= engine.max_strikes
    # Another instance of the same static is also disabled.
    assert not engine.should_eliminate(tidx + 1, pc)
    # Successes and aging decay the counter back below the threshold.
    engine.note_success(pc)
    engine.decay_strikes()
    assert engine.strikes.get(pc, 0) < engine.max_strikes


def test_strike_ceiling():
    engine, analysis = _engine()
    pc = analysis.trace.pcs[0]
    for _ in range(50):
        engine.note_recovery(0, pc)
    assert engine.strikes[pc] <= engine.strike_ceiling


def test_decay_removes_zeroed_entries():
    engine, _ = _engine()
    engine.strikes = {4: 1, 8: 5}
    engine.decay_strikes()
    assert 4 not in engine.strikes
    assert engine.strikes[8] == 4


def test_inline_lookup_and_training_match_path_predictor():
    """``should_eliminate``/``train_commit`` do the path predictor's
    slot, lookup and update math inline: driven over a whole trace
    with a small, colliding table they must answer and train exactly
    like ``PathDeadPredictor.predict``/``train``."""
    from repro.pipeline.config import DeadPredictorConfig
    from repro.predictors.dead.table import PathDeadPredictor

    _, trace = get_workload("sort").run(scale=0.2)
    analysis = analyze_deadness(trace)
    small = DeadPredictorConfig(entries=64, tag_bits=2, threshold=2)
    engine = EliminationEngine(
        default_config(eliminate=True, dead_predictor=small), analysis)
    reference = PathDeadPredictor(entries=64, tag_bits=2, path_bits=3,
                                  conf_bits=2, threshold=2)
    predicted = 0
    for tidx, pc in enumerate(trace.pcs):
        expected = reference.predict(pc, engine.predicted_path[tidx],
                                     tidx)
        assert engine.should_eliminate(tidx, pc) == expected
        predicted += expected
        engine.train_commit(tidx, pc)
        reference.train(pc, analysis.dead[tidx],
                        engine.actual_path[tidx], tidx)
    assert predicted > 0
    assert engine.predictor.tags == reference.tags
    assert engine.predictor.confs == reference.confs
