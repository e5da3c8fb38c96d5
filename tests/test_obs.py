"""The observability subsystem: registry, timelines, spans, probes,
logging, and the ``--obs`` / ``obs`` CLI round trip (ISSUE 3)."""

import json
import logging
import os
import re
import tracemalloc

import pytest

from repro import obs
from repro.harness.engine import reset_engine
from repro.obs.introspect import PredictorProbe, table_health
from repro.obs.logging import _DropNoise, get_logger, parse_level
from repro.obs.registry import (
    MetricsRegistry,
    NULL_COUNTER,
    NULL_REGISTRY,
    render_prometheus,
)
from repro.obs.spans import SpanTracer, load_spans, render_span_tree
from repro.obs.timeline import Timeline


@pytest.fixture
def telemetry():
    """A fresh collector for the test, removed afterwards."""
    collector = obs.configure_obs(obs.ObsConfig(sample_interval=64,
                                                timeline_capacity=128))
    yield collector
    obs.reset_obs()


@pytest.fixture
def no_telemetry():
    obs.reset_obs()
    yield
    obs.reset_obs()


# ---------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------


def test_registry_counter_gauge_histogram():
    registry = MetricsRegistry()
    registry.counter("hits", "cache hits").inc()
    registry.counter("hits").inc(2)
    registry.gauge("depth").set(7.5)
    registry.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
    registry.histogram("lat").observe(5.0)
    snap = {entry["name"]: entry
            for entry in registry.snapshot()["metrics"]}
    assert snap["hits"]["value"] == 3
    assert snap["depth"]["value"] == 7.5
    assert snap["lat"]["count"] == 2
    assert snap["lat"]["sum"] == pytest.approx(5.05)


def test_registry_labels_are_distinct_series():
    registry = MetricsRegistry()
    registry.counter("stage", stage="compile").inc()
    registry.counter("stage", stage="trace").inc(4)
    # Same labels in any order address the same series.
    assert registry.counter("stage", stage="compile").value == 1
    assert registry.counter("stage", stage="trace").value == 4


def test_registry_timer_feeds_histogram():
    registry = MetricsRegistry()
    with registry.timer("took"):
        pass
    entry = registry.snapshot()["metrics"][0]
    assert entry["count"] == 1
    assert entry["sum"] >= 0.0


def test_render_prometheus_exposition():
    registry = MetricsRegistry()
    registry.counter("repro_hits_total", "cache hits",
                     stage="compile").inc(3)
    registry.histogram("repro_seconds", buckets=(1.0,)).observe(0.5)
    text = render_prometheus(registry)
    assert "# TYPE repro_hits_total counter" in text
    assert 'repro_hits_total{stage="compile"} 3' in text
    assert "repro_seconds_bucket" in text
    assert "repro_seconds_sum" in text


def test_disabled_registry_returns_shared_nulls():
    assert NULL_REGISTRY.counter("anything", label="x") is NULL_COUNTER
    assert NULL_REGISTRY.gauge("g") is NULL_REGISTRY.histogram("h")
    # Every null operation is a no-op, including the timer protocol.
    with NULL_REGISTRY.timer("t"):
        NULL_COUNTER.inc()
        NULL_COUNTER.observe(1.0)
    assert not NULL_REGISTRY.snapshot()["metrics"]


def test_disabled_registry_zero_allocation_fast_path():
    """The disabled path must not accumulate allocations: hot loops
    hand back the shared singletons and leave nothing behind."""
    registry = NULL_REGISTRY

    def spin():
        for _ in range(2000):
            registry.counter("hot").inc()
            registry.histogram("lat").observe(0.1)

    spin()  # warm up caches/interning before measuring
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        spin()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before == 0


# ---------------------------------------------------------------------
# Timelines
# ---------------------------------------------------------------------


def _feed(timeline, cycles):
    for cycle in range(cycles):
        if cycle >= timeline.next_due:
            timeline.record(cycle, cycle % 7, 1, 2, 3, 4, 5, 6,
                            cycle, 0, 0, cycle)


def test_timeline_sampling_is_deterministic():
    first = Timeline(interval=8, capacity=16)
    second = Timeline(interval=8, capacity=16)
    _feed(first, 1000)
    _feed(second, 1000)
    assert first.to_dict() == second.to_dict()


def test_timeline_decimates_when_full():
    timeline = Timeline(interval=1, capacity=8)
    _feed(timeline, 64)
    doc = timeline.to_dict()
    # Bounded memory, widened interval, full-run coverage.
    assert doc["samples"] <= 8
    assert doc["interval"] > 1
    cycles = doc["columns"]["cycle"]
    assert cycles == sorted(cycles)
    assert cycles[0] == 0


def test_simulator_records_timeline(simple_loop_trace, telemetry):
    from repro.pipeline import MachineConfig
    from repro.pipeline.core import simulate

    config = MachineConfig()
    first = simulate(simple_loop_trace, config)
    second = simulate(simple_loop_trace, config)
    assert first.timeline is not None
    assert first.timeline == second.timeline
    cycles = first.timeline["columns"]["cycle"]
    # The closing sample pins the end of the run.
    assert cycles[-1] == first.stats.cycles - 1


def test_simulator_timeline_off_by_default(simple_loop_trace,
                                           no_telemetry):
    from repro.pipeline import MachineConfig
    from repro.pipeline.core import simulate

    result = simulate(simple_loop_trace, MachineConfig())
    assert result.timeline is None


# ---------------------------------------------------------------------
# Predictor introspection
# ---------------------------------------------------------------------


def test_probe_confusion_sums_to_aggregate_stats(analyzed_mini_c):
    from repro.predictors.dead import (
        PathDeadPredictor,
        evaluate_predictor,
    )

    _machine, _trace, analysis = analyzed_mini_c
    probe = PredictorProbe()
    stats = evaluate_predictor(analysis, PathDeadPredictor(entries=256),
                               probe=probe)
    tp, fp, tn, fn = probe.totals()
    assert tp == stats.true_positives
    assert fp == stats.false_positives
    assert tp + fp == stats.predicted_dead
    assert tp + fn == stats.dead
    assert tp + fp + tn + fn == stats.eligible
    assert probe.accuracy == pytest.approx(stats.accuracy)
    assert probe.coverage == pytest.approx(stats.coverage)


def test_probe_tracks_table_churn_and_health(analyzed_mini_c):
    from repro.predictors.dead import (
        PathDeadPredictor,
        evaluate_predictor,
    )

    _machine, _trace, analysis = analyzed_mini_c
    predictor = PathDeadPredictor(entries=256)
    probe = PredictorProbe()
    evaluate_predictor(analysis, predictor, probe=probe)
    health = table_health(predictor)
    assert probe.allocations >= health["occupied"] > 0
    assert probe.evictions == probe.allocations - health["occupied"]
    assert sum(health["confidence_distribution"].values()) == \
        health["occupied"]
    # The walk counts churn itself: the predictor never holds a probe.
    assert not hasattr(predictor, "probe")


def test_probe_hotspots_rank_by_mispredictions():
    probe = PredictorProbe()
    for _ in range(5):
        probe.record(0x40, True, False)   # false positives
    probe.record(0x44, False, True)       # one false negative
    probe.record(0x48, True, True)        # correct
    spots = probe.hotspots(top=10)
    assert [spot["pc"] for spot in spots] == [0x40, 0x44]
    assert spots[0]["mispredicts"] == 5


# ---------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------


def test_spans_nest_and_roundtrip():
    tracer = SpanTracer()
    with tracer.span("run", run_id="r1"):
        with tracer.span("experiment", id="F6"):
            tracer.add("stage:compile", 0.25, hit=True)
        tracer.add("stage:paths", 0.5, hit=False)
    spans = load_spans(tracer.to_jsonl())
    by_name = {span["name"]: span for span in spans}
    assert by_name["experiment"]["parent_id"] == \
        by_name["run"]["span_id"]
    assert by_name["stage:compile"]["parent_id"] == \
        by_name["experiment"]["span_id"]
    assert by_name["stage:paths"]["parent_id"] == \
        by_name["run"]["span_id"]
    assert by_name["stage:compile"]["attrs"]["hit"] is True
    tree = render_span_tree(spans)
    assert "run" in tree and "stage:compile" in tree
    summary = tracer.summary()
    assert summary["stage:compile"]["count"] == 1


# ---------------------------------------------------------------------
# Logging
# ---------------------------------------------------------------------


def test_parse_level_and_default():
    assert parse_level("debug") == logging.DEBUG
    assert parse_level("INFO") == logging.INFO
    assert parse_level("nonsense") == logging.WARNING
    assert parse_level(None) == logging.WARNING


def test_noise_filter_drops_set_key_chatter():
    noise = logging.LogRecord("py.warnings", logging.WARNING, "", 0,
                              "DeprecationWarning: set_key is going "
                              "away", (), None)
    signal = logging.LogRecord("py.warnings", logging.WARNING, "", 0,
                               "something else happened", (), None)
    drop = _DropNoise()
    assert not drop.filter(noise)
    assert drop.filter(signal)


def test_get_logger_is_namespaced():
    assert get_logger("engine").name == "repro.engine"


# ---------------------------------------------------------------------
# Engine + CLI integration
# ---------------------------------------------------------------------


def test_cli_obs_roundtrip(tmp_path, capsys):
    """One observed harness invocation leaves renderable artifacts:
    spans, at least one pipeline timeline, predictor hotspots, metrics,
    and a pstats profile per experiment."""
    from repro.harness.cli import main

    cache = str(tmp_path / "cache")
    try:
        assert main(["F6", "F7", "--scale", "0.3", "--obs",
                     "--profile", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "stored observability artifacts" in out

        runs_root = os.path.join(cache, "runs")
        obs_dirs = [name for name in os.listdir(runs_root)
                    if name.startswith("obs-")]
        assert len(obs_dirs) == 1
        obs_dir = os.path.join(runs_root, obs_dirs[0])
        timelines = json.load(
            open(os.path.join(obs_dir, "timelines.json")))["timelines"]
        assert timelines, "F7 simulations must register timelines"
        probes = json.load(
            open(os.path.join(obs_dir, "predictors.json")))["probes"]
        assert probes, "F6 evaluations must register probes"
        assert os.path.exists(os.path.join(obs_dir,
                                           "profile-F6.pstats"))

        # The run document carries the obs summary.
        run_files = [name for name in os.listdir(runs_root)
                     if name.startswith("run-")]
        document = json.load(
            open(os.path.join(runs_root, run_files[0])))
        assert document["obs"]["spans"]["experiment"]["count"] == 2

        assert main(["obs", "report", "last",
                     "--cache-dir", cache]) == 0
        report = capsys.readouterr().out
        assert "spans (slowest first)" in report
        assert "pipeline timelines" in report
        assert "predictor hotspots" in report
        assert "experiment" in report

        assert main(["obs", "export", "last",
                     "--cache-dir", cache]) == 0
        assert "# TYPE" in capsys.readouterr().out
    finally:
        obs.reset_obs()
        reset_engine()


@pytest.mark.parametrize("name,text,message", [
    ("REPRO_OBS_INTERVAL", "x",
     "REPRO_OBS_INTERVAL must be an integer, got 'x'"),
    ("REPRO_OBS_INTERVAL", "0", "REPRO_OBS_INTERVAL must be >= 1, got '0'"),
    ("REPRO_OBS_CAPACITY", "many",
     "REPRO_OBS_CAPACITY must be an integer, got 'many'"),
    ("REPRO_OBS_CAPACITY", "1", "REPRO_OBS_CAPACITY must be >= 2, got '1'"),
])
def test_obs_env_knobs_name_the_variable(monkeypatch, name, text,
                                         message):
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv(name, text)
    with pytest.raises(ValueError, match=re.escape(message)):
        obs.obs_config_from_env()


def test_obs_env_knob_minimums_are_accepted(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_INTERVAL", "1")
    monkeypatch.setenv("REPRO_OBS_CAPACITY", "2")
    config = obs.obs_config_from_env()
    assert (config.sample_interval, config.timeline_capacity) == (1, 2)
    Timeline(config.sample_interval, config.timeline_capacity)


def test_cli_rejects_bad_obs_interval_before_any_work(tmp_path,
                                                      monkeypatch):
    """``REPRO_OBS_INTERVAL=0`` stops the harness with the variable's
    name before any stage runs, not inside the first simulation."""
    from repro.harness.cli import main

    monkeypatch.setenv("REPRO_OBS", "1")
    monkeypatch.setenv("REPRO_OBS_INTERVAL", "0")
    cache = tmp_path / "cache"
    try:
        with pytest.raises(ValueError, match="REPRO_OBS_INTERVAL"):
            main(["F7", "--scale", "0.2", "--cache-dir", str(cache)])
    finally:
        obs.reset_obs()
        reset_engine()
    assert not (cache / "stages").exists()
    assert not (cache / "runs").exists()


def test_observed_f5_spans_each_predictor_walk(tmp_path, capsys):
    """Every F5 cell's evaluation walk is one ``predict:path`` span
    (with its workload and event count), and on a hot rerun those
    spans are most of the experiment's time — the layer the F5 span
    used to leave unattributed."""
    from repro.harness.cli import main
    from repro.harness.experiments import _F5_ENTRIES
    from repro.workloads import workload_names

    cache = str(tmp_path / "cache")
    try:
        for _ in range(2):   # cold fill, then the observed hot rerun
            assert main(["F5", "--scale", "0.2", "--obs",
                         "--cache-dir", cache]) == 0
        capsys.readouterr()
    finally:
        obs.reset_obs()
        reset_engine()
    runs_root = os.path.join(cache, "runs")
    obs_dir = max(name for name in os.listdir(runs_root)
                  if name.startswith("obs-"))
    with open(os.path.join(runs_root, obs_dir, "spans.jsonl")) as stream:
        spans = load_spans(stream.read())
    experiment, = [span for span in spans
                   if span["name"] == "experiment"]
    walks = [span for span in spans if span["name"].startswith("predict:")]
    assert len(walks) == len(_F5_ENTRIES) * len(workload_names())
    assert {span["name"] for span in walks} == {"predict:path"}
    for span in walks:
        assert span["parent_id"] == experiment["span_id"]
        assert span["attrs"]["workload"] in workload_names()
        assert span["attrs"]["events"] > 0
    assert sum(span["seconds"] for span in walks) > \
        0.5 * experiment["seconds"]


def test_cli_obs_report_without_artifacts(tmp_path, capsys):
    from repro.harness.cli import main

    assert main(["obs", "report", "last",
                 "--cache-dir", str(tmp_path / "empty")]) == 1
    assert "no run matches" in capsys.readouterr().err


def test_f7_surfaces_dcache_misses():
    from repro.harness import run_experiment

    result = run_experiment("F7", scale=0.3)
    table = result.tables[0]
    assert "D$ misses" in table.columns
    for name, reductions in result.data.items():
        assert len(reductions) == 6
