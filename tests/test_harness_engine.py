"""The experiment engine: staged caching, invalidation, robustness,
and serial/parallel equivalence (docs/harness.md)."""

from __future__ import annotations

import os

import pytest

from repro.harness.cachedir import CacheDir, MISS, stable_hash
from repro.harness.engine import CellSpec, Engine, EngineConfig
from repro.lang import CompilerOptions
from repro.pipeline import contended_config, default_config
from repro.pipeline.config import DeadPredictorConfig

SCALE = 0.3


def make_engine(tmp_path, jobs=1, cache=True, name="cache", **extra):
    return Engine(EngineConfig(jobs=jobs, cache=cache,
                               cache_dir=str(tmp_path / name), **extra))


def spec(workload="matmul", scale=SCALE, **options):
    return CellSpec(workload=workload, scale=scale,
                    options=CompilerOptions(**options))


class TestCacheKeys:
    def test_equal_configs_equal_keys(self):
        from dataclasses import replace

        assert default_config().to_key() == default_config().to_key()
        rebuilt = replace(contended_config(), name="contended")
        assert rebuilt.to_key() == contended_config().to_key()
        assert CompilerOptions(opt_level=2).to_key() == \
            CompilerOptions().to_key()

    def test_any_field_changes_the_key(self):
        base = default_config()
        assert base.to_key() != contended_config().to_key()
        from dataclasses import replace

        nested = replace(base, dead_predictor=DeadPredictorConfig(
            entries=4096))
        assert nested.to_key() != base.to_key()
        assert CompilerOptions(max_hoist=8).to_key() != \
            CompilerOptions().to_key()

    def test_unsupported_value_raises(self):
        from repro.keys import value_key

        with pytest.raises(TypeError):
            value_key(object())


class TestStageCache:
    def test_hit_on_identical_inputs(self, tmp_path):
        cold = make_engine(tmp_path)
        first = cold.run_cells([spec()])[0]
        assert cold.stats.misses("compile") == 1
        assert cold.stats.misses("trace") == 1
        assert cold.stats.misses("analysis") == 1

        hot = make_engine(tmp_path)  # same cache dir, fresh process sim
        second = hot.run_cells([spec()])[0]
        assert hot.stats.hits("compile") == 1
        assert hot.stats.misses("compile") == 0
        assert hot.stats.misses("trace") == 0
        assert hot.stats.misses("analysis") == 0
        assert second.trace.pcs == first.trace.pcs
        assert second.trace.taken == first.trace.taken
        assert second.trace.addrs == first.trace.addrs
        assert second.output == first.output
        assert second.analysis.dead == first.analysis.dead
        assert second.analysis.n_dead == first.analysis.n_dead

    def test_miss_on_changed_source_or_config(self, tmp_path):
        engine = make_engine(tmp_path)
        engine.run_cells([spec()])
        # Different scale => different generated source => compile miss.
        engine.run_cells([spec(scale=0.4)])
        assert engine.stats.misses("compile") == 2
        # Different compiler options, same source => compile miss.
        engine.run_cells([spec(max_hoist=1)])
        assert engine.stats.misses("compile") == 3
        # And the original inputs still hit.
        engine.run_cells([spec()])
        assert engine.stats.hits("compile") == 1

    def test_corrupt_entry_recomputes(self, tmp_path):
        # Pin the artifact plane off: this exercises the pickle tier's
        # own corruption handling (a live plane would transparently
        # serve the cell from its bundle instead).
        engine = make_engine(tmp_path, artifacts=False)
        first = engine.run_cells([spec()])[0]
        path = engine.cache.entry_path("trace", first.trace_key)
        assert os.path.exists(path)
        blob = open(path, "rb").read()
        with open(path, "wb") as stream:  # truncate mid-pickle
            stream.write(blob[: len(blob) // 2])

        repaired = make_engine(tmp_path, artifacts=False)
        second = repaired.run_cells([spec()])[0]
        assert repaired.stats.misses("trace") == 1  # transparent miss
        assert second.trace.pcs == first.trace.pcs
        assert second.output == first.output
        # The entry was re-stored and is valid again.
        third = make_engine(tmp_path, artifacts=False)
        third.run_cells([spec()])
        assert third.stats.hits("trace") == 1

    def test_corrupt_entry_served_by_plane(self, tmp_path):
        # Same corruption, plane on: the cell still counts a stage hit
        # because the bundle tier serves it without touching pickle.
        engine = make_engine(tmp_path)
        first = engine.run_cells([spec()])[0]
        path = engine.cache.entry_path("trace", first.trace_key)
        blob = open(path, "rb").read()
        with open(path, "wb") as stream:
            stream.write(blob[: len(blob) // 2])
        repaired = make_engine(tmp_path)
        second = repaired.run_cells([spec()])[0]
        assert repaired.stats.hits("trace") == 1
        assert repaired.plane.counters["attach_hits"] > 0
        assert second.trace.pcs == first.trace.pcs
        assert second.output == first.output

    def test_garbage_entry_recomputes(self, tmp_path):
        engine = make_engine(tmp_path, artifacts=False)
        first = engine.run_cells([spec()])[0]
        path = engine.cache.entry_path("analysis", first.analysis_key)
        with open(path, "wb") as stream:
            stream.write(b"not a pickle at all")
        repaired = make_engine(tmp_path, artifacts=False)
        second = repaired.run_cells([spec()])[0]
        assert repaired.stats.misses("analysis") == 1
        assert second.analysis.dead == first.analysis.dead

    def test_load_returns_miss_sentinel(self, tmp_path):
        cache = CacheDir(str(tmp_path / "c"))
        assert cache.load("compile", stable_hash("nope")) is MISS


class TestParallel:
    WORKLOADS = ("matmul", "sort", "rle", "crc", "strsearch")

    def test_serial_and_parallel_results_identical(self, tmp_path):
        specs = [spec(workload=name) for name in self.WORKLOADS]
        serial = make_engine(tmp_path, jobs=1, name="serial")
        parallel = make_engine(tmp_path, jobs=3, name="parallel")
        serial_arts = serial.run_cells(specs)
        parallel_arts = parallel.run_cells(specs)
        assert [a.spec.workload for a in parallel_arts] == \
            [s.workload for s in specs]  # deterministic ordering
        for left, right in zip(serial_arts, parallel_arts):
            assert left.trace.pcs == right.trace.pcs
            assert left.trace.taken == right.trace.taken
            assert left.trace.addrs == right.trace.addrs
            assert left.output == right.output
            assert left.analysis.dead == right.analysis.dead
            assert left.analysis.direct == right.analysis.direct
            assert left.trace_key == right.trace_key

    def test_parallel_populates_shared_cache(self, tmp_path):
        specs = [spec(workload=name) for name in self.WORKLOADS]
        make_engine(tmp_path, jobs=3).run_cells(specs)
        hot = make_engine(tmp_path)
        hot.run_cells(specs)
        assert hot.stats.misses("compile") == 0
        assert hot.stats.misses("trace") == 0

    def test_prefetch_then_serial_read(self, tmp_path):
        from repro.harness.engine import _payload_to_artifact  # noqa
        engine = make_engine(tmp_path, jobs=2)
        arts = engine.run_cells([spec(), spec(workload="sort")])
        config = contended_config()
        engine.prefetch_simulations([(a, config) for a in arts])
        for artifact in arts:
            result = engine.simulate(artifact.trace, config,
                                     artifact.analysis,
                                     trace_key=artifact.trace_key)
            assert result.stats.committed == len(artifact.trace)
        assert engine.stats.misses("timing") == 0


class TestTimingStage:
    def test_simulate_cache_roundtrip(self, tmp_path):
        engine = make_engine(tmp_path)
        artifact = engine.run_cells([spec()])[0]
        config = contended_config()
        cold = engine.simulate(artifact.trace, config,
                               artifact.analysis,
                               trace_key=artifact.trace_key)
        assert engine.stats.misses("timing") == 1

        hot_engine = make_engine(tmp_path)
        hot_artifact = hot_engine.run_cells([spec()])[0]
        hot = hot_engine.simulate(hot_artifact.trace, config,
                                  hot_artifact.analysis,
                                  trace_key=hot_artifact.trace_key)
        assert hot_engine.stats.hits("timing") == 1
        assert hot.stats == cold.stats

    def test_machine_config_changes_the_key(self, tmp_path):
        engine = make_engine(tmp_path)
        artifact = engine.run_cells([spec()])[0]
        engine.simulate(artifact.trace, contended_config(),
                        artifact.analysis, trace_key=artifact.trace_key)
        engine.simulate(artifact.trace,
                        contended_config(phys_regs=56),
                        artifact.analysis, trace_key=artifact.trace_key)
        assert engine.stats.misses("timing") == 2

    def test_no_trace_key_runs_uncached(self, tmp_path):
        engine = make_engine(tmp_path)
        artifact = engine.run_cells([spec()])[0]
        result = engine.simulate(artifact.trace, default_config(),
                                 artifact.analysis, trace_key=None)
        assert result.stats.committed == len(artifact.trace)
        assert "timing" not in engine.stats.counts


def _timing_outcomes(collector):
    """``repro_timing_total`` by its ``result`` label."""
    return {labels["result"]: metric.value
            for name, labels, metric in collector.registry.items()
            if name == "repro_timing_total"}


def _children(collector, span):
    return sorted(child.name for child in collector.tracer.spans
                  if child.parent_id == span.span_id)


class TestRegisterReuse:
    """A timing result whose register file never bound answers the
    same request with a larger ``phys_regs`` without simulating."""

    @pytest.fixture
    def telemetry(self):
        from repro import obs

        yield obs.configure_obs(obs.ObsConfig(sample_interval=64))
        obs.reset_obs()

    def test_unbound_result_answers_a_larger_register_file(
            self, tmp_path, telemetry):
        from repro.pipeline import simulate

        engine = make_engine(tmp_path)
        artifact = engine.run_cells([spec()])[0]
        source = engine.simulate(
            artifact.trace, contended_config(phys_regs=104,
                                             eliminate=True),
            artifact.analysis, trace_key=artifact.trace_key)
        assert not source.regs_bound
        config = contended_config(phys_regs=160, eliminate=True)
        reused = engine.simulate(artifact.trace, config,
                                 artifact.analysis,
                                 trace_key=artifact.trace_key)
        direct = simulate(artifact.trace, config, artifact.analysis)

        assert reused.config == config and reused.config.phys_regs == 160
        assert reused.stats == direct.stats
        assert reused.stats is not source.stats
        assert (reused.l1d_misses, reused.l2_misses) == \
            (direct.l1d_misses, direct.l2_misses)
        assert reused.timeline is not None
        assert reused.timeline == direct.timeline
        # A reuse is a cache miss that ran no simulation.
        assert engine.stats.misses("timing") == 2
        assert _timing_outcomes(telemetry) == {"miss": 1, "reuse": 1}
        simulated, reuse = [span for span in telemetry.tracer.spans
                            if span.name.startswith("timing:")]
        assert _children(telemetry, simulated) == ["sim:loop",
                                                   "sim:setup"]
        assert "reused_from" not in simulated.attrs
        assert reuse.attrs["reused_from"] == 104
        assert _children(telemetry, reuse) == []

        # The reused result was stored under its own key.
        hot = make_engine(tmp_path)
        hot_artifact = hot.run_cells([spec()])[0]
        again = hot.simulate(hot_artifact.trace, config,
                             hot_artifact.analysis,
                             trace_key=hot_artifact.trace_key)
        assert hot.stats.hits("timing") == 1
        assert again.stats == direct.stats

    def test_bound_result_is_never_reused(self, tmp_path, telemetry):
        from repro.pipeline import simulate

        engine = make_engine(tmp_path)
        artifact = engine.run_cells([spec()])[0]
        bound = engine.simulate(artifact.trace,
                                contended_config(phys_regs=44),
                                artifact.analysis,
                                trace_key=artifact.trace_key)
        assert bound.regs_bound
        config = contended_config(phys_regs=48)
        result = engine.simulate(artifact.trace, config,
                                 artifact.analysis,
                                 trace_key=artifact.trace_key)
        assert result.stats == simulate(artifact.trace, config,
                                        artifact.analysis).stats
        assert _timing_outcomes(telemetry) == {"miss": 2}
        assert all("reused_from" not in span.attrs
                   for span in telemetry.tracer.spans)

    def test_larger_register_file_never_answers_a_smaller_one(
            self, tmp_path, telemetry):
        engine = make_engine(tmp_path)
        artifact = engine.run_cells([spec()])[0]
        for phys_regs in (160, 104):
            result = engine.simulate(
                artifact.trace, contended_config(phys_regs=phys_regs),
                artifact.analysis, trace_key=artifact.trace_key)
            assert not result.regs_bound
        assert _timing_outcomes(telemetry) == {"miss": 2}

    def test_e2_identical_serial_and_parallel(self, tmp_path, capsys):
        """Pool batches reuse within their cell, the serial engine
        across the whole run: both must print the same table."""
        from repro.harness.cli import main
        from repro.harness.engine import reset_engine

        outputs = []
        try:
            for jobs in ("1", "2"):
                out = str(tmp_path / ("e2-%s.json" % jobs))
                assert main(["E2", "--scale", "0.2", "--jobs", jobs,
                             "--cache-dir", str(tmp_path / jobs),
                             "--json", out]) == 0
                with open(out, "rb") as stream:
                    outputs.append(stream.read())
        finally:
            reset_engine()
        capsys.readouterr()
        assert outputs[0] == outputs[1]


class TestSmoke:
    def test_hot_rerun_performs_zero_compile_or_trace_work(self,
                                                           tmp_path):
        """The CI smoke check: after one cold pass, a full re-run of
        the cell graph does no compile or trace stage work at all."""
        specs = [spec(workload=name)
                 for name in ("matmul", "sort", "rle")]
        make_engine(tmp_path).run_cells(specs)
        hot = make_engine(tmp_path)
        hot.run_cells(specs)
        for stage in ("compile", "trace", "analysis"):
            assert hot.stats.misses(stage) == 0, stage
            assert hot.stats.hits(stage) == len(specs), stage

    def test_no_cache_mode_never_touches_disk(self, tmp_path):
        engine = make_engine(tmp_path, cache=False, name="off")
        engine.run_cells([spec()])
        assert engine.cache is None
        assert not os.path.exists(str(tmp_path / "off"))


class TestRunMeta:
    def test_recorder_roundtrip(self, tmp_path):
        from repro.harness.runmeta import (
            RunRecorder,
            load_runs,
            summarize_runs,
        )

        recorder = RunRecorder(argv=["F1"], engine_info={"jobs": 2})
        recorder.record("F1", 1.25,
                        {"compile": {"hits": 10, "misses": 0,
                                     "seconds": 0.01}},
                        instructions=1234)
        path = recorder.write(str(tmp_path / "runs"))
        documents = load_runs(str(tmp_path / "runs"))
        assert len(documents) == 1
        document = documents[0]
        assert document["experiments"][0]["id"] == "F1"
        assert document["totals"]["instructions"] == 1234
        assert document["totals"]["stages"]["compile"]["hits"] == 10
        assert document["engine"] == {"jobs": 2}
        assert os.path.basename(path).startswith("run-")
        assert "F1" in summarize_runs(documents)

    def test_cli_cache_subcommand(self, tmp_path, capsys):
        from repro.harness.cli import main

        cache_dir = str(tmp_path / "clicache")
        engine = Engine(EngineConfig(cache=True, cache_dir=cache_dir))
        engine.run_cells([spec()])
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "compile" in out and "total" in out
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        fresh = Engine(EngineConfig(cache=True, cache_dir=cache_dir))
        fresh.run_cells([spec()])
        assert fresh.stats.misses("compile") == 1  # really cleared

    def test_cli_runs_subcommand(self, tmp_path, capsys):
        from repro.harness.cli import main
        from repro.harness.runmeta import RunRecorder

        cache_dir = str(tmp_path / "clicache")
        recorder = RunRecorder(argv=["F1"])
        recorder.record("F1", 0.5, {}, instructions=10)
        recorder.write(os.path.join(cache_dir, "runs"))
        assert main(["runs", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert recorder.run_id in out
