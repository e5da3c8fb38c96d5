"""The trace-kernel layer: fused-pass equivalence, prediction streams,
front-end columns, pass timings (docs/kernels.md)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro import kernels
from repro.analysis import analyze_deadness
from repro.analysis.distance import kill_distances
from repro.pipeline.core import _classify_fu
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def traced():
    workload = get_workload("sort")
    _machine, trace = workload.run(scale=0.3)
    return trace, analyze_deadness(trace)


# ---------------------------------------------------------------------
# Kernel equivalence (fused vs granular)
# ---------------------------------------------------------------------

class TestKernels:
    def test_decode_column_matches_accessor(self, traced):
        trace, _analysis = traced
        sidx = kernels.static_indices(trace)
        assert list(sidx) == [trace.static_index(i)
                              for i in range(len(trace))]

    @pytest.mark.parametrize("track_stores", (True, False))
    def test_fused_matches_analysis(self, track_stores, traced):
        trace, _analysis = traced
        analysis = analyze_deadness(trace, track_stores=track_stores)
        decoded = kernels.decode(trace)
        fused = kernels.fused(decoded, track_stores=track_stores)
        columns = fused.deadness
        assert columns.dead == analysis.dead
        assert columns.direct == analysis.direct
        assert columns.n_eligible == analysis.n_eligible
        assert columns.n_dead == analysis.n_dead
        assert columns.n_direct == analysis.n_direct
        assert columns.n_dead_stores == analysis.n_dead_stores

    def test_fused_matches_granular_kernels(self, traced):
        trace, analysis = traced
        decoded = kernels.decode(trace)
        fused = kernels.fused(decoded)
        deadness = kernels.deadness(decoded)
        kills = kernels.kill_distances(decoded, deadness.dead)
        counts = kernels.static_counts(decoded, deadness.dead)
        assert fused.deadness.dead == deadness.dead
        assert fused.kills.distances == kills.distances
        assert fused.kills.unkilled == kills.unkilled
        assert fused.kills.by_provenance == kills.by_provenance
        assert fused.counts.totals == counts.totals
        assert fused.counts.deads == counts.deads

    def test_fused_matches_kill_distance_stats(self, traced):
        trace, analysis = traced
        stats = kill_distances(analysis)
        fused = getattr(analysis, "fused", None)
        assert fused is not None
        assert stats.distances == fused.kills.distances
        assert stats.unkilled == fused.kills.unkilled

    def test_prediction_stream_mirrors_eligibility(self, traced):
        trace, analysis = traced
        decoded = kernels.decode(trace)
        stream = kernels.prediction_stream(decoded, analysis.dead)
        eligible = analysis.statics.eligible
        is_cond = analysis.statics.is_cond_branch
        expected_eligible = [i for i in range(len(trace))
                             if eligible[decoded.sidx[i]]]
        expected_branches = [i for i in range(len(trace))
                             if not eligible[decoded.sidx[i]]
                             and is_cond[decoded.sidx[i]]]
        assert stream.eligible_index == expected_eligible
        assert stream.branch_index == expected_branches
        assert stream.eligible_pc == [trace.pcs[i]
                                      for i in expected_eligible]
        assert stream.eligible_dead == [analysis.dead[i]
                                        for i in expected_eligible]
        assert stream.branch_taken == [trace.taken[i]
                                       for i in expected_branches]
        assert stream.n_events == \
            len(expected_eligible) + len(expected_branches)

    def test_stream_memoized_on_analysis(self, traced):
        _trace, analysis = traced
        first = kernels.prediction_stream_for(analysis)
        assert kernels.prediction_stream_for(analysis) is first

    def test_frontend_columns_match_statics(self, traced):
        trace, analysis = traced
        statics = analysis.statics
        fu = _classify_fu(statics)
        decoded = kernels.decode(trace)
        front = kernels.frontend(decoded, fu)
        n = len(trace)
        sidx = decoded.sidx
        assert front.dest == [statics.dest[s] for s in sidx]
        assert front.src1 == [statics.src1[s] for s in sidx]
        assert front.src2 == [statics.src2[s] for s in sidx]
        assert front.is_load == [statics.is_load[s] for s in sidx]
        assert front.is_store == [statics.is_store[s] for s in sidx]
        assert front.eligible == [statics.eligible[s] for s in sidx]
        assert front.fu == [fu[s] for s in sidx]
        assert front.control_index == [
            i for i in range(n) if statics.is_branch[sidx[i]]]
        conds = [int(statics.is_cond_branch[s]) for s in sidx]
        assert len(front.cond_prefix) == n + 1
        assert front.cond_prefix == [sum(conds[:i])
                                     for i in range(n + 1)]

    def test_frontend_element_types_are_plain(self, traced):
        trace, analysis = traced
        decoded = kernels.decode(trace)
        front = kernels.frontend(decoded, _classify_fu(analysis.statics))
        assert type(front.dest[0]) is int
        assert type(front.is_load[0]) is bool
        assert type(front.cond_prefix[-1]) is int


# ---------------------------------------------------------------------
# Pass timings
# ---------------------------------------------------------------------

class TestPassTimings:
    def test_totals_accumulate_per_pass(self, traced):
        trace, analysis = traced
        kernels.reset_pass_totals()
        decoded = kernels.decode(trace)
        kernels.fused(decoded)
        kernels.prediction_stream(decoded, analysis.dead)
        totals = kernels.pass_totals()
        assert totals["fused"]["calls"] == 1
        assert totals["fused"]["items"] == len(trace)
        assert totals["fused"]["seconds"] >= 0.0
        assert "prediction-stream" in totals
        kernels.reset_pass_totals()
        assert kernels.pass_totals() == {}


# ---------------------------------------------------------------------
# Optional-dependency fallback
# ---------------------------------------------------------------------

class TestNumpyFallback:
    def test_fallback_without_numpy(self, tmp_path):
        """With NumPy unimportable the kernel layer must import and
        run — proved in a subprocess whose ``sys.path`` front is a
        stub ``numpy`` that refuses to import."""
        (tmp_path / "numpy.py").write_text(
            "raise ImportError('stubbed out for the fallback test')\n")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join((str(tmp_path), src))
        script = (
            "from repro import kernels\n"
            "assert kernels.default_backend_name() == 'python'\n"
            "from repro.workloads import get_workload\n"
            "_, trace = get_workload('sort').run(scale=0.1)\n"
            "decoded = kernels.decode(trace)\n"
            "fused = kernels.fused(decoded)\n"
            "assert fused.deadness.n_dead > 0\n"
            "print('fallback-ok')\n")
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True,
                                env=env)
        assert result.returncode == 0, result.stderr
        assert "fallback-ok" in result.stdout
