"""Smoke test of the benchmark at its tiny size.

    python3 -m pytest -q e2e_bench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that each workload passes its correctness gate, that every layer sees at
least one call on the workloads ``layers.LAYERS`` says it works on (so a
moved import site cannot silently zero a layer), and that the layer
self times add up to the traced wall time.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import LAYERS  # noqa: E402

WORKLOADS = ("timing-cold", "predict-hot", "corpus-cold")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("e2e_bench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=180, universal_newlines=True)


def test_workloads_match_benchmark_json():
    assert [entry["name"] for entry in _spec()["workloads"]] == \
        list(WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_emits_every_metric_and_passes_the_gate(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(e["name"] for e in declared)
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for name in ("wall_s", "setup_s", "peak_rss_mb", "cache_mb"):
            assert result["metrics"][name]["value"] > 0
        return

    calls = json.loads(next(line for line in lines
                            if line.startswith("layer-calls "))
                       .split(" ", 1)[1])
    for layer, info in LAYERS.items():
        for where in info["moves"]:
            name, _, phase = where.partition(":")
            if name == workload:
                seen = calls[phase or "rep"][layer]
                assert seen >= 1, "%s saw no call on %s" % (layer, where)
        if workload in info.get("no_effect", {}):
            assert calls["rep"][layer] == 0, \
                "%s ran on %s" % (layer, workload)

    metrics = {name: metric["value"]
               for name, metric in result["metrics"].items()}
    units = {entry["name"]: entry["unit"] for entry in declared}
    self_times = [value for name, value in metrics.items()
                  if units[name] == "s" and name != "traced_wall_s"]
    assert min(self_times) >= -1e-6
    assert sum(self_times) == pytest.approx(metrics["traced_wall_s"],
                                            rel=1e-9, abs=1e-9)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    shutil.copytree(HERE, str(tmp_path / "e2e_bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("corpus-cold", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
