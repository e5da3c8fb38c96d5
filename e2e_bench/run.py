"""End-to-end benchmark of the experiment harness, with per-layer attribution.

Run from the root of a checkout:

    python3 e2e_bench/run.py --workload timing-cold --seed 1 \\
        --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json`` for the one-line rationale of each):

* ``timing-cold`` - experiment E2, serial, empty cache;
* ``predict-hot`` - F5, F6, A1 and A2, serial, against a cache filled
  during set-up;
* ``corpus-cold`` - a generated-corpus run table (G1-shaped), ``jobs=2``,
  empty cache, programs drawn from ``--seed``.

The curated workloads have fixed inputs: ``--seed`` only changes the
generated corpus.  Every timed repetition runs in a fresh interpreter
(``child.py``) with its own cache root under ``.bench_work/`` and no
``REPRO_*`` variables.  Repetitions repeat until the next one would end
after ``--seconds``; each metric is the median over repetitions.  With
``--trace 1`` untraced and traced repetitions alternate and the output
is the per-layer table (``layers.py``) instead of the end-to-end one.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Outside a checkout (no ``src/repro``) the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
#: import-only processes per run, on top of one set-up sample per
#: repetition, so set-up time is always a median of several samples
SETUP_PROBES = 2
#: the longest any single child may take before it counts as failed
CHILD_TIMEOUT = 150.0


def _parse(argv):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("timing-cold", "predict-hot",
                                 "corpus-cold"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the smoke-test size")
    return parser.parse_args(argv)


def _child_env(root):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class Runner:
    """Starts child processes and collects their samples."""

    def __init__(self, args, root, work):
        self.args = args
        self.root = root
        self.work = work
        self.env = _child_env(root)
        self.setup = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.environment = None

    def new_cache(self):
        return tempfile.mkdtemp(prefix="cache-", dir=self.work)

    def child(self, mode, cache="", trace=0):
        """Run one child; returns its JSON document (None on failure).
        Its set-up sample (spawn to imports done) is recorded."""
        command = [sys.executable, CHILD, "--mode", mode,
                   "--workload", self.args.workload, "--cache", cache,
                   "--seed", str(self.args.seed), "--size", self.args.size,
                   "--trace", str(trace)]
        spawned = time.monotonic()
        # A session of its own, so a timed-out child is stopped together
        # with any pool workers it started.
        proc = subprocess.Popen(command, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE,
                                start_new_session=True)
        out = None
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.errors.append("%s child timed out" % mode)
        finally:
            if proc.returncode is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        lines = (out or b"").decode("utf-8", "replace").strip().splitlines()
        if out is not None and (proc.returncode != 0 or not lines):
            self.errors.append("%s child exited with %d"
                               % (mode, proc.returncode))
        if out is None or proc.returncode != 0 or not lines:
            if mode != "probe":
                # The child's own count is lost: count it as one failure.
                self.attempted += 1
                self.failed += 1
            return None
        doc = json.loads(lines[-1])
        self.setup.append(doc["ready"] - spawned)
        if mode != "probe":
            self.attempted += doc["attempted"]
            self.failed += doc["failed"]
            self.errors.extend(doc["errors"])
        return doc


def _cache_bytes(root):
    """Bytes on disk in the stage and artifact tiers of a cache root."""
    total = 0
    for tier in ("stages", "artifacts"):
        for directory, _dirs, files in os.walk(os.path.join(root, tier)):
            for name in files:
                total += os.path.getsize(os.path.join(directory, name))
    return total


def run(args, root, work):
    runner = Runner(args, root, work)
    hot = args.workload == "predict-hot"
    for _ in range(SETUP_PROBES):
        doc = runner.child("probe")
        if doc is not None and runner.environment is None:
            runner.environment = doc["env"]
    fill_s = 0.0
    hot_cache = ""
    fill_calls = None
    if hot:
        hot_cache = runner.new_cache()
        fill = runner.child("fill", hot_cache, trace=args.trace)
        if fill is None:
            return runner, None, None
        fill_s = fill["wall_s"]
        fill_calls = fill.get("calls")

    samples = {"wall": [], "rss": [], "cache": [], "traced": [],
               "layers": [], "calls": []}
    started = time.monotonic()
    last = 0.0
    while not samples["wall"] or (
            time.monotonic() - started + last <= args.seconds):
        began = time.monotonic()
        for trace in ((0, 1) if args.trace else (0,)):
            cache = hot_cache or runner.new_cache()
            doc = runner.child("rep", cache, trace=trace)
            if doc is None:
                continue
            if trace:
                samples["traced"].append(doc["wall_s"])
                samples["layers"].append(doc["layers"])
                samples["calls"].append(doc["calls"])
            else:
                samples["wall"].append(doc["wall_s"])
                samples["rss"].append(doc["peak_rss_kb"] / 1024.0)
                samples["cache"].append(_cache_bytes(cache) / 2.0 ** 20)
            if not hot:
                shutil.rmtree(cache, ignore_errors=True)
        last = time.monotonic() - began
        if not samples["wall"]:
            break
    if not samples["wall"] or (args.trace and not samples["traced"]):
        return runner, None, None

    if args.trace:
        # One whole traced repetition (the median one), so its layer
        # rows still add up to its wall time.
        order = sorted(range(len(samples["traced"])),
                       key=samples["traced"].__getitem__)
        middle = order[(len(order) - 1) // 2]
        metrics = dict(samples["layers"][middle])
        metrics["trace_overhead_frac"] = (
            statistics.median(samples["traced"])
            / statistics.median(samples["wall"]) - 1.0)
        calls = {"rep": samples["calls"][middle], "setup": fill_calls}
    else:
        metrics = {"wall_s": statistics.median(samples["wall"]),
                   "setup_s": statistics.median(runner.setup) + fill_s,
                   "peak_rss_mb": statistics.median(samples["rss"]),
                   "cache_mb": statistics.median(samples["cache"])}
        calls = None
    return runner, metrics, {"samples": samples, "fill_s": fill_s,
                             "calls": calls}


def _declared(root, trace):
    """(name, unit) of every metric BENCHMARK.json declares for this
    kind of run."""
    with open(os.path.join(root, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    return [(entry["name"], entry["unit"])
            for entry in spec["per_layer" if trace else "end_to_end"]]


def _source_commit(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    text = proc.stdout.decode().strip()
    return text if proc.returncode == 0 and text else None


def _source_digest(root):
    """SHA-256 over ``src/`` (paths and contents), which identifies the
    code measured where there is no git metadata."""
    digest = hashlib.sha256()
    source = os.path.join(root, "src")
    for directory, dirs, files in os.walk(source):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, source).encode())
                with open(path, "rb") as stream:
                    digest.update(stream.read())
    return digest.hexdigest()


def main(argv=None):
    args = _parse(argv)
    root = os.getcwd()
    for needed in (os.path.join("src", "repro", "__init__.py"),
                   os.path.join("results", "canonical.json"),
                   "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            print("not a repro checkout: %s is missing" % needed,
                  file=sys.stderr)
            return 2
    declared = _declared(root, args.trace)
    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        runner, metrics, detail = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run is still using it
            pass
    for error in runner.errors:
        print("error: %s" % error.rstrip(), file=sys.stderr)
    if metrics is None:
        print("no successful repetition", file=sys.stderr)
        return 1

    environment = dict(runner.environment or {})
    environment["commit"] = _source_commit(root)
    environment["source_sha256"] = _source_digest(root)
    print("environment %s" % json.dumps(environment, sort_keys=True))
    samples = detail["samples"]
    print("samples setup_s=%s fill_s=%.4f wall_s=%s traced_wall_s=%s" % (
        ["%.4f" % value for value in runner.setup], detail["fill_s"],
        ["%.4f" % value for value in samples["wall"]],
        ["%.4f" % value for value in samples["traced"]]))
    if detail["calls"] is not None:
        print("layer-calls %s" % json.dumps(detail["calls"],
                                            sort_keys=True))
    missing = [name for name, _unit in declared if name not in metrics]
    if missing:
        print("metrics not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    for name, unit in declared:
        print("%-36s %14.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
