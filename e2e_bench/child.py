"""One benchmark process: set-up probe, cache fill, or timed repetition.

``run.py`` starts this file in a fresh interpreter for every sample, so
each repetition pays its own process start and imports and sees only its
own cache root.  It prints one JSON object as its last stdout line.

    python3 e2e_bench/child.py --mode rep --workload timing-cold \\
        --cache DIR --seed 1 --size full --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback

#: ``--size`` -> experiment scale and the generated corpus' source-line
#: budget.  The full size runs the curated suite at the scale of
#: ``results/canonical.json``; the tiny size is for the smoke test and
#: is checked against ``reference_tiny.json``.
SIZES = {
    "full": {"scale": 1.0, "corpus_stmts": 100, "corpus_lines": 8000,
             "reference": os.path.join("results", "canonical.json")},
    "tiny": {"scale": 0.1, "corpus_stmts": 20, "corpus_lines": 300,
             "reference": os.path.join("e2e_bench",
                                       "reference_tiny.json")},
}

#: workload -> (curated experiments run, or None for the corpus grid;
#: engine jobs; whether the cache is cold when the repetition starts)
WORKLOADS = {
    "timing-cold": (("E2",), 1, True),
    "predict-hot": (("F5", "F6", "A1", "A2"), 1, False),
    "corpus-cold": (None, 2, True),
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("probe", "fill", "rep"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--cache", default="")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def corpus_names(seed: int, stmts: int, lines: int):
    """Names of generated *stmts*-statement ``gen:`` programs drawn from
    *seed* until their Mini-C sources total at least *lines* lines (a
    fixed input size, so the corpus' cost varies less with the seed than
    a fixed program count would)."""
    from repro.workloads.generate import generated_workload

    rng = random.Random(seed)
    names, total = [], 0
    while total < lines:
        name = "gen:s%d:n%d" % (rng.randrange(1, 1 << 30), stmts)
        names.append(name)
        total += generated_workload(name).source(1.0).count("\n")
    return names


def _experiment_doc(result):
    """An experiment's output exactly as ``repro-harness --json``
    writes it (after a JSON round trip)."""
    return json.loads(json.dumps({
        "title": result.title,
        "tables": [{"title": table.title, "columns": table.columns,
                    "rows": table.rows} for table in result.tables]}))


def _run_curated(ids, scale, reference):
    """Run each experiment; returns (wall seconds, failures, attempted)."""
    from repro.harness.experiments import run_experiment

    docs, failures = {}, []
    started = time.perf_counter()
    for identifier in ids:
        try:
            docs[identifier] = _experiment_doc(
                run_experiment(identifier, scale=scale))
        except Exception:
            failures.append("%s raised: %s" % (
                identifier, traceback.format_exc(limit=3)))
    wall = time.perf_counter() - started
    for identifier, doc in docs.items():
        if doc != reference.get(identifier):
            failures.append("%s output differs from the reference"
                            % identifier)
    return wall, failures, len(ids)


def _run_corpus(names, scale, engine):
    """The G1-shaped grid: each program x {contended, default} machine,
    a base/elim simulation pair per cell, through the run-table layer;
    returns (wall seconds, failures, attempted)."""
    from repro.harness.runtable import Factor, RunTable, RunTableExecutor
    from repro.pipeline import contended_config, default_config
    from repro.workloads import generate

    def measure(ctx, point):
        run = ctx.run_for(point["workload"].payload)
        base, elim = ctx.pair(run, point["machine"].payload)
        return {"n": len(run.trace), "output": run.output,
                "committed": (base.stats.committed, elim.stats.committed)}

    table = RunTable(
        id="corpus", title="generated corpus timing grid",
        factors=[Factor("workload", names),
                 Factor("machine", [("contended", contended_config()),
                                    ("default", default_config())])],
        metrics=["n"], measure=measure, summarize=lambda result: result)
    cells = len(names) * 2
    started = time.perf_counter()
    try:
        result = RunTableExecutor(table, scale=scale, engine=engine).run()
    except Exception:
        return (time.perf_counter() - started,
                ["corpus grid raised: %s" % traceback.format_exc(limit=3)]
                * cells, cells)
    wall = time.perf_counter() - started
    failures = []
    for cell in result.cells:
        name = cell.labels["workload"]
        spec = generate.parse_generated_name(name)
        expected = generate.interpret_program(
            generate.generate_ast(spec, scale))
        if cell["output"] != expected:
            failures.append("%s output differs from the interpreter" % name)
        elif cell["committed"] != (cell["n"], cell["n"]):
            failures.append("%s/%s committed %s of %d instructions" % (
                name, cell.labels["machine"], cell["committed"], cell["n"]))
    return wall, failures, cells


def _stage_failures(counts, cold, programs):
    """Cold: no compile/trace/analysis hit and one miss per program.
    Hot: no miss in any stage."""
    failures = []
    for stage in ("compile", "trace", "analysis"):
        bucket = counts.get(stage, {"hits": 0, "misses": 0})
        if cold and (bucket["hits"] != 0 or bucket["misses"] != programs):
            failures.append("cold %s stage: %d hits / %d misses, expected "
                            "0 / %d" % (stage, bucket["hits"],
                                        bucket["misses"], programs))
    if not cold:
        for stage, bucket in sorted(counts.items()):
            if bucket["misses"]:
                failures.append("hot %s stage missed %d times"
                                % (stage, bucket["misses"]))
    return failures


def _environment(seed, size, jobs):
    from repro import kernels

    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"backend": kernels.default_backend_name(),
            "numpy": numpy_version,
            "python": sys.version.split()[0],
            "nproc": os.cpu_count(),
            "seed": seed, "scale": SIZES[size]["scale"], "jobs": jobs}


def main(argv=None):
    args = _parse(argv)
    from repro import kernels
    from repro.harness import engine as engine_module
    import repro.harness.experiments  # noqa: F401  (the full import set)

    ready = time.monotonic()
    ids, jobs, cold = WORKLOADS[args.workload]
    if args.mode == "probe":
        print(json.dumps({"ready": ready, "env": _environment(
            args.seed, args.size, jobs)}))
        return 0
    size = SIZES[args.size]
    scale = size["scale"]
    engine = engine_module.configure(engine_module.EngineConfig(
        jobs=jobs, cache_dir=args.cache))
    if ids is None:
        # Drawing the names generates each program's AST, which the
        # generator memoizes: making the inputs stays out of the timing.
        names = corpus_names(args.seed, size["corpus_stmts"],
                             size["corpus_lines"])
        programs = len(names)
    else:
        with open(size["reference"]) as stream:
            reference = json.load(stream)["experiments"]
        from repro.workloads import workload_names
        programs = len(workload_names())

    recorder = None
    if args.trace:
        from layers import Recorder

        recorder = Recorder()
        recorder.install()
    kernels_before = kernels.pass_totals()
    if ids is None:
        wall, failures, attempted = _run_corpus(names, scale, engine)
    else:
        wall, failures, attempted = _run_curated(ids, scale, reference)
    kernels_after = kernels.pass_totals()

    counts = engine.stats.snapshot()["counts"]
    stage_failures = []
    if args.mode == "rep":
        stage_failures = _stage_failures(counts, cold, programs)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    doc = {"ready": ready, "wall_s": wall, "attempted": attempted,
           "failed": min(len(failures), attempted),
           "errors": failures + stage_failures,
           "peak_rss_kb": usage}
    if recorder is not None:
        from layers import LAYERS, layer_metrics

        doc["layers"] = layer_metrics(recorder, wall, kernels_before,
                                      kernels_after, counts)
        calls = {layer: recorder.rows[layer]["calls"]
                 if layer in recorder.rows else 0 for layer in LAYERS}
        for name, bucket in kernels_after.items():
            before = kernels_before.get(name, {"calls": 0})
            calls["kernels.%s" % name.replace("-", "_")] = (
                bucket["calls"] - before["calls"])
        doc["calls"] = calls
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
