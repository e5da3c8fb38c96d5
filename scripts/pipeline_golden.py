#!/usr/bin/env python
"""Write the pipeline golden fixture (``tests/data/pipeline_golden.json``).

The fixture pins the cycle-level core's complete output — every
``PipelineStats`` counter plus the L1/L2 miss counts — over a corpus x
machine grid, so a rewrite of the cycle loop can be checked cycle for
cycle against the code that wrote the fixture
(``tests/test_pipeline_golden.py``).

* Corpus: the curated suite at scale 0.2 and 20 seeded ``gen:``
  programs whose knobs vary with the seed.
* Machines, each as a base/elim pair: the contended core at 44, 72,
  104 and 160 physical registers; the default core; the default core
  with flush recovery; and the contended core with an 8-entry issue
  queue and a 4-cycle verify timeout, with no replay reserve, and
  with store elimination off.
* Two telemetry-on runs record their whole timeline document, with a
  small sampling grid so that decimation happens.

Regenerate only from a commit whose core is known good (the point of
the fixture is to be written *before* the core changes)::

    PYTHONPATH=src python scripts/pipeline_golden.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from repro import obs
from repro.analysis import analyze_deadness
from repro.pipeline import contended_config, default_config, simulate
from repro.pipeline.stats import PipelineStats
from repro.workloads import get_workload, workload_names

SCALE = 0.2
PRESETS = {"default": default_config, "contended": contended_config}

#: (preset, overrides) per machine; each runs with eliminate off and on
MACHINES = (
    [("contended", {"phys_regs": regs}) for regs in (44, 72, 104, 160)]
    + [("default", {}),
       ("default", {"recovery_mode": "flush"}),
       ("contended", {"iq_size": 8, "verify_timeout": 4}),
       ("contended", {"replay_reserve_pregs": 0}),
       ("contended", {"eliminate_stores": False})])

#: (workload, preset, overrides) of the telemetry-on runs
TIMELINE_RUNS = (
    ("pchase", "contended", {"eliminate": True}),
    ("board", "default", {"eliminate": True, "recovery_mode": "flush"}),
)
TIMELINE_OBS = {"sample_interval": 16, "timeline_capacity": 64}

STATS_FIELDS = [f.name for f in fields(PipelineStats)]


def corpus():
    """The fixture's workload names, curated suite first."""
    generated = ["gen:s%d:n100:b%d:d%d:p%d"
                 % (seed, 20 + 20 * (seed % 4), 10 + 20 * (seed % 3),
                    (50, 85, 100)[seed % 3])
                 for seed in range(1, 21)]
    return workload_names() + generated


def machine_config(preset: str, overrides: dict):
    return PRESETS[preset](**overrides)


def record(result) -> list:
    """One run as a flat list: stats in :data:`STATS_FIELDS` order,
    then the L1 and L2 miss counts."""
    stats = result.stats
    return ([getattr(stats, name) for name in STATS_FIELDS]
            + [result.l1d_misses, result.l2_misses])


def build(frontend=None) -> dict:
    runs = []
    for name in corpus():
        _machine, trace = get_workload(name).run(scale=SCALE)
        analysis = analyze_deadness(trace)
        for preset, overrides in MACHINES:
            for eliminate in (False, True):
                run = dict(overrides, eliminate=eliminate)
                result = simulate(trace, machine_config(preset, run),
                                  analysis, frontend=frontend)
                runs.append({"workload": name, "preset": preset,
                             "overrides": run,
                             "values": record(result)})
    timelines = []
    obs.configure_obs(obs.ObsConfig(**TIMELINE_OBS))
    try:
        for name, preset, overrides in TIMELINE_RUNS:
            _machine, trace = get_workload(name).run(scale=SCALE)
            result = simulate(trace, machine_config(preset, overrides),
                              analyze_deadness(trace), frontend=frontend)
            timelines.append({"workload": name, "preset": preset,
                              "overrides": overrides,
                              "timeline": result.timeline})
    finally:
        obs.reset_obs()
    return {"scale": SCALE, "obs": TIMELINE_OBS,
            "fields": STATS_FIELDS + ["l1d_misses", "l2_misses"],
            "runs": runs, "timelines": timelines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests",
        "data", "pipeline_golden.json"))
    args = parser.parse_args(argv)
    doc = build()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as stream:
        # One run per line keeps the file diffable and compact.
        stream.write("{\n")
        for key in ("scale", "obs", "fields", "timelines"):
            stream.write("%s: %s,\n" % (json.dumps(key),
                                        json.dumps(doc[key],
                                                   sort_keys=True)))
        stream.write('"runs": [\n')
        stream.write(",\n".join(json.dumps(run, sort_keys=True)
                                for run in doc["runs"]))
        stream.write("\n]\n}\n")
    print("wrote %d runs and %d timelines to %s"
          % (len(doc["runs"]), len(doc["timelines"]), args.out),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
