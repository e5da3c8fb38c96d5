#!/usr/bin/env python
"""CI gate for the cross-process telemetry plane (ISSUE 8).

Launches a two-worker observed sweep with a live ``/metrics``
endpoint, scrapes it **while the run executes**, and then gates the
finished run:

1. the mid-run exposition must parse cleanly
   (:func:`repro.obs.registry.lint_exposition`) and — across polls —
   surface worker-labeled ``repro_kernel_pass_*`` series, proving the
   worker deltas merge into the live registry, not just the stored
   artifact;
2. the run must exit 0 and its stored ``metrics.prom`` must carry
   ``worker="..."`` series;
3. ``obs regress`` against the committed baseline
   (``results/obs-baseline.jsonl``) must pass at a generous threshold
   (CI machines are slow, not 50x slow).

Run from the repository root::

    PYTHONPATH=src python scripts/obs_scrape_check.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO, "results", "obs-baseline.jsonl")
#: must mirror the baseline's config fingerprint (experiments,
#: scale) — see repro.obs.history.fingerprint
EXPERIMENTS = ["F7", "F8"]
SCALE = "0.3"
THRESHOLD = "50"
ENDPOINT_RE = re.compile(
    r"serving /metrics on (http://[\d.]+:\d+)/metrics")


def fail(message: str) -> None:
    print("FAIL: %s" % message, file=sys.stderr)
    sys.exit(1)


def scrape(base_url: str) -> str:
    """One scrape; None when the endpoint vanished (the run finished
    between the liveness poll and the request — not a failure, the
    loop re-checks the process)."""
    try:
        with urllib.request.urlopen(base_url + "/metrics",
                                    timeout=5) as response:
            if response.status != 200:
                fail("/metrics returned %d" % response.status)
            return response.read().decode("utf-8")
    except (urllib.error.URLError, ConnectionError, OSError):
        return None


def main() -> int:
    sys.path.insert(0, os.path.join(REPO, "src"))
    from repro.obs.registry import lint_exposition

    cache = tempfile.mkdtemp(prefix="repro-obs-scrape-")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    command = [sys.executable, "-m", "repro.harness.cli",
               *EXPERIMENTS, "--scale", SCALE, "--jobs", "2",
               "--obs", "--serve-metrics", "0", "--cache-dir", cache]
    print("launching: %s" % " ".join(command))
    process = subprocess.Popen(command, cwd=REPO, env=env,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True)

    # The endpoint line is printed (flushed) before the first
    # experiment starts, so reading lines until it appears cannot
    # deadlock on a full pipe.
    base_url = None
    head = []
    for line in process.stdout:
        head.append(line)
        match = ENDPOINT_RE.search(line)
        if match:
            base_url = match.group(1)
            break
    if base_url is None:
        process.wait()
        fail("no endpoint line in output:\n%s" % "".join(head))
    print("scraping %s while the sweep runs" % base_url)

    # Poll the live endpoint until the run finishes; every scrape must
    # lint clean, and at least one must show merged worker series.
    scrapes = 0
    saw_worker_pass = False
    while process.poll() is None:
        body = scrape(base_url)
        if body is None:  # endpoint already gone: run just finished
            break
        scrapes += 1
        problems = lint_exposition(body)
        if problems:
            process.kill()
            fail("mid-run exposition lint: %s" % "; ".join(problems))
        if re.search(r'repro_kernel_pass_\w+\{[^}]*worker="', body):
            saw_worker_pass = True
        time.sleep(0.05)
    tail = process.stdout.read()
    process.wait()
    if process.returncode != 0:
        fail("harness run exited %d:\n%s" % (process.returncode, tail))
    # /healthz must have been live too (checked post-run is fine: the
    # daemon thread dies with the process, so this ran mid-run).
    print("run finished after %d live scrape%s" %
          (scrapes, "" if scrapes == 1 else "s"))
    if scrapes == 0:
        fail("run finished before a single scrape landed "
             "(workload too small for this gate)")
    if not saw_worker_pass:
        fail("no worker-labeled repro_kernel_pass_* series appeared "
             "in %d live scrapes" % scrapes)

    # The stored exposition carries the merged worker series as well.
    runs_root = os.path.join(cache, "runs")
    stored = [os.path.join(runs_root, name, "metrics.prom")
              for name in os.listdir(runs_root)
              if name.startswith("obs-")]
    if len(stored) != 1:
        fail("expected exactly one stored obs dir, found %d"
             % len(stored))
    with open(stored[0]) as stream:
        text = stream.read()
    if lint_exposition(text):
        fail("stored metrics.prom fails lint")
    if 'worker="' not in text:
        fail("stored metrics.prom has no worker-labeled series")
    print("stored exposition clean, worker series present")

    # History must have been appended, and the regression gate must
    # pass against the committed baseline.
    history = os.path.join(cache, "obs-history", "history.jsonl")
    with open(history) as stream:
        records = [json.loads(line) for line in stream if line.strip()]
    if len(records) != 1:
        fail("expected one history record, found %d" % len(records))
    gate = subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", "obs", "regress",
         "--cache-dir", cache, "--against", BASELINE,
         "--threshold", THRESHOLD],
        cwd=REPO, env=env, capture_output=True, text=True)
    print(gate.stdout, end="")
    if gate.returncode != 0:
        fail("obs regress gate failed (exit %d):\n%s%s"
             % (gate.returncode, gate.stdout, gate.stderr))
    if "baseline record" not in gate.stdout or \
            "0 baseline records" in gate.stdout:
        fail("regress gate did not compare against the committed "
             "baseline — fingerprint drift? (%r)" % gate.stdout)
    print("OK: live scrape, worker merge, history, and regression "
          "gate all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
