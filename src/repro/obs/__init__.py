"""``repro.obs`` — the in-simulator observability subsystem (ISSUE 3).

One process-wide :class:`ObsCollector` (created by :func:`configure_obs`
or the ``REPRO_OBS=1`` environment) owns everything telemetry-related:

* a :class:`~repro.obs.registry.MetricsRegistry` (counters, gauges,
  histograms, timers, Prometheus text export);
* a :class:`~repro.obs.spans.SpanTracer` collecting hierarchical
  run → experiment → stage/cell spans;
* the pipeline timelines sampled by the simulator and the predictor
  probes recorded by the evaluation walk.

The collector is *cross-process* (ISSUE 8): pool workers run under a
fresh per-task collector and ship a compact delta back with each
result, which the parent merges with ``worker="<n>"`` labels
(:mod:`repro.obs.delta`), so the registry and span tree are complete
under ``--jobs N``.  Per-run timing summaries persist to a checksummed
run history with regression gates (:mod:`repro.obs.history`), and the
merged registry is scrapeable live over HTTP while a run executes
(:mod:`repro.obs.serve`).

When no collector is configured — the default — every helper in this
module returns ``None`` or a null object, and the instrumented code
paths reduce to a single ``is not None`` test: the disabled cost is
designed to be unmeasurable (<2% on the simulator microbenchmarks;
``benchmarks/test_perf_simulators.py`` guards it).

See ``docs/observability.md`` for the full telemetry tour and the
``obs`` CLI subcommands that render stored artifacts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.introspect import PredictorProbe, table_health
from repro.obs.registry import (
    MetricsRegistry,
    NULL_REGISTRY,
    render_prometheus,
)
from repro.obs.spans import SpanTracer
from repro.obs.timeline import Timeline

__all__ = [
    "ObsCollector",
    "ObsConfig",
    "configure_obs",
    "enabled",
    "get_collector",
    "metrics",
    "new_probe",
    "new_timeline",
    "obs_config_from_env",
    "reset_obs",
    "timing_fingerprint",
]


@dataclass(frozen=True)
class ObsConfig:
    """What to collect and at what granularity."""

    #: master switch
    enabled: bool = True
    #: simulator cycles between timeline samples (before decimation)
    sample_interval: int = 256
    #: timeline ring capacity in samples (decimates when full)
    timeline_capacity: int = 512


def _env_int(name: str, default: str, minimum: int) -> int:
    text = os.environ.get(name, default)
    try:
        value = int(text)
    except ValueError:
        raise ValueError(
            "%s must be an integer, got %r" % (name, text))
    if value < minimum:
        raise ValueError(
            "%s must be >= %d, got %r" % (name, minimum, text))
    return value


def obs_config_from_env() -> Optional[ObsConfig]:
    """An :class:`ObsConfig` from ``REPRO_OBS`` (None when unset/0).
    A malformed or out-of-range ``REPRO_OBS_INTERVAL`` (< 1) or
    ``REPRO_OBS_CAPACITY`` (< 2) raises ``ValueError`` naming the
    variable, before any simulation starts."""
    if os.environ.get("REPRO_OBS", "0") in ("0", ""):
        return None
    return ObsConfig(
        enabled=True,
        sample_interval=_env_int("REPRO_OBS_INTERVAL", "256", 1),
        timeline_capacity=_env_int("REPRO_OBS_CAPACITY", "512", 2),
    )


class ObsCollector:
    """Everything one observed harness invocation accumulates."""

    def __init__(self, config: ObsConfig):
        self.config = config
        self.registry = MetricsRegistry(enabled=True)
        self.tracer = SpanTracer()
        self.timelines: List[Dict[str, object]] = []
        self.probes: List[Dict[str, object]] = []
        self._timeline_keys = set()

    # -- recording ----------------------------------------------------

    def add_timeline(self, key: str, label: str, workload: str,
                     timeline_doc: Dict[str, object],
                     stats_doc: Optional[Dict[str, object]] = None
                     ) -> None:
        """Register one simulation's timeline (deduplicated by the
        timing-stage cache key, so re-reads of a memoized result do
        not duplicate entries)."""
        if key in self._timeline_keys:
            return
        self._timeline_keys.add(key)
        self.timelines.append({
            "key": key,
            "label": label,
            "workload": workload,
            "timeline": timeline_doc,
            "stats": stats_doc or {},
        })

    def add_probe(self, workload: str, predictor: str,
                  probe: PredictorProbe, table) -> None:
        """Register one evaluation walk's predictor introspection."""
        self.probes.append({
            "workload": workload,
            "predictor": predictor,
            "probe": probe.to_dict(),
            "table": table_health(table),
        })

    # -- persistence --------------------------------------------------

    def write(self, obs_dir: str) -> Dict[str, str]:
        """Persist every artifact under *obs_dir*; returns name→path."""
        import json

        os.makedirs(obs_dir, exist_ok=True)
        artifacts: Dict[str, str] = {}

        def emit(name: str, text: str) -> None:
            path = os.path.join(obs_dir, name)
            with open(path, "w") as stream:
                stream.write(text)
            artifacts[name] = path

        emit("spans.jsonl", self.tracer.to_jsonl())
        emit("timelines.json",
             json.dumps({"timelines": self.timelines}, indent=2,
                        sort_keys=True) + "\n")
        emit("predictors.json",
             json.dumps({"probes": self.probes}, indent=2,
                        sort_keys=True) + "\n")
        emit("metrics.prom", render_prometheus(self.registry))
        return artifacts


# ---------------------------------------------------------------------
# Process-wide state
# ---------------------------------------------------------------------

_COLLECTOR: Optional[ObsCollector] = None


def configure_obs(config: Optional[ObsConfig]) -> Optional[ObsCollector]:
    """Install (or, with ``None``/disabled, remove) the collector."""
    global _COLLECTOR
    if config is None or not config.enabled:
        _COLLECTOR = None
    else:
        _COLLECTOR = ObsCollector(config)
    return _COLLECTOR


def reset_obs() -> None:
    """Drop the collector (tests)."""
    configure_obs(None)


def get_collector() -> Optional[ObsCollector]:
    return _COLLECTOR


def enabled() -> bool:
    return _COLLECTOR is not None


def metrics() -> MetricsRegistry:
    """The active registry, or the shared null registry when off."""
    collector = _COLLECTOR
    if collector is None:
        return NULL_REGISTRY
    return collector.registry


def new_timeline() -> Optional[Timeline]:
    """A fresh pipeline timeline per the active config (None when
    telemetry is off — the simulator's whole enable test)."""
    collector = _COLLECTOR
    if collector is None:
        return None
    config = collector.config
    return Timeline(interval=config.sample_interval,
                    capacity=config.timeline_capacity)


def new_probe() -> Optional[PredictorProbe]:
    """A fresh predictor probe (None when telemetry is off)."""
    if _COLLECTOR is None:
        return None
    return PredictorProbe()


def timing_fingerprint() -> str:
    """Discriminates telemetry-bearing timing artifacts in cache keys:
    an observed simulation carries its timeline inside the cached
    ``PipelineResult``, so it must not collide with the plain entry
    (or with a different sampling configuration)."""
    collector = _COLLECTOR
    if collector is None:
        return ""
    return "obs:%d:%d" % (collector.config.sample_interval,
                          collector.config.timeline_capacity)
