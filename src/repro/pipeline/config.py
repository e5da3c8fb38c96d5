"""Machine configuration presets.

Two presets match the paper's evaluation axes:

* :func:`default_config` — a generously provisioned 4-wide core where
  resources rarely saturate; elimination mostly shows up as resource-
  traffic reduction (experiment F7).
* :func:`contended_config` — the same core starved of physical
  registers, issue-queue slots, register-file read ports, and a memory
  port: the "architecture exhibiting resource contention" on which the
  paper reports its 3.6% average speedup (experiment F8).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.keys import config_key


@dataclass(frozen=True)
class DeadPredictorConfig:
    """Parameters of the dead-instruction predictor in the pipeline."""

    entries: int = 2048
    tag_bits: int = 8
    path_bits: int = 3
    conf_bits: int = 2
    #: acting threshold: the pipeline only eliminates at full
    #: confidence (a false "dead" costs a recovery, a false "live"
    #: only forfeits a small saving)
    threshold: int = 3

    def to_key(self) -> str:
        """Canonical serialization for cache keying (repro.keys)."""
        return config_key(self)


@dataclass(frozen=True)
class MachineConfig:
    """Every knob of the simulated core."""

    name: str = "default"

    # Widths.
    fetch_width: int = 4
    rename_width: int = 4
    issue_width: int = 4
    commit_width: int = 4

    # Windows.
    rob_size: int = 128
    iq_size: int = 48
    lsq_size: int = 32
    #: total physical registers (32 architectural + renaming headroom)
    phys_regs: int = 160

    # Function units (per-cycle issue limits by class).
    alu_units: int = 4
    mul_units: int = 1
    div_units: int = 1
    branch_units: int = 2
    mem_ports: int = 2
    rf_read_ports: int = 8

    # Latencies (cycles).
    alu_latency: int = 1
    mul_latency: int = 3
    div_latency: int = 12
    branch_latency: int = 1
    #: address generation before the cache access
    agen_latency: int = 1

    # Front end.
    gshare_entries: int = 4096
    gshare_history: int = 12
    ras_depth: int = 16
    #: cycles from mispredicted-branch resolution to useful fetch
    redirect_penalty: int = 8

    # Memory hierarchy.
    l1d_sets: int = 128
    l1d_ways: int = 4
    l1d_line: int = 32
    l1d_latency: int = 2
    l2_sets: int = 512
    l2_ways: int = 8
    l2_latency: int = 12
    memory_latency: int = 80

    # Dead-instruction elimination.
    eliminate: bool = False
    dead_predictor: DeadPredictorConfig = field(
        default_factory=DeadPredictorConfig)
    #: also eliminate predicted-dead stores.  The timing model treats
    #: a dead store's verification as immediate (performed by the
    #: memory-order queue when the overwriting store retires); register
    #: elimination results are insensitive to this flag.
    eliminate_stores: bool = True
    #: recovery mechanism: "replay" re-dispatches the squashed
    #: instruction (and its eliminated-producer chain) from the ROB;
    #: "flush" squashes back to the producer and refetches
    recovery_mode: str = "replay"
    #: rename-stall cycles charged for a replay repair
    replay_penalty: int = 1
    #: cycles from a flush recovery to useful fetch
    recovery_penalty: int = 12
    #: commit-stall bound for an unverified predicted-dead instruction
    #: before it is simply replayed (executing late is far cheaper than
    #: holding the ROB head)
    verify_timeout: int = 1
    #: physical registers reserved for replay, invisible to rename --
    #: guarantees a stalled unverified head can usually be replayed
    #: instead of flushed even when rename has exhausted the free list
    replay_reserve_pregs: int = 1

    def __post_init__(self):
        if self.recovery_mode not in ("replay", "flush"):
            raise ValueError("recovery_mode must be 'replay' or 'flush', "
                             "got %r" % (self.recovery_mode,))
        # The core's idle-cycle jump and cached wake times assume that
        # no result is ready in the cycle its producer issues, and that
        # a ready instruction always issues when nothing else did.
        for name in _LATENCIES + _WIDTHS + _UNITS:
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1, got %r"
                                 % (name, getattr(self, name)))
        # A two-source instruction could never issue with one port.
        if self.rf_read_ports < 2:
            raise ValueError("rf_read_ports must be at least 2, got %r"
                             % (self.rf_read_ports,))
        if self.phys_regs <= 32:
            raise ValueError("phys_regs must exceed the 32 architectural "
                             "registers, got %r" % (self.phys_regs,))

    def to_key(self) -> str:
        """Canonical serialization for cache keying (repro.keys)."""
        return config_key(self)


_LATENCIES = ("alu_latency", "mul_latency", "div_latency",
              "branch_latency", "agen_latency", "l1d_latency",
              "l2_latency", "memory_latency")
_WIDTHS = ("fetch_width", "rename_width", "issue_width", "commit_width")
_UNITS = ("alu_units", "mul_units", "div_units", "branch_units",
          "mem_ports")


def default_config(**overrides) -> MachineConfig:
    """The well-provisioned baseline core."""
    return replace(MachineConfig(), **overrides)


def contended_config(**overrides) -> MachineConfig:
    """The resource-contended core of experiment F8.

    Renaming headroom shrinks from 128 to 24 registers, the issue
    queue from 48 to 16 slots, and the register file and data cache
    lose ports — the regime where freeing resources buys cycles.
    """
    values = dict(
        name="contended",
        phys_regs=48,
        iq_size=16,
        lsq_size=16,
        rob_size=64,
        mem_ports=1,
        rf_read_ports=4,
        alu_units=3,
    )
    values.update(overrides)
    return replace(MachineConfig(), **values)
