"""The out-of-order core: baseline behaviour and elimination soundness
invariants on real (small) workloads."""

import pytest

from repro.analysis import analyze_deadness
from repro.emulator import run_program
from repro.isa import assemble
from repro.pipeline import (
    Simulator,
    contended_config,
    default_config,
    simulate,
)
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def small_run():
    machine, trace = get_workload("sort").run(scale=0.3)
    return trace, analyze_deadness(trace)


@pytest.fixture(scope="module")
def callheavy_run():
    machine, trace = get_workload("board").run(scale=0.4)
    return trace, analyze_deadness(trace)


def test_commits_every_instruction(simple_loop_trace):
    result = simulate(simple_loop_trace)
    assert result.stats.committed == len(simple_loop_trace)
    assert result.stats.cycles > 0


def test_ipc_within_machine_width(small_run):
    trace, analysis = small_run
    result = simulate(trace, default_config(), analysis)
    assert 0.1 < result.stats.ipc <= default_config().issue_width


def test_deterministic(small_run):
    trace, analysis = small_run
    first = simulate(trace, default_config(), analysis)
    second = simulate(trace, default_config(), analysis)
    assert first.stats.cycles == second.stats.cycles
    assert first.stats.rf_reads == second.stats.rf_reads


def test_contention_slows_the_machine(small_run):
    trace, analysis = small_run
    fast = simulate(trace, default_config(), analysis)
    slow = simulate(trace, contended_config(), analysis)
    assert slow.stats.ipc < fast.stats.ipc


def test_baseline_allocs_equal_writes(small_run):
    """Without elimination, every register-writing instruction
    allocates exactly once and writes the RF exactly once."""
    trace, analysis = small_run
    result = simulate(trace, default_config(), analysis)
    stats = result.stats
    dests = sum(1 for i in range(len(trace))
                if analysis.statics.dest[trace.pcs[i] >> 2])
    assert stats.preg_allocs == dests
    assert stats.rf_writes == dests
    assert stats.squashed == 0
    assert stats.eliminated == 0


def test_dcache_accesses_match_memory_ops(small_run):
    trace, analysis = small_run
    result = simulate(trace, default_config(), analysis)
    memory_ops = sum(1 for i in range(len(trace))
                     if analysis.statics.is_load[trace.pcs[i] >> 2]
                     or analysis.statics.is_store[trace.pcs[i] >> 2])
    assert result.stats.dcache_accesses == memory_ops


def test_branch_mispredicts_counted(small_run):
    trace, analysis = small_run
    result = simulate(trace, default_config(), analysis)
    stats = result.stats
    assert 0 < stats.branch_mispredicts < stats.branches


def test_redirect_penalty_costs_cycles(small_run):
    trace, analysis = small_run
    cheap = simulate(trace, default_config(redirect_penalty=2), analysis)
    pricey = simulate(trace, default_config(redirect_penalty=20),
                      analysis)
    assert pricey.stats.cycles > cheap.stats.cycles


def test_narrow_machine_is_slower(small_run):
    trace, analysis = small_run
    wide = simulate(trace, default_config(), analysis)
    narrow = simulate(trace, default_config(
        fetch_width=1, rename_width=1, issue_width=1, commit_width=1),
        analysis)
    assert narrow.stats.ipc < wide.stats.ipc
    assert narrow.stats.ipc <= 1.0


# ---- elimination invariants ----

@pytest.mark.parametrize("config_factory", [default_config,
                                            contended_config])
def test_elimination_commits_everything(small_run, config_factory):
    trace, analysis = small_run
    result = simulate(trace, config_factory(eliminate=True), analysis)
    assert result.stats.committed == len(trace)


def test_elimination_reduces_resources(small_run):
    trace, analysis = small_run
    base = simulate(trace, default_config(), analysis)
    elim = simulate(trace, default_config(eliminate=True), analysis)
    assert elim.stats.eliminated > 0
    assert elim.stats.preg_allocs < base.stats.preg_allocs
    assert elim.stats.rf_writes < base.stats.rf_writes
    assert elim.stats.rf_reads < base.stats.rf_reads


def test_eliminated_bounded_by_dead(small_run):
    """With replay recovery, every wrong elimination is replayed, so
    net suppressed executions cannot exceed the dead-instruction count
    (plus nothing: replays re-execute)."""
    trace, analysis = small_run
    result = simulate(trace, default_config(eliminate=True), analysis)
    stats = result.stats
    net_suppressed = stats.eliminated - stats.replayed
    assert 0 <= net_suppressed <= analysis.n_dead


def test_recovery_accounting(callheavy_run):
    trace, analysis = callheavy_run
    result = simulate(trace, default_config(eliminate=True), analysis)
    stats = result.stats
    assert stats.recoveries == (stats.reader_recoveries
                                + stats.timeout_recoveries)
    # Replays plus flush-squashes must cover every recovery event.
    assert stats.replayed + stats.squashed >= stats.recoveries


def test_flush_recovery_mode(callheavy_run):
    trace, analysis = callheavy_run
    result = simulate(
        trace, default_config(eliminate=True, recovery_mode="flush"),
        analysis)
    assert result.stats.committed == len(trace)
    if result.stats.recoveries:
        assert result.stats.flush_recoveries > 0
        assert result.stats.squashed > 0


def test_store_elimination_reduces_dcache(callheavy_run):
    trace, analysis = callheavy_run
    base = simulate(trace, default_config(), analysis)
    elim = simulate(trace, default_config(eliminate=True,
                                          eliminate_stores=True),
                    analysis)
    assert elim.stats.dcache_accesses < base.stats.dcache_accesses


def test_no_store_elimination_when_disabled(small_run):
    trace, analysis = small_run
    base = simulate(trace, default_config(), analysis)
    elim = simulate(trace, default_config(eliminate=True,
                                          eliminate_stores=False),
                    analysis)
    # Loads can still be eliminated; stores cannot, so the gap is
    # bounded by the load count difference.
    stores = sum(1 for i in range(len(trace))
                 if analysis.statics.is_store[trace.pcs[i] >> 2])
    assert elim.stats.dcache_accesses >= base.stats.dcache_accesses \
        - (base.stats.dcache_accesses - stores)


def test_elimination_with_tiny_windows(small_run):
    """Stress the replay/flush fallbacks: minimal resources."""
    trace, analysis = small_run
    config = contended_config(eliminate=True, phys_regs=36, iq_size=4,
                              rob_size=16, lsq_size=4)
    result = simulate(trace, config, analysis)
    assert result.stats.committed == len(trace)


def test_simulator_runs_without_prebuilt_analysis(simple_loop_trace):
    simulator = Simulator(simple_loop_trace,
                          default_config(eliminate=True))
    result = simulator.run()
    assert result.stats.committed == len(simple_loop_trace)


def test_max_cycles_guard(simple_loop_trace):
    simulator = Simulator(simple_loop_trace, default_config())
    with pytest.raises(RuntimeError):
        simulator.run(max_cycles=3)


def test_max_cycles_guard_stops_the_idle_cycle_jump():
    """A run ends on a commit after idle cycles spent waiting on a
    load: one cycle short of its length still raises, the exact length
    completes."""
    _machine, trace = get_workload("pchase").run(scale=0.1)
    analysis = analyze_deadness(trace)
    config = contended_config()
    cycles = simulate(trace, config, analysis).stats.cycles
    with pytest.raises(RuntimeError):
        Simulator(trace, config, analysis).run(max_cycles=cycles - 1)
    result = Simulator(trace, config, analysis).run(max_cycles=cycles)
    assert result.stats.cycles == cycles


REPLAY_STARVED = """
    div  t3, sp, sp     # 0: slow head, holds every commit back
    li   s0, 1          # 1-3: live writes drain the free list
    li   s1, 2          #      down to the replay reserve
    li   s2, 3
    li   t0, 1          # 4: eliminated
    addi t1, t0, 1      # 5: eliminated, reads the token of 4
    sw   t1, 0(sp)      # 6: live reader with no destination
    halt
"""


def test_refused_replay_sets_regs_bound():
    """With 36 registers the store finds a two-member chain while only
    the one-register reserve is free: the replay is refused and a flush
    recovers, although rename never stalled for a register.  One more
    register lets the replay through, so the 36-register result must
    not stand for 37."""
    from tests.test_pipeline_scenarios import ScriptedElimination

    _machine, trace = run_program(assemble(REPLAY_STARVED))
    analysis = analyze_deadness(trace)

    def run(phys_regs):
        config = default_config(eliminate=True, phys_regs=phys_regs,
                                recovery_penalty=30)
        simulator = Simulator(trace, config, analysis)
        simulator.elimination = ScriptedElimination({4, 5})
        return simulator.run()

    starved = run(36)
    assert starved.stats.rename_stalls_preg == 0
    assert starved.stats.flush_recoveries == 1
    assert starved.regs_bound
    roomy = run(37)
    assert roomy.stats.flush_recoveries == 0
    assert roomy.stats.replayed == 2
    assert not roomy.regs_bound
