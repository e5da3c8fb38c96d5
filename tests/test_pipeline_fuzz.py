"""Configuration fuzzing: the core must stay sound on any machine.

Hypothesis draws random machine shapes (widths, window sizes, register
counts, latencies, recovery modes) and checks the invariants that must
hold on *every* configuration: the whole trace commits, counters stay
consistent, and runs are reproducible.  This is the net that catches
corner cases in the elimination machinery (replay under starvation,
flush fallbacks, verified commit) that the curated configs never hit.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import analyze_deadness
from repro.pipeline import default_config, simulate
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def fuzz_run():
    _, trace = get_workload("qsort").run(scale=0.25)
    return trace, analyze_deadness(trace)


configs = st.fixed_dictionaries({
    "fetch_width": st.integers(1, 8),
    "rename_width": st.integers(1, 8),
    "issue_width": st.integers(1, 8),
    "commit_width": st.integers(1, 8),
    "rob_size": st.integers(8, 192),
    "iq_size": st.integers(2, 64),
    "lsq_size": st.integers(2, 48),
    "phys_regs": st.integers(36, 192),
    "alu_units": st.integers(1, 6),
    "mem_ports": st.integers(1, 3),
    "rf_read_ports": st.integers(2, 12),
    "redirect_penalty": st.integers(1, 20),
    "eliminate": st.booleans(),
    "eliminate_stores": st.booleans(),
    "recovery_mode": st.sampled_from(["replay", "flush"]),
    "verify_timeout": st.integers(1, 32),
    "replay_penalty": st.integers(1, 6),
    "recovery_penalty": st.integers(2, 24),
    "replay_reserve_pregs": st.integers(0, 4),
})


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(configs)
def test_any_machine_commits_everything(fuzz_run, overrides):
    trace, analysis = fuzz_run
    config = default_config(**overrides)
    result = simulate(trace, config, analysis)
    stats = result.stats
    assert stats.committed == len(trace)
    assert stats.cycles >= len(trace) / config.commit_width
    # Counter consistency.
    assert stats.recoveries == (stats.reader_recoveries
                                + stats.timeout_recoveries)
    assert stats.preg_frees <= stats.preg_allocs
    if not config.eliminate:
        assert stats.eliminated == 0
        assert stats.squashed == 0
    else:
        assert stats.replayed <= stats.eliminated
    # IPC can never exceed the narrowest relevant width.
    assert stats.ipc <= min(config.commit_width, config.fetch_width,
                            config.rename_width) + 1e-9


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(configs)
def test_simulation_is_reproducible(fuzz_run, overrides):
    trace, analysis = fuzz_run
    config = default_config(**overrides)
    first = simulate(trace, config, analysis)
    second = simulate(trace, config, analysis)
    assert first.stats.cycles == second.stats.cycles
    assert first.stats.rf_reads == second.stats.rf_reads
    assert first.stats.eliminated == second.stats.eliminated


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(configs)
def test_idle_cycle_jump_is_cycle_exact(fuzz_run, overrides):
    """A timeline sampled every cycle makes the next sample the next
    cycle, which stops every idle-cycle jump: that run is the
    cycle-by-cycle reference the jumping run must equal exactly."""
    from repro import obs

    trace, analysis = fuzz_run
    config = default_config(**overrides)
    jumped = simulate(trace, config, analysis)
    obs.configure_obs(obs.ObsConfig(sample_interval=1,
                                    timeline_capacity=1 << 22))
    try:
        stepped = simulate(trace, config, analysis)
    finally:
        obs.reset_obs()
    assert stepped.timeline["interval"] == 1  # never decimated
    assert stepped.stats == jumped.stats
    assert (stepped.l1d_misses, stepped.l2_misses) == \
        (jumped.l1d_misses, jumped.l2_misses)
