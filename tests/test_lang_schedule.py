"""The speculative-hoisting scheduler: it must move code, tag it, and
never change program behaviour."""

from repro.emulator import run_program
from repro.lang import CompilerOptions, compile_to_program
from repro.lang.ir import CondBr, Load
from repro.lang.lower import lower_program
from repro.lang.parser import parse
from repro.lang.schedule import ScheduleOptions, hoist_module

DIAMOND = """
int data[4] = {10, 20, 30, 40};
int n = 4;

void main() {
  int acc = 0;
  int i;
  for (i = 0; i < n; i = i + 1) {
    int v = data[i];
    if (v > 15) {
      acc = acc + v * 2;
    } else {
      acc = acc - 1;
    }
  }
  print(acc);
}
"""


def test_hoisting_moves_instructions():
    module = lower_program(parse(DIAMOND))
    stats = hoist_module(module, ScheduleOptions())
    assert stats.branches_seen >= 2
    assert stats.instructions_hoisted >= 1


def test_hoisted_instructions_are_tagged():
    module = lower_program(parse(DIAMOND))
    hoist_module(module, ScheduleOptions())
    tagged = [
        instr
        for function in module.functions
        for block in function.blocks
        for instr in block.instrs
        if instr.provenance == "sched"
    ]
    assert tagged
    # Hoisted instructions sit in blocks ending in conditional branches.
    for function in module.functions:
        for block in function.blocks:
            if any(i.provenance == "sched" for i in block.instrs):
                assert isinstance(block.terminator, CondBr)


def test_max_hoist_limit():
    module_limited = lower_program(parse(DIAMOND))
    limited = hoist_module(module_limited, ScheduleOptions(max_hoist=1))
    module_full = lower_program(parse(DIAMOND))
    full = hoist_module(module_full, ScheduleOptions(max_hoist=8))
    assert limited.instructions_hoisted <= full.instructions_hoisted


def test_loads_not_hoisted_by_default():
    source = """
int data[4] = {1, 2, 3, 4};
int n = 4;
void main() {
  int i;
  int acc = 0;
  for (i = 0; i < n; i = i + 1) {
    if (i < n) {
      acc = acc + data[i];
    }
  }
  print(acc);
}
"""
    module = lower_program(parse(source))
    hoist_module(module, ScheduleOptions())
    for function in module.functions:
        for block in function.blocks:
            for instr in block.instrs:
                if isinstance(instr, Load):
                    assert instr.provenance != "sched"


def test_branch_operands_never_clobbered():
    module = lower_program(parse(DIAMOND))
    hoist_module(module, ScheduleOptions(max_hoist=16))
    for function in module.functions:
        for block in function.blocks:
            terminator = block.terminator
            if not isinstance(terminator, CondBr):
                continue
            used = set(terminator.uses())
            for instr in block.instrs:
                if instr.provenance == "sched":
                    assert not (set(instr.defs()) & used)


SEMANTIC_PROGRAMS = [
    DIAMOND,
    # Both arms assign the same variable (the canonical pattern).
    """
int n = 10;
void main() {
  int i;
  int x = 0;
  for (i = 0; i < n; i = i + 1) {
    int y;
    if (i % 3 == 0) { y = i * 5; } else { y = i - 1; }
    x = x + y;
  }
  print(x);
}
""",
    # Nested conditionals with dependent computation.
    """
int n = 12;
void main() {
  int i;
  int a = 0;
  int b = 0;
  for (i = 0; i < n; i = i + 1) {
    if (i % 2 == 0) {
      a = a + i * i;
      if (i % 4 == 0) { b = b + 1; } else { b = b - a; }
    } else {
      a = a - 1;
    }
  }
  print(a);
  print(b);
}
""",
]


def test_hoisting_preserves_semantics():
    for source in SEMANTIC_PROGRAMS:
        baseline = compile_to_program(source, CompilerOptions(opt_level=0))
        optimized = compile_to_program(source, CompilerOptions(opt_level=2))
        machine_base, _ = run_program(baseline)
        machine_opt, _ = run_program(optimized)
        assert machine_base.output == machine_opt.output


def test_aggressive_hoisting_preserves_semantics():
    for source in SEMANTIC_PROGRAMS:
        options = CompilerOptions(opt_level=2, max_hoist=16,
                                  hoist_loads=True)
        baseline = compile_to_program(source, CompilerOptions(opt_level=0))
        optimized = compile_to_program(source, options)
        machine_base, _ = run_program(baseline)
        machine_opt, _ = run_program(optimized)
        assert machine_base.output == machine_opt.output


# ----- incremental liveness: differential check against a fresh solve -----

def _differential_sources():
    from repro.workloads import get_workload, workload_names

    names = workload_names() + [
        "gen:s%d:n20:b%d:d%d:p%d" % (seed, (20, 40, 60, 40)[seed % 4],
                                     10 + 20 * (seed % 3),
                                     (50, 85, 100)[seed % 3])
        for seed in range(1, 21)]
    return [(name, get_workload(name).source(0.5 if "gen:" not in name
                                             else 1.0))
            for name in names]


def test_incremental_liveness_matches_a_fresh_solve(monkeypatch):
    """Every liveness solution the scheduler computes from its cached
    per-block use/def sets, and every live-in set it consults before a
    hoist, must equal a from-scratch ``compute_liveness(function)``."""
    from repro.lang import liveness, schedule

    real_compute = schedule.compute_liveness
    real_hoist_function = schedule.hoist_function
    real_hoist_prefix = schedule._hoist_prefix
    current = {}
    counts = {"solves": 0, "prefixes": 0, "hoists": 0}

    def checked_compute(function, *args, **kwargs):
        result = real_compute(function, *args, **kwargs)
        fresh = liveness.compute_liveness(function)
        assert result.live_in == fresh.live_in, current["name"]
        assert result.live_out == fresh.live_out, current["name"]
        counts["solves"] += 1
        return result

    def tracked_function(function, options):
        current["function"] = function
        return real_hoist_function(function, options)

    def checked_prefix(block, arm, branch_uses, live_in_other, live_in_arm,
                       options):
        fresh = liveness.compute_liveness(current["function"])
        terminator = block.terminator
        other = (terminator.if_false if arm.label == terminator.if_true
                 else terminator.if_true)
        assert live_in_arm == fresh.live_in[arm.label], current["name"]
        assert live_in_other == fresh.live_in[other], current["name"]
        hoisted = real_hoist_prefix(block, arm, branch_uses, live_in_other,
                                    live_in_arm, options)
        counts["prefixes"] += 1
        counts["hoists"] += hoisted > 0
        return hoisted

    monkeypatch.setattr(schedule, "compute_liveness", checked_compute)
    monkeypatch.setattr(schedule, "hoist_function", tracked_function)
    monkeypatch.setattr(schedule, "_hoist_prefix", checked_prefix)
    for name, source in _differential_sources():
        current["name"] = name
        for options in (ScheduleOptions(),
                        ScheduleOptions(max_hoist=8, hoist_loads=True)):
            hoist_module(lower_program(parse(source)), options)
    # The check must have seen real work: many solves, and hoists that
    # forced re-solves rather than one solve per function.
    assert counts["hoists"] > 100
    assert counts["solves"] > counts["hoists"] // 2
    assert counts["prefixes"] > counts["solves"]
