"""End-to-end property test: random structured Mini-C programs.

Hypothesis generates whole programs (assignments, array stores,
conditionals, bounded loops, prints) as small ASTs that are *both*
rendered to Mini-C source and interpreted directly in Python with
32-bit machine semantics.  For every generated program:

1. the compiled program's output at -O0 and -O2 matches the Python
   interpretation (compiler + assembler + emulator correctness);
2. replaying the -O2 trace with every analysis-dead instruction
   skipped reproduces the output (deadness-analysis soundness on
   arbitrary programs, not just the curated suite).
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import analyze_deadness, replay_trace
from repro.emulator import run_program
from repro.lang import CompilerOptions, compile_to_program
from repro.workloads.generate import (
    PROGRAM_VARS as _VARS,
    interpret_program as _interpret,
    render_program as _render_program,
)

_OPS = ("+", "-", "*", "&", "|", "^", "<", "==")


# ---------------------------------------------------------------------
# Generation (rendering and interpretation are shared with the corpus
# generator in repro.workloads.generate — the promoted substrate)
# ---------------------------------------------------------------------

def _exprs(depth):
    leaf = (st.integers(-40, 40).map(lambda n: ("num", n))
            | st.sampled_from(_VARS).map(lambda v: ("var", v)))
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    binary = st.tuples(st.sampled_from(_OPS), sub, sub).map(
        lambda t: ("bin", t[0], t[1], t[2]))
    load = sub.map(lambda e: ("load", e))
    return leaf | binary | load


def _stmts(depth):
    expr = _exprs(2)
    simple = (
        st.tuples(st.sampled_from(_VARS), expr).map(
            lambda t: ("assign", t[0], t[1]))
        | st.tuples(expr, expr).map(lambda t: ("store", t[0], t[1]))
        | expr.map(lambda e: ("print", e))
    )
    if depth == 0:
        return simple
    body = st.lists(_stmts(depth - 1), min_size=1, max_size=3)
    conditional = st.tuples(expr, body, body).map(
        lambda t: ("if", t[0], t[1], t[2]))
    loop = st.tuples(st.integers(1, 3), body).map(
        lambda t: ("loop", t[0], t[1]))
    return simple | conditional | loop


programs = st.lists(_stmts(2), min_size=1, max_size=8)


# ---------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(programs)
def test_random_programs_match_interpreter(stmts):
    source = _render_program(stmts)
    expected = _interpret(stmts)
    for opt_level in (0, 2):
        program = compile_to_program(source,
                                     CompilerOptions(opt_level=opt_level))
        machine, _ = run_program(program, max_steps=2_000_000)
        assert machine.output == expected, source


@settings(max_examples=25, deadline=None)
@given(programs)
def test_random_programs_deadness_is_sound(stmts):
    source = _render_program(stmts)
    program = compile_to_program(source, CompilerOptions(opt_level=2))
    machine, trace = run_program(program, max_steps=2_000_000)
    analysis = analyze_deadness(trace)
    assert replay_trace(trace, skip=analysis.dead) == machine.output, \
        source
