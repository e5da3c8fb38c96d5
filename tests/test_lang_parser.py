"""Mini-C parser: structure, precedence, desugaring, errors."""

import pytest

from repro.lang import ast_nodes as ast
from repro.lang.errors import CompileError
from repro.lang.parser import parse


def parse_expr(text):
    program = parse("void main() { x = %s; } int x;" % text)
    statement = program.functions[0].body.statements[0]
    assert isinstance(statement, ast.Assign)
    return statement.value


def test_globals():
    program = parse("int a; int b[4]; int c = 5; int d[3] = {1, 2};")
    a, b, c, d = program.globals
    assert (a.name, a.size, a.init) == ("a", None, [])
    assert (b.name, b.size) == ("b", 4)
    assert c.init == [5]
    assert d.init == [1, 2]


def test_negative_initializer():
    program = parse("int a = -3; int b[2] = {-1, -2};")
    assert program.globals[0].init == [-3]
    assert program.globals[1].init == [-1, -2]


def test_function_signature():
    program = parse("int f(int a, int b) { return a; } void main() {}")
    function = program.functions[0]
    assert function.params == ["a", "b"]
    assert function.returns_value


def test_precedence():
    expr = parse_expr("1 + 2 * 3")
    assert isinstance(expr, ast.BinOp) and expr.op == "+"
    assert isinstance(expr.right, ast.BinOp) and expr.right.op == "*"


def test_comparison_binds_looser_than_shift():
    expr = parse_expr("1 << 2 < 3")
    assert expr.op == "<"


def test_logical_operators_loosest():
    expr = parse_expr("a == 1 && b == 2 || c == 3")
    assert expr.op == "||"
    assert expr.left.op == "&&"


def test_unary_operators():
    expr = parse_expr("-!~x")
    assert expr.op == "-"
    assert expr.operand.op == "!"
    assert expr.operand.operand.op == "~"


def test_parentheses():
    expr = parse_expr("(1 + 2) * 3")
    assert expr.op == "*"
    assert expr.left.op == "+"


def test_calls_and_array_refs():
    expr = parse_expr("f(1, g(2), h[3])")
    assert isinstance(expr, ast.Call)
    assert len(expr.args) == 3
    assert isinstance(expr.args[1], ast.Call)
    assert isinstance(expr.args[2], ast.ArrayRef)


def test_if_else_chains():
    program = parse("""
void main() {
  if (1) { x = 1; } else if (2) { x = 2; } else { x = 3; }
}
int x;
""")
    statement = program.functions[0].body.statements[0]
    assert isinstance(statement, ast.If)
    assert isinstance(statement.else_body, ast.If)


def test_for_desugars_to_while():
    program = parse("""
void main() {
  int i;
  for (i = 0; i < 4; i = i + 1) { print(i); }
}
""")
    block = program.functions[0].body.statements[1]
    assert isinstance(block, ast.Block)
    init, loop = block.statements
    assert isinstance(init, ast.Assign)
    assert isinstance(loop, ast.While)
    # Step was appended to the body.
    assert isinstance(loop.body.statements[-1], ast.Assign)


def test_for_with_empty_clauses():
    program = parse("void main() { for (;;) { break; } }")
    statement = program.functions[0].body.statements[0]
    loop = statement.statements[0]
    assert isinstance(loop, ast.While)
    assert isinstance(loop.condition, ast.Num)


def test_continue_in_for_rejected():
    with pytest.raises(CompileError):
        parse("void main() { for (;;) { continue; } }")


def test_continue_in_while_allowed():
    parse("void main() { while (1) { continue; } }")


def test_array_assignment_vs_expression():
    program = parse("""
void main() {
  a[0] = 1;
  f(a[0]);
}
int a[2];
void f(int x) {}
""")
    first, second = program.functions[0].body.statements
    assert isinstance(first, ast.ArrayAssign)
    assert isinstance(second, ast.ExprStmt)


def test_local_declarations():
    program = parse("void main() { int x = 3; int buffer[10]; }")
    decls = program.functions[0].body.statements
    assert decls[0].init is not None
    assert decls[1].size == 10


def test_missing_semicolon_rejected():
    with pytest.raises(CompileError):
        parse("void main() { x = 1 }")


def test_unterminated_block_rejected():
    with pytest.raises(CompileError):
        parse("void main() { x = 1;")


def test_void_global_rejected():
    with pytest.raises(CompileError):
        parse("void x;")


def test_too_many_initializers_rejected():
    with pytest.raises(CompileError):
        parse("int a[1] = {1, 2};")


def test_error_has_line_number():
    with pytest.raises(CompileError) as excinfo:
        parse("void main() {\n  x = ;\n}")
    assert "line 2" in str(excinfo.value)


# ----- binary precedence and associativity, against hand-built trees -----

#: Mini-C's binary operators from loosest to tightest, one tuple per
#: level (C's table without assignment, ternary and comma)
LEVELS = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)


def var(name):
    return ast.Var(line=1, name=name)


def binop(op, left, right):
    return ast.BinOp(line=1, op=op, left=left, right=right)


def unop(op, operand):
    return ast.UnOp(line=1, op=op, operand=operand)


def same_level_pairs():
    return [(first, second) for level in LEVELS
            for first in level for second in level]


def level_pairs():
    return [(LEVELS[loose], LEVELS[tight])
            for loose in range(len(LEVELS))
            for tight in range(loose + 1, len(LEVELS))]


@pytest.mark.parametrize("first,second", same_level_pairs())
def test_same_level_is_left_associative(first, second):
    expr = parse_expr("a %s b %s c" % (first, second))
    assert expr == binop(second, binop(first, var("a"), var("b")),
                         var("c"))


@pytest.mark.parametrize("loose,tight", level_pairs())
def test_tighter_level_binds_first(loose, tight):
    for loose_op in loose:
        for tight_op in tight:
            right = parse_expr("a %s b %s c" % (loose_op, tight_op))
            assert right == binop(loose_op, var("a"),
                                  binop(tight_op, var("b"), var("c")))
            left = parse_expr("a %s b %s c" % (tight_op, loose_op))
            assert left == binop(loose_op,
                                 binop(tight_op, var("a"), var("b")),
                                 var("c"))


def test_long_chain_mixes_levels():
    expr = parse_expr("a || b && c | d ^ e & f == g < h << i + j * k")
    tail = binop("*", var("j"), var("k"))
    for op, name in (("+", "i"), ("<<", "h"), ("<", "g"), ("==", "f"),
                     ("&", "e"), ("^", "d"), ("|", "c"), ("&&", "b"),
                     ("||", "a")):
        tail = binop(op, var(name), tail)
    assert expr == tail


def test_parentheses_override_precedence():
    assert parse_expr("(a + b) * c") == binop(
        "*", binop("+", var("a"), var("b")), var("c"))
    assert parse_expr("a - (b - c)") == binop(
        "-", var("a"), binop("-", var("b"), var("c")))


@pytest.mark.parametrize("op", [op for level in LEVELS for op in level])
@pytest.mark.parametrize("unary", ["-", "!", "~"])
def test_unary_binds_tighter_than_every_binary(unary, op):
    expr = parse_expr("%s a %s %s b" % (unary, op, unary))
    assert expr == binop(op, unop(unary, var("a")), unop(unary, var("b")))


def test_unary_chain_and_operand_position():
    assert parse_expr("a - -b") == binop("-", var("a"),
                                         unop("-", var("b")))
    assert parse_expr("!~-a * b") == binop(
        "*", unop("!", unop("~", unop("-", var("a")))), var("b"))


def test_operator_line_numbers_follow_the_operator():
    program = parse("void main() { x = a\n+ b\n* c; } int x;")
    expr = program.functions[0].body.statements[0].value
    assert (expr.op, expr.line) == ("+", 2)
    assert (expr.right.op, expr.right.line) == ("*", 3)
