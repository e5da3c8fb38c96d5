"""Mini-C tokenizer."""

import pytest

from repro.lang import compile_source
from repro.lang.errors import CompileError
from repro.lang.lexer import OPERATORS, Token, tokenize


def kinds(source):
    return [token.kind for token in tokenize(source)]


def test_keywords_and_identifiers():
    tokens = tokenize("int x while whilex")
    assert tokens[0].kind == "int"
    assert tokens[1].kind == "ident" and tokens[1].value == "x"
    assert tokens[2].kind == "while"
    assert tokens[3].kind == "ident" and tokens[3].value == "whilex"


def test_numbers():
    tokens = tokenize("0 42 0x1F 0XAB")
    assert [t.value for t in tokens[:-1]] == [0, 42, 31, 171]


def test_maximal_munch_operators():
    assert kinds("<< <= < == = && & || |")[:-1] == [
        "<<", "<=", "<", "==", "=", "&&", "&", "||", "|"]


def test_all_single_operators():
    source = "+ - * / % ^ ~ ! > >> >= ( ) { } [ ] ; ,"
    expected = source.split()
    assert kinds(source)[:-1] == expected


def test_line_numbers():
    tokens = tokenize("a\nb\n  c")
    assert [t.line for t in tokens[:-1]] == [1, 2, 3]


def test_line_comment():
    assert kinds("a // comment ;;;\nb")[:-1] == ["ident", "ident"]


def test_block_comment():
    tokens = tokenize("a /* many\nlines */ b")
    assert [t.kind for t in tokens[:-1]] == ["ident", "ident"]
    assert tokens[1].line == 2  # line counting continues inside


def test_unterminated_block_comment():
    with pytest.raises(CompileError):
        tokenize("a /* never closed")


def test_unexpected_character():
    with pytest.raises(CompileError):
        tokenize("a $ b")


def test_eof_token():
    assert tokenize("")[-1].kind == "eof"
    assert tokenize("x")[-1].kind == "eof"


@pytest.mark.parametrize("operator",
                         [op for op in OPERATORS if len(op) == 2])
def test_two_char_operator_is_one_token(operator):
    tokens = tokenize("a%sb" % operator)
    assert [(t.kind, t.value) for t in tokens[:-1]] == [
        ("ident", "a"), (operator, operator), ("ident", "b")]


@pytest.mark.parametrize("source,expected", [
    ("< <", ["<", "<"]),
    ("> >", [">", ">"]),
    ("= =", ["=", "="]),
    ("& &", ["&", "&"]),
    ("| |", ["|", "|"]),
    ("! =", ["!", "="]),
    ("<<=", ["<<", "="]),
    ("<<<", ["<<", "<"]),
    ("!==", ["!=", "="]),
    ("&&&", ["&&", "&"]),
    ("a<-1", ["ident", "<", "-", "num"]),
])
def test_maximal_munch_takes_two_chars_at_most(source, expected):
    assert kinds(source)[:-1] == expected


@pytest.mark.parametrize("char", ["$", "@", "#", "`", "?", ":", "\\", "'",
                                  '"', "\u00f1", "\u00e9", "\u0663"])
def test_unknown_character_names_its_line(char):
    with pytest.raises(CompileError) as excinfo:
        tokenize("a\nb %s c" % char)
    assert excinfo.value.line == 2
    assert repr(char) in str(excinfo.value)


def test_identifiers_are_ascii():
    tokens = tokenize("_a1 Zz_9")
    assert [(t.kind, t.value) for t in tokens[:-1]] == [
        ("ident", "_a1"), ("ident", "Zz_9")]
    with pytest.raises(CompileError):
        tokenize("caf\u00e9 = 1;")


def test_non_ascii_function_name_is_a_compile_error():
    """Used to slip through the lexer and fail in the assembler."""
    source = ("int \u00f1() { return 1; }\n"
              "int main() { return \u00f1(); }")
    with pytest.raises(CompileError) as excinfo:
        compile_source(source)
    assert excinfo.value.line == 1
