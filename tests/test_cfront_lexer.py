"""Unit tests for the lexer."""

import ast
import os

import pytest

from repro.cfront import Lexer, tokenize
from repro.cfront.errors import LexError
from repro.cfront import tokens as T


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]  # drop EOF


def test_empty_input_yields_only_eof():
    toks = tokenize("")
    assert len(toks) == 1
    assert toks[0].kind == T.EOF


def test_whitespace_only_input():
    toks = tokenize("   \n\t  \r\n ")
    assert [t.kind for t in toks] == [T.EOF]


def test_keywords_vs_identifiers():
    toks = tokenize("int integer if iffy while whileLoop")
    assert [t.kind for t in toks[:-1]] == [
        T.KEYWORD,
        T.IDENT,
        T.KEYWORD,
        T.IDENT,
        T.KEYWORD,
        T.IDENT,
    ]


def test_decimal_literal():
    tok = tokenize("42")[0]
    assert tok.kind == T.INTLIT
    assert tok.value == 42


def test_hex_literal():
    tok = tokenize("0x1F")[0]
    assert tok.value == 31


def test_octal_literal():
    tok = tokenize("010")[0]
    assert tok.value == 8


def test_zero_literal():
    tok = tokenize("0")[0]
    assert tok.value == 0


def test_integer_suffixes_ignored():
    assert tokenize("10UL")[0].value == 10
    assert tokenize("7u")[0].value == 7


def test_malformed_hex_raises():
    with pytest.raises(LexError):
        tokenize("0x")


def test_identifier_glued_to_number_raises():
    with pytest.raises(LexError):
        tokenize("1abc")


def test_char_literal():
    tok = tokenize("'a'")[0]
    assert tok.kind == T.CHARLIT
    assert tok.value == ord("a")


def test_char_escape():
    assert tokenize(r"'\n'")[0].value == 10
    assert tokenize(r"'\0'")[0].value == 0


def test_string_literal():
    tok = tokenize('"hello"')[0]
    assert tok.kind == T.STRINGLIT
    assert tok.value == "hello"


def test_maximal_munch_punctuators():
    assert texts("a->b") == ["a", "->", "b"]
    assert texts("a-- -b") == ["a", "--", "-", "b"]
    assert texts("x<<=1") == ["x", "<<=", "1"]
    assert texts("a&&b") == ["a", "&&", "b"]
    assert texts("a&b") == ["a", "&", "b"]
    assert texts("x<=y") == ["x", "<=", "y"]
    assert texts("x < = y") == ["x", "<", "=", "y"]


def test_line_comment():
    assert texts("a // comment\n b") == ["a", "b"]


def test_block_comment():
    assert texts("a /* stuff \n more */ b") == ["a", "b"]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_preprocessor_lines_skipped():
    assert texts("#include <stdio.h>\nint x;") == ["int", "x", ";"]


def test_positions_track_lines_and_columns():
    toks = tokenize("ab\n  cd")
    assert toks[0].pos.line == 1 and toks[0].pos.column == 1
    assert toks[1].pos.line == 2 and toks[1].pos.column == 3


def test_unexpected_character_raises():
    with pytest.raises(LexError):
        tokenize("int $x;")


def test_trailing_token_before_eof():
    toks = tokenize("x")
    assert toks[-1].kind == T.EOF
    assert toks[-2].text == "x"


def test_malformed_octal_literal_raises_lex_error():
    with pytest.raises(LexError) as info:
        tokenize("x = 09;")
    assert "malformed octal literal '09'" in info.value.message
    assert (info.value.pos.line, info.value.pos.column) == (1, 5)


# -- the regex tokenizer against the reference Lexer -------------------------


def _reference(source):
    """``Lexer.tokens()`` as comparable tuples, or the raised error."""
    try:
        return [
            (t.kind, t.text, t.value, t.pos.line, t.pos.column)
            for t in Lexer(source, "<diff>").tokens()
        ]
    except LexError as error:
        return (type(error), error.message, error.pos)


def _fast(source):
    try:
        return [
            (t.kind, t.text, t.value, t.pos.line, t.pos.column)
            for t in tokenize(source, "<diff>")
        ]
    except LexError as error:
        return (type(error), error.message, error.pos)


def _example_strings():
    """Every string constant in ``examples/*.py``: the C sources, and
    predicate files and prose that exercise the error paths."""
    root = os.path.join(os.path.dirname(__file__), "..", "examples")
    for name in sorted(os.listdir(root)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(root, name)) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value


_ERROR_INPUTS = [
    "/* open",
    "a /* never closed",
    "0x",
    "0xg",
    "09",
    "x = 0779;",
    "1abc",
    "10u5",
    "0x1Fg",
    "'\\q'",
    "'ab'",
    "'",
    '"unterminated',
    '"bad \\q escape"',
    "@",
    "int $x;",
    "a\n\t  @",
]

_LITERAL_INPUTS = [
    "",
    "  \n\r\n\f\v ",
    "x = 0; y = 00; z = 017; w = 0x1fUL + 10lu - 7u;",
    "c = 'a' + '\\n' + '\\0';\ns = \"line\\tone\";",
    "#include <x.h>\n  int x; // tail\n/* a\n b */ y",
    "a<<=b>>=c...d->e++--f",
    '"multi\nline" x',
]


def _assert_same(source):
    assert _fast(source) == _reference(source), source


def test_tokenize_matches_lexer_on_corpus_programs():
    from repro.programs import all_drivers, all_table2_programs

    for study in list(all_drivers()) + list(all_table2_programs()):
        _assert_same(study.source)


def test_tokenize_matches_lexer_on_examples():
    for text in _example_strings():
        _assert_same(text)


def test_tokenize_matches_lexer_on_generated_programs():
    from repro.fuzz.gen import ProgramGenerator

    for case in ProgramGenerator(seed=0, bit_weight=True).cases(300):
        _assert_same(case.source)
        _assert_same(case.predicate_text)


@pytest.mark.parametrize("source", _ERROR_INPUTS + _LITERAL_INPUTS)
def test_tokenize_matches_lexer_on_edge_inputs(source):
    _assert_same(source)
    _assert_same("int x;\n  " + source)
