"""Lexer for the C subset.

Supports line and block comments, decimal/hex/octal integer literals,
character literals, string literals (used only for diagnostics), identifiers,
keywords, and the usual punctuators with maximal munch.

:func:`tokenize` is the fast path: one compiled master pattern matches
whitespace and comments, identifiers and keywords, well-formed integer
literals and punctuators.  Everything else -- character and string
literals, and every malformed input -- is handed to the hand-written
:class:`Lexer` at that offset, so literal values, error messages and error
positions are the reference lexer's own.  :class:`Lexer` stays the
reference the tokenizer is differentially tested against.
"""

import re

from repro.cfront import tokens as T
from repro.cfront.errors import LexError, SourcePos

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

_SIMPLE_ESCAPES = {
    "n": 10,
    "t": 9,
    "r": 13,
    "0": 0,
    "\\": 92,
    "'": 39,
    '"': 34,
    "a": 7,
    "b": 8,
    "f": 12,
    "v": 11,
}


class Lexer:
    """Tokenizes a source buffer on demand."""

    def __init__(self, source, source_name="<source>"):
        self._source = source
        self._source_name = source_name
        self._offset = 0
        self._line = 1
        self._column = 1

    def _pos(self):
        return SourcePos(self._source_name, self._line, self._column)

    def _peek(self, ahead=0):
        index = self._offset + ahead
        if index < len(self._source):
            return self._source[index]
        return ""

    def _advance(self, count=1):
        for _ in range(count):
            if self._offset >= len(self._source):
                return
            ch = self._source[self._offset]
            self._offset += 1
            if ch == "\n":
                self._line += 1
                self._column = 1
            else:
                self._column += 1

    def _skip_whitespace_and_comments(self):
        while True:
            ch = self._peek()
            if ch and ch in " \t\r\n\f\v":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self._peek() not in ("", "\n"):
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start = self._pos()
                self._advance(2)
                while not (self._peek() == "*" and self._peek(1) == "/"):
                    if self._peek() == "":
                        raise LexError("unterminated block comment", start)
                    self._advance()
                self._advance(2)
            elif ch == "#":
                # Preprocessor lines are not interpreted; they are skipped so
                # that test inputs may carry #include-style headers.
                while self._peek() not in ("", "\n"):
                    self._advance()
            else:
                return

    def _lex_integer(self):
        pos = self._pos()
        start = self._offset
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            if self._peek() not in _HEX_DIGITS:
                raise LexError("malformed hexadecimal literal", pos)
            while self._peek() in _HEX_DIGITS:
                self._advance()
            text = self._source[start : self._offset]
            value = int(text, 16)
        else:
            while self._peek() in _DIGITS:
                self._advance()
            text = self._source[start : self._offset]
            if text.startswith("0") and len(text) > 1:
                if "8" in text or "9" in text:
                    raise LexError("malformed octal literal %r" % text, pos)
                value = int(text, 8)
            else:
                value = int(text)
        # Consume (and ignore) integer suffixes.
        while self._peek() in ("u", "U", "l", "L"):
            self._advance()
            text = self._source[start : self._offset]
        if self._peek() in _IDENT_START:
            raise LexError("malformed integer literal %r" % text, pos)
        return T.Token(T.INTLIT, text, pos, value=value)

    def _lex_char(self):
        pos = self._pos()
        self._advance()  # opening quote
        ch = self._peek()
        if ch == "":
            raise LexError("unterminated character literal", pos)
        if ch == "\\":
            self._advance()
            esc = self._peek()
            if esc not in _SIMPLE_ESCAPES:
                raise LexError("unsupported escape '\\%s'" % esc, pos)
            value = _SIMPLE_ESCAPES[esc]
            self._advance()
        else:
            value = ord(ch)
            self._advance()
        if self._peek() != "'":
            raise LexError("unterminated character literal", pos)
        self._advance()
        return T.Token(T.CHARLIT, "'%s'" % chr(value) if 32 <= value < 127 else "'?'", pos, value=value)

    def _lex_string(self):
        pos = self._pos()
        self._advance()  # opening quote
        chars = []
        while True:
            ch = self._peek()
            if ch == "":
                raise LexError("unterminated string literal", pos)
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                esc = self._peek()
                if esc not in _SIMPLE_ESCAPES:
                    raise LexError("unsupported escape '\\%s'" % esc, pos)
                chars.append(chr(_SIMPLE_ESCAPES[esc]))
                self._advance()
            else:
                chars.append(ch)
                self._advance()
        value = "".join(chars)
        return T.Token(T.STRINGLIT, '"%s"' % value, pos, value=value)

    def next_token(self):
        """Return the next token, or an EOF token at end of input."""
        self._skip_whitespace_and_comments()
        pos = self._pos()
        ch = self._peek()
        if ch == "":
            return T.Token(T.EOF, "", pos)
        if ch in _IDENT_START:
            start = self._offset
            while self._peek() in _IDENT_CONT:
                self._advance()
            text = self._source[start : self._offset]
            kind = T.KEYWORD if text in T.KEYWORDS else T.IDENT
            return T.Token(kind, text, pos)
        if ch in _DIGITS:
            return self._lex_integer()
        if ch == "'":
            return self._lex_char()
        if ch == '"':
            return self._lex_string()
        for punct in T.PUNCTUATORS:
            if self._source.startswith(punct, self._offset):
                self._advance(len(punct))
                return T.Token(T.PUNCT, punct, pos)
        raise LexError("unexpected character %r" % ch, pos)

    def tokens(self):
        """Yield all tokens including the trailing EOF token."""
        while True:
            token = self.next_token()
            yield token
            if token.kind == T.EOF:
                return


#: The fast path's master pattern.  ``skip`` covers runs of whitespace,
#: comments and preprocessor lines; ``int`` only matches a literal the
#: reference lexer accepts unchanged (a glued identifier character, an 8 or
#: 9 in an octal literal, or a bare ``0x`` fails the match); ``slow`` claims
#: an unterminated ``/*``, which would otherwise lex as ``/`` then ``*``.
#: Anything no alternative matches goes to :class:`Lexer`.
_TOKEN = re.compile(
    r"(?P<skip>(?:[ \t\r\n\f\v]+|//[^\n]*|/\*.*?\*/|\#[^\n]*)+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<int>(?:0[xX][0-9a-fA-F]+|[1-9][0-9]*|0[0-7]*)[uUlL]*)(?![A-Za-z0-9_])"
    r"|(?P<slow>/\*)"
    r"|(?P<punct>%s)" % "|".join(re.escape(p) for p in T.PUNCTUATORS),
    re.S,
)


def _int_value(text):
    digits = text.rstrip("uUlL")
    if digits[1:2] in ("x", "X"):
        return int(digits, 16)
    if len(digits) > 1 and digits[0] == "0":
        return int(digits, 8)
    return int(digits)


def tokenize(source, source_name="<source>"):
    """Return the full token list (including EOF) for ``source``."""
    tokens = []
    append = tokens.append
    match = _TOKEN.match
    Token = T.Token
    keywords = T.KEYWORDS
    offset = 0
    line = 1
    line_start = 0  # offset of the first character of ``line``
    end = len(source)
    lexer = None
    while offset < end:
        found = match(source, offset)
        group = found.lastgroup if found is not None else None
        if group == "skip":
            text = found.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = offset + text.rindex("\n") + 1
            offset = found.end()
            continue
        if group is None or group == "slow":
            if lexer is None:
                lexer = Lexer(source, source_name)
            lexer._offset = offset
            lexer._line = line
            lexer._column = offset - line_start + 1
            append(lexer.next_token())
            offset = lexer._offset
            line = lexer._line
            line_start = offset - lexer._column + 1
            continue
        text = found.group()
        pos = SourcePos(source_name, line, offset - line_start + 1)
        if group == "ident":
            append(Token(T.KEYWORD if text in keywords else T.IDENT, text, pos))
        elif group == "punct":
            append(Token(T.PUNCT, text, pos))
        else:
            append(Token(T.INTLIT, text, pos, value=_int_value(text)))
        offset = found.end()
    append(Token(T.EOF, "", SourcePos(source_name, line, offset - line_start + 1)))
    return tokens
