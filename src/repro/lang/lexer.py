"""Tokenizer shared by the constraint language and the mini imperative language.

The token set is deliberately small: numbers, identifiers, keywords supplied by
the caller, arithmetic and comparison operators, boolean connectives and
punctuation.  Both parsers (``repro.lang.parser`` and ``repro.symexec.parser``)
work on the token stream produced here, which keeps error reporting (line and
column numbers) consistent across the two front ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Set

from repro.errors import ParseError

# Token kinds.
NUMBER = "NUMBER"
IDENT = "IDENT"
KEYWORD = "KEYWORD"
OPERATOR = "OPERATOR"
PUNCT = "PUNCT"
EOF = "EOF"

# Multi-character operators must be listed before their single-character
# prefixes so that maximal-munch tokenisation picks the longest match.
_OPERATORS = (
    "&&", "||", "<=", ">=", "==", "!=", "->",
    "+", "-", "*", "/", "<", ">", "=", "!",
)

_PUNCTUATION = ("(", ")", "{", "}", "[", "]", ",", ";", ":")


@dataclass(frozen=True)
class Token:
    """A single lexical token with source position information."""

    kind: str
    text: str
    line: int
    column: int

    def matches(self, kind: str, text: Optional[str] = None) -> bool:
        """True when the token has the given kind (and text, if provided)."""
        return self.kind == kind and (text is None or self.text == text)

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(source: str, keywords: Optional[Set[str]] = None) -> List[Token]:
    """Tokenise ``source`` into a list ending with an EOF token.

    ``keywords`` upgrades matching identifiers to KEYWORD tokens; the constraint
    language passes none, the mini language passes its statement keywords.
    """
    keywords = keywords or set()
    tokens: List[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(source)

    while index < length:
        char = source[index]

        # Whitespace and newlines.
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char.isspace():
            index += 1
            column += 1
            continue

        # Line comments: both '#' and '//' styles.
        if char == "#" or source.startswith("//", index):
            while index < length and source[index] != "\n":
                index += 1
            continue

        # Numbers: integer or floating point with optional exponent.
        if char.isdigit() or (char == "." and index + 1 < length and source[index + 1].isdigit()):
            start = index
            start_column = column
            index, column = _scan_number(source, index, column, line)
            tokens.append(Token(NUMBER, source[start:index], line, start_column))
            continue

        # Identifiers and keywords (allow dots for names like Math.sin).
        if char.isalpha() or char == "_":
            start = index
            start_column = column
            while index < length and (source[index].isalnum() or source[index] in "_."):
                index += 1
                column += 1
            text = source[start:index]
            kind = KEYWORD if text in keywords else IDENT
            tokens.append(Token(kind, text, line, start_column))
            continue

        # Operators (longest match first).
        operator = _match_prefix(source, index, _OPERATORS)
        if operator is not None:
            tokens.append(Token(OPERATOR, operator, line, column))
            index += len(operator)
            column += len(operator)
            continue

        # Punctuation.
        if char in _PUNCTUATION:
            tokens.append(Token(PUNCT, char, line, column))
            index += 1
            column += 1
            continue

        raise ParseError(f"unexpected character {char!r}", line, column)

    tokens.append(Token(EOF, "", line, column))
    return tokens


def _scan_number(source: str, index: int, column: int, line: int) -> tuple:
    """Advance past a numeric literal, returning the new (index, column)."""
    length = len(source)
    start = index
    while index < length and source[index].isdigit():
        index += 1
    if index < length and source[index] == ".":
        index += 1
        while index < length and source[index].isdigit():
            index += 1
    if index < length and source[index] in "eE":
        next_index = index + 1
        if next_index < length and source[next_index] in "+-":
            next_index += 1
        if next_index < length and source[next_index].isdigit():
            index = next_index
            while index < length and source[index].isdigit():
                index += 1
    text = source[start:index]
    try:
        float(text)
    except ValueError:
        raise ParseError(f"malformed number literal {text!r}", line, column)
    return index, column + (index - start)


def _match_prefix(source: str, index: int, candidates: Sequence[str]) -> Optional[str]:
    """Longest candidate string that is a prefix of ``source[index:]``."""
    for candidate in candidates:
        if source.startswith(candidate, index):
            return candidate
    return None


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: Sequence[Token]) -> None:
        self._tokens = list(tokens)
        self._position = 0

    def peek(self, offset: int = 0) -> Token:
        """Token at the cursor plus ``offset`` (saturating at EOF)."""
        position = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[position]

    def advance(self) -> Token:
        """Return the current token and move the cursor forward."""
        token = self.peek()
        if token.kind != EOF:
            self._position += 1
        return token

    @property
    def position(self) -> int:
        """Index of the current token (pass it to :meth:`rewind` to backtrack)."""
        return self._position

    def rewind(self, position: int) -> None:
        """Move the cursor back to a :attr:`position` read earlier."""
        self._position = position

    def at_end(self) -> bool:
        """True when the cursor is at the EOF token."""
        return self.peek().kind == EOF

    def check(self, kind: str, text: Optional[str] = None) -> bool:
        """True when the current token matches without consuming it."""
        return self.peek().matches(kind, text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        """Consume and return the current token if it matches, else None."""
        if self.check(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        """Consume a token of the given kind/text or raise :class:`ParseError`."""
        token = self.peek()
        if not token.matches(kind, text):
            expected = text if text is not None else kind
            raise ParseError(f"expected {expected!r} but found {token.text!r}", token.line, token.column)
        return self.advance()

    def __iter__(self) -> Iterator[Token]:
        return iter(self._tokens[self._position:])
