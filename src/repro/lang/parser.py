"""Parser for the textual constraint language.

Grammar (informal)::

    constraint_set  := path_condition ('||' path_condition)*
    path_condition  := conjunct ('&&' conjunct)*
    conjunct        := constraint | '(' path_condition ')'
    constraint      := expression comparison expression
    comparison      := '<=' | '<' | '>=' | '>' | '==' | '!='
    expression      := term (('+' | '-') term)*
    term            := unary (('*' | '/') unary)*
    unary           := '-' unary | primary
    primary         := NUMBER | IDENT | IDENT '(' expression (',' expression)* ')'
                     | '(' expression ')'

Function names written Java-style (``Math.sin``) are normalised by stripping
the ``Math.`` prefix, so constraints copied from SPF output parse unchanged.

A parenthesised conjunction is flattened into the enclosing one, so the text
``str(ConstraintSet)`` renders (``(a && b) || (c)``) parses back.  A ``(``
opens arithmetic when that parses as a constraint and a conjunction
otherwise.
"""

from __future__ import annotations

from typing import List

from repro.errors import ParseError
from repro.lang import ast
from repro.lang.lexer import EOF, IDENT, NUMBER, OPERATOR, PUNCT, TokenStream, tokenize

_COMPARISONS = set(ast.COMPARISON_OPERATORS)


class ConstraintParser:
    """Recursive-descent parser producing :mod:`repro.lang.ast` nodes."""

    def __init__(self, source: str) -> None:
        self._stream = TokenStream(tokenize(source))

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def parse_expression(self) -> ast.Expression:
        """Parse a single arithmetic expression; whole input must be consumed."""
        expression = self._expression()
        self._expect_end()
        return expression

    def parse_constraint(self) -> ast.Constraint:
        """Parse a single atomic constraint; whole input must be consumed."""
        constraint = self._constraint()
        self._expect_end()
        return constraint

    def parse_path_condition(self) -> ast.PathCondition:
        """Parse a conjunction of constraints; whole input must be consumed."""
        pc = self._path_condition()
        self._expect_end()
        return pc

    def parse_constraint_set(self) -> ast.ConstraintSet:
        """Parse a disjunction of path conditions; whole input must be consumed."""
        path_conditions = [self._path_condition()]
        while self._stream.accept(OPERATOR, "||"):
            path_conditions.append(self._path_condition())
        self._expect_end()
        return ast.ConstraintSet.of(path_conditions)

    # ------------------------------------------------------------------ #
    # Grammar rules
    # ------------------------------------------------------------------ #
    def _path_condition(self) -> ast.PathCondition:
        constraints = self._conjunct()
        while self._stream.accept(OPERATOR, "&&"):
            constraints.extend(self._conjunct())
        return ast.PathCondition.of(constraints)

    def _conjunct(self) -> List[ast.Constraint]:
        if not self._stream.check(PUNCT, "("):
            return [self._constraint()]
        start = self._stream.position
        try:
            return [self._constraint()]
        except ParseError:
            # Not ``(arithmetic) <op> ...``: a parenthesised conjunction.
            self._stream.rewind(start)
        self._stream.expect(PUNCT, "(")
        constraints = list(self._path_condition().constraints)
        self._stream.expect(PUNCT, ")")
        return constraints

    def _constraint(self) -> ast.Constraint:
        left = self._expression()
        token = self._stream.peek()
        if token.kind != OPERATOR or token.text not in _COMPARISONS:
            raise ParseError(f"expected a comparison operator, found {token.text!r}", token.line, token.column)
        self._stream.advance()
        right = self._expression()
        return ast.Constraint(token.text, left, right)

    def _expression(self) -> ast.Expression:
        node = self._term()
        while True:
            if self._stream.accept(OPERATOR, "+"):
                node = ast.BinaryOp("+", node, self._term())
            elif self._stream.accept(OPERATOR, "-"):
                node = ast.BinaryOp("-", node, self._term())
            else:
                return node

    def _term(self) -> ast.Expression:
        node = self._unary()
        while True:
            if self._stream.accept(OPERATOR, "*"):
                node = ast.BinaryOp("*", node, self._unary())
            elif self._stream.accept(OPERATOR, "/"):
                node = ast.BinaryOp("/", node, self._unary())
            else:
                return node

    def _unary(self) -> ast.Expression:
        if self._stream.accept(OPERATOR, "-"):
            return ast.UnaryOp("-", self._unary())
        if self._stream.accept(OPERATOR, "+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> ast.Expression:
        token = self._stream.peek()

        if token.kind == NUMBER:
            self._stream.advance()
            return ast.Constant(float(token.text))

        if token.kind == IDENT:
            self._stream.advance()
            name = token.text
            if self._stream.check(PUNCT, "("):
                return self._function_call(name)
            return ast.Variable(name)

        if token.matches(PUNCT, "("):
            self._stream.advance()
            expression = self._expression()
            self._stream.expect(PUNCT, ")")
            return expression

        raise ParseError(f"unexpected token {token.text!r}", token.line, token.column)

    def _function_call(self, name: str) -> ast.FunctionCall:
        normalized = name[5:] if name.startswith("Math.") else name
        self._stream.expect(PUNCT, "(")
        arguments: List[ast.Expression] = []
        if not self._stream.check(PUNCT, ")"):
            arguments.append(self._expression())
            while self._stream.accept(PUNCT, ","):
                arguments.append(self._expression())
        self._stream.expect(PUNCT, ")")
        return ast.FunctionCall(normalized.lower(), tuple(arguments))

    def _expect_end(self) -> None:
        token = self._stream.peek()
        if token.kind != EOF:
            raise ParseError(f"unexpected trailing input {token.text!r}", token.line, token.column)


# --------------------------------------------------------------------------- #
# Module-level convenience functions
# --------------------------------------------------------------------------- #
def parse_expression(source: str) -> ast.Expression:
    """Parse an arithmetic expression from text."""
    return ConstraintParser(source).parse_expression()


def parse_constraint(source: str) -> ast.Constraint:
    """Parse a single atomic constraint from text."""
    return ConstraintParser(source).parse_constraint()


def parse_path_condition(source: str) -> ast.PathCondition:
    """Parse a conjunction (``&&``) of constraints from text."""
    return ConstraintParser(source).parse_path_condition()


def parse_constraint_set(source: str) -> ast.ConstraintSet:
    """Parse a disjunction (``||``) of path conditions from text."""
    return ConstraintParser(source).parse_constraint_set()
