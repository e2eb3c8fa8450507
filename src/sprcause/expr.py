"""Arithmetic expressions over model parameters.

Transition probabilities of a parametric MDP are small arithmetic
expressions such as ``"1-p"`` or ``"p*q + 0.5"``.  This module holds a
recursive-descent parser with position-aware errors that compiles each
expression into a flat postfix program, one stack evaluator (over floats,
or over exact Fractions for the exact back end), and a printer whose
output re-parses to the same program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class ExprError(ValueError):
    """Syntax or name error in a parameter expression."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


@dataclass(frozen=True)
class ParamSpace:
    """Ordered parameter names; the dimension of the parameter vector."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("parameter space needs at least one name")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate parameter names")
        if any(not n for n in self.names):
            raise ValueError("empty parameter name")

    @property
    def dimension(self) -> int:
        return len(self.names)


# --- Programs ------------------------------------------------------------

# A program is an expression in postfix order: a literal is its text (so
# exact mode can use Fraction(text)), a parameter is its index in the
# ParamSpace, an operator is one of + - * / or NEG for unary minus.  Being
# flat, a program of any length evaluates, prints and pickles without
# recursion.
Program = tuple[str | int, ...]
NEG = "NEG"

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_ATOM = 3  # literals, parameters and negations never need parentheses


def evaluate(program: Program, point, num=float):
    """Evaluate at a parameter point (indexed as the ParamSpace), reading
    literals as `num(text)`: float arithmetic by default, exact with
    num=Fraction and Fraction values in `point`.  Division by zero raises
    ExprError."""
    if len(program) == 1:
        tok = program[0]
        return point[tok] if type(tok) is int else num(tok)
    stack = []
    for tok in program:
        if type(tok) is int:
            stack.append(point[tok])
        elif tok == "+":
            b = stack.pop()
            stack[-1] += b
        elif tok == "-":
            b = stack.pop()
            stack[-1] -= b
        elif tok == "*":
            b = stack.pop()
            stack[-1] *= b
        elif tok == "/":
            b = stack.pop()
            if b == 0:
                raise ExprError("division by zero during evaluation")
            stack[-1] /= b
        elif tok == NEG:
            stack[-1] = -stack[-1]
        else:
            stack.append(num(tok))
    return stack[0]


def is_literal_zero(program: Program) -> bool:
    """True for a plain 0 / 0.0 literal (used for the enabled-action skeleton)."""
    return len(program) == 1 and type(program[0]) is str and float(program[0]) == 0.0


def to_string(program: Program, names: tuple[str, ...]) -> str:
    """Render with minimal parentheses; parse_expr(to_string(p)) == p."""
    stack: list[tuple[str, int]] = []  # (text, precedence of its top operator)
    for tok in program:
        if type(tok) is int:
            stack.append((names[tok], _ATOM))
        elif tok == NEG:
            text, prec = stack.pop()
            stack.append((f"-({text})" if prec < _ATOM else f"-{text}", _ATOM))
        elif tok in _PRECEDENCE:
            prec = _PRECEDENCE[tok]
            right, right_prec = stack.pop()
            left, left_prec = stack.pop()
            if left_prec < prec:
                left = f"({left})"
            # a+b-c parses left-associatively, so a same-precedence right
            # operand must be parenthesized to survive a round trip unchanged
            if right_prec <= prec:
                right = f"({right})"
            stack.append((f"{left}{tok}{right}", prec))
        else:
            stack.append((tok, _ATOM))
    return stack[0][0]


# --- Parser --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/()]))"
)


class _Parser:
    """Recursive descent over the grammar, emitting postfix tokens."""

    def __init__(self, text: str, params: ParamSpace):
        self.text = text
        self.index = {name: i for i, name in enumerate(params.names)}
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                bad_at = len(text) - len(stripped)
                raise ExprError(f"unexpected character {stripped[0]!r}", bad_at)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0
        self.out: list[str | int] = []

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, "", len(self.text))

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.take()
        if kind != "op" or value != op:
            raise ExprError(f"expected {op!r}", pos)

    def parse(self) -> Program:
        self.expr()
        kind, value, pos = self.peek()
        if kind is not None:
            raise ExprError(f"trailing input {value!r}", pos)
        return tuple(self.out)

    def expr(self):
        self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                self.term()
                self.out.append(value)
            else:
                return

    def term(self):
        self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                self.factor()
                self.out.append(value)
            else:
                return

    def factor(self):
        kind, value, pos = self.take()
        if kind == "num":
            self.out.append(value)
        elif kind == "name":
            if value not in self.index:
                raise ExprError(f"undeclared identifier {value!r}", pos)
            self.out.append(self.index[value])
        elif kind == "op" and value == "(":
            self.expr()
            self.expect_op(")")
        elif kind == "op" and value == "-":
            self.factor()
            self.out.append(NEG)
        else:
            raise ExprError("expected number, identifier, '(' or '-'", pos)


def parse_expr(text: str, params: ParamSpace) -> Program:
    """Parse an arithmetic expression into a program; identifiers must be
    declared in params.  Parentheses and unary minus nest by recursion, so
    nesting deeper than the interpreter's stack allows is an ExprError."""
    if not text or not text.strip():
        raise ExprError("empty expression")
    try:
        return _Parser(text, params).parse()
    except RecursionError:
        raise ExprError("expression nested too deeply") from None
