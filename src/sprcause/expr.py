"""Arithmetic expressions over model parameters.

Transition probabilities of a parametric MDP are small arithmetic
expressions such as ``"1-p"`` or ``"p*q + 0.5"``.  This module holds the
AST, a recursive-descent parser with position-aware errors, one
evaluator (over floats, or over exact Fractions for the exact back end),
and a printer whose output re-parses to a structurally identical tree.
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


# --- AST -----------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    text: str  # literal text kept so exact mode can use Fraction(text)


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


Expr = Num | Var | Neg | BinOp

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def evaluate(expr: Expr, env: dict, num=float):
    """Evaluate at a parameter point, reading literals as `num(text)`: float
    arithmetic by default, exact with num=Fraction and Fraction values in
    `env`.  Division by zero raises ExprError."""
    if isinstance(expr, Num):
        return num(expr.text)
    if isinstance(expr, Var):
        return env[expr.name]
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, env, num)
    a, b = evaluate(expr.left, env, num), evaluate(expr.right, env, num)
    if expr.op == "+":
        return a + b
    if expr.op == "-":
        return a - b
    if expr.op == "*":
        return a * b
    if b == 0:
        raise ExprError("division by zero during evaluation")
    return a / b


def is_literal_zero(expr: Expr) -> bool:
    """True for a plain 0 / 0.0 literal (used for the enabled-action skeleton)."""
    return isinstance(expr, Num) and float(expr.text) == 0.0


def to_string(expr: Expr) -> str:
    """Render with minimal parentheses; parse(to_string(e)) == e structurally."""
    if isinstance(expr, Num):
        return expr.text
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        inner = to_string(expr.operand)
        if isinstance(expr.operand, BinOp):
            inner = f"({inner})"
        return f"-{inner}"
    prec = _PRECEDENCE[expr.op]
    left = to_string(expr.left)
    if isinstance(expr.left, BinOp) and _PRECEDENCE[expr.left.op] < prec:
        left = f"({left})"
    right = to_string(expr.right)
    # a+b-c parses left-associatively, so a same-precedence right child
    # must be parenthesized to survive a round trip unchanged
    if isinstance(expr.right, BinOp) and _PRECEDENCE[expr.right.op] <= prec:
        right = f"({right})"
    return f"{left}{expr.op}{right}"


# --- Parser --------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/()]))"
)


class _Parser:
    def __init__(self, text: str, params: ParamSpace):
        self.text = text
        self.params = params
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

    def parse(self) -> Expr:
        node = self.expr()
        kind, value, pos = self.peek()
        if kind is not None:
            raise ExprError(f"trailing input {value!r}", pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                node = BinOp(value, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                node = BinOp(value, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        kind, value, pos = self.take()
        if kind == "num":
            return Num(value)
        if kind == "name":
            if value not in self.params.names:
                raise ExprError(f"undeclared identifier {value!r}", pos)
            return Var(value)
        if kind == "op" and value == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and value == "-":
            return Neg(self.factor())
        raise ExprError("expected number, identifier, '(' or '-'", pos)


def parse_expr(text: str, params: ParamSpace) -> Expr:
    """Parse an arithmetic expression; identifiers must be declared in params."""
    if not text or not text.strip():
        raise ExprError("empty expression")
    try:
        return _Parser(text, params).parse()
    except RecursionError:
        raise ExprError("expression nested too deeply") from None
