from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sprcause.expr import (
    BinOp,
    ExprError,
    Neg,
    Num,
    ParamSpace,
    Var,
    evaluate,
    parse_expr,
    to_string,
)

PQ = ParamSpace(("p", "q"))


def test_simple_subtraction_shape():
    tree = parse_expr("1-p", PQ)
    assert tree == BinOp("-", Num("1"), Var("p"))


def test_precedence_shape():
    tree = parse_expr("p*q + 0.5", PQ)
    assert tree == BinOp("+", BinOp("*", Var("p"), Var("q")), Num("0.5"))


def test_undeclared_identifier_is_named():
    with pytest.raises(ExprError, match="'r'"):
        parse_expr("p*(r)", PQ)


def test_syntax_error_has_position():
    with pytest.raises(ExprError) as err:
        parse_expr("p + ", PQ)
    assert err.value.position is not None


@pytest.mark.parametrize("text", ["", "   ", "p q", "(p", "p)", "1..2"])
def test_rejects_malformed(text):
    with pytest.raises(ExprError):
        parse_expr(text, PQ)


def test_left_associativity():
    tree = parse_expr("1-p-q", PQ)
    assert tree == BinOp("-", BinOp("-", Num("1"), Var("p")), Var("q"))
    assert evaluate(tree, {"p": 0.25, "q": 0.5}) == 0.25


def test_unary_minus():
    tree = parse_expr("-p*q", PQ)
    assert tree == BinOp("*", Neg(Var("p")), Var("q"))
    assert evaluate(tree, {"p": 0.5, "q": 0.5}) == -0.25


def test_parenthesized_grouping():
    tree = parse_expr("p*(1-q)", PQ)
    assert evaluate(tree, {"p": 0.5, "q": 0.25}) == pytest.approx(0.375)


def test_exact_evaluation_uses_decimal_literals():
    tree = parse_expr("0.1+p", PQ)
    assert evaluate(tree, {"p": 0.2, "q": 0.0}) == 0.1 + 0.2
    assert evaluate(tree, {"p": Fraction(1, 5), "q": Fraction(0)}, Fraction) == Fraction(3, 10)


def test_division_by_zero_raises():
    tree = parse_expr("p/q", PQ)
    for num in (float, Fraction):
        with pytest.raises(ExprError):
            evaluate(tree, {"p": num(1), "q": num(0)}, num)


# random expression trees for the print/parse round trip
def _exprs(depth):
    leaf = st.one_of(
        st.sampled_from([Var("p"), Var("q")]),
        st.integers(0, 9).map(lambda n: Num(str(n))),
        st.sampled_from([Num("0.5"), Num("0.25"), Num("1.75")]),
    )
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: BinOp(*t)),
            sub.map(Neg),
        ),
        max_leaves=depth,
    )


@given(_exprs(10))
def test_print_parse_round_trip(tree):
    assert parse_expr(to_string(tree), PQ) == tree


def test_parentheses_nested_too_deeply_are_an_expr_error():
    with pytest.raises(ExprError, match="nested too deeply"):
        parse_expr("(" * 340 + "p" + ")" * 340, PQ)
