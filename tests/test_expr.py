from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sprcause.expr import (
    NEG,
    ExprError,
    ParamSpace,
    evaluate,
    parse_expr,
    to_string,
)

PQ = ParamSpace(("p", "q"))


def test_simple_subtraction_shape():
    assert parse_expr("1-p", PQ) == ("1", 0, "-")


def test_precedence_shape():
    assert parse_expr("p*q + 0.5", PQ) == (0, 1, "*", "0.5", "+")


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
    program = parse_expr("1-p-q", PQ)
    assert program == ("1", 0, "-", 1, "-")
    assert evaluate(program, (0.25, 0.5)) == 0.25


def test_unary_minus():
    program = parse_expr("-p*q", PQ)
    assert program == (0, NEG, 1, "*")
    assert evaluate(program, (0.5, 0.5)) == -0.25


def test_parenthesized_grouping():
    program = parse_expr("p*(1-q)", PQ)
    assert program == (0, "1", 1, "-", "*")
    assert evaluate(program, (0.5, 0.25)) == pytest.approx(0.375)


def test_exact_evaluation_uses_decimal_literals():
    program = parse_expr("0.1+p", PQ)
    assert evaluate(program, (0.2, 0.0)) == 0.1 + 0.2
    assert evaluate(program, (Fraction(1, 5), Fraction(0)), Fraction) == Fraction(3, 10)


def test_division_by_zero_raises():
    program = parse_expr("p/q", PQ)
    for num in (float, Fraction):
        with pytest.raises(ExprError):
            evaluate(program, (num(1), num(0)), num)


def test_a_long_sum_parses_evaluates_and_prints():
    # sums and products are loops in the parser, and programs are flat, so
    # no length meets the interpreter's recursion limit
    text = "+".join(["p*q"] * 20_000)
    program = parse_expr(text, PQ)
    assert evaluate(program, (Fraction(1, 2), Fraction(1, 4)), Fraction) == 2500
    assert to_string(program, PQ.names) == text


# random programs for the print/parse round trip
def _programs(depth):
    leaf = st.one_of(
        st.sampled_from([(0,), (1,)]),
        st.integers(0, 9).map(lambda n: (str(n),)),
        st.sampled_from([("0.5",), ("0.25",), ("1.75",)]),
    )
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: t[1] + t[2] + (t[0],)),
            sub.map(lambda p: p + (NEG,)),
        ),
        max_leaves=depth,
    )


@given(_programs(10))
def test_print_parse_round_trip(program):
    assert parse_expr(to_string(program, PQ.names), PQ) == program


def test_parentheses_nested_too_deeply_are_an_expr_error():
    with pytest.raises(ExprError, match="nested too deeply"):
        parse_expr("(" * 340 + "p" + ")" * 340, PQ)
