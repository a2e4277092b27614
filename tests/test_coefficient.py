import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from hadamard_bvp import (
    Constant,
    DomainInvalid,
    EvalError,
    Expression,
    ExpressionSyntaxError,
    OutOfTableRange,
    ResourceLimit,
    Table,
    UnknownIdentifier,
    coefficient,
    eval_coefficient,
    load_table,
    parse_expr,
    pretty,
)
from hadamard_bvp.expression import MAX_DEPTH, MAX_TOKENS, BinOp, Call, Neg, Num, Var
from hadamard_bvp.selftest import SEED


def ev(src, t=1.0):
    return eval_coefficient(Expression(parse_expr(src)), t)


def test_precedence_examples():
    assert ev("1+2*3") == 7.0
    assert ev("2*t^2 - 1", 2.0) == 7.0
    assert ev("ln(t)", math.e) == 1.0


def test_structure_of_simple_parse():
    assert parse_expr("ln(t)") == Call("ln", Var())
    assert parse_expr("-t") == Neg(Var())
    assert parse_expr("1+2*3") == BinOp("+", Num(1.0), BinOp("*", Num(2.0), Num(3.0)))


def test_unary_minus_and_power_binding():
    # ^ binds tighter than unary minus, and is right-associative.
    assert ev("-2^2") == -4.0
    assert ev("(0-2)^2") == 4.0
    assert ev("2^-3") == 0.125
    assert ev("2^3^2") == 512.0
    assert ev("--2") == 2.0
    assert ev("2-3-4") == -5.0
    assert ev("2/4/8") == 0.0625
    assert ev("-(2+3)") == -5.0


def test_whitespace_insensitive():
    assert parse_expr(" 2 * t ^ 2\t-\n1 ") == parse_expr("2*t^2-1")


def test_number_forms():
    assert ev("1e3") == 1000.0
    assert ev(".5") == 0.5
    assert ev("2.") == 2.0
    assert ev("1.5e-2") == 0.015
    assert ev("3E+2") == 300.0


def test_no_implicit_multiplication():
    for src in ("2t", "2(3)", "t t", "(1)(2)"):
        with pytest.raises(SyntaxError):
            parse_expr(src)


def test_unknown_identifiers_with_offsets():
    with pytest.raises(UnknownIdentifier) as info:
        parse_expr("2*y")
    assert info.value.offset == 2
    with pytest.raises(UnknownIdentifier):
        parse_expr("log(t)")  # only ln is defined
    with pytest.raises(UnknownIdentifier):
        parse_expr("e")  # the constant name is not a value


def test_syntax_errors_report_offset_and_expectations():
    with pytest.raises(SyntaxError) as info:
        parse_expr("1+*2")
    assert info.value.offset == 2
    assert len(info.value.expected) > 0
    with pytest.raises(SyntaxError) as info:
        parse_expr("(1+2")
    assert "')'" in info.value.expected
    with pytest.raises(SyntaxError):
        parse_expr("")
    with pytest.raises(SyntaxError):
        parse_expr("1+2)")
    # A literal that overflows a float is refused where it starts.
    with pytest.raises(ExpressionSyntaxError, match="value must be finite: '1e400' at offset 2$") as info:
        parse_expr("2*1e400*t")
    assert (info.value.offset, info.value.expected) == (2, ())

    # The tokenizer's two rejections: a character no token starts with, and
    # one that is not ASCII.
    with pytest.raises(ExpressionSyntaxError, match=r"unexpected character '\$' at offset 3") as info:
        parse_expr("2*t$")
    assert info.value.offset == 3
    assert info.value.expected == ("identifier", "number", "operator", "parenthesis")
    with pytest.raises(ExpressionSyntaxError, match="non-ASCII character at offset 1") as info:
        parse_expr("t\u00b72")
    assert info.value.offset == 1
    assert info.value.expected == ("ASCII character",)


def _random_expr(rng, depth):
    """Random AST matching the grammar, for round-trip fuzzing."""
    if depth == 0 or rng.random() < 0.25:
        # Indexed, not rng.choice: numpy would read the tuple nodes as rows.
        leaves = [Num(float(rng.integers(0, 50)) / 4.0), Var(), Num(float(rng.random()))]
        return leaves[rng.integers(0, 3)]
    kind = rng.random()
    if kind < 0.55:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind < 0.75:
        return Neg(_random_expr(rng, depth - 1))
    fn = rng.choice(["ln", "exp", "sin", "cos", "abs", "sqrt"])
    return Call(fn, _random_expr(rng, depth - 1))


def test_round_trip_corpus():
    hand_written = [
        "t", "-t", "1+2*3", "2*t^2-1", "ln(t)", "ln(t)*exp(-t/2)",
        "sqrt(abs(t-2))", "sin(t)^2+cos(t)^2", "-(t+1)/(t-1)", "2^-3^2",
        "1/(1+exp(-t))", "t^2^0.5", "abs(-t)", "((t))", "-t^2",
        "t*-2", "1--1", "exp(ln(t))", "t/2/3*4", "0.25*t^0.5",
    ]
    for src in hand_written:
        ast = parse_expr(src)
        assert parse_expr(pretty(ast)) == ast, src
    rng = np.random.default_rng(SEED)
    for _ in range(30):
        ast = _random_expr(rng, 4)
        assert parse_expr(pretty(ast)) == ast, pretty(ast)
    # The parser builds no negative number, so a hand-built one reparses
    # as a negation.
    assert parse_expr(pretty(Num(-1.0))) == Neg(Num(1.0))


def test_eval_determinism():
    q = Expression(parse_expr("sin(t)^2 + ln(t)/t"))
    a = eval_coefficient(q, 1.7)
    b = eval_coefficient(q, 1.7)
    assert a == b  # identical bits


def test_eval_errors():
    with pytest.raises(EvalError):
        ev("ln(t)", 0.0)
    with pytest.raises(EvalError):
        ev("1/(t-1)", 1.0)
    with pytest.raises(EvalError):
        ev("(0-2)^0.5")
    with pytest.raises(EvalError):
        ev("sqrt(0-t)", 4.0)
    with pytest.raises(EvalError):
        eval_coefficient(Constant(math.inf), 1.0)
    with pytest.raises(EvalError, match="not a real number"):
        eval_coefficient(Constant(1j), 1.0)


# Each entry makes a string nested k levels above ``t``, a tree of height
# k + 1, and gives the offset where the parser stops for k = MAX_DEPTH: at
# the innermost operand, or after a left-associative chain.
_NESTED = {
    "parens": (lambda k: "(" * k + "t" + ")" * k, lambda k: k),
    "minus": (lambda k: "-" * k + "t", lambda k: k),
    "power": (lambda k: "t" + "^1" * k, lambda k: 2 * k),
    "calls": (lambda k: "abs(" * k + "t" + ")" * k, lambda k: 4 * k),
    "sum": (lambda k: "t" + "+t" * k, lambda k: 2 * k + 1),
}


@pytest.mark.parametrize("kind", sorted(_NESTED))
def test_nesting_depth_is_limited(kind):
    build, offset = _NESTED[kind]
    deepest = Expression(parse_expr(build(MAX_DEPTH - 1)))
    assert parse_expr(pretty(deepest.ast)) == deepest.ast
    assert math.isfinite(deepest.eval(1.5))
    assert repr(deepest).startswith("Expression(ast=")
    message = f"nested deeper than {MAX_DEPTH} levels"
    with pytest.raises(ExpressionSyntaxError, match=message) as info:
        parse_expr(build(MAX_DEPTH))
    assert info.value.offset == offset(MAX_DEPTH)
    assert info.value.expected == ()
    with pytest.raises(ExpressionSyntaxError):
        parse_expr(build(10_000))  # no RecursionError, however deep


def _balanced_sum(k):
    """2^k terms t summed in a balanced tree: 4 * 2^k - 3 tokens, 2k + 1 levels."""
    return "t" if k == 0 else f"({_balanced_sum(k - 1)}+{_balanced_sum(k - 1)})"


def test_token_count_is_limited():
    # 21 levels deep, so the depth cap lets it through; three or four unary
    # minus signs bring it to the token cap and one past it.
    body = _balanced_sum(10)
    assert len(body) == MAX_TOKENS - 3
    at_cap = Expression(parse_expr("---" + body))
    assert at_cap.eval(1.5) == -1536.0
    assert parse_expr(pretty(at_cap.ast)) == at_cap.ast
    assert parse_expr(" ".join("---" + body)) == at_cap.ast  # whitespace is no token
    message = f"expression longer than {MAX_TOKENS} tokens at offset {MAX_TOKENS}$"
    with pytest.raises(ExpressionSyntaxError, match=message) as info:
        parse_expr("----" + body)
    assert (info.value.offset, info.value.expected) == (MAX_TOKENS, ())


def test_operator_outside_the_table_is_rejected():
    # A hand-built tree may name any operator; only the table's are evaluated.
    with pytest.raises(KeyError):
        Expression(BinOp("%", Num(7.0), Num(2.0))).eval(1.0)


def test_constant_and_table():
    assert eval_coefficient(Constant(3.5), 123.0) == 3.5
    tbl = Table(points=((1.0, 0.0), (math.e, 1.0)))
    assert eval_coefficient(tbl, 1.0) == 0.0
    assert eval_coefficient(tbl, math.e) == 1.0
    assert abs(eval_coefficient(tbl, math.exp(0.5)) - 0.5) <= 1e-15


def test_table_monotone_between_knots():
    tbl = Table(points=((1.0, 2.0), (2.0, 5.0), (4.0, 3.0)))
    ts = np.exp(np.linspace(0.0, math.log(2.0), 40))
    vals = [eval_coefficient(tbl, t) for t in ts]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    ts2 = np.exp(np.linspace(math.log(2.0), math.log(4.0), 40))
    vals2 = [eval_coefficient(tbl, t) for t in ts2]
    assert all(b <= a for a, b in zip(vals2, vals2[1:]))


def test_table_is_exact_in_log_coordinates():
    # v_k + s_k ln(t/t_k) against 50 digits, to 1e-15 of the knot values, on
    # a narrow table (where ln t of the knots would keep only half the
    # digits of their difference) and on knots further apart than the float
    # range.
    import mpmath

    for points, t in (
        (((3.7, 0.25), (3.7 + 3.7e-9, -0.75)), 3.7 + 1e-9),
        (((1e-300, 1.0), (1e300, -0.5)), 1.5),
    ):
        (ta, va), (tb, vb) = points
        with mpmath.workdps(50):
            ta, va, tb, vb, tm = map(mpmath.mpf, (ta, va, tb, vb, t))
            exact = va + (vb - va) * mpmath.log(tm / ta) / mpmath.log(tb / ta)
            assert abs(eval_coefficient(Table(points), t) - exact) <= 1e-15 * max(abs(va), abs(vb))


def test_table_validation_and_range():
    with pytest.raises(DomainInvalid):
        Table(points=((1.0, 0.0),))
    with pytest.raises(DomainInvalid):
        Table(points=((2.0, 0.0), (1.0, 1.0)))
    with pytest.raises(DomainInvalid):
        Table(points=((-1.0, 0.0), (2.0, 1.0)))
    tbl = Table(points=((1.0, 0.0), (2.0, 1.0)))
    with pytest.raises(DomainInvalid):
        tbl._replace(points=((2.0, 0.0), (1.0, 1.0)))
    with pytest.raises(OutOfTableRange):
        eval_coefficient(tbl, 0.5)
    with pytest.raises(OutOfTableRange):
        eval_coefficient(tbl, 2.5)


@pytest.mark.parametrize("points", [
    ((1.0, 0.5), (math.inf, 1.0)),
    ((1.0, 0.5), (2.0, math.inf)),
    ((1.0, math.nan), (2.0, 1.0)),
    ((math.nan, 0.5), (2.0, 1.0)),
], ids=["inf-knot", "inf-value", "nan-value", "nan-knot"])
def test_table_rejects_non_finite_entries(points):
    with pytest.raises(DomainInvalid, match="table entries must be finite"):
        Table(points)


@pytest.mark.parametrize(
    "rows", ["1.0,0.5\n1e999,1.0\n", "1.0,0.5\n2.0,-1e999\n"], ids=["knot", "value"]
)
def test_load_table_rejects_cells_that_overflow(tmp_path, rows):
    # 1e999 is a decimal literal, but it overflows to inf; parse_decimal
    # rejects it while the cell's line is known.
    path = tmp_path / "q.csv"
    path.write_text("t,q\n" + rows)
    with pytest.raises(DomainInvalid, match=r"q\.csv:3: value must be finite"):
        load_table(str(path))


def test_load_table(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("t,q\n1.0,0.5\n2.0,1.5\n4.0,-1.0\n")
    tbl = load_table(str(path))
    assert eval_coefficient(tbl, 2.0) == 1.5
    bad = tmp_path / "bad.csv"
    bad.write_text("time,value\n1,2\n")
    with pytest.raises(DomainInvalid):
        load_table(str(bad))
    bad.write_text("t,q\n1.0,hello\n2.0,1\n")
    with pytest.raises(DomainInvalid):
        load_table(str(bad))
    # A blank line is skipped; a row of three columns is rejected by line.
    path.write_text("t,q\n1.0,0.5\n\n2.0,1.5\n")
    assert load_table(str(path)) == Table(((1.0, 0.5), (2.0, 1.5)))
    bad.write_text("t,q\n1.0,0.5\n2.0,1.5,7\n")
    with pytest.raises(DomainInvalid) as info:
        load_table(str(bad))
    assert str(info.value) == f"{bad}:3: expected two columns, got 3"
    # A quoted cell may span lines; a later row is named by its own line.
    bad.write_text('t,q\n"1\n",0.5\n2.0,x\n')
    with pytest.raises(DomainInvalid, match=r"bad\.csv:4: not a real number: 'x'$"):
        load_table(str(bad))


def test_load_table_reads_a_utf8_byte_order_mark(tmp_path):
    # Spreadsheet "CSV UTF-8" exports start with a BOM and end lines in CRLF.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(b"t,q\r\n1.0,0.5\r\n2.0,1.5\r\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_table(str(marked)) == load_table(str(plain)) == Table(((1.0, 0.5), (2.0, 1.5)))


def test_load_table_rejects_bytes_that_are_not_utf8(tmp_path):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"t,q\n1.0,0.5\xff\n2.0,1.5\n")
    with pytest.raises(DomainInvalid, match=r"latin1\.csv: not UTF-8 text$"):
        load_table(str(bad))


def test_load_table_reads_up_to_its_cap(tmp_path, monkeypatch):
    # The cap counts every character, line breaks too; a file one past it
    # is a ResourceLimit whichever line passes it.
    text = "t,q\n1.0,0.5\n2.0,1.5\n"
    path = tmp_path / "q.csv"
    path.write_text(text)
    monkeypatch.setattr(coefficient, "TABLE_MAX_CHARS", len(text))
    assert load_table(str(path)) == Table(((1.0, 0.5), (2.0, 1.5)))
    for extra in ("\n", "3.0,2.5\n"):
        path.write_text(text + extra)
        with pytest.raises(ResourceLimit, match=rf"q\.csv: table exceeds cap {len(text)} characters$"):
            load_table(str(path))


def test_load_table_stops_reading_a_line_at_its_cap(tmp_path, monkeypatch):
    # One line of 16 times the cap, with no line break: the reader stops at
    # the cap instead of holding the whole line.
    monkeypatch.setattr(coefficient, "TABLE_MAX_CHARS", 2**20)
    path = tmp_path / "q.csv"
    with open(path, "w") as fh:
        fh.write("t,q\n")
        fh.write("1" * (16 * coefficient.TABLE_MAX_CHARS))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="table exceeds cap"):
            load_table(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * coefficient.TABLE_MAX_CHARS


def test_load_table_builds_each_knot_once(tmp_path):
    # The Table is made from the rows as they are read: one (t, q) pair and
    # two floats per knot, about 120 bytes, not a list of pairs copied into
    # a second set (about 193 bytes per knot).
    n = 50_000
    path = tmp_path / "q.csv"
    path.write_text("t,q\n" + "".join(f"{k},0\n" for k in range(1, n + 1)))
    tracemalloc.start()
    try:
        table = load_table(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.points) == n
    assert peak < 140 * n


def test_eval_coefficient_rejects_non_coefficients():
    with pytest.raises(DomainInvalid):
        eval_coefficient(lambda t: t, 1.0)


# Every string of up to 4 tokens over this alphabet (22 621 of them), parsed;
# a token next to another can merge with it ("2" "2" is 22, "ln" "t" is lnt).
_ALPHABET = ("2", "t", "-", "+", "*", "/", "^", "(", ")", "ln", "y", " ")
# SHA-256 of their outcomes as ``_parse_outcome`` writes them.
PARSE_4_SHA256 = "2ff431d06fda4089e5e22c6a9fb49f049f2349a732b35b2e3efcccdf09020758"


def _parse_outcome(src):
    """The tree, its printed form and its value at t = 1.5 or evaluation
    error; for a rejected string the error's class, message, offset and
    expected tokens."""
    try:
        ast = parse_expr(src)
    except (ExpressionSyntaxError, UnknownIdentifier) as exc:
        return f"{type(exc).__name__}|{exc}|{exc.offset}|{getattr(exc, 'expected', None)}"
    try:
        value = repr(Expression(ast).eval(1.5))
    except EvalError as exc:
        value = f"EvalError|{exc}"
    return f"{ast!r}|{pretty(ast)}|{value}"


def test_parse_outcomes_are_frozen():
    lines = [
        f"{src!r}\t{_parse_outcome(src)}"
        for k in range(5)
        for src in map("".join, itertools.product(_ALPHABET, repeat=k))
    ]
    assert len(lines) == 22_621
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == PARSE_4_SHA256
