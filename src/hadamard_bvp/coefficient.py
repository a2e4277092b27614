"""Coefficient functions q(t): constants, parsed expressions, sampled tables.

The expression grammar is deliberately tiny: one variable ``t``, the
arithmetic operators ``+ - * / ^`` (``^`` right-associative, binding tighter
than unary minus), and the functions ``ln, exp, sin, cos, abs, sqrt``.
Numbers are plain decimals with an optional exponent part; implicit
multiplication is not supported.

Tables interpolate linearly in ln t rather than t: all kernel structure in
this package lives in ln(t/t1), so log-linear interpolation is the
representation that keeps table coefficients well behaved near t1.  Between
knots t_k < t < t_{k+1} a table is v_k + s_k ln(t/t_k), with the slope
s_k = (v_{k+1} - v_k) / ln(t_{k+1}/t_k) and both logarithms formed by
``params.log_ratio``; at a knot it is the knot's value exactly.  So the
integral of |q| over a range of the table has a closed form,
``Table.abs_integral``, and a table is never sampled to integrate it.
"""

from __future__ import annotations

import bisect
import csv
import math
import re
from dataclasses import dataclass
from operator import itemgetter

from .errors import (
    DomainInvalid,
    EvalError,
    ExpressionSyntaxError,
    NonFiniteResult,
    OutOfTableRange,
    UnknownIdentifier,
)
from .params import log_ratio

__all__ = [
    "Coefficient",
    "Constant",
    "Expression",
    "Table",
    "ExprNode",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "FUNCTIONS",
    "parse_expr",
    "pretty",
    "eval_coefficient",
    "load_table",
]

FUNCTIONS = {
    "ln": math.log,
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
    "abs": abs,
    "sqrt": math.sqrt,
}


# --------------------------------------------------------------------------
# AST


class ExprNode:
    """Base class for expression tree nodes (immutable)."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(ExprNode):
    value: float


@dataclass(frozen=True)
class Var(ExprNode):
    """The single variable ``t``."""


@dataclass(frozen=True)
class Neg(ExprNode):
    operand: ExprNode


@dataclass(frozen=True)
class BinOp(ExprNode):
    op: str
    left: ExprNode
    right: ExprNode


@dataclass(frozen=True)
class Call(ExprNode):
    func: str
    arg: ExprNode


# --------------------------------------------------------------------------
# Lexer / parser

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, byte offset) triples; final sentinel is ('end', '', len)."""
    if not src.isascii():
        bad = next(i for i, ch in enumerate(src) if not ch.isascii())
        raise ExpressionSyntaxError(
            "non-ASCII character", len(src[:bad].encode()), ("ASCII character",)
        )
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExpressionSyntaxError(
                f"unexpected character {src[pos]!r}",
                pos,
                ("number", "identifier", "operator", "parenthesis"),
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Recursive descent over the token stream.

    Grammar (precedence low to high; ``^`` right-associative):

        sum    := term (('+' | '-') term)*
        term   := unary (('*' | '/') unary)*
        unary  := '-' unary | power
        power  := atom ('^' unary)?
        atom   := NUMBER | 't' | FUNC '(' sum ')' | '(' sum ')'
    """

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]) -> ExpressionSyntaxError:
        kind, text, offset = self.peek()
        what = "end of input" if kind == "end" else f"token {text!r}"
        return ExpressionSyntaxError(f"unexpected {what}", offset, expected)

    def parse(self) -> ExprNode:
        node = self.sum()
        if self.peek()[0] != "end":
            raise self.fail(("end of input", "'+'", "'-'", "'*'", "'/'", "'^'"))
        return node

    def sum(self) -> ExprNode:
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> ExprNode:
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> ExprNode:
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> ExprNode:
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            # Right-associative; the exponent may itself start with '-'.
            return BinOp("^", base, self.unary())
        return base

    def atom(self) -> ExprNode:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "ident":
            self.advance()
            if self.peek()[:2] == ("op", "("):
                if text not in FUNCTIONS:
                    raise UnknownIdentifier(text, offset)
                self.advance()
                arg = self.sum()
                if self.peek()[:2] != ("op", ")"):
                    raise self.fail(("')'",))
                self.advance()
                return Call(text, arg)
            if text == "t":
                return Var()
            raise UnknownIdentifier(text, offset)
        if kind == "op" and text == "(":
            self.advance()
            node = self.sum()
            if self.peek()[:2] != ("op", ")"):
                raise self.fail(("')'",))
            self.advance()
            return node
        raise self.fail(("number", "'t'", "function name", "'('", "'-'"))


def parse_expr(src: str) -> ExprNode:
    """Parse a coefficient expression into an AST.

    Raises ExpressionSyntaxError (with byte offset and the accepted token
    kinds) or UnknownIdentifier.
    """
    if not isinstance(src, str) or not src.strip():
        raise ExpressionSyntaxError("empty expression", 0, ("expression",))
    return _Parser(src).parse()


# --------------------------------------------------------------------------
# Pretty-printer
#
# Binding levels: '+'/'-' = 1, '*'/'/' = 2, unary minus = 3, '^' = 4,
# atoms = 5.  A child is parenthesised when its level is below the level its
# slot requires, which is exactly the condition for the reparse to rebuild
# the original tree.

_BIN_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _level(node: ExprNode) -> int:
    if isinstance(node, BinOp):
        return _BIN_LEVEL[node.op]
    if isinstance(node, Neg):
        return 3
    return 5


def _render(node: ExprNode, required: int) -> str:
    if isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = "t"
    elif isinstance(node, Call):
        text = f"{node.func}({_render(node.arg, 1)})"
    elif isinstance(node, Neg):
        text = "-" + _render(node.operand, 3)
    elif isinstance(node, BinOp):
        level = _BIN_LEVEL[node.op]
        if node.op == "^":
            text = _render(node.left, level + 1) + "^" + _render(node.right, 3)
        else:
            text = (
                _render(node.left, level)
                + node.op
                + _render(node.right, level + 1)
            )
    else:  # pragma: no cover - exhaustive over node kinds
        raise TypeError(f"not an ExprNode: {node!r}")
    if _level(node) < required:
        return "(" + text + ")"
    return text


def pretty(node: ExprNode) -> str:
    """Canonical textual form; reparsing yields a structurally equal tree."""
    return _render(node, 1)


# --------------------------------------------------------------------------
# Evaluation


def _eval_node(node: ExprNode, t: float) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        return -_eval_node(node.operand, t)
    if isinstance(node, Call):
        arg = _eval_node(node.arg, t)
        try:
            return FUNCTIONS[node.func](arg)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"{node.func}({arg!r}): {exc}") from exc
    if isinstance(node, BinOp):
        left = _eval_node(node.left, t)
        right = _eval_node(node.right, t)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                return left / right
            return math.pow(left, right)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalError(f"{left!r} {node.op} {right!r}: {exc}") from exc
    raise TypeError(f"not an ExprNode: {node!r}")


class Coefficient:
    """Base class for coefficient functions on [t1, t2]."""

    __slots__ = ()

    def eval(self, t: float) -> float:
        raise NotImplementedError

    def __call__(self, t: float) -> float:
        return self.eval(t)


@dataclass(frozen=True)
class Constant(Coefficient):
    value: float

    def eval(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class Expression(Coefficient):
    ast: ExprNode

    def eval(self, t: float) -> float:
        return _eval_node(self.ast, t)


# Coefficients (n - 1)/n! of d^n in phi(d) = (d - 1) e^d + 1, from n = 20
# down to n = 2; the terms past n = 20 are below 1e-17 of phi for |d| < 1.
_PHI_SERIES = tuple((n - 1) / math.factorial(n) for n in range(20, 1, -1))


def _t_phi(tc: float, to: float, d: float) -> float:
    """tc * phi(d) for to = tc e^d, where phi(d) = (d - 1) e^d + 1 >= 0.

    For |d| < 1, where the closed form cancels, phi comes from its series;
    otherwise the product is to (d - 1) + tc, which cannot overflow.
    """
    if abs(d) >= 1.0:
        return to * (d - 1.0) + tc
    acc = 0.0
    for c in _PHI_SERIES:
        acc = acc * d + c
    return tc * acc * d * d


_knot = itemgetter(0)


@dataclass(frozen=True)
class Table(Coefficient):
    """Sampled coefficient, linear interpolation in (ln t, value).

    Knots must be strictly increasing with positive t; at least two knots.
    Queries outside the knot range raise OutOfTableRange.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((float(t), float(v)) for t, v in self.points)
        if len(pts) < 2:
            raise DomainInvalid("table needs at least 2 points")
        for (ta, _), (tb, _) in zip(pts, pts[1:]):
            if not ta < tb:
                raise DomainInvalid(f"table knots must be strictly increasing, got {ta!r} >= {tb!r}")
        if pts[0][0] <= 0.0:
            raise DomainInvalid("table knots must be positive")
        object.__setattr__(self, "points", pts)

    def _slope(self, k: int) -> float:
        """dq/d(ln t) between knots k and k + 1."""
        (ta, va), (tb, vb) = self.points[k], self.points[k + 1]
        return (vb - va) / log_ratio(tb, ta)

    def eval(self, t: float) -> float:
        pts = self.points
        if not (pts[0][0] <= t <= pts[-1][0]):
            raise OutOfTableRange(f"t={t!r} outside table range [{pts[0][0]!r}, {pts[-1][0]!r}]")
        k = bisect.bisect_right(pts, t, key=_knot) - 1
        tk, vk = pts[k]
        if t == tk:
            return vk
        return vk + self._slope(k) * log_ratio(t, tk)

    def abs_integral(self, t1: float, t2: float) -> float:
        """Exact integral of |q| over [t1, t2], with no evaluation of q.

        On each knot interval, cut to [lo, hi] by [t1, t2], q is linear in
        u = ln(t/lo) with the slope s.  A strict sign change of q splits the
        piece at its root, which stays in u.  Each part is anchored at the
        end c where |q| is smallest (the root, if any), and with
        d = ln(t_o/t_c) to its other end o it integrates to

            |q_c| |t_o - t_c| + |s| t_c phi(d),   phi(d) = (d - 1) e^d + 1.

        Both terms are non-negative, so nothing cancels; a zero slope drops
        the second.  Raises OutOfTableRange when the knots do not cover
        [t1, t2], EvalError for a slope that is not finite and
        NonFiniteResult when a term or the sum overflows.
        """
        pts = self.points
        for t in (t1, t2):
            if not pts[0][0] <= t <= pts[-1][0]:
                raise OutOfTableRange(
                    f"t={t!r} outside table range [{pts[0][0]!r}, {pts[-1][0]!r}]"
                )
        first = bisect.bisect_right(pts, t1, key=_knot) - 1
        end = bisect.bisect_left(pts, t2, key=_knot)
        pieces = []
        for k in range(first, end):
            (ta, va), (tb, vb) = pts[k], pts[k + 1]
            s = self._slope(k)
            if not math.isfinite(s):
                raise EvalError(f"table slope on [{ta!r}, {tb!r}] is {s!r}")
            lo, hi = max(t1, ta), min(t2, tb)
            q_lo = va if lo == ta else va + s * log_ratio(lo, ta)
            q_hi = vb if hi == tb else va + s * log_ratio(hi, ta)
            u = log_ratio(hi, lo)
            if s == 0.0:
                # No slope term: |s| t_c phi(d) would be 0 * inf past d ~ 700.
                pieces.append(abs(va) * (hi - lo))
            elif (q_lo < 0.0 < q_hi) or (q_hi < 0.0 < q_lo):
                root = u * q_lo / (q_lo - q_hi)
                t_root = lo * math.exp(root) if root <= 0.5 * u else hi * math.exp(root - u)
                pieces.append(abs(s) * (_t_phi(t_root, lo, -root) + _t_phi(t_root, hi, u - root)))
            elif abs(q_lo) <= abs(q_hi):
                pieces.append(abs(q_lo) * (hi - lo) + abs(s) * _t_phi(lo, hi, u))
            else:
                pieces.append(abs(q_hi) * (hi - lo) + abs(s) * _t_phi(hi, lo, -u))
        try:
            total = math.fsum(pieces)
        except OverflowError:
            total = math.inf
        if not math.isfinite(total):
            raise NonFiniteResult(f"integral of |q| over [{t1!r}, {t2!r}] is not finite")
        return total


def eval_coefficient(q: Coefficient, t: float) -> float:
    """Evaluate a coefficient at t; raises EvalError / OutOfTableRange."""
    if not isinstance(q, Coefficient):
        raise DomainInvalid(f"not a Coefficient: {q!r}")
    value = q.eval(t)
    if not math.isfinite(value):
        raise EvalError(f"coefficient evaluated to {value!r} at t={t!r}")
    return value


def all_finite(values) -> bool:
    """Whether every coefficient value is finite; EvalError for one that is
    not a real number, such as a complex value from a plain callable."""
    try:
        return all(map(math.isfinite, values))
    except TypeError as exc:
        raise EvalError(f"coefficient value is not a real number: {exc}") from None


def as_callable(q) -> "callable":
    """Accept either a Coefficient or a plain callable and return a callable."""
    if isinstance(q, Coefficient):
        return lambda t: eval_coefficient(q, t)
    if callable(q):
        return q
    raise DomainInvalid(f"coefficient must be a Coefficient or callable, got {q!r}")


def load_table(path: str) -> Table:
    """Read a CSV table with header ``t,q`` into a Table coefficient."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [cell.strip() for cell in rows[0]] != ["t", "q"]:
        raise DomainInvalid(f"{path}: expected CSV header 't,q'")
    points = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise DomainInvalid(f"{path}:{lineno}: expected two columns, got {len(row)}")
        try:
            points.append((float(row[0]), float(row[1])))
        except ValueError as exc:
            raise DomainInvalid(f"{path}:{lineno}: {exc}") from exc
    return Table(points=tuple(points))
