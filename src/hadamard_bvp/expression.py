"""Coefficient expressions: tokenizer, parser, printer, evaluator and AST.

The expression grammar is deliberately tiny: one variable ``t``, the
arithmetic operators ``+ - * / ^`` (``^`` right-associative, binding tighter
than unary minus), and the functions ``ln, exp, sin, cos, abs, sqrt``.
Numbers are unsigned decimals with an optional exponent part, read by
``params.parse_decimal`` as flag values and table cells are; implicit
multiplication is not supported.  Expressions nest at most ``MAX_DEPTH``
levels deep and hold at most ``MAX_TOKENS`` tokens.

The package loads this module on first use of one of its names, so that
the commands that take no ``--q-expr`` do not pay for it at start-up.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from operator import add, mul, sub, truediv

from .coefficient import Coefficient
from .errors import EvalError, ExpressionSyntaxError, UnknownIdentifier
from .params import DECIMAL, parse_decimal

__all__ = [
    "Expression",
    "ExprNode",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "FUNCTIONS",
    "MAX_DEPTH",
    "MAX_TOKENS",
    "parse_expr",
    "pretty",
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
# AST: immutable namedtuples, so a node compares equal to the plain tuple of
# its fields.


class ExprNode:
    """Base class for expression tree nodes (immutable)."""

    __slots__ = ()


class Num(ExprNode, namedtuple("Num", "value")):
    __slots__ = ()


class Var(ExprNode, namedtuple("Var", "")):
    """The single variable ``t``."""

    __slots__ = ()


class Neg(ExprNode, namedtuple("Neg", "operand")):
    __slots__ = ()


class BinOp(ExprNode, namedtuple("BinOp", "op left right")):
    __slots__ = ()


class Call(ExprNode, namedtuple("Call", "func arg")):
    __slots__ = ()


# --------------------------------------------------------------------------
# Lexer / parser

_TOKEN_RE = re.compile(
    rf"(?P<num>{DECIMAL})"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, byte offset) triples; final sentinel is ('end', '', len)."""
    if not src.isascii():
        bad = next(i for i, ch in enumerate(src) if not ch.isascii())
        # The prefix before it is ASCII, so its length is the byte offset.
        raise ExpressionSyntaxError("non-ASCII character", bad, ("ASCII character",))
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        if src[pos].isspace():
            pos += 1
            continue
        if len(tokens) == MAX_TOKENS:
            raise ExpressionSyntaxError(f"expression longer than {MAX_TOKENS} tokens", pos, ())
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


# Binary operators: binding level and meaning.  Unary minus binds at
# _NEG_LEVEL, between '*' and '^', and an atom at 5; '^' alone groups to
# the right.  The parser, the printer and the evaluator all read this table.
_BINARY = {
    "+": (1, add),
    "-": (1, sub),
    "*": (2, mul),
    "/": (2, truediv),
    "^": (4, math.pow),
}
_NEG_LEVEL = 3

# Deepest accepted nesting: the height of the tree, with a number or ``t``
# at height 1 and each operator, function call and pair of parentheses one
# level above its operands.  The parser, the printer, the evaluator and the
# nodes' repr recurse once per level, so this keeps all of them far below
# the interpreter's recursion limit.
MAX_DEPTH = 100

# Most tokens accepted, the end of input not counted.  Parsing, printing
# and each evaluation take time in proportion to the tree's size, which
# depth alone does not bound: a balanced sum of n terms nests only about
# 2 log2 n levels deep.
MAX_TOKENS = 4096


class _Parser:
    """Precedence climbing over the token stream, with the levels of ``_BINARY``.

        expr(k) := ('-' expr(3) | atom) (op expr(j))*   for ops of level >= k;
                   j is the op's level + 1, or its level for '^'
        atom    := NUMBER | 't' | FUNC '(' expr(1) ')' | '(' expr(1) ')'

    ``expr`` and ``atom`` return the subtree with its height; ``depth`` counts
    the ``expr`` calls in progress, each of which adds a level above the
    subtree it parses, so it never exceeds the height of the whole tree.
    """

    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

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

    def nested(self, height: int) -> int:
        """``height``, or ExpressionSyntaxError at the next token above MAX_DEPTH."""
        if height > MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", self.peek()[2], ()
            )
        return height

    def parse(self) -> ExprNode:
        node, _ = self.expr(1)
        if self.peek()[0] != "end":
            raise self.fail(("end of input", "'+'", "'-'", "'*'", "'/'", "'^'"))
        return node

    def expr(self, level: int) -> tuple[ExprNode, int]:
        """Everything from here that binds at ``level`` or tighter."""
        self.depth = self.nested(self.depth + 1)
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            operand, height = self.expr(_NEG_LEVEL)
            node, height = Neg(operand), height + 1
        else:
            node, height = self.atom()
        while self.peek()[1] in _BINARY and _BINARY[self.peek()[1]][0] >= level:
            op = self.advance()[1]
            op_level = _BINARY[op][0]
            right, right_height = self.expr(op_level if op == "^" else op_level + 1)
            node, height = BinOp(op, node, right), max(height, right_height) + 1
        self.depth -= 1
        return node, self.nested(height)

    def closing(self) -> None:
        """Consume the ')' that must come next."""
        if self.peek()[:2] != ("op", ")"):
            raise self.fail(("')'",))
        self.advance()

    def atom(self) -> tuple[ExprNode, int]:
        kind, text, offset = self.peek()
        if kind == "num":
            self.advance()
            try:
                return Num(parse_decimal(text)), 1
            except ValueError as exc:  # a literal that overflows
                raise ExpressionSyntaxError(str(exc), offset, ()) from None
        if kind == "ident":
            self.advance()
            if self.peek()[:2] == ("op", "("):
                if text not in FUNCTIONS:
                    raise UnknownIdentifier(text, offset)
                self.advance()
                arg, height = self.expr(1)
                self.closing()
                return Call(text, arg), height + 1
            if text == "t":
                return Var(), 1
            raise UnknownIdentifier(text, offset)
        if kind == "op" and text == "(":
            self.advance()
            node, height = self.expr(1)
            self.closing()
            return node, height + 1
        raise self.fail(("number", "'t'", "function name", "'('", "'-'"))


def parse_expr(src: str) -> ExprNode:
    """Parse a coefficient expression into an AST.

    Raises ExpressionSyntaxError (with byte offset and the accepted token
    kinds, none for a literal that overflows, more than ``MAX_TOKENS``
    tokens or nesting deeper than ``MAX_DEPTH``) or UnknownIdentifier.
    """
    if not isinstance(src, str) or not src.strip():
        raise ExpressionSyntaxError("empty expression", 0, ("expression",))
    return _Parser(src).parse()


# --------------------------------------------------------------------------
# Pretty-printer
#
# Binding levels as in ``_BINARY``, unary minus ``_NEG_LEVEL`` and atoms 5.
# A child is parenthesised when its level is below the level its slot
# requires, which is exactly the condition for the reparse to rebuild the
# original tree.


def _level(node: ExprNode) -> int:
    if isinstance(node, BinOp):
        return _BINARY[node.op][0]
    if isinstance(node, Neg):
        return _NEG_LEVEL
    return 5


def _render(node: ExprNode, required: int) -> str:
    if isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = "t"
    elif isinstance(node, Call):
        text = f"{node.func}({_render(node.arg, 1)})"
    elif isinstance(node, Neg):
        text = "-" + _render(node.operand, _NEG_LEVEL)
    elif isinstance(node, BinOp):
        level = _BINARY[node.op][0]
        if node.op == "^":  # right-associative; the exponent may start with '-'
            left, right = level + 1, _NEG_LEVEL
        else:
            left, right = level, level + 1
        text = _render(node.left, left) + node.op + _render(node.right, right)
    else:  # pragma: no cover - exhaustive over node kinds
        raise TypeError(f"not an ExprNode: {node!r}")
    if _level(node) < required:
        return "(" + text + ")"
    return text


def pretty(node: ExprNode) -> str:
    """Canonical textual form.

    Reparsing it yields a structurally equal tree for every tree that
    ``parse_expr`` built.  A hand-built tree need not round-trip: ``Num(-1.0)``
    prints ``-1.0``, which reparses as ``Neg(Num(1.0))``.
    """
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
            return _BINARY[node.op][1](left, right)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalError(f"{left!r} {node.op} {right!r}: {exc}") from exc
    raise TypeError(f"not an ExprNode: {node!r}")


class Expression(Coefficient, namedtuple("Expression", "ast")):
    """Coefficient given by a parsed expression tree."""

    __slots__ = ()

    def eval(self, t: float) -> float:
        return _eval_node(self.ast, t)
