"""Infix DSL for fundamental relations.

Relations are written in plain ASCII infix notation, e.g.
``(3/2)*ln(u + a/v) + ln(v - b)``.  Precedence is ``^`` (right-associative)
over unary minus over ``*``/``/`` over ``+``/``-``; parentheses as usual.
Identifiers resolve against the declared coordinate and parameter names.

Compiled relations evaluate over floats or over :class:`~geothermo.jets.Jet`
operands, so the same program serves plain evaluation and jet differentiation.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ParseError, UnboundParameter, UnknownIdentifier

FUNCTIONS = {
    "ln": (jets.ln, 1),
    "exp": (jets.exp, 1),
    "sqrt": (jets.sqrt, 1),
    "sinh": (jets.sinh, 1),
    "cosh": (jets.cosh, 1),
    "tanh": (jets.tanh, 1),
    "pow": (jets.power, 2),
}

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<cmp><=|>=|!=|<|>)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(source: str) -> list:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(Token("end", "", len(source)))
    return tokens


# ---- AST nodes -----------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Bin:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


class RelationAst:
    """Parsed relation plus its name environment."""

    def __init__(self, root, coords, params):
        self.root = root
        self.coords = tuple(coords)
        self.params = tuple(params)

    def pretty(self) -> str:
        return _pretty(self.root)

    def parameter_names(self) -> set:
        names = set()

        def walk(node):
            if isinstance(node, Param):
                names.add(node.name)
            elif isinstance(node, Neg):
                walk(node.child)
            elif isinstance(node, Bin):
                walk(node.left)
                walk(node.right)
            elif isinstance(node, Call):
                for a in node.args:
                    walk(a)

        walk(self.root)
        return names


def _pretty(node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Neg):
        return f"(-{_pretty(node.child)})"
    if isinstance(node, Bin):
        return f"({_pretty(node.left)} {node.op} {_pretty(node.right)})"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(_pretty(a) for a in node.args)})"
    raise TypeError(f"unknown node {node!r}")


class _Parser:
    def __init__(self, tokens, coords, params):
        self.tokens = tokens
        self.i = 0
        self.coords = list(coords)
        self.params = set(params)

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text):
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                             tok.pos, expected={text})
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while self.peek().text in ("+", "-"):
            op = self.advance().text
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().text in ("*", "/"):
            op = self.advance().text
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek().text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().text == "^":
            self.advance()
            return Bin("^", base, self.parse_power_exponent())
        return base

    def parse_power_exponent(self):
        # exponent may carry a unary minus: v^-2
        if self.peek().text == "-":
            self.advance()
            return Neg(self.parse_power_exponent())
        return self.parse_power()

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.peek().text == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentifier(tok.text, tok.pos)
                _, arity = FUNCTIONS[tok.text]
                self.expect("(")
                args = [self.parse_expr()]
                while self.peek().text == ",":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect(")")
                if len(args) != arity:
                    raise ParseError(
                        f"{tok.text} takes {arity} argument(s), got {len(args)}",
                        tok.pos)
                return Call(tok.text, tuple(args))
            if tok.text in self.coords:
                return Var(self.coords.index(tok.text), tok.text)
            if tok.text in self.params:
                return Param(tok.text)
            raise UnknownIdentifier(tok.text, tok.pos)
        if tok.text == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.pos, expected={"number", "identifier", "("})


def parse_relation(source: str, coords, params=()) -> RelationAst:
    """Parse ``source`` into an AST over the given coordinate/parameter names."""
    if not source or not source.strip():
        raise ParseError("empty relation source", 0)
    parser = _Parser(tokenize(source), coords, params)
    root = parser.parse_expr()
    end = parser.peek()
    if end.kind != "end":
        raise ParseError(f"trailing input {end.text!r}", end.pos)
    return RelationAst(root, coords, params)


class ScalarField:
    """Compiled relation: callable on a sequence of floats or Jets."""

    def __init__(self, ast: RelationAst, param_values: dict):
        missing = ast.parameter_names() - set(param_values)
        if missing:
            raise UnboundParameter(sorted(missing)[0])
        self.ast = ast
        self.param_values = {k: float(v) for k, v in param_values.items()}
        self._fn = _compile(ast.root, self.param_values)

    def __call__(self, values):
        return self._fn(values)


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": jets.divide,
    "^": jets.power,
}


def _compile(node, params: dict):
    """Closure evaluating ``node`` on a value sequence (floats or Jets)."""
    if isinstance(node, Num):
        value = node.value
        return lambda values: value
    if isinstance(node, Var):
        return operator.itemgetter(node.index)
    if isinstance(node, Param):
        value = params[node.name]
        return lambda values: value
    if isinstance(node, Neg):
        child = _compile(node.child, params)
        return lambda values: -child(values)
    if isinstance(node, Bin):
        op = _BINARY[node.op]
        left = _compile(node.left, params)
        right = _compile(node.right, params)
        return lambda values: op(left(values), right(values))
    if isinstance(node, Call):
        fn, _ = FUNCTIONS[node.fn]
        args = [_compile(a, params) for a in node.args]
        if len(args) == 1:
            (arg,) = args
            return lambda values: fn(arg(values))
        return lambda values: fn(*(a(values) for a in args))
    raise TypeError(f"unknown node {node!r}")


def compile_relation(ast: RelationAst, param_values: dict) -> ScalarField:
    """Bind parameters, producing an evaluator usable by ``jet_eval``."""
    return ScalarField(ast, param_values)


_CMP = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "!=": operator.ne,
}


class Predicate:
    """Inequality between two DSL expressions, e.g. ``v > b``."""

    def __init__(self, source, left_ast, op, right_ast):
        self.source = source
        self.left = left_ast
        self.op = op
        self.right = right_ast
        self._bound = None      # (params key, left closure, right closure)

    def _sides(self, param_values: dict):
        key = tuple(sorted(param_values.items()))
        bound = self._bound
        if bound is None or bound[0] != key:
            bound = (key, ScalarField(self.left, param_values),
                     ScalarField(self.right, param_values))
            self._bound = bound
        return bound[1], bound[2]

    def holds(self, values, param_values: dict) -> bool:
        left, right = self._sides(param_values)
        return _CMP[self.op](left(values), right(values))

    def mask(self, points, param_values: dict):
        """Evaluate at each row of a (batch, n) array.

        Returns (holds, faults): ``holds`` is False wherever a side could
        not be evaluated, and ``faults`` records why.
        """
        left, right = self._sides(param_values)
        size, n = points.shape
        faults = jets.Faults(size)
        args = [jets.Jet.variable(n, 0, i, points[:, i], faults)
                for i in range(n)]
        with np.errstate(all="ignore"):
            sides = [out.value if isinstance(out, jets.Jet) else out
                     for out in (left(args), right(args))]
            holds = _CMP[self.op](*sides)
        return np.logical_and(holds, faults.ok), faults

    def __str__(self):
        return self.source


def parse_predicate(source: str, coords, params=()) -> Predicate:
    """Parse an inequality string like ``"u + a/v > 0"``."""
    tokens = tokenize(source)
    split = [i for i, t in enumerate(tokens) if t.kind == "cmp"]
    if len(split) != 1:
        raise ParseError("predicate needs exactly one comparison operator",
                         0 if not split else tokens[split[-1]].pos)
    i = split[0]
    op = tokens[i].text
    left = _Parser(tokens[:i] + [Token("end", "", tokens[i].pos)], coords, params)
    left_root = left.parse_expr()
    if left.peek().kind != "end":
        raise ParseError("trailing input before comparison", left.peek().pos)
    right = _Parser(tokens[i + 1:], coords, params)
    right_root = right.parse_expr()
    if right.peek().kind != "end":
        raise ParseError("trailing input after comparison", right.peek().pos)
    return Predicate(source,
                     RelationAst(left_root, coords, params), op,
                     RelationAst(right_root, coords, params))
