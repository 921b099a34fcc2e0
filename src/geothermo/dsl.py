"""Infix DSL for fundamental relations.

Relations are written in plain ASCII infix notation, e.g.
``(3/2)*ln(u + a/v) + ln(v - b)``.  Precedence is ``^`` (right-associative)
over unary minus over ``*``/``/`` over ``+``/``-``; parentheses as usual.
Identifiers resolve against the declared coordinate and parameter names.

Each parsed relation is compiled once to a register tape, the operator tape
of algorithmic differentiation (Griewank & Walther, *Evaluating
Derivatives*, SIAM 2008, ch. 2).  Nodes are hash-consed by operator and
operand registers, so a repeated subexpression is one op, run once, and
every division by the same coordinate-dependent expression shares one
reciprocal of it.  Coordinates, parameters and constants are registers: the
tape belongs to the AST, and :func:`compile_relation` binds parameter values
into a copy of its register template, so one tape serves every parameter
set.  :func:`parse_relation` returns the AST of a live relation parsed
before with the same names, so an override build reuses its AST and tape.
Predicate sides compile the same way, and :func:`parse_predicate` reuses
the parsed sides of a live predicate likewise, binding them once per spec.
One loop runs a tape over floats or over :class:`~geothermo.jets.Jet`
operands of either number backend, so the same program serves plain
evaluation and jet differentiation.
"""

from __future__ import annotations

import operator
import re
import weakref
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import (GeothermoError, ParseError, UnboundParameter,
                     UnknownIdentifier)

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
    """Parsed relation plus its name environment and its compiled tape."""

    def __init__(self, root, coords, params):
        self.root = root
        self.coords = tuple(coords)
        self.params = tuple(params)
        self.tape = _Tape(root)

    def pretty(self) -> str:
        return _pretty(self.root)

    def parameter_names(self) -> set:
        return {name for _, name in self.tape.params}


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


# parsed relations by (source, coords, params), held while anything else
# holds them: an override build of a live spec reuses its AST and tape, and
# a dropped spec's relation is freed with it
_PARSED = weakref.WeakValueDictionary()


def parse_relation(source: str, coords, params=()) -> RelationAst:
    """Parse ``source`` into an AST over the given coordinate/parameter names.

    A source parsed before with the same names, whose AST is still alive,
    returns that AST (and so its tape) again.
    """
    key = (source, tuple(coords), tuple(params))
    ast = _PARSED.get(key)
    if ast is not None:
        return ast
    if not source or not source.strip():
        raise ParseError("empty relation source", 0)
    parser = _Parser(tokenize(source), coords, params)
    root = parser.parse_expr()
    end = parser.peek()
    if end.kind != "end":
        raise ParseError(f"trailing input {end.text!r}", end.pos)
    ast = _PARSED[key] = RelationAst(root, coords, params)
    return ast


def _reciprocal(y):
    """The shared reciprocal of a coordinate-dependent divisor.  On floats
    the register keeps the divisor itself, so float evaluation divides."""
    return y._reciprocal() if isinstance(y, jets.Jet) else y


def _times_reciprocal(x, r):
    """x / y from ``r = _reciprocal(y)``: the product Jet division makes."""
    return x * r if isinstance(r, jets.Jet) else jets.divide(x, r)


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": jets.divide,
    "^": jets.power,
}


class _Tape:
    """A relation compiled to one flat program over registers.

    A post-order walk interns every node by its operator and operand
    registers, so a repeated subexpression gets one register and one op, in
    the order of its first occurrence.  ``x / y`` with a coordinate-dependent
    ``y`` becomes a shared ``_reciprocal(y)`` and a product; a constant
    divisor stays a division.

    ``template`` holds the initial registers (constants; None for the
    coordinate, parameter and op registers).  ``coords`` and ``params``
    list (register, coordinate index) and (register, parameter name) pairs.
    Op ``(fn, out, a, b)`` sets register ``out`` to fn(a), or to fn(a, b)
    when ``b`` is not None; ``root`` is the register of the result.
    """

    __slots__ = ("template", "coords", "params", "code", "root")

    def __init__(self, root):
        self.template, self.coords, self.params, self.code = [], [], [], []
        registers = {}      # node key -> register
        depends = []        # register -> involves a coordinate

        def intern(key, value=None, dep=False):
            """Register of the node ``key``, and whether it is new."""
            reg = registers.get(key)
            if reg is not None:
                return reg, False
            reg = registers[key] = len(self.template)
            self.template.append(value)
            depends.append(dep)
            return reg, True

        def op(fn, a, b=None):
            reg, new = intern((fn, a, b),
                              dep=depends[a] or (b is not None and depends[b]))
            if new:
                self.code.append((fn, reg, a, b))
            return reg

        def walk(node):
            if isinstance(node, Num):
                return intern(("num", node.value), node.value)[0]
            if isinstance(node, Var):
                reg, new = intern(("var", node.index), dep=True)
                if new:
                    self.coords.append((reg, node.index))
                return reg
            if isinstance(node, Param):
                reg, new = intern(("param", node.name))
                if new:
                    self.params.append((reg, node.name))
                return reg
            if isinstance(node, Neg):
                return op(operator.neg, walk(node.child))
            if isinstance(node, Bin):
                a, b = walk(node.left), walk(node.right)
                if node.op == "/" and depends[b]:
                    return op(_times_reciprocal, a, op(_reciprocal, b))
                return op(_BINARY[node.op], a, b)
            if isinstance(node, Call):
                fn, _ = FUNCTIONS[node.fn]
                return op(fn, *[walk(a) for a in node.args])
            raise TypeError(f"unknown node {node!r}")

        self.root = walk(root)

    def bind(self, param_values: dict) -> list:
        """The register template with the parameter values filled in."""
        registers = list(self.template)
        for reg, name in self.params:
            registers[reg] = param_values[name]
        return registers

    def run(self, registers: list, values):
        """Run on bound ``registers`` (see :meth:`bind`) at coordinate
        ``values``: floats, or Jets of one backend."""
        regs = registers.copy()
        for reg, index in self.coords:
            regs[reg] = values[index]
        for fn, out, a, b in self.code:
            regs[out] = fn(regs[a]) if b is None else fn(regs[a], regs[b])
        return regs[self.root]


class ScalarField:
    """Compiled relation: callable on a sequence of floats or Jets."""

    def __init__(self, ast: RelationAst, param_values: dict):
        missing = ast.parameter_names() - set(param_values)
        if missing:
            raise UnboundParameter(sorted(missing)[0])
        self.ast = ast
        self.param_values = {k: float(v) for k, v in param_values.items()}
        self._registers = ast.tape.bind(self.param_values)

    def __call__(self, values):
        return self.ast.tape.run(self._registers, values)


def compile_relation(ast: RelationAst, param_values: dict) -> ScalarField:
    """Bind parameters into the AST's tape, producing an evaluator usable by
    ``jet_eval``."""
    return ScalarField(ast, param_values)


_CMP = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "!=": operator.ne,
}


class Comparison:
    """A parsed inequality: the ASTs of its two sides and its operator.

    :func:`parse_predicate` shares one Comparison among the predicates of
    every live spec that uses the same source and names."""

    def __init__(self, left_ast, op, right_ast):
        self.left = left_ast
        self.op = op
        self.right = right_ast


class Predicate:
    """Inequality between two DSL expressions, e.g. ``v > b``.

    Both sides are bound to one spec's parameter values when it is built;
    each spec builds predicates of its own over the shared parsed sides.
    :meth:`mask` evaluates them on order-0 jets; a single point is a batch
    of one.
    """

    def __init__(self, source, comparison, param_values: dict):
        self.source = source
        self.comparison = comparison
        self.op = comparison.op
        self.left = ScalarField(comparison.left, param_values)
        self.right = ScalarField(comparison.right, param_values)

    def mask(self, points):
        """Evaluate at each row of a (batch, n) array.

        Returns (holds, faults): ``holds`` is False wherever a side could
        not be evaluated, and ``faults`` records why.
        """
        size, n = points.shape
        faults = jets.Faults(size)
        args = [jets.Jet.variable(n, 0, i, points[:, i], faults)
                for i in range(n)]
        try:
            with np.errstate(all="ignore"):
                sides = [out.value if isinstance(out, jets.Jet) else out
                         for out in (self.left(args), self.right(args))]
                holds = _CMP[self.op](*sides)
        except GeothermoError as exc:
            # a side that involves no coordinate fails on floats, for
            # every point alike
            faults.flag(np.ones(size, dtype=bool), lambda i: exc)
            holds = False
        return np.logical_and(holds, faults.ok), faults

    def __str__(self):
        return self.source


# parsed predicates by (source, coords, params), held while a predicate
# uses them, as _PARSED holds relations
_COMPARISONS = weakref.WeakValueDictionary()


def parse_predicate(source: str, coords, params=()) -> Predicate:
    """Parse an inequality string like ``"u + a/v > 0"`` and bind it to the
    parameter values ``params`` (a mapping from name to value).

    A source parsed before with the same names, whose sides are still
    alive, gets a new predicate over the same sides (and so their tapes).
    """
    key = (source, tuple(coords), tuple(params))
    comparison = _COMPARISONS.get(key)
    if comparison is None:
        comparison = _COMPARISONS[key] = _parse_comparison(source, coords,
                                                           params)
    return Predicate(source, comparison, dict(params))


def _parse_comparison(source, coords, params) -> Comparison:
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
    return Comparison(RelationAst(left_root, coords, params), op,
                      RelationAst(right_root, coords, params))
