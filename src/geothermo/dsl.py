"""Infix DSL for fundamental relations and their domain predicates.

Relations are written in plain ASCII infix notation, e.g.
``(3/2)*ln(u + a/v) + ln(v - b)``.  Precedence is ``^`` (right-associative)
over unary minus over ``*``/``/`` over ``+``/``-``; parentheses as usual.
Identifiers resolve against the declared coordinate and parameter names;
an unknown one (:class:`~geothermo.errors.UnknownIdentifier`), a call of a
coordinate or parameter and a function name without its parentheses are
parse errors.
A domain predicate is two such expressions joined by one of ``>``, ``>=``,
``<``, ``<=`` and ``!=``, e.g. ``v - b > 0``.

The parser builds a register tape as it reads, the operator tape of
algorithmic differentiation (Griewank & Walther, *Evaluating Derivatives*,
SIAM 2008, ch. 2); there is no tree in between.  Nodes are hash-consed by
operator and operand registers, so a repeated subexpression is one op, run
once, and every division by the same coordinate-dependent expression
shares one reciprocal of it.  A predicate is one tape too, whose last op is
its comparison, so a subexpression of both sides also runs once.
Coordinates, parameters and constants are registers: the tape belongs to
the AST, and :func:`compile_relation` binds parameter values into a copy of
its register template, so one tape serves every parameter set.
:func:`parse_relation` and :func:`parse_predicate` return the AST of a live
source parsed before with the same names, so an override build reuses its
ASTs and tapes and only binds them.  One loop runs a tape over floats or
over :class:`~geothermo.jets.Jet` operands of either number backend, so the
same program serves plain evaluation and jet differentiation.
"""

from __future__ import annotations

import operator
import re
import weakref
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


class RelationAst:
    """A parsed relation or predicate: its name environment and its tape."""

    def __init__(self, tape, coords, params):
        self.tape = tape
        self.coords = tuple(coords)
        self.params = tuple(params)

    def pretty(self) -> str:
        """The tape as fully parenthesised source over the same names."""
        tape = self.tape
        formats = {fn: name + ("({})" if arity == 1 else "({}, {})")
                   for name, (fn, arity) in FUNCTIONS.items()}
        formats.update(_FORMATS)
        text = [repr(value) for value in tape.template]
        for reg, index in tape.coords:
            text[reg] = self.coords[index]
        for reg, name in tape.params:
            text[reg] = name
        for fn, out, a, b in tape.code:
            text[out] = formats[fn].format(
                *(text[r] for r in (a, b) if r is not None))
        return text[tape.root]

    def parameter_names(self) -> set:
        return {name for _, name in self.tape.params}


class _Parser:
    """Recursive descent that builds a :class:`_Tape` as it reads.

    Each construct is interned by its operator and operand registers as
    soon as its operands are read, that is in post order, so a repeated
    subexpression gets one register and one op, in the order of its first
    occurrence.  ``x / y`` with a coordinate-dependent ``y`` becomes a
    shared ``_reciprocal(y)`` and a product; a constant divisor stays a
    division.
    """

    def __init__(self, tokens, coords, params):
        self.tokens = tokens
        self.i = 0
        self.coords = list(coords)
        self.params = set(params)
        self.tape = _Tape()
        self.registers = {}     # node key -> register
        self.depends = []       # register -> involves a coordinate

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
                             tok.pos)
        return self.advance()

    def intern(self, key, value=None, dep=False):
        """Register of the node ``key``, and whether it is new."""
        reg = self.registers.get(key)
        if reg is not None:
            return reg, False
        reg = self.registers[key] = len(self.depends)
        self.tape.template.append(value)
        self.depends.append(dep)
        return reg, True

    def op(self, fn, a, b=None):
        dep = self.depends[a] or (b is not None and self.depends[b])
        reg, new = self.intern((fn, a, b), dep=dep)
        if new:
            self.tape.code.append((fn, reg, a, b))
        return reg

    def binary(self, symbol, a, b):
        if symbol == "/" and self.depends[b]:
            return self.op(_times_reciprocal, a, self.op(_reciprocal, b))
        return self.op(_BINARY[symbol], a, b)

    def parse(self, predicate):
        """The tape of the whole input: ``expr``, or ``expr cmp expr`` for
        a predicate, whose last op is then its comparison."""
        root = self.parse_expr()
        if predicate:
            tok = self.advance()
            if tok.kind != "cmp":
                raise ParseError(
                    f"expected a comparison, found {tok.text or 'end of input'!r}",
                    tok.pos)
            root = self.op(_COMPARE[tok.text], root, self.parse_expr())
        end = self.peek()
        if end.kind != "end":
            raise ParseError(f"trailing input {end.text!r}", end.pos)
        self.tape.root = root
        return self.tape

    def parse_expr(self):
        reg = self.parse_term()
        while self.peek().text in ("+", "-"):
            reg = self.binary(self.advance().text, reg, self.parse_term())
        return reg

    def parse_term(self):
        reg = self.parse_unary()
        while self.peek().text in ("*", "/"):
            reg = self.binary(self.advance().text, reg, self.parse_unary())
        return reg

    def parse_unary(self):
        if self.peek().text == "-":
            self.advance()
            return self.op(operator.neg, self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek().text == "^":
            self.advance()
            # the exponent may carry a unary minus: v^-2
            return self.binary("^", base, self.parse_unary())
        return base

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            return self.intern(("num", value), value)[0]
        if tok.kind == "ident":
            self.advance()
            if self.peek().text == "(":
                if tok.text not in FUNCTIONS:
                    if tok.text in self.coords or tok.text in self.params:
                        raise ParseError(f"{tok.text!r} is not a function",
                                         tok.pos)
                    raise UnknownIdentifier(tok.text, tok.pos)
                fn, arity = FUNCTIONS[tok.text]
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
                return self.op(fn, *args)
            if tok.text in self.coords:
                index = self.coords.index(tok.text)
                reg, new = self.intern(("var", index), dep=True)
                if new:
                    self.tape.coords.append((reg, index))
                return reg
            if tok.text in self.params:
                reg, new = self.intern(("param", tok.text))
                if new:
                    self.tape.params.append((reg, tok.text))
                return reg
            if tok.text in FUNCTIONS:
                raise ParseError(f"function {tok.text!r} takes its arguments "
                                 "in parentheses", tok.pos)
            raise UnknownIdentifier(tok.text, tok.pos)
        if tok.text == "(":
            self.advance()
            reg = self.parse_expr()
            self.expect(")")
            return reg
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.pos)


# parsed relations and predicates by (source, coords, params, predicate),
# held while anything else holds them: an override build of a live spec
# reuses its ASTs and tapes, and a dropped spec's are freed with it
_PARSED = weakref.WeakValueDictionary()


def _parse(source, coords, params, predicate) -> RelationAst:
    key = (source, tuple(coords), tuple(params), predicate)
    ast = _PARSED.get(key)
    if ast is None:
        if not source or not source.strip():
            kind = "predicate" if predicate else "relation"
            raise ParseError(f"empty {kind} source", 0)
        tape = _Parser(tokenize(source), coords, params).parse(predicate)
        ast = _PARSED[key] = RelationAst(tape, coords, params)
    return ast


def parse_relation(source: str, coords, params=()) -> RelationAst:
    """Parse ``source`` into an AST over the given coordinate/parameter names.

    A source parsed before with the same names, whose AST is still alive,
    returns that AST (and so its tape) again.
    """
    return _parse(source, coords, params, False)


def _reciprocal(y):
    """The shared reciprocal of a coordinate-dependent divisor.  On floats
    the register keeps the divisor itself, so float evaluation divides."""
    return y._reciprocal() if isinstance(y, jets.Jet) else y


def _times_reciprocal(x, r):
    """x / y from ``r = _reciprocal(y)``: the product Jet division makes."""
    return x * r if isinstance(r, jets.Jet) else jets.divide(x, r)


def _comparison(test):
    """The op of a predicate's comparison: ``test`` on the values of Jets
    (order 0 in :meth:`Predicate.mask`) or on floats."""
    def compare(a, b):
        return test(a.value if isinstance(a, jets.Jet) else a,
                    b.value if isinstance(b, jets.Jet) else b)
    return compare


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": jets.divide,
    "^": jets.power,
}

_COMPARE = {text: _comparison(test) for text, test in (
    (">", operator.gt), (">=", operator.ge), ("<", operator.lt),
    ("<=", operator.le), ("!=", operator.ne))}

# how pretty() writes each op that is no function call; a comparison is
# always the root, so it takes no parentheses
_FORMATS = {operator.neg: "(-{})", _reciprocal: "{}",
            _times_reciprocal: "({} / {})",
            **{fn: f"({{}} {text} {{}})" for text, fn in _BINARY.items()},
            **{fn: f"{{}} {text} {{}}" for text, fn in _COMPARE.items()}}


class _Tape:
    """A relation compiled to one flat program over registers.

    ``template`` holds the initial registers (constants; None for the
    coordinate, parameter and op registers).  ``coords`` and ``params``
    list (register, coordinate index) and (register, parameter name) pairs.
    Op ``(fn, out, a, b)`` sets register ``out`` to fn(a), or to fn(a, b)
    when ``b`` is not None; ``root`` is the register of the result.
    :class:`_Parser` fills it in.
    """

    __slots__ = ("template", "coords", "params", "code", "root")

    def __init__(self):
        self.template, self.coords, self.params, self.code = [], [], [], []
        self.root = None

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


class Predicate:
    """Comparison of two DSL expressions, e.g. ``v > b``.

    Its source parses to one tape whose last op is the comparison, bound
    to one spec's parameter values (``field``) when the spec is built; each
    spec builds predicates of its own over the shared parsed tape.
    :meth:`mask` runs it on order-0 jets through :func:`jets.run_field`,
    the batch run of :func:`jets.jet_poly`; a single point is a batch of
    one.
    """

    def __init__(self, source, ast, param_values: dict):
        self.source = source
        self.field = ScalarField(ast, param_values)

    def mask(self, points):
        """Evaluate at each row of a (batch, n) array.

        Returns (holds, faults): ``holds`` is False wherever a side could
        not be evaluated (a side that involves no coordinate fails every
        point alike), and ``faults`` records why.
        """
        with np.errstate(all="ignore"):
            holds, faults = jets.run_field(self.field, points)
            return np.logical_and(holds, faults.ok), faults

    def __str__(self):
        return self.source


def parse_predicate(source: str, coords, params=()) -> Predicate:
    """Parse a comparison like ``"u + a/v > 0"`` and bind it to the
    parameter values ``params`` (a mapping from name to value).

    A source parsed before with the same names, whose tape is still alive,
    gets a new predicate over the same tape.
    """
    return Predicate(source, _parse(source, coords, params, True),
                     dict(params))
