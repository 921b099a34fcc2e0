"""Relation DSL: parsing, precedence, compilation, predicates."""

import gc
import math
import weakref

import mpmath as mp
import numpy as np
import pytest

from geothermo import dsl, jets
from geothermo.errors import ParseError, UnboundParameter, UnknownIdentifier
from geothermo.jets import jet_eval
from geothermo.systems import domain_check, from_definition, get_system


def compiled(src, coords=("u", "v"), params=None):
    params = params or {}
    ast = dsl.parse_relation(src, list(coords), list(params))
    return dsl.compile_relation(ast, params)


def test_basic_evaluation():
    f = compiled("(3/2)*ln(u) + ln(v)")
    assert f([1.0, 1.0]) == 0.0
    assert f([math.e, 1.0]) == pytest.approx(1.5)


def test_power_right_associative():
    f = compiled("u^v^2", ("u", "v"))
    assert f([2.0, 3.0]) == pytest.approx(2.0 ** 9)


def test_unary_minus_binds_below_power():
    f = compiled("-u^2", ("u",))
    assert f([3.0]) == -9.0


def test_negative_exponent():
    f = compiled("v^-2", ("v",))
    assert f([4.0]) == pytest.approx(1.0 / 16.0)


def test_parameters_bound_at_compile_time():
    f = compiled("a*u + b", ("u",), {"a": 2.0, "b": -1.0})
    assert f([3.0]) == 5.0


def test_unbound_parameter():
    ast = dsl.parse_relation("a*u", ["u"], ["a"])
    with pytest.raises(UnboundParameter):
        dsl.compile_relation(ast, {})


def test_unknown_identifier_reports_name():
    with pytest.raises(UnknownIdentifier) as err:
        dsl.parse_relation("u + w", ["u", "v"])
    assert err.value.name == "w"
    assert isinstance(err.value, ParseError) and err.value.position == 4
    assert str(err.value) == "unknown identifier 'w' (at position 4)"


@pytest.mark.parametrize("source,message", [
    ("u (v)", "'u' is not a function (at position 0)"),
    ("v + a(u)", "'a' is not a function (at position 4)"),
    ("ln + u", "function 'ln' takes its arguments in parentheses "
               "(at position 0)"),
    ("w(u)", "unknown identifier 'w' (at position 0)"),
])
def test_misused_identifier_is_a_parse_error(source, message):
    with pytest.raises(ParseError) as err:
        dsl.parse_relation(source, ["u", "v"], ["a"])
    assert str(err.value) == message


def test_coordinate_may_share_a_function_name():
    # read as the coordinate where no parenthesis follows, and as the
    # function where one does
    f = compiled("exp + exp(1)", ("exp",))
    assert f([2.0]) == 2.0 + math.exp(1.0)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        dsl.parse_relation("u + ", ["u"])
    assert err.value.position == 4


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        dsl.parse_relation("u + v)", ["u", "v"])


def test_function_arity_checked():
    with pytest.raises(ParseError):
        dsl.parse_relation("ln(u, v)", ["u", "v"])
    f = compiled("pow(u, 3)", ("u",))
    assert f([2.0]) == 8.0


def test_all_functions_evaluate():
    f = compiled("sinh(u) + cosh(u) + tanh(u) + sqrt(u) + exp(u) + ln(u)",
                 ("u",))
    x = 0.8
    expect = (math.sinh(x) + math.cosh(x) + math.tanh(x) + math.sqrt(x)
              + math.exp(x) + math.log(x))
    assert f([x]) == pytest.approx(expect, rel=1e-14)


def test_compiled_relation_is_jet_compatible():
    f = compiled("(3/2)*ln(u) + ln(v - b)", params={"b": 1.0})
    j = jet_eval(f, (2.0, 3.0), 2)
    assert j.grad[0] == pytest.approx(0.75)
    assert j.grad[1] == pytest.approx(0.5)


def test_pretty_round_trip():
    ast = dsl.parse_relation("(3/2)*ln(u + a/v)", ["u", "v"], ["a"])
    again = dsl.parse_relation(ast.pretty(), ["u", "v"], ["a"])
    f1 = dsl.compile_relation(ast, {"a": 1.0})
    f2 = dsl.compile_relation(again, {"a": 1.0})
    assert f1([2.0, 3.0]) == pytest.approx(f2([2.0, 3.0]), rel=1e-15)


@pytest.mark.parametrize("source, text", [
    ("v^-2", "(v ^ (-2.0))"),
    ("u^-v^-2", "(u ^ (-(v ^ (-2.0))))"),
    ("-u^2", "(-(u ^ 2.0))"),
    ("2^--u", "(2.0 ^ (-(-u)))"),
    ("a^-u^-a", "(a ^ (-(u ^ (-a))))"),
    ("--u^-2*v", "((-(-(u ^ (-2.0)))) * v)"),
])
def test_unary_minus_binds_below_power_in_and_out_of_an_exponent(source,
                                                                 text):
    # an exponent is read like any operand of unary minus: -u^2 is
    # -(u^2), and u^-v^-2 is u^(-(v^(-2)))
    assert dsl.parse_relation(source, ["u", "v"], ["a"]).pretty() == text


def test_parameter_names_collected():
    ast = dsl.parse_relation("a*u + pow(v, b)", ["u", "v"], ["a", "b"])
    assert ast.parameter_names() == {"a", "b"}


def test_predicate():
    p = dsl.parse_predicate("v - b > 0", ["u", "v"], {"b": 1.0})
    points = np.array([[1.0, 2.0], [1.0, 0.5]])
    holds, faults = p.mask(points)
    assert holds.tolist() == [True, False]
    assert not faults.errors
    assert str(p) == "v - b > 0"
    # the tape writes back as a predicate of the same truth
    again = dsl.parse_predicate(p.field.ast.pretty(), ["u", "v"], {"b": 1.0})
    assert again.mask(points)[0].tolist() == [True, False]


def test_predicate_needs_one_comparison():
    with pytest.raises(ParseError):
        dsl.parse_predicate("u > v > 0", ["u", "v"])
    with pytest.raises(ParseError):
        dsl.parse_predicate("u + v", ["u", "v"])


def test_empty_relation_rejected():
    with pytest.raises(ParseError):
        dsl.parse_relation("   ", ["u"])


@pytest.mark.parametrize("backend", [jets.FLOAT, jets.MPMATH],
                         ids=["float", "mpmath"])
def test_ising_f_jet_shares_its_repeated_nodes(monkeypatch, backend):
    # ising_f takes E = exp(-(4J + 2H)/T) and D = 1 - exp(-2H/T) twice
    # each and divides by T twice: one E, one D and one reciprocal of T
    # leave 20 products of order-4 jets, where evaluating every occurrence
    # makes 28 (a second E and a second D, 4 products each).  The
    # reciprocal of the bare T makes none, since its argument is affine in
    # T; through the Horner loop it makes 3, for 23 and 31.  A Horner loop
    # counts one product per step, however its backend makes them
    calls = []
    product, horner = backend.product, backend.horner

    def steps(tables, c, series):
        start = len(calls)
        out = horner(tables, c, series)
        calls[start:] = tables
        return out

    monkeypatch.setattr(backend, "product",
                        lambda *a: calls.append(1) or product(*a))
    monkeypatch.setattr(backend, "horner", steps)
    with mp.workdps(30):
        jet_eval(get_system("ising_f").field, np.array([[1.0, 0.5]]), 4,
                 backend=backend)
    assert len(calls) == 20


def test_repeated_subexpression_is_evaluated_once(monkeypatch):
    calls = []
    monkeypatch.setitem(dsl.FUNCTIONS, "ln",
                        (lambda x: calls.append(x) or jets.ln(x), 1))
    # coordinate names of this test alone, so the relation is parsed anew
    f = compiled("ln(p/q) + ln(p/q)^2", ("p", "q"))
    assert f([2.0, 1.0]) == math.log(2.0) + math.log(2.0) ** 2
    assert len(calls) == 1
    jet_eval(f, (2.0, 1.0), 4)
    assert len(calls) == 2


def test_predicate_sides_share_their_subexpressions(monkeypatch):
    calls = []
    monkeypatch.setitem(dsl.FUNCTIONS, "ln",
                        (lambda x: calls.append(x) or jets.ln(x), 1))
    # coordinate names of this test alone, so the predicate is parsed anew
    p = dsl.parse_predicate("ln(p) + 1 > ln(p)", ["p", "q"])
    ops = [op[0] for op in p.field.ast.tape.code]
    assert ops[-1] is dsl._COMPARE[">"]
    for _ in range(2):
        calls.clear()
        holds, faults = p.mask(np.array([[2.0, 1.0], [-1.0, 1.0]]))
        assert len(calls) == 1
        assert holds.tolist() == [True, False]
        assert list(faults.errors) == [1]


def test_division_shares_the_reciprocal_and_divides_floats():
    f = compiled("u/v + 1/v + u/3")
    ops = [op[0] for op in f.ast.tape.code]
    assert ops.count(dsl._reciprocal) == 1
    assert ops.count(jets.divide) == 1          # the constant divisor
    # 5/7 and 5*(1/7) round apart: floats still divide
    assert f([5.0, 7.0]) == 5.0 / 7.0 + 1.0 / 7.0 + 5.0 / 3.0
    j = jet_eval(f, (5.0, 7.0), 2)
    assert j.grad[1] == pytest.approx(-6.0 / 49.0, rel=1e-15)


def test_one_tape_serves_every_parameter_set(monkeypatch):
    tapes = []
    tape = dsl._Tape
    monkeypatch.setattr(dsl, "_Tape", lambda: tapes.append(1) or tape())
    ast = dsl.parse_relation("a*ln(r) + b*s", ["r", "s"], ["a", "b"])
    f1 = dsl.compile_relation(ast, {"a": 2.0, "b": 1.0})
    f2 = dsl.compile_relation(ast, {"a": -1.0, "b": 3.0})
    assert len(tapes) == 1
    assert f1([math.e, 2.0]) == 4.0
    assert f2([math.e, 2.0]) == 5.0
    assert dsl.parse_relation("a*ln(r) + b*s", ["r", "s"], ["a", "b"]) is ast
    # an override build of a live catalog spec reuses its AST and tape
    spec = get_system("vdw_s")
    assert get_system("vdw_s", a=1.1).field.ast is spec.field.ast


def test_dropped_spec_frees_its_asts():
    spec = from_definition({
        "id": "dropped", "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "x", "params": {"k": 2.0},
        "domain": ["x - k/7 > 0"], "relation": "k*ln(x) + ln(y) + x/(7*y)"})
    pred = spec.domain[0]
    refs = [weakref.ref(a) for a in (spec.field.ast, pred.field.ast)]
    keys = [("k*ln(x) + ln(y) + x/(7*y)", ("x", "y"), ("k",), False),
            ("x - k/7 > 0", ("x", "y"), ("k",), True)]
    assert [dsl._PARSED[key] for key in keys] == [r() for r in refs]
    del spec, pred
    gc.collect()
    assert [r() for r in refs] == [None] * 2
    assert not any(key in dsl._PARSED for key in keys)


def test_override_builds_share_predicates_and_bind_once(monkeypatch):
    binds = []
    field = dsl.ScalarField
    monkeypatch.setattr(dsl, "ScalarField",
                        lambda ast, values: binds.append(ast)
                        or field(ast, values))
    base = get_system("chap_s")
    other = get_system("chap_s", alpha=0.5)
    assert all(p.field.ast is q.field.ast
               for p, q in zip(base.domain, other.domain))
    # each build binds its relation and each predicate once
    preds = [ast for ast in binds if ast is not base.field.ast]
    assert len(preds) == 2 * len(base.domain)
    # the two specs' checks alternate and bind nothing
    binds.clear()
    for _ in range(3):
        for spec in (base, other):
            domain_check(spec, (1.0, 2.0))
            domain_check(spec, np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert binds == []
