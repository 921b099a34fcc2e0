"""Taylor-jet arithmetic vs finite differences and hand derivatives."""

import math

import mpmath as mp
import numpy as np
import pytest

from geothermo.errors import DomainViolation, NonFinite, SingularDenominator
from geothermo.fd import EPS, fd_jet4
from geothermo.jets import Faults, Jet, jet_eval, jet_poly
from geothermo import analysis, geometry, jets
from geothermo.systems import get_system
from geothermo.transforms import invert_representation, partial_legendre


def f_mixed(args):
    u, v = args
    return jets.ln(u) * jets.exp(v / 2.0) + u ** 3 / v


def test_value_and_gradient():
    j = jet_eval(f_mixed, (2.0, 1.0), 4)
    u, v = 2.0, 1.0
    assert j.value == pytest.approx(math.log(u) * math.exp(0.5) + 8.0)
    assert j.grad[0] == pytest.approx(math.exp(0.5) / u + 3 * u * u / v)
    assert j.grad[1] == pytest.approx(0.5 * math.log(u) * math.exp(0.5)
                                      - u ** 3 / v ** 2)


def test_high_order_against_closed_form():
    # d4/du4 [u^3/v + ln(u) e^{v/2}] = -6/u^4 e^{v/2}... the cubic dies
    j = jet_eval(f_mixed, (2.0, 1.0), 4)
    expect = -6.0 / 2.0 ** 4 * math.exp(0.5)
    assert j.fourth[0, 0, 0, 0] == pytest.approx(expect, rel=1e-12)
    # mixed: d3/du du dv = -6u/v^2 - (1/u^2)(1/2) e^{v/2}
    expect = -6.0 * 2.0 - 1.0 / 4.0 * 0.5 * math.exp(0.5)
    assert j.third[0, 0, 1] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("order", [-1, 5])
def test_jet_eval_rejects_an_order_outside_0_to_4(order):
    with pytest.raises(ValueError, match=f"order must be in 0..4, got {order}"):
        jet_eval(f_mixed, (2.0, 1.0), order)


def test_symmetry_of_derivative_arrays():
    j = jet_eval(f_mixed, (1.7, 0.9), 4)
    assert j.hess[0, 1] == j.hess[1, 0]
    for perm in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        assert j.third[perm] == j.third[0, 1, 1]
    assert j.fourth[0, 1, 0, 1] == j.fourth[1, 1, 0, 0]


@pytest.mark.parametrize("fn,dfn", [
    (jets.exp, jets.exp),
    (jets.sinh, jets.cosh),
    (jets.cosh, jets.sinh),
    (jets.tanh, lambda x: 1.0 - jets.tanh(x) ** 2),
])
def test_analytic_derivative_pairs(fn, dfn):
    x = 0.37
    j = jet_eval(lambda a: fn(a[0]), (x,), 4)
    d = jet_eval(lambda a: dfn(a[0]), (x,), 4)
    assert j.grad[0] == pytest.approx(d.value, rel=1e-12)
    assert j.hess[0, 0] == pytest.approx(d.grad[0], rel=1e-12)


def test_ln_exp_inverse():
    j = jet_eval(lambda a: jets.ln(jets.exp(a[0])), (1.234,), 4)
    assert j.value == pytest.approx(1.234)
    assert j.grad[0] == pytest.approx(1.0, abs=1e-13)
    assert abs(j.hess[0, 0]) < 1e-12


def test_sqrt_and_power_consistency():
    j1 = jet_eval(lambda a: jets.sqrt(a[0]), (3.0,), 4)
    j2 = jet_eval(lambda a: jets.power(a[0], 0.5), (3.0,), 4)
    assert j1.fourth[0, 0, 0, 0] == pytest.approx(j2.fourth[0, 0, 0, 0],
                                                  rel=1e-11)


def test_jet_valued_exponent():
    # x^x = exp(x ln x); first derivative x^x (ln x + 1)
    j = jet_eval(lambda a: a[0] ** a[0], (1.5,), 2)
    val = 1.5 ** 1.5
    assert j.value == pytest.approx(val)
    assert j.grad[0] == pytest.approx(val * (math.log(1.5) + 1.0), rel=1e-12)


def test_domain_errors():
    with pytest.raises((DomainViolation, NonFinite)):
        jet_eval(lambda a: jets.ln(a[0]), (-1.0,), 2)
    with pytest.raises((DomainViolation, NonFinite)):
        jet_eval(lambda a: jets.sqrt(a[0] - 5.0), (1.0,), 2)


def test_jet_vs_fd_random_field(rng=np.random.default_rng(7)):
    x = rng.uniform(0.6, 2.0, size=(5, 2))
    j = jet_eval(f_mixed, x, 4)
    fd = fd_jet4(f_mixed, x)
    for idx in [(0,), (1,), (0, 1), (0, 0), (1, 1), (0, 0, 1),
                (0, 1, 1), (0, 0, 1, 1)]:
        name = ("grad", "hess", "third", "fourth")[len(idx) - 1]
        ad = getattr(j, name)[(slice(None),) + idx]
        assert np.all(abs(ad - getattr(fd, name)[(slice(None),) + idx])
                      <= 1e-5 * (1.0 + abs(ad))), idx


def nested_fd(field, x, idx):
    """The nested central difference of the partial along the axes ``idx``
    at ``x``, as a recursion over the axes (first axis outermost) with
    fd_jet4's step rule."""
    x = [float(c) for c in x]

    def recurse(axes, pt):
        if not axes:
            return float(field(list(pt)))
        a = axes[0]
        h = EPS ** (1.0 / (len(idx) + 4)) * max(1.0, abs(x[a]))

        def shifted(mult):
            out = list(pt)
            out[a] += mult * h
            return recurse(axes[1:], out)

        return (shifted(-2) - 8.0 * shifted(-1) + 8.0 * shifted(1)
                - shifted(2)) / (12.0 * h)

    return recurse(list(idx), x)


def _once(field):
    """``field`` evaluated once per point, keyed by its bits (-0.0 apart
    from 0.0): a node that fd_jet4 and the recursion both visit costs one
    Newton solve on a derived spec, and a node of other bits is a new
    evaluation."""
    values = {}

    def once(x):
        key = np.array(x).tobytes()
        if key not in values:
            values[key] = field(x)
        return values[key]

    return once


def _fd_entries(fd, i):
    """The entries of point ``i`` of a Jet4, one per monomial of the full
    order-4 set, with the sorted axis tuple of each."""
    tensors = (fd.value, fd.grad, fd.hess, fd.third, fd.fourth)
    for exps in jets._tables(fd.n, 4).exps:
        idx = tuple(a for a, k in enumerate(exps) for _ in range(k))
        yield idx, tensors[len(idx)][(i,) + idx]


@pytest.mark.parametrize("field,points", [
    (f_mixed, [[2.0, 1.0], [0.7, 1.9]]),
    (get_system("vdw_s").field, [[2.0, 3.0], [0.4, 1.7]]),
    (get_system("ising_f").field, [[1.0, 1.0], [0.6, 0.3]]),
    (get_system("chap_u").field, [[2.5, 1.0], [3.5, 0.7]]),
    (get_system("ideal_g").field, [[1.0, 2.0], [3.0, 0.5]]),
    (invert_representation(get_system("vdw_s"), 0, solve="newton").field,
     [[1.5 * math.log(2.0 + 1.0 / 3.0) + math.log(2.0), 3.0]]),
], ids=["f_mixed", "vdw_s", "ising_f", "chap_u", "ideal_g", "inv_vdw_s"])
def test_fd_jet4_has_the_bits_of_the_recursion(field, points):
    # batched stencils, each node evaluated once per call and the
    # differences reduced axis by axis, give every entry the bits of the
    # recursion over the axes
    field = _once(field)
    fd = fd_jet4(field, np.array(points))
    for i, x in enumerate(points):
        for idx, got in _fd_entries(fd, i):
            assert got == nested_fd(field, x, idx), (x, idx)


def test_fd_jet4_evaluates_each_stencil_node_once():
    calls = []

    def field(x):
        calls.append(np.array(x).tobytes())
        return f_mixed(x)

    # the third point repeats the first, whose nodes it shares
    points = np.array([[2.0, 1.0], [1.5, 0.5], [2.0, 1.0]])
    fd = fd_jet4(field, points)
    assert len(calls) == len(set(calls))
    count = len(calls)
    calls.clear()
    fd_jet4(field, points[:2])
    assert len(calls) == count
    # each point's stencils have 1 + 2*4 + 3*16 + 4*64 + 5*256 nodes
    assert count < 2 * 1593
    assert np.array_equal(fd.fourth[0], fd.fourth[2])


def test_fd_jet4_step_scales_with_each_axis():
    # an order-k partial along axis a steps eps^(1/(k+4)) * max(1, |x_a|):
    # longer at a higher order, and along each axis by its own coordinate
    calls = []

    def field(x):
        calls.append(tuple(x))
        return x[0] * x[1]

    fd_jet4(field, (0.5, 100.0))
    # the point, then the first-order stencils along u and along v (nodes
    # x - 2h, x - h, x + h, x + 2h), then the first nodes of the
    # second-order stencil along u, (u - 2h) - 2h
    assert calls[0] == (0.5, 100.0)
    assert calls[3][0] - 0.5 == pytest.approx(EPS ** (1 / 5))
    assert calls[7][1] - 100.0 == pytest.approx(100.0 * EPS ** (1 / 5))
    assert calls[9][0] - 0.5 == pytest.approx(-4.0 * EPS ** (1 / 6))


def test_fd_jet4_keeps_signed_zeros_apart():
    # at u = -0.0 the point itself is a node, and the second-order stencil
    # along u comes back to +0.0 at (-0.0 - h) + h; a field that tells the
    # two apart gets both values
    calls = []

    def field(x):
        calls.append(tuple(x))
        return math.copysign(1.0, x[0]) + x[0] * x[1]

    x = (-0.0, 1.0)
    fd = fd_jet4(field, x)
    signs = [math.copysign(1.0, u) for u, v in calls if u == 0.0 and v == 1.0]
    assert signs == [-1.0, 1.0]
    for idx, got in _fd_entries(fd, 0):
        assert got == nested_fd(field, x, idx), idx


def test_fd_jet4_raises_the_first_failing_node():
    # stencil order runs point by point: point 1 first fails at the
    # second-order stencil along u, point 2 already at the first-order one,
    # and point 1's failure is raised
    def field(x):
        if x[0] <= 0.0:
            raise DomainViolation(f"at {x!r}")
        return math.log(x[0]) * x[1]

    points = np.array([[1.0, 1.0], [2e-3, 2.0], [1e-3, 3.0]])
    h = EPS ** (1 / 6)
    first = 2e-3
    first += -2 * h
    first += -2 * h
    with pytest.raises(DomainViolation) as err:
        fd_jet4(field, points)
    assert str(err.value) == f"at {[first, 2.0]!r}"
    with pytest.raises(DomainViolation) as err:
        fd_jet4(field, points[2:])
    assert str(err.value) == f"at {[1e-3 - 2 * EPS ** (1 / 5), 3.0]!r}"


def test_fd_jet4_non_finite_estimate():
    # the field is finite at the point and overflows to inf at the far
    # nodes of the stencils along u
    with pytest.raises(NonFinite, match="finite-difference estimate is "
                                        "not finite"):
        fd_jet4(lambda x: 1e308 * x[0] * x[0] + x[1], (1.3, 1.0))


@pytest.mark.parametrize("key", ["vdw_s", "inv_vdw_s"])
def test_fd_jet4_of_an_empty_batch(key):
    # an empty batch has no stencil node: its Jet4 is empty, with the
    # shapes of jet_eval's and an empty record, for a ScalarField and for
    # a Newton-derived field, whose nodes run as one order-0 batch
    field = (get_system(key) if key == "vdw_s" else _derived(key)).field
    points = np.empty((0, 2))
    fd, want = fd_jet4(field, points), jet_eval(field, points, 4)
    for name in ("value", "grad", "hess", "third", "fourth"):
        a, b = getattr(fd, name), getattr(want, name)
        assert (a.shape, a.dtype) == (b.shape, b.dtype), name
    assert (fd.order, fd.top) == (4, None)
    assert fd.faults.ok.shape == (0,) and fd.faults.errors == {}


def _derived(key):
    if key == "inv_vdw_s":
        return invert_representation(get_system("vdw_s"), 0, solve="newton")
    return partial_legendre(get_system("vdw_u"), 0, solve="newton")


@pytest.mark.parametrize("key", ["inv_vdw_s", "pl_vdw_u"])
def test_fd_jet4_runs_a_derived_field_as_one_batch(key, monkeypatch):
    # a Newton-derived field's float path is an order-0 batch of one, so
    # its distinct stencil nodes run as one order-0 batch, one solve, with
    # the bits of one call per node
    spec = _derived(key)
    field = spec.field
    points = np.array([[0.5 * (lo + hi) for lo, hi in spec.sample_box],
                       [lo + 0.25 * (hi - lo) for lo, hi in spec.sample_box]])
    per_node = fd_jet4(lambda x: field(x), points)
    solves = []
    solve = type(field).solve_base_point

    def counted(self, x, faults):
        solves.append(len(x))
        return solve(self, x, faults)

    monkeypatch.setattr(type(field), "solve_base_point", counted)
    batched = fd_jet4(field, points)
    assert len(solves) == 1 and solves[0] < 2 * 1593
    for name in ("value", "grad", "hess", "third", "fourth"):
        assert getattr(batched, name).tobytes() == \
            getattr(per_node, name).tobytes(), name


@pytest.mark.parametrize("key", ["inv_vdw_s", "pl_vdw_u"])
def test_fd_jet4_of_a_derived_field_raises_the_first_failing_node(key):
    # v = b + 2e-4: the stencils along v step below b, outside the preimage
    # of the base domain; the batch raises the failure of the first such
    # node in stencil order, as one call per node does
    spec = _derived(key)
    (s_lo, s_hi), _ = spec.sample_box
    points = np.array([[0.5 * (s_lo + s_hi), 3.0], [s_lo, 1.0 + 2e-4]])
    errors = []
    for field in (spec.field, lambda x: spec.field(x)):
        with pytest.raises(DomainViolation) as err:
            fd_jet4(field, points)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert "it violates ['v > b']" in errors[0]


def test_jet_poly_deriv_and_eval():
    p = jet_poly(f_mixed, (2.0, 1.0), 4)
    assert p.c.shape == (15 + 1, 1)       # 15 monomials, one point
    series = p.slot_series(0, [None, 0.0])
    assert len(series) == 5
    j = jet_eval(f_mixed, (2.0, 1.0), 4)
    assert series[1][0] == pytest.approx(j.grad[0])
    # the series summed at a float displacement approximates the field
    du = 1e-3
    shifted = sum(a * du ** m for m, a in enumerate(series))
    truth = f_mixed([2.0 + du, 1.0])
    assert shifted[0] == pytest.approx(truth, abs=1e-14)


def test_slot_series_with_jet_deltas_matches_the_polynomial():
    # A_m(dv) t^m summed with jet displacements recomposes the polynomial
    p = jet_poly(f_mixed, np.array([[2.0, 1.0], [1.5, 0.7]]), 4)
    du = Jet.variable(jets._tables(2, 4), 0, np.zeros(2), p.faults)
    dv = Jet.variable(jets._tables(2, 4), 1, np.zeros(2), p.faults)
    series = p.slot_series(0, [None, dv])
    total = series[-1]
    for a in reversed(series[:-1]):
        total = total * du + a
    assert np.allclose(np.asarray(total.c, dtype=float),
                       np.asarray(p.c, dtype=float), rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("order, top", [(0, None), (1, None), (2, None),
                                        (3, None), (4, None), (4, ((2, 2),))])
@pytest.mark.parametrize("batch", [1, 70])
def test_placed_series_has_the_bits_of_the_products(order, top, batch,
                                                     monkeypatch):
    # displacements that are the variables shifted to zero place each
    # coefficient instead of multiplying it out: every series entry keeps
    # the type, tag and bits of the products and sums, on coefficients that
    # hold signed zeros, infinities, NaN, all-zero rows and huge values,
    # and on delta sets that drop x^p (low orders, the 2-D curvature's set).
    # A variable at -0.0 or at NaN is no zero shift and multiplies out
    rng = np.random.default_rng(10 * order + batch)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e-308,
               2.5, -3.0]
    t = jets._tables(2, max(order, 2))
    c = rng.choice(special, size=(t.size + 1, batch)).astype(jets.FLOAT.dtype)
    c[rng.integers(1, t.size, 3)] = 0.0
    c[-1] = 0.0
    poly = Jet(t, c, Faults(batch))
    at = rng.uniform(0.5, 2.0, batch)
    for slot, value in ((0, at), (1, at), (0, -0.0), (1, math.nan)):
        delta = Jet.variable(jets._tables(2, order, top), 1 - slot,
                             np.full(batch, value), poly.faults)
        deltas = [None, None]
        deltas[1 - slot] = delta - delta.value if value is at else delta
        with np.errstate(all="ignore"):
            placed = poly.slot_series(slot, deltas)
            monkeypatch.setattr(jets, "_is_zero_shift", lambda d, i: False)
            looped = poly.slot_series(slot, deltas)
            monkeypatch.undo()
        for a, b in zip(placed, looped):
            assert type(a) is type(b)
            if isinstance(a, Jet):
                assert (a.t, a.affine) == (b.t, b.affine)
                a, b = a.c, b.c
            assert _same_bits(a, b)


def test_division_and_int_pow():
    j = jet_eval(lambda a: (a[0] ** 4) / a[0], (1.3,), 4)
    k = jet_eval(lambda a: a[0] ** 3, (1.3,), 4)
    assert j.third[0, 0, 0] == pytest.approx(k.third[0, 0, 0], rel=1e-12)


def test_constant_and_variable_constructors():
    faults = Faults(1)
    c = Jet.constant(jets._tables(2, 4), 5.0, faults)
    v = Jet.variable(jets._tables(2, 4), 1, 3.0, faults)
    s = c * v + v
    assert s.value[0] == pytest.approx(18.0)
    assert s.slot_series(1, [0.0, None])[1][0] == pytest.approx(6.0)
    assert s.slot_series(0, [None, 0.0])[1][0] == 0.0


# ---- dense batched layout ------------------------------------------------


def test_batch_of_points_matches_single_points():
    pts = np.array([[2.0, 1.0], [1.7, 0.9], [0.8, 1.6]])
    batch = jet_eval(f_mixed, pts, 4)
    assert batch.value.shape == (3,)
    assert batch.fourth.shape == (3, 2, 2, 2, 2)
    for i, x in enumerate(pts):
        one = jet_eval(f_mixed, x, 4)
        assert batch.value[i] == one.value
        for name in ("grad", "hess", "third", "fourth"):
            assert np.array_equal(getattr(batch, name)[i], getattr(one, name))


def test_batch_constants_broadcast():
    faults = Faults(3)
    v = Jet.variable(jets._tables(2, 4), 0, np.array([1.0, 2.0, 3.0]), faults)
    s = Jet.constant(jets._tables(2, 4), 2.0, faults) * v + 1.0
    assert s.size == 3
    assert np.array_equal(s.value, [3.0, 5.0, 7.0])
    assert np.array_equal(s.slot_series(0, [None, 0.0])[1], [2.0, 2.0, 2.0])
    # per-point constants shift each point by its own value
    t = v + np.array([10.0, 20.0, 30.0])
    assert np.array_equal(t.value, [11.0, 22.0, 33.0])


def test_batch_failures_are_per_point():
    pts = np.array([[2.0, 1.0], [-1.0, 1.0], [1.0, 1.0]])
    batch = jet_eval(lambda a: jets.ln(a[0]) + 1.0 / (a[0] - a[1]), pts, 4)
    assert list(batch.faults.ok) == [True, False, False]
    assert isinstance(batch.faults.errors[1], DomainViolation)
    assert isinstance(batch.faults.errors[2], SingularDenominator)
    one = jet_eval(lambda a: jets.ln(a[0]) + 1.0 / (a[0] - a[1]), pts[0], 4)
    assert batch.grad[0, 1] == one.grad[1]


def test_jet_records_its_failures_and_carries_on():
    faults = Faults(2)
    x = Jet.variable(jets._tables(1, 2), 0, np.array([1.0, -1.0]), faults)
    with np.errstate(all="ignore"):
        y = (x - 1.0)._reciprocal()     # point 0 divides by zero
        z = x.ln()                      # point 1 takes ln(-1)
        assert faults.ok.tolist() == [False, False]
        assert type(faults.errors[0]) is SingularDenominator
        assert type(faults.errors[1]) is DomainViolation
        assert str(faults.errors[1]) == "ln of non-positive argument -1.0"
        # later failures of a point leave its first one in place
        w = (y * z).ln() + 2.0
    assert w.faults is y.faults is z.faults is faults
    assert w.size == 2
    assert [type(faults.errors[i]) for i in (0, 1)] == [SingularDenominator,
                                                       DomainViolation]


def test_overflow_is_nonfinite():
    with pytest.raises(NonFinite):
        jet_eval(lambda a: jets.exp(a[0]), (800.0,), 2)
    with pytest.raises(NonFinite):
        jet_eval(lambda a: jets.cosh(a[0]), (-800.0,), 2)


@pytest.mark.parametrize("name", ["exp", "sinh", "cosh"])
def test_overflow_fails_its_point_with_a_message(name):
    # the value overflows at 12000; the point fails naming the function and
    # the argument, and its neighbour keeps its bits
    def field(a):
        return getattr(jets, name)(a[0])

    batch = jet_eval(field, np.array([[1.0], [12000.0]]), 2)
    assert batch.faults.ok.tolist() == [True, False]
    error = batch.faults.errors[1]
    assert (type(error), str(error)) == (NonFinite,
                                         f"{name} overflow at 12000.0")
    alone = jet_eval(field, (1.0,), 2)
    for slot in ("value", "grad", "hess"):
        assert (np.asarray(getattr(batch, slot)[0]).tobytes()
                == np.asarray(getattr(alone, slot)).tobytes()), slot


@pytest.mark.parametrize("exponent", [math.inf, math.nan])
def test_non_finite_exponent_fails_the_point(exponent):
    # an integer test of an inf/nan exponent used to raise OverflowError /
    # ValueError out of the jet arithmetic
    def field(a):
        return jets.power(a[0], exponent) + a[1]

    with pytest.raises(NonFinite):
        jet_eval(field, (0.7, 1.3), 4)
    batch = jet_eval(field, np.array([[0.7, 1.3], [1.5, 1.0]]), 4)
    assert all(isinstance(batch.faults.errors[i], NonFinite) for i in (0, 1))


@pytest.mark.parametrize("exponent", [math.inf, -math.inf, math.nan])
def test_negative_base_to_non_finite_exponent(exponent):
    with pytest.raises(DomainViolation):
        jets.power(-0.5, exponent)
    # a float subexpression fails every point of a batch alike
    batch = jet_eval(lambda a: jets.power(-0.5, exponent) + a[0],
                     np.array([[0.7], [1.5]]), 2)
    assert all(isinstance(batch.faults.errors[i], DomainViolation)
               for i in (0, 1))


@pytest.mark.parametrize("backend", [jets.FLOAT, jets.MPMATH],
                         ids=["float", "mpmath"])
def test_constant_base_to_a_jet_exponent(backend):
    # 2^x: the k-th derivative is ln(2)^k 2^x
    x = np.array([[0.7], [1.5]])
    j = jet_eval(lambda a: jets.power(2.0, a[0]), x, 4, backend=backend)
    assert not j.faults.errors
    for i, (xi,) in enumerate(x):
        want = [math.log(2.0) ** k * 2.0 ** xi for k in range(5)]
        got = [j.value[i], j.grad[i, 0], j.hess[i, 0, 0], j.third[i, 0, 0, 0],
               j.fourth[i, 0, 0, 0, 0]]
        assert np.allclose(np.array(got, dtype=float), want, rtol=1e-14)
    for base in (0.0, -2.0):
        with pytest.raises(DomainViolation):
            jet_eval(lambda a: base ** a[0], (0.7,), 4, backend=backend)
        batch = jet_eval(lambda a: base ** a[0], x, 4, backend=backend)
        assert all(isinstance(batch.faults.errors[i], DomainViolation)
                   for i in (0, 1))


# ---- truncated series composition ------------------------------------------


def _untruncated_step(t):
    """The Horner step of a composition without truncation: every monomial,
    from the pairs whose right factor is not the constant monomial, padded
    with both factors' zero rows."""
    return t._product([(k, i, j) for k, group in enumerate(t.mul.pairs)
                       for i, j in group if j != 0], t.size, t.size)


def _fdot_product(table, a, b):
    """A product of the mpmath backend as one ``mp.fdot`` per coefficient."""
    size = max(a.shape[1], b.shape[1])
    a, b = (np.broadcast_to(m, (len(m), size)) for m in (a, b))
    cols = [[mp.fdot([(x[i], y[j]) for i, j in pairs])
             for pairs in table.pairs]
            for x, y in zip(a.T.tolist(), b.T.tolist())]
    return np.array(cols, dtype=object).T


def _padded_product(table, a, b):
    """A product of the float backend as the padded sum at every width:
    each monomial's pairs and its padding, summed over the rank axis."""
    return np.add.reduce(a[table.left] * b[table.right], axis=0)


def _reference_compose(jet, series):
    """Jet._compose with an untruncated Horner step at every degree."""
    product = _fdot_product if jet.bk is jets.MPMATH else _padded_product
    table = _untruncated_step(jets._tables(jet.nvars, jet.order))
    c = jet.c
    out = c * series[-1]
    out[0] = series[-2]
    for k in range(jet.order - 2, -1, -1):
        out = product(table, out, c)
        out[0] = series[k]
    return out


def _same_bits(got, want):
    """Equal coefficients: mpmath numbers by their exact representation,
    floats by value, sign (of zero too) and NaN-ness."""
    assert got.shape == want.shape
    if got.dtype == object:
        def rep(a):
            return [mp.mpf(v)._mpf_ for v in a.flat]
        return rep(got) == rep(want)
    number = ~np.isnan(got)
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got[number]),
                               np.signbit(want[number])))


# the forms of a tagged jet: a bare variable, shifted, negated and scaled
# ones, and one scaled per point by a constant of either sign, +-0, tiny,
# huge, inf or nan
_AFFINE_SCALES = ("0.7", "-1.3", "0.0", "-0.0", "1e-1500", "-1e1500", "inf",
                  "-inf", "nan")
_AFFINE_FORMS = [lambda v, k: v, lambda v, k: v + 0.25,
                 lambda v, k: 1.5 - v, lambda v, k: -2.5 * v,
                 lambda v, k: v / -3.0, lambda v, k: -(v - np.array([0.5]))]
_AFFINE_FORMS += [lambda v, k, s=s: v * k(s) for s in _AFFINE_SCALES]


def _affine_jet(rng, nvars, order, batch, backend):
    """A jet tagged affine in one variable whose points cycle through
    ``_AFFINE_FORMS``."""
    if backend is jets.MPMATH:
        def k(s):
            return np.array([mp.mpf(s)], dtype=object)
    else:
        def k(s):
            return np.array([np.float64(s)])
    index = order % nvars
    cols = []
    for b in range(batch):
        v = Jet.variable(jets._tables(nvars, order), index,
                         rng.uniform(0.5, 2.0, 1), jets.Faults(1), backend)
        cols.append(_AFFINE_FORMS[b % len(_AFFINE_FORMS)](v, k))
    assert all(j.affine == index for j in cols)
    return jets.Jet(jets._tables(nvars, order),
                    np.concatenate([j.c for j in cols], axis=1),
                    jets.Faults(batch), backend, index)


def _series_case(rng, nvars, order, batch, backend, kind):
    """A jet and a series of the given kind, in ``backend``'s numbers."""
    size = jets._tables(nvars, order).size
    c = rng.standard_normal((size + 1, batch))
    c[-1] = 0.0
    series = rng.standard_normal((order + 1, batch))
    if kind == "sparse":
        # a jet of the first variable alone and negative coefficients: the
        # products of the other monomials are signed zeros
        c *= [[float(sum(e[1:]) == 0)] for e in
              jets._tables(nvars, order).exps] + [[0.0]]
        series = -np.abs(series)
    elif kind == "nonfinite":
        series[-1, 0] = math.inf
        series[order // 2, 1] = math.nan
        series[0, 2] = -math.inf
        c[1, 3] = math.inf
    elif kind == "affine":
        # after the first cycle of forms, each point has one non-finite or
        # zero series term
        special = [(order, math.inf), (order // 2, math.nan),
                   (0, -math.inf), (order, 0.0), (1, 0.0), (1, -math.inf)]
        for b in range(len(_AFFINE_FORMS), batch):
            row, value = special[b % len(special)]
            series[row, b] = value
    if backend is jets.MPMATH:
        c = np.array([[mp.mpf(v) for v in row] for row in c], dtype=object)
        c[-1] = 0            # object zero rows hold Python ints
        series = np.array([[mp.mpf(v) for v in row] for row in series],
                          dtype=object)
    if kind == "affine":
        return _affine_jet(rng, nvars, order, batch, backend), series
    return (jets.Jet(jets._tables(nvars, order), c, jets.Faults(batch),
                     backend), series)


@pytest.mark.parametrize("backend", [jets.FLOAT, jets.MPMATH],
                         ids=["float", "mpmath"])
@pytest.mark.parametrize("kind", ["dense", "sparse", "nonfinite", "affine"])
def test_composition_matches_untruncated_horner(backend, kind):
    rng = np.random.default_rng(11)
    batch = 3 * len(_AFFINE_FORMS) if kind == "affine" else 4
    with mp.workdps(30), np.errstate(all="ignore"):
        for nvars in (1, 2, 3):
            for order in range(1, 5):
                jet, series = _series_case(rng, nvars, order, batch,
                                           backend, kind)
                got = jet._compose(series).c
                assert _same_bits(got, _reference_compose(jet, series)), \
                    (nvars, order)


@pytest.mark.parametrize("batch", [70, 256])
@pytest.mark.parametrize("kind", ["dense", "sparse", "nonfinite", "affine"])
def test_wide_composition_matches_untruncated_horner(kind, batch):
    # batches wide enough for the staircase sums, with NaN and negative
    # zero rows at some points of the untagged jets
    assert batch >= jets.STAIRCASE_WIDTH
    rng = np.random.default_rng(14)
    with np.errstate(all="ignore"):
        for nvars in (1, 2, 3):
            for order in range(1, 5):
                jet, series = _series_case(rng, nvars, order, batch,
                                           jets.FLOAT, kind)
                if kind != "affine":
                    jet.c[-1, 4::7] = math.nan
                    jet.c[-1, 5::7] = -0.0
                got = jet._compose(series).c
                assert _same_bits(got, _reference_compose(jet, series)), \
                    (nvars, order)


def _product_factor(rng, rows, batch):
    """Coefficients for a product: about 40% signed zeros and 3% infinities
    and NaNs, and a zero row that is +0, -0 or NaN by point."""
    m = rng.standard_normal((rows, batch))
    pick = rng.random((rows, batch))
    m[pick < 0.4] = np.copysign(0.0, m[pick < 0.4])
    m[pick > 0.97] = rng.choice([math.inf, -math.inf, math.nan],
                                np.count_nonzero(pick > 0.97))
    m[-1] = rng.choice([0.0, -0.0, math.nan], batch, p=[0.6, 0.3, 0.1])
    return m.astype(jets.FLOAT.dtype)


@pytest.mark.parametrize("batch", [4, 70, 256])
def test_float_product_matches_padded_sum(batch):
    # the full product and every truncated step, batch against batch and
    # broadcast against one point either way; from STAIRCASE_WIDTH on the
    # staircase sums, below it the padded sum itself
    rng = np.random.default_rng(15)
    with np.errstate(all="ignore"):
        for nvars in (1, 2, 3):
            for order in range(1, 5):
                t = jets._tables(nvars, order)
                for table in [t.mul] + t.compose:
                    a = _product_factor(rng, table.left.max() + 1, batch)
                    b = _product_factor(rng, t.size + 1, batch)
                    for x, y in ((a, b), (a[:, :1], b), (a, b[:, :1])):
                        got = jets.FLOAT.product(table, x, y)
                        assert got.shape == (len(table.pairs), batch)
                        assert _same_bits(got, _padded_product(table, x, y)), \
                            (nvars, order, len(table.pairs))


@pytest.mark.parametrize("backend", [jets.FLOAT, jets.MPMATH],
                         ids=["float", "mpmath"])
def test_composition_broadcasts_like_untruncated_horner(backend):
    # one jet against a batch of series, and a batch of jets against one
    # series, as broadcast constants and _as_jet produce them; an affine
    # jet, with a non-finite series term at one point of the batch
    rng = np.random.default_rng(12)
    with mp.workdps(30), np.errstate(all="ignore"):
        for kind in ("dense", "affine"):
            jet, series = _series_case(rng, 2, 4, 1, backend, kind)
            wide = jets.Jet(jets._tables(2, 4),
                            np.broadcast_to(jet.c, (jet.c.shape[0], 3)),
                            jets.Faults(3), backend, jet.affine)
            _, many = _series_case(rng, 2, 4, 3, backend, "dense")
            if kind == "affine":
                many[2, 1] = math.inf
            for j, s in ((jet, many), (wide, series), (wide, many)):
                got = j._compose(s).c
                assert got.shape == (16, 3)
                assert _same_bits(got, _reference_compose(j, s))


@pytest.mark.parametrize("nvars,count", [(1, 19), (2, 89), (3, 257)])
def test_composition_multiplication_count(monkeypatch, nvars, count):
    # untruncated, each of the three Horner steps multiplies every pair of
    # the full step: 30, 165 and 525 multiplications.  An argument affine
    # in one variable makes none; the sum of two jets drops that tag.  The
    # mpmath backend multiplies each pair that its per-monomial sum walks
    calls = []
    dot = jets._dot
    monkeypatch.setattr(jets, "_dot", lambda pairs, *args: calls.extend(
        pairs) or dot(pairs, *args))
    jet = Jet.variable(jets._tables(nvars, 4), 0, np.array([0.5]), Faults(1),
                       bk=jets.MPMATH)
    ((2.0 / 3.0) * jet - 1.0).exp()
    assert not calls
    (jet + Jet.constant(jets._tables(nvars, 4), 0.0, jet.faults,
                        bk=jets.MPMATH)).exp()
    assert len(calls) == count
    full = _untruncated_step(jets._tables(nvars, 4)).pairs
    assert 3 * sum(map(len, full)) == {1: 30, 2: 165, 3: 525}[nvars]


def test_affine_tag_follows_the_operations():
    faults = Faults(2)
    x = Jet.variable(jets._tables(2, 4), 1, np.array([1.0, 2.0]), faults)
    y = Jet.variable(jets._tables(2, 4), 0, np.array([1.0, 2.0]), faults)
    per_point = np.array([2.0, -3.0])
    kept = [x, x + 1.0, 1.0 + x, x - per_point, 2.0 - x, -x, 1.5 * x,
            x * per_point, x / 4.0, x / per_point]
    assert all(j.affine == 1 for j in kept)
    dropped = [x + y, x - x, x * x, x * y, 1.0 / x, x ** 0.5, x ** 2,
               x.exp(), jets.ln(x), x / y]
    assert all(j.affine is None for j in dropped)


def test_mpmath_product_equals_fdot():
    # mpmath numbers, the Python int zeros of object zero rows, inf and nan,
    # through the full product and every truncated step
    t = jets._tables(2, 4)
    rng = np.random.default_rng(13)
    values = [mp.mpf(v) for v in rng.standard_normal(40)]
    values += [0, 0, 0, mp.inf, -mp.inf, mp.nan, mp.mpf(0)]
    with mp.workdps(25):
        for _ in range(6):
            a = np.array(rng.choice(np.array(values, dtype=object),
                                    (t.size + 1, 3)), dtype=object)
            b = np.array(rng.choice(np.array(values, dtype=object),
                                    (t.size + 1, 3)), dtype=object)
            a[-1] = b[-1] = 0
            assert _same_bits(jets.MPMATH.product(t.mul, a, b),
                              _fdot_product(t.mul, a, b))
            out = a
            for step in t.compose:
                got = jets.MPMATH.product(step, out, b)
                assert _same_bits(got, _fdot_product(step, out, b))
                out = got


def _wide_factor(rng, rows, cols, prec):
    """mpmath coefficients of prec-bit mantissas and exponents spread over
    +-3 prec, some of them the same power of two of either sign, with a
    Python int zero row."""
    m = np.empty((rows, cols), dtype=object)
    for index in np.ndindex(m.shape):
        man = int.from_bytes(rng.bytes(prec // 8 + 1), "big") >> (
            8 - prec % 8)
        if rng.random() < 0.2:
            man = 1 << (prec - 1)
        sign = -1 if rng.random() < 0.5 else 1
        m[index] = mp.ldexp(mp.mpf(sign * man),
                            int(rng.integers(-3 * prec, 3 * prec + 1)) - prec)
    m[-1] = 0
    return m


@pytest.mark.parametrize("dps", [25, 40, 120])
def test_mpmath_product_equals_fdot_over_wide_exponents(dps):
    # terms far above and below the running sum, which mpf_sum drops or
    # lets replace it, through the full product and every truncated step,
    # a 3-point batch against one point either way, and the composition
    t = jets._tables(2, 4)
    rng = np.random.default_rng(dps)
    with mp.workdps(dps):
        prec = mp.mp.prec
        for _ in range(6):
            a = _wide_factor(rng, t.size + 1, 3, prec)
            b = _wide_factor(rng, t.size + 1, 1, prec)
            for x, y in ((a, b), (b, a)):
                assert _same_bits(jets.MPMATH.product(t.mul, x, y),
                                  _fdot_product(t.mul, x, y))
            out = a
            for step in t.compose:
                got = jets.MPMATH.product(step, out, b)
                assert _same_bits(got, _fdot_product(step, out, b))
                out = got
            series = _wide_factor(rng, 5, 3, prec)
            for c in (a, b):
                jet = jets.Jet(jets._tables(2, 4), c,
                               jets.Faults(c.shape[1]), jets.MPMATH)
                assert _same_bits(jet._compose(series).c,
                                  _reference_compose(jet, series))


# three products a 2^k times b on the pairs of one monomial, k a function
# of the precision p, and what mpf_sum makes of them with max_extra_prec =
# 2p: each sum is exactly its middle product, but a product more than 2p
# bits below the running sum's exponent is dropped, and one more than 2p
# bits above it replaces the sum
_DROPS = [
    # 1 between 2^(3p) and -2^(3p), in both orders, is dropped
    ([(lambda p: 3 * p, 1, 1), (lambda p: 0, 1, 1),
      (lambda p: 3 * p, -1, 1)], 0),
    ([(lambda p: 3 * p, -1, 1), (lambda p: 0, 1, 1),
      (lambda p: 3 * p, 1, 1)], 0),
    # after 2^p the sum sits at exponent 0: 2^(-2p-1) is kept, 2^(-2p-2)
    # dropped, and 9 2^(-2p-4), of as many bits as its factors' together,
    # kept
    ([(lambda p: p, 1, 1), (lambda p: -2 * p - 1, 1, 1),
      (lambda p: p, -1, 1)], lambda p: mp.ldexp(1, -2 * p - 1)),
    ([(lambda p: p, 1, 1), (lambda p: -2 * p - 2, 1, 1),
      (lambda p: p, -1, 1)], 0),
    ([(lambda p: p, 1, 1), (lambda p: -2 * p - 4, 3, 3),
      (lambda p: p, -1, 1)], lambda p: mp.ldexp(9, -2 * p - 4)),
    # after 1, 2^(2p+1) is added to the sum and 2^(2p+2) replaces it
    ([(lambda p: 0, 1, 1), (lambda p: 2 * p + 1, 1, 1),
      (lambda p: 2 * p + 1, -1, 1)], lambda p: 1),
    ([(lambda p: 0, 1, 1), (lambda p: 2 * p + 2, 1, 1),
      (lambda p: 2 * p + 2, -1, 1)], 0),
]


@pytest.mark.parametrize("case", range(len(_DROPS)))
def test_mpmath_product_drops_what_fdot_drops(case):
    # the three pairs of x^2: (0, 2), (1, 1) and (2, 0)
    terms, want = _DROPS[case]
    t = jets._tables(1, 2)
    assert t.mul.pairs[2] == [(0, 2), (1, 1), (2, 0)]
    with mp.workdps(25):
        p = mp.mp.prec
        a = np.array([[mp.ldexp(x, k(p))] for k, x, _ in terms] + [[0]],
                     dtype=object)
        b = np.array([[mp.mpf(y)] for _, _, y in reversed(terms)] + [[0]],
                     dtype=object)
        got = jets.MPMATH.product(t.mul, a, b)
        assert _same_bits(got, _fdot_product(t.mul, a, b))
        assert got[2, 0] == (want(p) if want else 0)


def test_mpmath_product_falls_back_on_non_finite_factors():
    # a zero (Python int or mpf) or finite factor against inf and nan, in
    # the monomials of degree 3 and 4 and not below, through the full
    # product and a step
    t = jets._tables(2, 4)
    with mp.workdps(30):
        values = [mp.inf, -mp.inf, mp.nan]
        for k in range(len(values)):
            a = np.array([[values[(k + r) % len(values)] if r in (5, 10)
                           else mp.mpf(r % 3 and r + 1) for _ in range(2)]
                          for r in range(t.size + 1)], dtype=object)
            b = np.array([[values[(k + 2 * r) % len(values)] if r in (3, 10)
                           else 0 if r % 4 == 1 else mp.mpf(-r)]
                          for r in range(t.size + 1)], dtype=object)
            a[-1] = b[-1] = 0
            got = jets.MPMATH.product(t.mul, a, b)
            assert _same_bits(got, _fdot_product(t.mul, a, b)), k
            finite = [mp.isfinite(v) for v in got[:-1, 0]]
            assert any(finite) and not all(finite)
            step = t.compose[1]
            assert _same_bits(jets.MPMATH.product(step, got, b),
                              _fdot_product(step, got, b))


def test_mpmath_composition_chain_with_a_non_finite_term():
    # each composition feeds the next, so the tuples of one Horner loop
    # carry inf and nan into the next one's factors
    rng = np.random.default_rng(17)
    with mp.workdps(30):
        jet, series = _series_case(rng, 2, 4, 4, jets.MPMATH, "dense")
        series[3, 1] = mp.inf
        series[0, 2] = mp.nan
        for _ in range(3):
            got = jet._compose(series)
            assert _same_bits(got.c, _reference_compose(jet, series))
            jet = got
            _, series = _series_case(rng, 2, 4, 4, jets.MPMATH, "dense")
        assert not all(mp.isfinite(v) for v in jet.c[:, 1])


def test_mpmath_horner_makes_no_mpf_multiplication(monkeypatch):
    # every step of the loop, its first one (c times the last series term)
    # included, multiplies _mpf_ tuples; mpf objects are only built
    rng = np.random.default_rng(18)
    mpf = type(mp.mpf(1))
    with mp.workdps(30):
        cases = []
        for order in range(1, 5):
            jet, series = _series_case(rng, 2, order, 3, jets.MPMATH, "dense")
            cases.append((order, jet, series, _reference_compose(jet, series)))
        calls = []
        mul = mpf.__mul__
        monkeypatch.setattr(mpf, "__mul__", lambda a, b: calls.append(
            (a, b)) or mul(a, b))
        for order, jet, series, want in cases:
            got = jets.MPMATH.horner(jets._tables(2, order).compose, jet.c,
                                     series)
            assert not calls, order
            assert _same_bits(got, want), order


# ---- the 2-D curvature's monomial set ------------------------------------

SURFACE = ((2, 2),)


def test_surface_set_counts():
    # every monomial of degree <= 3 keeps its number, and u^2 v^2 takes row
    # 10; a product and the Horner steps sum only the pairs that land on
    # the set
    full, top = jets._tables(2, 4), jets._tables(2, 4, SURFACE)
    assert jets._tables(2, 4, SURFACE) is top
    assert (full.size, top.size) == (15, 11)
    assert top.exps == full.exps[:10] + [(2, 2)] and full.exps[12] == (2, 2)
    assert [sum(map(len, t.mul.pairs)) for t in (full, top)] == [70, 44]
    assert ([sum(map(len, s.pairs)) for s in top.compose]
            == [9, 25, 33])
    assert [sum(map(len, s.pairs)) for s in full.compose] == [9, 25, 55]
    # an affine composition writes no u^4 or v^4 row
    assert [p.tolist() for p in top.powers] == [[1, 3, 6], [2, 5, 9]]
    assert [p.tolist() for p in full.powers] == [[1, 3, 6, 10],
                                                 [2, 5, 9, 14]]


def _surface_relation(args):
    # every operation of a compiled relation, the affine compositions of a
    # variable included
    x, y = args
    return (jets.ln(x * y + 1.0) + jets.exp(x / y) - jets.sqrt(x)
            * jets.cosh(y) + x ** 2.5 / (1.0 + jets.tanh(x * y))
            + jets.sinh(0.5 * y) * y ** -3 + jets.ln(y))


@pytest.mark.parametrize("backend", [jets.FLOAT, jets.MPMATH],
                         ids=["float", "mpmath"])
def test_surface_jet_keeps_the_bits_of_the_full_jet(backend):
    # on the rows the set holds, at a single point, below and from
    # STAIRCASE_WIDTH points, and where a point overflows or fails
    full, top = jets._tables(2, 4), jets._tables(2, 4, SURFACE)
    rows = [full.exps.index(e) for e in top.exps] + [full.size]
    rng = np.random.default_rng(29)
    points = rng.uniform(0.3, 3.0, (jets.STAIRCASE_WIDTH + 2, 2))
    points[1] = (1e-90, 1.0)            # coefficients past float64's range
    points[2] = (-1.0, 0.5)             # sqrt fails
    with mp.workdps(30), np.errstate(all="ignore"):
        for x in (points[:1], points[:5], points):
            if backend is jets.MPMATH and len(x) > 5:
                x = x[:8]
            want = jet_poly(_surface_relation, x, 4, backend=backend)
            got = jet_poly(_surface_relation, x, 4, backend=backend,
                           top=SURFACE)
            assert got.t is top and want.t is full
            assert _same_bits(got.c, want.c[rows])
            assert got.faults.errors.keys() == want.faults.errors.keys()


@pytest.mark.parametrize("backend", [jets.FLOAT, jets.MPMATH],
                         ids=["float", "mpmath"])
def test_surface_set_steps_keep_the_bits_of_full_ones(backend):
    # products with signed zeros, infinities and NaNs, in the padded
    # rectangle and in staircase blocks, and compositions of every kind,
    # an affine jet whose s_4 c^4 alone is not finite among them (u^4 and
    # v^4 are not in the set, but the Horner loop's NaN reaches it)
    full, top = jets._tables(2, 4), jets._tables(2, 4, SURFACE)
    rows = [full.exps.index(e) for e in top.exps] + [full.size]
    rng = np.random.default_rng(30)
    widths = [4] if backend is jets.MPMATH else [4, 70]
    with mp.workdps(30), np.errstate(all="ignore"):
        for batch in widths:
            a, b = (_product_factor(rng, full.size + 1, batch)
                    for _ in range(2))
            if backend is jets.MPMATH:
                a, b = (np.array([[mp.mpf(float(v)) for v in row]
                                  for row in m], dtype=object)
                        for m in (a, b))
            assert _same_bits(backend.product(top.mul, a[rows], b[rows]),
                              backend.product(full.mul, a, b)[rows])
        for kind in ("dense", "sparse", "nonfinite", "affine"):
            batch = 3 * len(_AFFINE_FORMS) if kind == "affine" else 4
            jet, series = _series_case(rng, 2, 4, batch, backend, kind)
            cut = jets.Jet(top, jet.c[rows], jet.faults, backend, jet.affine)
            assert _same_bits(cut._compose(series).c,
                              jet._compose(series).c[rows]), kind


def test_surface_jet4_is_nan_where_the_set_holds_no_monomial():
    def f(args):
        u, v = args
        return jets.ln(u) * jets.exp(v / 2.0) + jets.ln(v) + u * u * v * v

    x = np.array([[2.0, 3.0], [1.0, 1e-77]])
    got = jet_eval(f, x, 4, top=SURFACE)
    want = jet_eval(f, x, 4)
    for name in ("value", "grad", "hess", "third"):
        assert np.array_equal(getattr(got, name), getattr(want, name),
                              equal_nan=True), name
    held = np.zeros((2,) * 4, dtype=bool)
    for idx in np.ndindex(held.shape):
        held[idx] = sorted(idx) == [0, 0, 1, 1]
    assert np.array_equal(got.fourth[:, held], want.fourth[:, held])
    assert np.isnan(got.fourth[:, ~held]).all()
    assert (got.top, want.top) == (SURFACE, None)
    assert got.point(0).top == SURFACE
    # a point fails only on a coefficient its jet holds: at v = 1e-77 the
    # Taylor coefficient -1/(4 v^4) of ln v is finite, but the partial
    # d^4/dv^4 ln v, 24 times as large, overflows float64, and the set does
    # not hold v^4
    assert list(want.faults.errors) == [1] and got.faults.ok.all()
    assert str(want.faults.errors[1]) == (
        "non-finite Taylor coefficient for index (0, 4)")
    # the failure names the exponents of the set's own row: u^2 v^2, whose
    # row is 10 there, the row of u^4 in the full set.  Scaled after the
    # product, the coefficients of degree 4 overflow and those below do not
    x = np.array([[1e-3, 1e-3]])
    def g(args):
        return jets.ln(args[0]) * jets.ln(args[1]) * 1e297

    assert [str(jet_eval(g, x, 4, top=top).faults.errors[0])
            for top in (None, SURFACE)] == [
        f"non-finite Taylor coefficient for index {e}"
        for e in ((4, 0), (2, 2))]


def test_mpmath_ising_point_sums_fewer_product_pairs(monkeypatch):
    # the pairs the exact integer kernel walks per mpmath ising_f point,
    # on the 2-D curvature's set and on full jets
    walked = []
    dot = jets._dot

    def counted(pairs, *args):
        walked.append(len(pairs))
        return dot(pairs, *args)

    monkeypatch.setattr(jets, "_dot", counted)
    counts = []
    for top in (geometry.SURFACE_TOP, None):
        monkeypatch.setattr(geometry, "SURFACE_TOP", top)
        walked.clear()
        analysis.ising_curvature(1.0, 0.5)
        counts.append(sum(walked))
    assert counts == [555, 795]
