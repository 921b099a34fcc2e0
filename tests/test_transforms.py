"""Equations of state, Legendre transforms, inversions, coordinate maps."""

import math

import numpy as np
import pytest

from geothermo import dsl, jets, transforms
from geothermo.errors import (DomainViolation, InversionFailure,
                              PreconditionFailure)
from geothermo.geometry import curvature_at
from geothermo.analysis import GridSpec, fd_ricci_scalar, grid_for
from geothermo.jets import Faults, jet_eval, jet_poly
from geothermo.systems import evaluate, from_definition, get_system
from geothermo.transforms import (_newton_solve, equations_of_state,
                                  first_law_residual,
                                  invert_representation, legendre_partner,
                                  legendre_point, partial_legendre,
                                  reduced_variables, to_vP, total_legendre,
                                  u_from_vP)


def test_eos_ideal_gas():
    iv = equations_of_state(get_system("ideal_s"), (1.0, 1.0))
    assert iv.values[0] == pytest.approx(1.5)    # 1/T
    assert iv.values[1] == pytest.approx(1.0)    # P/T


def test_eos_vdw_pressure():
    spec = get_system("vdw_s")
    iv = equations_of_state(spec, (2.0, 3.0))
    P = iv.values[1] / iv.values[0]       # (P/T) / (1/T)
    assert P == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_eos_constant_field_zero():
    spec = from_definition({
        "id": "const", "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "x", "relation": "3 + 0*x",
        "sample_box": [[0.5, 2.0], [0.5, 2.0]]})
    iv = equations_of_state(spec, (1.0, 1.0))
    assert np.all(iv.values == 0.0)


def test_eos_domain_checked():
    with pytest.raises(DomainViolation):
        equations_of_state(get_system("vdw_s"), (1.0, 0.5))


# ---- partial Legendre ----------------------------------------------------


def test_partial_legendre_ideal_closed_form():
    F = partial_legendre(get_system("ideal_u"), 0)
    assert F.id == "ideal_F"
    assert evaluate(F, (2.0 / 3.0, 1.0)) == pytest.approx(1.0, rel=1e-12)


def test_partial_legendre_numeric_matches_closed(rng=np.random.default_rng(11)):
    vu = get_system("vdw_u")
    closed = partial_legendre(vu, 0, solve="closed")
    numeric = partial_legendre(vu, 0, solve="newton")
    for _ in range(10):
        T = rng.uniform(0.6, 2.5)
        v = rng.uniform(1.8, 5.5)
        assert evaluate(numeric, (T, v)) == pytest.approx(
            evaluate(closed, (T, v)), rel=1e-10, abs=1e-10)


def test_partial_legendre_slot_out_of_range():
    with pytest.raises(PreconditionFailure):
        partial_legendre(get_system("ideal_u"), 5)
    with pytest.raises(PreconditionFailure):
        partial_legendre(get_system("ideal_u"), 0, solve="sorcery")


def test_partial_legendre_closed_unavailable():
    with pytest.raises(PreconditionFailure):
        partial_legendre(get_system("chap_s"), 0, solve="closed")


def test_involution_returns_original_values():
    vu = get_system("vdw_u")
    once = partial_legendre(vu, 0, solve="newton")
    twice = partial_legendre(once, 0, solve="newton")
    for pt in [(0.5, 3.0), (1.0, 2.5), (1.5, 4.0)]:
        mid = legendre_point(once, pt)
        back = legendre_point(twice, mid)
        # the doubled transform evaluates to the original potential (the
        # slot coordinate comes back negated: dF/dT = -s)
        assert back[0] == pytest.approx(-pt[0], rel=1e-8, abs=1e-8)
        assert evaluate(twice, back) == pytest.approx(
            evaluate(vu, pt), rel=1e-8)


def test_total_legendre_invariance_ideal():
    iu = get_system("ideal_u")
    gibbs = total_legendre(iu)
    assert gibbs.id == "ideal_g"
    numeric = total_legendre(iu, solve="newton")
    for pt in [(0.5, 1.0), (1.0, 2.0), (0.0, 3.0)]:
        r_u = curvature_at(iu, pt).ricci_scalar
        r_g = curvature_at(gibbs, legendre_point(gibbs, pt)).ricci_scalar
        r_n = curvature_at(numeric, legendre_point(numeric, pt)).ricci_scalar
        assert abs(r_u - r_g) < 1e-6
        assert abs(r_u - r_n) < 1e-6


def test_total_legendre_invariance_vdw():
    vu = get_system("vdw_u")
    tot = total_legendre(vu, solve="newton")
    for pt in [(0.5, 3.0), (1.0, 2.5)]:
        r_u = curvature_at(vu, pt).ricci_scalar
        r_t = curvature_at(tot, legendre_point(tot, pt)).ricci_scalar
        assert abs(r_u - r_t) <= 1e-6 * (1.0 + abs(r_u))


def test_total_legendre_ising_passthrough():
    isg = get_system("ising_f")
    out = total_legendre(isg)
    assert out.id == isg.id
    assert legendre_point(out, [1.0, 2.0]) == [1.0, 2.0]


QUADRATIC = {
    "id": "q", "coords": [{"name": "x"}, {"name": "y"}],
    "excluded_index": "x", "relation": "x^2 + 3*y^2 + x*y",
    "domain": ["x > 0", "y > 0"],
    "sample_box": [[0.5, 2.0], [0.5, 2.0]]}


def test_legendre_point_checks_the_base_domain():
    # the conjugate 2x + y exists at (-1, 1), but the base point does not
    q = from_definition(QUADRATIC)
    with pytest.raises(DomainViolation) as err:
        evaluate(q, (-1.0, 1.0))
    assert err.value.violations == ["x > 0"]
    out = partial_legendre(q, 0)
    with pytest.raises(DomainViolation) as err:
        legendre_point(out, (-1.0, 1.0))
    assert err.value.violations == ["x > 0"]
    assert legendre_point(out, (1.0, 1.0)) == [3.0, 1.0]
    # a closed-form partner names the base predicate too, not the field's
    # failure at v < b
    with pytest.raises(DomainViolation) as err:
        legendre_point(partial_legendre(get_system("vdw_u"), 0), (1.0, 0.5))
    assert err.value.violations == ["v > b"]


def test_legendre_point_needs_a_point_map():
    with pytest.raises(PreconditionFailure, match="records no point map"):
        legendre_point(get_system("vdw_u"), (1.0, 2.0))


def test_ising_passthrough_checks_the_domain():
    out = total_legendre(get_system("ising_f"))
    with pytest.raises(DomainViolation) as err:
        legendre_point(out, [1.0, -2.0])
    assert err.value.violations == ["H > 0"]


def test_total_legendre_constant_field_fails():
    spec = from_definition({
        "id": "const", "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "x", "relation": "1 + 0*x",
        "sample_box": [[0.5, 2.0], [0.5, 2.0]]})
    with pytest.raises(InversionFailure):
        total_legendre(spec, solve="newton")


def test_legendre_partner_record():
    # the transformed spec is the record: its meta names the base and slots
    vu = get_system("vdw_u")
    p = legendre_partner(vu, (0,))
    assert p.id == "vdw_F"
    assert p.meta["legendre_of"] == "vdw_u"
    assert p.meta["legendre_slots"] == (0,)
    with pytest.raises(PreconditionFailure):
        legendre_partner(vu, ())
    # a slot transformed twice is not one forward map of the base
    with pytest.raises(PreconditionFailure, match="distinct"):
        legendre_partner(vu, (0, 0))


def test_legendre_partner_on_some_slots_records_the_composed_transform():
    spec = from_definition({
        "id": "q3", "coords": [{"name": "x"}, {"name": "y"}, {"name": "z"}],
        "excluded_index": "x", "relation": "x^2 + y^2 + z^2",
        "domain": ["x > 0", "y > 0", "z > 0"],
        "sample_box": [[0.5, 2.0], [0.5, 2.0], [0.5, 2.0]]})
    p = legendre_partner(spec, (0, 1))
    assert p.meta["legendre_of"] == "q3"
    assert p.meta["legendre_slots"] == (0, 1)
    # (x, y, z) -> (2x, 2y, z)
    assert legendre_point(p, [1.0, 1.0, 1.0]) == pytest.approx(
        [2.0, 2.0, 1.0], rel=1e-12)


@pytest.mark.parametrize("sid, slots, id", [
    ("ideal_u", None, "ideal_g"),           # closed form
    ("ideal_u", (0, 1), "ideal_g"),
    ("vdw_u", None, "vdw_u~L0~L1"),         # a Newton chain
    ("ising_f", (0, 1), "ising_f"),         # the passthrough
])
def test_legendre_partner_over_every_slot_is_total_legendre(sid, slots, id):
    out = legendre_partner(get_system(sid), slots)
    assert out.id == id
    assert out.meta["legendre_of"] == sid
    assert out.meta["legendre_slots"] == (0, 1)


@pytest.mark.parametrize("build, base, slots", [
    (lambda: partial_legendre(get_system("vdw_u"), 0), "vdw_u", (0,)),
    (lambda: partial_legendre(get_system("vdw_u"), 0, solve="newton"),
     "vdw_u", (0,)),
    (lambda: total_legendre(get_system("ideal_u")), "ideal_u", (0, 1)),
    (lambda: total_legendre(get_system("vdw_s"), solve="newton"),
     "vdw_s", (0, 1)),
    (lambda: total_legendre(get_system("ising_f")), "ising_f", (0, 1)),
], ids=["closed", "newton", "total_closed", "chain", "passthrough"])
def test_every_legendre_output_records_its_map_base_and_slots(build, base,
                                                              slots):
    out = build()
    assert callable(out.meta["point_map"])
    assert out.meta["legendre_of"] == base
    assert out.meta["legendre_slots"] == slots


@pytest.mark.parametrize("sid", ["vdw_s", "vdw_u", "ideal_u", "ideal_s",
                                 "chap_u", "ideal_F", "vdw_F"])
def test_a_chain_maps_in_one_evaluation_of_its_base(sid, monkeypatch):
    # one order-1 evaluation of the base gives the chain's point, as its
    # steps' maps composed do: at fixed I_0, d(Phi - I_0 E^0)/dE^1 is
    # dPhi/dE^1
    spec = get_system(sid)
    chain = total_legendre(spec, solve="newton")
    first = partial_legendre(spec, 0, solve="newton")
    second = partial_legendre(first, 1, solve="newton")
    points = grid_for(spec, 8).points()
    calls = []

    def counted(*args):
        calls.append(args)
        return jet_eval(*args)

    monkeypatch.setattr(transforms, "jet_eval", counted)
    faults = Faults(len(points))
    one = chain.meta["point_map"](points, faults)
    assert len(calls) == 1 and faults.ok.all()
    monkeypatch.undo()
    faults = Faults(len(points))
    composed = second.meta["point_map"](
        first.meta["point_map"](points, faults), faults)
    assert faults.ok.all()
    np.testing.assert_allclose(one, composed, rtol=1e-15, atol=0.0)


# ---- representation inversion --------------------------------------------


def test_invert_representation_ideal_round_trip(rng=np.random.default_rng(5)):
    is_ = get_system("ideal_s")
    inv = invert_representation(is_, 0)
    assert inv.id == "ideal_u"
    for _ in range(50):
        u = rng.uniform(0.5, 5.0)
        v = rng.uniform(0.5, 5.0)
        s = evaluate(is_, (u, v))
        assert evaluate(inv, (s, v)) == pytest.approx(u, rel=1e-10)


def test_invert_representation_slot_out_of_range():
    for slot in (-1, 2):
        with pytest.raises(PreconditionFailure, match="out of range"):
            invert_representation(get_system("vdw_s"), slot)


def test_invert_representation_numeric(rng=np.random.default_rng(6)):
    cs = get_system("chap_s", alpha=2.0, beta=1.0)
    inv = invert_representation(cs, 0, solve="newton")
    closed = get_system("chap_u", alpha=2.0, beta=1.0)
    for _ in range(10):
        u = rng.uniform(0.8, 3.0)
        v = rng.uniform(0.6, 1.4)
        s = evaluate(cs, (u, v))
        assert evaluate(inv, (s, v)) == pytest.approx(u, rel=1e-9)
        assert evaluate(closed, (s, v)) == pytest.approx(u, rel=1e-10)


def test_invert_representation_curvature_matches():
    cs = get_system("chap_s", alpha=2.0, beta=1.0)
    inv = invert_representation(cs, 0, solve="newton")
    pt = (1.5, 1.0)
    s = evaluate(cs, pt)
    r_s = curvature_at(cs, pt).ricci_scalar
    r_i = curvature_at(inv, (s, pt[1])).ricci_scalar
    assert r_i == pytest.approx(r_s, rel=1e-8)


def test_inverted_taylor_coefficients_are_exact_through_order_4():
    # x = ln(s - y) inverts s = exp(x) + y; the jet Newton must reach every
    # coefficient through the truncation order, not only the low ones
    spec = from_definition({
        "id": "exp_shift", "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "x", "relation": "exp(x) + y",
        "sample_box": [[0.0, 2.0], [0.5, 2.0]]})
    inv = invert_representation(spec, 0, solve="newton")
    pt = (math.exp(1.2) + 0.8, 0.8)
    got = np.asarray(jet_poly(inv.field, pt, 4).c, dtype=float)
    want = np.asarray(jet_poly(lambda a: jets.ln(a[0] - a[1]), pt, 4).c,
                      dtype=float)
    assert np.max(np.abs(got - want)) <= 1e-12


def _count_passes(monkeypatch):
    """Record (spec id, predicates, points) of every transforms.domain_check
    call and (field, order, points) of every transforms.jet_partials call,
    the evaluation a Newton trial makes."""
    evals, checks = [], []
    real_eval, real_check = transforms.jet_partials, transforms.domain_check

    def counted_eval(field, x, order=4, *args, **kwargs):
        evals.append((field, order, np.asarray(x).tolist()))
        return real_eval(field, x, order, *args, **kwargs)

    def counted_check(spec, x):
        checks.append((spec.id, [str(p) for p in spec.domain],
                       np.asarray(x).tolist()))
        return real_check(spec, x)

    monkeypatch.setattr(transforms, "jet_partials", counted_eval)
    monkeypatch.setattr(transforms, "domain_check", counted_check)
    return evals, checks


def _solve(spec, points):
    """Base points behind ``points`` (a batch) and the batch's record."""
    points = np.asarray(points, dtype=float)
    faults = Faults(len(points))
    return spec.field.solve_base_point(points, faults), faults


def test_float_newton_evaluates_the_base_field_once_per_trial(monkeypatch):
    inv = invert_representation(get_system("vdw_s"), 0, solve="newton")
    pl = partial_legendre(get_system("vdw_u"), 0, solve="newton")
    s = 1.5 * math.log(2.0 + 1.0 / 3.0) + math.log(2.0)     # u = 2, v = 3
    T = (2.0 / 3.0) * math.exp(2.0 * 1.2 / 3.0) * 2.0 ** (-2.0 / 3.0)
    evals, checks = _count_passes(monkeypatch)
    # vdw_s's "u + a/v > 0" reads the solved slot u; vdw_u has only "v > b"
    for spec, pt, order, per_trial in ((inv, [s, 3.0], 1, ["u + a/v > 0"]),
                                       (pl, [T, 3.0], 2, [])):
        base = spec.field.base
        evals.clear()
        checks.clear()
        _solve(spec, [pt])
        # the predicate that does not read the slot is checked once, at the
        # point itself, before the first trial
        assert checks[0] == (base.id, ["v > b"], [pt]), spec.id
        # one pass per trial: one evaluation of the base field and, where
        # the base has predicates that read the slot, one check of those
        # only, both of that trial
        assert len(evals) >= 2
        assert [(f, o) for f, o, _ in evals] == [(base.field, order)] * len(
            evals)
        trials = [points for _, _, points in evals]
        assert checks[1:] == ([(base.id, per_trial, x) for x in trials]
                              if per_trial else []), spec.id
        assert all(len(x) == 1 and x[0][1] == 3.0 for x in trials), spec.id


def _derived(key):
    if key == "inv_vdw_s":
        return invert_representation(get_system("vdw_s"), 0, solve="newton")
    return partial_legendre(get_system("vdw_u"), 0, solve="newton")


def _widened(spec, count):
    axes = tuple((c.name, lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), count)
                 for c, (lo, hi) in zip(spec.coords, spec.sample_box))
    return GridSpec(axes).points()


@pytest.mark.parametrize("key", ["inv_vdw_s", "pl_vdw_u"])
def test_a_batch_takes_as_many_passes_as_its_slowest_point(key, monkeypatch):
    spec = _derived(key)
    # in-box points, and points outside the preimage of the base domain
    points = _widened(spec, 4)
    evals, checks = _count_passes(monkeypatch)
    alone, roots = [], []
    for x in points:
        evals.clear()
        root, faults = _solve(spec, [x])
        alone.append(len(evals))
        roots.append(root[0] if faults.ok[0] else None)
    assert None in roots and any(r is not None for r in roots)
    evals.clear()
    checks.clear()
    batch, faults = _solve(spec, points)
    # one check of the predicates that do not read the slot, for the batch
    _, predicates, checked = checks[0]
    assert (predicates, len(checked)) == (["v > b"], len(points))
    sizes = [len(x) for _, _, x in evals]
    assert len(sizes) == max(alone)
    assert sum(sizes) == sum(alone)
    assert sizes == sorted(sizes, reverse=True)
    for i, root in enumerate(roots):
        assert faults.ok[i] == (root is not None)
        if root is not None:
            assert batch[i].tolist() == root.tolist()


@pytest.mark.parametrize("key", ["inv_vdw_s", "pl_vdw_u"])
def test_points_outside_the_fixed_predicates_fail_before_any_trial(
        key, monkeypatch):
    spec = _derived(key)
    points = _widened(spec, 12)
    evals, _ = _count_passes(monkeypatch)
    _, faults = _solve(spec, points)
    # a point with v <= b violates "v > b" at every trial, so it makes none
    # and cannot hold the batch for all its nudged seeds (33 passes)
    assert len(evals) <= 10
    outside = np.flatnonzero(points[:, 1] <= 1.0)
    assert len(outside) == 36
    assert all(row[1] > 1.0 for _, _, x in evals for row in x)
    for i in outside.tolist():
        exc = faults.errors[i]
        assert type(exc) is DomainViolation
        assert exc.violations == ["v > b"]
        assert "violates ['v > b']" in str(exc)


def test_a_fixed_predicate_that_cannot_be_evaluated_fails_its_point():
    # 1/(y - 1) > 0 does not read the solved slot x; at y = 1 it fails on
    # its division, not as a violation, and the point fails before any
    # trial, naming the preimage and the predicate's error
    spec = from_definition({
        "id": "pole", "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "x", "relation": "ln(x) + y",
        "domain": ["x > 0", "1/(y - 1) > 0"],
        "sample_box": [[0.5, 2.0], [1.5, 3.0]]})
    inv = invert_representation(spec, 0, solve="newton")
    assert evaluate(inv, (1.0, 2.0)) == pytest.approx(math.exp(-1.0))
    with pytest.raises(DomainViolation, match="division by zero") as err:
        evaluate(inv, (1.0, 1.0))
    assert err.value.violations == ["preimage of the pole domain"]


@pytest.mark.parametrize("key", ["inv_vdw_s", "pl_vdw_u"])
def test_seed_lines_leave_few_trials_per_solve(key, monkeypatch):
    spec = _derived(key)
    points = GridSpec(tuple(
        (c.name, lo, hi, 9)
        for c, (lo, hi) in zip(spec.coords, spec.sample_box))).points()
    evals, _ = _count_passes(monkeypatch)
    _, faults = _solve(spec, points)
    assert faults.ok.all()
    # seeds interpolated on the centre line alone take about 5.1
    assert sum(len(x) for _, _, x in evals) / len(points) <= 4.0


def test_newton_accepts_a_residual_relative_to_its_target():
    # s(u, 3) of vdw_s flattens out as u grows: a residual scaled by the
    # trial |u| accepted u = 2.3e14, where s = 50.3, as the preimage of
    # s = 100, and far trials short of an unreachable s as its preimage
    base = get_system("vdw_s")
    spec = _derived("inv_vdw_s")
    root, faults = _solve(spec, [[100.0, 3.0]])
    assert faults.ok.all()
    assert evaluate(base, root[0]) == pytest.approx(100.0, rel=1e-12)
    for s in (1e3, 1e4):
        with pytest.raises(DomainViolation, match="out of reach"):
            curvature_at(spec, (s, 3.0))


def test_failed_solves_fail_their_rows_of_a_batch():
    # rows whose solve fails (no preimage below or above) fail with the
    # derived domain's violation; the others keep their bits alone
    spec = _derived("inv_vdw_s")
    where = "preimage of the vdw_s domain"
    inside = [[0.5 * (lo + hi) for lo, hi in spec.sample_box],
              [spec.sample_box[0][0], spec.sample_box[1][1]],
              [spec.sample_box[0][1], spec.sample_box[1][0]]]
    points = np.array([inside[0], [-50.0, 3.0], inside[1], [1e4, 3.0],
                       inside[2]])
    res = curvature_at(spec, points)
    assert sorted(res.faults.errors) == [1, 3]
    for i in (1, 3):
        exc = res.faults.errors[i]
        assert type(exc) is DomainViolation
        assert exc.violations == [where]
        assert f"outside the {where}" in str(exc)
    for i in (0, 2, 4):
        single = curvature_at(spec, points[i]).ricci_scalar
        assert res.ricci_scalar[i].tobytes() == np.float64(single).tobytes()


def test_nested_solve_runs_its_inner_solve_once_per_outer_pass(monkeypatch):
    spec = total_legendre(get_system("vdw_s"), solve="newton")
    outer, inner = spec.field, spec.field.base.field
    calls = []
    solve = transforms._ImplicitField.solve_base_point

    def counted(self, points, faults):
        calls.append((self, len(points)))
        return solve(self, points, faults)

    monkeypatch.setattr(transforms._ImplicitField, "solve_base_point",
                        counted)
    evals, _ = _count_passes(monkeypatch)
    points = GridSpec(tuple(
        (c.name, lo, hi, 3)
        for c, (lo, hi) in zip(spec.coords, spec.sample_box))).points()
    values = evaluate(spec, points)
    assert np.isfinite(values).all()
    assert [n for field, n in calls if field is outer] == [len(points)]
    outer_passes = [len(x) for f, _, x in evals if f is outer.base.field]
    assert len(outer_passes) >= 2
    # one inner solve over the trials of each outer pass, and one at the
    # roots, for the polynomial of the base field
    assert [n for field, n in calls if field is inner] == \
        outer_passes + [len(points)]


@pytest.mark.parametrize("key", ["inv_vdw_s", "pl_vdw_u"])
def test_derived_point_is_a_batch_of_one(key, rng=np.random.default_rng(21)):
    spec = _derived(key)
    points = np.array([[rng.uniform(lo, hi) for lo, hi in spec.sample_box]
                       for _ in range(12)])
    batch = evaluate(spec, points)
    for i, x in enumerate(points):
        assert evaluate(spec, x) == batch[i], x


# R at single points of the derived specs, to its last bit, or the point's
# failure: eight points inside the sample box, two below v = b and two
# targets out of reach (the Legendre transform reaches T = 1e4).  Each R is
# within 1.1e-14 of the closed-form partner's (vdw_u, vdw_F)
DERIVED_BITS = {
    "inv_vdw_s": [
        ((1.9280432664634752, 4.058210363660503), -0.4314921094526038),
        ((3.0021203177275733, 2.644122990744609), -0.4497418492759143),
        ((2.2636803267374113, 3.11605494274641), -0.46106909816531816),
        ((2.6512411442571073, 3.943764878749948), -0.35279422722087467),
        ((1.369435834194837, 3.822473783867492), -0.5972645292495381),
        ((1.4618706135284492, 1.7230720875743015), -0.6124020441521827),
        ((1.1632375031561444, 3.04254651380829), -0.7223858752940723),
        ((0.9378081342611873, 4.976800434116925), -0.7485938260528626),
        ((-0.2541492046150464, -0.75),
         "point (-0.2541492046150464, -0.75) is outside the preimage of the "
         "vdw_s domain: it violates ['v > b']"),
        ((3.2146322661610247, 0.999),
         "point (3.2146322661610247, 0.999) is outside the preimage of the "
         "vdw_s domain: it violates ['v > b']"),
        ((-50.0, 3.0),
         "point (-50.0, 3.0) is outside the preimage of the vdw_s domain: "
         "inversion target is out of reach on the domain"),
        ((10000.0, 3.0),
         "point (10000.0, 3.0) is outside the preimage of the vdw_s domain: "
         "inversion target is out of reach on the domain"),
    ],
    "pl_vdw_u": [
        ((1.0445505985309815, 1.592691415126731), -0.2971714478977156),
        ((0.8339320727673575, 3.4438916867743243), -0.2959692158916983),
        ((0.739020727746166, 1.823655215174114), -0.3604892539001287),
        ((1.148141655918855, 2.8354990841595202), -0.30890920407659395),
        ((1.1421589205443592, 3.3158937472570003), -0.26548352058783403),
        ((0.593598884669533, 2.630025884961895), -0.4846257743390423),
        ((0.6224293228907961, 5.121761919898519), -0.20071099924341762),
        ((1.0639949968803983, 5.137700598568633), -0.1586106770556116),
        ((0.054987773981568344, -0.75),
         "point (0.054987773981568344, -0.75) is outside the preimage of "
         "the vdw_u domain: it violates ['v > b']"),
        ((1.1936012020094222, 0.999),
         "point (1.1936012020094222, 0.999) is outside the preimage of the "
         "vdw_u domain: it violates ['v > b']"),
        ((-50.0, 3.0),
         "point (-50.0, 3.0) is outside the preimage of the vdw_u domain: "
         "inversion target is out of reach on the domain"),
        ((10000.0, 3.0), -0.2000084446518558),
    ],
}


@pytest.mark.parametrize("key", sorted(DERIVED_BITS))
def test_derived_queries_keep_their_bits(key):
    # every R to its last bit (repr), and every failure's class and message
    spec = _derived(key)
    for point, want in DERIVED_BITS[key]:
        if isinstance(want, str):
            with pytest.raises(DomainViolation) as err:
                curvature_at(spec, point)
            assert type(err.value) is DomainViolation
            assert str(err.value) == want
        else:
            assert repr(curvature_at(spec, point).ricci_scalar) == repr(want)


@pytest.mark.parametrize("key", ["inv_vdw_s", "pl_vdw_u"])
def test_derived_field_runs_on_floats(key):
    # the field called on floats takes the jet path at order 0, with the
    # bits of evaluate; finite differences of those floats give the
    # curvature of the jets
    spec = _derived(key)
    x = [0.5 * (lo + hi) for lo, hi in spec.sample_box]
    value = spec.field(x)
    assert type(value) is float and value == evaluate(spec, x)
    R = curvature_at(spec, x).ricci_scalar
    assert abs(fd_ricci_scalar(spec, x) - R) <= 1e-3 * (1.0 + abs(R))


def _drive(equation, seed=2.0, lo=0.0, hi=3.0, passes=None):
    """Root of one equation by the Newton coroutine, run by
    ``transforms.lockstep``; ``equation(z)`` is (f, f') at z, or None where
    z is invalid.  ``passes``, a list, gets one entry per pass."""
    def evaluate(live, trials):
        if passes is not None:
            passes.append(trials)
        return list(map(equation, trials))

    (root,) = transforms.lockstep([_newton_solve(seed, lo, hi, 0.0)], evaluate)
    if isinstance(root, Exception):
        raise root
    return root


def test_bisection_fallback():
    # Newton cannot move on a zero slope; bisection finds the root
    assert _drive(lambda z: (z - 0.5, 0.0)) == pytest.approx(0.5, abs=1e-12)

    # undefined on a hole around the root: no midpoint inside it passes
    # for a root
    def holed(z):
        return None if 0.499 < z < 0.501 else (z - 0.5, 1.0)

    with pytest.raises(DomainViolation):
        _drive(holed)


def test_bisection_returns_only_a_root_it_has_checked():
    # on a zero slope every solve bisects: a steep root is found, while a
    # sign change at a pole (f = -4.5e15 where its bracket closes) and a
    # bracket that 200 halvings cannot close (about 1e298 wide around
    # 2.1) are not roots
    assert _drive(lambda z: (1e12 * (z - 0.5), 0.0)) == pytest.approx(
        0.5, abs=1e-12)
    with pytest.raises(DomainViolation, match="pole near 0.4999"):
        _drive(lambda z: (1.0 / (z - 0.5), 0.0))
    with pytest.raises(DomainViolation, match="did not converge"):
        _drive(lambda z: (z - 2.1, 0.0), lo=-1e300, hi=1e300)


def test_bisection_returns_an_exact_zero_it_samples():
    # a zero slope stops Newton at once; the bisection window is 257
    # samples of [-6, 9]
    window = np.linspace(-6.0, 9.0, 257).tolist()
    # a window sample that is a root returns before any sign change
    root = window[120]
    assert _drive(lambda z: (z - root, 0.0)) == root
    # a root halfway between two samples is the bracket's first midpoint
    root = 0.5 * (window[120] + window[121])
    passes = []
    assert _drive(lambda z: (z - root, 0.0), passes=passes) == root
    assert passes[-1] == [root]


@pytest.mark.parametrize("equation", [
    lambda z: (z - 0.5) + 0.1 * math.copysign(1.0, z - 0.5),
    lambda z: math.copysign(1.0, z - 0.5),
], ids=["step_on_a_slope", "sign"])
def test_bisection_fails_a_jump_across_zero(equation):
    # f jumps across zero at 0.5, by 0.2 on a slope and by 2 alone: where
    # the bracket closes |f| is still about 0.1 or 1, not a root's value,
    # which falls with the bracket, nor a pole's, which grows
    with pytest.raises(DomainViolation, match="jumps across zero near 0.4999"):
        _drive(lambda z: (equation(z), 0.0))


def test_bisection_accepts_a_steep_smooth_root():
    # slope 1e6 at the root, about 3e4 times the bracket's mean slope
    assert _drive(lambda z: (math.tanh(1e6 * (z - 0.5)), 0.0)) == \
        pytest.approx(0.5, abs=1e-12)


def test_newton_nudges_an_invalid_seed_into_the_valid_region():
    # z^2 - 4 is undefined at z <= 1.5: the seed 1.0 moves along the
    # sample interval (0.5, 3) until a trial is valid, then Newton runs
    passes = []
    root = _drive(lambda z: None if z <= 1.5 else (z * z - 4.0, 2.0 * z),
                  seed=1.0, lo=0.5, hi=3.0, passes=passes)
    assert root == pytest.approx(2.0, rel=1e-14)
    assert len(passes) == 14
    # nowhere valid: the seed and its 32 nudges, then the failure
    passes.clear()
    with pytest.raises(DomainViolation, match="no valid seed"):
        _drive(lambda z: None, passes=passes)
    assert len(passes) == 33


def test_stalled_newton_accepts_a_residual_within_1e_9():
    # f has a floor of 5e-10 at z <= 0.5, where no damped step decreases
    # |f|: Newton stops there and accepts it, while bisection, which finds
    # no sign change, would fail
    passes = []
    root = _drive(lambda z: (max(z - 0.5, 5e-10), 1.0), passes=passes)
    assert root == 0.5
    # the seed, the Newton step to 0.5, and 60 halvings that do not help
    assert len(passes) == 62


def test_invert_non_monotone_rejected():
    spec = from_definition({
        "id": "bump", "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "x", "relation": "(x - 1)^2 + y",
        "sample_box": [[0.0, 2.0], [0.5, 2.0]]})
    with pytest.raises(InversionFailure) as err:
        invert_representation(spec, 0, solve="newton")
    assert err.value.witness is not None


# ---- monotonicity samples ------------------------------------------------


@pytest.mark.parametrize("build,box", [
    (lambda: invert_representation(get_system("vdw_s"), 0, solve="newton"),
     ((0.9021112856436437, 3.2146322661610243), (1.5, 6.0))),
    (lambda: partial_legendre(get_system("vdw_u"), 0, solve="newton"),
     ((0.4345255833241862, 1.193601202009422), (1.5, 6.0))),
], ids=["inv_vdw_s", "pl_vdw_u"])
def test_derived_sample_box_is_pinned(build, box):
    # the floats the point-by-point sampling gave
    assert build().sample_box == box


def test_spec_without_a_box_derives_from_the_default_box():
    # sampled on (0.5, 2.0) per coordinate with the centre line at 1.0
    spec = from_definition({
        "id": "no_box", "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "x", "params": {"k": 1.5},
        "relation": "k*ln(x) + ln(y) + ln(x + 2*y)"})
    assert not spec.sample_box
    inv = invert_representation(spec, 0, solve="newton")
    assert inv.sample_box == ((0.13151447812679434, 2.171070614867251),
                              (0.5, 2.0))
    assert curvature_at(inv, (1.0, 1.0)).ricci_scalar == pytest.approx(
        0.18412083297013787, rel=1e-12)
    assert partial_legendre(spec, 1, solve="newton").sample_box == (
        (0.5, 2.0), (1.11, 2.79))


@pytest.mark.parametrize("build", [
    lambda: invert_representation(get_system("vdw_s"), 0, solve="newton"),
    lambda: partial_legendre(get_system("vdw_u"), 0, solve="newton"),
], ids=["inv_vdw_s", "pl_vdw_u"])
def test_monotonicity_samples_are_one_batch(build, monkeypatch):
    checks, evals = [], []
    real_check, real_eval = transforms.domain_check, transforms.jet_eval

    def counted_check(spec, x):
        checks.append(np.shape(x))
        return real_check(spec, x)

    def counted_eval(field, x, *args, **kw):
        evals.append(np.shape(x))
        return real_eval(field, x, *args, **kw)

    monkeypatch.setattr(transforms, "domain_check", counted_check)
    monkeypatch.setattr(transforms, "jet_eval", counted_eval)
    build()
    # the centre line and 8 seed lines over the other coordinate, sampled
    # in one batch
    assert checks == [(9 * transforms.MONOTONE_SAMPLES, 2)]
    assert evals == [(9 * transforms.MONOTONE_SAMPLES, 2)]


def _holed(extra):
    return from_definition({
        "id": "holed", "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "x", "relation": "ln(x) + y",
        "domain": ["x > 0", "y > 0", extra],
        "sample_box": [[0.0, 31.0], [0.5, 2.0]]})


def test_too_few_valid_samples_on_the_centre_line_fail_the_build():
    # of the samples on the integers 0..31 only 30 and 31 are inside
    with pytest.raises(InversionFailure, match="too few valid samples"):
        invert_representation(_holed("x > 29.5"), 0, solve="newton")


def test_seed_line_without_valid_samples_takes_the_centre_line():
    # the seed lines sit at y = 0.5, 0.6875, ..., 2; the first is outside
    # y > 0.6 and takes the samples of the centre line (y = 1.25), while
    # the others keep their own
    nodes, lines = transforms._sample_lines(_holed("y > 0.6"), 0, 0)
    assert nodes[0][0] == 0.5 and len(lines) == 9
    centre = lines[4]
    for k, (coords, values) in enumerate(lines):
        own = k != 0 and k != 4
        assert np.array_equal(coords, centre[0])
        assert np.array_equal(values, centre[1]) is not own, k


def test_slot_range_with_a_hole_certifies_from_the_valid_samples():
    # the samples sit on the integers 0..31; x = 0 and 9..12 are outside
    # the domain
    spec = invert_representation(_holed("(x - 10.5)^2 > 4"), 0,
                                 solve="newton")
    lo, hi = spec.sample_box[0]
    pad = 0.1 * (math.log(31.0) - math.log(1.0))
    assert (lo, hi) == pytest.approx((1.25 + pad, 1.25 + math.log(31.0)
                                      - pad), abs=1e-12)
    z = evaluate(spec, [1.25 + math.log(20.0), 1.25])
    assert z == pytest.approx(20.0, rel=1e-10)


def test_sample_whose_predicate_fails_is_skipped():
    # 1/(x - 5) has no value at the sample x = 5: that sample is skipped,
    # as a sample outside the domain is
    spec = invert_representation(_holed("1/(x - 5) > -1e300"), 0,
                                 solve="newton")
    pad = 0.1 * math.log(31.0)
    assert spec.sample_box[0] == pytest.approx(
        (1.25 + pad, 1.25 + math.log(31.0) - pad), abs=1e-12)


# ---- closed-form partners and the solve strategy -------------------------


def _custom(id, relation):
    return from_definition({
        "id": id, "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "x", "relation": relation})


def test_custom_relation_with_a_catalog_id_is_solved_by_newton():
    # each id has a closed-form partner in the catalog, which belongs to the
    # catalog relation and not to these
    inv = invert_representation(_custom("vdw_s", "x + 2*y"), 0)
    assert inv.id == "vdw_s~inv0"
    assert evaluate(inv, (3.0, 1.0)) == pytest.approx(1.0, rel=1e-12)
    pl = partial_legendre(_custom("vdw_u", "x^2 + y"), 0)
    assert pl.id == "vdw_u~L0"
    # x = T/2 at T = 3: x^2 + y - T x = 1 - 9/4
    assert evaluate(pl, (3.0, 1.0)) == pytest.approx(-1.25, rel=1e-12)
    tot = total_legendre(_custom("ideal_u", "x^2 + y^2"))
    assert tot.id == "ideal_u~L0~L1"
    # -(p^2 + q^2)/4 at the conjugates p = 2x, q = 2y
    assert evaluate(tot, (2.0, 3.0)) == pytest.approx(-3.25, rel=1e-12)


def test_unknown_solve_strategy_rejected():
    for call in (lambda solve: invert_representation(get_system("vdw_s"), 0,
                                                     solve=solve),
                 lambda solve: partial_legendre(get_system("vdw_u"), 0,
                                                solve=solve),
                 lambda solve: total_legendre(get_system("ideal_u"),
                                              solve=solve),
                 lambda solve: total_legendre(get_system("ising_f"),
                                              solve=solve)):
        with pytest.raises(PreconditionFailure):
            call("closd")


def test_closed_without_a_partner_rejected():
    with pytest.raises(PreconditionFailure):
        invert_representation(get_system("vdw_s", a=1.1), 1, solve="closed")
    with pytest.raises(PreconditionFailure):
        total_legendre(get_system("vdw_u"), solve="closed")


def test_closed_inverse_builds_its_partner_once(monkeypatch):
    spec = get_system("vdw_s", a=1.1)
    calls = []
    parse = dsl.parse_relation
    monkeypatch.setattr(dsl, "parse_relation",
                        lambda *a, **k: calls.append(a) or parse(*a, **k))
    inv = invert_representation(spec, 0)
    assert inv.id == "vdw_u"
    assert inv.params == {"a": 1.1, "b": 1.0}
    assert len(calls) == 1


# ---- (v, P), reduced variables, first law --------------------------------


def test_to_vP():
    spec = get_system("vdw_s")
    v, P = to_vP(spec, 2.0, 3.0)
    assert (v, P) == (3.0, pytest.approx(2.0 / 3.0))
    # u chosen so the numerator vanishes -> P = 0
    v0 = 4.0
    u0 = (1.0 * v0 - 3.0) / (2.0 * v0 ** 2)
    assert to_vP(spec, u0, v0)[1] == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(DomainViolation):
        to_vP(spec, 2.0, 1.0)


def test_u_from_vP_round_trip(rng=np.random.default_rng(8)):
    spec = get_system("vdw_s")
    for _ in range(20):
        u = rng.uniform(0.5, 5.0)
        v = rng.uniform(1.5, 6.0)
        _, P = to_vP(spec, u, v)
        assert u_from_vP(v, P) == pytest.approx(u, rel=1e-12)
    # v <= b is outside the surface, for a point or any row of an array
    for v in (1.0, np.array([2.0, 0.5])):
        with pytest.raises(DomainViolation) as err:
            u_from_vP(v, 0.1)
        assert err.value.violations == ["v > 1.0"]


def test_reduced_variables():
    assert reduced_variables(3.0, 1.0 / 27.0) == (pytest.approx(1.0),
                                                  pytest.approx(1.0))
    assert reduced_variables(6.0, 2.0 / 27.0) == (pytest.approx(2.0),
                                                  pytest.approx(2.0))
    # the critical point sits on the transition locus: 2ab - av + Pv^3 = 0
    assert 2.0 - 3.0 + (1.0 / 27.0) * 27.0 == pytest.approx(0.0)
    with pytest.raises(PreconditionFailure):
        reduced_variables(1.0, 1.0, a=-1.0)


def test_first_law_residual():
    spec = get_system("ideal_s")
    path = [(1.0 + t, 1.0 + t) for t in np.linspace(0.0, 1.0, 1001)]
    assert first_law_residual(spec, path) < 1e-5
    assert first_law_residual(spec, [(1.0, 1.0)]) == 0.0
    # no path, and a path whose segments all have zero length
    assert first_law_residual(spec, []) == 0.0
    assert first_law_residual(spec, [(1.0, 2.0)] * 3) == 0.0
    bad = [(2.0, 2.0), (2.0, 0.5)]       # crosses v = b of the vdW domain
    with pytest.raises(DomainViolation):
        first_law_residual(get_system("vdw_s"), bad)


def test_first_law_residual_is_the_point_by_point_residual():
    spec = get_system("vdw_s")
    path = [np.array([1.0 + t, 2.0 + t * t]) for t in np.linspace(0, 1, 9)]
    path.insert(3, path[3])             # a segment of zero length
    want = 0.0
    for x0, x1 in zip(path, path[1:]):
        dx = x1 - x0
        if np.linalg.norm(dx) == 0.0:
            continue
        inten = equations_of_state(spec, 0.5 * (x0 + x1)).values
        want = max(want, abs((evaluate(spec, x1) - evaluate(spec, x0))
                             - float(inten @ dx)) / np.linalg.norm(dx))
    assert first_law_residual(spec, path) == want
    # both ends of a segment inside the domain, its midpoint outside: the
    # first such midpoint raises
    path = [(2.0, 3.0), (-0.6, 1.6), (-0.09, 10.0), (-0.6, 1.6)]
    with pytest.raises(DomainViolation, match=r"-0\.345.*5\.8\b"):
        first_law_residual(spec, path)
