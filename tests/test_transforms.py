"""Equations of state, Legendre transforms, inversions, coordinate maps."""

import math

import numpy as np
import pytest

from geothermo import dsl, jets, transforms
from geothermo.errors import (DomainViolation, InversionFailure,
                              PreconditionFailure)
from geothermo.geometry import curvature_at
from geothermo.jets import jet_poly
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
        r_n = curvature_at(numeric, legendre_point(numeric, pt),
                           check_domain=False).ricci_scalar
        assert abs(r_u - r_g) < 1e-6
        assert abs(r_u - r_n) < 1e-6


def test_total_legendre_invariance_vdw():
    vu = get_system("vdw_u")
    tot = total_legendre(vu, solve="newton")
    for pt in [(0.5, 3.0), (1.0, 2.5)]:
        r_u = curvature_at(vu, pt).ricci_scalar
        r_t = curvature_at(tot, legendre_point(tot, pt),
                           check_domain=False).ricci_scalar
        assert abs(r_u - r_t) <= 1e-6 * (1.0 + abs(r_u))


def test_total_legendre_ising_passthrough():
    isg = get_system("ising_f")
    out = total_legendre(isg)
    assert out.id == isg.id
    assert legendre_point(out, [1.0, 2.0]) == [1.0, 2.0]


def test_total_legendre_constant_field_fails():
    spec = from_definition({
        "id": "const", "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "x", "relation": "1 + 0*x",
        "sample_box": [[0.5, 2.0], [0.5, 2.0]]})
    with pytest.raises(InversionFailure):
        total_legendre(spec, solve="newton")


def test_legendre_partner_record():
    vu = get_system("vdw_u")
    p = legendre_partner(vu, (0,))
    assert p.source_id == "vdw_u"
    assert p.transformed_slots == (0,)
    assert p.spec.id == "vdw_F"
    with pytest.raises(PreconditionFailure):
        legendre_partner(vu, ())


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
    r_i = curvature_at(inv, (s, pt[1]), check_domain=False).ricci_scalar
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


def _count_float_newton(monkeypatch):
    """Record the orders of transforms.jet_eval calls and the trial points
    of every float Newton solve."""
    evals, trials = [], []
    real_eval, real_solve = transforms.jet_eval, transforms._newton_solve

    def counted_eval(field, x, order=4, *args, **kwargs):
        evals.append(order)
        return real_eval(field, x, order, *args, **kwargs)

    def counted_solve(fdf, seed, lo, hi):
        def trial(z):
            trials.append(z)
            return fdf(z)
        return real_solve(trial, seed, lo, hi)

    monkeypatch.setattr(transforms, "jet_eval", counted_eval)
    monkeypatch.setattr(transforms, "_newton_solve", counted_solve)
    return evals, trials


def test_float_newton_evaluates_the_base_field_once_per_trial(monkeypatch):
    inv = invert_representation(get_system("vdw_s"), 0, solve="newton")
    pl = partial_legendre(get_system("vdw_u"), 0, solve="newton")
    s = 1.5 * math.log(2.0 + 1.0 / 3.0) + math.log(2.0)     # u = 2, v = 3
    T = (2.0 / 3.0) * math.exp(2.0 * 1.2 / 3.0) * 2.0 ** (-2.0 / 3.0)
    evals, trials = _count_float_newton(monkeypatch)
    for spec, pt, order in ((inv, [s, 3.0], 1), (pl, [T, 3.0], 2)):
        evals.clear()
        trials.clear()
        spec.field.solve_base_point(pt)
        assert len(trials) >= 2
        assert evals == [order] * len(trials), spec.id


def test_bisection_fallback():
    # Newton cannot move on a zero slope; bisection finds the root
    assert _newton_solve(lambda z: (z - 0.5, 0.0), 2.0, 0.0, 3.0) == \
        pytest.approx(0.5, abs=1e-12)

    # undefined on a hole around the root: no midpoint inside it passes
    # for a root
    def holed(z):
        if 0.499 < z < 0.501:
            raise DomainViolation("hole")
        return z - 0.5, 1.0

    with pytest.raises(DomainViolation):
        _newton_solve(holed, 2.0, 0.0, 3.0)


def test_invert_non_monotone_rejected():
    spec = from_definition({
        "id": "bump", "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "x", "relation": "(x - 1)^2 + y",
        "sample_box": [[0.0, 2.0], [0.5, 2.0]]})
    with pytest.raises(InversionFailure) as err:
        invert_representation(spec, 0, solve="newton")
    assert err.value.witness is not None


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
    bad = [(2.0, 2.0), (2.0, 0.5)]       # crosses v = b of the vdW domain
    with pytest.raises(DomainViolation):
        first_law_residual(get_system("vdw_s"), bad)
