"""Closed-form reference expressions vs the generic pipeline."""

import numpy as np
import pytest

from geothermo import oracle
from geothermo.analysis import grid_for
from geothermo.errors import DomainViolation, SingularDenominator
from geothermo.oracle import ORACLE_IDS, oracle_eval, oracle_vs_pipeline
from geothermo.systems import evaluate, get_system
from geothermo.transforms import to_vP

AB = {"a": 1.0, "b": 1.0}


def test_known_ids():
    assert set(ORACLE_IDS) == {
        "vdw_R_s", "vdw_R_u", "vdw_R_vP", "vdw_R_F_Tv", "vdw_R_F_vP",
        "chap_R_s", "chap_R_u", "chap_R_const", "chap_det",
        "numR_at_critical", "ideal_zero"}
    with pytest.raises(KeyError):
        oracle_eval("vdw_R_t", {}, {})


def test_chap_const_examples():
    assert oracle_eval("chap_R_const", {}, {"alpha": 1.0}) == pytest.approx(-2.0)
    assert oracle_eval("chap_R_const", {}, {"alpha": 0.5}) == pytest.approx(-2.25)


def test_numR_critical_point():
    assert oracle_eval("numR_at_critical", {"v": 3.0}, AB) == pytest.approx(4.0)
    # (v - 2b)^2 kills the numerator at v = 2
    assert oracle_eval("numR_at_critical", {"v": 2.0}, AB) == 0.0


def test_entropy_energy_forms_agree():
    u, v = 2.0, 3.0
    s = evaluate(get_system("vdw_s"), (u, v))
    r_s = oracle_eval("vdw_R_s", {"u": u, "v": v}, AB)
    r_u = oracle_eval("vdw_R_u", {"s": s, "v": v}, AB)
    assert r_u == pytest.approx(r_s, rel=1e-10)


def test_vP_self_consistency(rng=np.random.default_rng(17)):
    # eliminating u through the equation of state must reproduce the
    # entropy-representation scalar (the (v,P) form carries the opposite
    # global sign)
    spec = get_system("vdw_s")
    for _ in range(50):
        u = rng.uniform(0.5, 5.0)
        v = rng.uniform(1.5, 6.0)
        _, P = to_vP(spec, u, v)
        r_s = oracle_eval("vdw_R_s", {"u": u, "v": v}, AB)
        r_vP = oracle_eval("vdw_R_vP", {"v": v, "P": P}, AB)
        assert r_vP == pytest.approx(-r_s, rel=1e-10)


def test_chap_alpha_equals_beta_is_constant():
    for al in (0.5, 1.0, 2.0):
        pr = {"s0": 1.0, "C": 1.0, "alpha": al, "beta": al}
        want = oracle_eval("chap_R_const", {}, pr)
        for u, v in [(0.7, 1.3), (2.0, 0.9), (1.1, 2.2)]:
            got = oracle_eval("chap_R_s", {"u": u, "v": v}, pr)
            assert got == pytest.approx(want, abs=1e-12)


def test_singular_denominator_flagged():
    # on the transition locus 2ab - av + Pv^3 = 0
    with pytest.raises(SingularDenominator) as err:
        oracle_eval("vdw_R_vP", {"v": 3.0, "P": 1.0 / 27.0}, AB)
    assert err.value.factor is not None


@pytest.mark.parametrize("oid,sys_id,params,sign,tol", [
    ("vdw_R_s", "vdw_s", {}, 1, 1e-6),
    ("vdw_R_u", "vdw_u", {}, 1, 1e-6),
    ("vdw_R_vP", "vdw_s", {}, -1, 1e-6),
    ("vdw_R_F_Tv", "vdw_F", {}, 1, 1e-6),
    ("chap_R_s", "chap_s", {"alpha": 2.0, "beta": 1.0}, 1, 1e-6),
    ("chap_R_u", "chap_u", {"alpha": 2.0, "beta": 1.0}, 1, 1e-6),
    ("chap_det", "chap_u", {}, 1, 1e-6),
    ("ideal_zero", "ideal_s", {}, 1, 1e-8),
])
def test_oracle_vs_pipeline(oid, sys_id, params, sign, tol):
    spec = get_system(sys_id, **params)
    got_sign, dev = oracle_vs_pipeline(oid, spec, grid_for(spec, 8).points())
    assert got_sign == sign
    assert dev < tol


@pytest.mark.parametrize("oracle_fails_at,error", [
    (1, SingularDenominator), (3, DomainViolation)])
def test_first_failure_in_grid_order_raises(monkeypatch, oracle_fails_at,
                                            error):
    # the pipeline fails at point 2 (v < b) and the oracle at
    # oracle_fails_at: the failure at the earlier point is raised
    points = [(2.0, 3.0), (2.5, 3.0), (1.0, 0.5), (3.0, 3.0)]
    closed_form = oracle._ORACLES["vdw_R_s"]

    def failing(pt, pr):
        if (pt["u"], pt["v"]) == points[oracle_fails_at]:
            raise SingularDenominator("vanishes", factor="test")
        return closed_form(pt, pr)

    monkeypatch.setitem(oracle._ORACLES, "vdw_R_s", failing)
    with pytest.raises(error):
        oracle_vs_pipeline("vdw_R_s", get_system("vdw_s"), points)


def test_helmholtz_vP_transcription_disagrees():
    # the printed (v, P) Helmholtz form does not reduce to the (T, v) form
    # under the equation of state (its P^3 terms carry the opposite sign);
    # it is kept verbatim and reported, not corrected
    spec = get_system("vdw_F")
    _, dev = oracle_vs_pipeline("vdw_R_F_vP", spec, grid_for(spec, 6).points())
    assert dev > 1e-3
