"""Natural metric assembly, connection, curvature."""

import math

import numpy as np
import pytest

from geothermo import cli, geometry
from geothermo.errors import (DegenerateMetric, DomainViolation, NonFinite,
                              SingularPrefactor)
from geothermo.geometry import (CHUNK, MetricTensor, christoffel,
                                curvature_at, metric_at, natural_metric,
                                ricci_scalar, riemann_up)
from geothermo.jets import Faults, jet_eval
from geothermo.systems import domain_check, from_definition, get_system


def test_ideal_entropy_metric_closed_form(rng=np.random.default_rng(3)):
    spec = get_system("ideal_s")
    for _ in range(50):
        u, v = rng.uniform(0.5, 5.0, size=2)
        g = metric_at(spec, (u, v)).g
        assert g[0, 0] == pytest.approx(-1.5 / u ** 2, rel=1e-10)
        assert g[1, 1] == pytest.approx(-1.0 / v ** 2, rel=1e-10)
        assert abs(g[0, 1]) < 1e-10 * max(abs(g[0, 0]), abs(g[1, 1]))


def test_ideal_energy_metric_closed_form(rng=np.random.default_rng(4)):
    spec = get_system("ideal_u")
    for _ in range(50):
        s = rng.uniform(-1.0, 2.0)
        v = rng.uniform(0.5, 5.0)
        g = metric_at(spec, (s, v)).g
        assert g[0, 0] == pytest.approx(-2.0 / 3.0, rel=1e-10)
        assert g[1, 1] == pytest.approx(-5.0 / (3.0 * v ** 2), rel=1e-10)
        assert g[0, 1] == pytest.approx(2.0 / (3.0 * v), rel=1e-10)


def test_ideal_gas_flat_everywhere():
    for sid in ("ideal_s", "ideal_u", "ideal_F", "ideal_g"):
        spec = get_system(sid)
        center = [0.5 * (lo + hi) for lo, hi in spec.sample_box]
        res = curvature_at(spec, center)
        assert abs(res.ricci_scalar) < 1e-10


def test_two_dimensional_cross_check():
    # in two dimensions R = 2 R_0101 / det g
    m = metric_at(get_system("vdw_s"), np.array([(1.0, 3.0)]))
    up = riemann_up(christoffel(m))
    down0101 = np.einsum("ze,ze->z", m.g[:, 0, :], up[:, :, 1, 0, 1])
    R = ricci_scalar(m).ricci_scalar
    cross_check_dev = np.abs(R - 2.0 * down0101 / m.det)[0]
    assert cross_check_dev < 1e-9 * (1.0 + abs(R[0]))


def test_vdw_curvature_reference_value():
    # entropy representation, a = b = 1, evaluated from the closed form
    u, v = 2.0, 3.0
    from geothermo.oracle import oracle_eval
    expect = oracle_eval("vdw_R_s", {"u": u, "v": v}, {"a": 1.0, "b": 1.0})
    res = curvature_at(get_system("vdw_s"), (u, v))
    assert res.ricci_scalar == pytest.approx(expect, rel=1e-10)


def test_conformal_factor_value():
    # the sum skips the excluded slot (index 0 here): c = 1/(v s_v)
    spec = get_system("vdw_s")
    u, v = 2.0, 3.0
    grad = jet_eval(spec.field, (u, v), 1).grad
    expect = 1.0 / (v * grad[1])
    m = metric_at(spec, (u, v))
    assert m.conformal_factor == pytest.approx(expect, rel=1e-13)


def test_degenerate_metric_raises_with_payload():
    spec = get_system("chap_s", alpha=0.0, beta=0.0)
    with pytest.raises(DegenerateMetric) as err:
        metric_at(spec, (2.0, 2.0))
    m = err.value.metric
    assert m is not None
    assert abs(m.det) < 1e-12 * max(1.0, m.scale() ** 2)


DEGENERATE_MESSAGE = "|det g| = 0.000e+00 below degeneracy threshold"


def test_degenerate_point_fails_alike_everywhere(capsys):
    spec = get_system("chap_s", alpha=0.0, beta=0.0)
    for at in (curvature_at, metric_at):
        with pytest.raises(DegenerateMetric) as err:
            at(spec, (2.0, 2.0))
        assert str(err.value) == DEGENERATE_MESSAGE
    batch = curvature_at(spec, np.array([[1.0, 3.0], [2.0, 2.0]]))
    error = batch.faults.errors[1]
    assert type(error) is DegenerateMetric
    assert str(error) == DEGENERATE_MESSAGE
    code = cli.main(["curvature", "--system", "chap_s",
                     "--param", "alpha=0,beta=0", "--at", "u=2,v=2"])
    assert code == 3
    assert capsys.readouterr().err == (
        f"geothermo: degenerate metric: {DEGENERATE_MESSAGE}\n")


def test_degeneracy_tested_once_per_chunk(monkeypatch):
    calls = []
    test = MetricTensor.is_degenerate

    def counted(self):
        calls.append(len(self.g))
        return test(self)

    monkeypatch.setattr(MetricTensor, "is_degenerate", counted)
    spec = get_system("vdw_s")
    curvature_at(spec, (2.0, 3.0))
    assert calls == [1]
    calls.clear()
    points = np.tile([2.0, 3.0], (CHUNK + 1, 1))
    curvature_at(spec, points)
    assert calls == [CHUNK, 1]


@pytest.mark.parametrize("sid,x,violated", [("ising_f", (1.0, -1.0), "H > 0"),
                                            ("vdw_u", (1.0, 0.5), "v > b")])
def test_metric_checks_the_domain(sid, x, violated):
    spec = get_system(sid)
    with pytest.raises(DomainViolation) as err:
        metric_at(spec, x)
    assert err.value.violations == [violated]
    inside = [0.5 * (lo + hi) for lo, hi in spec.sample_box]
    m = metric_at(spec, np.array([inside, x]))
    assert set(m.faults.errors) == {1}
    assert m.faults.errors[1].violations == [violated]


def test_singular_prefactor():
    spec = from_definition({
        "id": "bump", "coords": [{"name": "u"}, {"name": "v"}],
        "excluded_index": "u", "relation": "u^2 + (v - 2)^2",
        "sample_box": [[0.5, 2.0], [0.5, 3.5]],
    })
    with pytest.raises(SingularPrefactor):
        metric_at(spec, (1.0, 2.0))   # v * phi_v = 0 at v = 2


def test_chunk_outside_the_domain_skips_jets(monkeypatch):
    # ising_f is defined at H < 0, where its domain check fails, so a
    # failed point's flags cannot come from the jets
    spec = get_system("ising_f")
    calls = []
    evaluate = geometry.jet_eval
    monkeypatch.setattr(geometry, "jet_eval", lambda field, x, *a:
                        calls.append(len(x)) or evaluate(field, x, *a))
    outside = np.array([[1.0, -1.0], [0.5, -0.2], [-1.0, 1.0]])
    with pytest.raises(DomainViolation) as err:
        curvature_at(spec, outside[0])
    assert str(err.value) == "ising_f: point (1.0, -1.0) violates ['H > 0']"
    want = {i: (type(e), str(e))
            for i, e in domain_check(spec, outside).errors.items()}
    for dps in (None, 30):
        res = curvature_at(spec, outside, dps=dps)
        assert np.isnan(res.ricci_scalar).all() and res.nonfinite.all()
        assert {i: (type(e), str(e))
                for i, e in res.faults.errors.items()} == want
    assert calls == []
    # with a point inside, the chunk runs, and its failed points read alike
    mixed = curvature_at(spec, np.vstack([[[1.0, 0.5]], outside]))
    assert calls == [4]
    assert mixed.nonfinite.tolist() == [False, True, True, True]
    assert np.isnan(mixed.ricci_scalar[1:]).all()
    assert {i - 1: (type(e), str(e))
            for i, e in mixed.faults.errors.items()} == want


def test_infinite_coordinate_fails_without_a_warning():
    # v * dPhi/dv is inf * 0 at v = inf: the conformal sum must not warn
    # (pytest turns a warning into an error), and the point must fail
    res = curvature_at(get_system("vdw_s"), [[2.0, 3.0], [2.0, math.inf]])
    assert set(res.faults.errors) == {1}
    assert isinstance(res.faults.errors[1], NonFinite)
    assert math.isfinite(res.ricci_scalar[0]) and math.isnan(
        res.ricci_scalar[1])


@pytest.mark.parametrize("check_degenerate", [True, False])
def test_metric_overflow_fails_as_in_the_curvature(check_degenerate):
    # |g| ~ 1/u^2 is 1e300 here, so the degeneracy test's max|g|^2
    # overflows; it must not warn, and the point fails as in curvature_at
    spec, x = get_system("ideal_s"), [[1e-150, 1.0]]
    want = curvature_at(spec, x).faults.errors[0]
    m = metric_at(spec, x, check_degenerate=check_degenerate)
    assert not m.faults.ok[0]
    got = m.faults.errors[0]
    assert (type(got), str(got)) == (type(want), str(want))


@pytest.mark.parametrize("check_degenerate", [True, False])
def test_metric_not_finite_fails(check_degenerate):
    spec = get_system("vdw_u")
    m = metric_at(spec, [[1.0, math.inf], [1.0, 3.0]],
                  check_degenerate=check_degenerate)
    assert m.faults.ok.tolist() == [False, True]
    assert str(m.faults.errors[0]) == "metric is not finite"
    assert isinstance(m.faults.errors[0], NonFinite)
    with pytest.raises(NonFinite, match="metric is not finite"):
        metric_at(spec, (1.0, math.inf), check_degenerate=check_degenerate)
    # the curvature fails the point alike
    err = curvature_at(spec, [[1.0, math.inf]]).faults.errors[0]
    assert (type(err), str(err)) == (NonFinite, "metric is not finite")


def test_domain_checked_before_curvature():
    with pytest.raises(DomainViolation):
        curvature_at(get_system("vdw_s"), (1.0, 0.2))


def test_christoffel_symmetry():
    m = metric_at(get_system("vdw_s"), np.array([(1.3, 2.7)]))
    ch = christoffel(m)
    gamma, dgamma = ch.gamma[0], ch.dgamma[0]
    assert np.allclose(gamma, np.swapaxes(gamma, 1, 2))
    # dGamma inherits the lower-index symmetry
    assert np.allclose(dgamma, np.swapaxes(dgamma, 2, 3))


def test_metric_derivative_consistency_with_fd():
    # dg[c] should match a centered difference of g along coordinate c
    spec = get_system("vdw_s")
    x = np.array([1.5, 3.0])
    m = metric_at(spec, x)
    h = 1e-6
    for c in range(2):
        up = x.copy()
        dn = x.copy()
        up[c] += h
        dn[c] -= h
        fd = (metric_at(spec, up).g - metric_at(spec, dn).g) / (2 * h)
        assert np.allclose(m.dg[c], fd, rtol=1e-5, atol=1e-8)


def test_ricci_scalar_scales_inversely_with_metric():
    # R[k g] = R[g]/k for constant k: rescale via the conformal factor
    m = metric_at(get_system("vdw_s"), np.array([(1.0, 3.0)]))
    r1 = ricci_scalar(m).ricci_scalar[0]
    import dataclasses
    m2 = dataclasses.replace(m, g=2 * m.g, dg=2 * m.dg, ddg=2 * m.ddg,
                             det=4 * m.det, faults=Faults(1))
    r2 = ricci_scalar(m2).ricci_scalar[0]
    assert r2 == pytest.approx(r1 / 2.0, rel=1e-10)


def test_order_requirement():
    spec = get_system("ideal_s")
    jet = jet_eval(spec.field, (1.0, 1.0), 3)
    with pytest.raises(ValueError):
        natural_metric(jet, (1.0, 1.0), 0)
