"""Natural metric assembly, connection, curvature."""

import math
import re

import mpmath as mp
import numpy as np
import pytest

from geothermo import analysis as an
from geothermo import cli, geometry
from geothermo.errors import (DegenerateMetric, DomainViolation, NonFinite,
                              SingularPrefactor)
from geothermo.geometry import (CHUNK, MetricTensor, christoffel,
                                curvature_at, metric_at, natural_metric,
                                ricci_scalar, riemann_up)
from geothermo.jets import MPMATH, Faults, jet_eval
from geothermo.systems import (catalog_ids, domain_check, from_definition,
                               get_system)

# three coordinates, as in tests/test_ising_precision.py
THREE = from_definition({
    "id": "three", "coords": [{"name": "x"}, {"name": "y"}, {"name": "z"}],
    "excluded_index": "x", "domain": ["x > 0", "y > 0", "z > 0"],
    "relation": "1.5*ln(x) + ln(y) + 0.7*ln(z) + 0.3*ln(x + 2*y + z)"})


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


@pytest.mark.parametrize("sid", catalog_ids())
def test_two_dimensional_cross_check(sid):
    # curvature_at takes Brioschi's formula on a 2-D manifold; here it
    # meets the tensor path (connection, Riemann, contraction), which is
    # ricci_scalar's, and the identity R = 2 R_0101 / det g on the sample
    # box
    spec = get_system(sid)
    m = metric_at(spec, an.grid_for(spec, 16).points())
    assert m.faults.ok.all()
    up = riemann_up(christoffel(m))
    tensor = np.einsum("zsn,zsn->z", np.linalg.inv(m.g),
                       np.einsum("zrsrn->zsn", up))
    assert np.array_equal(ricci_scalar(m).ricci_scalar, tensor)
    R = curvature_at(spec, m.at).ricci_scalar
    down0101 = np.einsum("ze,ze->z", m.g[:, 0, :], up[:, :, 1, 0, 1])
    cross_check_dev = np.abs(R - 2.0 * down0101 / m.det)
    identity_tol = 1e-9
    if sid.startswith("ideal"):
        # flat: R is round-off on both paths
        assert np.abs(R - tensor).max() <= 1e-12
    elif sid == "ising_f":
        # low T cancels in the float jets, by up to 2.4e-7 relative at
        # (T, H) = (0.5, 2) on either path against 60 digits
        assert (np.abs(R - tensor) / np.abs(tensor)).max() <= 1e-7
        exact = curvature_at(spec, m.at, dps=60).ricci_scalar
        for r in (R, tensor):
            assert (np.abs(r - exact) / np.abs(exact)).max() <= 2.5e-7
        identity_tol = 1e-6
    else:
        assert (np.abs(R - tensor) / np.abs(tensor)).max() <= 1e-10
    assert (cross_check_dev < identity_tol * (1.0 + np.abs(R))).all()


def test_other_dimensions_take_the_tensor_path(monkeypatch):
    # a 2-D manifold goes through Brioschi's formula, a 1-D or 3-D one
    # through the connection and the Riemann tensor, on both backends
    calls = []
    brioschi = geometry._brioschi
    # the formula's twelve columns are those of a 2-D metric
    monkeypatch.setattr(geometry, "_brioschi", lambda *columns:
                        calls.append(2) or brioschi(*columns))
    one = from_definition({"id": "one", "coords": [{"name": "x"}],
                           "excluded_index": "x", "domain": ["x > 0"],
                           "relation": "ln(x) + x^2"})
    x3 = np.array([[0.7, 1.1, 2.5], [1.5, 0.5, 1.0]])
    for dps in (None, 30):
        # one coordinate leaves the conformal sum empty: g = 0 everywhere
        res = curvature_at(one, [[0.5], [2.0]], dps=dps)
        assert all(type(e) is DegenerateMetric
                   for e in res.faults.errors.values())
        assert len(res.faults.errors) == 2
        res = curvature_at(THREE, x3, dps=dps)
        assert res.faults.ok.all()
        assert calls == []
        curvature_at(get_system("vdw_s"), (2.0, 3.0), dps=dps)
        assert calls == [2]
        calls.clear()
    m = metric_at(THREE, x3)
    ricci = np.einsum("zrsrn->zsn", riemann_up(christoffel(m)))
    tensor = np.einsum("zsn,zsn->z", np.linalg.inv(m.g), ricci)
    assert np.array_equal(curvature_at(THREE, x3).ricci_scalar, tensor)


@pytest.mark.parametrize("dps", [None, 30])
def test_failed_point_is_masked_in_its_batch(dps):
    # g = diag(-1/x^2, 0) at y = 0: the degenerate point takes the identity
    # in the formula, so that the mpmath backend does not divide by its
    # det g = 0, and the other points keep the bits they have alone
    spec = from_definition({
        "id": "cusp", "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "y", "domain": ["x > 0"],
        "relation": "ln(x) + x*y^3"})
    points = np.array([[1.0, 0.5], [1.0, 0.0], [2.0, 1.5], [0.5, -1.0]])
    res = curvature_at(spec, points, dps=dps)
    assert list(res.faults.errors) == [1]
    assert type(res.faults.errors[1]) is DegenerateMetric
    assert np.isnan(res.ricci_scalar[1])
    for i in (0, 2, 3):
        single = curvature_at(spec, points[i], dps=dps).ricci_scalar
        assert res.ricci_scalar[i] == single != 0.0
    with pytest.raises(DegenerateMetric):
        curvature_at(spec, points[1], dps=dps)


@pytest.mark.parametrize("dps", [None, 30])
def test_a_failed_point_is_flagged_alike_alone_and_in_its_batch(dps):
    # the out-of-domain point has a jet beside an in-domain point and none
    # alone; its metric is that jet's, so no degeneracy test reads it
    spec = get_system("chap_s", alpha=0.0, beta=0.0)
    pair = curvature_at(spec, [[2.0, 2.0], [-1.0, 2.0]], dps=dps)
    alone = curvature_at(spec, [[-1.0, 2.0]], dps=dps)
    assert type(pair.faults.errors[0]) is DegenerateMetric
    assert type(pair.faults.errors[1]) is DomainViolation
    assert pair.degenerate.tolist() == [True, False]
    for name in ("degenerate", "nonfinite", "det_g", "conformal_factor"):
        assert np.array_equal(getattr(pair, name)[1:], getattr(alone, name),
                              equal_nan=True), name
    assert metric_at(spec, [[2.0, 2.0], [-1.0, 2.0]]).degenerate.tolist() \
        == [True, False]
    assert metric_at(spec, [[-1.0, 2.0]]).degenerate.tolist() == [False]


def test_three_coordinates_at_dps_keep_their_bits_beside_a_failed_point():
    # the cofactor determinant and inverse of the mpmath backend take the
    # NaN metric of the out-of-domain point in their stack
    points = np.array([[0.7, 1.1, 2.5], [-0.7, 1.1, 2.5]])
    res = curvature_at(THREE, points, dps=30)
    assert list(res.faults.errors) == [1]
    assert type(res.faults.errors[1]) is DomainViolation
    single = curvature_at(THREE, points[0], dps=30)
    assert res.ricci_scalar[0] == single.ricci_scalar != 0.0
    assert res.det_g[0] == single.det_g
    assert res.conformal_factor[0] == single.conformal_factor
    assert np.isnan(res.ricci_scalar[1]) and res.nonfinite[1]


@pytest.mark.parametrize("dps", [None, 30])
def test_curvature_of_a_dilated_point_keeps_its_bits(dps):
    # the metric of a relation homogeneous up to a logarithm is invariant
    # under dilation, so R at 2^k x is R at x: |g| is 2^(-2k) there, and
    # the float formula's (EG - F^2)^2 would leave the float64 range by
    # |k| = 130 without its power-of-two scaling
    spec = from_definition({
        "id": "dilation", "coords": [{"name": "x"}, {"name": "y"}],
        "excluded_index": "x", "domain": ["x > 0", "y > 0"],
        "relation": "ln(x) + ln(y) + ln(x + 2*y)"})
    points = np.array([[1.0, 0.5], [0.7, 1.3]])
    R = curvature_at(spec, points, dps=dps).ricci_scalar
    for k in (-250, -130, 130, 250):
        res = curvature_at(spec, points * 2.0 ** k, dps=dps)
        assert np.array_equal(res.ricci_scalar, R)


def test_chaplygin_metric_is_not_degenerate_at_alpha_beta_one():
    # criterion 8 covers alpha = beta = 0, where every point degenerates
    spec = get_system("chap_s")        # alpha = beta = 1
    grid = an.GridSpec((("u", 1.0, 3.0, 4), ("v", 1.0, 3.0, 4)))
    m = metric_at(spec, grid.points())
    assert m.faults.ok.all()
    assert np.abs(m.det).min() > 1e-6


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


def test_degenerate_point_carries_the_metric_of_metric_at():
    # curvature_at builds a 2-D chunk's metric only as far as Brioschi's
    # formula reads it, and the full metric of a degenerate point for its
    # DegenerateMetric alone: that payload is metric_at's, for one point
    # and for each degenerate point of a batch
    spec = get_system("chap_s", alpha=0.0, beta=0.0)
    errors = []
    for at in (curvature_at, metric_at):
        with pytest.raises(DegenerateMetric) as err:
            at(spec, (2.0, 2.0))
        errors.append(err.value)
    points = an.grid_for(spec, 6).points()
    batch = curvature_at(spec, points).faults.errors
    want = metric_at(spec, points).faults.errors
    assert len(batch) == len(points)
    pairs = [tuple(errors)] + [(batch[i], want[i]) for i in sorted(want)]
    for got, want in pairs:
        assert type(got) is type(want) is DegenerateMetric
        assert str(got) == str(want)
        a, b = got.metric, want.metric
        for name in ("at", "g", "dg", "ddg"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert (a.det, a.conformal_factor, a.degenerate) == (
            b.det, b.conformal_factor, b.degenerate)


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
    # an empty batch is one chunk with no point inside the domain
    for dps in (None, 30):
        for points, errors in ((outside, want), (outside[:0], {})):
            res = curvature_at(spec, points, dps=dps)
            assert len(res.ricci_scalar) == len(res.nonfinite) == len(points)
            assert np.isnan(res.ricci_scalar).all() and res.nonfinite.all()
            assert {i: (type(e), str(e))
                    for i, e in res.faults.errors.items()} == errors
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


def test_metric_overflow_fails_as_in_the_curvature():
    # |g| ~ 1/u^2 is 1e300 here, so the degeneracy test's max|g|^2
    # overflows; it must not warn, and the point fails as in curvature_at
    spec, x = get_system("ideal_s"), [[1e-150, 1.0]]
    want = curvature_at(spec, x).faults.errors[0]
    m = metric_at(spec, x)
    assert not m.faults.ok[0]
    got = m.faults.errors[0]
    assert (type(got), str(got)) == (type(want), str(want))


def test_metric_not_finite_fails():
    spec = get_system("vdw_u")
    m = metric_at(spec, [[1.0, math.inf], [1.0, 3.0]])
    assert m.faults.ok.tolist() == [False, True]
    assert str(m.faults.errors[0]) == "metric is not finite"
    assert isinstance(m.faults.errors[0], NonFinite)
    with pytest.raises(NonFinite, match="metric is not finite"):
        metric_at(spec, (1.0, math.inf))
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
    # every partial through order 4: an order-3 jet and a jet of the 2-D
    # curvature's monomial set lack some
    spec = get_system("ideal_s")
    for jet in (jet_eval(spec.field, (1.0, 1.0), 3),
                jet_eval(spec.field, (1.0, 1.0), 4,
                         top=geometry.SURFACE_TOP)):
        with pytest.raises(ValueError):
            natural_metric(jet, (1.0, 1.0), 0)


# E^v dPhi/dE^v vanishes on the line v = 2, and det g on the line y = 0,
# each a row of the 16 x 16 grid over the sample box
BUMP = from_definition({
    "id": "bump", "coords": [{"name": "u"}, {"name": "v"}],
    "excluded_index": "u", "relation": "u^2 + (v - 2)^2",
    "sample_box": [[0.5, 2.0], [1.0, 2.875]]})
CUSP = from_definition({
    "id": "cusp", "coords": [{"name": "x"}, {"name": "y"}],
    "excluded_index": "y", "domain": ["x > 0"],
    "relation": "ln(x) + x*y^3", "sample_box": [[0.5, 2.0], [-1.0, 0.875]]})
COLUMN_SPECS = dict({sid: get_system(sid) for sid in catalog_ids()},
                    bump=BUMP, cusp=CUSP)


def _widened_grid(spec, count):
    """A grid over the sample box widened by half its size on each side,
    past the domain of every catalog system."""
    return an.GridSpec(tuple(
        (c.name, lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), count)
        for c, (lo, hi) in zip(spec.coords, spec.sample_box))).points()


def _failures(res):
    return {i: (type(e), str(e)) for i, e in res.faults.errors.items()}


def _sliced_brioschi(m):
    """The CurvatureResult of Brioschi's formula on the twelve columns
    sliced from the full tensors of the batched 2-D metric ``m``."""
    g, dg, ddg = m.g, m.dg, m.ddg
    with np.errstate(all="ignore"):
        R = geometry._brioschi(
            g[:, 0, 0], g[:, 0, 1], g[:, 1, 1],
            dg[:, 0, 0, 0], dg[:, 1, 0, 0], dg[:, 0, 0, 1],
            dg[:, 1, 0, 1], dg[:, 0, 1, 1], dg[:, 1, 1, 1],
            ddg[:, 1, 1, 0, 0], ddg[:, 1, 0, 0, 1], ddg[:, 0, 0, 1, 1],
            m.faults.ok)
        return geometry._curvature_result(m, R)


@pytest.mark.parametrize("key", sorted(COLUMN_SPECS))
def test_jet_columns_give_the_numbers_of_the_metric_tensor(key):
    # curvature_at takes the twelve columns of Brioschi's formula for a 2-D
    # chunk straight from its jet; here they are sliced from the full
    # tensors of natural_metric instead.  The two give the same bits and
    # the same failures, inside the sample box and on a grid widened past
    # the domain, on floats and at 30 digits (every 4th node there, as a
    # point costs about 2 ms)
    spec = COLUMN_SPECS[key]
    grids = [an.grid_for(spec, 16).points(),
             _widened_grid(spec, 16)]
    failed = set()
    for points in grids:
        for dps in (None, 30):
            x = points if dps is None else points[::4]
            got = curvature_at(spec, x, dps=dps)
            if dps is None:
                want = _sliced_brioschi(metric_at(spec, x))
            else:
                with mp.workdps(dps):
                    jet = jet_eval(spec.field, x, 4, domain_check(spec, x),
                                   MPMATH)
                    want = _sliced_brioschi(natural_metric(
                        jet, x, spec.excluded_index))
            for name in ("ricci_scalar", "nonfinite", "degenerate", "det_g",
                         "conformal_factor"):
                a, b = (np.asarray(getattr(r, name), dtype=float)
                        for r in (got, want))
                assert np.array_equal(a, b, equal_nan=True), (name, dps)
                assert np.array_equal(np.signbit(a), np.signbit(b)), name
            assert _failures(got) == _failures(want)
            failed |= {type(e) for e in got.faults.errors.values()}
    assert {"bump": SingularPrefactor, "cusp": DegenerateMetric}.get(
        key, DomainViolation) in failed


def _record(res):
    """The bits of every field of a batched CurvatureResult, and its
    failures."""
    return ([np.asarray(getattr(res, name), dtype=float).tobytes()
             for name in ("ricci_scalar", "det_g", "conformal_factor",
                          "nonfinite", "degenerate")], _failures(res))


@pytest.mark.parametrize("sid", catalog_ids())
def test_surface_jets_keep_every_bit_of_full_jets(sid, monkeypatch):
    # a 2-D curvature chunk of a compiled relation takes the jets of the
    # monomials it reads (geometry.SURFACE_TOP); full jets give the same R,
    # det g, conformal factor, flags and failures, inside the sample box and
    # on a grid widened past the domain, on floats and at 30 digits
    spec = get_system(sid)
    points = np.concatenate([an.grid_for(spec, 20).points(),
                             _widened_grid(spec, 20)])
    tops = []
    real = geometry.jet_eval

    def spied(field, x, order, faults, backend, top=None):
        tops.append(top)
        return real(field, x, order, faults, backend, top)

    monkeypatch.setattr(geometry, "jet_eval", spied)
    runs = []
    for top in (geometry.SURFACE_TOP, None):
        monkeypatch.setattr(geometry, "SURFACE_TOP", top)
        runs.append([_record(curvature_at(spec, points)),
                     _record(curvature_at(spec, points[::97], dps=30))])
    assert runs[0] == runs[1]
    assert set(tops) == {((2, 2),), None}


@pytest.mark.parametrize("at,index", [((1e-90, 1.0), (4, 0)),
                                      ((1.0, 1e-90), (0, 4))])
def test_a_coefficient_the_jet_does_not_hold_does_not_fail_the_point(
        at, index, capsys):
    # a point fails with NonFinite where a Taylor coefficient its jet holds
    # is not finite.  At these ideal_s points the pure fourth-order partial
    # overflows float64: metric_at, on a full jet, fails there, and the
    # curvature, whose jet does not hold that monomial, goes on to a
    # metric whose determinant is too small for its scale
    spec = get_system("ideal_s")
    with pytest.raises(NonFinite,
                       match=f"coefficient for index {re.escape(str(index))}"):
        metric_at(spec, at)
    with pytest.raises(DegenerateMetric):
        curvature_at(spec, at)
    code = cli.main(["curvature", "--system", "ideal_s", "--at",
                     f"u={at[0]!r},v={at[1]!r}"])
    assert code == 3
    assert "degenerate metric" in capsys.readouterr().err
