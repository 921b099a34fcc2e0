"""Experiments: homogeneity, invariance, scans, sweeps, Ising profile."""

import math

import numpy as np
import pytest

from geothermo import analysis as an
from geothermo.errors import EmptyGrid, PreconditionFailure
from geothermo.geometry import curvature_at
from geothermo.systems import evaluate, get_system


# ---- homogeneity ---------------------------------------------------------


def test_homogeneity_degree_one():
    rep = an.homogeneity_degree(lambda x: x[0] * x[1] / (x[0] + x[1]),
                                (1.0, 2.0))
    assert rep.is_homogeneous
    assert rep.degree == 1.0
    assert rep.max_residual < 1e-12


def test_homogeneity_degree_three():
    rep = an.homogeneity_degree(lambda x: x[0] ** 2 * x[1], (1.0, 2.0))
    assert rep.is_homogeneous and rep.degree == 3.0


def test_homogeneity_rejects_molar_entropy():
    spec = get_system("ideal_s")
    rep = an.homogeneity_degree(lambda x: evaluate(spec, x), (1.0, 2.0))
    assert not rep.is_homogeneous
    assert rep.degree is None


def test_homogeneity_scale_start_independence():
    f = lambda x: x[0] ** 2 * x[1]
    for lam0 in (0.7, 1.0, 1.9):
        rep = an.homogeneity_degree(f, (lam0 * 1.0, lam0 * 2.0))
        assert rep.degree == 3.0
        assert rep.max_residual <= 1e-10 * (1.0 + abs(f((lam0, 2 * lam0))))


def test_homogeneity_rejects_nonpositive_lambda():
    with pytest.raises(PreconditionFailure):
        an.homogeneity_degree(lambda x: x[0], (1.0,), lambdas=(0.0, 1.0))


# ---- invariance ----------------------------------------------------------


def test_vdw_representation_invariance():
    vs, vu = get_system("vdw_s"), get_system("vdw_u")
    rep = an.invariance_report(vs, vu, lambda x: [evaluate(vs, x), x[1]],
                               an.grid_for(vs, 15))
    assert rep.failures == 0
    assert rep.max_rel < 1e-6


def test_ideal_invariance_both_flat():
    is_, iu = get_system("ideal_s"), get_system("ideal_u")
    rep = an.invariance_report(is_, iu, lambda x: [evaluate(is_, x), x[1]],
                               an.grid_for(is_, 10))
    assert rep.max_abs < 1e-8


def test_helmholtz_intentionally_different():
    from geothermo.jets import jet_eval
    vu, vF = get_system("vdw_u"), get_system("vdw_F")
    rep = an.invariance_report(
        vu, vF, lambda x: [jet_eval(vu.field, x, 1).grad[0], x[1]],
        an.grid_for(vu, 20))
    assert rep.max_abs > 0.1


# ---- grids ---------------------------------------------------------------


def test_grid_points_order_and_empty():
    g = an.GridSpec((("x", 0.0, 1.0, 2), ("y", 0.0, 1.0, 3)))
    pts = g.points()
    assert len(pts) == 6
    assert pts[0] == (0.0, 0.0)
    assert pts[1] == (0.0, 0.5)
    with pytest.raises(EmptyGrid):
        an.GridSpec((("x", 0.0, 1.0, 0),)).points()


# ---- singularity scans ---------------------------------------------------


@pytest.mark.parametrize("P_r", [0.6, 0.8, 0.95])
def test_vdw_scan_hits_the_locus(P_r):
    rep = an.scan_vdw_vP(P_r / 27.0, (1.2, 9.0), count=241)
    assert len(rep.detections) == 2
    for d in rep.detections:
        assert d.classification == "locus"
        assert d.locus_deviation < 1e-4
        v, P = d.refined
        assert abs(2.0 - v + P * v ** 3) <= 1e-3      # a = b = 1
    assert rep.failures == 0


def test_scan_determinism():
    r1 = an.scan_vdw_vP(0.8 / 27.0, (1.2, 9.0), count=121)
    r2 = an.scan_vdw_vP(0.8 / 27.0, (1.2, 9.0), count=121)
    assert r1.values == r2.values
    assert [d.refined for d in r1.detections] == [d.refined
                                                  for d in r2.detections]


def test_ideal_gas_scan_clean():
    spec = get_system("ideal_s")
    rep = an.singularity_scan(spec, an.grid_for(spec, 12))
    assert rep.detections == []
    assert not any(rep.nonfinite.values())


def test_ising_scan_no_interior_singularities():
    # extended-precision evaluator; the growth toward T = 0 is genuine and
    # stays off-grid, so with a roomy threshold nothing is flagged
    spec = get_system("ising_f")
    grid = an.GridSpec((("T", 0.4, 10.0, 8), ("H", 0.5, 2.0, 3)))
    rep = an.singularity_scan(
        spec, grid, blowup_threshold=1e18,
        evaluator=lambda pts: [an.ising_curvature(T, H) for T, H in pts])
    assert rep.detections == []
    assert all(math.isfinite(r) for r in rep.values.values())


# ---- locus numerator -----------------------------------------------------


def test_locus_numerator_check():
    rows = an.locus_numerator_check(1.0, 1.0, [(3.0, 1.0 / 27.0)])
    assert rows[0][2] == pytest.approx(4.0)
    rows = an.locus_numerator_check(1.0, 1.0, [(2.0, 0.0)])
    assert rows[0][2] == 0.0
    with pytest.raises(PreconditionFailure):
        an.locus_numerator_check(1.0, 1.0, [(3.0, 0.5)])


def test_vdw_locus_roots():
    roots = an.vdw_locus_roots(1.0, 1.0, 0.8 / 27.0)
    assert len(roots) == 2
    for r in roots:
        assert abs(2.0 - r + (0.8 / 27.0) * r ** 3) < 1e-9


# ---- constant curvature & degeneracy -------------------------------------


def test_constant_curvature_chap():
    spec = get_system("chap_s")        # alpha = beta = 1
    mean, spread = an.constant_curvature_check(spec, an.grid_for(spec, 8))
    assert mean == pytest.approx(-2.0, abs=1e-10)
    assert spread < 1e-8


def test_vdw_not_constant():
    spec = get_system("vdw_s")
    _, spread = an.constant_curvature_check(spec, an.grid_for(spec, 6))
    assert spread > 1e-2


def test_degeneracy_sweep():
    grid = an.GridSpec((("u", 1.0, 3.0, 4), ("v", 1.0, 3.0, 4)))
    rows = an.degeneracy_sweep([0.0, 1.0], [0.0, 1.0], grid)
    table = {(al, be): det for al, be, det in rows}
    assert table[(0.0, 0.0)] < 1e-12
    assert table[(1.0, 1.0)] > 1e-6
    with pytest.raises(EmptyGrid):
        an.degeneracy_sweep([1.0], [1.0], an.GridSpec((("u", 0, 1, 0),)))


# ---- Ising ---------------------------------------------------------------


def test_ising_profile_qualitative():
    prof = an.ising_profile(1.0, (1.0,), (0.2, 10.0), samples=16)
    curve = prof.curves[0]
    absR = np.abs(curve.R)
    assert np.all(np.isfinite(absR))
    low = [r for t, r in zip(curve.T, absR) if t <= 1.0]
    assert all(a > b for a, b in zip(low, low[1:]))
    assert curve.growth_exponent is not None and curve.growth_exponent < 0


def test_ising_large_T_plateau():
    prof = an.ising_profile(1.0, (1.0,), (50.0, 100.0), samples=8)
    R = np.array(prof.curves[0].R)
    assert (R.max() - R.min()) / abs(R.mean()) < 0.05
    assert prof.curves[0].plateau == pytest.approx(-2.0, abs=1e-3)


def test_ising_reference_value():
    assert an.ising_curvature(1.0, 1.0) == pytest.approx(149.4963155, rel=1e-6)


def test_ising_guards():
    with pytest.raises(PreconditionFailure):
        an.ising_curvature(0.01, 1.0)
    with pytest.raises(PreconditionFailure):
        an.ising_curvature(1.0, 0.0)
    with pytest.raises(PreconditionFailure):
        an.ising_profile(1.0, (1.0,), (0.01, 1.0))


def test_fd_pipeline_matches_jets():
    spec = get_system("ising_f")
    r_ad = curvature_at(spec, (1.0, 1.0)).ricci_scalar
    r_fd = an.fd_ricci_scalar(spec, (1.0, 1.0))
    assert abs(r_ad - r_fd) <= 1e-3 * (1.0 + abs(r_ad))
