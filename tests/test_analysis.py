"""Experiments: homogeneity, invariance, scans, sweeps, Ising profile."""

import itertools
import math

import numpy as np
import pytest

from geothermo import analysis as an
from geothermo.errors import (DegenerateMetric, DomainViolation, EmptyGrid,
                              PreconditionFailure)
from geothermo.geometry import curvature_at, natural_metric
from geothermo.jets import Faults, fd_jet4, jet_eval
from geothermo.systems import evaluate, get_system
from geothermo.transforms import (invert_representation, partial_legendre,
                                  total_legendre)


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


def test_homogeneity_needs_two_usable_ratios():
    # Phi(E) = 0 gives no ratio to fit, and a Phi that keeps its sign only
    # at lambda = 2 gives one: neither fits a degree
    for f, base in [(lambda x: 0.0, (1.0, 2.0)),
                    (lambda x: 1.0 if x[0] in (2.0, 4.0) else -1.0, (2.0,))]:
        rep = an.homogeneity_degree(f, base)
        assert not rep.is_homogeneous
        assert rep.degree is None and rep.max_residual == math.inf


def test_homogeneity_rejects_nonpositive_lambda():
    with pytest.raises(PreconditionFailure):
        an.homogeneity_degree(lambda x: x[0], (1.0,), lambdas=(0.0, 1.0))


# ---- invariance ----------------------------------------------------------


def _inverse_map(spec):
    """(u, v) -> (Phi(u, v), v) as a batch map."""
    return lambda points, faults: np.column_stack([evaluate(spec, points),
                                                   points[:, 1]])


def test_vdw_representation_invariance():
    vs, vu = get_system("vdw_s"), get_system("vdw_u")
    rep = an.invariance_report(vs, vu, _inverse_map(vs), an.grid_for(vs, 15))
    assert rep.failures == 0
    assert rep.max_rel < 1e-6


def test_ideal_invariance_both_flat():
    is_, iu = get_system("ideal_s"), get_system("ideal_u")
    rep = an.invariance_report(is_, iu, _inverse_map(is_),
                               an.grid_for(is_, 10))
    assert rep.max_abs < 1e-8


def test_helmholtz_intentionally_different():
    vu, vF = get_system("vdw_u"), get_system("vdw_F")
    rep = an.invariance_report(
        vu, vF, lambda points, faults: np.column_stack(
            [jet_eval(vu.field, points, 1, faults).grad[:, 0],
             points[:, 1]]),
        an.grid_for(vu, 20))
    assert rep.max_abs > 0.1


@pytest.mark.parametrize("build", [
    lambda spec: invert_representation(spec, 0, solve="newton"),
    lambda spec: total_legendre(spec, solve="newton"),
], ids=["inversion", "total_legendre"])
def test_invariance_report_maps_its_grid_in_one_call(build):
    vs = get_system("vdw_s")
    partner = build(vs)
    calls = []

    def counted(points, faults):
        calls.append(len(points))
        mapped = partner.meta["point_map"](points, faults)
        faults.fail(0, DomainViolation("the first row fails"))
        return mapped

    rep = an.invariance_report(vs, partner, counted, an.grid_for(vs, 6))
    assert calls == [36]
    # the row the map failed is counted, and no other
    assert rep.failures == 1
    assert [x for x, *_ in rep.rows] == [
        tuple(x) for x in an.grid_for(vs, 6).points()[1:].tolist()]
    assert rep.max_rel < 1e-8


def test_invariance_report_skips_and_counts_a_failed_R_b():
    # the map sends the first vdw_u row to T < 0, outside vdw_F's domain:
    # its R_b is NaN, so the row is left out and counted; every other row
    # keeps the R of its mapped point
    vu = get_system("vdw_u")
    vF = partial_legendre(vu, 0)
    grid = an.grid_for(vu, 4)

    def to_negative_T(points, faults):
        mapped = vF.meta["point_map"](points, faults)
        mapped[0, 0] = -1.0
        return mapped

    rep = an.invariance_report(vu, vF, to_negative_T, grid)
    assert rep.failures == 1
    assert [x for x, *_ in rep.rows] == [
        tuple(x) for x in grid.points()[1:].tolist()]
    faults = Faults(len(grid.points()))
    mapped = vF.meta["point_map"](grid.points(), faults)
    assert [r_b for *_, r_b, _ in rep.rows] == curvature_at(
        vF, mapped[1:]).ricci_scalar.tolist()


def test_invariance_report_on_a_grid_where_no_R_a_is_finite():
    # every point has v < b: nothing is mapped, and every point is counted
    vs = get_system("vdw_s")
    calls = []
    rep = an.invariance_report(
        vs, vs, lambda points, faults: calls.append(points),
        an.GridSpec((("u", 1.0, 2.0, 3), ("v", 0.2, 0.8, 3))))
    assert calls == []
    assert (rep.rows, rep.max_abs, rep.max_rel, rep.failures) == (
        [], 0.0, 0.0, 9)


# ---- grids ---------------------------------------------------------------


def test_grid_points_order_and_empty():
    # the last axis varies fastest, as in itertools.product, and an axis
    # holds np.linspace's bits over it, lo alone when its count is 1 (the P
    # axis of a vdw_vP line), whichever way it runs
    for axes in [(("x", 0.0, 1.0, 5),),
                 (("x", 0.0, 1.0, 2), ("y", 0.0, 1.0, 3)),
                 (("u", 0.05, 5.0, 4), ("v", 1.2, 6.0, 3),
                  ("w", -1.0, 1.0, 2)),
                 (("v", 1.2, 9.0, 7), ("P", 0.0296, 0.0296, 1)),
                 (("P", 0.03, 0.05, 1), ("v", 1.2, 9.0, 7)),
                 (("x", 2.0, 0.5, 7), ("y", 0.1, 0.3, 3))]:
        pts = an.GridSpec(axes).points()
        want = np.array(list(itertools.product(*(
            [lo] if count == 1 else np.linspace(lo, hi, count).tolist()
            for _, lo, hi, count in axes))))
        assert pts.shape == (math.prod(c for *_, c in axes), len(axes))
        assert pts.dtype == np.float64
        assert pts.tobytes() == want.tobytes(), axes
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


def test_vdw_scan_classifies_detections_off_the_locus():
    # a low threshold detects smooth maxima of |R|; at P = 0.05 there is no
    # locus, so those are "unclassified", and next to v = b a detection is
    # "other"
    rep = an.scan_vdw_vP(0.05, (1.2, 9.0), count=41, blowup_threshold=5.0)
    assert rep.locus_points == () and rep.max_locus_dev is None
    assert len(rep.detections) == 3
    assert {d.classification for d in rep.detections} == {"unclassified"}
    rep = an.scan_vdw_vP(0.05, (1.0005, 9.0), count=41,
                         blowup_threshold=1e3)
    assert [d.classification for d in rep.detections] == ["other"]
    assert abs(rep.detections[0].refined[0] - 1.0) < 1e-3


def test_scan_determinism():
    r1 = an.scan_vdw_vP(0.8 / 27.0, (1.2, 9.0), count=121)
    r2 = an.scan_vdw_vP(0.8 / 27.0, (1.2, 9.0), count=121)
    assert np.array_equal(r1.R, r2.R, equal_nan=True)
    assert [d.refined for d in r1.detections] == [d.refined
                                                  for d in r2.detections]


def test_ideal_gas_scan_clean():
    spec = get_system("ideal_s")
    rep = an.singularity_scan(spec, an.grid_for(spec, 12))
    assert rep.detections == []
    assert not rep.nonfinite.any()


def test_ising_scan_no_interior_singularities():
    # extended-precision evaluator; the growth toward T = 0 is genuine and
    # stays off-grid, so with a roomy threshold nothing is flagged
    spec = get_system("ising_f")
    grid = an.GridSpec((("T", 0.4, 10.0, 8), ("H", 0.5, 2.0, 3)))
    rep = an.singularity_scan(
        spec, grid, blowup_threshold=1e18,
        evaluator=lambda pts: [an.ising_curvature(T, H) for T, H in pts])
    assert rep.detections == []
    assert np.isfinite(rep.R).all()


# ---- refinement ----------------------------------------------------------

X0 = math.pi                  # an irrational pole between the nodes 3 and 4
LINE = an.GridSpec((("x", 0.0, 10.0, 11),))
REVERSED = an.GridSpec((("x", 10.0, 0.0, 11),))


def _line(f):
    """A synthetic evaluator R = f(x) on one-coordinate points."""
    def evaluator(points):
        with np.errstate(all="ignore"):
            return f(np.asarray(points, dtype=float)[:, 0])
    return evaluator


DOUBLE_POLE = _line(lambda x: 1e4 / (x - X0) ** 2)
SIMPLE_POLE = _line(lambda x: 1e4 / (x - (3.0 + math.sqrt(2) / 40)))
NODE_POLE = _line(lambda x: 1e4 / (x - 3.0) ** 2)      # inf at x = 3
BUMP = _line(lambda x: 1e3 * np.exp(-(x - X0) ** 2))


@pytest.fixture
def scan_evals(monkeypatch):
    """Batch sizes of the _scan_eval calls made inside _refine_segment."""
    sizes, inside = [], []
    real_eval, real_refine = an._scan_eval, an._refine_segment

    def counted_eval(spec, evaluator, points):
        if inside:
            sizes.append(len(points))
        return real_eval(spec, evaluator, points)

    def counted_refine(*args):
        inside.append(True)
        try:
            return real_refine(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(an, "_scan_eval", counted_eval)
    monkeypatch.setattr(an, "_refine_segment", counted_refine)
    return sizes


def test_double_pole_refines_in_few_passes(scan_evals):
    rep = an.singularity_scan(None, LINE, evaluator=DOUBLE_POLE)
    assert len(rep.detections) == 1
    assert abs(rep.detections[0].refined[0] - X0) <= 1e-8
    assert len(scan_evals) <= 8       # 32 for the ternary search


SHOULDER = _line(lambda x: 1e4 / (x - 2.9) ** 2)    # a pole just off (3, 4)


@pytest.mark.parametrize("seg", [((3.0,), (4.0,), 0), ((4.0,), (3.0,), 0),
                                 ((2.0,), (2.85,), 0)],
                         ids=["up", "down", "below"])
def test_shoulder_segment_refines_in_few_passes(scan_evals, seg):
    # |R| is largest at the segment end nearest the pole: the search walks
    # to that end as fast as it closes in on an interior pole
    (x0,), (x1,), _ = seg
    near = min((x0, x1), key=lambda x: abs(x - 2.9))
    [(x,)] = an._refine_segment(None, SHOULDER, [seg], 1.0)
    assert abs(x - near) <= an.REFINE_TOL * max(1.0, abs(x0), abs(x1))
    assert len(scan_evals) <= 8


def test_simple_pole_with_sign_flip_is_detected():
    x0 = 3.0 + math.sqrt(2) / 40
    r3, r4 = (SIMPLE_POLE(np.array([[x]]))[0] for x in (3.0, 4.0))
    assert r3 * r4 < 0.0 and abs(r3 / r4) > 10.0     # a flipped segment
    rep = an.singularity_scan(None, LINE, evaluator=SIMPLE_POLE)
    assert len(rep.detections) == 1
    assert abs(rep.detections[0].refined[0] - x0) <= an.REFINE_TOL * 4.0


def test_pole_on_a_node_is_detected():
    rep = an.singularity_scan(None, LINE, evaluator=NODE_POLE)
    [node] = np.flatnonzero(LINE.points()[:, 0] == 3.0)
    assert rep.nonfinite[node] and rep.R[node] == math.inf
    assert len(rep.detections) == 1
    assert abs(rep.detections[0].refined[0] - 3.0) <= an.REFINE_TOL * 4.0


def test_smooth_bump_below_threshold_is_no_detection(scan_evals):
    rep = an.singularity_scan(None, LINE, evaluator=BUMP)
    assert scan_evals                  # the peak is a candidate ...
    assert rep.detections == []        # ... that the refinement rejects


@pytest.mark.parametrize("evaluator", [DOUBLE_POLE, SIMPLE_POLE],
                         ids=["double", "simple"])
def test_reversed_axis_gives_the_same_refined_point(evaluator):
    forward = an.singularity_scan(None, LINE, evaluator=evaluator)
    backward = an.singularity_scan(None, REVERSED, evaluator=evaluator)
    assert ([d.refined for d in forward.detections]
            == [d.refined for d in backward.detections])
    seg = ((2.0,), (4.0,), 0)
    assert (an._refine_segment(None, evaluator, [seg], 1e8)
            == an._refine_segment(None, evaluator, [(seg[1], seg[0], 0)],
                                  1e8))


SEGMENTS = [((2.0,), (4.0,), 0), ((3.0,), (4.0,), 0), ((4.0,), (3.0,), 0),
            ((1.0,), (2.0,), 0), ((3.1,), (3.2,), 0)]


def test_each_pass_makes_one_scan_eval_call(scan_evals):
    k = an.REFINE_POINTS
    alone = []
    for seg in SEGMENTS:
        scan_evals.clear()
        an._refine_segment(None, DOUBLE_POLE, [seg], 1e8)
        # every trial of the first pass; later passes skip the middle trial
        # where it repeats the best node
        assert scan_evals[0] == k
        assert set(scan_evals[1:]) <= {k - 1, k}
        alone.append(list(scan_evals))
    scan_evals.clear()
    an._refine_segment(None, DOUBLE_POLE, SEGMENTS, 1e8)
    # one call per pass: as many calls as the longest search, and every
    # trial each search evaluates alone in the same pass
    assert scan_evals == [sum(a[p] for a in alone if len(a) > p)
                          for p in range(max(map(len, alone)))]


def test_refinement_evaluates_no_point_twice(monkeypatch):
    # a pass's middle trial is mostly the best node of the pass before,
    # bit for bit, whose |R| is reused
    seen = []
    real = an._scan_eval

    def recorded(spec, evaluator, points):
        seen.extend(p.tobytes() for p in points)
        return real(spec, evaluator, points)

    monkeypatch.setattr(an, "_scan_eval", recorded)
    for seg in SEGMENTS:
        seen.clear()
        an._refine_segment(None, DOUBLE_POLE, [seg], 1.0)
        assert len(set(seen)) == len(seen), seg


def test_segment_refined_alone_equals_it_among_others():
    for i, seg in enumerate(SEGMENTS):
        others = SEGMENTS[:i] + SEGMENTS[i + 1:]
        alone = an._refine_segment(None, DOUBLE_POLE, [seg], 1.0)
        among = an._refine_segment(None, DOUBLE_POLE, others[:1] + [seg]
                                   + others[1:], 1.0)
        assert alone == [among[1]], seg
        assert alone[0] is not None


def _vdw_s_locus_dev(u, v, axis):
    """Relative distance along ``axis`` to the vdw_s singular locus
    (a = b = 1)."""
    if axis == 0:
        return abs(u - (2 * v * v - 6 * v + 3) / v ** 3) / max(1.0, abs(u))
    w = v
    for _ in range(50):
        w -= ((-3 + 6 * w - 2 * w * w) + u * w ** 3) / (
            (6 - 4 * w) + 3 * u * w * w)
    return abs(v - w) / max(1.0, abs(v))


def test_benchmark_line_scan_refinement(scan_evals):
    # the grid_scan benchmark's vdw_vP line
    rep = an.scan_vdw_vP(0.8 / 27.0, (1.2, 9.0), count=241)
    assert len(scan_evals) <= 5
    assert [d.classification for d in rep.detections] == ["locus"] * 2
    assert max(d.locus_deviation for d in rep.detections) <= 1e-9


def test_benchmark_box_scan_refinement(scan_evals):
    # the grid_scan benchmark's vdw_s box
    spec = get_system("vdw_s")
    grid = an.GridSpec((("u", 0.05, 5.0, 60), ("v", 1.2, 6.0, 60)))
    rep = an.singularity_scan(spec, grid)
    assert len(scan_evals) <= 6
    # 1200 trials, 53 of them a middle trial that repeats its best node
    assert sum(scan_evals) < 1200
    assert len(rep.detections) == 7
    for d in rep.detections:
        assert d.classification == "unclassified"
        assert _vdw_s_locus_dev(*d.refined, d.axis) <= 1e-9


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


# ---- constant curvature --------------------------------------------------


def test_constant_curvature_chap():
    spec = get_system("chap_s")        # alpha = beta = 1
    mean, spread = an.constant_curvature_check(spec, an.grid_for(spec, 8))
    assert mean == pytest.approx(-2.0, abs=1e-10)
    assert spread < 1e-8


def test_vdw_not_constant():
    spec = get_system("vdw_s")
    _, spread = an.constant_curvature_check(spec, an.grid_for(spec, 6))
    assert spread > 1e-2


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
    for T_range in [(1.0, 0.5), (1.0, 1.0)]:
        with pytest.raises(PreconditionFailure, match="increasing"):
            an.ising_profile(1.0, (1.0,), T_range)


def test_fd_pipeline_matches_jets():
    spec = get_system("ising_f")
    r_ad = curvature_at(spec, (1.0, 1.0)).ricci_scalar
    r_fd = an.fd_ricci_scalar(spec, (1.0, 1.0))
    assert abs(r_ad - r_fd) <= 1e-3 * (1.0 + abs(r_ad))


def test_fd_degenerate_point_carries_its_finite_difference_metric():
    # the oracle runs the pipeline's curvature stage on its own full jet,
    # so a DegenerateMetric carries the metric of that jet, not of the
    # pipeline's jets
    spec = get_system("chap_s", alpha=0.0, beta=0.0)
    x = np.array([5.0, 5.0])        # det g is 0 in both
    with pytest.raises(DegenerateMetric) as err:
        an.fd_ricci_scalar(spec, x)
    want = natural_metric(fd_jet4(spec.field, x), x[None],
                          spec.excluded_index)
    got = err.value.metric
    for name in ("g", "dg", "ddg"):
        assert np.array_equal(getattr(got, name), getattr(want, name)[0])
    with pytest.raises(DegenerateMetric) as err:
        curvature_at(spec, x)
    assert not np.array_equal(err.value.metric.ddg, got.ddg)


def test_fd_curvature_checks_the_domain():
    # the stencils would run at u = -1, where chap_s is not defined
    spec = get_system("chap_s")
    with pytest.raises(DomainViolation) as err:
        an.fd_ricci_scalar(spec, (-1.0, 1.0))
    assert err.value.violations == ["u > 0"]
    with pytest.raises(DomainViolation):
        curvature_at(spec, (-1.0, 1.0))
