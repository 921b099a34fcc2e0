"""The batched pipeline against point-by-point evaluation of the same points."""

import contextlib
import gc
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from geothermo import analysis as an
from geothermo import cli, fd, jets
from geothermo.errors import (DegenerateMetric, DomainViolation,
                              GeothermoError, NonFinite, SingularDenominator)
from geothermo.geometry import CHUNK, curvature_at, metric_at
from geothermo.jets import STAIRCASE_WIDTH, jet_eval
from geothermo.oracle import oracle_vs_pipeline
from geothermo.systems import (catalog_ids, domain_check, evaluate,
                               from_definition, get_system)
from geothermo.transforms import (_ImplicitField, first_law_residual,
                                  invert_representation, legendre_point,
                                  partial_legendre)

CUSTOM = {
    "id": "custom_mix", "coords": [{"name": "x"}, {"name": "y"}],
    "excluded_index": "x", "params": {"k": 1.5, "m": 0.5},
    "domain": ["x > 0", "y > 0"],
    "relation": "k*ln(x) + ln(y) + m*ln(x + 2*y)",
    "sample_box": [[0.5, 3.0], [0.5, 3.0]],
}

# E^v dPhi/dE^v vanishes on the line v = 2, inside the box
PREFACTOR = {
    "id": "bump", "coords": [{"name": "u"}, {"name": "v"}],
    "excluded_index": "u", "relation": "u^2 + (v - 2)^2",
    "sample_box": [[0.5, 2.0], [1.0, 3.0]],
}


# a subexpression that involves no coordinate and fails on floats, in a
# domain entry and in a relation: every point of a batch fails alike
CONSTANT_OUT_OF_DOMAIN = {
    "id": "const_ln", "coords": [{"name": "x"}, {"name": "y"}],
    "excluded_index": "x", "domain": ["x > ln(0.5 - 1)", "y > 0"],
    "relation": "x*y + ln(0.5 - 1)",
    "sample_box": [[0.5, 2.0], [0.5, 2.0]],
}


def _specs():
    specs = {sid: get_system(sid) for sid in catalog_ids()}
    specs["custom"] = from_definition(CUSTOM)
    specs["bump"] = from_definition(PREFACTOR)
    specs["const_domain"] = from_definition(CONSTANT_OUT_OF_DOMAIN)
    specs["const_relation"] = from_definition(
        dict(CONSTANT_OUT_OF_DOMAIN, domain=["x > 0", "y > 0"]))
    specs["chap_s_degenerate"] = get_system("chap_s", alpha=0.0, beta=0.0)
    specs["inv_vdw_s"] = invert_representation(specs["vdw_s"], 0,
                                               solve="newton")
    specs["pl_vdw_u"] = partial_legendre(specs["vdw_u"], 0, solve="newton")
    return specs


SPECS = _specs()


def _grid(spec, count):
    """A grid over the sample box widened by half its size on each side,
    so that it reaches past the domain of most systems."""
    axes = []
    for c, (lo, hi) in zip(spec.coords, spec.sample_box):
        pad = 0.5 * (hi - lo)
        axes.append((c.name, lo - pad, hi + pad, count))
    return an.GridSpec(tuple(axes)).points()


def _single(spec, x):
    try:
        return curvature_at(spec, x).ricci_scalar
    except GeothermoError as exc:
        return type(exc)


# Products sum their terms in a fixed order whatever the batch size, so a
# batch and a single point agree to the last bit even for float ising_f,
# whose value near T -> 0 is dominated by cancellation; 1e-12 leaves room
# for a platform whose linear algebra depends on the batch size.
TOLERANCE = 1e-12


@pytest.mark.parametrize("key", sorted(SPECS))
def test_batch_matches_single_points(key):
    spec = SPECS[key]
    points = _grid(spec, 7 if key in ("inv_vdw_s", "pl_vdw_u") else 11)
    batch = curvature_at(spec, points)
    kinds = set()
    for i, x in enumerate(points):
        single = _single(spec, x)
        if isinstance(single, type):
            kinds.add(single.__name__)
            assert type(batch.faults.errors.get(i)) is single, (x, single)
            assert math.isnan(batch.ricci_scalar[i])
        else:
            assert i not in batch.faults.errors, (x, batch.faults.errors[i])
            got = batch.ricci_scalar[i]
            assert abs(got - single) <= TOLERANCE * max(1.0, abs(single)), x
    if key in ("vdw_s", "ideal_s", "custom", "inv_vdw_s"):
        assert "DomainViolation" in kinds
    if key == "chap_s_degenerate":
        assert "DegenerateMetric" in kinds
    if key == "bump":
        assert "SingularPrefactor" in kinds
    if key.startswith("const_"):
        assert len(batch.faults.errors) == len(points)
        assert kinds == {"DomainViolation"}


@pytest.mark.parametrize("key", sorted(k for k in SPECS if SPECS[k].domain))
def test_point_domain_check_matches_its_batch(key):
    # one point is a batch of one: its record must fail it with the class
    # of its row in the batch, naming the same violations
    spec = SPECS[key]
    points = _grid(spec, 11)
    batch = domain_check(spec, points)
    for i, x in enumerate(points):
        single = domain_check(spec, x)
        error = batch.errors.get(i)
        assert single.ok.tolist() == [error is None], x
        if error is not None:
            assert type(single.errors[0]) is type(error), x
            if isinstance(error, DomainViolation):
                assert single.errors[0].violations == error.violations, x


def test_boundary_point_passes_as_in_its_batch():
    # u + a/v is 2^-55 (2.8e-17) at (-0.24999999999999997, 4), exactly in
    # float64, where a/v = 1/4 is exact: the point passes the domain alone
    # and in its batch, and its value is 1.5 ln(2^-55) + ln(3).  (At
    # (-1/3, 3), the boundary point this test used before, float64 rounds
    # u + a/v to 0.)
    spec = SPECS["vdw_s"]
    x = (-0.24999999999999997, 4.0)
    assert not domain_check(spec, x).errors
    assert not domain_check(spec, np.array([x])).errors
    value = evaluate(spec, x)
    assert value == evaluate(spec, np.array([x]))[0]
    assert value == pytest.approx(-82.5 * math.log(2.0) + math.log(3.0),
                                  rel=1e-12)
    with pytest.raises(DegenerateMetric):
        curvature_at(spec, x)
    batch = curvature_at(spec, np.array([x, (2.0, 3.0)]))
    assert type(batch.faults.errors[0]) is DegenerateMetric
    assert set(batch.faults.errors) == {0}


@pytest.mark.parametrize("key", catalog_ids())
def test_point_evaluate_is_a_batch_of_one(key):
    spec = SPECS[key]
    points = an.grid_for(spec, 15).points()
    batch = evaluate(spec, points)
    for i, x in enumerate(points):
        assert evaluate(spec, x) == batch[i], x


def test_point_evaluate_fails_as_its_batch():
    spec = from_definition(dict(CUSTOM, relation="x^1e400 + y"))
    with pytest.raises(NonFinite):
        evaluate(spec, (1.5, 1.0))
    with pytest.raises(NonFinite):
        evaluate(spec, np.array([[1.5, 1.0]]))


def _kept_bytes_per_failure(call, count=20):
    """Memory that ``count`` kept failures of ``call`` hold, per failure."""
    def keep(n):
        kept = []
        for _ in range(n):
            try:
                call()
            except GeothermoError as exc:
                kept.append(exc)
        assert len(kept) == n
        return kept

    keep(2)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        kept = keep(count)
        gc.collect()
        return (tracemalloc.get_traced_memory()[0] - start) / len(kept)
    finally:
        tracemalloc.stop()


# the closed-form partial Legendre transform of vdw_u, whose point map
# fails outside v > b
VDW_F = partial_legendre(SPECS["vdw_u"], 0)
# a vdw_s grid that crosses v = b, and its points
CROSSING_GRID = an.GridSpec((("u", 0.5, 5.0, 20), ("v", 0.5, 6.0, 20)))
CROSSING_POINTS = CROSSING_GRID.points()
# a vdw_s path whose ends lie inside u + a/v > 0 and whose midpoint does not
CONVEX_GAP = [(-1.0 / 1.2 + 1e-3, 1.2), (-1.0 / 6.0 + 1e-3, 6.0)]

KEPT_FAILURES = {
    "curvature_at": lambda: curvature_at(SPECS["vdw_s"], (1.0, 0.2)),
    "metric_at": lambda: metric_at(SPECS["vdw_s"], (1.0, 0.2)),
    "evaluate": lambda: evaluate(SPECS["vdw_s"], (1.0, 0.2)),
    "evaluate_batch": lambda: evaluate(SPECS["vdw_s"],
                                       np.array([[1.0, 0.2], [1.0, 0.3]])),
    "legendre_point": lambda: legendre_point(VDW_F, (1.0, 0.5)),
    "jet_eval": lambda: jet_eval(
        lambda a: jets.ln(a[0]) + 1.0 / (a[0] - a[1]), (1.0, 1.0)),
    "fd_ricci_scalar": lambda: an.fd_ricci_scalar(SPECS["bump"], (1.0, 2.0)),
    "constant_curvature_check": lambda: an.constant_curvature_check(
        SPECS["vdw_s"], CROSSING_GRID),
    "first_law_residual": lambda: first_law_residual(SPECS["vdw_s"],
                                                     CONVEX_GAP),
    "oracle_vs_pipeline": lambda: oracle_vs_pipeline(
        "vdw_R_s", SPECS["vdw_s"], CROSSING_POINTS),
}


@pytest.mark.parametrize("name", sorted(KEPT_FAILURES))
def test_kept_failure_does_not_keep_its_batch(name):
    # a failure keeps the frames it was raised through; raised where its
    # batch (jets, metric, result) is still a local, it keeps 1.8-3.7 KB on
    # CPython 3.11 (legendre_point and the batch evaluate did), and
    # 1.1-1.6 KB when only the point's own frames remain
    assert _kept_bytes_per_failure(KEPT_FAILURES[name]) < 1700


def test_failed_stencil_node_does_not_keep_the_stencils():
    # fd_jet4 at 4 points builds 6372 stencil nodes; the failure of the
    # first node that fails lets go of them (350 KB per kept failure
    # otherwise) and keeps its frames, the points and their steps
    points = np.column_stack([np.full(4, 1e-3), np.linspace(1.0, 2.0, 4)])
    assert _kept_bytes_per_failure(
        lambda: fd.fd_jet4(lambda a: jets.ln(a[0]), points)) < 8000


def test_failed_derived_stencil_node_does_not_keep_the_stencils():
    # a Newton-derived field's nodes run as one order-0 batch: the failure
    # of its first failing node (below v = b) keeps neither the stencils
    # nor that batch
    spec = SPECS["inv_vdw_s"]
    points = np.column_stack([np.full(4, spec.sample_box[0][0]),
                              np.linspace(1.0 + 2e-4, 2.0, 4)])
    assert _kept_bytes_per_failure(
        lambda: fd.fd_jet4(spec.field, points)) < 8000


def test_kept_degenerate_metric_does_not_keep_its_chunk():
    # a DegenerateMetric carries its point's metric, so it keeps more than
    # the failures above; that metric is a copy, not views into the g, dg
    # and ddg of the whole chunk, so a failure on a grid keeps no more than
    # a single point's
    spec = SPECS["chap_s_degenerate"]
    grid = an.grid_for(spec, 16)
    on_grid = _kept_bytes_per_failure(
        lambda: an.constant_curvature_check(spec, grid))
    alone = _kept_bytes_per_failure(lambda: curvature_at(spec, (2.0, 2.0)))
    assert on_grid <= alone


# the side of the smallest square grid that spans more than two chunks and
# ends in a chunk of at least STAIRCASE_WIDTH points, whatever their sizes
CROSSING_SIDE = next(n for n in itertools.count(math.isqrt(2 * CHUNK) + 1)
                     if n * n % CHUNK >= STAIRCASE_WIDTH)


def test_batch_crosses_chunks():
    spec = get_system("vdw_s")
    points = _grid(spec, CROSSING_SIDE)
    assert len(points) > 2 * CHUNK
    whole = curvature_at(spec, points)
    for start in (0, CHUNK - 1, CHUNK, len(points) - 1):
        x = points[start]
        single = _single(spec, x)
        if isinstance(single, type):
            assert type(whole.faults.errors[start]) is single
        else:
            assert whole.ricci_scalar[start] == pytest.approx(single,
                                                              rel=1e-12)


@pytest.mark.parametrize("key", sorted(SPECS))
def test_chunk_width_changes_no_bit(key):
    # a point's result does not depend on the pass it is evaluated in: the
    # whole grid's passes sum jet products in staircase blocks, the slices'
    # in the padded rectangle
    spec = SPECS[key]
    points = _grid(spec, CROSSING_SIDE)
    assert len(points) > 2 * CHUNK
    width = 32
    assert width < STAIRCASE_WIDTH <= len(points) % CHUNK
    whole = curvature_at(spec, points)
    parts = [curvature_at(spec, points[i:i + width])
             for i in range(0, len(points), width)]
    for name in ("ricci_scalar", "det_g", "conformal_factor"):
        assert np.array_equal(getattr(whole, name), np.concatenate(
            [getattr(p, name) for p in parts]), equal_nan=True), name
    assert np.array_equal(whole.nonfinite,
                          np.concatenate([p.nonfinite for p in parts]))
    assert {i: (type(e), str(e)) for i, e in whole.faults.errors.items()} == {
        width * n + i: (type(e), str(e)) for n, p in enumerate(parts)
        for i, e in p.faults.errors.items()}


def test_one_bad_point_does_not_abort_the_batch():
    spec = get_system("chap_s", alpha=0.0, beta=0.0)
    good = get_system("chap_s")
    points = np.array([[2.0, 2.0], [1.0, 3.0]])
    assert set(curvature_at(spec, points).faults.errors) == {0, 1}
    res = curvature_at(good, points)
    assert not res.faults.errors
    assert np.all(np.isfinite(res.ricci_scalar))


def test_grid_scan_box_detections():
    # the vdw_s (u, v) box of the grid_scan benchmark crosses the singular
    # locus u v^3 = a(2v^2 - 6bv + 3b^2)
    spec = get_system("vdw_s")
    grid = an.GridSpec((("u", 0.05, 5.0, 60), ("v", 1.2, 6.0, 60)))
    rep = an.singularity_scan(spec, grid)
    assert len(rep.detections) == 7
    for d in rep.detections:
        u, v = d.refined
        if d.axis == 0:
            u_star = (2 * v * v - 6 * v + 3) / v ** 3
            dev = abs(u - u_star) / max(1.0, abs(u))
        else:
            w = v
            for _ in range(50):
                w -= ((-3 + 6 * w - 2 * w * w) + u * w ** 3) / (
                    (6 - 4 * w) + 3 * u * w * w)
            dev = abs(v - w) / max(1.0, abs(v))
        assert dev < 1e-4


ZERO_DENOMINATOR = {
    "id": "pole", "coords": [{"name": "x"}, {"name": "y"}],
    "excluded_index": "x", "domain": ["x > 0", "y > 0"],
    "relation": "ln(x) + 1/(x - y)",
    "sample_box": [[0.5, 2.0], [0.5, 2.0]],
}


def test_zero_denominator_is_a_failure_of_the_point():
    spec = from_definition(ZERO_DENOMINATOR)
    with pytest.raises(SingularDenominator):
        curvature_at(spec, (1.0, 1.0))
    grid = an.GridSpec((("x", 0.5, 2.0, 7), ("y", 0.5, 2.0, 7)))
    rep = an.singularity_scan(spec, grid)
    points = grid.points()
    diagonal = points[:, 0] == points[:, 1]
    assert np.count_nonzero(diagonal) == 7
    assert rep.failures == np.count_nonzero(diagonal)
    assert np.isnan(rep.R[diagonal]).all()


def test_zero_denominator_cli_exit(tmp_path):
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(ZERO_DENOMINATOR))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(["curvature", "--file", str(path), "--at", "x=1,y=1"])
    assert code == 1
    assert "Traceback" not in err.getvalue()
    assert "division by zero" in err.getvalue()


def test_derived_spec_solves_each_point_once(monkeypatch):
    calls = []
    solve = _ImplicitField.solve_base_point

    def counted(self, points, faults):
        calls.extend(map(tuple, points[faults.ok].tolist()))
        return solve(self, points, faults)

    monkeypatch.setattr(_ImplicitField, "solve_base_point", counted)
    s = 1.5 * math.log(2.0 + 1.0 / 3.0) + math.log(2.0)
    curvature_at(SPECS["inv_vdw_s"], (s, 3.0))
    assert calls == [(s, 3.0)]
    # a batch on a widened grid, which reaches outside the preimage of the
    # base domain: each point is among the rows solved once, and every
    # failure is a domain violation
    for key in ("inv_vdw_s", "pl_vdw_u"):
        points = _grid(SPECS[key], 12)
        calls.clear()
        res = curvature_at(SPECS[key], points)
        assert sorted(calls) == sorted(map(tuple, points.tolist())), key
        assert res.faults.errors, key
        assert {type(e) for e in res.faults.errors.values()} == {
            DomainViolation}, key


@pytest.mark.parametrize("key,closed", [("inv_vdw_s", "vdw_u"),
                                        ("pl_vdw_u", "vdw_F")])
def test_derived_batch_matches_closed_form(key, closed):
    spec = SPECS[key]
    axes = tuple((c.name, lo, hi, 9)
                 for c, (lo, hi) in zip(spec.coords, spec.sample_box))
    points = an.GridSpec(axes).points()
    derived = curvature_at(spec, points)
    exact = curvature_at(SPECS[closed], points)
    assert derived.faults.ok.all() and exact.faults.ok.all()
    assert np.allclose(derived.ricci_scalar, exact.ricci_scalar,
                       rtol=1e-9, atol=0.0)
