"""Extended precision is the shared pipeline with an mpmath backend.

The Ising curvature is checked against the committed extended-precision
reference table, which is computed independently of the package (Brioschi's
formula on mpmath derivatives, perfbench/reference.py).
"""

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from geothermo import analysis as an
from geothermo import cli
from geothermo import jets
from geothermo.errors import (DomainViolation, PreconditionFailure,
                              SingularDenominator)
from geothermo.geometry import curvature_at
from geothermo.jets import MPMATH, Faults, jet_eval
from geothermo.systems import from_definition, get_system
from geothermo.transforms import invert_representation

REF = json.loads((Path(__file__).resolve().parents[1]
                  / "perfbench" / "ising_ref.json").read_text())
ROWS = [(T, H, R) for H, Rs in zip(REF["H"], REF["R"])
        for T, R in list(zip(REF["T"], Rs))[::8]]


@pytest.mark.parametrize("T,H,R", ROWS)
def test_ising_curvature_matches_reference(T, H, R):
    assert an.ising_curvature(T, H, REF["J"]) == pytest.approx(R, rel=1e-9)


@pytest.mark.parametrize("T,H", [(0.2, 2.0), (0.5253, 1.8), (1.0, 1.0),
                                 (10.0, 0.5)])
def test_ising_curvature_is_the_shared_pipeline(T, H):
    res = curvature_at(get_system("ising_f"), (T, H),
                       dps=an.ising_dps(1, H, T))
    assert res.ricci_scalar == an.ising_curvature(T, H)
    assert isinstance(res.ricci_scalar, float)


# R at full repr as the mpmath jet products summed by mpf_mul and mpf_sum
# gave it (commit 15fc047), across the working precisions the Ising path
# takes; the reference table above only checks to 1e-9
@pytest.mark.parametrize("T,H,R,dps", [
    (12.0, 0.25, -1.9999996343578486, 30),
    (1.0, 1.0, 149.4963155431868, 37),
    (0.3, -0.7, 1001833104.0015721, 51),
    (0.2, 2.0, 2.569516622966039e+25, 77),
    (0.08, 0.3, 3.1068259075010774e+27, 99),
    (0.06, 0.05, 8.917210051574066e+28, 111)])
def test_ising_curvature_keeps_its_bits(T, H, R, dps):
    assert an.ising_dps(1.0, H, T) == dps
    assert repr(an.ising_curvature(T, H)) == repr(R)


THREE = {"id": "three",
         "coords": [{"name": "x"}, {"name": "y"}, {"name": "z"}],
         "excluded_index": "x", "domain": ["x > 0", "y > 0", "z > 0"],
         "relation": "1.5*ln(x) + ln(y) + 0.7*ln(z) + 0.3*ln(x + 2*y + z)"}


@pytest.mark.parametrize("key,x", [("vdw_s", (2.0, 3.0)),
                                   ("three", (0.7, 1.1, 2.5))])
def test_mpmath_pipeline_agrees_with_float_on_a_float_safe_system(key, x):
    # three coordinates take the cofactor determinant and inverse past 2x2
    spec = from_definition(THREE) if key == "three" else get_system(key)
    r_float = curvature_at(spec, x).ricci_scalar
    r_mp = curvature_at(spec, x, dps=30).ricci_scalar
    assert r_mp == pytest.approx(r_float, rel=1e-12)
    assert r_mp != 0.0


def test_mpmath_batch_matches_single_points():
    spec = get_system("vdw_s")
    pts = np.array([[2.0, 3.0], [0.5, 1.5], [1.0, 0.5], [4.0, 5.0]])
    res = curvature_at(spec, pts, dps=30)
    assert res.ricci_scalar.dtype == float
    assert math.isnan(res.ricci_scalar[2])          # v < b
    assert isinstance(res.faults.errors[2], DomainViolation)
    for i in (0, 1, 3):
        single = curvature_at(spec, pts[i], dps=30).ricci_scalar
        assert res.ricci_scalar[i] == single


def _wide_grid(spec, count=5):
    """The sample box widened by half its size on each side."""
    axes = [(c.name, lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo), count)
            for c, (lo, hi) in zip(spec.coords, spec.sample_box)]
    return an.GridSpec(tuple(axes)).points()


@pytest.mark.parametrize("key", ["vdw_s", "prefactor", "degenerate",
                                 "inverted"])
def test_mpmath_pipeline_fails_where_the_float_pipeline_fails(key):
    # domain violations, a vanishing conformal prefactor, a degenerate
    # metric, and a Newton-derived spec whose jets carry the backend
    if key == "prefactor":
        spec = from_definition({
            "id": "bump", "coords": [{"name": "u"}, {"name": "v"}],
            "excluded_index": "u", "relation": "u^2 + (v - 2)^2",
            "sample_box": [[0.5, 2.0], [1.0, 3.0]]})
    elif key == "degenerate":
        spec = get_system("chap_s", alpha=0.0, beta=0.0)
    elif key == "inverted":
        spec = invert_representation(get_system("vdw_s"), 0, solve="newton")
    else:
        spec = get_system(key)
    pts = _wide_grid(spec)
    f = curvature_at(spec, pts)
    m = curvature_at(spec, pts, dps=30)
    assert not f.faults.ok.all()
    for i in range(len(pts)):
        assert type(m.faults.errors.get(i)) is type(f.faults.errors.get(i))
    ok = f.faults.ok
    np.testing.assert_allclose(m.ricci_scalar[ok], f.ricci_scalar[ok],
                               rtol=1e-9)


def test_ising_float_path_misses_where_mpmath_does_not():
    # the reason for the mpmath backend: at T = 0.2, H = 2 the curvature
    # lives in terms of size exp(-(4J + 2H)/T).  The cancellation-free
    # relation carries them with small relative error, so float64 R comes
    # within 1e-4 of the reference, but not within the reference table's
    # 1e-9, and |R| > 1e12 flags it as untrusted
    T, H = 0.2, 2.0
    R = dict(zip(REF["T"], REF["R"][REF["H"].index(H)]))[T]
    float_res = curvature_at(get_system("ising_f"), (T, H))
    assert float_res.nonfinite
    assert 1e-9 * abs(R) < abs(float_res.ricci_scalar - R) < 1e-4 * abs(R)
    assert an.ising_curvature(T, H) == pytest.approx(R, rel=1e-12)


# ---- failure classes under the mpmath backend ----------------------------


def mp_jet(field, x, faults=None):
    with mp.workdps(30):
        return jet_eval(field, x, 4, faults, MPMATH)


@pytest.mark.parametrize("field,error", [
    (lambda a: jets.ln(a[0] - a[1]), DomainViolation),
    (lambda a: jets.sqrt(a[0] - a[1]), DomainViolation),
    (lambda a: (a[0] - a[1]) ** 0.5, DomainViolation),
    (lambda a: 1.0 / (a[0] - a[1]), SingularDenominator),
    (lambda a: a[1] / (a[0] - 1.0), SingularDenominator),
    (lambda a: (a[0] - a[1]) ** -2, SingularDenominator),
])
def test_mpmath_failures_raise_the_float_classes(field, error):
    with pytest.raises(error):
        mp_jet(field, (1.0, 1.0))
    with pytest.raises(error):
        jet_eval(field, (1.0, 1.0), 4)


def test_mpmath_failures_are_per_point_in_a_batch():
    def field(a):
        return jets.ln(a[0]) + 1.0 / (a[0] - a[1])

    pts = np.array([[2.0, 1.0], [-1.0, 0.0], [3.0, 3.0], [1.5, 0.5]])
    faults = Faults(len(pts))
    out = mp_jet(field, pts, faults)
    assert faults.ok.tolist() == [True, False, False, True]
    assert isinstance(faults.errors[1], DomainViolation)
    assert isinstance(faults.errors[2], SingularDenominator)
    assert out.value.dtype == object
    good = jet_eval(field, pts[[0, 3]], 4)
    for row, i in ((0, 0), (1, 3)):
        assert float(out.value[i]) == pytest.approx(good.value[row],
                                                    rel=1e-15)
        np.testing.assert_allclose(out.fourth[i].astype(float),
                                   good.fourth[row], rtol=1e-12)


def test_ising_guards_hold_before_the_pipeline():
    with pytest.raises(PreconditionFailure):
        an.ising_curvature(an.ISING_T_CUTOFF / 2, 1.0)
    with pytest.raises(PreconditionFailure):
        an.ising_curvature(1.0, 0.0)
    # the guards stand in for the domain check: R is even in H
    assert an.ising_curvature(0.4, -1.5) == pytest.approx(
        an.ising_curvature(0.4, 1.5), rel=1e-12)


def test_ising_figure_is_the_reference_table(tmp_path):
    # the whole figure, through the CLI: its header, 60 rows, and every T
    # and R at full repr as the committed reference holds them
    out = tmp_path / "ising.csv"
    assert cli.main(["figure", "--recipe", "ising", "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[:2] == [
        '# figure ising {"H": [0.5, 1.0, 1.5, 2.0], "J": 1.0, '
        '"T": [0.2, 10.0], "samples": 60}',
        "T,R_H0.5,R_H1,R_H1.5,R_H2"]
    rows = [[float(cell) for cell in line.split(",")] for line in lines[2:]]
    assert len(rows) == 60 and {len(row) for row in rows} == {5}
    T, *R = zip(*rows)
    assert list(map(repr, T)) == list(map(repr, REF["T"]))
    assert [list(map(repr, curve)) for curve in R] == [
        list(map(repr, curve)) for curve in REF["R"]]
