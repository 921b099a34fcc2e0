"""Acceptance gate: one test (and one printed verdict line) per criterion."""

import itertools
import json
import math

import numpy as np
import pytest

from geothermo import analysis as an
from geothermo import cli
from geothermo.errors import DegenerateMetric
from geothermo.geometry import curvature_at, metric_at
from geothermo.jets import fd_partial, jet_eval
from geothermo.oracle import oracle_eval, oracle_vs_pipeline
from geothermo.systems import catalog_ids, evaluate, get_system
from geothermo.transforms import to_vP


@pytest.fixture(autouse=True)
def _live_output(capfd):
    # verdict lines must reach the terminal even for passing tests
    with capfd.disabled():
        yield


def verdict(num, label, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {label}: {'PASS' if ok else 'FAIL'}{tail}",
          flush=True)
    assert ok, f"criterion {num}: {label}{tail}"


def test_criterion_01_ideal_gas_flatness():
    axis = np.linspace(0.5, 5.0, 20)
    specs = {sid: get_system(sid)
             for sid in ("ideal_s", "ideal_u", "ideal_F", "ideal_g")}
    worst = 0.0
    for u, v in itertools.product(axis, axis):
        T = 2.0 * u / 3.0
        pts = {"ideal_s": (u, v),
               "ideal_u": (evaluate(specs["ideal_s"], (u, v)), v),
               "ideal_F": (T, v),
               "ideal_g": (T, T / v)}
        for sid, pt in pts.items():
            worst = max(worst, abs(curvature_at(specs[sid], pt).ricci_scalar))
    verdict(1, "ideal-gas flatness in s/u/F/g descriptions", worst < 1e-8,
            f"max |R| = {worst:.3e}")


def test_criterion_02_metric_transcription():
    rng = np.random.default_rng(42)
    es, eu = get_system("ideal_s"), get_system("ideal_u")
    worst = 0.0

    def rel(got, want):
        return abs(got - want) / max(1e-300, abs(want))

    for _ in range(50):
        u, v = rng.uniform(0.5, 5.0, size=2)
        g = metric_at(es, (u, v)).g
        worst = max(worst, rel(g[0, 0], -1.5 / u ** 2),
                    rel(g[1, 1], -1.0 / v ** 2),
                    abs(g[0, 1]) / abs(g[1, 1]))
        s = rng.uniform(-1.0, 2.0)
        v = rng.uniform(0.5, 5.0)
        g = metric_at(eu, (s, v)).g
        worst = max(worst, rel(g[0, 0], -2.0 / 3.0),
                    rel(g[1, 1], -5.0 / (3.0 * v ** 2)),
                    rel(g[0, 1], 2.0 / (3.0 * v)))
    verdict(2, "closed-form metric transcription at 50 random points",
            worst < 1e-10, f"max rel dev = {worst:.3e}")


def test_criterion_03_vdw_representation_invariance():
    vs, vu = get_system("vdw_s"), get_system("vdw_u")
    # (u, v) -> (s(u, v), v), mapped as one batch
    rep = an.invariance_report(
        vs, vu, lambda points, faults: np.column_stack(
            [evaluate(vs, points), points[:, 1]]),
        an.grid_for(vs, 15))
    ok = rep.failures == 0 and rep.max_rel < 1e-6
    verdict(3, "vdW entropy/energy representation invariance (15x15)",
            ok, f"max rel = {rep.max_rel:.3e}")


def test_criterion_04_oracle_equivalence():
    cases = [("vdw_R_s", "vdw_s"), ("vdw_R_u", "vdw_u"),
             ("vdw_R_vP", "vdw_s"), ("vdw_R_F_Tv", "vdw_F"),
             ("chap_R_s", "chap_s"), ("chap_R_u", "chap_u")]
    signs, worst, ok = [], 0.0, True
    for oid, sid in cases:
        spec = get_system(sid)
        sign, dev = oracle_vs_pipeline(oid, spec, an.grid_for(spec, 8).points())
        signs.append(f"{oid}:{sign:+d}")
        worst = max(worst, dev)
        ok = ok and dev < 1e-6
    verdict(4, "closed-form curvature equivalence up to global sign", ok,
            f"max rel dev = {worst:.3e}; signs {' '.join(signs)}")


def test_criterion_05_singular_locus():
    ok, worst = True, 0.0
    for P_r in (0.6, 0.8, 0.95):
        rep = an.scan_vdw_vP(P_r / 27.0, (1.2, 9.0), count=241)
        ok = ok and len(rep.detections) > 0
        for d in rep.detections:
            ok = ok and d.classification == "locus"
            worst = max(worst, d.locus_deviation)
    ok = ok and worst < 1e-4
    num = oracle_eval("numR_at_critical", {"v": 3.0}, {"a": 1.0, "b": 1.0})
    ok = ok and num == pytest.approx(4.0, abs=1e-12)
    verdict(5, "divergences sit on 2ab - av + Pv^3 = 0; critical numerator = 4",
            ok, f"max locus dev = {worst:.3e}, numerator = {num:g}")


def test_criterion_06_helmholtz_non_invariance():
    vu, vF = get_system("vdw_u"), get_system("vdw_F")
    # map the energy-representation grid into (T, v) via T = du/ds
    diff = 0.0
    for pt in an.grid_for(vu, 12).points():
        T = jet_eval(vu.field, pt, 1).grad[0]
        r_u = curvature_at(vu, pt).ricci_scalar
        r_F = curvature_at(vF, (T, pt[1])).ricci_scalar
        diff = max(diff, abs(r_F - r_u))
    finite = True
    for v in (2.2, 3.0, 4.5, 6.0):
        P = (v - 2.0) / v ** 3                       # on the locus, a = b = 1
        T = (P + 1.0 / v ** 2) * (v - 1.0)
        res = curvature_at(vF, (T, v))
        finite = finite and math.isfinite(res.ricci_scalar)
    ok = diff > 0.1 and finite
    verdict(6, "Helmholtz description differs and stays finite on the locus",
            ok, f"max |R_F - R_u| = {diff:.3e}")


def test_criterion_07_chaplygin_constant_curvature():
    ok, parts = True, []
    for al, want in ((0.5, -2.25), (1.0, -2.0), (2.0, -2.25)):
        spec = get_system("chap_s", alpha=al, beta=al)
        mean, spread = an.constant_curvature_check(spec, an.grid_for(spec, 8))
        parts.append(f"alpha={al:g}: R={mean:.6f} spread={spread:.2e}")
        ok = ok and spread < 1e-8 and abs(mean - want) < 1e-8
    verdict(7, "Chaplygin alpha=beta constant curvature -(1+a)^2/(2a)", ok,
            "; ".join(parts))


def test_criterion_08_chaplygin_degeneracy():
    spec = get_system("chap_s", alpha=0.0, beta=0.0)
    grid = an.GridSpec((("u", 0.5, 5.0, 6), ("v", 0.5, 5.0, 6)))
    ok, worst = True, 0.0
    for pt in grid.points():
        try:
            metric_at(spec, pt)
        except DegenerateMetric as err:
            det = abs(err.metric.det)
            worst = max(worst, det)
            ok = ok and det < 1e-12
        else:
            ok = False
    verdict(8, "Chaplygin alpha=beta=0 metric degenerates at every point",
            ok, f"max |det g| = {worst:.3e}")


def test_criterion_09_ising_profile():
    prof = an.ising_profile(1.0, (1.0,), (0.2, 10.0), samples=24)
    curve = prof.curves[0]
    finite = bool(np.all(np.isfinite(curve.R)))
    low = [abs(r) for t, r in zip(curve.T, curve.R) if t <= 1.0]
    monotone = all(a > b for a, b in zip(low, low[1:]))
    tail = an.ising_profile(1.0, (1.0,), (50.0, 100.0), samples=8)
    R = np.asarray(tail.curves[0].R)
    variation = float((R.max() - R.min()) / abs(R.mean()))
    spec = get_system("ising_f")
    r_ad = curvature_at(spec, (1.0, 1.0)).ricci_scalar
    r_fd = an.fd_ricci_scalar(spec, (1.0, 1.0))
    agree = abs(r_ad - r_fd) <= 1e-3 * (1.0 + abs(r_ad))
    ok = finite and monotone and variation < 0.05 and agree
    verdict(9, "Ising profile: finite, low-T growth, large-T plateau, AD=FD",
            ok, f"tail variation = {variation:.3e}, "
                f"|AD-FD| = {abs(r_ad - r_fd):.3e}")


def test_criterion_10_derivative_engine():
    rng = np.random.default_rng(7)
    worst, sym_ok = 0.0, True
    for sid in catalog_ids():
        spec = get_system(sid)
        lo = np.array([b[0] for b in spec.sample_box])
        hi = np.array([b[1] for b in spec.sample_box])
        n = len(lo)
        for _ in range(20):
            x = lo + (hi - lo) * (0.1 + 0.8 * rng.random(n))
            jet = jet_eval(spec.field, x, 4)
            sym_ok = sym_ok and np.allclose(jet.hess, jet.hess.T)
            for perm in itertools.permutations(range(3)):
                sym_ok = sym_ok and np.allclose(
                    jet.third, np.transpose(jet.third, perm))
            for perm in itertools.permutations(range(4)):
                sym_ok = sym_ok and np.allclose(
                    jet.fourth, np.transpose(jet.fourth, perm))
            tensors = {1: jet.grad, 2: jet.hess, 3: jet.third, 4: jet.fourth}
            for order in range(1, 5):
                for idx in itertools.combinations_with_replacement(
                        range(n), order):
                    ad = float(tensors[order][idx])
                    fd = fd_partial(spec.field, x, idx)
                    worst = max(worst,
                                abs(ad - fd) / (1.0 + abs(ad)))
    ok = worst < 1e-4 and sym_ok
    verdict(10, "jet derivatives through order 4 agree with finite differences",
            ok, f"max rel dev = {worst:.3e}")


def test_criterion_11_homogeneity_detector():
    one = an.homogeneity_degree(lambda x: x[0] * x[1] / (x[0] + x[1]),
                                (1.0, 2.0))
    three = an.homogeneity_degree(lambda x: x[0] ** 2 * x[1], (1.0, 2.0))
    spec = get_system("ideal_s")
    molar = an.homogeneity_degree(lambda x: evaluate(spec, x), (1.0, 2.0))
    ok = (one.is_homogeneous and one.degree == 1.0
          and one.max_residual < 1e-10
          and three.is_homogeneous and three.degree == 3.0
          and three.max_residual < 1e-10
          and not molar.is_homogeneous)
    verdict(11, "homogeneity detector: degrees 1 and 3 found, molar s rejected",
            ok, f"residuals {one.max_residual:.1e}, {three.max_residual:.1e}")


def test_criterion_12_cli_determinism(tmp_path, monkeypatch):
    import contextlib
    import io

    def quiet(argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert quiet(["figure", "--recipe", "vdW1", "-o", str(a)]) == 0
    assert quiet(["figure", "--recipe", "vdW1", "-o", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    codes = {
        0: quiet(["check", "homogeneity"]),
        1: quiet(["curvature", "--at", "u=1,v=1"]),
        2: quiet(["curvature", "--system", "vdw_s", "--at", "u=1,v=0.5"]),
        3: quiet(["curvature", "--system", "chap_s",
                  "--param", "alpha=0,beta=0", "--at", "u=2,v=2"]),
    }
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.cmd_figure(type("A", (), {"recipe": "vdW1",
                                          "output": "/nonexistent/x.csv"})())
    codes[4] = exc.value.code
    monkeypatch.setitem(cli.SUITES, "doomed",
                        lambda: [{"check": "doomed", "pass": False}])
    codes[5] = quiet(["check", "doomed"])
    matrix_ok = all(got == want for want, got in codes.items())
    ok = identical and matrix_ok
    verdict(12, "CLI determinism and exit-code matrix", ok,
            f"byte-identical = {identical}, codes = {codes}")
