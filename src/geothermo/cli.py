"""Command-line front end.

Subcommands: ``curvature`` (one point, JSON), ``scan`` (grid CSV plus a JSON
sidecar of refined singular loci), ``figure`` (canned CSV recipes for the
three reference figures), ``check`` (validation suites, the paper's
acceptance criteria among them).

Exit codes: 1 usage/parse errors, 2 domain violations, 3 degenerate metric,
4 unwritable output path, 5 failed check suite.

All CSV output is deterministic: floats at 17 significant digits, '\n' line
endings, fixed iteration order, and a '#' header line recording the recipe
parameters.  Grids and figure rows are evaluated as batches in one thread;
a scan's rows are formatted from the arrays of its report, a figure's from
its columns, and each CSV is written by one ``writelines`` call.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain, permutations, product

import numpy as np

from . import analysis, oracle, systems, transforms
from .errors import (DegenerateMetric, DomainViolation, GeothermoError,
                     ParseError)
from .geometry import curvature_at, metric_at
from .jets import fd_jet4, jet_eval
from .systems import evaluate, get_system

FMT = "%.17g"


def _map(fn, items):
    """Ordered map over figure batches.

    A plain loop; it stays a named function because the benchmark's tracer
    (``perfbench/tracing.py``) resolves ``cli._map`` to time each row batch.
    """
    return [fn(it) for it in items]


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# ---- flag parsing helpers ------------------------------------------------


def _parse_kv(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise _Usage(f"expected name=value, got {part!r}")
        k, v = part.split("=", 1)
        k = k.strip()
        if k in out:
            raise _Usage(f"{k!r} is set twice in {text!r}")
        try:
            out[k] = float(v)
        except ValueError:
            raise _Usage(f"bad value {v!r} for {k!r}")
    if not out:
        raise _Usage(f"no assignments in {text!r}")
    return out


def _params(args) -> dict:
    params = {}
    for p in args.param or ():
        kv = _parse_kv(p)
        twice = set(kv) & set(params)
        if twice:
            raise _Usage(f"--param sets {sorted(twice)} more than once")
        params.update(kv)
    for name, value in params.items():
        if not math.isfinite(value):
            raise _Usage(f"--param {name} must be finite, got {value!r}")
    return params


def _load_system(args):
    params = _params(args)
    if args.file:
        try:
            with open(args.file) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise _Usage(f"cannot load system file {args.file}: {e}")
        # merge the overrides into the document so the system is built
        # once; a document or 'params' that is not an object is left to
        # from_definition, which rejects it
        known = doc.get("params", {}) if isinstance(doc, dict) else None
        if params and isinstance(known, dict):
            unknown = set(params) - set(known)
            if unknown:
                raise _Usage(f"system has no parameter(s) {sorted(unknown)}")
            doc = dict(doc, params=dict(known, **params))
        return systems.from_definition(doc)
    try:
        return get_system(args.system, **params)
    except KeyError as e:
        # str() of a KeyError quotes its message
        raise _Usage(e.args[0])


def _point_for(spec, text):
    kv = _parse_kv(text)
    names = spec.coord_names()
    missing = set(names) - set(kv)
    extra = set(kv) - set(names)
    if missing or extra:
        raise _Usage(
            f"point must set exactly {names}; missing {sorted(missing)}, "
            f"unknown {sorted(extra)}")
    for name in names:
        if not math.isfinite(kv[name]):
            raise _Usage(f"--at {name} must be finite, got {kv[name]!r}")
    return [kv[n] for n in names]


def _parse_axes(grid_flags, coord_names):
    axes, repeated = {}, set()
    for flag in grid_flags:
        if "=" not in flag or flag.count(":") != 2:
            raise _Usage(f"grid flag must be name=lo:hi:count, got {flag!r}")
        name, rng = flag.split("=", 1)
        lo, hi, count = rng.split(":")
        try:
            axis = analysis.Axis(name.strip(), float(lo), float(hi),
                                 int(count))
        except ValueError:
            raise _Usage(f"bad grid flag {flag!r}")
        if not (math.isfinite(axis.lo) and math.isfinite(axis.hi)):
            raise _Usage(f"grid bounds must be finite, got {flag!r}")
        if axis.name in axes:
            repeated.add(axis.name)
        axes[axis.name] = axis
    missing = set(coord_names) - set(axes)
    unknown = set(axes) - set(coord_names)
    if missing or unknown or repeated:
        raise _Usage(
            f"grid must set each of {coord_names} once; missing "
            f"{sorted(missing)}, unknown {sorted(unknown)}, repeated "
            f"{sorted(repeated)}")
    # the (count, n) float64 array of the points must be addressable
    count = math.prod(max(axes[n].count, 0) for n in coord_names)
    if count * len(coord_names) > sys.maxsize // 8:
        raise _Usage(f"grid of {count} points is too large")
    return analysis.GridSpec(tuple(axes[n] for n in coord_names))


def _write_out(path, lines):
    """Write the strings of ``lines`` in one ``writelines`` call to
    ``path``, or to stdout when ``path`` is None or '-'; True when they
    went to a file."""
    if path in (None, "-"):
        sys.stdout.writelines(lines)
        return False
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(lines)
    except OSError as e:
        print(f"cannot write {path}: {e}", file=sys.stderr)
        raise SystemExit(4)
    return True


# ---- curvature -----------------------------------------------------------


def cmd_curvature(args) -> int:
    spec = _load_system(args)
    x = _point_for(spec, args.at)
    res = curvature_at(spec, x)
    doc = {
        "system": spec.id,
        "point": {n: v for n, v in zip(spec.coord_names(), x)},
        "ricci_scalar": res.ricci_scalar,
        "det_g": res.det_g,
        "conformal_factor": res.conformal_factor,
        "degenerate": res.degenerate,
        "nonfinite": res.nonfinite,
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


# ---- scan ----------------------------------------------------------------


def cmd_scan(args) -> int:
    if not (math.isfinite(args.threshold) and args.threshold > 0.0):
        raise _Usage(f"--threshold must be finite and positive, "
                     f"got {args.threshold!r}")
    if args.system == "vdw_vP":
        return _scan_vdw_vP(args)
    spec = _load_system(args)
    grid = _parse_axes(args.grid, spec.coord_names())
    report = analysis.singularity_scan(spec, grid, args.threshold)
    _write_scan(args, report, spec.coord_names(), meta={
        "system": spec.id, "threshold": args.threshold})
    return 0


def _scan_vdw_vP(args) -> int:
    params = _params(args)
    unknown = set(params) - {"a", "b"}
    if unknown:
        raise _Usage(f"vdw_vP has no parameter(s) {sorted(unknown)}")
    a = params.get("a", 1.0)
    b = params.get("b", 1.0)
    grid = _parse_axes(args.grid, ("v", "P"))
    v_axis, P_axis = grid.axes
    if P_axis.count != 1:
        raise _Usage("vdw_vP scans a fixed-pressure line: P axis count must be 1")
    report = analysis.scan_vdw_vP(P_axis.lo, (v_axis.lo, v_axis.hi),
                                  v_axis.count, a=a, b=b,
                                  blowup_threshold=args.threshold)
    _write_scan(args, report, ("v", "P"), meta={
        "system": "vdw_vP", "a": a, "b": b, "threshold": args.threshold})
    return 0


def _write_scan(args, report, names, meta):
    # a row's coordinates are the product of the axis values, so each
    # axis value is formatted once
    axes = [[FMT % c + "," for c in a.values().tolist()]
            for a in report.grid.axes]
    row = "%s" + FMT + ",%d\n"
    # the rows are formatted as they are written: the whole CSV held as one
    # string raised the grid_scan benchmark's peak RSS by about 0.5 MB
    to_file = _write_out(args.output, chain(
        ["# scan " + json.dumps(meta, sort_keys=True) + "\n",
         ",".join(names) + ",R,nonfinite\n"],
        (row % ("".join(coords), r, flag) for coords, r, flag in zip(
            product(*axes), report.R.tolist(), report.nonfinite.tolist()))))
    loci = {
        "detections": [
            {"refined": list(d.refined), "axis": d.axis,
             "classification": d.classification,
             "locus_deviation": d.locus_deviation}
            for d in report.detections],
        "locus_points": [list(p) for p in report.locus_points],
        "max_locus_dev": report.max_locus_dev,
        "failures": report.failures,
    }
    if to_file:
        _write_out(args.output + ".loci.json",
                   [json.dumps(loci, sort_keys=True, indent=1) + "\n"])
    else:
        print(json.dumps(loci, sort_keys=True))


# ---- figures -------------------------------------------------------------

VDW_PR = 0.8            # slice below the critical pressure: two real roots
VDW_VR_RANGE = (0.4, 3.0)
VDW_SAMPLES = 241
ISING_H = (0.5, 1.0, 1.5, 2.0)
ISING_T_RANGE = (0.2, 10.0)
ISING_SAMPLES = 60


def _vdw_figure_rows(which):
    a = b = 1.0
    P = VDW_PR * a / (27.0 * b * b)
    vdw_s = get_system("vdw_s")
    vdw_u = get_system("vdw_u")
    vrs = np.linspace(VDW_VR_RANGE[0], VDW_VR_RANGE[1], VDW_SAMPLES)

    def curvature(spec, *columns):
        res = curvature_at(spec, np.column_stack(columns))
        res.faults.raise_first()
        return res.ricci_scalar

    def columns(v_r):
        v = 3.0 * b * v_r
        u = transforms.u_from_vP(v, P, a, b)
        points = np.column_stack([u, v])
        # s and ds/du = 1/T from one domain-checked order-1 evaluation
        jet = jet_eval(vdw_s.field, points, 1,
                       systems.domain_check(vdw_s, points))
        jet.faults.raise_first()
        Ru = curvature(vdw_u, jet.value, v)
        if which == "vdW1":
            cols = (v_r, curvature(vdw_s, u, v), Ru)
        else:
            cols = (v_r, Ru, curvature(get_system("vdw_F"),
                                       jet.grad[:, 0] ** -1.0, v))
        return [c.tolist() for c in cols]

    # one batch for the whole figure
    return _map(columns, [vrs])[0]


def _ising_figure_rows():
    prof = analysis.ising_profile(1.0, ISING_H, ISING_T_RANGE,
                                  samples=ISING_SAMPLES)
    # one curve per field strength, in ISING_H order
    return [prof.curves[0].T] + [c.R for c in prof.curves]


# each recipe's "columns" gives one list of floats per header name
FIGURES = {
    "vdW1": {
        "header": ("v_r", "R_entropy", "R_energy"),
        "meta": {"P_r": VDW_PR, "a": 1.0, "b": 1.0,
                 "v_r": list(VDW_VR_RANGE), "samples": VDW_SAMPLES},
        "columns": lambda: _vdw_figure_rows("vdW1"),
    },
    "vdW2": {
        "header": ("v_r", "R_energy", "R_Helmholtz"),
        "meta": {"P_r": VDW_PR, "a": 1.0, "b": 1.0,
                 "v_r": list(VDW_VR_RANGE), "samples": VDW_SAMPLES},
        "columns": lambda: _vdw_figure_rows("vdW2"),
    },
    "ising": {
        "header": ("T",) + tuple(f"R_H{h:g}" for h in ISING_H),
        "meta": {"J": 1.0, "H": list(ISING_H), "T": list(ISING_T_RANGE),
                 "samples": ISING_SAMPLES},
        "columns": _ising_figure_rows,
    },
}


def cmd_figure(args) -> int:
    recipe = FIGURES.get(args.recipe)
    if recipe is None:
        raise _Usage(f"unknown recipe {args.recipe!r} "
                     f"(have {', '.join(FIGURES)})")
    columns = recipe["columns"]()
    row = ",".join([FMT] * len(columns)) + "\n"
    _write_out(args.output, chain(
        ["# figure " + args.recipe + " "
         + json.dumps(recipe["meta"], sort_keys=True) + "\n",
         ",".join(recipe["header"]) + "\n"],
        (row % values for values in zip(*columns))))
    return 0


# ---- check suites --------------------------------------------------------
#
# A suite is a zero-argument callable that returns rows: {"check": name,
# <measured values>, "pass": bool}.  The ``criteria`` suite holds the
# paper's acceptance criteria 1-11, which reuse the other suites' rows
# where they make the same comparison; tests/test_acceptance.py runs each
# criterion's row as a test.

# the closed-form curvatures, each with the catalog system it checks
CURVATURE_ORACLES = (("vdw_R_s", "vdw_s"), ("vdw_R_u", "vdw_u"),
                     ("vdw_R_vP", "vdw_s"), ("vdw_R_F_Tv", "vdw_F"),
                     ("chap_R_s", "chap_s"), ("chap_R_u", "chap_u"))


def _oracle_row(oid, spec, tol=1e-6):
    sign, dev = oracle.oracle_vs_pipeline(
        oid, spec, analysis.grid_for(spec, 8).points())
    return {"check": f"oracle:{oid}", "sign": sign, "deviation": dev,
            "tolerance": tol, "pass": dev < tol}


def _check_oracle():
    chap = {"alpha": 2.0, "beta": 1.0}
    return [_oracle_row(oid, get_system(sid, **(
        chap if sid.startswith("chap") else {})))
        for oid, sid in CURVATURE_ORACLES] + [
        _oracle_row("chap_det", get_system("chap_u")),
        _oracle_row("ideal_zero", get_system("ideal_s"), 1e-8)]


def _invariance_row(base, partner, count, key, passes, note=""):
    """The row comparing R of ``base`` and ``partner`` on a count x count
    grid of the base, and its report.

    Each partner is the library's transform of its base, reached through
    the point map the transform records."""
    rep = analysis.invariance_report(base, partner,
                                     partner.meta["point_map"],
                                     analysis.grid_for(base, count))
    dev = getattr(rep, key)
    return {"check": f"invariance:{base.id}~{partner.id}{note}",
            key: dev, "pass": passes(dev)}, rep


def _inverse(spec):
    return transforms.invert_representation(spec, 0, solve="closed")


def _vdw_invariance_row():
    vs = get_system("vdw_s")
    return _invariance_row(vs, _inverse(vs), 15, "max_rel",
                           lambda d: d < 1e-6)


def _check_invariance():
    is_, vu = get_system("ideal_s"), get_system("vdw_u")
    cs = get_system("chap_s", alpha=2.0, beta=1.0)
    return [row for row, _ in (
        _vdw_invariance_row(),
        _invariance_row(is_, _inverse(is_), 15, "max_abs",
                        lambda d: d < 1e-8),
        _invariance_row(cs, _inverse(cs), 10, "max_rel",
                        lambda d: d < 1e-6),
        _invariance_row(vu, transforms.partial_legendre(vu, 0,
                                                        solve="closed"),
                        15, "max_abs", lambda d: d > 0.1,
                        " (intentionally different)"))]


def _check_homogeneity():
    def fit(fieldval):
        return analysis.homogeneity_degree(fieldval, (1.0, 2.0))

    fits = ((1, fit(lambda x: x[0] * x[1] / (x[0] + x[1]))),
            (3, fit(lambda x: x[0] ** 2 * x[1])))
    molar = fit(lambda x: evaluate(get_system("ideal_s"), x))
    return [{"check": f"homogeneity:degree-{d}", "degree": r.degree,
             "pass": r.is_homogeneous and r.degree == d
             and r.max_residual < 1e-10} for d, r in fits] + [
        {"check": "homogeneity:ideal_s-rejected",
         "residual": molar.max_residual, "pass": not molar.is_homogeneous}]


def _criterion(num, ok, **measured):
    return {"check": f"criterion:{num:02d}", **measured, "pass": bool(ok)}


def _max_abs(values):
    # NaN, the value at a failed point, propagates and fails the bound
    return float(np.abs(values).max())


def _criterion_01():
    # ideal gas: R = 0 in the entropy, energy, Helmholtz and Gibbs
    # descriptions of the same 20 x 20 states
    grid = analysis.GridSpec((("u", 0.5, 5.0, 20), ("v", 0.5, 5.0, 20)))
    u, v = grid.points().T
    T = 2.0 * u / 3.0
    s = evaluate(get_system("ideal_s"), np.column_stack([u, v]))
    worst = max(_max_abs(curvature_at(get_system(sid), np.column_stack(
        cols)).ricci_scalar) for sid, cols in (
        ("ideal_s", (u, v)), ("ideal_u", (s, v)), ("ideal_F", (T, v)),
        ("ideal_g", (T, T / v))))
    return _criterion(1, worst < 1e-8, max_abs_R=worst)


def _criterion_02():
    # the ideal-gas metrics against their closed forms at 50 random points
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
    return _criterion(2, worst < 1e-10, max_rel_dev=float(worst))


def _criterion_03():
    # the invariance suite's van der Waals row, with no failed point
    row, rep = _vdw_invariance_row()
    return _criterion(3, row["pass"] and rep.failures == 0,
                      max_rel=rep.max_rel, failures=rep.failures)


def _criterion_04():
    # the closed-form curvatures at the catalog parameters
    rows = [_oracle_row(oid, get_system(sid))
            for oid, sid in CURVATURE_ORACLES]
    return _criterion(4, all(r["pass"] for r in rows),
                      max_rel_dev=max(r["deviation"] for r in rows),
                      signs={oid: r["sign"] for (oid, _), r in zip(
                          CURVATURE_ORACLES, rows)})


def _criterion_05():
    # divergences of R(v, P) at three sub-critical pressures lie on
    # 2ab - av + Pv^3 = 0, and R's numerator at the critical point is 4
    ok, worst = True, 0.0
    for P_r in (0.6, 0.8, 0.95):
        found = analysis.scan_vdw_vP(P_r / 27.0, (1.2, 9.0),
                                     count=241).detections
        ok = ok and bool(found) and all(d.classification == "locus"
                                        for d in found)
        worst = max([worst] + [d.locus_deviation for d in found
                               if d.classification == "locus"])
    (_, _, num), = analysis.locus_numerator_check(1.0, 1.0,
                                                  [(3.0, 1.0 / 27.0)])
    return _criterion(5, ok and worst < 1e-4 and abs(num - 4.0) <= 1e-12,
                      max_locus_dev=worst, numerator=num)


def _criterion_06():
    # the Helmholtz description's R differs from the energy one's at the
    # same states, and stays finite on the locus 2ab - av + Pv^3 = 0
    vu, vF = get_system("vdw_u"), get_system("vdw_F")
    points = analysis.grid_for(vu, 12).points()
    T = jet_eval(vu.field, points, 1,
                 systems.domain_check(vu, points)).grad[:, 0]   # T = du/ds
    r_u = curvature_at(vu, points).ricci_scalar
    r_F = curvature_at(vF, np.column_stack([T, points[:, 1]])).ricci_scalar
    diff = _max_abs(r_F - r_u)
    v = np.array([2.2, 3.0, 4.5, 6.0])
    P = (v - 2.0) / v ** 3                      # on the locus, a = b = 1
    locus = curvature_at(vF, np.column_stack([(P + 1.0 / v ** 2) * (v - 1.0),
                                              v])).ricci_scalar
    return _criterion(6, diff > 0.1 and np.isfinite(locus).all(),
                      max_abs_diff=diff)


def _criterion_07():
    # Chaplygin alpha = beta: R = -(1 + alpha)^2 / (2 alpha) everywhere
    means, spreads = [], []
    for al in (0.5, 1.0, 2.0):
        spec = get_system("chap_s", alpha=al, beta=al)
        mean, spread = analysis.constant_curvature_check(
            spec, analysis.grid_for(spec, 8))
        means.append(mean)
        spreads.append(spread)
    ok = all(s < 1e-8 and abs(m - want) < 1e-8
             for m, s, want in zip(means, spreads, (-2.25, -2.0, -2.25)))
    return _criterion(7, ok, R=means, spread=spreads)


def _criterion_08():
    # Chaplygin alpha = beta = 0: the metric degenerates at every point
    spec = get_system("chap_s", alpha=0.0, beta=0.0)
    grid = analysis.GridSpec((("u", 0.5, 5.0, 6), ("v", 0.5, 5.0, 6)))
    m = metric_at(spec, grid.points())
    worst = _max_abs(m.det)
    return _criterion(8, worst < 1e-12 and all(
        isinstance(m.faults.errors.get(i), DegenerateMetric)
        for i in range(len(m.det))), max_abs_det=worst)


def _criterion_09():
    # Ising: R finite, |R| growing as T falls below 1, a plateau at large
    # T, and the jet R against the finite-difference R at (T, H) = (1, 1)
    curve = analysis.ising_profile(1.0, (1.0,), (0.2, 10.0),
                                   samples=24).curves[0]
    low = [abs(r) for t, r in zip(curve.T, curve.R) if t <= 1.0]
    R = np.array(analysis.ising_profile(1.0, (1.0,), (50.0, 100.0),
                                        samples=8).curves[0].R)
    variation = float((R.max() - R.min()) / abs(R.mean()))
    spec = get_system("ising_f")
    r_ad = curvature_at(spec, (1.0, 1.0)).ricci_scalar
    gap = abs(r_ad - analysis.fd_ricci_scalar(spec, (1.0, 1.0)))
    ok = (all(map(math.isfinite, curve.R))
          and all(a > b for a, b in zip(low, low[1:]))
          and variation < 0.05 and gap <= 1e-3 * (1.0 + abs(r_ad)))
    return _criterion(9, ok, tail_variation=variation, ad_fd_gap=gap)


def _criterion_10():
    # jet partials through order 4 are symmetric and agree with nested
    # central differences at 20 random points of each catalog system
    rng = np.random.default_rng(7)
    worst, symmetric = 0.0, True
    for sid in systems.catalog_ids():
        spec = get_system(sid)
        lo, hi = np.array(spec.sample_box).T
        x = lo + (hi - lo) * (0.1 + 0.8 * rng.random((20, len(lo))))
        jet = jet_eval(spec.field, x, 4, systems.domain_check(spec, x))
        jet.faults.raise_first()
        fd = fd_jet4(spec.field, x)
        for order, name in enumerate(("grad", "hess", "third", "fourth"), 1):
            ad = getattr(jet, name)
            symmetric = symmetric and all(
                np.allclose(ad, np.transpose(ad, (0, *p)))
                for p in permutations(range(1, order + 1)))
            worst = max(worst, float(np.max(
                abs(ad - getattr(fd, name)) / (1.0 + abs(ad)))))
    return _criterion(10, worst < 1e-4 and symmetric, max_rel_dev=worst)


def _criterion_11():
    # the homogeneity suite's rows
    one, three, molar = _check_homogeneity()
    return _criterion(11, one["pass"] and three["pass"] and molar["pass"],
                      degrees=[one["degree"], three["degree"]],
                      ideal_s_residual=molar["residual"])


CRITERIA = (_criterion_01, _criterion_02, _criterion_03, _criterion_04,
            _criterion_05, _criterion_06, _criterion_07, _criterion_08,
            _criterion_09, _criterion_10, _criterion_11)


def _rows(check, compute):
    # the rows of compute(), or, when it raises a library error (a domain
    # violation at one of its points, say), one FAIL row named ``check``
    try:
        return compute()
    except GeothermoError as exc:
        return [{"check": check, "error": f"{type(exc).__name__}: {exc}",
                 "pass": False}]


def _check_criteria():
    # a criterion that raises fails as its own row
    return [row for num, criterion in enumerate(CRITERIA, 1)
            for row in _rows(f"criterion:{num:02d}", lambda: [criterion()])]


SUITES = {
    "oracle": _check_oracle,
    "invariance": _check_invariance,
    "homogeneity": _check_homogeneity,
    "criteria": _check_criteria,
}


def cmd_check(args) -> int:
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        raise _Usage(f"unknown suite {args.suite!r} "
                     f"(have {', '.join(SUITES)}, all)")
    # a suite that raises fails as one row, and the suites after it run
    rows = [row for name in names for row in _rows(name, SUITES[name])]
    for row in rows:
        status = "PASS" if row["pass"] else "FAIL"
        detail = " ".join(f"{k}={v}" for k, v in row.items()
                          if k not in ("check", "pass"))
        print(f"[{status}] {row['check']} {detail}")
    ok = all(row["pass"] for row in rows)
    print(json.dumps({"suites": names, "checks": rows, "pass": ok},
                     sort_keys=True, default=str))
    return 0 if ok else 5


# ---- entry point ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="geothermo",
                     description="curvature of thermodynamic state spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_system_flags(p):
        p.add_argument("--system", help="catalog system id")
        p.add_argument("--file", help="JSON system-definition file")
        p.add_argument("--param", action="append",
                       help="parameter overrides, name=value[,name=value]")

    p = sub.add_parser("curvature", help="Ricci scalar at one point")
    add_system_flags(p)
    p.add_argument("--at", required=True, help="point, e.g. u=1,v=2")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("scan", help="grid scan with singularity refinement")
    add_system_flags(p)
    p.add_argument("--grid", action="append", required=True,
                   help="axis, name=lo:hi:count (repeat per coordinate)")
    p.add_argument("--threshold", type=float, default=analysis.BLOWUP_THRESHOLD)
    p.add_argument("--output", "-o", help="CSV path ('-' = stdout)")
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("figure", help="emit a reference-figure CSV")
    p.add_argument("--recipe", required=True, help="vdW1 | vdW2 | ising")
    p.add_argument("--output", "-o", help="CSV path ('-' = stdout)")
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("check", help="run validation suites")
    p.add_argument("suite", help="oracle | invariance | homogeneity | "
                   "criteria (the acceptance criteria 1-11) | all (every "
                   "suite, in that order)")
    p.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.fn in (cmd_curvature, cmd_scan) and not (
                getattr(args, "system", None) or getattr(args, "file", None)):
            raise _Usage("one of --system or --file is required")
        return args.fn(args)
    except _Usage as e:
        print(f"geothermo: error: {e}", file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"geothermo: parse error: {e}", file=sys.stderr)
        return 1
    except DomainViolation as e:
        print(f"geothermo: domain violation: {e}", file=sys.stderr)
        return 2
    except DegenerateMetric as e:
        print(f"geothermo: degenerate metric: {e}", file=sys.stderr)
        return 3
    except GeothermoError as e:
        print(f"geothermo: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"geothermo: error: out of memory: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
