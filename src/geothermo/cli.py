"""Command-line front end.

Subcommands: ``curvature`` (one point, JSON), ``scan`` (grid CSV plus a JSON
sidecar of refined singular loci), ``figure`` (canned CSV recipes for the
three reference figures), ``check`` (validation suites).

Exit codes: 1 usage/parse errors, 2 domain violations, 3 degenerate metric,
4 unwritable output path, 5 failed check suite.

All CSV output is deterministic: floats at 17 significant digits, '\n' line
endings, fixed iteration order, and a '#' header line recording the recipe
parameters.  Grids and figure rows are evaluated as batches in one thread.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import analysis, oracle, systems, transforms
from .errors import (DegenerateMetric, DomainViolation, GeothermoError,
                     ParseError)
from .geometry import curvature_at
from .jets import jet_eval
from .systems import evaluate, get_system

FMT = "%.17g"


def _fmt(x: float) -> str:
    return FMT % x


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


def _parse_kv(text: str, cast=float) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise _Usage(f"expected name=value, got {part!r}")
        k, v = part.split("=", 1)
        try:
            out[k.strip()] = cast(v)
        except ValueError:
            raise _Usage(f"bad value {v!r} for {k.strip()!r}")
    if not out:
        raise _Usage(f"no assignments in {text!r}")
    return out


def _load_system(args):
    params = {}
    for p in args.param or ():
        params.update(_parse_kv(p))
    if args.file:
        try:
            with open(args.file) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise _Usage(f"cannot load system file {args.file}: {e}")
        spec = systems.from_definition(doc)
        if params:
            unknown = set(params) - set(spec.params)
            if unknown:
                raise _Usage(f"system has no parameter(s) {sorted(unknown)}")
            doc = dict(doc, params=dict(spec.params, **params))
            spec = systems.from_definition(doc)
        return spec
    try:
        return get_system(args.system, **params)
    except KeyError as e:
        raise _Usage(str(e))


def _point_for(spec, text):
    kv = _parse_kv(text)
    names = spec.coord_names()
    missing = set(names) - set(kv)
    extra = set(kv) - set(names)
    if missing or extra:
        raise _Usage(
            f"point must set exactly {names}; missing {sorted(missing)}, "
            f"unknown {sorted(extra)}")
    return [kv[n] for n in names]


def _parse_axes(grid_flags, coord_names):
    axes = {}
    for flag in grid_flags:
        if "=" not in flag or flag.count(":") != 2:
            raise _Usage(f"grid flag must be name=lo:hi:count, got {flag!r}")
        name, rng = flag.split("=", 1)
        lo, hi, count = rng.split(":")
        try:
            axes[name.strip()] = analysis.Axis(
                name.strip(), float(lo), float(hi), int(count))
        except ValueError:
            raise _Usage(f"bad grid flag {flag!r}")
    missing = [n for n in coord_names if n not in axes]
    if missing:
        raise _Usage(f"grid missing axes for {missing}")
    return analysis.GridSpec(tuple(axes[n] for n in coord_names))


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    try:
        return open(path, "w", newline=""), True
    except OSError as e:
        print(f"cannot write {path}: {e}", file=sys.stderr)
        raise SystemExit(4)


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
    if args.system == "vdw_vP":
        return _scan_vdw_vP(args)
    spec = _load_system(args)
    grid = _parse_axes(args.grid, spec.coord_names())
    report = analysis.singularity_scan(spec, grid, args.threshold)
    _write_scan(args, report, spec.coord_names(), meta={
        "system": spec.id, "threshold": args.threshold})
    return 0


def _scan_vdw_vP(args) -> int:
    params = {}
    for p in args.param or ():
        params.update(_parse_kv(p))
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
    out, close = _open_out(args.output)
    try:
        out.write("# scan " + json.dumps(meta, sort_keys=True) + "\n")
        out.write(",".join(names) + ",R,nonfinite\n")
        for pt in report.grid.points():
            r = report.values[pt]
            flag = 1 if report.nonfinite[pt] else 0
            out.write(",".join(_fmt(c) for c in pt)
                      + f",{_fmt(r)},{flag}\n")
    finally:
        if close:
            out.close()
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
    sidecar = (args.output + ".loci.json") if close else None
    if sidecar:
        with open(sidecar, "w", newline="") as fh:
            json.dump(loci, fh, sort_keys=True, indent=1)
            fh.write("\n")
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
    vdw_F = get_system("vdw_F")
    vrs = np.linspace(VDW_VR_RANGE[0], VDW_VR_RANGE[1], VDW_SAMPLES)

    def curvature(spec, *columns):
        res = curvature_at(spec, np.column_stack(columns))
        res.faults.raise_first()
        return res.ricci_scalar

    def rows(v_r):
        v = 3.0 * b * v_r
        u = transforms.u_from_vP(v, P, a, b)
        s = evaluate(vdw_s, np.column_stack([u, v]))
        Ru = curvature(vdw_u, s, v)
        if which == "vdW1":
            cols = (v_r, curvature(vdw_s, u, v), Ru)
        else:
            T = jet_eval(vdw_s.field, np.column_stack([u, v]), 1).grad[:, 0]
            cols = (v_r, Ru, curvature(vdw_F, T ** -1.0, v))
        return list(zip(*(c.tolist() for c in cols)))

    # one batch for the whole figure
    return [row for part in _map(rows, [vrs]) for row in part]


def _ising_figure_rows():
    prof = analysis.ising_profile(1.0, ISING_H, ISING_T_RANGE,
                                  samples=ISING_SAMPLES)
    cols = {c.H: c.R for c in prof.curves}
    Ts = prof.curves[0].T
    return [(t,) + tuple(cols[h][i] for h in ISING_H)
            for i, t in enumerate(Ts)]


FIGURES = {
    "vdW1": {
        "header": ("v_r", "R_entropy", "R_energy"),
        "meta": {"P_r": VDW_PR, "a": 1.0, "b": 1.0,
                 "v_r": list(VDW_VR_RANGE), "samples": VDW_SAMPLES},
        "rows": lambda: _vdw_figure_rows("vdW1"),
    },
    "vdW2": {
        "header": ("v_r", "R_energy", "R_Helmholtz"),
        "meta": {"P_r": VDW_PR, "a": 1.0, "b": 1.0,
                 "v_r": list(VDW_VR_RANGE), "samples": VDW_SAMPLES},
        "rows": lambda: _vdw_figure_rows("vdW2"),
    },
    "ising": {
        "header": ("T",) + tuple(f"R_H{h:g}" for h in ISING_H),
        "meta": {"J": 1.0, "H": list(ISING_H), "T": list(ISING_T_RANGE),
                 "samples": ISING_SAMPLES},
        "rows": _ising_figure_rows,
    },
}


def cmd_figure(args) -> int:
    recipe = FIGURES.get(args.recipe)
    if recipe is None:
        raise _Usage(f"unknown recipe {args.recipe!r} "
                     f"(have {', '.join(FIGURES)})")
    rows = recipe["rows"]()
    out, close = _open_out(args.output)
    try:
        out.write("# figure " + args.recipe + " "
                  + json.dumps(recipe["meta"], sort_keys=True) + "\n")
        out.write(",".join(recipe["header"]) + "\n")
        for row in rows:
            out.write(",".join(_fmt(c) for c in row) + "\n")
    finally:
        if close:
            out.close()
    return 0


# ---- check suites --------------------------------------------------------


def _grid_points(spec, count=8):
    return analysis.grid_for(spec, count).points()


def _check_oracle():
    cases = [
        ("vdw_R_s", get_system("vdw_s"), 1e-6),
        ("vdw_R_u", get_system("vdw_u"), 1e-6),
        ("vdw_R_vP", get_system("vdw_s"), 1e-6),
        ("vdw_R_F_Tv", get_system("vdw_F"), 1e-6),
        ("chap_R_s", get_system("chap_s", alpha=2.0, beta=1.0), 1e-6),
        ("chap_R_u", get_system("chap_u", alpha=2.0, beta=1.0), 1e-6),
        ("chap_det", get_system("chap_u"), 1e-6),
        ("ideal_zero", get_system("ideal_s"), 1e-8),
    ]
    rows = []
    for oid, spec, tol in cases:
        sign, dev = oracle.oracle_vs_pipeline(oid, spec, _grid_points(spec))
        rows.append({"check": f"oracle:{oid}", "sign": sign,
                     "deviation": dev, "tolerance": tol, "pass": dev < tol})
    return rows


def _check_invariance():
    rows = []
    vs, vu = get_system("vdw_s"), get_system("vdw_u")
    rep = analysis.invariance_report(
        vs, vu, lambda x: [evaluate(vs, x), x[1]], analysis.grid_for(vs, 15))
    rows.append({"check": "invariance:vdw_s~vdw_u", "max_rel": rep.max_rel,
                 "pass": rep.max_rel < 1e-6})
    is_, iu = get_system("ideal_s"), get_system("ideal_u")
    rep = analysis.invariance_report(
        is_, iu, lambda x: [evaluate(is_, x), x[1]], analysis.grid_for(is_, 15))
    rows.append({"check": "invariance:ideal_s~ideal_u", "max_abs": rep.max_abs,
                 "pass": rep.max_abs < 1e-8})
    cs = get_system("chap_s", alpha=2.0, beta=1.0)
    cu = get_system("chap_u", alpha=2.0, beta=1.0)
    rep = analysis.invariance_report(
        cs, cu, lambda x: [evaluate(cs, x), x[1]], analysis.grid_for(cs, 10))
    rows.append({"check": "invariance:chap_s~chap_u", "max_rel": rep.max_rel,
                 "pass": rep.max_rel < 1e-6})
    vF = get_system("vdw_F")

    def map_uF(x):
        return [jet_eval(vu.field, x, 1).grad[0], x[1]]

    rep = analysis.invariance_report(vu, vF, map_uF, analysis.grid_for(vu, 15))
    rows.append({"check": "invariance:vdw_u~vdw_F (intentionally different)",
                 "max_abs": rep.max_abs, "pass": rep.max_abs > 0.1})
    return rows


def _check_homogeneity():
    rows = []
    r = analysis.homogeneity_degree(
        lambda x: x[0] * x[1] / (x[0] + x[1]), (1.0, 2.0))
    rows.append({"check": "homogeneity:degree-1", "degree": r.degree,
                 "pass": r.is_homogeneous and r.degree == 1.0
                 and r.max_residual < 1e-10})
    r = analysis.homogeneity_degree(lambda x: x[0] ** 2 * x[1], (1.0, 2.0))
    rows.append({"check": "homogeneity:degree-3", "degree": r.degree,
                 "pass": r.is_homogeneous and r.degree == 3.0
                 and r.max_residual < 1e-10})
    r = analysis.homogeneity_degree(
        lambda x: evaluate(get_system("ideal_s"), x), (1.0, 2.0))
    rows.append({"check": "homogeneity:ideal_s-rejected",
                 "residual": r.max_residual, "pass": not r.is_homogeneous})
    return rows


SUITES = {
    "oracle": _check_oracle,
    "invariance": _check_invariance,
    "homogeneity": _check_homogeneity,
}


def cmd_check(args) -> int:
    if args.suite == "all":
        names = list(SUITES)
    elif args.suite in SUITES:
        names = [args.suite]
    else:
        raise _Usage(f"unknown suite {args.suite!r} "
                     f"(have {', '.join(SUITES)}, all)")
    rows = []
    for name in names:
        rows.extend(SUITES[name]())
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
    p.add_argument("suite", help="invariance | homogeneity | oracle | all")
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


if __name__ == "__main__":
    raise SystemExit(main())
