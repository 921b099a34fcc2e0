"""Manifold-level experiments over the catalog.

Homogeneity detection, curvature-invariance comparisons between
representations, singularity scans refined by a batched equally spaced
search and compared with the analytic van der Waals phase-transition
locus, constant-curvature checks, and the qualitative Ising curvature
profile.

A grid's points are one (count, n) float64 array in ``itertools.product``
order (:meth:`GridSpec.points`), and a scan's R and flags are arrays in the
same order (:class:`ScanReport`).

The Ising profile runs in extended precision.  The catalog's ising_f keeps
the O(1) part -H out of its logarithm, so float64 R is within 1e-10 of 60
digits on its sample box, but at low T the curvature lives in terms of size
exp(-(4J + 2H)/T), and float64 R drifts from the exact one (1.4e-5 relative
at T = 0.2, H = 2, where |R| is 2.6e25).  Extended precision is the
same jet/metric/curvature pipeline as everywhere else, run on mpmath numbers
(``curvature_at(spec, x, dps=...)``) at the digits :func:`ising_dps` asks
for, not a separate copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import EmptyGrid, NonFinite, PreconditionFailure
from .fd import fd_jet4
from .geometry import curvature_at, jet_curvature
from .jets import Faults, one_point
from .oracle import oracle_eval
from .systems import SystemSpec, domain_check, get_system
from .transforms import u_from_vP

HOMOGENEITY_LAMBDAS = (1/3, 1/2, 2/3, 3/2, 2.0, 3.0)
HOMOGENEITY_RTOL = 1e-8
BLOWUP_THRESHOLD = 1e8
JUMP_DECADES = 2.0
REFINE_TOL = 1e-6
REFINE_POINTS = 15        # trials per bracket and refinement pass
MERGE_RTOL = 1e-4         # refined detections this close are one detection
ISING_T_CUTOFF = 0.05


# ---- grids ---------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    count: int

    def values(self):
        return np.linspace(self.lo, self.hi, max(self.count, 0))


@dataclass(frozen=True)
class GridSpec:
    """Linear-spaced rectangular grid, one Axis per coordinate."""

    axes: tuple

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(
            a if isinstance(a, Axis) else Axis(*a) for a in self.axes))

    def points(self):
        """The (count, n) float64 array of the grid's points, the last axis
        varying fastest (the order of ``itertools.product``)."""
        vals = [a.values() for a in self.axes]
        if any(len(v) == 0 for v in vals) or not vals:
            raise EmptyGrid("grid has no points")
        return np.stack([c.ravel() for c in np.meshgrid(*vals, indexing="ij")],
                        axis=-1)

    def shape(self):
        return tuple(a.count for a in self.axes)


def grid_for(spec: SystemSpec, count: int = 15) -> GridSpec:
    """A grid over the spec's sample box."""
    return GridSpec(tuple(Axis(c.name, lo, hi, count)
                          for c, (lo, hi) in zip(spec.coords, spec.sample_box)))


# ---- homogeneity ---------------------------------------------------------


@dataclass
class HomogeneityReport:
    is_homogeneous: bool
    degree: float | None
    max_residual: float
    lambdas: tuple


def homogeneity_degree(fieldval, base, lambdas=HOMOGENEITY_LAMBDAS) -> HomogeneityReport:
    """Fit beta in Phi(lambda E) = lambda^beta Phi(E) by log-log least squares.

    ``fieldval`` is any callable on a coordinate sequence returning a float
    (a compiled relation or ``lambda x: evaluate(spec, x)``).
    """
    base = [float(c) for c in base]
    lambdas = tuple(float(l) for l in lambdas)
    if any(l <= 0 for l in lambdas):
        raise PreconditionFailure("homogeneity samples need lambda > 0")

    phi0 = float(fieldval(base))
    scale = 1.0 + abs(phi0)
    ratios = []
    vals = []
    for lam in lambdas:
        y = float(fieldval([lam * c for c in base]))
        vals.append(y)
        ratios.append(y / phi0 if phi0 != 0.0 else math.nan)

    usable = [(lam, r) for lam, r in zip(lambdas, ratios)
              if math.isfinite(r) and r > 0.0]
    if len(usable) < 2:
        return HomogeneityReport(False, None, math.inf, lambdas)
    ls = np.array([math.log(lam) for lam, _ in usable])
    lr = np.array([math.log(r) for _, r in usable])
    beta = float(ls @ lr / (ls @ ls))

    residual = max(abs(y - lam**beta * phi0)
                   for lam, y in zip(lambdas, vals))
    homogeneous = residual < HOMOGENEITY_RTOL * scale
    # snap to a clean degree when the fit is essentially exact
    if homogeneous and abs(beta - round(beta)) < 1e-9:
        beta = float(round(beta))
    return HomogeneityReport(homogeneous, beta if homogeneous else None,
                             residual, lambdas)


# ---- invariance ----------------------------------------------------------


@dataclass
class InvarianceReport:
    rows: list          # (point_a, R_a, R_b, abs diff)
    max_abs: float
    max_rel: float
    failures: int


def invariance_report(spec_a: SystemSpec, spec_b: SystemSpec, map_ab,
                      grid: GridSpec) -> InvarianceReport:
    """Compare R between two descriptions over a grid of spec_a points.

    ``map_ab`` is a batch map, called once: ``map_ab(points, faults)`` sends
    a (batch, n) array of spec_a points to the array of the corresponding
    spec_b points, and records each row that fails in ``faults`` (a
    :class:`Faults` record of the batch), as the point maps that
    :mod:`transforms` records on a derived spec do.  The points where R_a
    fails are not mapped.  Per-point failures of R_a, of the map and of R_b
    are excluded from the maxima and counted.
    """
    points = grid.points()
    ra = curvature_at(spec_a, points).ricci_scalar
    ok = np.flatnonzero(~np.isnan(ra))
    if not len(ok):
        return InvarianceReport([], 0.0, 0.0, len(points))
    faults = Faults(len(ok))
    mapped = np.asarray(map_ab(points[ok], faults), dtype=float)
    ok, mapped = ok[faults.ok], mapped[faults.ok]
    rb = curvature_at(spec_b, mapped).ricci_scalar.tolist() if len(ok) else []
    rows = []
    max_abs = 0.0
    max_rel = 0.0
    for x, r_a, r_b in zip(points[ok].tolist(), ra[ok].tolist(), rb):
        if math.isnan(r_b):
            continue
        d = abs(r_a - r_b)
        rows.append((tuple(x), r_a, r_b, d))
        max_abs = max(max_abs, d)
        max_rel = max(max_rel, d / (1.0 + abs(r_a)))
    return InvarianceReport(rows, max_abs, max_rel, len(points) - len(rows))


# ---- singularity scan ----------------------------------------------------


@dataclass
class Detection:
    segment: tuple       # (point_lo, point_hi) bracketing grid points
    refined: tuple       # refined coordinates of the divergence
    axis: int
    classification: str = "unclassified"
    locus_deviation: float | None = None


@dataclass
class ScanReport:
    grid: GridSpec
    R: np.ndarray                 # per grid point, in points() order; NaN
                                  # where the point fails
    nonfinite: np.ndarray         # per grid point: R not finite or above
                                  # the blowup threshold
    detections: list
    locus_points: tuple = ()
    max_locus_dev: float | None = None
    failures: int = 0


def _scan_eval(spec, evaluator, points):
    """R at each row of ``points``; NaN where the point fails."""
    if evaluator is not None:
        return np.asarray(evaluator(points), dtype=float)
    return curvature_at(spec, points).ricci_scalar


def singularity_scan(spec: SystemSpec, grid: GridSpec,
                     blowup_threshold: float = BLOWUP_THRESHOLD,
                     evaluator=None) -> ScanReport:
    """Locate curvature divergences on a grid and refine them along their
    axis.

    A grid segment is a candidate when |R| crosses ``blowup_threshold``, when
    |R| jumps by more than two decades between neighbors, or when R changes
    sign at large magnitude (a pole crossing).  Each candidate segment is
    refined toward the maximum of |R| along its axis to a relative
    coordinate tolerance of REFINE_TOL, REFINE_POINTS trials per segment in
    each batched pass (:func:`_refine_segment`), and it is a detection when
    |R| at its best trial reaches ``blowup_threshold``.

    ``evaluator`` optionally replaces the pipeline, e.g. for scans in
    non-fundamental coordinates such as (v, P): it maps a (batch, n) array of
    points to their R values, NaN where a point fails.
    """
    points = grid.points()
    R = _scan_eval(spec, evaluator, points)
    failures = int(np.count_nonzero(np.isnan(R)))
    nonfinite = ~np.isfinite(R) | (np.abs(R) > blowup_threshold)

    shape = grid.shape()
    V = R.reshape(shape)
    index = np.arange(len(points)).reshape(shape)
    found = []      # (grid index of x, axis, kind, segment ends)
    with np.errstate(all="ignore"):
        for axis in range(len(shape)):
            # neighbours along `axis` are consecutive rows of these views
            v, idx = np.moveaxis(V, axis, 0), np.moveaxis(index, axis, 0)
            r0, r1 = v[:-1], v[1:]
            a0, a1 = np.abs(r0), np.abs(r1)
            big, small = np.maximum(a0, a1), np.minimum(a0, a1)
            ratio = big / np.maximum(small, 1e-300)
            crossed = (a0 > blowup_threshold) != (a1 > blowup_threshold)
            jumped = ((small > 0.0) & (np.log10(ratio) > JUMP_DECADES)
                      & (big > 1e3))
            flipped = (r0 * r1 < 0.0) & (big > 1e3) & (ratio > 10.0)
            both = ~np.isnan(r0) & ~np.isnan(r1)
            edge = both & (crossed | jumped | flipped)
            found += [(a, axis, 0, (a, b)) for a, b in zip(
                idx[:-1][edge].tolist(), idx[1:][edge].tolist())]
            # interior local maximum of |R|: a pole between coarse nodes
            # may not produce a two-decade jump, so bracket it explicitly
            rp = v[:-2]
            peak = (both[1:] & ~np.isnan(rp) & (a0[1:] > 1e2)
                    & (a0[1:] > np.abs(rp)) & (a0[1:] >= a1[1:]))
            found += [(x, axis, 1, (p, y)) for p, x, y in zip(
                idx[:-2][peak].tolist(), idx[1:-1][peak].tolist(),
                idx[2:][peak].tolist())]
    found.sort(key=lambda c: c[:3])
    candidates = [(tuple(points[a].tolist()), tuple(points[b].tolist()), axis)
                  for _, axis, _, (a, b) in found]

    refined = _refine_segment(spec, evaluator, candidates, blowup_threshold)
    detections = [Detection(segment=(x, y), refined=r, axis=axis)
                  for (x, y, axis), r in zip(candidates, refined)
                  if r is not None]
    detections = _merge_detections(detections)
    return ScanReport(grid=grid, R=R, nonfinite=nonfinite,
                      detections=detections, failures=failures)


def _refine_segment(spec, evaluator, segments, blowup_threshold):
    """Simultaneous search toward the |R| maximum (1/|R| -> 0), all
    segments in one batch per pass.

    ``segments`` holds (x0, x1, axis) triples; the result holds, per
    segment, the refined point, or None when |R| at its best trial stays
    below ``blowup_threshold`` (a smooth local bump rather than a pole).
    Each pass evaluates REFINE_POINTS equally spaced interior points of
    every live bracket in one batch, and the best of them (the largest
    |R|; a non-finite R is the pole itself) and its two neighbours make
    the next bracket, which is 2 / (REFINE_POINTS + 1) as wide (J. Kiefer,
    "Sequential minimax search for a maximum", Proc. AMS 4, 1953).  A
    segment stops once its bracket is at most REFINE_TOL * max(1, |x0|,
    |x1|) wide.  Its refined point is the vertex of the parabola through
    1/|R| at the final three nodes, which locates a double pole, where
    1/|R| is locally quadratic, far inside the bracket; where the vertex
    is not inside the bracket, or a bracket end was never evaluated, it is
    the best node.  A segment decides only from its own values, so its
    refined point does not depend on the other segments.

    The middle trial of a pass lies halfway between the best node's
    neighbours, and is mostly the best node itself, bit for bit: there its
    |R| is taken from the pass before, not evaluated again (a point's R
    does not depend on its batch).
    """
    if not segments:
        return []
    k = REFINE_POINTS
    base = np.array([s[0] for s in segments], dtype=float)
    axes = np.array([s[2] for s in segments], dtype=int)
    ends = np.array([sorted((x0[a], x1[a])) for x0, x1, a in segments])
    tol = REFINE_TOL * np.maximum(1.0, np.abs(ends).max(axis=1))
    # per segment: the bracket ends with its best node between them (set by
    # the first pass), and |R| at each, NaN where not evaluated
    nodes = ends[:, [0, 0, 1]]
    absR = np.full(nodes.shape, math.nan)
    steps = np.arange(1, k + 1) / (k + 1)
    live = np.arange(len(segments))
    while len(live):
        lo, hi = nodes[live, :1], nodes[live, 2:]
        trials = lo + (hi - lo) * steps
        # every trial but a middle one that repeats the best node bit for
        # bit, where that node was evaluated (not in the first pass)
        mid, best = k // 2, absR[live, 1]
        fresh = np.ones(trials.shape, dtype=bool)
        fresh[:, mid] = ((trials[:, mid].view(np.int64)
                          != nodes[live, 1].view(np.int64)) | np.isnan(best))
        points = base[live].repeat(k, axis=0)
        points[np.arange(len(points)), axes[live].repeat(k)] = trials.ravel()
        r = np.empty(trials.shape)
        r[:, mid] = best
        r[fresh] = np.abs(_scan_eval(spec, evaluator,
                                     points[fresh.ravel()]))
        r[~np.isfinite(r)] = math.inf     # landing on the pole itself
        r = np.concatenate([absR[live, :1], r, absR[live, 2:]], axis=1)
        x = np.concatenate([lo, trials, hi], axis=1)
        rows = np.arange(len(live))[:, None]
        pick = r[:, 1:-1].argmax(axis=1)[:, None] + np.arange(3)
        nodes[live], absR[live] = x[rows, pick], r[rows, pick]
        live = live[nodes[live, 2] - nodes[live, 0] > tol[live]]

    xl, xm, xr = nodes.T
    with np.errstate(all="ignore"):
        fl, fm, fr = 1.0 / absR.T
        vertex = xm + 0.25 * (xr - xl) * (fl - fr) / (fl - 2.0 * fm + fr)
    vertex = np.where((xl < vertex) & (vertex < xr), vertex, xm)
    refined = []
    for point, axis, x, best in zip(base.tolist(), axes.tolist(),
                                    vertex.tolist(), absR[:, 1].tolist()):
        point[axis] = x
        refined.append(tuple(point) if best >= blowup_threshold else None)
    return refined


def _merge_detections(detections):
    out = []
    for d in detections:
        if not any(d.axis == kept.axis
                   and max(abs(a - b) for a, b in zip(d.refined, kept.refined))
                   < MERGE_RTOL * max(1.0, *map(abs, kept.refined))
                   for kept in out):
            out.append(d)
    out.sort(key=lambda d: d.refined)
    return out


# ---- van der Waals (v, P) scan vs the phase-transition locus -------------


def vdw_vP_evaluator(a: float = 1.0, b: float = 1.0):
    """R as a function of (v, P): eliminate u and run the entropy pipeline.

    The evaluator maps a (batch, 2) array of (v, P) points to R, NaN where
    a point fails.
    """
    spec = get_system("vdw_s", a=a, b=b)

    def ev(points):
        v, P = points[:, 0], points[:, 1]
        u = np.full(len(points), math.nan)    # v <= b is out of the domain
        ok = v > b
        # an overflowing u is a non-finite point, which the pipeline fails
        with np.errstate(all="ignore"):
            u[ok] = u_from_vP(v[ok], P[ok], a, b)
        return curvature_at(spec, np.column_stack([u, v])).ricci_scalar

    return ev


def vdw_locus_roots(a: float, b: float, P: float):
    """Positive real roots of 2ab - av + Pv^3 = 0 (candidate transitions)."""
    coeffs = [P, 0.0, -a, 2.0 * a * b]
    if not all(map(math.isfinite, coeffs)):
        raise NonFinite(f"locus polynomial is not finite at a = {a!r}, "
                        f"b = {b!r}, P = {P!r}")
    roots = np.roots(coeffs)
    return tuple(sorted(float(r.real) for r in roots
                        if abs(r.imag) < 1e-10 and r.real > 0.0))


def scan_vdw_vP(P: float, v_range, count: int = 241,
                a: float = 1.0, b: float = 1.0,
                blowup_threshold: float = BLOWUP_THRESHOLD) -> ScanReport:
    """Fixed-pressure line scan of R(v, P) with locus classification.

    Detections within 1e-3 of a positive root of 2ab - av + Pv^3 = 0 are
    classified as "locus"; remaining denominator zeros (P = 0, v = b) as
    "other"; the rest stay "unclassified".
    """
    roots = vdw_locus_roots(a, b, P)
    spec = get_system("vdw_s", a=a, b=b)
    grid = GridSpec((Axis("v", float(v_range[0]), float(v_range[1]), count),
                     Axis("P", P, P, 1)))
    report = singularity_scan(spec, grid, blowup_threshold,
                              evaluator=vdw_vP_evaluator(a, b))
    report.locus_points = tuple((r, P) for r in roots)
    worst = None
    for d in report.detections:
        v = d.refined[0]
        if roots:
            dev = min(abs(v - r) for r in roots)
        else:
            dev = math.inf
        if dev < 1e-3 * max(1.0, abs(v)):
            d.classification = "locus"
            d.locus_deviation = dev
            worst = dev if worst is None else max(worst, dev)
        elif abs(v - b) < 1e-3 or abs(P) < 1e-12:
            d.classification = "other"
        else:
            d.classification = "unclassified"
    report.max_locus_dev = worst
    return report


def locus_numerator_check(a: float, b: float, critical_points):
    """Numerator of R(v, P) on the locus: finite, generically nonzero.

    Each (v_c, P_c) must satisfy 2ab - a v_c + P_c v_c^3 = 0 to 1e-8.  A
    point where a float power overflows raises NonFinite.
    """
    rows = []
    for vc, Pc in critical_points:
        try:
            locus = 2*a*b - a*vc + Pc*vc**3
            if abs(locus) > 1e-8 * max(1.0, abs(a*b), abs(Pc*vc**3)):
                raise PreconditionFailure(
                    f"({vc}, {Pc}) is not on the transition locus "
                    f"(2ab - av + Pv^3 = {locus:.3e})")
            num = oracle_eval("numR_at_critical", {"v": vc},
                              {"a": a, "b": b})
        except OverflowError:       # a float ** raises where it overflows
            num = math.inf
        if not math.isfinite(num):
            raise NonFinite(f"locus numerator not finite at ({vc}, {Pc})")
        rows.append((vc, Pc, num))
    return rows


# ---- constant curvature --------------------------------------------------


def constant_curvature_check(spec: SystemSpec, grid: GridSpec):
    """(mean R, max |R - mean|) over an in-domain grid."""
    res = curvature_at(spec, grid.points())
    error = res.faults.pop_first()
    if error is not None:
        del res             # not kept by the raised failure's frames
        raise error
    vals = res.ricci_scalar.tolist()
    mean = sum(vals) / len(vals)
    spread = max(abs(v - mean) for v in vals)
    return mean, spread


# ---- finite-difference-only curvature oracle -----------------------------


def fd_ricci_scalar(spec: SystemSpec, x) -> float:
    """Curvature with finite-difference derivatives only: the Jet4 of
    :func:`fd.fd_jet4` at the one row ``x`` goes through the curvature
    stage of every :func:`curvature_at` chunk
    (:func:`geometry.jet_curvature`).

    ``x`` is checked against the spec's domain before any stencil, as
    :func:`curvature_at` checks it before its jet; a point outside raises
    DomainViolation.  A stencil node that fails raises its failure, and a
    failure of the curvature stage raises as well.
    """
    x = np.asarray(x, dtype=float)
    domain_check(spec, x).raise_first()
    return one_point(jet_curvature(spec, fd_jet4(spec.field, x),
                                   x[None])).ricci_scalar


# ---- Ising profile (extended precision) ----------------------------------


@dataclass
class IsingCurve:
    H: float
    T: tuple
    R: tuple
    plateau: float          # R at the largest sampled T
    growth_exponent: float | None = None   # d log|R| / d log T at small T


@dataclass
class IsingProfile:
    J: float
    curves: list = field(default_factory=list)


def _mp_ising_R(J, H, T, dps):
    """Ricci scalar of the Ising free energy at (T, H): the shared pipeline
    in mpmath at ``dps`` digits.  R is even in H, and ``ising_f``'s domain
    is T > 0, H > 0, so the point evaluated, and checked against that
    domain, is (T, |H|)."""
    spec = _ising_spec(float(J))
    return curvature_at(spec, (T, abs(H)), dps=dps).ricci_scalar


@lru_cache(maxsize=8)
def _ising_spec(J):
    return get_system("ising_f", J=J)


def ising_dps(J, H, T):
    """Working precision: enough digits to resolve exp(-(4J+2H)/T)."""
    return 30 + int(1.2 * (4 * abs(J) + 2 * abs(H)) / T)


def ising_curvature(T: float, H: float, J: float = 1.0) -> float:
    """Extended-precision R(T, H) for the 1-D Ising free energy."""
    if T < ISING_T_CUTOFF:
        raise PreconditionFailure(
            f"T = {T} below the working cutoff {ISING_T_CUTOFF}")
    if H == 0.0:
        raise PreconditionFailure("profile needs H != 0")
    return _mp_ising_R(J, H, T, ising_dps(J, H, T))


def ising_profile(J: float, H_values, T_range, samples: int = 60) -> IsingProfile:
    """R(T) curves per field strength, with plateau and small-T growth rate.

    Temperatures are sampled geometrically over ``T_range``.
    """
    lo, hi = float(T_range[0]), float(T_range[1])
    if lo < ISING_T_CUTOFF:
        raise PreconditionFailure(
            f"T_range starts below the working cutoff {ISING_T_CUTOFF}")
    if lo <= 0 or hi <= lo:
        raise PreconditionFailure("T_range must be increasing and positive")
    Ts = np.geomspace(lo, hi, samples)
    profile = IsingProfile(J=float(J))
    for H in H_values:
        Rs = tuple(ising_curvature(float(t), float(H), J) for t in Ts)
        growth = None
        if samples >= 4:
            # log-log slope over the four lowest temperatures
            lt = np.log(Ts[:4])
            lr = np.log(np.abs(np.array(Rs[:4])))
            if np.all(np.isfinite(lr)):
                growth = float(np.polyfit(lt, lr, 1)[0])
        profile.curves.append(IsingCurve(
            H=float(H), T=tuple(float(t) for t in Ts), R=Rs,
            plateau=Rs[-1], growth_exponent=growth))
    return profile
