"""Manifold-level experiments over the catalog.

Homogeneity detection, curvature-invariance comparisons between
representations, singularity scans refined by a lockstep Brent search
against the analytic van der Waals phase-transition locus,
constant-curvature and degeneracy sweeps, and the qualitative Ising
curvature profile.

The Ising profile runs in extended precision: below T ~ 0.3 the interaction
term exp(-4J/T) is smaller than the double-precision cancellation floor of
the surrounding hyperbolic terms, and the curvature — which lives entirely
in that term — cannot be resolved with float64.  Extended precision is the
same jet/metric/curvature pipeline as everywhere else, run on mpmath numbers
(``curvature_at(spec, x, dps=...)``) at the digits :func:`ising_dps` asks
for, not a separate copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product

import numpy as np

from .errors import (EmptyGrid, GeothermoError, NonFinite,
                     PreconditionFailure)
from .geometry import curvature_at, metric_at, natural_metric, ricci_scalar
from .jets import EPS, Faults, Jet4, fd_partial
from .systems import SystemSpec, get_system
from .transforms import u_from_vP

HOMOGENEITY_LAMBDAS = (1/3, 1/2, 2/3, 3/2, 2.0, 3.0)
HOMOGENEITY_RTOL = 1e-8
BLOWUP_THRESHOLD = 1e8
JUMP_DECADES = 2.0
REFINE_TOL = 1e-6
ISING_T_CUTOFF = 0.05


# ---- grids ---------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    name: str
    lo: float
    hi: float
    count: int

    def values(self):
        if self.count <= 0:
            return np.empty(0)
        if self.count == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class GridSpec:
    """Linear-spaced rectangular grid, one Axis per coordinate."""

    axes: tuple

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(
            a if isinstance(a, Axis) else Axis(*a) for a in self.axes))

    def points(self):
        vals = [a.values().tolist() for a in self.axes]
        if any(len(v) == 0 for v in vals) or not vals:
            raise EmptyGrid("grid has no points")
        return list(product(*vals))

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

    def val(pt):
        out = fieldval(pt)
        return out.value if hasattr(out, "value") else float(out)

    phi0 = val(base)
    scale = 1.0 + abs(phi0)
    ratios = []
    vals = []
    for lam in lambdas:
        y = val([lam * c for c in base])
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

    ``map_ab`` sends a spec_a point to the corresponding spec_b point.
    Per-point evaluation errors are excluded from the maxima and counted.
    """
    pts = grid.points()
    ra = curvature_at(spec_a, np.array(pts)).ricci_scalar
    mapped = {}
    for i, x in enumerate(pts):
        if math.isnan(ra[i]):
            continue
        try:
            mapped[i] = [float(c) for c in map_ab(list(x))]
        except GeothermoError:
            continue
    rb = (curvature_at(spec_b, np.array(list(mapped.values())),
                       check_domain=False).ricci_scalar.tolist()
          if mapped else [])
    rows = []
    max_abs = 0.0
    max_rel = 0.0
    for i, r_b in zip(mapped, rb):
        if math.isnan(r_b):
            continue
        x, r_a = pts[i], float(ra[i])
        d = abs(r_a - r_b)
        rows.append((x, r_a, r_b, d))
        max_abs = max(max_abs, d)
        max_rel = max(max_rel, d / (1.0 + abs(r_a)))
    return InvarianceReport(rows, max_abs, max_rel, len(pts) - len(rows))


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
    values: dict                  # point -> R (math.nan on failure)
    nonfinite: dict               # point -> flag
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
    """Locate curvature divergences on a grid and refine them by a lockstep
    Brent search.

    A grid segment is a candidate when |R| crosses ``blowup_threshold``, when
    |R| jumps by more than two decades between neighbors, or when R changes
    sign at large magnitude (a pole crossing).  Each candidate segment is
    refined by Brent's minimiser of 1/|R| along its axis to a relative
    coordinate tolerance of REFINE_TOL, and it is a detection when |R| at
    the refined point reaches ``blowup_threshold``.

    ``evaluator`` optionally replaces the pipeline, e.g. for scans in
    non-fundamental coordinates such as (v, P): it maps a (batch, n) array of
    points to their R values, NaN where a point fails.
    """
    pts = grid.points()
    R = _scan_eval(spec, evaluator, np.array(pts))
    failures = int(np.count_nonzero(np.isnan(R)))
    flagged = ~np.isfinite(R) | (np.abs(R) > blowup_threshold)
    values = dict(zip(pts, R.tolist()))
    nonfinite = dict(zip(pts, flagged.tolist()))

    shape = grid.shape()
    V = R.reshape(shape)
    index = np.arange(len(pts)).reshape(shape)
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
    candidates = [(pts[a], pts[b], axis) for _, axis, _, (a, b) in found]

    refined = _refine_segment(spec, evaluator, candidates, blowup_threshold)
    detections = [Detection(segment=(x, y), refined=r, axis=axis)
                  for (x, y, axis), r in zip(candidates, refined)
                  if r is not None]
    detections = _merge_detections(detections)
    return ScanReport(grid=grid, values=values, nonfinite=nonfinite,
                      detections=detections, failures=failures)


# Brent's golden-section fraction, (3 - sqrt 5) / 2
GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _brent_search(a, b, tol1):
    """Brent's minimiser of 1/|R| on [a, b] as a coroutine.

    It yields each abscissa to evaluate and receives |R| there (math.inf on
    the pole itself).  Once the bracket around its best point x lies within
    2 * tol1 of x, it returns (x, |R(x)|).  Golden-section steps keep
    the bracket shrinking; successive parabolic interpolation takes over
    where 1/|R| is smooth, as at a double pole, where it is locally
    quadratic (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 5).
    """
    def f(r):
        return 1.0 / r if r > 0.0 else math.inf

    tol2 = 2.0 * tol1
    x = w = v = a + GOLDEN * (b - a)
    rx = yield x
    fx = fw = fv = f(rx)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, rx
        p = q = r = 0.0
        if abs(e) > tol1:
            # parabola through (v, fv), (w, fw), (x, fx); non-finite values
            # make p or q NaN, and the test below rejects the step
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            else:
                q = -q
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < tol2 or b - x - d < tol2:
                d = tol1 if x < m else -tol1
        else:
            e = (b if x < m else a) - x
            d = GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        ru = yield u
        fu = f(ru)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw = w, fw, x, fx
            x, fx, rx = u, fu, ru
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _refine_segment(spec, evaluator, segments, blowup_threshold):
    """Brent search toward the |R| maximum (1/|R| -> 0), all segments in
    lockstep.

    ``segments`` holds (x0, x1, axis) triples; the result holds, per
    segment, the refined point, or None when |R| there stays below
    ``blowup_threshold`` (a smooth local bump rather than a pole).  Each
    pass evaluates the next trial of every live search in one batch; a
    search decides only from its own values, so its refined point does not
    depend on the other segments.  The refined point is within REFINE_TOL
    * max(1, |x0|, |x1|) of the maximiser along the axis.
    """
    searches, trials = [], []
    for x0, x1, axis in segments:
        a, b = sorted((x0[axis], x1[axis]))
        search = _brent_search(a, b,
                               0.25 * REFINE_TOL * max(1.0, abs(a), abs(b)))
        searches.append(search)
        trials.append(next(search))
    base = np.array([s[0] for s in segments], dtype=float)
    axes = np.array([s[2] for s in segments], dtype=int)
    refined = [None] * len(segments)
    live = list(range(len(segments)))
    while live:
        points = base[live]
        points[np.arange(len(live)), axes[live]] = [trials[i] for i in live]
        r = np.abs(_scan_eval(spec, evaluator, points))
        r[~np.isfinite(r)] = math.inf     # landing on the pole itself
        still = []
        for i, ri, point in zip(live, r.tolist(), points.tolist()):
            try:
                trials[i] = searches[i].send(ri)
            except StopIteration as stop:
                x, rx = stop.value
                if rx >= blowup_threshold:
                    point[axes[i]] = x
                    refined[i] = tuple(point)
            else:
                still.append(i)
        live = still
    return refined


def _merge_detections(detections, tol=1e-4):
    out = []
    for d in detections:
        dup = False
        for kept in out:
            if (d.axis == kept.axis
                    and max(abs(a - b) for a, b in zip(d.refined, kept.refined))
                    < tol * max(1.0, max(abs(c) for c in kept.refined))):
                dup = True
                break
        if not dup:
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

    Each (v_c, P_c) must satisfy 2ab - a v_c + P_c v_c^3 = 0 to 1e-8.
    """
    rows = []
    for vc, Pc in critical_points:
        locus = 2*a*b - a*vc + Pc*vc**3
        if abs(locus) > 1e-8 * max(1.0, abs(a*b), abs(Pc*vc**3)):
            raise PreconditionFailure(
                f"({vc}, {Pc}) is not on the transition locus "
                f"(2ab - av + Pv^3 = {locus:.3e})")
        num = -(a**3 * (vc - 2*b)**2
                * (-9*b**3 + 21*b**2*vc - 13*b*vc**2 + vc**3)) / vc**2
        if not math.isfinite(num):
            raise NonFinite(f"locus numerator not finite at ({vc}, {Pc})")
        rows.append((vc, Pc, num))
    return rows


# ---- constant curvature & degeneracy -------------------------------------


def constant_curvature_check(spec: SystemSpec, grid: GridSpec):
    """(mean R, max |R - mean|) over an in-domain grid."""
    res = curvature_at(spec, np.array(grid.points()))
    res.faults.raise_first()
    vals = res.ricci_scalar.tolist()
    mean = sum(vals) / len(vals)
    spread = max(abs(v - mean) for v in vals)
    return mean, spread


def degeneracy_sweep(alpha_values, beta_values, grid: GridSpec,
                     s0: float = 1.0, C: float = 1.0):
    """min |det g| of the dark-fluid entropy metric per (alpha, beta) cell."""
    pts = np.array(grid.points())       # raises EmptyGrid up front
    rows = []
    for al in alpha_values:
        for be in beta_values:
            spec = get_system("chap_s", alpha=float(al), beta=float(be),
                              s0=s0, C=C)
            m = metric_at(spec, pts, check_degenerate=False)
            dets = np.abs(m.det[m.faults.ok])
            best = float(dets.min()) if len(dets) else math.inf
            rows.append((float(al), float(be), best))
    return rows


# ---- finite-difference-only curvature oracle -----------------------------


def fd_jet4(fieldval, x) -> Jet4:
    """All partials through order 4 by nested central differences only,
    as a batch of one point."""
    x = [float(c) for c in x]
    n = len(x)
    value = fieldval(x)
    value = value.value if hasattr(value, "value") else float(value)
    grad = np.empty(n)
    hess = np.empty((n, n))
    third = np.empty((n, n, n))
    fourth = np.empty((n, n, n, n))
    def h_for(idx):
        # fd_partial's stencil is fourth-order accurate, so the balanced
        # step grows to eps^(1/(k+4)); the default eps^(1/(k+2)) leaves
        # round-off dominant at order 4
        scale = max([1.0] + [abs(x[a]) for a in idx])
        return EPS ** (1.0 / (len(idx) + 4)) * scale

    for i in range(n):
        grad[i] = fd_partial(fieldval, x, (i,), step=h_for((i,)))
    for i in range(n):
        for j in range(i, n):
            hess[i, j] = hess[j, i] = fd_partial(fieldval, x, (i, j),
                                                 step=h_for((i, j)))
    for idx in combinations_with_replacement(range(n), 3):
        v = fd_partial(fieldval, x, idx, step=h_for(idx))
        for p in permutations(idx):
            third[p] = v
    for idx in combinations_with_replacement(range(n), 4):
        v = fd_partial(fieldval, x, idx, step=h_for(idx))
        for p in permutations(idx):
            fourth[p] = v
    return Jet4(value=np.array([value]), grad=grad[None], hess=hess[None],
                third=third[None], fourth=fourth[None], faults=Faults(1))


def fd_ricci_scalar(spec: SystemSpec, x) -> float:
    """Curvature through the same geometric assembly but FD derivatives only."""
    jet = fd_jet4(spec.field, x)
    m = natural_metric(jet, np.asarray(x, dtype=float)[None],
                       spec.excluded_index)
    res = ricci_scalar(m)
    res.faults.raise_first()
    return res.point(0).ricci_scalar


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
    in mpmath at ``dps`` digits.  No domain check: the guards of
    :func:`ising_curvature` stand in for it, and R is even in H."""
    spec = _ising_spec(float(J))
    return curvature_at(spec, (T, H), check_domain=False,
                        dps=dps).ricci_scalar


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
