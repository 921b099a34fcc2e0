"""Equations of state, Legendre transforms, and coordinate changes.

A partial Legendre transform on slot ``a`` trades the coordinate E^a for its
conjugate intensive I_a = dPhi/dE^a and the potential for Phi - I_a E^a; the
total transform does this on every slot.  Representation inversion instead
swaps the potential with one coordinate, solving Phi(E) = phi for E^a.

Catalog systems use their registered closed-form partners
(:func:`systems.closed_partner`); everything else goes through a
damped-Newton inversion seeded from the sample box, with the jet-space
correction carried out by Newton iteration on the order-4 Taylor
polynomial, expanded once as a series in the solved slot.  Each iteration
doubles the order of contact, so from the float root k iterations are exact
through degree 2^k - 1, and order.bit_length() of them (3 at order 4) are
exact to truncation order.  The float solve evaluates the equation and its
slope together, once per trial point.

A numerically derived spec has no domain predicates.  Its domain is the set
of points whose float Newton solve succeeds and lands in the base domain:
the field solves each point of a batch once, and a point whose solve fails
on the base domain, on a non-finite value or on the inversion itself fails
with DomainViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import systems
from .errors import (DomainViolation, GeothermoError, InversionFailure,
                     NonFinite, PreconditionFailure, SingularDenominator)
from .jets import Faults, Jet, jet_eval, jet_poly
from .systems import (EXTENSIVE, INTENSIVE, Coordinate, SystemSpec,
                      domain_check, evaluate)

NEWTON_MAX_ITER = 100
NEWTON_RTOL = 1e-12
MONOTONE_SAMPLES = 32

# conventional conjugate names; anything else gets an "I_" prefix
_CONJUGATE = {"s": "T", "v": "I_v", "T": "I_T"}


@dataclass
class IntensiveVector:
    """Gradient of the potential: the full set of equations of state."""

    values: np.ndarray
    at: np.ndarray


@dataclass
class LegendrePartner:
    source_id: str
    transformed_slots: tuple
    spec: SystemSpec


def equations_of_state(spec: SystemSpec, x) -> IntensiveVector:
    """I_a = dPhi/dE^a at ``x`` (domain-checked)."""
    violated = domain_check(spec, x)
    if violated:
        raise DomainViolation(
            f"{spec.id}: point {tuple(x)} violates {violated}", violated)
    jet = jet_eval(spec.field, x, 1)
    return IntensiveVector(values=jet.grad.copy(),
                           at=np.asarray([float(c) for c in x]))


# ---- scalar root finding -------------------------------------------------


def _box_center(spec: SystemSpec):
    if spec.sample_box:
        return [0.5 * (lo + hi) for lo, hi in spec.sample_box]
    return [1.0] * spec.n


def _slot_range(spec: SystemSpec, slot: int):
    if spec.sample_box:
        return spec.sample_box[slot]
    return (0.5, 2.0)


def _newton_solve(fdf, seed, lo, hi):
    """Damped Newton for f(z) = 0; bracketed bisection fallback.

    ``fdf(z)`` returns (f(z), f'(z)) from one evaluation.  It may raise
    DomainViolation or NonFinite for invalid z; such trial points are
    treated as out of range during damping.  An accepted trial's derivative
    is the next Newton step's, so each trial evaluates the equation once.
    """

    def safe(z):
        try:
            f, df = fdf(z)
        except (DomainViolation, NonFinite, SingularDenominator,
                ZeroDivisionError, OverflowError):
            return None
        return (f, df) if math.isfinite(f) else None

    z = float(seed)
    fz = safe(z)
    if fz is None:
        # nudge the seed into the valid region along the sample interval
        for t in np.linspace(0.0, 1.0, 17)[1:]:
            for cand in (seed + t * (hi - seed), seed + t * (lo - seed)):
                fz = safe(cand)
                if fz is not None:
                    z = float(cand)
                    break
            if fz is not None:
                break
    if fz is None:
        raise DomainViolation("no valid seed for the inversion")

    for _ in range(NEWTON_MAX_ITER):
        f, df = fz
        if abs(f) <= NEWTON_RTOL * max(1.0, abs(z)):
            return z
        if not math.isfinite(df) or df == 0.0:
            break
        step = f / df
        lam = 1.0
        moved = False
        for _ in range(60):
            z_new = z - lam * step
            trial = safe(z_new)
            if trial is not None and abs(trial[0]) < abs(f):
                z, fz = z_new, trial
                moved = True
                break
            lam *= 0.5
        if not moved:
            break
    if abs(fz[0]) <= 1e-9 * max(1.0, abs(z)):
        return z

    # bisection fallback over an expanded window around the sample interval
    def f_only(zz):
        out = safe(zz)
        return None if out is None else out[0]

    width = hi - lo
    a, b = lo - 2.0 * width, hi + 2.0 * width
    zs = np.linspace(a, b, 257)
    vals = [f_only(zz) for zz in zs]
    bracket = None
    for (z0, f0), (z1, f1) in zip(zip(zs, vals), zip(zs[1:], vals[1:])):
        if f0 is None or f1 is None:
            continue
        if f0 == 0.0:
            return float(z0)
        if f0 * f1 < 0.0:
            bracket = (float(z0), float(z1), f0)
            break
    if bracket is None:
        raise DomainViolation("inversion target is out of reach on the domain")
    a, b, fa = bracket
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f_only(mid)
        if fm is None:
            raise DomainViolation(
                f"inversion equation is undefined at {mid!r} inside the "
                f"bracket [{a!r}, {b!r}]")
        if fm == 0.0 or (b - a) < 1e-15 * max(1.0, abs(mid)):
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _with_slot(values, slot, z):
    out = list(values)
    out[slot] = z
    return out


# ---- implicit fields -----------------------------------------------------


def _horner(series, t):
    """sum_m series[m] t^m."""
    out = series[-1]
    for a in reversed(series[:-1]):
        out = out * t + a
    return out


def _derivative(series, d):
    """Coefficients of the d-th derivative in t of sum_m series[m] t^m."""
    return [float(math.perm(m, d)) * a
            for m, a in enumerate(series) if m >= d]


class _ImplicitField:
    """Base for fields defined by solving one scalar equation per point.

    The equation is the ``derivative``-th derivative of the base potential
    in the solved slot set equal to the new coordinate of that slot.  Each
    point is solved once in floats (:meth:`solve_base_point`, which is also
    its domain check).  The jet-level result expands the order-4 Taylor
    polynomial of the base potential in the solved slot once, as a series
    in t = z - z0 whose coefficients are jets of the other coordinates
    (:meth:`Jet.slot_series`).  Newton's method on that series doubles the
    order of contact with every step (Brent & Kung, J. ACM 25, 1978): from
    the float root, k steps are exact through degree 2^k - 1, so
    ``order.bit_length()`` steps reach the truncation order (3 at order 4).
    Subclasses give the float equation and assemble the new potential from
    the same series.
    """

    derivative = 0

    def __init__(self, base: SystemSpec, slot: int):
        self.base = base
        self.slot = slot

    # -- float level

    def _residual(self, pt, target):
        """(f, df/dz) of the equation at base point ``pt``, from one
        evaluation of the base field."""
        raise NotImplementedError

    def base_point(self, new_values):
        """:meth:`solve_base_point`; the solve is the spec's domain check.

        A derived spec's domain is the set of points its solve accepts, so
        a point the solve rejects as out of range, non-finite or not
        invertible violates the domain, as a catalog predicate would.
        """
        try:
            return self.solve_base_point(new_values)
        except (DomainViolation, NonFinite, InversionFailure) as exc:
            raise DomainViolation(
                f"point {tuple(new_values)} is outside the preimage of the "
                f"{self.base.id} domain: {exc}",
                [f"preimage of the {self.base.id} domain"]) from exc

    def solve_base_point(self, new_values):
        """Recover the base-representation point behind ``new_values``."""
        target = float(new_values[self.slot])
        lo, hi = _slot_range(self.base, self.slot)
        z = _newton_solve(
            lambda zz: self._residual(_with_slot(new_values, self.slot, zz),
                                      target),
            0.5 * (lo + hi), lo, hi)
        pt = _with_slot(new_values, self.slot, z)
        violated = domain_check(self.base, pt)
        if violated:
            raise DomainViolation(
                f"recovered base point {tuple(pt)} violates {violated}",
                violated)
        return pt

    # -- jet level

    def __call__(self, args):
        jet_args = [a for a in args if isinstance(a, Jet)]
        if not jet_args:
            return self._float_value([float(a) for a in args])
        ambient = jet_args[0]
        nvars, order, faults = ambient.nvars, ambient.order, ambient.faults
        bk = ambient.bk
        size = max(a.size for a in jet_args)
        args = [a if isinstance(a, Jet)
                else Jet.constant(nvars, order, a, faults, bk) for a in args]
        y0 = np.column_stack([np.broadcast_to(a.value, (size,))
                              for a in args])
        # one float Newton solve per point, which is also the point's domain
        # check; a point that fails stays NaN
        record = faults if faults is not None else Faults(size)
        base_pts = np.full_like(y0, math.nan)
        for i, row in enumerate(y0.astype(float).tolist()):
            if record.ok[i]:
                try:
                    base_pts[i] = self.base_point(row)
                except GeothermoError as exc:
                    record.fail(i, exc)
        if faults is None:
            record.raise_first()
        # the polynomial needs at least order 2 so that the Newton slope of
        # a partial Legendre equation (a second derivative of the base
        # potential) has a constant term
        poly = jet_poly(self.base.field, base_pts, max(order, 2), faults, bk)
        series = poly.slot_series(
            self.slot, [args[j] - y0[:, j] for j in range(len(args))])
        equation = _derivative(series, self.derivative)
        slope = _derivative(equation, 1)
        target = args[self.slot]
        t = 0.0
        for _ in range(order.bit_length()):
            t = t - (_horner(equation, t) - target) / _horner(slope, t)
        return self._assemble(series, t, base_pts[:, self.slot], target)

    def _float_value(self, values):
        raise NotImplementedError

    def _assemble(self, series, t, z0, target):
        """The new potential from the slot series, the solved t = z - z0
        and the new slot coordinate ``target``."""
        raise NotImplementedError


class _PartialLegendreField(_ImplicitField):
    """Phi_new(I_slot, E_rest) = Phi - I_slot * E_slot with E_slot solved
    from dPhi/dE^slot = I_slot."""

    derivative = 1

    def _residual(self, pt, target):
        jet = jet_eval(self.base.field, pt, 2)
        return (jet.grad[self.slot] - target,
                jet.hess[self.slot, self.slot])

    def _float_value(self, values):
        pt = self.base_point(values)
        return evaluate(self.base, pt) - values[self.slot] * pt[self.slot]

    def _assemble(self, series, t, z0, target):
        return _horner(series, t) - target * (t + z0)


class _InverseRepresentationField(_ImplicitField):
    """E^slot as a function of (Phi, E_rest): solve Phi(E) = phi."""

    def _residual(self, pt, target):
        violated = domain_check(self.base, pt)
        if violated:
            raise DomainViolation(
                f"{tuple(pt)} violates {violated}", violated)
        jet = jet_eval(self.base.field, pt, 1)
        return jet.value - target, jet.grad[self.slot]

    def _float_value(self, values):
        return self.base_point(values)[self.slot]

    def _assemble(self, series, t, z0, target):
        return t + z0


# ---- monotonicity precheck -----------------------------------------------


def _monotone_samples(spec: SystemSpec, slot: int, value_fn):
    """Sample value_fn along the slot direction through the box center.

    Returns the (coordinate, value) samples; raises InversionFailure with a
    witness pair when the sampled map is not strictly monotone.
    """
    center = _box_center(spec)
    lo, hi = _slot_range(spec, slot)
    samples = []
    for z in np.linspace(lo, hi, MONOTONE_SAMPLES):
        pt = _with_slot(center, slot, float(z))
        if domain_check(spec, pt):
            continue
        try:
            val = value_fn(pt)
        except (DomainViolation, NonFinite, SingularDenominator,
                ZeroDivisionError):
            continue
        if math.isfinite(val):
            samples.append((float(z), float(val)))
    if len(samples) < 4:
        raise InversionFailure(
            f"{spec.id}: too few valid samples along slot {slot} "
            "to certify monotonicity")
    sign = 0.0
    for (z0, f0), (z1, f1) in zip(samples, samples[1:]):
        d = f1 - f0
        if d == 0.0 or (sign != 0.0 and d * sign < 0.0):
            raise InversionFailure(
                f"{spec.id}: map is not strictly monotone in slot {slot}",
                witness=((z0, f0), (z1, f1)))
        sign = math.copysign(1.0, d)
    return samples


def _derived_spec(spec: SystemSpec, slot: int, coord: Coordinate, field,
                  slot_value, **names) -> SystemSpec:
    """A Newton-derived spec: ``spec`` with coordinate ``slot`` replaced by
    ``coord`` and ``field`` as its potential.

    ``slot_value(pt)`` is the new coordinate at a base point.  It must be
    strictly monotone along the slot, and the middle 80% of its sampled
    range is the new slot's sample interval.  ``names`` gives the id, the
    potential name and the excluded slot.
    """
    vals = sorted(v for _, v in _monotone_samples(spec, slot, slot_value))
    pad = 0.1 * (vals[-1] - vals[0])
    coords = list(spec.coords)
    coords[slot] = coord
    box = list(spec.sample_box) if spec.sample_box else [(0.5, 2.0)] * spec.n
    box[slot] = (vals[0] + pad, vals[-1] - pad)
    return SystemSpec(coords=tuple(coords), params=dict(spec.params),
                      domain=(), field=field, sample_box=tuple(box), **names)


def _gradient_map(spec: SystemSpec, slots, coords):
    """Base point -> the conjugates on ``slots``, named by ``coords``; a
    pressure-like conjugate flips sign (P = -dPhi/dv)."""
    signs = {s: -1.0 if coords[s].name == "P" else 1.0 for s in slots}

    def point_map(x):
        grad = jet_eval(spec.field, x, 1).grad
        out = list(x)
        for s, sign in signs.items():
            out[s] = sign * grad[s]
        return out

    return point_map


def _legendre_of(spec: SystemSpec, slots, out: SystemSpec) -> SystemSpec:
    """Record ``out`` as the Legendre transform of ``spec`` on ``slots``."""
    out.meta.update(point_map=_gradient_map(spec, slots, out.coords),
                    legendre_of=spec.id, legendre_slots=tuple(slots))
    return out


def _check_solve(solve: str):
    if solve not in ("auto", "closed", "newton"):
        raise PreconditionFailure(f"unknown inversion strategy '{solve}'")


def _closed_partner(spec: SystemSpec, kind: str, slot, solve: str):
    """The catalog's closed form of the transform when ``solve`` allows one,
    else None; ``solve="closed"`` without one raises PreconditionFailure."""
    _check_solve(solve)
    out = None if solve == "newton" else systems.closed_partner(spec, kind,
                                                                 slot)
    if out is None and solve == "closed":
        where = "" if slot is None else f" on slot {slot}"
        raise PreconditionFailure(
            f"{spec.id} has no closed-form {kind.replace('_', ' ')}{where}")
    return out


def _compose_point_map(inner, outer):
    if inner is None:
        return outer
    return lambda x: outer(inner(x))


# ---- Legendre transforms -------------------------------------------------


def legendre_point(spec: SystemSpec, x):
    """Map a base point through the point map recorded on a derived spec."""
    pm = spec.meta.get("point_map")
    if pm is None:
        raise PreconditionFailure(f"{spec.id} records no point map")
    return [float(c) for c in pm(list(x))]


def partial_legendre(spec: SystemSpec, slot: int, solve: str = "auto") -> SystemSpec:
    """Trade E^slot for its conjugate intensive; new potential Phi - I E.

    ``solve`` is "auto" (closed form when ``spec`` is a catalog system with
    a registered partner, numeric otherwise), "closed", or "newton".
    """
    if not 0 <= slot < spec.n:
        raise PreconditionFailure(
            f"slot {slot} out of range for {spec.n} coordinates")
    out = _closed_partner(spec, "partial_legendre", slot, solve)
    if out is None:
        old = spec.coords[slot].name
        conj_name = _CONJUGATE.get(old, "I_" + old)
        out = _derived_spec(
            spec, slot, Coordinate(conj_name, INTENSIVE),
            _PartialLegendreField(spec, slot),
            lambda pt: jet_eval(spec.field, pt, 1).grad[slot],
            id=f"{spec.id}~L{slot}",
            potential_name=f"{spec.potential_name}_{conj_name}",
            excluded_index=spec.excluded_index)
    return _legendre_of(spec, (slot,), out)


def total_legendre(spec: SystemSpec, solve: str = "auto") -> SystemSpec:
    """Legendre-transform every slot (identity for already-total potentials)."""
    if spec.meta.get("already_total_legendre"):
        _check_solve(solve)
        return replace(spec, meta=dict(spec.meta, point_map=lambda x: list(x)))
    slots = tuple(range(spec.n))
    out = _closed_partner(spec, "total_legendre", None, solve)
    if out is not None:
        return _legendre_of(spec, slots, out)
    out = spec
    pm = None
    for slot in slots:
        out = partial_legendre(out, slot, solve="newton")
        pm = _compose_point_map(pm, out.meta["point_map"])
    out.meta.update(point_map=pm, legendre_of=spec.id, legendre_slots=slots)
    return out


def legendre_partner(spec: SystemSpec, slots=None, solve: str = "auto") -> LegendrePartner:
    """Transform record: source id, slots, and the transformed SystemSpec."""
    if slots is None or tuple(slots) == tuple(range(spec.n)):
        new = total_legendre(spec, solve=solve)
        return LegendrePartner(spec.id, tuple(range(spec.n)), new)
    slots = tuple(slots)
    if not slots:
        raise PreconditionFailure("transformed slots must be nonempty")
    new = spec
    for s in slots:
        new = partial_legendre(new, s, solve=solve)
    return LegendrePartner(spec.id, slots, new)


# ---- representation inversion --------------------------------------------


def invert_representation(spec: SystemSpec, target_slot: int,
                          solve: str = "auto") -> SystemSpec:
    """Swap the potential with E^target_slot: new potential E^target(Phi, E).

    ``solve`` chooses the closed form or Newton as in :func:`partial_legendre`.
    """
    if not 0 <= target_slot < spec.n:
        raise PreconditionFailure(
            f"slot {target_slot} out of range for {spec.n} coordinates")
    out = _closed_partner(spec, "inverse", target_slot, solve)
    if out is None:
        out = _derived_spec(
            spec, target_slot, Coordinate(spec.potential_name, EXTENSIVE),
            _InverseRepresentationField(spec, target_slot),
            lambda pt: evaluate(spec, pt),
            id=f"{spec.id}~inv{target_slot}",
            potential_name=spec.coords[target_slot].name,
            excluded_index=target_slot)

    def point_map(x):
        return _with_slot(x, target_slot, evaluate(spec, x))

    out.meta.update(point_map=point_map, inverse_of=spec.id)
    return out


# ---- van der Waals coordinate changes ------------------------------------


def to_vP(spec_vdw_s: SystemSpec, u: float, v: float):
    """(u, v) -> (v, P) on the van der Waals equilibrium surface."""
    a = spec_vdw_s.params.get("a", 1.0)
    b = spec_vdw_s.params.get("b", 1.0)
    if not v > b:
        raise DomainViolation(f"v = {v} must exceed b = {b}", [f"v > {b}"])
    P = (2.0 * u * v * v - a * v + 3.0 * a * b) / (3.0 * v * v * (v - b))
    return v, P


def u_from_vP(v, P, a: float = 1.0, b: float = 1.0):
    """Inverse of :func:`to_vP` at fixed v (floats or arrays of points)."""
    if not np.all(np.asarray(v) > b):
        raise DomainViolation(f"v = {v} must exceed b = {b}", [f"v > {b}"])
    return (3.0 * P * v * v * (v - b) + a * v - 3.0 * a * b) / (2.0 * v * v)


def reduced_variables(v: float, P: float, a: float = 1.0, b: float = 1.0):
    """Reduced (v_r, P_r) with v_c = 3b, P_c = a/(27 b^2)."""
    if not (a > 0.0 and b > 0.0):
        raise PreconditionFailure("reduced variables need a > 0 and b > 0")
    return v / (3.0 * b), 27.0 * P * b * b / a


# ---- first law -----------------------------------------------------------


def first_law_residual(spec: SystemSpec, path) -> float:
    """max over segments of |dPhi - I . dE| / |dE| along a polygonal path.

    Midpoint-rule quadrature of the exact gradient, so the residual is a
    pipeline sanity check that should vanish to quadrature order.
    """
    pts = [np.asarray([float(c) for c in p]) for p in path]
    if len(pts) < 2:
        if pts:
            evaluate(spec, pts[0])
        return 0.0
    worst = 0.0
    phi = [evaluate(spec, p) for p in pts]
    for (x0, f0), (x1, f1) in zip(zip(pts, phi), zip(pts[1:], phi[1:])):
        dx = x1 - x0
        seg = float(np.linalg.norm(dx))
        if seg == 0.0:
            continue
        mid = 0.5 * (x0 + x1)
        inten = equations_of_state(spec, mid).values
        worst = max(worst, abs((f1 - f0) - float(inten @ dx)) / seg)
    return worst
