"""Equations of state, Legendre transforms, and coordinate changes.

A partial Legendre transform on slot ``a`` trades the coordinate E^a for its
conjugate intensive I_a = dPhi/dE^a and the potential for Phi - I_a E^a; the
total transform does this on every slot.  Representation inversion instead
swaps the potential with one coordinate, solving Phi(E) = phi for E^a.

Catalog systems use their registered closed-form partners; everything else
goes through a damped-Newton inversion seeded from the sample box, with the
jet-space correction carried out by Newton iteration on the order-4 Taylor
polynomial (each iteration doubles the order of contact, so a handful of
steps is exact to truncation order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import systems
from .errors import (DomainViolation, GeothermoError, InversionFailure,
                     NonFinite, PreconditionFailure, SingularDenominator)
from .jets import Faults, Jet, jet_eval, jet_poly
from .systems import (EXTENSIVE, INTENSIVE, Coordinate, ImplicitPredicate,
                      SystemSpec, domain_check, evaluate)

NEWTON_MAX_ITER = 100
NEWTON_RTOL = 1e-12
MONOTONE_SAMPLES = 32
JET_NEWTON_STEPS = 6

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


def _newton_solve(f, df, seed, lo, hi):
    """Damped Newton for f(z) = 0; bracketed bisection fallback.

    ``f``/``df`` may raise DomainViolation or NonFinite for invalid z;
    such trial points are treated as out of range during damping.
    """

    def safe(fn, z):
        try:
            val = fn(z)
        except (DomainViolation, NonFinite, SingularDenominator,
                ZeroDivisionError, OverflowError):
            return None
        return val if math.isfinite(val) else None

    z = float(seed)
    fz = safe(f, z)
    if fz is None:
        # nudge the seed into the valid region along the sample interval
        for t in np.linspace(0.0, 1.0, 17)[1:]:
            for cand in (seed + t * (hi - seed), seed + t * (lo - seed)):
                fz = safe(f, cand)
                if fz is not None:
                    z = float(cand)
                    break
            if fz is not None:
                break
    if fz is None:
        raise DomainViolation("no valid seed for the inversion")

    scale = max(1.0, abs(z))
    for _ in range(NEWTON_MAX_ITER):
        if abs(fz) <= NEWTON_RTOL * max(1.0, abs(z)):
            return z
        dfz = safe(df, z)
        if dfz is None or dfz == 0.0:
            break
        step = fz / dfz
        lam = 1.0
        moved = False
        for _ in range(60):
            z_new = z - lam * step
            f_new = safe(f, z_new)
            if f_new is not None and abs(f_new) < abs(fz):
                z, fz = z_new, f_new
                moved = True
                break
            lam *= 0.5
        if not moved:
            break
    if abs(fz) <= 1e-9 * max(1.0, abs(z)):
        return z

    # bisection fallback over an expanded window around the sample interval
    width = hi - lo
    a, b = lo - 2.0 * width, hi + 2.0 * width
    zs = np.linspace(a, b, 257)
    vals = [safe(f, zz) for zz in zs]
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
        fm = safe(f, mid)
        if fm is None:
            break
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


class _ImplicitField:
    """Base for fields defined by solving one scalar equation per point.

    Subclasses define the float-level solve (what equation pins down the
    hidden base coordinate) and the jet-level result assembled from the
    order-4 Taylor polynomial of the base potential.
    """

    def __init__(self, base: SystemSpec, slot: int):
        self.base = base
        self.slot = slot
        self._last = None   # (point, base point, exception) of base_point

    # -- float level

    def _target_of(self, new_values):
        return float(new_values[self.slot])

    def _residual(self, z, new_values, target):
        raise NotImplementedError

    def _residual_deriv(self, z, new_values):
        raise NotImplementedError

    def base_point(self, new_values):
        """:meth:`solve_base_point`, remembering the last point solved.

        The domain predicate and the field solve the same point one after
        the other; the second call replays the first one's result or
        exception.
        """
        key = tuple(float(v) for v in new_values)
        last = self._last
        if last is None or last[0] != key:
            try:
                last = (key, self.solve_base_point(list(key)), None)
            except GeothermoError as exc:
                last = (key, None, exc)
            self._last = last
        if last[2] is not None:
            raise last[2]
        return list(last[1])

    def solve_base_point(self, new_values):
        """Recover the base-representation point behind ``new_values``."""
        target = self._target_of(new_values)
        lo, hi = _slot_range(self.base, self.slot)
        seed = 0.5 * (lo + hi)
        z = _newton_solve(
            lambda zz: self._residual(zz, new_values, target),
            lambda zz: self._residual_deriv(zz, new_values),
            seed, lo, hi)
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
        # one Newton solve per point; a point that fails stays NaN
        record = faults if faults is not None else Faults(size)
        base_pts = np.full_like(y0, math.nan)
        for i, row in enumerate(y0.tolist()):
            if record.ok[i]:
                try:
                    base_pts[i] = self.base_point(row)
                except GeothermoError as exc:
                    record.fail(i, exc)
        if faults is None:
            record.raise_first()
        # the polynomial needs at least order 2 so the Newton denominator
        # (a second derivative of the base potential) has a constant term
        poly = jet_poly(self.base.field, base_pts, max(order, 2), faults, bk)
        deltas_rest = [args[j] - y0[:, j] for j in range(len(args))]
        z0 = base_pts[:, self.slot]
        z = Jet.constant(nvars, order, z0, faults, bk)
        num_poly, den_poly = self._newton_polys(poly)
        for _ in range(JET_NEWTON_STEPS):
            ds = _with_slot(deltas_rest, self.slot, z - z0)
            num = num_poly.poly_eval(ds) - args[self.slot]
            den = den_poly.poly_eval(ds)
            z = z - num / den
        ds = _with_slot(deltas_rest, self.slot, z - z0)
        return self._assemble(poly, ds, z, args)

    def _float_value(self, values):
        raise NotImplementedError

    def _newton_polys(self, poly):
        """(numerator, derivative) polynomials of the defining equation."""
        raise NotImplementedError

    def _assemble(self, poly, ds, z, args):
        raise NotImplementedError


class _PartialLegendreField(_ImplicitField):
    """Phi_new(I_slot, E_rest) = Phi - I_slot * E_slot with E_slot solved
    from dPhi/dE^slot = I_slot."""

    def _residual(self, z, new_values, target):
        pt = _with_slot(new_values, self.slot, z)
        return jet_eval(self.base.field, pt, 1).grad[self.slot] - target

    def _residual_deriv(self, z, new_values):
        pt = _with_slot(new_values, self.slot, z)
        return jet_eval(self.base.field, pt, 2).hess[self.slot, self.slot]

    def _float_value(self, values):
        pt = self.base_point(values)
        return evaluate(self.base, pt) - values[self.slot] * pt[self.slot]

    def _newton_polys(self, poly):
        ps = poly.deriv(self.slot)
        return ps, ps.deriv(self.slot)

    def _assemble(self, poly, ds, z, args):
        return poly.poly_eval(ds) - args[self.slot] * z


class _InverseRepresentationField(_ImplicitField):
    """E^slot as a function of (Phi, E_rest): solve Phi(E) = phi."""

    def _residual(self, z, new_values, target):
        pt = _with_slot(new_values, self.slot, z)
        violated = domain_check(self.base, pt)
        if violated:
            raise DomainViolation(
                f"{tuple(pt)} violates {violated}", violated)
        out = self.base.field([float(c) for c in pt])
        return (out.value if hasattr(out, "value") else float(out)) - target

    def _residual_deriv(self, z, new_values):
        pt = _with_slot(new_values, self.slot, z)
        return jet_eval(self.base.field, pt, 1).grad[self.slot]

    def _float_value(self, values):
        return self.base_point(values)[self.slot]

    def _newton_polys(self, poly):
        return poly, poly.deriv(self.slot)

    def _assemble(self, poly, ds, z, args):
        return z


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


def _derived_slot_box(samples):
    vals = sorted(v for _, v in samples)
    lo, hi = vals[0], vals[-1]
    pad = 0.1 * (hi - lo)
    return (lo + pad, hi - pad)


def _shared_params(spec: SystemSpec, partner: SystemSpec):
    return {k: spec.params[k] for k in partner.params if k in spec.params}


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

    ``solve`` is "auto" (closed form when the catalog registers a partner,
    numeric otherwise), "closed", or "newton".
    """
    if not 0 <= slot < spec.n:
        raise PreconditionFailure(
            f"slot {slot} out of range for {spec.n} coordinates")
    if solve not in ("auto", "closed", "newton"):
        raise PreconditionFailure(f"unknown inversion strategy '{solve}'")

    partner_id = systems.PARTNERS.get(spec.id, {}).get(
        "partial_legendre", {}).get(slot)
    if solve in ("auto", "closed") and partner_id is not None:
        partner = systems.get_system(partner_id)
        out = systems.get_system(partner_id, **_shared_params(spec, partner))
        # conjugate as named by the partner spec: T = +Phi_s; a pressure-like
        # coordinate is the negative gradient (P = -dF/dv)
        out.meta["point_map"] = _make_partner_map(spec, (slot,), out)
        out.meta["legendre_of"] = spec.id
        out.meta["legendre_slots"] = (slot,)
        return out
    if solve == "closed":
        raise PreconditionFailure(
            f"{spec.id} registers no closed-form partner for slot {slot}")

    def conj_at(pt):
        return jet_eval(spec.field, pt, 1).grad[slot]

    samples = _monotone_samples(spec, slot, conj_at)

    old = spec.coords[slot].name
    conj_name = _CONJUGATE.get(old, "I_" + old)
    new_coords = list(spec.coords)
    new_coords[slot] = Coordinate(conj_name, INTENSIVE)
    field = _PartialLegendreField(spec, slot)

    def in_preimage(values):
        try:
            field.base_point(values)
        except (DomainViolation, NonFinite, InversionFailure):
            return False
        return True

    box = list(spec.sample_box) if spec.sample_box else [(0.5, 2.0)] * spec.n
    box[slot] = _derived_slot_box(samples)

    def point_map(x):
        return _with_slot(x, slot, jet_eval(spec.field, x, 1).grad[slot])

    return SystemSpec(
        id=f"{spec.id}~L{slot}",
        coords=tuple(new_coords),
        potential_name=f"{spec.potential_name}_{conj_name}",
        excluded_index=spec.excluded_index,
        params=dict(spec.params),
        domain=(ImplicitPredicate(
            f"preimage of the {spec.id} domain under {old} -> {conj_name}",
            in_preimage),),
        field=field,
        sample_box=tuple(box),
        meta={"legendre_of": spec.id, "legendre_slots": (slot,),
              "point_map": point_map},
    )


def _make_partner_map(spec: SystemSpec, slots, partner: SystemSpec):
    """Base point -> partner coordinates, honoring the partner's sign
    conventions (pressure-like conjugates flip sign: P = -dPhi/dv)."""
    flips = {s: (-1.0 if partner.coords[s].name in ("P",) else 1.0)
             for s in slots}

    def point_map(x):
        grad = jet_eval(spec.field, x, 1).grad
        out = list(x)
        for s in slots:
            out[s] = flips[s] * grad[s]
        return out

    return point_map


def total_legendre(spec: SystemSpec, solve: str = "auto") -> SystemSpec:
    """Legendre-transform every slot (identity for already-total potentials)."""
    if spec.meta.get("already_total_legendre"):
        out = replace(spec, meta=dict(spec.meta, point_map=lambda x: list(x)))
        return out
    partner_id = systems.PARTNERS.get(spec.id, {}).get("total_legendre")
    if solve in ("auto", "closed") and partner_id is not None:
        partner = systems.get_system(partner_id)
        out = systems.get_system(partner_id, **_shared_params(spec, partner))
        out.meta["point_map"] = _make_partner_map(spec, range(spec.n), out)
        out.meta["legendre_of"] = spec.id
        out.meta["legendre_slots"] = tuple(range(spec.n))
        return out

    out = spec
    pm = None
    for slot in range(spec.n):
        out = partial_legendre(out, slot, solve="newton")
        pm = _compose_point_map(pm, out.meta["point_map"])
    out.meta["point_map"] = pm
    out.meta["legendre_of"] = spec.id
    out.meta["legendre_slots"] = tuple(range(spec.n))
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
    """Swap the potential with E^target_slot: new potential E^target(Phi, E)."""
    if not 0 <= target_slot < spec.n:
        raise PreconditionFailure(
            f"slot {target_slot} out of range for {spec.n} coordinates")

    inv = systems.PARTNERS.get(spec.id, {}).get("inverse")
    if solve in ("auto", "closed") and inv is not None and inv[1] == target_slot:
        partner = systems.get_system(inv[0])
        out = systems.get_system(inv[0], **_shared_params(spec, partner))

        def closed_map(x):
            return _with_slot(x, target_slot, evaluate(spec, x))

        out.meta["point_map"] = closed_map
        out.meta["inverse_of"] = spec.id
        return out
    if solve == "closed":
        raise PreconditionFailure(
            f"{spec.id} registers no closed-form inverse on slot {target_slot}")

    samples = _monotone_samples(
        spec, target_slot, lambda pt: evaluate(spec, pt))

    old = spec.coords[target_slot].name
    new_coords = list(spec.coords)
    new_coords[target_slot] = Coordinate(spec.potential_name, EXTENSIVE)
    field = _InverseRepresentationField(spec, target_slot)

    def in_preimage(values):
        try:
            field.base_point(values)
        except (DomainViolation, NonFinite, InversionFailure):
            return False
        return True

    box = list(spec.sample_box) if spec.sample_box else [(0.5, 2.0)] * spec.n
    box[target_slot] = _derived_slot_box(samples)

    def point_map(x):
        return _with_slot(x, target_slot, evaluate(spec, x))

    return SystemSpec(
        id=f"{spec.id}~inv{target_slot}",
        coords=tuple(new_coords),
        potential_name=old,
        excluded_index=target_slot,
        params=dict(spec.params),
        domain=(ImplicitPredicate(
            f"preimage of the {spec.id} domain under {old} -> "
            f"{spec.potential_name}", in_preimage),),
        field=field,
        sample_box=tuple(box),
        meta={"inverse_of": spec.id, "point_map": point_map},
    )


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
