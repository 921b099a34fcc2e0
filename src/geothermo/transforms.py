"""Equations of state, Legendre transforms, and coordinate changes.

A partial Legendre transform on slot ``a`` trades the coordinate E^a for its
conjugate intensive I_a = dPhi/dE^a and the potential for Phi - I_a E^a; the
total transform does this on every slot.  Representation inversion instead
swaps the potential with one coordinate, solving Phi(E) = phi for E^a.

Catalog systems use their registered closed-form partners
(:func:`systems.closed_partner`); everything else goes through one
Newton-derived field, which solves for a slot derivative of the base
potential: the potential itself for inversion, its first derivative for a
partial Legendre transform.  Building one samples the base along slot
lines in one batch: the line through the box centre certifies that the map
is monotone and gives the new sample box, and it and the seed lines around
it seed each solve.  The float solves of a batch advance in lockstep
(:func:`jets.lockstep`), each pass one evaluation of the base field over
every live trial, checked against the base predicates that read the solved
slot; the others are checked once per point, before the first trial.  A
trial reads f and f' from the coefficient rows of that evaluation
(:func:`jets.jet_partials`), under the NonFinite rule of ``jet_eval`` and
without its scatter into tensors.  A derived base solves once per pass.
The jet-space correction is Newton iteration on the order-4 Taylor
polynomial, expanded once as a series in the solved slot: from the float
root, k iterations are exact through degree 2^k - 1.  A point decides only
from its own values, and a call on floats is a batch of one at order 0, so
a point and its batch give the same bits.

A single query is a batch of one, and its cost is mostly fixed per call.
Measured in process with stage wrappers (2-core machine, 48 points of the
sample box, best of 5 passes), an ``inv_vdw_s`` query costs about 980 us:
the float solve 450-490 (seeds 33, 3.8 trial evaluations 215-235, 4.8
domain checks 150-165), the base's order-4 jet 100, the series 45, the jet
Newton 200-220 and the curvature outside the field 160-180.  Reading the
trials' rows in place of jet_eval's scatter, interpolating only the seed
lines that bracket a point, placing the series coefficients without
products and gathering the jet products' pairs with ``take`` took it from
about 1170 us (solve 550-600, seeds 60, series 85, jet Newton 260-280);
``pl_vdw_u`` went from about 1190 to 960 us.

A numerically derived spec has no domain predicates.  Its domain is the set
of points whose float Newton solve succeeds inside the base domain, and a
point whose solve fails there, on a non-finite value or on the inversion
itself fails with DomainViolation.

Each transform records its point map in the spec's ``meta``: a batch map
from a (batch, n) array of base points, with the batch's Faults record, to
the points of the new representation (:func:`legendre_point` maps one).
Every transform builds it with one :func:`_point_map`, which checks the
base domain before it makes one evaluation of the base potential, so a
base point that does not exist does not map.  A chain of partial Legendre
transforms maps in one evaluation too: at fixed I_a, the derivative of
Phi - I_a E^a in E^b is dPhi/dE^b.  Every Legendre output records
``point_map``, ``legendre_of`` (the base's id) and ``legendre_slots``; an
inversion records ``point_map`` and ``inverse_of``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import systems
from .errors import (DomainViolation, GeothermoError, InversionFailure,
                     PreconditionFailure)
from .jets import (Faults, Jet, jet_eval, jet_partials, jet_poly, lockstep,
                   monomial_number)
from .systems import (EXTENSIVE, INTENSIVE, Coordinate, SystemSpec,
                      domain_check, evaluate)

NEWTON_MAX_ITER = 100
NEWTON_RTOL = 1e-12
# where bisection's bracket closes, |f| at a root has fallen from its
# larger value at the bracket's first ends at least in proportion to the
# width, give or take this factor: it admits a root up to about 1e6 times
# steeper than the bracket's mean slope (tanh(1e6 (z - 0.5)) on a bracket
# 0.06 wide) and rounding in f of a few ulp of the target, and on such a
# bracket it rejects a jump of more than about 1e-8 of the ends' |f|
BISECTION_SLACK = 1e6
MONOTONE_SAMPLES = 32
SEED_LINES = 8

# conventional conjugate names; anything else gets an "I_" prefix
_CONJUGATE = {"s": "T", "v": "I_v", "T": "I_T"}


@dataclass
class IntensiveVector:
    """Gradient of the potential: the full set of equations of state."""

    values: np.ndarray
    at: np.ndarray


def equations_of_state(spec: SystemSpec, x) -> IntensiveVector:
    """I_a = dPhi/dE^a at ``x`` (domain-checked), as a batch of one."""
    at = np.asarray([float(c) for c in x])
    jet = jet_eval(spec.field, at, 1, domain_check(spec, at))
    return IntensiveVector(values=jet.grad.copy(), at=at)


# ---- scalar root finding -------------------------------------------------


def _box(spec: SystemSpec):
    """The sample box of ``spec`` as a list of (lo, hi), and its centre; a
    spec without one gets (0.5, 2.0) on every coordinate, centred at 1.0."""
    if spec.sample_box:
        return (list(spec.sample_box),
                [0.5 * (lo + hi) for lo, hi in spec.sample_box])
    return [(0.5, 2.0)] * spec.n, [1.0] * spec.n


def _newton_solve(seed, lo, hi, target):
    """Damped Newton for f(z) = 0, bisection fallback, as a coroutine.

    It yields each trial z and is sent (f(z), f'(z)) from one evaluation,
    or None where z is invalid, which damping treats as out of range.  An
    accepted trial's derivative is the next Newton step's.  It returns the
    root, or raises DomainViolation.  Bisection returns only a midpoint
    whose f it has seen: zero, or, where the bracket closes, an |f| that
    fell with the bracket's width (see :data:`BISECTION_SLACK`).  A sign
    change at a pole (|f| grows), a jump across zero (|f| stays bounded)
    and a bracket that does not close in 200 halvings fail, each with its
    own message.

    f is a value minus ``target``, so a residual is accepted relative to
    max(1, |target|): scaled by |z| instead, a far trial whose value has
    flattened out short of the target would pass for a root.
    """
    tol = max(1.0, abs(target))
    z = float(seed)
    fz = yield z
    if fz is None:
        # nudge the seed into the valid region along the sample interval
        for z in [float(seed + t * (end - seed))
                  for t in np.linspace(0.0, 1.0, 17)[1:] for end in (hi, lo)]:
            fz = yield z
            if fz is not None:
                break
        else:
            raise DomainViolation("no valid seed for the inversion")

    for _ in range(NEWTON_MAX_ITER):
        f, df = fz
        if abs(f) <= NEWTON_RTOL * tol:
            return z
        if not math.isfinite(df) or df == 0.0:
            break
        step, lam = f / df, 1.0
        for _ in range(60):
            trial = yield z - lam * step
            if trial is not None and abs(trial[0]) < abs(f):
                z, fz = z - lam * step, trial
                break
            lam *= 0.5
        else:
            break
    if abs(fz[0]) <= 1e-9 * tol:
        return z

    # bisection fallback: the first sign change between neighbouring valid
    # samples of an expanded window around the sample interval
    width = hi - lo
    z0 = f0 = None
    for z1 in np.linspace(lo - 2.0 * width, hi + 2.0 * width, 257).tolist():
        out = yield z1
        f1 = None if out is None else out[0]
        if f0 is not None and f1 is not None:
            if f0 == 0.0:
                return z0
            if f0 * f1 < 0.0:
                break
        z0, f0 = z1, f1
    else:
        raise DomainViolation("inversion target is out of reach on the domain")
    # a root where the bracket closes: |f| there has fallen from its larger
    # value at the sampled ends about as much as the bracket has shrunk.  A
    # pole's |f| grows past that value, and a jump's stays near half its
    # step
    a, b, fa = z0, z1, f0
    reach, width = max(abs(f0), abs(f1)), z1 - z0
    for _ in range(200):
        mid = 0.5 * (a + b)
        out = yield mid
        if out is None:
            raise DomainViolation(
                f"inversion equation is undefined at {mid!r} inside the "
                f"bracket [{a!r}, {b!r}]")
        fm = out[0]
        if fm == 0.0:
            return mid
        if (b - a) < 1e-15 * max(1.0, abs(mid)):
            if abs(fm) <= BISECTION_SLACK * reach * ((b - a) / width):
                return mid
            if abs(fm) > reach:
                raise DomainViolation(
                    f"inversion equation changes sign at a pole near {mid!r}")
            raise DomainViolation(
                f"inversion equation jumps across zero near {mid!r}")
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    raise DomainViolation(
        f"bisection of the bracket [{a!r}, {b!r}] did not converge")


# ---- implicit fields -----------------------------------------------------


def _horner(series, t):
    """sum_m series[m] t^m."""
    out = series[-1]
    for a in reversed(series[:-1]):
        out = out * t + a
    return out


def _derivative(series, d):
    """Coefficients of the d-th derivative in t of sum_m series[m] t^m.  A
    product by a factor m!/(m-d)! of 1 is exact, so it is not taken."""
    factors = [math.perm(m, d) for m in range(d, len(series))]
    return [a if f == 1 else float(f) * a
            for f, a in zip(factors, series[d:])]


class _ImplicitField:
    """A potential defined by solving one scalar equation per point.

    The equation sets the ``derivative``-th derivative of the base potential
    in ``slot`` equal to the new coordinate of that slot: 0 for
    representation inversion (solve Phi(E) = phi for E^slot), 1 for a
    partial Legendre transform (solve dPhi/dE^slot = I_slot).  Each point
    is solved once in floats (:meth:`solve_base_point`, which is also its
    domain check), seeded from a table of slot ``lines``: per line, its
    (coordinates, values) samples sorted by value, on the grid of ``nodes``
    of the other coordinates (see :func:`_sample_lines`).  The base
    predicates are split once by whether their tapes read the solved slot:
    those that do not hold or fail alike for every trial of a point.

    A trial reads f and f' from the coefficient rows of one evaluation of
    the base (:func:`jets.jet_partials`, the columns ``_along``), and a
    point is seeded from the 2^(n-1) seed lines that bracket it
    (:meth:`_seeds`).

    The jet-level result expands the order-4 Taylor polynomial of the base
    potential in the solved slot once, as a series in t = z - z0 whose
    coefficients are jets of the other coordinates
    (:meth:`Jet.slot_series`, which places the coefficients of a
    two-coordinate base without products, since each displacement is its
    variable shifted to zero).  Newton's method on that series doubles the
    order of contact with every step (Brent & Kung, J. ACM 25, 1978): from
    the float root, k steps are exact through degree 2^k - 1, so
    ``order.bit_length()`` steps reach the truncation order (3 at order 4).
    The new potential is the solved z for inversion and Phi - I z, from the
    same series, for a Legendre transform.  A call on floats is a batch of
    one at order 0 whose failure raises (so ``float_batch`` lets
    :func:`jets.fd_jet4` run its stencil nodes as one batch); a call on jets
    records failures in their evaluation's fault record.
    """

    float_batch = True

    def __init__(self, base: SystemSpec, slot: int, derivative: int,
                 nodes, lines):
        self.base = base
        self.slot = slot
        self.derivative = derivative
        self._others = [j for j in range(base.n) if j != slot]
        self._interval = _box(base)[0][slot]
        # the partials of the base in the slot, of degree 0, 1 and 2: the
        # columns a trial reads
        self._along = [monomial_number([m * (j == slot)
                                        for j in range(base.n)])
                       for m in range(3)]
        self._nodes = nodes
        self._lines = lines

        def split(reads_slot):
            # the base with only the predicates that do (or do not) read
            # the slot, or None when there are none
            preds = tuple(p for p in base.domain if reads_slot == any(
                index == slot for _, index in p.field.ast.tape.coords))
            return replace(base, domain=preds) if preds else None

        self._fixed, self._trial = split(False), split(True)

    # -- float level

    def _seeds(self, points):
        """Newton seeds for the rows of ``points``: the slot coordinate at
        which each seed line's samples interpolate the row's target,
        blended linearly across the lines that bracket the row's other
        coordinates (clamped to the grid of lines).

        Only the 2^(n-1) bracketing lines of each row are read: each
        corner of its cell is one line, with the product of the row's hat
        weights along the other coordinates, taken in line order.  A row
        adds a line's interpolant where its weight is positive."""
        # per corner of each row's cell: its line and its weight
        corners = [(np.zeros(len(points), dtype=np.intp),
                    np.ones(len(points)))]
        for j, nodes in zip(self._others, self._nodes):
            x = points[:, j]
            # the lower node of the row's interval, clamped to the grid
            k = np.searchsorted(nodes[1:-1], x, side="right")
            t = np.minimum(np.maximum(
                (x - nodes[k]) / (nodes[k + 1] - nodes[k]), 0.0), 1.0)
            cells = []
            for line, weight in corners:
                low = line * len(nodes) + k
                cells += [(low, weight * (1.0 - t)), (low + 1, weight * t)]
            corners = cells
        targets = points[:, self.slot]
        seeds = np.zeros(len(points))
        for line, weight in corners:
            for i in set(line.tolist()):
                coords, values = self._lines[i]
                seeds = np.where(
                    (line == i) & (weight > 0.0),
                    seeds + weight * np.interp(targets, values, coords),
                    seeds)
        return seeds

    def _violation(self, point, reason, names=None):
        where = f"preimage of the {self.base.id} domain"
        return DomainViolation(
            f"point {tuple(point.tolist())} is outside the {where}: {reason}",
            names or [where])

    def solve_base_point(self, points, faults):
        """Base-representation points behind the rows of ``points`` that
        have not failed in ``faults``, solved in lockstep.

        The solve is the derived spec's domain check.  The base predicates
        that do not read the solved slot are checked once, before the first
        trial: a row that violates one fails at once, naming it.  Every
        trial is checked against the other predicates (with no call when
        there are none), and a row the solve rejects as out of range,
        non-finite or not invertible fails too.  A failed row fails with
        DomainViolation, as on a catalog predicate, and stays NaN.
        """
        slot, order = self.slot, self.derivative + 1
        if self._fixed is not None:
            record = domain_check(self._fixed, points)

            def fixed_violation(i):
                exc = record.errors[i]
                if isinstance(exc, DomainViolation):
                    return self._violation(points[i],
                                           f"it violates {exc.violations}",
                                           exc.violations)
                return self._violation(points[i], exc)

            faults.flag(~record.ok, fixed_violation)
        rows = np.flatnonzero(faults.ok)
        unsolved = points[rows]
        targets = unsolved[:, slot].tolist()
        lo, hi = self._interval
        along = [self._along[order - 1], self._along[order]]

        def equation(live, trials):
            # (f, df/dz) at each trial, read from the base's partials; None
            # where the trial fails, a partial is not finite (the NonFinite
            # rule of jet_eval) or f is not finite
            trial_pts = unsolved.take(live, axis=0)
            trial_pts[:, slot] = trials
            record = (Faults(len(live)) if self._trial is None
                      else domain_check(self._trial, trial_pts))
            derivs = jet_partials(self.base.field, trial_pts, order, record)
            out = []
            for i, ok, (fi, dfi) in zip(live, record.ok.tolist(),
                                        derivs.take(along, axis=1).tolist()):
                fi -= targets[i]
                out.append((fi, dfi) if ok and math.isfinite(fi) else None)
            return out

        seeds = self._seeds(unsolved).tolist()
        with np.errstate(all="ignore"):
            roots = lockstep([_newton_solve(seed, lo, hi, target)
                              for seed, target in zip(seeds, targets)],
                             equation)
        base_pts = np.full_like(points, math.nan)
        for i, z in zip(rows.tolist(), roots):
            if isinstance(z, GeothermoError):
                faults.fail(i, self._violation(points[i], z))
            else:
                base_pts[i] = points[i]
                base_pts[i, slot] = z
        return base_pts

    # -- jet level

    def __call__(self, args):
        if not isinstance(args[0], Jet):
            return jet_eval(self, [float(a) for a in args], 0).value
        # jets of one evaluation, carrying its fault record
        order, faults = args[0].order, args[0].faults
        y0 = np.array([a.value for a in args]).T
        # the solve is also the domain check; a failed point stays NaN
        base_pts = self.solve_base_point(y0.astype(float), faults)
        # the polynomial needs at least order 2 so that the Newton slope of
        # a partial Legendre equation (a second derivative of the base
        # potential) has a constant term
        poly = jet_poly(self.base.field, base_pts, max(order, 2), faults,
                        args[0].bk)
        series = poly.slot_series(
            self.slot, [None if j == self.slot else args[j] - y0[:, j]
                        for j in range(len(args))])
        equation = _derivative(series, self.derivative)
        slope = _derivative(equation, 1)
        target = args[self.slot]
        t = 0.0
        for _ in range(order.bit_length()):
            t = t - (_horner(equation, t) - target) / _horner(slope, t)
        z = t + base_pts[:, self.slot]
        if self.derivative == 0:
            return z
        return _horner(series, t) - target * z


# ---- monotonicity precheck and seed lines --------------------------------


def _monotone_break(samples):
    """The first adjacent pair of (coordinate, value) ``samples`` whose
    values break strict monotonicity, or None."""
    sign = 0.0
    for (z0, f0), (z1, f1) in zip(samples, samples[1:]):
        d = f1 - f0
        if d == 0.0 or (sign != 0.0 and d * sign < 0.0):
            return (z0, f0), (z1, f1)
        sign = math.copysign(1.0, d)
    return None


def _sample_lines(spec: SystemSpec, slot: int, derivative: int):
    """Sample the ``derivative``-th slot derivative of the potential along
    slot lines: the line through the box centre, and the seed lines.

    The lines sit on a grid over the other coordinates' sample intervals:
    per coordinate, the smallest odd count of nodes, the centre in the
    middle, whose grid holds at least ``SEED_LINES`` lines (9 for two
    coordinates).  All samples are one batch: one domain check and one jet
    evaluation.  Points that fail either, or whose value is not finite, are
    skipped.

    Only the centre line certifies the map: it raises InversionFailure,
    with a witness pair when its samples are not strictly monotone.  A seed
    line with fewer than 4 valid samples, or whose samples are not strictly
    monotone the way the centre's are, takes the centre's.  Returns the
    nodes of each other coordinate and, per line of the grid (the centre
    one in the middle), its (coordinates, values) sorted by value.
    """
    box, center = _box(spec)
    zs = np.linspace(*box[slot], MONOTONE_SAMPLES)
    others = [j for j in range(spec.n) if j != slot]
    half = 1
    while others and (2 * half + 1) ** len(others) < SEED_LINES:
        half += 1
    nodes = []
    for j in others:
        lo, hi = box[j]
        nodes.append(np.concatenate([np.linspace(lo, center[j], half + 1),
                                     np.linspace(center[j], hi,
                                                 half + 1)[1:]]))
    lines = list(itertools.product(*nodes))
    pts = np.tile(np.asarray(center, dtype=float), (len(lines) * len(zs), 1))
    pts[:, slot] = np.tile(zs, len(lines))
    for d, j in enumerate(others):
        pts[:, j] = np.repeat([line[d] for line in lines], len(zs))
    faults = domain_check(spec, pts)
    jet = jet_eval(spec.field, pts, derivative, faults)
    vals = jet.value if derivative == 0 else jet.grad[:, slot]
    keep = (faults.ok & np.isfinite(vals)).reshape(len(lines), -1)
    table = [list(zip(zs[k].tolist(), v[k].tolist()))
             for k, v in zip(keep, vals.reshape(len(lines), -1))]
    samples = table[len(lines) // 2]
    if len(samples) < 4:
        raise InversionFailure(
            f"{spec.id}: too few valid samples along slot {slot} "
            "to certify monotonicity")
    witness = _monotone_break(samples)
    if witness is not None:
        raise InversionFailure(
            f"{spec.id}: map is not strictly monotone in slot {slot}",
            witness=witness)
    rising = samples[-1][1] > samples[0][1]

    def by_value(line):
        if len(line) < 4 or _monotone_break(line) is not None \
                or (line[-1][1] > line[0][1]) != rising:
            line = samples
        coords, values = zip(*sorted(line, key=lambda s: s[1]))
        return np.array(coords), np.array(values)

    return nodes, [by_value(line) for line in table]


def _derived_spec(spec: SystemSpec, slot: int, derivative: int,
                  coord: Coordinate, **names) -> SystemSpec:
    """A Newton-derived spec: ``spec`` with coordinate ``slot`` replaced by
    ``coord`` and the :class:`_ImplicitField` of ``derivative`` as its
    potential.

    The new coordinate must be strictly monotone along the slot, and the
    middle 80% of its sampled range is the new slot's sample interval.
    ``names`` gives the id, the potential name and the excluded slot.
    """
    nodes, lines = _sample_lines(spec, slot, derivative)
    field = _ImplicitField(spec, slot, derivative, nodes, lines)
    vals = lines[len(lines) // 2][1].tolist()
    pad = 0.1 * (vals[-1] - vals[0])
    coords = list(spec.coords)
    coords[slot] = coord
    box = _box(spec)[0]
    box[slot] = (vals[0] + pad, vals[-1] - pad)
    return SystemSpec(coords=tuple(coords), params=dict(spec.params),
                      domain=(), field=field, sample_box=tuple(box), **names)


def _point_map(base: SystemSpec, slots, derivative: int, coords):
    """The point map of a transform of ``base``: base points to the points
    of the new representation, whose coordinates are ``coords``.

    A point map takes a (batch, n) array of base points and the batch's
    Faults record, and returns the (batch, n) array of the points they map
    to.  It checks the base domain into the record and makes one order
    ``derivative`` evaluation of the base potential; each of ``slots`` then
    takes the value (inversion, 0) or the slot's conjugate (Legendre, 1;
    a pressure-like conjugate flips sign, P = -dPhi/dv).  This is the
    equation that :class:`_ImplicitField` solves, read forwards; with no
    slots it maps every point to itself.  A row that fails is recorded,
    and its output is not read.
    """
    signs = {s: -1.0 if derivative and coords[s].name == "P" else 1.0
             for s in slots}

    def point_map(points, faults):
        record = domain_check(base, points)
        faults.flag(~record.ok, record.errors.get)
        jet = jet_eval(base.field, points, derivative, faults)
        out = np.array(points, dtype=float)
        for s, sign in signs.items():
            out[:, s] = sign * (jet.grad[:, s] if derivative else jet.value)
        return out

    return point_map


def _legendre_of(spec: SystemSpec, slots, out: SystemSpec) -> SystemSpec:
    """Record ``out`` as the Legendre transform of ``spec`` on ``slots``."""
    out.meta.update(point_map=_point_map(spec, slots, 1, out.coords),
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


# ---- Legendre transforms -------------------------------------------------


def legendre_point(spec: SystemSpec, x):
    """Map a base point through the point map recorded on a derived spec,
    as a batch of one; the point's failure raises."""
    pm = spec.meta.get("point_map")
    if pm is None:
        raise PreconditionFailure(f"{spec.id} records no point map")
    faults = Faults(1)
    out = pm(np.array([[float(c) for c in x]]), faults)
    error = faults.errors.pop(0, None)
    if error is None:
        return out[0].tolist()
    del faults, out         # not kept by the raised failure's frames
    raise error


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
            spec, slot, 1, Coordinate(conj_name, INTENSIVE),
            id=f"{spec.id}~L{slot}",
            potential_name=f"{spec.potential_name}_{conj_name}",
            excluded_index=spec.excluded_index)
    return _legendre_of(spec, (slot,), out)


def _legendre_chain(spec: SystemSpec, slots, solve: str) -> SystemSpec:
    """Partial Legendre transforms of ``spec`` on ``slots`` in turn,
    recorded as one transform of ``spec``: its point map is one order-1
    evaluation of ``spec``'s potential, as the closed form's is.  A base
    point that a derived step cannot solve maps all the same, and fails
    where the chain's potential is evaluated at its image."""
    out = spec
    for slot in slots:
        out = partial_legendre(out, slot, solve=solve)
    return _legendre_of(spec, slots, out)


def total_legendre(spec: SystemSpec, solve: str = "auto") -> SystemSpec:
    """Legendre-transform every slot (identity for already-total potentials,
    whose point map transforms no slot)."""
    slots = tuple(range(spec.n))
    if spec.meta.get("already_total_legendre"):
        _check_solve(solve)
        return replace(spec, meta=dict(
            spec.meta, point_map=_point_map(spec, (), 0, spec.coords),
            legendre_of=spec.id, legendre_slots=slots))
    out = _closed_partner(spec, "total_legendre", None, solve)
    if out is not None:
        return _legendre_of(spec, slots, out)
    return _legendre_chain(spec, slots, "newton")


def legendre_partner(spec: SystemSpec, slots=None,
                     solve: str = "auto") -> SystemSpec:
    """The Legendre transform of ``spec`` on ``slots`` (every slot when
    None), whose ``meta`` records ``legendre_of`` and ``legendre_slots``.
    The slots must be distinct: a slot transformed twice is not the one
    forward map that the record holds."""
    if slots is None or tuple(slots) == tuple(range(spec.n)):
        return total_legendre(spec, solve=solve)
    slots = tuple(slots)
    if not slots or len(set(slots)) < len(slots):
        raise PreconditionFailure(
            f"transformed slots must be nonempty and distinct, got {slots}")
    return _legendre_chain(spec, slots, solve)


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
            spec, target_slot, 0, Coordinate(spec.potential_name, EXTENSIVE),
            id=f"{spec.id}~inv{target_slot}",
            potential_name=spec.coords[target_slot].name,
            excluded_index=target_slot)
    out.meta.update(point_map=_point_map(spec, (target_slot,), 0, out.coords),
                    inverse_of=spec.id)
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
    pipeline sanity check that should vanish to quadrature order.  The path
    is one batch, and the midpoints of its segments of nonzero length are
    one order-1 batch; the first failing point of either raises.
    """
    pts = np.asarray([[float(c) for c in p] for p in path], dtype=float)
    if not len(pts):
        return 0.0
    phi = evaluate(spec, pts).tolist()
    # (dE, dPhi, |dE|, midpoint) of each segment of nonzero length
    steps = [(x1 - x0, f1 - f0, float(np.linalg.norm(x1 - x0)),
              0.5 * (x0 + x1))
             for x0, x1, f0, f1 in zip(pts, pts[1:], phi, phi[1:])]
    steps = [step for step in steps if step[2] != 0.0]
    if not steps:
        return 0.0
    mids = np.array([step[3] for step in steps])
    jet = jet_eval(spec.field, mids, 1, domain_check(spec, mids))
    error = jet.faults.pop_first()
    if error is not None:
        del jet, mids, steps    # not kept by the raised failure's frames
        raise error
    return max(abs(df - float(grad @ dx)) / seg for (dx, df, seg, _), grad
               in zip(steps, np.ascontiguousarray(jet.grad)))
