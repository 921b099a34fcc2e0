"""Catalog of fundamental relations and the SystemSpec container.

Working units: R = k_B = N_A = 1, molar quantities throughout.

The catalog is one table, ``_CATALOG``.  Each entry records the potential,
its coordinates (with their extensive/intensive roles), default parameter
values, the validity domain as DSL inequalities, and which coordinate slot is
excluded from the conformal sum of the natural metric (the pair traded for
the potential when changing representation: u for entropy-type potentials,
s/T for energy-type ones).  :func:`get_system` merges parameter overrides
into the defaults and builds the spec once.  ``PARTNERS`` links catalog
systems to their closed-form inverses and Legendre transforms;
:func:`closed_partner` is the one place that resolves those links, and only
for the catalog system itself (same id, relation and coordinates).

Note on the Chaplygin/dark-fluid relation: the form used here is
``s = s0 * ln(u^(1+alpha) + C * v^(1+beta))``.  This is the reading whose
determinant degenerates exactly at alpha = beta = 0 and whose curvature is the
constant -(1+alpha)^2/(2*alpha) when alpha = beta, both of which anchor the
verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import dsl
from .errors import DefinitionError, DomainViolation
from .jets import Faults, jet_eval, one_point

EXTENSIVE = "extensive"
INTENSIVE = "intensive"


@dataclass(frozen=True)
class Coordinate:
    name: str
    role: str = EXTENSIVE


@dataclass
class SystemSpec:
    """A fundamental relation Phi(E^a) with its metadata."""

    id: str
    coords: tuple
    potential_name: str
    excluded_index: int
    params: dict
    domain: tuple
    field: object  # callable on floats or Jets
    sample_box: tuple = ()  # per-coordinate (lo, hi) known to be in-domain
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.coords)

    def coord_names(self):
        return tuple(c.name for c in self.coords)

    def __post_init__(self):
        if not 0 <= self.excluded_index < len(self.coords):
            raise ValueError(
                f"excluded_index {self.excluded_index} out of range for "
                f"{len(self.coords)} coordinates")


def domain_check(spec: SystemSpec, x) -> Faults:
    """The failures of a point or a (batch, n) array against the domain.

    Returns a :class:`Faults` record (one point is a batch of one) in which
    every point outside the domain fails with DomainViolation naming the
    violated predicates.  A predicate that cannot be evaluated for a reason
    other than a domain violation fails the point with that error instead.
    """
    points = np.asarray(x, dtype=float)
    if points.shape[-1:] != (spec.n,):
        dim = points.shape[-1] if points.ndim else 0
        raise ValueError(f"point has dimension {dim}, spec needs {spec.n}")
    batch = points.reshape(-1, spec.n)
    faults = Faults(len(batch))
    violated = np.zeros((len(batch), len(spec.domain)), dtype=bool)
    for p, pred in enumerate(spec.domain):
        holds, pred_faults = pred.mask(batch)
        for i, exc in sorted(pred_faults.errors.items()):
            if not isinstance(exc, DomainViolation):
                faults.fail(i, exc)
        violated[:, p] = ~holds

    def violation(i):
        names = [str(pred) for pred, bad in zip(spec.domain, violated[i])
                 if bad]
        point = tuple(float(c) for c in batch[i])
        return DomainViolation(f"{spec.id}: point {point} violates {names}",
                               names)

    faults.flag(violated.any(axis=1), violation)
    return faults


def evaluate(spec: SystemSpec, x):
    """Phi(x); raises DomainViolation outside the validity domain.

    ``x`` is one point (float result) or a (batch, n) array (array result;
    the first failing point raises).  A point is a batch of one, so it gets
    the bits and the failure it would get in any batch.
    """
    if np.ndim(x) == 1:
        # no array local: a raised failure keeps this frame
        return float(one_point(_values(
            spec, np.asarray(x, dtype=float)[None])).value)
    values = _values(spec, np.asarray(x, dtype=float))
    error = values.faults.pop_first()
    if error is None:
        return values.value
    del values              # not kept by the raised failure's frames
    raise error


def _values(spec, points):
    return jet_eval(spec.field, points, 0, domain_check(spec, points))


def _dsl_spec(id, coords, potential_name, excluded, relation, params,
              domain, sample_box, meta=None):
    names = [c.name for c in coords]
    ast = dsl.parse_relation(relation, names, params)
    return SystemSpec(
        id=id,
        coords=tuple(coords),
        potential_name=potential_name,
        excluded_index=excluded,
        params=dict(params),
        domain=tuple(dsl.parse_predicate(p, names, params) for p in domain),
        field=dsl.compile_relation(ast, params),
        sample_box=tuple(sample_box),
        meta=dict(meta or {}, relation=relation),
    )


class _Entry(NamedTuple):
    """A catalog system's data, in the argument order of :func:`_dsl_spec`."""

    coords: tuple
    potential_name: str
    excluded: int
    relation: str
    params: dict
    domain: tuple
    sample_box: tuple
    meta: dict | None = None


_ext = Coordinate


def _int(name):
    return Coordinate(name, INTENSIVE)

_CATALOG = {
    "ideal_s": _Entry(
        (_ext("u"), _ext("v")), "s", 0,
        "(3/2)*ln(u) + ln(v)", {},
        ("u > 0", "v > 0"), ((0.5, 5.0), (0.5, 5.0)),
        meta={"homogeneity": "holds for the extensive extension only"}),
    "ideal_u": _Entry(
        (_ext("s"), _ext("v")), "u", 0,
        "(exp(s)/v)^(2/3)", {},
        ("v > 0",), ((-1.0, 2.0), (0.5, 5.0))),
    "ideal_F": _Entry(
        (_int("T"), _ext("v")), "F", 0,
        "(1/2)*T*(3 - 2*ln(v) - 3*ln((3/2)*T))", {},
        ("T > 0", "v > 0"), ((0.3, 3.0), (0.5, 5.0)),
        meta={"partial_legendre_of": "ideal_u"}),
    "ideal_g": _Entry(
        (_int("T"), _int("P")), "g", 0,
        "(5/2)*T - T*((3/2)*ln((3/2)*T) + ln(T/P))", {},
        ("T > 0", "P > 0"), ((0.3, 3.0), (0.3, 3.0)),
        meta={"total_legendre_of": "ideal_u"}),
    "vdw_s": _Entry(
        (_ext("u"), _ext("v")), "s", 0,
        "(3/2)*ln(u + a/v) + ln(v - b)", {"a": 1.0, "b": 1.0},
        ("v > b", "u + a/v > 0"), ((0.5, 5.0), (1.5, 6.0))),
    # inverse of vdw_s: u = exp(2s/3) (v-b)^(-2/3) - a/v
    "vdw_u": _Entry(
        (_ext("s"), _ext("v")), "u", 0,
        "exp((2/3)*s) / (v - b)^(2/3) - a/v", {"a": 1.0, "b": 1.0},
        ("v > b",), ((0.0, 2.0), (1.5, 6.0))),
    # partial Legendre (s -> T) of vdw_u, closed form
    "vdw_F": _Entry(
        (_int("T"), _ext("v")), "F", 0,
        "(3/2)*T - a/v - T*((3/2)*ln((3/2)*T) + ln(v - b))",
        {"a": 1.0, "b": 1.0},
        ("T > 0", "v > b"), ((0.5, 3.0), (1.5, 6.0)),
        meta={"partial_legendre_of": "vdw_u"}),
    "ising_f": _Entry(
        (_int("T"), _int("H")), "f", 0,
        "-H - T*ln(1 + 2*exp(-(4*J + 2*H)/T)/(1 - exp(-(2*H)/T)"
        " + sqrt((1 - exp(-(2*H)/T))^2 + 4*exp(-(4*J + 2*H)/T))))",
        {"J": 1.0},
        ("T > 0", "H > 0"), ((0.5, 5.0), (0.5, 2.0)),
        meta={"total_legendre_of": "internal energy",
              "already_total_legendre": True}),
    "chap_s": _Entry(
        (_ext("u"), _ext("v")), "s", 0,
        "s0*ln(u^(1 + alpha) + C*v^(1 + beta))",
        {"s0": 1.0, "C": 1.0, "alpha": 1.0, "beta": 1.0},
        ("u > 0", "v > 0", "u^(1 + alpha) + C*v^(1 + beta) > 0"),
        ((0.5, 5.0), (0.5, 5.0)),
        meta={"homogeneity": "holds for the extensive extension only"}),
    # inverse of chap_s: u = (exp(s/s0) - C v^(1+beta))^(1/(1+alpha))
    "chap_u": _Entry(
        (_ext("s"), _ext("v")), "u", 0,
        "(exp(s/s0) - C*v^(1 + beta))^(1/(1 + alpha))",
        {"s0": 1.0, "C": 1.0, "alpha": 1.0, "beta": 1.0},
        ("v > 0", "exp(s/s0) - C*v^(1 + beta) > 0"),
        ((2.0, 4.0), (0.5, 1.5))),
}

# mutual partner links: canonical <-> inverse representation and
# Legendre partners, {slot: id} per slot transform (slot indices refer to
# the source spec's coordinates)
PARTNERS = {
    "ideal_s": {"inverse": {0: "ideal_u"}},
    "ideal_u": {"inverse": {0: "ideal_s"},
                "partial_legendre": {0: "ideal_F"},
                "total_legendre": "ideal_g"},
    "vdw_s": {"inverse": {0: "vdw_u"}},
    "vdw_u": {"inverse": {0: "vdw_s"},
              "partial_legendre": {0: "vdw_F"}},
    "chap_s": {"inverse": {0: "chap_u"}},
    "chap_u": {"inverse": {0: "chap_s"}},
}


def catalog():
    """All built-in SystemSpecs with their default parameters."""
    return [get_system(id) for id in _CATALOG]


def catalog_ids():
    return list(_CATALOG)


def get_system(id: str, **param_overrides) -> SystemSpec:
    """Fetch a catalog system, optionally overriding parameter values."""
    if id not in _CATALOG:
        raise KeyError(f"unknown system '{id}' (have {', '.join(_CATALOG)})")
    entry = _CATALOG[id]
    unknown = set(param_overrides) - set(entry.params)
    if unknown:
        raise KeyError(f"{id} has no parameter(s) {sorted(unknown)}")
    params = dict(entry.params,
                  **{k: float(v) for k, v in param_overrides.items()})
    return _dsl_spec(id, *entry._replace(params=params))


def closed_partner(spec: SystemSpec, kind: str, slot=None):
    """The closed-form partner of a catalog system, or None.

    ``kind`` is "inverse" or "partial_legendre" (both on ``slot``) or
    "total_legendre".  The partner is built once, with the parameter values
    the two share.  Only the catalog system itself has partners: a spec
    whose id is in the catalog but whose relation or coordinates differ
    from that entry's (a custom relation reusing the id) gets None.
    """
    entry = _CATALOG.get(spec.id)
    if entry is None or spec.meta.get("relation") != entry.relation \
            or spec.coords != entry.coords:
        return None
    link = PARTNERS.get(spec.id, {}).get(kind)
    if isinstance(link, dict):
        link = link.get(slot)
    if link is None:
        return None
    return get_system(link, **{k: spec.params[k] for k in _CATALOG[link].params
                               if k in spec.params})


def from_definition(doc: dict) -> SystemSpec:
    """Build a SystemSpec from a JSON system-definition document.

    Expected keys: id, coords ([{name, role}]), potential_name,
    excluded_index (coordinate name), params, domain (inequality strings),
    relation (DSL source), and optionally sample_box: one finite [lo, hi]
    pair with lo < hi per coordinate.  A document that lacks a required key,
    whose coordinates do not fit together, whose parameters are not finite
    numbers or whose sample box is malformed raises DefinitionError, a
    ParseError.
    """
    if not isinstance(doc, dict):
        raise DefinitionError("system definition must be a JSON object")
    for key in ("id", "coords", "excluded_index", "relation"):
        if key not in doc:
            raise DefinitionError(f"system definition has no {key!r}")
    if not isinstance(doc["coords"], list) or not all(
            isinstance(c, dict) and isinstance(c.get("name"), str)
            for c in doc["coords"]):
        raise DefinitionError(
            "'coords' must be a list of objects with a 'name'")
    coords = tuple(Coordinate(c["name"], c.get("role", EXTENSIVE))
                   for c in doc["coords"])
    names = [c.name for c in coords]
    if len(set(names)) != len(names):
        raise DefinitionError(
            f"coordinate names must be unique, got {names}")
    if doc["excluded_index"] not in names:
        raise DefinitionError(f"excluded_index {doc['excluded_index']!r} "
                              "does not name a coordinate")
    domain = doc.get("domain", [])
    if not isinstance(doc["relation"], str) or not isinstance(domain, list) \
            or not all(isinstance(p, str) for p in domain):
        raise DefinitionError(
            "'relation' and each 'domain' entry must be strings")
    try:
        params = {k: float(v) for k, v in doc.get("params", {}).items()}
        box = tuple((float(lo), float(hi))
                    for lo, hi in doc.get("sample_box", ()))
    except (AttributeError, TypeError, ValueError):
        raise DefinitionError("'params' must map names to numbers and "
                              "'sample_box' hold [lo, hi] pairs") from None
    bad = sorted(k for k, v in params.items() if not np.isfinite(v))
    if bad:
        raise DefinitionError(f"'params' must be finite, got {bad}")
    if box and (len(box) != len(coords) or not all(
            -np.inf < lo < hi < np.inf for lo, hi in box)):
        raise DefinitionError("'sample_box' must be empty or hold one finite "
                              "[lo, hi] pair with lo < hi per coordinate")
    return _dsl_spec(
        doc["id"], coords, doc.get("potential_name", "Phi"),
        names.index(doc["excluded_index"]), doc["relation"], params,
        tuple(domain), box,
    )
