"""Catalog of fundamental relations and the SystemSpec container.

Working units: R = k_B = N_A = 1, molar quantities throughout.

Each catalog entry records the potential, its coordinates (with their
extensive/intensive roles), default parameter values, the validity domain as
DSL inequalities, and which coordinate slot is excluded from the conformal sum
of the natural metric (the pair traded for the potential when changing
representation: u for entropy-type potentials, s/T for energy-type ones).

Note on the Chaplygin/dark-fluid relation: the form used here is
``s = s0 * ln(u^(1+alpha) + C * v^(1+beta))``.  This is the reading whose
determinant degenerates exactly at alpha = beta = 0 and whose curvature is the
constant -(1+alpha)^2/(2*alpha) when alpha = beta, both of which anchor the
verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import dsl
from .errors import DefinitionError, DomainViolation, GeothermoError
from .jets import Faults, jet_eval

EXTENSIVE = "extensive"
INTENSIVE = "intensive"


@dataclass(frozen=True)
class Coordinate:
    name: str
    role: str = EXTENSIVE


class ImplicitPredicate:
    """Domain membership decided by a callable (used by derived specs)."""

    def __init__(self, description, fn):
        self.description = description
        self.fn = fn

    def holds(self, values, param_values):
        return self.fn(values)

    def mask(self, points, param_values):
        """Evaluate point by point; see :meth:`dsl.Predicate.mask`."""
        faults = Faults(len(points))
        holds = np.zeros(len(points), dtype=bool)
        for i, row in enumerate(points.tolist()):
            try:
                holds[i] = self.fn(row)
            except GeothermoError as exc:
                faults.fail(i, exc)
        return holds, faults

    def __str__(self):
        return self.description


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


def domain_check(spec: SystemSpec, x):
    """Violated domain predicates of a point, or the failures of a batch.

    For one point, returns the list of violated predicates ([] means pass).
    For a (batch, n) array, returns a :class:`Faults` record in which every
    point outside the domain fails with DomainViolation.  As for one point,
    a predicate that cannot be evaluated for a reason other than a domain
    violation fails the point with that error instead.
    """
    points = np.asarray(x, dtype=float)
    if points.shape[-1:] != (spec.n,):
        raise ValueError(f"point has dimension {len(x)}, spec needs {spec.n}")
    if points.ndim == 1:
        violated = []
        for pred in spec.domain:
            try:
                ok = pred.holds(list(x), spec.params)
            except DomainViolation:
                ok = False
            if not ok:
                violated.append(str(pred))
        return violated

    faults = Faults(len(points))
    violated = np.zeros((len(points), len(spec.domain)), dtype=bool)
    for p, pred in enumerate(spec.domain):
        holds, pred_faults = pred.mask(points, spec.params)
        for i, exc in sorted(pred_faults.errors.items()):
            if not isinstance(exc, DomainViolation):
                faults.fail(i, exc)
        violated[:, p] = ~holds

    def violation(i):
        names = [str(pred) for pred, bad in zip(spec.domain, violated[i])
                 if bad]
        point = tuple(float(c) for c in points[i])
        return DomainViolation(f"{spec.id}: point {point} violates {names}",
                               names)

    faults.flag(violated.any(axis=1), violation)
    return faults


def evaluate(spec: SystemSpec, x):
    """Phi(x); raises DomainViolation outside the validity domain.

    ``x`` is one point (float result) or a (batch, n) array (array result;
    the first failing point raises).
    """
    points = np.asarray(x, dtype=float)
    if points.ndim == 2:
        faults = domain_check(spec, points)
        value = jet_eval(spec.field, points, 0, faults).value
        faults.raise_first()
        return value
    violated = domain_check(spec, x)
    if violated:
        raise DomainViolation(
            f"{spec.id}: point {tuple(x)} violates {violated}", violated)
    out = spec.field([float(c) for c in x])
    return out.value if hasattr(out, "value") else float(out)


def _dsl_spec(id, coords, potential_name, excluded, relation, params,
              domain, sample_box, meta=None):
    names = [c.name for c in coords]
    pnames = list(params)
    ast = dsl.parse_relation(relation, names, pnames)
    return SystemSpec(
        id=id,
        coords=tuple(coords),
        potential_name=potential_name,
        excluded_index=excluded,
        params=dict(params),
        domain=tuple(dsl.parse_predicate(p, names, pnames) for p in domain),
        field=dsl.compile_relation(ast, params),
        sample_box=tuple(sample_box),
        meta=dict(meta or {}, relation=relation),
    )


def _catalog_builders():
    ext, intn = Coordinate, Coordinate

    def ideal_s():
        return _dsl_spec(
            "ideal_s", (ext("u"), ext("v")), "s", 0,
            "(3/2)*ln(u) + ln(v)", {},
            ("u > 0", "v > 0"), ((0.5, 5.0), (0.5, 5.0)),
            meta={"homogeneity": "holds for the extensive extension only"})

    def ideal_u():
        return _dsl_spec(
            "ideal_u", (ext("s"), ext("v")), "u", 0,
            "(exp(s)/v)^(2/3)", {},
            ("v > 0",), ((-1.0, 2.0), (0.5, 5.0)))

    def ideal_F():
        return _dsl_spec(
            "ideal_F", (intn("T", INTENSIVE), ext("v")), "F", 0,
            "(1/2)*T*(3 - 2*ln(v) - 3*ln((3/2)*T))", {},
            ("T > 0", "v > 0"), ((0.3, 3.0), (0.5, 5.0)),
            meta={"partial_legendre_of": "ideal_u"})

    def ideal_g():
        return _dsl_spec(
            "ideal_g", (intn("T", INTENSIVE), intn("P", INTENSIVE)), "g", 0,
            "(5/2)*T - T*((3/2)*ln((3/2)*T) + ln(T/P))", {},
            ("T > 0", "P > 0"), ((0.3, 3.0), (0.3, 3.0)),
            meta={"total_legendre_of": "ideal_u"})

    def vdw_s():
        return _dsl_spec(
            "vdw_s", (ext("u"), ext("v")), "s", 0,
            "(3/2)*ln(u + a/v) + ln(v - b)", {"a": 1.0, "b": 1.0},
            ("v > b", "u + a/v > 0"), ((0.5, 5.0), (1.5, 6.0)))

    def vdw_u():
        # inverse of vdw_s: u = exp(2s/3) (v-b)^(-2/3) - a/v
        return _dsl_spec(
            "vdw_u", (ext("s"), ext("v")), "u", 0,
            "exp((2/3)*s) / (v - b)^(2/3) - a/v", {"a": 1.0, "b": 1.0},
            ("v > b",), ((0.0, 2.0), (1.5, 6.0)))

    def vdw_F():
        # partial Legendre (s -> T) of vdw_u, closed form
        return _dsl_spec(
            "vdw_F", (intn("T", INTENSIVE), ext("v")), "F", 0,
            "(3/2)*T - a/v - T*((3/2)*ln((3/2)*T) + ln(v - b))",
            {"a": 1.0, "b": 1.0},
            ("T > 0", "v > b"), ((0.5, 3.0), (1.5, 6.0)),
            meta={"partial_legendre_of": "vdw_u"})

    def ising_f():
        return _dsl_spec(
            "ising_f", (intn("T", INTENSIVE), intn("H", INTENSIVE)), "f", 0,
            "-T*ln(cosh(H/T) + sqrt(sinh(H/T)^2 + exp(-(4*J)/T)))",
            {"J": 1.0},
            ("T > 0", "H > 0"), ((0.5, 5.0), (0.5, 2.0)),
            meta={"total_legendre_of": "internal energy",
                  "already_total_legendre": True})

    def chap_s():
        return _dsl_spec(
            "chap_s", (ext("u"), ext("v")), "s", 0,
            "s0*ln(u^(1 + alpha) + C*v^(1 + beta))",
            {"s0": 1.0, "C": 1.0, "alpha": 1.0, "beta": 1.0},
            ("u > 0", "v > 0", "u^(1 + alpha) + C*v^(1 + beta) > 0"),
            ((0.5, 5.0), (0.5, 5.0)),
            meta={"homogeneity": "holds for the extensive extension only"})

    def chap_u():
        # inverse of chap_s: u = (exp(s/s0) - C v^(1+beta))^(1/(1+alpha))
        return _dsl_spec(
            "chap_u", (ext("s"), ext("v")), "u", 0,
            "(exp(s/s0) - C*v^(1 + beta))^(1/(1 + alpha))",
            {"s0": 1.0, "C": 1.0, "alpha": 1.0, "beta": 1.0},
            ("v > 0", "exp(s/s0) - C*v^(1 + beta) > 0"),
            ((2.0, 4.0), (0.5, 1.5)))

    return {
        "ideal_s": ideal_s, "ideal_u": ideal_u, "ideal_F": ideal_F,
        "ideal_g": ideal_g, "vdw_s": vdw_s, "vdw_u": vdw_u, "vdw_F": vdw_F,
        "ising_f": ising_f, "chap_s": chap_s, "chap_u": chap_u,
    }


_BUILDERS = _catalog_builders()

# mutual partner links: canonical <-> inverse representation and
# Legendre partners (slot indices refer to the source spec's coordinates)
PARTNERS = {
    "ideal_s": {"inverse": ("ideal_u", 0)},
    "ideal_u": {"inverse": ("ideal_s", 0),
                "partial_legendre": {0: "ideal_F"},
                "total_legendre": "ideal_g"},
    "vdw_s": {"inverse": ("vdw_u", 0)},
    "vdw_u": {"inverse": ("vdw_s", 0),
              "partial_legendre": {0: "vdw_F"}},
    "chap_s": {"inverse": ("chap_u", 0)},
    "chap_u": {"inverse": ("chap_s", 0)},
}


@dataclass
class CatalogEntry:
    spec: SystemSpec
    partners: dict


def catalog():
    """All built-in SystemSpecs with their default parameters."""
    return [build() for build in _BUILDERS.values()]


def catalog_ids():
    return list(_BUILDERS)


def catalog_entry(id: str) -> CatalogEntry:
    return CatalogEntry(spec=get_system(id), partners=dict(PARTNERS.get(id, {})))


def get_system(id: str, **param_overrides) -> SystemSpec:
    """Fetch a catalog system, optionally overriding parameter values."""
    if id not in _BUILDERS:
        raise KeyError(f"unknown system '{id}' (have {', '.join(_BUILDERS)})")
    spec = _BUILDERS[id]()
    if param_overrides:
        unknown = set(param_overrides) - set(spec.params)
        if unknown:
            raise KeyError(f"{id} has no parameter(s) {sorted(unknown)}")
        params = dict(spec.params, **{k: float(v) for k, v in param_overrides.items()})
        ast = dsl.parse_relation(spec.meta["relation"], list(spec.coord_names()),
                                 list(params))
        spec = replace(spec, params=params,
                       field=dsl.compile_relation(ast, params))
    return spec


def from_definition(doc: dict) -> SystemSpec:
    """Build a SystemSpec from a JSON system-definition document.

    Expected keys: id, coords ([{name, role}]), potential_name,
    excluded_index (coordinate name), params, domain (inequality strings),
    relation (DSL source).  A document that lacks a required key or whose
    coordinates do not fit together raises DefinitionError, a ParseError.
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
    return _dsl_spec(
        doc["id"], coords, doc.get("potential_name", "Phi"),
        names.index(doc["excluded_index"]), doc["relation"], params,
        tuple(domain), box,
    )
