"""Closed-form curvature and determinant references.

These are independent algebraic expressions for the Ricci scalar of the
natural metric (and one metric determinant), evaluated directly from their
printed forms and used to anchor the generic jet/geometry pipeline.  The
pipeline is compared against them only up to a single global sign per
system, since curvature sign conventions differ between sources; see
``oracle_vs_pipeline``.

One term is adjusted in ``vdw_R_vP``: the a^3 (v - 6b)(v - 2b)^2 summand
enters with a plus sign, which is the unique choice under which eliminating
u through P = (2uv^2 - av + 3ab)/(3v^2(v-b)) reproduces the entropy-
representation scalar (up to the global sign) and under which the numerator
at the critical point a=b=1, v=3 evaluates to 4, consistent with
``numR_at_critical``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularDenominator
from .geometry import curvature_at, metric_at
from .systems import SystemSpec

_DENOM_ATOL = 1e-13


def _guard(name, value, scale=1.0):
    if abs(value) < _DENOM_ATOL * max(1.0, abs(scale)):
        raise SingularDenominator(
            f"denominator factor '{name}' = {value:.3e} vanishes", factor=name)
    return value


def _vdw_R_s(pt, pr):
    u, v = pt["u"], pt["v"]
    a, b = pr.get("a", 1.0), pr.get("b", 1.0)
    num = (a**3 * (27*b**5 - 243*b**4*v + 504*b**3*v**2 - 378*b**2*v**3
                   + 113*b*v**4 - 11*v**5)
           + 2*a**2*u*v**2 * (-72*b**4 + 174*b**3*v - 111*b**2*v**2
                              + 16*b*v**3 + v**4)
           + 4*a*u**2*v**4 * (-3*b**3 + 12*b**2*v - 11*b*v**2 + v**3)
           - 8*b*u**3*v**7)
    d1 = _guard("3ab - av + 2uv^2", 3*a*b - a*v + 2*u*v**2, u*v**2)
    d2 = _guard("a(-3b^2 + 6bv - 2v^2) + uv^3",
                a*(-3*b**2 + 6*b*v - 2*v**2) + u*v**3, u*v**3)
    return num / (4.0 * d1 * d2**2)


def _vdw_R_u(pt, pr):
    s, v = pt["s"], pt["v"]
    a, b = pr.get("a", 1.0), pr.get("b", 1.0)
    e = math.exp(2.0 * s / 3.0)
    w = v - b
    num = (-9*a**3 * w**(16/3) * (3*b**2 - 2*b*v + v**2)
           - 6*a**2 * e * v**2 * w**(11/3) * (24*b**2 - 14*b*v + v**2)
           + 4*a * e**2 * v**4 * (3*b**4 - 15*b**3*v + 17*b**2*v**2
                                  - 6*b*v**3 + v**4)
           - 8*b * e**3 * v**7 * w**(1/3))
    d1 = _guard("2 e^{2s/3} v^2 - 3a(v-b)^{5/3}",
                2*e*v**2 - 3*a*w**(5/3), e*v**2)
    d2 = _guard("e^{2s/3} v^3 - 3a(v-b)^{8/3}",
                e*v**3 - 3*a*w**(8/3), e*v**3)
    return num / (4.0 * w**(1/3) * d1 * d2**2)


def _vdw_R_vP(pt, pr):
    v, P = pt["v"], pt["P"]
    a, b = pr.get("a", 1.0), pr.get("b", 1.0)
    num = (-a**2*P*v**2 * (18*b**3 - 5*b**2*v - 4*b*v**2 + v**3)
           + a**3 * (v - 6*b) * (v - 2*b)**2
           - a*P**2*v**4 * (-3*b**3 + 21*b**2*v - 14*b*v**2 + v**3)
           + 3*b*P**3*v**7 * (v - b))
    _guard("P", P)
    _guard("v - b", v - b, v)
    locus = _guard("2ab - av + Pv^3", 2*a*b - a*v + P*v**3, P*v**3)
    return num / (3.0 * P * v**2 * (v - b) * locus**2)


def _vdw_R_F_Tv(pt, pr):
    T, v = pt["T"], pt["v"]
    a, b = pr.get("a", 1.0), pr.get("b", 1.0)
    w = v - b
    num = (-15*b*T**3*v**7
           - 3*a**2*T*w**2*v**2 * (v**2 - 14*b*v + 24*b**2)
           - 3*a**3*w**3 * (v**2 - 2*b*v + 3*b**2)
           + a*T**2*v**4 * (5*v**3 - 25*b*v**2 + 54*b**2*v - 9*b**3))
    d1 = _guard("Tv^2 - a(v-b)", T*v**2 - a*w, T*v**2)
    d2 = _guard("6a(v-b)^2 - 5Tv^3", 6*a*w**2 - 5*T*v**3, T*v**3)
    return num / (d1 * d2**2)


def _vdw_R_F_vP(pt, pr):
    v, P = pt["v"], pt["P"]
    a, b = pr.get("a", 1.0), pr.get("b", 1.0)
    num = (a**3 * (v - 2*b) * (v - 6*b)**2
           - 15*b*P**3*v**7 * (v - b)
           - a*P**2*v**4 * (5*v**3 - 70*b*v**2 + 99*b**2*v - 9*b**3)
           - a*P*v**2 * (7*v**3 - 50*b*v**2 + 39*b**2*v + 54*b**3))
    _guard("P", P)
    _guard("v - b", v - b, v)
    d = _guard("5Pv^3 - av + 6ab", 5*P*v**3 - a*v + 6*a*b, P*v**3)
    return -num / (P * v**2 * (v - b) * d**2)


def _chap_R_s(pt, pr):
    u, v = pt["u"], pt["v"]
    C = pr.get("C", 1.0)
    al, be = pr["alpha"], pr["beta"]
    num = (C**2 * al * v**(2*be + 2) + 2*C*al * u**(al + 1) * v**(be + 1)
           + be * u**(2*al + 2))
    den = _guard("C alpha v^{beta+1} + beta u^{alpha+1}",
                 C*al*v**(be + 1) + be*u**(al + 1))
    return -(be + 1)**2 * num / (2.0 * den**2)


def _chap_R_u(pt, pr):
    s, v = pt["s"], pt["v"]
    s0, C = pr.get("s0", 1.0), pr.get("C", 1.0)
    al, be = pr["alpha"], pr["beta"]
    e = math.exp(s / s0)
    num = (-2*C*e*v**(be + 1)*(be - al) + be*e**2
           + C**2 * v**(2*be + 2) * (be - al))
    den = _guard("beta e^{s/s0} - C v^{beta+1}(beta - alpha)",
                 be*e - C*v**(be + 1)*(be - al))
    return -(be + 1)**2 * num / (2.0 * den**2)


def _chap_R_const(pt, pr):
    al = pr["alpha"]
    _guard("alpha", al)
    return -0.5 * (1.0 + al)**2 / al


def _chap_det(pt, pr):
    # transcribed with s0 = 1 (the exponential appears as e^s)
    s, v = pt["s"], pt["v"]
    C = pr.get("C", 1.0)
    al, be = pr["alpha"], pr["beta"]
    e = math.exp(s)
    num = (C*(al - be)*v**(1 + be) + be*e) * e
    den = _guard("C(1+alpha)(1+beta) v^{3+beta} (-e^s + C v^{alpha+beta})",
                 C*(1 + al)*(1 + be)*v**(3 + be)*(-e + C*v**(al + be)))
    return num / den


def _numR_at_critical(pt, pr):
    vc = pt["v"]
    a, b = pr.get("a", 1.0), pr.get("b", 1.0)
    return -(a**3 * (vc - 2*b)**2
             * (-9*b**3 + 21*b**2*vc - 13*b*vc**2 + vc**3)) / vc**2


def _ideal_zero(pt, pr):
    return 0.0


_ORACLES = {
    "vdw_R_s": _vdw_R_s,
    "vdw_R_u": _vdw_R_u,
    "vdw_R_vP": _vdw_R_vP,
    "vdw_R_F_Tv": _vdw_R_F_Tv,
    "vdw_R_F_vP": _vdw_R_F_vP,
    "chap_R_s": _chap_R_s,
    "chap_R_u": _chap_R_u,
    "chap_R_const": _chap_R_const,
    "chap_det": _chap_det,
    "numR_at_critical": _numR_at_critical,
    "ideal_zero": _ideal_zero,
}

ORACLE_IDS = tuple(_ORACLES)


def oracle_eval(id: str, point: dict, params: dict) -> float:
    """Evaluate the closed form ``id`` at a named-coordinate point."""
    if id not in _ORACLES:
        raise KeyError(f"unknown oracle '{id}' (have {', '.join(_ORACLES)})")
    return float(_ORACLES[id](dict(point), dict(params)))


# how a pipeline point of the matching spec maps to oracle coordinates
def _named_point(spec, x):
    return dict(zip(spec.coord_names(), x))


def _vP_from_uv(spec, x):
    u, v = x
    a, b = spec.params.get("a", 1.0), spec.params.get("b", 1.0)
    return {"v": v, "P": (2*u*v**2 - a*v + 3*a*b) / (3*v**2*(v - b))}


def _vP_from_Tv(spec, x):
    T, v = x
    a, b = spec.params.get("a", 1.0), spec.params.get("b", 1.0)
    return {"v": v, "P": T/(v - b) - a/v**2}


_POINT_MAPS = {
    "vdw_R_vP": _vP_from_uv,
    "vdw_R_F_vP": _vP_from_Tv,
}


def oracle_vs_pipeline(id: str, spec: SystemSpec, points):
    """Compare the pipeline against a closed form over a batch of points.

    Determines the single global sign factor s in {+1, -1} at the first
    point, then reports (s, max over the points of
    |R_pipeline - s * R_oracle| / (1 + |R_oracle|)).

    ``points`` is a (count, n) array of points in the spec's coordinates,
    such as ``GridSpec.points()``.
    """
    points = np.asarray(points, dtype=float)
    if not len(points):
        raise ValueError("empty grid")
    point_map = _POINT_MAPS.get(id, _named_point)
    if id == "chap_det":
        res = metric_at(spec, points)
        pipeline = res.det
    else:
        res = curvature_at(spec, points)
        pipeline = res.ricci_scalar
    # the points before the first failed one are compared, so that an
    # oracle failure there still raises first; the batch goes before any
    # raise, as a raised failure keeps the frames it passes through
    first = min(res.faults.errors, default=len(points))
    error = res.faults.pop_first()
    values = pipeline[:first].tolist()
    del res, pipeline

    sign = None
    worst = 0.0
    for x, got in zip(points.tolist(), values):
        ref = oracle_eval(id, point_map(spec, x), spec.params)
        if sign is None:
            sign = 1 if abs(got - ref) <= abs(got + ref) else -1
        worst = max(worst, abs(got - sign * ref) / (1.0 + abs(ref)))
    if error is not None:
        del points, values
        raise error
    return sign, worst
