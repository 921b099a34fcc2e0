"""Natural metric assembly and curvature of the equilibrium manifold.

The metric is a conformal rescaling of the potential's Hessian,

    g_ab = c * d2Phi/dE^a dE^b,   c = sum_{j != i} 1 / (E^j dPhi/dE^j),

with the i-th (excluded) pair being the one traded for the potential under a
change of representation.  First and second coordinate derivatives of g are
assembled from the order-3/order-4 jet slots by the product rule, which is all
the curvature needs.

Curvature conventions:  R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma}
- d_nu Gamma^rho_{mu sigma} + Gamma Gamma - Gamma Gamma,
Ricci_{sigma nu} = R^rho_{sigma rho nu}, R = g^{sigma nu} Ricci_{sigma nu}.
On a 2-D manifold, which every catalog system has, the curvature stage takes
R = 2K, and the Gaussian curvature K comes from Brioschi's formula
(:func:`_brioschi`) in twelve batch columns: E, F, G = g_00, g_01, g_11,
their first partials and E_vv, F_uv, G_uu.  Any other n goes through the
Levi-Civita connection (:func:`christoffel`) and the Riemann tensor
(:func:`riemann_up`), which also check the formula in the tests.

Which path builds which arrays:

- The curvature of a jet (:func:`jet_curvature`) is the stage of every
  :func:`curvature_at` chunk and of the finite-difference oracle.  On a 2-D
  jet (:func:`_surface_curvature`) it goes to R on 1-D batch columns: g,
  det g = EG - F^2 and the twelve columns, each in the order of operations
  of the tensor assembly.  It builds no full dg or ddg.  Of the
  fourth-order partials it reads Phi_uuvv alone, so the jet of a compiled
  relation holds only the monomials of degree <= 3 and u^2 v^2
  (:data:`SURFACE_TOP`).  Any other n takes :func:`ricci_scalar` of
  :func:`natural_metric`.
- :func:`natural_metric` (for :func:`metric_at`, :func:`christoffel`, any
  other n and the payload of a 2-D DegenerateMetric) is the one builder of
  the full g, dg and ddg, and det g (EG - F^2 when n = 2), from a full jet.
  The payload is natural_metric of the chunk's jet when that is full (the
  finite-difference oracle, a Newton-derived spec), and otherwise of a full
  order-4 jet of the chunk.  :func:`ricci_scalar` contracts the Riemann
  tensor of such a metric for every n, so on a 2-D metric it agrees with
  :func:`curvature_at` to the tensor path's round-off, not bit for bit.

The formula sets EG - F^2 to 1 at a failed point, and the tensor path masks
a failed point's metric to the identity, so that no failed point can abort
its batch.

The stages (:func:`natural_metric`, :func:`christoffel`, :func:`ricci_scalar`)
take a batch of points on a leading axis and record each point's failure in
the batch's fault record.  Both metric paths flag the failures of the metric
itself through one helper (:func:`_flag_failures`), and the curvature only an
R that is not finite.  A single point enters only through the functions that
take coordinates (:func:`metric_at`, :func:`curvature_at`,
:func:`jets.jet_eval`), which run it as a batch of one and leave it through
:func:`jets.one_point`, which raises its failure.  The first two build the
metric alike, checking the spec's domain before its jet.

Every stage runs on the numbers of the jet it is given: float64, or mpmath
numbers in object arrays (``curvature_at(..., dps=...)``), whose backend
(:func:`jets.backend_of`) supplies the determinant when n != 2, the inverse
and the finiteness test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from .dsl import ScalarField
from .errors import DegenerateMetric, NonFinite, SingularPrefactor
from .jets import (FLOAT, MPMATH, Faults, Jet4, backend_of, jet_eval,
                   one_point)
from .systems import SystemSpec, domain_check

DEGENERACY_RTOL = 1e-12      # |det g| < rtol * max|g_ab|^2 flags degeneracy
PREFACTOR_ATOL = 1e-13       # |E^j Phi_j| below this (times scale) is singular
NONFINITE_R = 1e12           # |R| beyond this is reported, not trusted
# the degree-4 monomials a 2-D curvature reads: u^2 v^2, through E_vv, F_uv
# and G_uu (see _chunk)
SURFACE_TOP = ((2, 2),)
# points per pass of the batched pipeline: wider passes share out each
# pass's fixed NumPy cost, against float64 transients that peak at 0.8-2.6
# KB per point on the catalog's 2-D systems (0.97 KB on vdw_s, 2.6 KB on
# ising_f).  On a 2-vCPU Xeon VM with numpy 2.4, a vdw_s pass took 0.31 ms
# at 1 point, 0.55 ms at 256 and 1.7 ms at 1024, and curvature_at of the
# 3600-point vdw_s box of perfbench's grid_scan 8.7 ms in passes of 256
# points, 5.8 ms of 512, 4.5 ms of 1024 and 4.6 ms of 2048, every width
# with the same bits
CHUNK = 1024


@dataclass
class MetricTensor:
    """g, dg, ddg at a batch of points (leading axis), or at one point."""

    at: np.ndarray
    g: np.ndarray          # (n, n)
    dg: np.ndarray         # (c, a, b) = d_c g_ab
    ddg: np.ndarray        # (d, c, a, b) = d_d d_c g_ab
    det: object
    conformal_factor: object
    degenerate: object = None   # is_degenerate(), kept by natural_metric
    faults: Faults | None = None

    @property
    def n(self) -> int:
        return self.g.shape[-1]

    def scale(self):
        return np.abs(self.g).max(axis=(-2, -1))

    def is_degenerate(self):
        s = self.scale()
        return np.abs(self.det) < DEGENERACY_RTOL * np.maximum(s * s, 1e-300)

    def point(self, i: int) -> "MetricTensor":
        # item() gives a Python float, or the mpmath number itself, without
        # converting the batch; copies, not views, so that a kept point does
        # not keep its batch
        return MetricTensor(at=self.at[i].copy(), g=self.g[i].copy(),
                            dg=self.dg[i].copy(), ddg=self.ddg[i].copy(),
                            det=self.det[i:i + 1].item(),
                            conformal_factor=self.conformal_factor[
                                i:i + 1].item(),
                            degenerate=bool(self.degenerate[i]))


@dataclass
class ChristoffelArray:
    gamma: np.ndarray      # (a, b, c) = Gamma^a_{bc}
    dgamma: np.ndarray     # (d, a, b, c) = d_d Gamma^a_{bc}


@dataclass
class CurvatureResult:
    """Ricci scalar and flags at a batch of points, or at one point.

    For a batch every field has a leading batch axis; ``ricci_scalar``,
    ``det_g`` and ``conformal_factor`` are NaN and ``nonfinite`` True at the
    points that failed, and ``faults`` records why.
    """

    at: np.ndarray
    ricci_scalar: object
    det_g: object
    degenerate: object
    conformal_factor: object
    nonfinite: object = False
    faults: Faults | None = None

    def point(self, i: int) -> "CurvatureResult":
        return CurvatureResult(
            at=self.at[i], ricci_scalar=float(self.ricci_scalar[i]),
            det_g=float(self.det_g[i]), degenerate=bool(self.degenerate[i]),
            conformal_factor=float(self.conformal_factor[i]),
            nonfinite=bool(self.nonfinite[i]))

    @classmethod
    def concat(cls, parts):
        if len(parts) == 1:
            return parts[0]

        def cat(name):
            return np.concatenate([getattr(p, name) for p in parts])

        return cls(at=cat("at"), ricci_scalar=cat("ricci_scalar"),
                   det_g=cat("det_g"), degenerate=cat("degenerate"),
                   conformal_factor=cat("conformal_factor"),
                   nonfinite=cat("nonfinite"),
                   faults=Faults.concat([p.faults for p in parts]))


def natural_metric(jet: Jet4, x, excluded_index: int) -> MetricTensor:
    """Assemble g, dg, ddg from a batched Jet4 of the potential at the
    (batch, n) points ``x``.

    Every failure of the metric is flagged here, in the jet's fault record,
    which the result carries on (see :func:`_flag_failures`).  The
    degeneracy mask of every point is kept in ``degenerate``.  det g is
    EG - F^2 on a 2-D manifold, as Brioschi's formula forms it, and a
    cofactor or LU determinant otherwise.  ddg reads every fourth-order
    partial, so the jet must hold every monomial through order 4.
    """
    if jet.order < 4 or jet.top is not None:
        raise ValueError("natural_metric needs a full jet of order 4")
    x = np.asarray(x, dtype=float)
    js = [j for j in range(jet.n) if j != excluded_index]
    with np.errstate(all="ignore"):
        # the terms w = E^j dPhi/dE^j of the conformal sum, and those that
        # vanish
        w = x[:, js] * jet.grad[:, js]
        aw = np.abs(w)
        scale = np.maximum(1.0, aw.max(axis=1, initial=0.0))
        small = aw < PREFACTOR_ATOL * scale[:, None]
        c, g, dg, ddg = _tensors(jet, x, backend_of(w).masked(w, small), js)
        m = MetricTensor(at=x, g=g, dg=dg, ddg=ddg, det=_det(g),
                         conformal_factor=c, faults=jet.faults)
        _flag_failures(m, js, w, small.any(axis=1), lambda: m)
    return m


def _tensors(jet: Jet4, x, w, js):
    """Conformal factor c = sum 1/w and g, dg, ddg by the product rule, from
    the jet and the conformal terms ``w`` (masked where they vanish)."""
    n = jet.n
    G, H, T3, F4 = jet.grad, jet.hess, jet.third, jet.fourth
    # conformal factor and its first/second coordinate derivatives
    c = np.sum(1.0 / w, axis=1)
    dc = np.zeros((len(x), n), dtype=w.dtype)
    ddc = np.zeros((len(x), n, n), dtype=w.dtype)
    for idx, j in enumerate(js):
        wj = w[:, idx, None]
        dw = x[:, j, None] * H[:, j, :]
        dw[:, j] += G[:, j]
        ddw = np.zeros((len(x), n, n), dtype=w.dtype)
        ddw[:, j, :] += H[:, j, :]
        ddw[:, :, j] += H[:, j, :]
        ddw += x[:, j, None, None] * T3[:, j]
        dc += -dw / wj ** 2
        ddc += (2.0 * (dw[:, :, None] * dw[:, None, :]) / wj[..., None] ** 3
                - ddw / wj[..., None] ** 2)

    cb = c[:, None, None]
    T3c = T3.transpose(0, 3, 1, 2)     # [z, c, a, b] = T3[z, a, b, c]
    # dg[z, c] = dc_c H + c T3[..., c]
    dg = dc[:, :, None, None] * H[:, None] + cb[:, None] * T3c
    # ddg[z, d, c] = ddc_cd H + dc_c T3[..., d] + dc_d T3[..., c]
    #                + c F4[..., c, d]
    ddg = (ddc.transpose(0, 2, 1)[..., None, None] * H[:, None, None]
           + dc[:, None, :, None, None] * T3c[:, :, None]
           + dc[:, :, None, None, None] * T3c[:, None]
           + cb[:, None, None] * F4.transpose(0, 4, 3, 1, 2))
    return c, cb * H, dg, ddg


def _det(g):
    """det g of a batched metric: EG - F^2 when n = 2."""
    if g.shape[-1] == 2:
        return g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 0, 1]
    return backend_of(g).det(g)


def _flag_failures(m: MetricTensor, js, w, singular, full):
    """Flag the failures of the batched metric ``m`` in its fault record, in
    the order a point meets them: SingularPrefactor where a term of the
    conformal sum vanishes (``singular``; ``w`` holds the terms, one column
    per slot in ``js``), DegenerateMetric where m.is_degenerate(), carrying
    the point of the metric ``full()`` with its derivatives, then NonFinite
    where g is not finite.  The degeneracy mask is kept in
    ``m.degenerate``; it is False at a point that failed before the test
    (outside the domain, or at a vanishing conformal term), whose metric
    is whatever its jet gave, so that its flag does not depend on its
    chunk."""
    faults = m.faults

    def prefactor(i):
        k = int(np.argmin(np.abs(w[i])))
        return SingularPrefactor(
            f"E^{js[k]} * dPhi/dE^{js[k]} = {float(w[i, k]):.3e} "
            "vanishes in the conformal sum")

    faults.flag(singular, prefactor)
    m.degenerate = m.is_degenerate() & faults.ok
    if np.count_nonzero(m.degenerate):
        metric = full()
        faults.flag(m.degenerate, lambda i: DegenerateMetric(
            f"|det g| = {abs(float(m.det[i])):.3e} below degeneracy "
            "threshold", metric=metric.point(i)))
    finite = backend_of(m.g).isfinite(m.g.reshape(len(m.g), -1)).all(axis=1)
    faults.flag(~finite, lambda i: NonFinite("metric is not finite"))


def _masked(m: MetricTensor):
    """g, dg and ddg of a batched metric with the identity metric and zero
    derivatives at its failed points, so that one of them cannot raise
    (mpmath) or warn in the curvature of the batch."""
    ok = m.faults.ok
    if ok.all():
        return m.g, m.dg, m.ddg
    return (np.where(ok[:, None, None], m.g, np.eye(m.n)),
            np.where(ok[:, None, None, None], m.dg, 0.0),
            np.where(ok[:, None, None, None, None], m.ddg, 0.0))


def _connection(g, dg, ddg):
    """Inverse metric and connection of a batched (masked) metric.

    Returns (inverse metric, connection)."""
    ginv = backend_of(g).inv(g)
    # dg[c,a,b] = d_c g_ab ; bracket[b,c,d] = d_b g_dc + d_c g_db - d_d g_bc
    bracket = (dg.transpose(0, 1, 3, 2) + dg.transpose(0, 3, 1, 2)
               - dg.transpose(0, 2, 3, 1))
    gamma = 0.5 * np.einsum("zad,zbcd->zabc", ginv, bracket)

    dginv = -ginv[:, None] @ dg @ ginv[:, None]
    # dbracket[e, b, c, d] = d_e bracket[b, c, d]
    dbracket = (ddg.transpose(0, 1, 2, 4, 3) + ddg.transpose(0, 1, 4, 2, 3)
                - ddg.transpose(0, 1, 3, 4, 2))
    dgamma = 0.5 * (np.einsum("zead,zbcd->zeabc", dginv, bracket)
                    + np.einsum("zad,zebcd->zeabc", ginv, dbracket))
    return ginv, ChristoffelArray(gamma=gamma, dgamma=dgamma)


def _brioschi(E, F, G, Eu, Ev, Fu, Fv, Gu, Gv, Evv, Fuv, Guu, ok):
    """Ricci scalar R = 2K of a batched 2-D metric from Brioschi's formula
    for its Gaussian curvature, K = (det A - det B) / (EG - F^2)^2, element
    by element on the batch columns of E, F, G = g_00, g_01, g_11 in
    coordinates (u, v), their first partials and E_vv, F_uv, G_uu.
    EG - F^2 is 1 where ``ok`` is False, so that a failed point cannot
    divide by zero (mpmath raises)."""
    # the entries below are doubled, which makes 4 (det A - det B)
    scale = 0.25
    if E.dtype != object:
        # (EG - F^2)^2 leaves the float64 range where |g| nears 1e-77 or
        # 1e77.  K[s g] = K[g] / s, so the metric of each point is scaled
        # by the power of two s that brings max|g_ab| into [0.5, 1): that
        # changes no bit wherever nothing over- or underflows unscaled.
        # mpmath numbers have no such range.
        s = np.ldexp(1.0, -np.frexp(np.maximum(
            np.maximum(np.abs(E), np.abs(F)), np.abs(G)))[1])
        E, F, G, Eu, Ev, Fu, Fv, Gu, Gv, Evv, Fuv, Guu = np.array(
            (E, F, G, Eu, Ev, Fu, Fv, Gu, Gv, Evv, Fuv, Guu)) * s
        scale = scale * s
    D = E * G - F * F
    if not ok.all():
        D = np.where(ok, D, 1.0)
    # A and B with their first row and column doubled (exact, as is each
    # doubling by a sum):
    # [[a11, Eu, a13], [a21, E, F], [Gv, F, G]] and
    # [[0, Ev, Gu], [Ev, E, F], [Gu, F, G]], each expanded along its
    # first row
    a11 = Fuv + Fuv - Evv - Guu
    a11 = a11 + a11
    a13, a21 = Fu + Fu - Ev, Fv + Fv - Gu
    det_a = a11 * D - Eu * (a21 * G - F * Gv) + a13 * (a21 * F - E * Gv)
    det_b = Gu * (Ev * F - E * Gu) - Ev * (Ev * G - F * Gu)
    K = scale * ((det_a - det_b) / (D * D))
    return K + K


def christoffel(m: MetricTensor) -> ChristoffelArray:
    """Levi-Civita connection and its first coordinate derivatives of a
    batched metric, with the identity metric at the points that failed
    (see :func:`natural_metric`)."""
    with np.errstate(all="ignore"):
        return _connection(*_masked(m))[1]


def riemann_up(ch: ChristoffelArray) -> np.ndarray:
    """R^rho_{sigma mu nu} from Gamma and dGamma (any leading batch axes)."""
    gamma, dgamma = ch.gamma, ch.dgamma
    # d_mu Gamma^rho_{nu sigma} is dgamma[mu, rho, nu, sigma]; the second
    # and fourth terms are the first and third with mu and nu swapped
    t1 = np.einsum("...mrns->...rsmn", dgamma)
    t3 = np.einsum("...rml,...lns->...rsmn", gamma, gamma)
    return t1 - np.swapaxes(t1, -1, -2) + t3 - np.swapaxes(t3, -1, -2)


def ricci_scalar(m: MetricTensor) -> CurvatureResult:
    """Ricci scalar of a batched natural metric, of any dimension: the
    contracted Riemann tensor of the metric with its failed points masked.
    A point whose R is not finite fails in the metric's fault record with
    NonFinite; R, det g and the conformal factor are NaN at every failed
    point, and R is flagged non-finite.  ``degenerate`` is the metric's
    degeneracy mask.
    """
    with np.errstate(all="ignore"):
        ginv, ch = _connection(*_masked(m))
        ricci = np.einsum("zrsrn->zsn", riemann_up(ch))
        R = np.einsum("zsn,zsn->z", ginv, ricci)
        return _curvature_result(m, R)


def _curvature_result(m: MetricTensor, R) -> CurvatureResult:
    """The CurvatureResult of R on the metric ``m``, with a point whose R is
    not finite failed (call under ``np.errstate(all="ignore")``)."""
    faults = m.faults
    faults.flag(~backend_of(R).isfinite(R),
                lambda i: NonFinite("Ricci scalar is not finite"))
    R, det, c = R, m.det, m.conformal_factor
    if not faults.ok.all():
        R, det, c = (np.where(faults.ok, a, np.nan) for a in (R, det, c))
    nonfinite = ~faults.ok | (np.abs(R) > NONFINITE_R)
    return CurvatureResult(at=m.at, ricci_scalar=R, det_g=det,
                           degenerate=m.degenerate, conformal_factor=c,
                           nonfinite=nonfinite, faults=faults)


def _surface_curvature(spec: SystemSpec, jet: Jet4, x) -> CurvatureResult:
    """:func:`ricci_scalar` of :func:`natural_metric` for a batched 2-D
    Jet4 of ``spec``'s field, on 1-D batch columns.

    It builds the conformal term w of the one slot in the sum with its
    first and second derivatives, then g, det g = EG - F^2 and the twelve
    entries of g, dg and ddg that Brioschi's formula reads, each in the
    order of operations of :func:`_tensors` (a doubling is a sum, which is
    exact), so that R and det g keep their bits.  Of the fourth-order
    partials it reads Phi_uuvv alone, so the jet may hold only the 2-D
    curvature's monomial set (see :func:`_chunk`).  The failures are
    flagged as in :func:`natural_metric`; a DegenerateMetric carries its
    point's full metric, which is built only then, as :func:`natural_metric`
    of the jet when it is full, or else of a full order-4 jet of the chunk.
    """
    x = np.asarray(x, dtype=float)
    i = spec.excluded_index
    j = 1 - i
    grad, H, T3 = jet.grad, jet.hess, jet.third
    u, Hj = x[:, j], H[:, j]
    with np.errstate(all="ignore"):
        # natural_metric's conformal term w = x_j Phi_j, and its test
        w = u * grad[:, j]
        aw = np.abs(w)
        small = aw < PREFACTOR_ATOL * np.maximum(1.0, aw)
        masked = backend_of(w).masked(w, small)
        # w with its derivatives dw[a] and ddw[a, b] (a <= b), and c = 1/w
        # with dc[a] and ddc[a, b].  Each sum of _tensors starts from 0.0, which turns
        # a -0.0 into +0.0, and so does each of these
        c, w2, w3 = 1.0 / masked, masked ** 2, masked ** 3
        dw = [u * Hj[:, 0], u * Hj[:, 1]]
        dw[j] = dw[j] + grad[:, j]
        ddw = {(j, j): (0.0 + Hj[:, j]) + Hj[:, j] + u * T3[:, j, j, j],
               (0, 1): (0.0 + Hj[:, i]) + u * T3[:, j, j, i],
               (i, i): 0.0 + u * T3[:, j, i, i]}
        dc = [0.0 - d / w2 for d in dw]
        ddc = {}
        for a, b in ddw:
            p = dw[a] * dw[b]
            ddc[a, b] = 0.0 + ((p + p) / w3 - ddw[a, b] / w2)

        g = c[:, None, None] * H
        H00, H01, H11 = H[:, 0, 0], H[:, 0, 1], H[:, 1, 1]
        T000, T001, T011, T111 = (T3[:, 0, 0, 0], T3[:, 0, 0, 1],
                                  T3[:, 0, 1, 1], T3[:, 1, 1, 1])
        # dg[c, a, b] = dc_c H_ab + c T3_abc, and ddg[d, c, a, b] at
        # (1, 1, 0, 0), (1, 0, 0, 1) and (0, 0, 1, 1), where T3 and F4
        # take one value per monomial
        cF4 = c * jet.fourth[:, 0, 0, 1, 1]
        t0, t1 = dc[0] * T011, dc[1] * T001
        columns = (
            g[:, 0, 0], g[:, 0, 1], g[:, 1, 1],
            dc[0] * H00 + c * T000, dc[1] * H00 + c * T001,
            dc[0] * H01 + c * T001, dc[1] * H01 + c * T011,
            dc[0] * H11 + c * T011, dc[1] * H11 + c * T111,
            ddc[1, 1] * H00 + t1 + t1 + cF4,
            ddc[0, 1] * H01 + t0 + t1 + cF4,
            ddc[0, 0] * H11 + t0 + t0 + cF4)

        m = MetricTensor(at=x, g=g, dg=None, ddg=None, det=_det(g),
                         conformal_factor=c, faults=jet.faults)

        def full():
            # natural_metric of the chunk's jet when it is full, or else of
            # a full jet of the chunk (a point's jet does not depend on its
            # batch), each on a record of its own, so that a coefficient
            # the chunk's jet does not hold fails no point
            whole = jet if jet.top is None else jet_eval(
                spec.field, x, 4, None, backend_of(w))
            return natural_metric(replace(whole, faults=Faults(len(x))), x, i)

        _flag_failures(m, [j], w[:, None], small, full)
        return _curvature_result(m, _brioschi(*columns, m.faults.ok))


def jet_curvature(spec: SystemSpec, jet: Jet4, x) -> CurvatureResult:
    """Ricci scalar of ``spec``'s natural metric from a batched Jet4 of its
    field at the (batch, n) points ``x``, whose fault record it carries on:
    :func:`_surface_curvature` when n = 2, :func:`ricci_scalar` of
    :func:`natural_metric` otherwise.  The stage of every curvature chunk,
    and of the finite-difference oracle (:func:`analysis.fd_ricci_scalar`),
    whose jet differs only in where its derivatives come from."""
    if jet.n == 2:
        return _surface_curvature(spec, jet, x)
    return ricci_scalar(natural_metric(jet, x, spec.excluded_index))


def curvature_at(spec: SystemSpec, x,
                 dps: int | None = None) -> CurvatureResult:
    """Full pipeline: domain check, order-4 jet, metric, Ricci scalar.

    ``x`` is one point or a (batch, n) array of points, evaluated in chunks
    of CHUNK.  Every point is checked against the spec's domain before its
    jet.  A batched result records each point's failure; one point is a
    batch of one that leaves through :func:`jets.one_point`, which raises
    its failure.

    With ``dps`` the jets and the geometry run in mpmath at ``dps``
    significant digits, and the results are rounded to float at the end.
    """
    if np.ndim(x) == 1:
        # no array local: a raised failure keeps this frame
        return one_point(_curvature_chunk(
            spec, np.asarray(x, dtype=float)[None], dps))
    points = np.asarray(x, dtype=float)
    # an empty batch is one empty chunk
    return CurvatureResult.concat([
        _curvature_chunk(spec, points[i:i + CHUNK], dps)
        for i in range(0, max(len(points), 1), CHUNK)])


def _curvature_chunk(spec, points, dps):
    if dps is None:
        return _chunk(spec, points, FLOAT, curvature=True)
    with mp.workdps(dps):
        res = _chunk(spec, points, MPMATH, curvature=True)
    return replace(res, ricci_scalar=res.ricci_scalar.astype(float),
                   det_g=res.det_g.astype(float),
                   conformal_factor=res.conformal_factor.astype(float))


def metric_at(spec: SystemSpec, x) -> MetricTensor:
    """Natural metric at one point, or at a (batch, n) array of points.

    Points outside the domain fail with DomainViolation, then the metric's
    own failures follow (see :func:`natural_metric`), in the order the
    curvature meets them.  One point raises its failure; a batch records it
    in ``faults``.
    """
    if np.ndim(x) == 1:
        return one_point(_chunk(spec, np.asarray(x, dtype=float)[None]))
    return _chunk(spec, np.asarray(x, dtype=float))


def _chunk(spec, points, backend=FLOAT, curvature=False):
    """Domain check, order-4 jet and natural metric of a (batch, n) chunk,
    or with ``curvature`` its Ricci scalar (:func:`jet_curvature`).

    The 2-D curvature of a compiled relation takes a jet of the monomials
    it reads, every one of degree <= 3 and u^2 v^2 (:data:`SURFACE_TOP`),
    which has the same bits on them as the full jet.  Every other jet is
    full: the metric's ddg reads each fourth-order partial, and the jet of
    a derived spec's implicit field reads the base jet's pure fourth-order
    terms in its u^2 v^2 coefficient.

    A chunk with no point inside the domain has no jet to take: its metric
    and its curvature are NaN, with the domain's fault record, and no
    formula runs."""
    faults = domain_check(spec, points)
    if faults.ok.any():
        top = (SURFACE_TOP if curvature and points.shape[1] == 2
               and isinstance(spec.field, ScalarField) else None)
        jet = jet_eval(spec.field, points, 4, faults, backend, top)
        if curvature:
            return jet_curvature(spec, jet, points)
        return natural_metric(jet, points, spec.excluded_index)
    size, n = points.shape
    nan, g, dg, ddg = (np.full((size,) + (n,) * k, np.nan)
                       for k in (0, 2, 3, 4))
    m = MetricTensor(at=points, g=g, dg=dg, ddg=ddg, det=nan,
                     conformal_factor=nan, degenerate=np.zeros(size, bool),
                     faults=faults)
    return _curvature_result(m, nan) if curvature else m
