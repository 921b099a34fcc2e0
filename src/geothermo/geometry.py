"""Natural metric assembly and curvature of the equilibrium manifold.

The metric is a conformal rescaling of the potential's Hessian,

    g_ab = c * d2Phi/dE^a dE^b,   c = sum_{j != i} 1 / (E^j dPhi/dE^j),

with the i-th (excluded) pair being the one traded for the potential under a
change of representation.  First and second coordinate derivatives of g are
assembled from the order-3/order-4 jet slots by the product rule, which is all
the Levi-Civita connection and the Riemann tensor need.

Curvature conventions:  R^rho_{sigma mu nu} = d_mu Gamma^rho_{nu sigma}
- d_nu Gamma^rho_{mu sigma} + Gamma Gamma - Gamma Gamma,
Ricci_{sigma nu} = R^rho_{sigma rho nu}, R = g^{sigma nu} Ricci_{sigma nu}.

The stages (:func:`natural_metric`, :func:`christoffel`, :func:`ricci_scalar`)
take a batch of points on a leading axis and record each point's failure in
the batch's fault record.  A single point enters only through the functions
that take coordinates (:func:`metric_at`, :func:`curvature_at`,
:func:`jets.jet_eval`), which run it as a batch of one and raise its failure.

Every stage runs on the numbers of the jet it is given: float64, or mpmath
numbers in object arrays (``curvature_at(..., dps=...)``), whose backend
(:func:`jets.backend_of`) supplies the determinant, the inverse and the
finiteness test.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from .errors import DegenerateMetric, NonFinite, SingularPrefactor
from .jets import MPMATH, Faults, Jet4, backend_of, jet_eval
from .systems import SystemSpec, domain_check

DEGENERACY_RTOL = 1e-12      # |det g| < rtol * max|g_ab|^2 flags degeneracy
PREFACTOR_ATOL = 1e-13       # |E^j Phi_j| below this (times scale) is singular
NONFINITE_R = 1e12           # |R| beyond this is reported, not trusted
CHUNK = 64                   # points per pass of the batched pipeline


@dataclass
class MetricTensor:
    """g, dg, ddg at a batch of points (leading axis), or at one point."""

    at: np.ndarray
    g: np.ndarray          # (n, n)
    dg: np.ndarray         # (c, a, b) = d_c g_ab
    ddg: np.ndarray        # (d, c, a, b) = d_d d_c g_ab
    det: object
    conformal_factor: object
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
        # tolist() gives Python floats, or the mpmath numbers themselves
        return MetricTensor(at=self.at[i], g=self.g[i], dg=self.dg[i],
                            ddg=self.ddg[i], det=self.det.tolist()[i],
                            conformal_factor=self.conformal_factor.tolist()[i])


@dataclass
class ChristoffelArray:
    gamma: np.ndarray      # (a, b, c) = Gamma^a_{bc}
    dgamma: np.ndarray     # (d, a, b, c) = d_d Gamma^a_{bc}


@dataclass
class CurvatureResult:
    """Ricci scalar and flags at a batch of points, or at one point.

    For a batch every field has a leading batch axis, ``ricci_scalar`` is
    NaN at the points that failed, and ``faults`` records why.
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

    A point where some E^j Phi_j in the conformal sum vanishes fails with
    SingularPrefactor in the jet's fault record (a new one if it has none),
    which the result carries on.  Degeneracy is left to the connection.
    """
    if jet.order < 4:
        raise ValueError("natural_metric needs a jet of order 4")
    x = np.asarray(x, dtype=float)
    faults = jet.faults if jet.faults is not None else Faults(len(x))
    n = jet.n
    G, H, T3, F4 = jet.grad, jet.hess, jet.third, jet.fourth
    bk = backend_of(G)

    js = [j for j in range(n) if j != excluded_index]
    w = x[:, js] * G[:, js]
    aw = np.abs(w)
    scale = np.maximum(1.0, aw.max(axis=1, initial=0.0))
    small = aw < PREFACTOR_ATOL * scale[:, None]

    def prefactor(i):
        k = int(np.argmin(aw[i]))
        return SingularPrefactor(
            f"E^{js[k]} * dPhi/dE^{js[k]} = {float(w[i, k]):.3e} "
            "vanishes in the conformal sum")

    faults.flag(small.any(axis=1), prefactor)
    w = bk.masked(w, small)

    with np.errstate(all="ignore"):
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
        g = cb * H
        T3c = T3.transpose(0, 3, 1, 2)     # [z, c, a, b] = T3[z, a, b, c]
        # dg[z, c] = dc_c H + c T3[..., c]
        dg = dc[:, :, None, None] * H[:, None] + cb[:, None] * T3c
        # ddg[z, d, c] = ddc_cd H + dc_c T3[..., d] + dc_d T3[..., c]
        #                + c F4[..., c, d]
        ddg = (ddc.transpose(0, 2, 1)[..., None, None] * H[:, None, None]
               + dc[:, None, :, None, None] * T3c[:, :, None]
               + dc[:, :, None, None, None] * T3c[:, None]
               + cb[:, None, None] * F4.transpose(0, 4, 3, 1, 2))
        det = bk.det(g)
    return MetricTensor(at=x, g=g, dg=dg, ddg=ddg, det=det,
                        conformal_factor=c, faults=faults)


def _flag_degenerate(m: MetricTensor):
    degenerate = m.is_degenerate()
    m.faults.flag(degenerate, lambda i: DegenerateMetric(
        f"|det g| = {abs(float(m.det[i])):.3e} below degeneracy threshold",
        metric=m.point(i)))
    return degenerate


def _connection(m: MetricTensor):
    """Inverse metric and connection of a batched metric, with degenerate
    or failed points masked so that one of them cannot abort the batch.

    Returns (degeneracy mask, inverse metric, connection)."""
    bk = backend_of(m.g)
    degenerate = _flag_degenerate(m)
    m.faults.flag(~bk.isfinite(m.g.reshape(len(m.g), -1)).all(axis=1),
                  lambda i: NonFinite("metric is not finite"))
    ok = m.faults.ok
    g = m.g if ok.all() else np.where(ok[:, None, None], m.g, np.eye(m.n))
    ginv = bk.inv(g)
    # dg[c,a,b] = d_c g_ab ; bracket[b,c,d] = d_b g_dc + d_c g_db - d_d g_bc
    dg = m.dg
    bracket = (dg.transpose(0, 1, 3, 2) + dg.transpose(0, 3, 1, 2)
               - dg.transpose(0, 2, 3, 1))
    gamma = 0.5 * np.einsum("zad,zbcd->zabc", ginv, bracket)

    dginv = -ginv[:, None] @ dg @ ginv[:, None]
    ddg = m.ddg     # (e, b, c, d) = d_e bracket[b,c,d]
    dbracket = (ddg.transpose(0, 1, 2, 4, 3) + ddg.transpose(0, 1, 4, 2, 3)
                - ddg.transpose(0, 1, 3, 4, 2))
    dgamma = 0.5 * (np.einsum("zead,zbcd->zeabc", dginv, bracket)
                    + np.einsum("zad,zebcd->zeabc", ginv, dbracket))
    return degenerate, ginv, ChristoffelArray(gamma=gamma, dgamma=dgamma)


def christoffel(m: MetricTensor) -> ChristoffelArray:
    """Levi-Civita connection and its first coordinate derivatives of a
    batched metric; degenerate points fail in its fault record."""
    with np.errstate(all="ignore"):
        return _connection(m)[2]


def riemann_up(ch: ChristoffelArray) -> np.ndarray:
    """R^rho_{sigma mu nu} from Gamma and dGamma (any leading batch axes)."""
    gamma, dgamma = ch.gamma, ch.dgamma
    # d_mu Gamma^rho_{nu sigma} is dgamma[mu, rho, nu, sigma]; the second
    # and fourth terms are the first and third with mu and nu swapped
    t1 = np.einsum("...mrns->...rsmn", dgamma)
    t3 = np.einsum("...rml,...lns->...rsmn", gamma, gamma)
    return t1 - np.swapaxes(t1, -1, -2) + t3 - np.swapaxes(t3, -1, -2)


def ricci_scalar(m: MetricTensor) -> CurvatureResult:
    """Ricci scalar of a batched natural metric with degeneracy/blow-up
    flags.  Failures go to the metric's fault record, and R is NaN there.
    """
    faults = m.faults
    bk = backend_of(m.g)
    with np.errstate(all="ignore"):
        degenerate, ginv, ch = _connection(m)
        up = riemann_up(ch)
        ricci = np.einsum("zrsrn->zsn", up)
        R = np.einsum("zsn,zsn->z", ginv, ricci)
        finite = bk.isfinite(R)
        faults.flag(~finite, lambda i: NonFinite("Ricci scalar is not finite"))
        R = np.where(faults.ok, R, np.nan)
        nonfinite = ~finite | (np.abs(R) > NONFINITE_R)
    return CurvatureResult(at=m.at, ricci_scalar=R, det_g=m.det,
                           degenerate=degenerate,
                           conformal_factor=m.conformal_factor,
                           nonfinite=nonfinite, faults=faults)


def curvature_at(spec: SystemSpec, x, check_domain: bool = True,
                 dps: int | None = None) -> CurvatureResult:
    """Full pipeline: domain check, order-4 jet, metric, Ricci scalar.

    ``x`` is one point (a failure raises) or a (batch, n) array of points,
    evaluated in chunks of CHUNK; a batched result records each point's
    failure instead of raising.

    With ``dps`` the jets and the geometry run in mpmath at ``dps``
    significant digits, and the results are rounded to float at the end.
    """
    points = np.asarray(x, dtype=float)
    if points.ndim == 1:
        res = _curvature_chunk(spec, points[None], check_domain, dps)
        error = res.faults.errors.pop(0, None)
        if error is not None:
            # a raised exception keeps the frames it passes through alive,
            # and callers keep a failed query's exception: raise from this
            # frame, not through Faults.raise_first, and without the batch
            del res, points
            raise error
        return res.point(0)
    return CurvatureResult.concat([
        _curvature_chunk(spec, points[i:i + CHUNK], check_domain, dps)
        for i in range(0, len(points), CHUNK)])


def _curvature_chunk(spec, points, check_domain, dps):
    faults = (domain_check(spec, points) if check_domain
              else Faults(len(points)))
    if dps is None:
        jet = jet_eval(spec.field, points, 4, faults)
        return ricci_scalar(natural_metric(jet, points, spec.excluded_index))
    with mp.workdps(dps):
        jet = jet_eval(spec.field, points, 4, faults, MPMATH)
        res = ricci_scalar(natural_metric(jet, points, spec.excluded_index))
    return replace(res, ricci_scalar=res.ricci_scalar.astype(float),
                   det_g=res.det_g.astype(float),
                   conformal_factor=res.conformal_factor.astype(float))


def metric_at(spec: SystemSpec, x, check_degenerate: bool = True) -> MetricTensor:
    """Natural metric at one point, or at a (batch, n) array of points.

    Points outside the domain fail with DomainViolation and, unless
    ``check_degenerate`` is False, degenerate ones with DegenerateMetric.
    One point raises its failure; a batch records it in ``faults``.
    """
    points = np.asarray(x, dtype=float)
    batch = points[None] if points.ndim == 1 else points
    jet = jet_eval(spec.field, batch, 4, domain_check(spec, batch))
    m = natural_metric(jet, batch, spec.excluded_index)
    if check_degenerate:
        _flag_degenerate(m)
    if points.ndim == 1:
        m.faults.raise_first()
        return m.point(0)
    return m
