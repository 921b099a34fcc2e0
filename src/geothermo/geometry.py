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


def _unbatch(value):
    return float(value) if np.ndim(value) == 0 else value


@dataclass
class MetricTensor:
    """g, dg, ddg at one point, or at a batch of points (leading axis)."""

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
        g = self.g
        return _unbatch(np.abs(g).reshape(g.shape[:-2] + (-1,)).max(axis=-1))

    def is_degenerate(self):
        s = self.scale()
        out = np.abs(self.det) < DEGENERACY_RTOL * np.maximum(s * s, 1e-300)
        return bool(out) if np.ndim(out) == 0 else out

    def point(self, i: int) -> "MetricTensor":
        # tolist() gives Python floats, or the mpmath numbers themselves
        return MetricTensor(at=self.at[i], g=self.g[i], dg=self.dg[i],
                            ddg=self.ddg[i], det=self.det.tolist()[i],
                            conformal_factor=self.conformal_factor.tolist()[i])

    def batch(self) -> "MetricTensor":
        return MetricTensor(at=self.at[None], g=self.g[None],
                            dg=self.dg[None], ddg=self.ddg[None],
                            det=np.array([self.det]),
                            conformal_factor=np.array([self.conformal_factor]),
                            faults=Faults(1))


@dataclass
class ChristoffelArray:
    gamma: np.ndarray      # (a, b, c) = Gamma^a_{bc}
    dgamma: np.ndarray     # (d, a, b, c) = d_d Gamma^a_{bc}


@dataclass
class CurvatureResult:
    """Ricci scalar and diagnostics at one point or a batch of points.

    For a batch every field has a leading batch axis, ``ricci_scalar`` is
    NaN at the points that failed, and ``faults`` records why.
    """

    at: np.ndarray
    ricci_scalar: object
    det_g: object
    degenerate: object
    conformal_factor: object
    nonfinite: object = False
    cross_check_dev: object = None     # 2D identity residual, diagnostics
    faults: Faults | None = None

    def point(self, i: int) -> "CurvatureResult":
        dev = self.cross_check_dev
        return CurvatureResult(
            at=self.at[i], ricci_scalar=float(self.ricci_scalar[i]),
            det_g=float(self.det_g[i]), degenerate=bool(self.degenerate[i]),
            conformal_factor=float(self.conformal_factor[i]),
            nonfinite=bool(self.nonfinite[i]),
            cross_check_dev=None if dev is None else float(dev[i]))

    @classmethod
    def concat(cls, parts):
        if len(parts) == 1:
            return parts[0]
        dev = [p.cross_check_dev for p in parts]

        def cat(name):
            return np.concatenate([getattr(p, name) for p in parts])

        return cls(at=cat("at"), ricci_scalar=cat("ricci_scalar"),
                   det_g=cat("det_g"), degenerate=cat("degenerate"),
                   conformal_factor=cat("conformal_factor"),
                   nonfinite=cat("nonfinite"),
                   cross_check_dev=None if dev[0] is None
                   else np.concatenate(dev),
                   faults=Faults.concat([p.faults for p in parts]))


def natural_metric(jet: Jet4, x, excluded_index: int,
                   check_degenerate: bool = True) -> MetricTensor:
    """Assemble g, dg, ddg from a Jet4 of the potential at ``x``.

    Raises SingularPrefactor when some E^j Phi_j in the conformal sum
    vanishes, and (by default) DegenerateMetric when |det g| is below the
    degeneracy threshold; pass ``check_degenerate=False`` to inspect the
    degenerate tensor instead.  For a batched ``jet`` (``x`` of shape
    (batch, n)) these failures go to the batch's fault record and the
    result is a batched MetricTensor.
    """
    if jet.order < 4:
        raise ValueError("natural_metric needs a jet of order 4")
    single = np.ndim(jet.value) == 0
    if single:
        jet = jet.batch()
    x = np.asarray(x, dtype=float).reshape(-1, jet.n)
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
    m = MetricTensor(at=x, g=g, dg=dg, ddg=ddg, det=det, conformal_factor=c,
                     faults=faults)
    if check_degenerate:
        _flag_degenerate(m, "|det g| = {:.3e} below degeneracy threshold")
    if single:
        faults.raise_first()
        return m.point(0)
    return m


def _flag_degenerate(m: MetricTensor, message: str):
    degenerate = m.is_degenerate()
    m.faults.flag(degenerate, lambda i: DegenerateMetric(
        message.format(abs(float(m.det[i]))), metric=m.point(i)))
    return degenerate


def _connection(m: MetricTensor):
    """Inverse metric and connection of a batched metric, with degenerate
    or failed points masked so that one of them cannot abort the batch.

    Returns (degeneracy mask, inverse metric, connection)."""
    bk = backend_of(m.g)
    degenerate = _flag_degenerate(m, "metric is degenerate")
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
    """Levi-Civita connection and its first coordinate derivatives."""
    single = m.g.ndim == 2
    mb = m.batch() if single else replace(
        m, faults=m.faults if m.faults is not None else Faults(len(m.g)))
    with np.errstate(all="ignore"):
        _, _, ch = _connection(mb)
    if single:
        mb.faults.raise_first()
        return ChristoffelArray(gamma=ch.gamma[0], dgamma=ch.dgamma[0])
    return ch


def riemann_up(ch: ChristoffelArray) -> np.ndarray:
    """R^rho_{sigma mu nu} from Gamma and dGamma (any leading batch axes)."""
    gamma, dgamma = ch.gamma, ch.dgamma
    # d_mu Gamma^rho_{nu sigma} is dgamma[mu, rho, nu, sigma]; the second
    # and fourth terms are the first and third with mu and nu swapped
    t1 = np.einsum("...mrns->...rsmn", dgamma)
    t3 = np.einsum("...rml,...lns->...rsmn", gamma, gamma)
    return t1 - np.swapaxes(t1, -1, -2) + t3 - np.swapaxes(t3, -1, -2)


def ricci_scalar(m: MetricTensor) -> CurvatureResult:
    """Ricci scalar of the natural metric with degeneracy/blow-up flags.

    A single-point metric raises on failure; a batched one records the
    failures in its fault record and leaves R = NaN there.
    """
    single = m.g.ndim == 2
    if single:
        m = m.batch()
    elif m.faults is None:
        m = replace(m, faults=Faults(len(m.g)))
    faults = m.faults
    n = m.n
    bk = backend_of(m.g)
    with np.errstate(all="ignore"):
        degenerate, ginv, ch = _connection(m)
        up = riemann_up(ch)
        ricci = np.einsum("zrsrn->zsn", up)
        R = np.einsum("zsn,zsn->z", ginv, ricci)

        cross_dev = None
        if n == 2:
            down0101 = np.einsum("ze,ze->z", m.g[:, 0, :], up[:, :, 1, 0, 1])
            det = bk.masked(m.det, ~faults.ok)
            cross_dev = np.abs(R - 2.0 * down0101 / det)

        finite = bk.isfinite(R)
        faults.flag(~finite, lambda i: NonFinite("Ricci scalar is not finite"))
        R = np.where(faults.ok, R, np.nan)
        nonfinite = ~finite | (np.abs(R) > NONFINITE_R)
    res = CurvatureResult(at=m.at, ricci_scalar=R, det_g=m.det,
                          degenerate=degenerate,
                          conformal_factor=m.conformal_factor,
                          nonfinite=nonfinite,
                          cross_check_dev=cross_dev, faults=faults)
    if single:
        faults.raise_first()
        return res.point(0)
    return res


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
            del res, points     # a raised exception keeps this frame alive
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
    dev = res.cross_check_dev
    return replace(res, ricci_scalar=res.ricci_scalar.astype(float),
                   det_g=res.det_g.astype(float),
                   conformal_factor=res.conformal_factor.astype(float),
                   cross_check_dev=None if dev is None else dev.astype(float))


def metric_at(spec: SystemSpec, x, check_degenerate: bool = True) -> MetricTensor:
    """Natural metric at one point, or at a (batch, n) array of points."""
    jet = jet_eval(spec.field, x, 4)
    return natural_metric(jet, x, spec.excluded_index,
                          check_degenerate=check_degenerate)
