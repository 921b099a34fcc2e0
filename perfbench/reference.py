"""Independent extended-precision reference for the Ricci scalar in 2-D.

The natural metric g_ab = c * Phi_ab with c = 1 / (E^j Phi_j) (j the one
coordinate kept in the conformal sum) is assembled from mpmath partials of a
relation written directly as an mpmath function, and its curvature is taken
from Brioschi's formula for the Gaussian curvature K, with R = 2K.  Nothing
here imports geothermo: the connection/Riemann contraction the package uses
and its jet arithmetic are both bypassed.
"""

from __future__ import annotations

import mpmath as mp


def ising_phi(J):
    def phi(T, H):
        return -T * mp.log(mp.cosh(H / T)
                           + mp.sqrt(mp.sinh(H / T) ** 2 + mp.exp(-4 * J / T)))
    return phi


def custom_mix_phi(k=1.5, m=0.5):
    """specs.CUSTOM_SYSTEM's relation k ln x + ln y + m ln(x + 2y)."""
    def phi(x, y):
        return k * mp.log(x) + mp.log(y) + m * mp.log(x + 2 * y)
    return phi


def ising_dps(T, H, J=1.0):
    """Twice the digits needed to resolve exp(-(4J + 2H)/T) against 1."""
    return 2 * (30 + int(1.2 * (4 * abs(J) + 2 * abs(H)) / T))


def ricci_2d(phi, x, excluded, dps):
    """R of the natural metric of ``phi`` at the 2-D point ``x``."""
    with mp.workdps(dps):
        p = [mp.mpf(c) for c in x]
        cache = {}

        def d(*idx):
            # partial of phi over the coordinate indices in idx
            key = (idx.count(0), idx.count(1))
            if key not in cache:
                cache[key] = mp.diff(phi, p, key)
            return cache[key]

        j = 1 - excluded
        w = p[j] * d(j)
        dw = [(d(j) if k == j else 0) + p[j] * d(j, k) for k in (0, 1)]
        ddw = [[(d(j, l) if k == j else 0) + (d(j, k) if l == j else 0)
                + p[j] * d(j, k, l) for l in (0, 1)] for k in (0, 1)]
        c = 1 / w
        dc = [-dw[k] / w ** 2 for k in (0, 1)]
        ddc = [[2 * dw[k] * dw[l] / w ** 3 - ddw[k][l] / w ** 2
                for l in (0, 1)] for k in (0, 1)]

        def g(a, b):
            return c * d(a, b)

        def dg(a, b, k):
            return dc[k] * d(a, b) + c * d(a, b, k)

        def ddg(a, b, k, l):
            return (ddc[k][l] * d(a, b) + dc[k] * d(a, b, l)
                    + dc[l] * d(a, b, k) + c * d(a, b, k, l))

        E, F, G = g(0, 0), g(0, 1), g(1, 1)
        Eu, Ev = dg(0, 0, 0), dg(0, 0, 1)
        Fu, Fv = dg(0, 1, 0), dg(0, 1, 1)
        Gu, Gv = dg(1, 1, 0), dg(1, 1, 1)
        A = mp.matrix([[-ddg(0, 0, 1, 1) / 2 + ddg(0, 1, 0, 1)
                        - ddg(1, 1, 0, 0) / 2, Eu / 2, Fu - Ev / 2],
                       [Fv - Gu / 2, E, F],
                       [Gv / 2, F, G]])
        B = mp.matrix([[0, Ev / 2, Gu / 2],
                       [Ev / 2, E, F],
                       [Gu / 2, F, G]])
        K = (mp.det(A) - mp.det(B)) / (E * G - F * F) ** 2
        return float(2 * K)
