"""Truncated Taylor (jet) arithmetic and the finite-difference oracle.

A :class:`Jet` is a multivariate Taylor polynomial of a scalar field,
truncated at a total degree (at most 4 here), held for a whole batch of
expansion points at once: its coefficients are a dense array of shape
(monomials, batch).  Propagating jets through an expression yields the exact
partial derivatives of the expression at every point of the batch, which is
what the metric/curvature pipeline consumes.  A single point is a batch of
one.

Products go through precomputed index tables (forward propagation of
truncated Taylor coefficients; Griewank, Utke & Walther, Math. Comp. 69,
2000).  A point whose evaluation fails (a logarithm of a non-positive value,
an overflow, a zero denominator) is recorded in the batch's :class:`Faults`
and the rest of the batch carries on; a jet without a fault record raises at
once instead.

Coefficients are numbers of a backend: long double by default
(:data:`FLOAT`), or mpmath numbers in object arrays (:data:`MPMATH`, at the
working precision of the caller's ``mp.workdps``).  ``jet_poly`` and
``jet_eval`` take the backend once per call; every operation of the jets
they build uses it.

The independent check is :func:`fd_partial`: nested central finite differences,
sharing no code with the jet propagation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import NamedTuple

import mpmath as mp
import numpy as np

from .errors import (DomainViolation, GeothermoError, NonFinite,
                     SingularDenominator)

EPS = sys.float_info.epsilon
MAX_ORDER = 4

# Taylor coefficients are carried in extended precision (80-bit on x86;
# plain double where the platform has no wider type) and rounded to float64
# when the derivatives leave the jet.  The curvature of float ising_f near
# T = 0.5, H = 2 lives in a term about 1e-6 of the leading ones, so the
# rounding of double-precision products and sums reaches the oracle
# tolerance there.  Element-wise long double functions also come from the C
# library, point by point, so a point's value does not depend on the batch
# it is evaluated in.
DTYPE = np.longdouble

# per-degree constants of the univariate series, one row per degree k
_K = np.arange(MAX_ORDER + 1, dtype=float)[:, None]
_SIGN = (-1.0) ** _K
_INV_FACTORIAL = np.array([1.0 / math.factorial(k)
                           for k in range(MAX_ORDER + 1)])[:, None]


class Faults:
    """First failure of each point of a batch.

    ``ok[i]`` turns False when point ``i`` fails, and ``errors[i]`` keeps the
    exception a single-point evaluation raises there.  Later failures of a
    point are ignored, so the record matches what a point-by-point run of
    the same steps would raise.
    """

    __slots__ = ("ok", "errors")

    def __init__(self, size: int):
        self.ok = np.ones(size, dtype=bool)
        self.errors = {}

    def flag(self, mask, make):
        """Fail every point in ``mask`` that has not failed yet with make(i)."""
        new = mask & self.ok
        if new.any():
            for i in np.flatnonzero(new).tolist():
                self.errors[i] = make(i)
            self.ok &= ~new

    def fail(self, i: int, exc: Exception):
        if self.ok[i]:
            self.ok[i] = False
            self.errors[i] = exc

    def raise_first(self):
        """Raise the failure of the lowest-numbered failed point, if any.

        The record lets go of the exception first: a raised exception keeps
        the frames it passed through alive, and through them this record,
        so holding on to it would form a reference cycle.
        """
        if self.errors:
            raise self.errors.pop(min(self.errors))

    @classmethod
    def concat(cls, parts):
        out = cls(0)
        out.ok = np.concatenate([p.ok for p in parts])
        offset = 0
        for p in parts:
            out.errors.update((offset + i, e) for i, e in p.errors.items())
            offset += len(p.ok)
        return out


def _at(values, i):
    """Entry ``i`` of a per-point array that may be broadcast from one."""
    return float(values[i if values.shape[0] > 1 else 0])


class _Product(NamedTuple):
    """Product tables: padded gather indices (rank, monomial + zero row) and
    the unpadded (i, j) pairs of each row."""

    left: np.ndarray
    right: np.ndarray
    pairs: list


class _Tables:
    """Monomials of total degree <= order in ``nvars`` variables.

    Monomials are numbered by degree; within a degree they follow the sorted
    index tuples of ``combinations_with_replacement``, so the degree-1
    monomial of variable i is number 1 + i.  Coefficient arrays carry one
    more row, number ``size``, that is always zero: the product tables pad
    with it.
    """

    def __init__(self, nvars: int, order: int):
        combos = [c for d in range(order + 1)
                  for c in combinations_with_replacement(range(nvars), d)]
        exps = [tuple(c.count(v) for v in range(nvars)) for c in combos]
        number = {e: k for k, e in enumerate(exps)}
        self.size = len(exps)
        self.exps = exps
        self.degree = [len(c) for c in combos]
        # products a_i * b_j landing on monomial k, in (k, i, j) order
        pairs = sorted((number[tuple(x + y for x, y in zip(ei, ej))], i, j)
                       for i, ei in enumerate(exps) for j, ej in enumerate(exps)
                       if self.degree[i] + self.degree[j] <= order)
        self.mul = self._product(pairs)
        # the same for a right factor without constant term (series
        # composition multiplies by the zero-value part of its argument)
        self.mul_shift = self._product([p for p in pairs if p[2] != 0])
        # Taylor coefficient -> partial derivative, and the monomial behind
        # every entry of the symmetric derivative tensors of degree 1..order
        self.weights = np.array([float(math.prod(math.factorial(x) for x in e))
                                 for e in exps])[:, None]
        self.tensor_index = np.array(
            [number[tuple(p.count(v) for v in range(nvars))]
             for d in range(1, order + 1)
             for p in product(range(nvars), repeat=d)], dtype=np.intp)

    def _product(self, pairs):
        """Gather tables (rank, monomial) of a product: column k lists the
        pairs that land on monomial k, padded with the zero row.  Summing
        the gathered products over the rank axis adds each monomial's terms
        in (i, j) order, whatever the batch size.  ``pairs`` keeps the
        unpadded lists (the zero row's is empty)."""
        groups = [[] for _ in range(self.size + 1)]
        for k, i, j in pairs:
            groups[k].append((i, j))
        left = np.full((max(map(len, groups)), self.size + 1), self.size,
                       dtype=np.intp)
        right = left.copy()
        for k, group in enumerate(groups):
            for rank, (i, j) in enumerate(group):
                left[rank, k], right[rank, k] = i, j
        return _Product(left, right, groups)


@lru_cache(maxsize=None)
def _tables(nvars: int, order: int) -> _Tables:
    return _Tables(nvars, order)


# ---- number backends -----------------------------------------------------


class _FloatBackend:
    """Long double coefficients, NumPy element-wise functions, products as
    padded gathers (see :meth:`_Tables._product`)."""

    dtype = DTYPE
    result_dtype = float        # derivatives leave jet_eval as float64
    number = float
    k, sign, inv_factorial = _K, _SIGN, _INV_FACTORIAL
    log, exp, sinh, cosh = np.log, np.exp, np.sinh, np.cosh
    isfinite = np.isfinite
    det, inv = staticmethod(np.linalg.det), staticmethod(np.linalg.inv)

    @staticmethod
    def asarray(values):
        return np.asarray(values, dtype=DTYPE)

    @staticmethod
    def masked(values, bad):
        """``values`` for the points that go on; IEEE arithmetic already
        carries the failed points along without raising."""
        return values

    @staticmethod
    def product(table, a, b):
        return np.add.reduce(a[table.left] * b[table.right], axis=0)


class _MpBackend:
    """mpmath numbers in object arrays at the current working precision.

    Each coefficient of a product is one ``mp.fdot`` over the monomial's
    (i, j) pairs: an object-array gather would also multiply the padding.
    A point is set to NaN where it fails (``masked``): mpmath raises on a
    zero denominator and returns complex numbers for the logarithm or a
    fractional power of a negative number.
    """

    dtype = result_dtype = object
    k = np.array([[mp.mpf(k)] for k in range(MAX_ORDER + 1)], dtype=object)
    sign = np.array([[mp.mpf((-1) ** k)] for k in range(MAX_ORDER + 1)],
                    dtype=object)
    log, exp, sinh, cosh = (np.frompyfunc(f, 1, 1)
                            for f in (mp.log, mp.exp, mp.sinh, mp.cosh))
    _isfinite = np.frompyfunc(mp.isfinite, 1, 1)
    _mpf = np.frompyfunc(mp.mpf, 1, 1)
    number = mp.mpf

    @property
    def inv_factorial(self):
        return np.array([[mp.mpf(1) / math.factorial(k)]
                         for k in range(MAX_ORDER + 1)], dtype=object)

    def isfinite(self, values):
        return self._isfinite(values).astype(bool)

    def asarray(self, values):
        return np.asarray(self._mpf(values), dtype=object)

    @staticmethod
    def masked(values, bad):
        return np.where(bad, mp.nan, values) if bad.any() else values

    @staticmethod
    def product(table, a, b):
        a, b = np.broadcast_arrays(a, b)
        fdot = mp.fdot
        cols = [[fdot([(x[i], y[j]) for i, j in pairs])
                 for pairs in table.pairs]
                for x, y in zip(a.T.tolist(), b.T.tolist())]
        return np.array(cols, dtype=object).T

    @staticmethod
    def det(g):
        """Determinants of a (batch, n, n) stack by cofactor expansion."""
        n = g.shape[-1]
        if n == 1:
            return g[:, 0, 0].copy()
        out = 0
        for j in range(n):
            minor = np.delete(np.delete(g, 0, axis=1), j, axis=2)
            out = out + (-1) ** j * g[:, 0, j] * _MpBackend.det(minor)
        return out

    @staticmethod
    def inv(g):
        """Inverses of a (batch, n, n) stack: adjugate over determinant."""
        n = g.shape[-1]
        if n == 1:
            return 1 / g
        adj = np.empty_like(g)
        for i in range(n):
            for j in range(n):
                minor = np.delete(np.delete(g, i, axis=1), j, axis=2)
                adj[:, j, i] = (-1) ** (i + j) * _MpBackend.det(minor)
        return adj / _MpBackend.det(g)[:, None, None]


FLOAT = _FloatBackend()
MPMATH = _MpBackend()


def backend_of(values) -> "_FloatBackend | _MpBackend":
    """The backend whose numbers fill the array ``values``."""
    return MPMATH if values.dtype == object else FLOAT


def _binomials(r, order):
    """Column of the series coefficients binom(r, k), k = 0..order, in the
    number type of ``r``."""
    facs = [1.0]
    for k in range(1, order + 1):
        facs.append(facs[-1] * ((r - (k - 1)) / k))
    return np.array(facs)[:, None]


class Jet:
    """Multivariate Taylor polynomials truncated at total degree ``order``.

    ``c[k, b]`` is the coefficient of monomial k (see :class:`_Tables`) at
    point b of the batch: the mixed partial divided by ``prod k_i!``.  The
    last row of ``c`` is zero.
    ``faults`` is the batch's failure record; without one, an operation that
    fails at any point raises.  ``bk`` is the number backend of ``c``.
    """

    __slots__ = ("nvars", "order", "c", "faults", "bk")
    __array_ufunc__ = None      # ndarray (op) Jet defers to the Jet

    def __init__(self, nvars: int, order: int, c, faults=None, bk=FLOAT):
        self.nvars = nvars
        self.order = order
        self.c = c
        self.faults = faults
        self.bk = bk

    @classmethod
    def constant(cls, nvars: int, order: int, value, faults=None,
                 bk=FLOAT) -> "Jet":
        value = bk.asarray(value).reshape(-1)
        c = np.zeros((_tables(nvars, order).size + 1, value.shape[0]),
                     dtype=bk.dtype)
        c[0] = value
        return cls(nvars, order, c, faults, bk)

    @classmethod
    def variable(cls, nvars: int, order: int, index: int, value,
                 faults=None, bk=FLOAT) -> "Jet":
        out = cls.constant(nvars, order, value, faults, bk)
        if order >= 1:
            out.c[1 + index] = bk.asarray(1.0)
        return out

    @property
    def value(self) -> np.ndarray:
        """Values at the expansion points, shape (batch,)."""
        return self.c[0]

    @property
    def size(self) -> int:
        return self.c.shape[1]

    def _like(self, c, other=None) -> "Jet":
        faults = self.faults
        if faults is None and other is not None:
            faults = other.faults
        return Jet(self.nvars, self.order, c, faults, self.bk)

    def _flag(self, mask, make):
        if self.faults is not None:
            self.faults.flag(mask, make)
        elif mask.any():
            raise make(int(np.flatnonzero(mask)[0]))

    # ---- ring operations -------------------------------------------------

    def _shift(self, k):
        """self + k for a constant k (a float or one value per point)."""
        c = self.c
        if not isinstance(k, float):
            k = self.bk.asarray(k)
            if k.ndim and k.shape[-1] != c.shape[1]:
                c = np.broadcast_to(c, (c.shape[0], k.shape[-1]))
        out = c.copy()
        out[0] += k
        return self._like(out)

    def __add__(self, other):
        if isinstance(other, Jet):
            return self._like(self.c + other.c, other)
        return self._shift(other)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.c)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return self._like(self.c - other.c, other)
        return self._shift(-other if isinstance(other, float)
                           else -self.bk.asarray(other))

    def __rsub__(self, other):
        return (-self)._shift(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if not isinstance(other, float):
                other = self.bk.asarray(other)
            return self._like(self.c * other)
        if self.order == 0:
            return self._like(self.c * other.c, other)
        return self._like(self.bk.product(_tables(self.nvars, self.order).mul,
                                          self.c, other.c), other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        other = self.bk.asarray(other)
        zero = np.atleast_1d(other == 0.0)
        self._flag(zero, lambda i: SingularDenominator(
            "jet division by zero value"))
        return self * (1.0 / self.bk.masked(other, zero))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, exponent):
        if isinstance(exponent, Jet):
            # general jet exponent: u^w = exp(w ln u)
            return (exponent * self.ln()).exp()
        r = float(exponent)
        if math.isfinite(r) and r == int(r) and abs(r) <= 64:
            return self._int_pow(int(r))
        bk = self.bk
        u0 = self.value
        bad = u0 <= 0.0
        self._flag(bad, lambda i: DomainViolation(
            f"fractional power of non-positive base {_at(u0, i)!r}"))
        k = bk.k[:self.order + 1]
        return self._compose(_binomials(bk.number(r), self.order)
                             * bk.masked(u0, bad) ** (r - k))

    def __rpow__(self, base):
        # constant base, jet exponent: a^w = exp(w ln a)
        bk = self.bk
        a = bk.asarray(base)
        bad = np.atleast_1d(a <= 0.0)
        self._flag(bad, lambda i: DomainViolation(
            f"power of non-positive base {_at(a.reshape(-1), i)!r}"))
        return (self * bk.log(bk.masked(a, bad))).exp()

    def _int_pow(self, m: int) -> "Jet":
        if m < 0:
            return self._reciprocal()._int_pow(-m)
        result = None
        base = self
        while m:
            if m & 1:
                result = base if result is None else result * base
            m >>= 1
            if m:
                base = base * base
        if result is None:
            return Jet.constant(self.nvars, self.order,
                                np.ones(self.size), self.faults, self.bk)
        return result

    def _reciprocal(self) -> "Jet":
        bk = self.bk
        u0 = self.value
        zero = u0 == 0.0
        self._flag(zero, lambda i: SingularDenominator(
            "jet division by zero value"))
        k = bk.k[:self.order + 1]
        return self._compose(bk.sign[:self.order + 1]
                             / bk.masked(u0, zero) ** (k + 1.0))

    # ---- analytic functions ----------------------------------------------

    def _compose(self, series) -> "Jet":
        """Substitute the zero-value part of self into a univariate series.

        ``series[k]`` must equal f^(k)(value)/k!, one value per point:
        an array of shape (order + 1, batch).
        """
        c = self.c
        out = c * series[-1]
        if self.order == 0:
            out[0] = series[0]
            return self._like(out)
        # Horner in the zero-value part d of self: the products skip the
        # constant slot of d, which is zero
        table = _tables(self.nvars, self.order).mul_shift
        out[0] = series[-2]
        for k in range(self.order - 2, -1, -1):
            out = self.bk.product(table, out, c)
            out[0] = series[k]
        return self._like(out)

    def _overflow(self, name, *values):
        x = self.value
        isfinite = self.bk.isfinite
        bad = ~isfinite(values[0])
        for v in values[1:]:
            bad |= ~isfinite(v)
        self._flag(bad & isfinite(x), lambda i: NonFinite(
            f"{name} overflow at {_at(x, i)!r}"))

    def ln(self) -> "Jet":
        bk = self.bk
        u0 = self.value
        bad = u0 <= 0.0
        self._flag(bad, lambda i: DomainViolation(
            f"ln of non-positive argument {_at(u0, i)!r}"))
        u0 = bk.masked(u0, bad)
        series = np.empty((self.order + 1, len(u0)), dtype=bk.dtype)
        series[0] = bk.log(u0)
        k = bk.k[1:self.order + 1]
        series[1:] = bk.sign[:self.order] / (k * u0 ** k)
        return self._compose(series)

    def exp(self) -> "Jet":
        e0 = self.bk.exp(self.value)
        self._overflow("exp", e0)
        return self._compose(e0 * self.bk.inv_factorial[:self.order + 1])

    def sqrt(self) -> "Jet":
        u0 = self.value
        self._flag(u0 <= 0.0, lambda i: DomainViolation(
            f"sqrt of non-positive argument {_at(u0, i)!r}"))
        return self ** 0.5

    def _hyperbolic(self, name, even, odd):
        self._overflow(name, even, odd)
        inv_factorial = self.bk.inv_factorial
        series = np.empty((self.order + 1, len(even)), dtype=self.bk.dtype)
        series[0::2] = even * inv_factorial[0:self.order + 1:2]
        series[1::2] = odd * inv_factorial[1:self.order + 1:2]
        return self._compose(series)

    def sinh(self) -> "Jet":
        x, bk = self.value, self.bk
        return self._hyperbolic("sinh", bk.sinh(x), bk.cosh(x))

    def cosh(self) -> "Jet":
        x, bk = self.value, self.bk
        return self._hyperbolic("cosh", bk.cosh(x), bk.sinh(x))

    def tanh(self) -> "Jet":
        return self.sinh() / self.cosh()

    # ---- polynomial manipulation -----------------------------------------

    def slot_series(self, slot: int, deltas: list) -> list:
        """Expand the polynomials in variable ``slot``.

        Returns A_0..A_order such that the polynomials at displacements
        ``deltas`` of the other variables and ``t`` of variable ``slot``
        equal sum_m A_m t^m.  ``deltas[slot]`` is not read.  Each delta may
        be a Jet (in any ambient jet space) or a float; all deltas must have
        value zero so truncation is exact.  Coefficients are per point, so
        a batch of polynomials expands against a batch of displacements
        point by point.  An A_m with no displaced term is a coefficient
        row, one value per point.
        """
        t = _tables(self.nvars, self.order)
        powers = {}
        series = [None] * (self.order + 1)
        for k, e in enumerate(t.exps):
            coef = self.c[k]
            if t.degree[k] and not coef.any():
                continue
            term = coef
            for i, ki in enumerate(e):
                if ki == 0 or i == slot:
                    continue
                pw = powers.setdefault(i, [deltas[i]])
                while len(pw) < ki:
                    pw.append(pw[-1] * deltas[i])
                term = pw[ki - 1] * term
            m = e[slot]
            series[m] = term if series[m] is None else series[m] + term
        return [self.c[-1] if a is None else a for a in series]


@dataclass
class Jet4:
    """Value and symmetric partial-derivative arrays through order 4.

    For a batch every array carries a leading batch axis (``value`` has
    shape (batch,)), and ``faults`` records the points that failed.
    """

    value: object
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray
    fourth: np.ndarray
    order: int = MAX_ORDER
    faults: Faults | None = None

    @property
    def n(self) -> int:
        return self.grad.shape[-1]

    def point(self, i: int) -> "Jet4":
        """Point ``i`` of a batch as a single-point Jet4."""
        return Jet4(self.value.tolist()[i], self.grad[i], self.hess[i],
                    self.third[i], self.fourth[i], self.order)


def _as_jet(result, nvars: int, order: int, size: int, faults, bk) -> Jet:
    if not isinstance(result, Jet):
        result = Jet.constant(nvars, order, result, faults, bk)
    if result.size != size:
        result = Jet(nvars, order,
                     np.broadcast_to(result.c, (result.c.shape[0], size)),
                     result.faults, bk)
    return result


def jet_poly(field, x, order: int = MAX_ORDER, faults=None,
             backend=FLOAT) -> Jet:
    """Raw truncated Taylor polynomial of ``field`` around ``x``.

    ``x`` is one point, or a (batch, n) array of points.  Failures are
    recorded in ``faults`` when given; otherwise the first one raises.
    ``backend`` (:data:`FLOAT` or :data:`MPMATH`) holds the coefficients.
    """
    x = np.asarray(x, dtype=float)
    points = x.reshape(-1, x.shape[-1])
    n, size = points.shape[1], points.shape[0]
    args = [Jet.variable(n, order, i, points[:, i], faults, backend)
            for i in range(n)]
    try:
        result = field(args)
    except GeothermoError as exc:
        if faults is None:
            raise
        # a failure before any jet saw it (a float subexpression that
        # involves no coordinate) belongs to every point of the batch
        faults.flag(np.ones(size, dtype=bool), lambda i: exc)
        result = math.nan
    return _as_jet(result, n, order, size, faults, backend)


def jet_eval(field, x, order: int = MAX_ORDER, faults=None,
             backend=FLOAT) -> Jet4:
    """Evaluate ``field`` and its partials through ``order``.

    ``field`` is any callable accepting a sequence of Jets (or floats) and
    combining them with arithmetic and the analytic functions above.  Unused
    higher-order slots of the result are zero-filled.

    For a single point ``x`` the result is a single-point Jet4 and a failure
    raises.  For a (batch, n) array the result carries a leading batch axis
    and a fault record (``faults``, or a new one) instead of raising.

    With the default ``backend`` the derivatives are float64; with
    :data:`MPMATH` they are mpmath numbers in object arrays.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}, got {order}")
    x = np.asarray(x, dtype=float)
    points = x.reshape(-1, x.shape[-1])
    size, n = points.shape
    record = Faults(size) if faults is None else faults
    t = _tables(n, order)
    with np.errstate(all="ignore"):
        jet = jet_poly(field, points, order, record, backend)
        derivs = (jet.c[:-1] * t.weights).T.astype(backend.result_dtype)
    finite = backend.isfinite(derivs)
    record.flag(~finite.all(axis=1), lambda i: NonFinite(
        _coefficient_message(t, finite[i])))
    value = derivs[:, 0].copy()
    entries = derivs[:, t.tensor_index]
    tensors, start = [], 0
    for d in range(1, MAX_ORDER + 1):
        shape = (size,) + (n,) * d
        if d > order:
            tensors.append(np.zeros(shape, dtype=derivs.dtype))
            continue
        stop = start + n ** d
        tensors.append(entries[:, start:stop].reshape(shape))
        start = stop
    out = Jet4(value, *tensors, order=order, faults=record)
    if x.ndim == 1:
        record.raise_first()
        return out.point(0)
    return out


def _coefficient_message(t, finite):
    for k in range(1, len(finite)):
        if not finite[k]:
            return f"non-finite Taylor coefficient for index {t.exps[k]}"
    return "non-finite field value"


# Dispatch wrappers usable on floats and Jets alike; evaluators written
# against these run unchanged under jet_eval and under plain evaluation.

def _float_guard(fn, name, x):
    try:
        out = fn(x)
    except ValueError as exc:
        raise DomainViolation(f"{name} of out-of-domain argument {x!r}") from exc
    except OverflowError as exc:
        raise NonFinite(f"{name} overflow at {x!r}") from exc
    return out


def ln(x):
    if isinstance(x, Jet):
        return x.ln()
    if x <= 0.0:
        raise DomainViolation(f"ln of non-positive argument {x!r}")
    return math.log(x)


def exp(x):
    return x.exp() if isinstance(x, Jet) else _float_guard(math.exp, "exp", x)


def sqrt(x):
    if isinstance(x, Jet):
        return x.sqrt()
    if x <= 0.0:
        raise DomainViolation(f"sqrt of non-positive argument {x!r}")
    return math.sqrt(x)


def sinh(x):
    return x.sinh() if isinstance(x, Jet) else _float_guard(math.sinh, "sinh", x)


def cosh(x):
    return x.cosh() if isinstance(x, Jet) else _float_guard(math.cosh, "cosh", x)


def tanh(x):
    return x.tanh() if isinstance(x, Jet) else math.tanh(x)


def power(x, y):
    if isinstance(x, Jet) or isinstance(y, Jet):
        return x ** y
    if x < 0.0 and not (math.isfinite(y) and y == int(y)):
        raise DomainViolation(f"fractional power of negative base {x!r}")
    if x == 0.0 and y < 0.0:
        raise DomainViolation("zero base with negative exponent")
    return _float_guard(lambda b: b ** y, "pow", x)


def divide(x, y):
    """x / y with a zero float denominator reported as SingularDenominator."""
    if not isinstance(y, Jet) and not isinstance(x, Jet) and y == 0.0:
        raise SingularDenominator(f"division of {x!r} by zero")
    return x / y


def default_fd_step(x_a: float, total_order: int) -> float:
    """Truncation/round-off balanced step for an order-k partial."""
    return EPS ** (1.0 / (total_order + 2)) * max(1.0, abs(x_a))


def fd_partial(field, x, multi_index, step: float | None = None) -> float:
    """Nested central finite-difference estimate of a mixed partial.

    ``multi_index`` lists coordinate indices, one per differentiation
    (length <= 4).  Raises DomainViolation if any stencil point leaves the
    field's domain.
    """
    multi_index = list(multi_index)
    if len(multi_index) > MAX_ORDER:
        raise ValueError("fd_partial supports orders up to 4")
    x = [float(c) for c in x]
    k = len(multi_index)

    def plain(pt):
        result = field([float(c) for c in pt])
        return result.value if isinstance(result, Jet) else float(result)

    def shifted(idxs, pt, a, mult, h):
        out = list(pt)
        out[a] += mult * h
        return recurse(idxs, out)

    def recurse(idxs, pt):
        if not idxs:
            return plain(pt)
        a = idxs[0]
        h = step if step is not None else default_fd_step(x[a], k)
        # fourth-order-accurate central first derivative; at step
        # h ~ eps^(1/(k+2)) the truncation term h^4 f^(5) is negligible
        # against round-off, which keeps nested high-order estimates
        # inside the 1e-4 oracle budget
        return (shifted(idxs[1:], pt, a, -2, h)
                - 8.0 * shifted(idxs[1:], pt, a, -1, h)
                + 8.0 * shifted(idxs[1:], pt, a, 1, h)
                - shifted(idxs[1:], pt, a, 2, h)) / (12.0 * h)

    out = recurse(multi_index, x)
    if not math.isfinite(out):
        raise NonFinite("finite-difference estimate is not finite")
    return out
