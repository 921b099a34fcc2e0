"""Truncated Taylor (jet) arithmetic and the finite-difference oracle.

A :class:`Jet` is a multivariate Taylor polynomial of a scalar field,
truncated at a total degree (at most 4 here), held for a whole batch of
expansion points at once: its coefficients are a dense array of shape
(monomials, batch).  Propagating jets through an expression yields the exact
partial derivatives of the expression at every point of the batch, which is
what the metric/curvature pipeline consumes.  A single point is a batch of
one.

A jet holds the monomials of one set (see :class:`_Tables`): all of degree
<= order, or all of degree below the order and some of degree order.  Such a
set is closed under division, so each coefficient it holds has the bits the
full jet gives it.  The 2-D curvature reads one fourth-order coefficient,
Phi_uuvv, and its chunks take the set {degree <= 3} + {u^2 v^2} (see
:func:`geometry._chunk`): for two variables 11 coefficient rows instead of
15, 44 pairs per product instead of 70, and Horner steps of 9, 25 and 33
pairs instead of 9, 25 and 55.

Products go through precomputed index tables (forward propagation of
truncated Taylor coefficients; Griewank, Utke & Walther, Math. Comp. 69,
2000).  Most products are Horner steps of a series composition (analytic
functions, reciprocals and fractional powers), and each step is truncated at
the degree that the later steps read (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., 2008, ch. 13): for two variables at order 4 a
composition makes 89 multiplications instead of 165 (67 on the 2-D
curvature's set), with the same bits (see :meth:`Jet._compose`).

A float product sums each monomial's pairs in one of two layouts with the
same bits (see :meth:`_Tables._product`), gathering them with
``ndarray.take``, which has the bits of fancy indexing at less than half
its cost on a single point.  Below :data:`STAIRCASE_WIDTH`
(64) points it gathers them into a rectangle padded with zero rows and
reduces over its rank axis; from 64 points on it adds them in "staircase"
blocks that hold each monomial's own pairs and at most one padding pair, 85
terms instead of 144 for the full product of two variables at order 4,
gathered and multiplied block by block.  A single point keeps the
rectangle, whose one reduce costs less than the staircase's per-block
calls; a grid pass of 256 points adds less than half the terms, in
temporaries no larger than one coefficient array.

A composition whose argument is affine in one variable makes no product at
all.  A :meth:`Jet.variable` is tagged with its variable; a shift by a
constant, a negation and a scaling by a float or by one value per point keep
the tag, and every other operation drops it (the sum of two jets, every
product and every composition).  A tagged composition writes the series
times powers of the slope, with the bits the Horner loop gives (see
:meth:`Jet._compose_affine`).  ``ln(u)``, ``1/v``, ``ln(v - b)``,
``(v - b)^(2/3)`` and ``exp((2/3)*s)`` are such compositions, and per
order-4 jet the ten catalog relations make 45 products instead of 99:
ideal_s 0 (6), ideal_u 4 (10), ideal_F 1 (7), ideal_g 5 (11), vdw_s 3 (9),
vdw_u 4 (13), vdw_F 1 (10), ising_f 18 (21), chap_s 5 (5), chap_u 4 (7),
with the Horner loop's count in parentheses.

The series of ``ln`` and of the reciprocal, sign/(k u0^k) and
sign/u0^(k+1), take the powers of the value u0 as a running product, each
power the one before times u0 (see :func:`_powers`), rather than one pow
call per point and degree.  The fractional power's u0^(r-k) stays a pow.

A point whose evaluation fails (a logarithm of a non-positive value, an
overflow, a zero denominator) is recorded in the batch's :class:`Faults`,
which every jet of the evaluation carries, and the rest of the batch
carries on.

Coefficients are numbers of a backend: long double by default
(:data:`FLOAT`), or mpmath numbers in object arrays (:data:`MPMATH`, at the
working precision of the caller's ``mp.workdps``).  ``jet_poly`` and
``jet_eval`` take the backend once per call; every operation of the jets
they build uses it.  An mpmath product gives the bits of ``mp.fdot`` over
each monomial's pairs without its per-term tuples (see :func:`_dot`): the
products are exact, the sum is rounded once, a term is dropped where
``mpf_sum`` drops it, and inf and nan factors fall back to ``mpf_sum``.
Its Horner steps run on ``_mpf_`` tuples, point by point, and build mpmath
numbers once per composition, with no multiplication of mpmath numbers
(see :meth:`_MpBackend.horner`).

The independent check is :func:`fd_jet4`: every partial through order 4
at each point of a batch by nested central finite differences on the
field's float path, sharing no code with the jet propagation.  An order-k
partial along axis a steps h_a = eps^(1/(k+4)) * max(1, |x_a|); its 4^k
stencil nodes are built as arrays, every distinct node of the call is
evaluated once (as one order-0 batch for a field whose float path is a
batch of one, such as a Newton-derived one), and the differences are
reduced axis by axis with the bits of the recursion over the axes.  The
same scatter as a jet's (:func:`_jet4`) makes its Jet4.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import combinations_with_replacement, product
from typing import NamedTuple

import mpmath as mp
import numpy as np
from mpmath.libmp import from_man_exp, mpf_mul, mpf_sum

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
        if np.count_nonzero(mask):      # half the cost of mask.any()
            new = mask & self.ok
            for i in np.flatnonzero(new).tolist():
                self.errors[i] = make(i)
            self.ok &= ~new

    def fail(self, i: int, exc: Exception):
        if self.ok[i]:
            self.ok[i] = False
            self.errors[i] = exc

    def pop_first(self):
        """The failure of the lowest-numbered failed point, taken out of the
        record, or None.

        A caller that raises it lets go of its batch first: a raised
        exception keeps alive every frame it passes through.
        """
        return self.errors.pop(min(self.errors)) if self.errors else None

    def raise_first(self):
        """Raise the failure of the lowest-numbered failed point, if any.

        The record lets go of the exception first: a raised exception keeps
        the frames it passed through alive, and through them this record,
        so holding on to it would form a reference cycle.
        """
        error = self.pop_first()
        if error is not None:
            raise error

    @classmethod
    def concat(cls, parts):
        out = cls(0)
        out.ok = np.concatenate([p.ok for p in parts])
        offset = 0
        for p in parts:
            out.errors.update((offset + i, e) for i, e in p.errors.items())
            offset += len(p.ok)
        return out


def lockstep(searches, evaluate):
    """Results of coroutine searches run in lockstep passes.

    A search yields trials, is sent the answer to each, and returns its
    result, or raises a GeothermoError, which is then its result.  A pass
    is one call ``evaluate(live, trials)`` on the live searches' indices
    and latest trials, returning one answer per trial.  A search decides
    only from its own answers, so its result does not depend on the others.
    """
    results = [None] * len(searches)
    live, answers = range(len(searches)), [None] * len(searches)
    while live:
        still, trials = [], []
        for i, answer in zip(live, answers):
            try:
                trials.append(searches[i].send(answer))
            except StopIteration as stop:
                results[i] = stop.value
            except GeothermoError as exc:   # without the frames it left
                results[i] = exc.with_traceback(None)
            else:
                still.append(i)
        live = still
        if live:
            answers = evaluate(live, trials)
    return results


def one_point(batch):
    """Point 0 of a batch of one, or that point's failure, raised.

    Every single-point edge (an evaluation, a metric, a curvature, the FD
    oracle) runs its point as a batch of one and leaves it here.  A raised
    exception keeps alive every frame it passes through, so the batch is
    let go of before the raise: pass it in directly, not from a local, and
    a caller that keeps failures (a query loop) keeps only the point's own
    frames, not each batch.
    """
    error = batch.faults.errors.pop(0, None)
    if error is None:
        return batch.point(0)
    del batch
    raise error


def _at(values, i):
    """Entry ``i`` of a per-point array that may be broadcast from one."""
    return float(values[i if values.shape[0] > 1 else 0])


# Batches at least this wide sum a product's pairs in staircase blocks (see
# _Tables._product), narrower ones in the padded rectangle.  On small
# batches the staircase's per-block NumPy calls cost more than the padding
# they skip (at a batch of one the full product of two variables at order 4
# took 31 us against 6 us padded); on wide ones the padded temporaries
# outgrow the cache (at 256 points 229 us against 751 us).  The crossover
# measured 48-64 points.
STAIRCASE_WIDTH = 64


class _Product(NamedTuple):
    """Product tables: padded gather indices (rank, monomial + zero row),
    the unpadded (i, j) pairs of each row, and the staircase: one pair of
    gather indices (left, right) per block, and the permutation ``inverse``
    back to monomial order."""

    left: np.ndarray
    right: np.ndarray
    pairs: list
    blocks: tuple
    inverse: np.ndarray


class _Tables:
    """One monomial set in ``nvars`` variables: every monomial of total
    degree below ``order``, and those of degree ``order`` whose exponent
    tuples ``top`` lists (all of them when ``top`` is None).

    Such a set is closed under division, so a product truncated to it sums
    each monomial it holds from the same pairs, in the same order, as the
    product on every monomial of degree <= order (forward Taylor
    propagation; Griewank & Walther, *Evaluating Derivatives*, ch. 13).
    For two variables at order 4 the full set has 15 monomials; the 2-D
    curvature's set, ``top=((2, 2),)``, keeps the 10 of degree <= 3 and
    u^2 v^2 (see :func:`geometry._chunk`), 11 in all.

    Monomials are numbered by degree; within a degree they follow the sorted
    index tuples of ``combinations_with_replacement``, so the degree-1
    monomial of variable i is number 1 + i, and a monomial of degree below
    ``order`` has the same number in every set.  Coefficient arrays carry
    one more row, number ``size``, that is always zero: the product tables
    pad with it.
    """

    def __init__(self, nvars: int, order: int, top=None):
        self.nvars, self.order, self.top = nvars, order, top
        exps = [tuple(c.count(v) for v in range(nvars))
                for d in range(order + 1)
                for c in combinations_with_replacement(range(nvars), d)]
        exps = [e for e in exps if sum(e) < order or top is None or e in top]
        number = {e: k for k, e in enumerate(exps)}
        self.size = len(exps)
        self.exps = exps
        self.degree = [sum(e) for e in exps]
        # products a_i * b_j landing on a monomial k of the set, in
        # (k, i, j) order
        sums = ((tuple(x + y for x, y in zip(ei, ej)), i, j)
                for i, ei in enumerate(exps) for j, ej in enumerate(exps))
        pairs = sorted((number[e], i, j) for e, i, j in sums if e in number)
        self.mul = self._product(pairs, self.size, self.size)
        # Horner steps of a series composition (see Jet._compose): step D
        # multiplies by a right factor without constant term and keeps the
        # count[D] monomials of degree <= D; its left factor is the previous
        # step's output, whose zero row is its last
        count = [sum(1 for g in self.degree if g <= d)
                 for d in range(order + 1)]
        self.compose = [
            self._product([p for p in pairs if p[2] != 0 and p[0] < count[d]],
                          count[d], self.size if d == 2 else count[d - 1])
            for d in range(2, order + 1)]
        # the monomials x_v^1, x_v^2, ... of each variable v that the set
        # holds: the rows a composition of an argument affine in x_v writes
        # (Jet._compose_affine)
        self.powers = []
        for v in range(nvars):
            rows = (number.get(tuple(m * (u == v) for u in range(nvars)))
                    for m in range(1, order + 1))
            self.powers.append(np.array([k for k in rows if k is not None],
                                        dtype=np.intp))
        # Taylor coefficient -> partial derivative, and the monomial behind
        # every entry of the symmetric derivative tensors of degree 1..order.
        # An entry of a monomial the set does not hold reads the zero row,
        # whose weight is NaN
        self.weights = np.array(
            [float(math.prod(math.factorial(x) for x in e)) for e in exps]
            + [math.nan])[:, None]
        self.tensor_index = np.array(
            [number.get(tuple(p.count(v) for v in range(nvars)), self.size)
             for d in range(1, order + 1)
             for p in product(range(nvars), repeat=d)], dtype=np.intp)

    def _product(self, pairs, height, left_zero):
        """Gather tables (rank, monomial) of a product onto the first
        ``height`` monomials: column k lists the pairs that land on monomial
        k, padded with the zero rows (row ``left_zero`` of the left factor,
        row ``size`` of the right one), and column ``height`` is padding
        alone, the zero row of the result.  Summing the gathered products
        over the rank axis adds each monomial's terms in (i, j) order,
        whatever the batch size.  ``pairs`` keeps the unpadded lists (the
        zero row's is empty).

        The staircase holds the same sums without most of the padding.  The
        monomials are ordered by pair count, longest first (a stable sort),
        and every group shorter than the rank gets one padding pair, the
        zero rows of both factors.  Block r lists the r-th pair of every
        monomial that has more than r, so each block covers a prefix of
        that order, and ``inverse`` takes the order back to monomial order.
        Summing a monomial's block entries in turn from +0 gives the padded
        sum's bits: the padding product z = a_0 b_0 is a signed zero or
        NaN, and adding it to a sum that started at +0 a second time
        changes nothing.  For two variables at order 4 the full product
        gathers 85 entries (70 pairs) instead of 144, and the Horner steps
        of a composition 15, 34 and 70 (9, 25 and 55 pairs) instead of 21,
        55 and 128; on the 2-D curvature's set the product gathers 55
        (44 pairs) instead of 108, and the last Horner step 44 (33 pairs)
        instead of 96."""
        groups = [[] for _ in range(height + 1)]
        for k, i, j in pairs:
            groups[k].append((i, j))
        rank = max(map(len, groups))
        left = np.full((rank, height + 1), left_zero, dtype=np.intp)
        right = np.full((rank, height + 1), self.size, dtype=np.intp)
        for k, group in enumerate(groups):
            for r, (i, j) in enumerate(group):
                left[r, k], right[r, k] = i, j
        # the staircase: the rectangle's columns, longest group first, row
        # r cut after the last group that reaches it with its first padding
        # pair (row len(group) of a short group's column).  Ordered on
        # Python lists: a process's first np.argsort faults in about 0.5 MB
        # of NumPy code, which peak RSS counts
        order = sorted(range(height + 1), key=lambda k: -len(groups[k]))
        reach = [min(len(groups[k]) + 1, rank) for k in order]
        blocks = []
        for r in range(rank):
            cols = order[:sum(x > r for x in reach)]
            blocks.append((left[r, cols], right[r, cols]))
        inverse = np.array(sorted(range(height + 1), key=order.__getitem__),
                           dtype=np.intp)
        return _Product(left, right, groups, tuple(blocks), inverse)


_TABLES = {}


def _tables(nvars: int, order: int, top=None) -> _Tables:
    """The tables of one monomial set (see :class:`_Tables`), built once
    per set: ``top`` is a tuple of the degree-``order`` exponent tuples
    kept, or None for all of them."""
    key = (nvars, order, top)
    if key not in _TABLES:
        _TABLES[key] = _Tables(nvars, order, top)
    return _TABLES[key]


# ---- number backends -----------------------------------------------------


class _FloatBackend:
    """Long double coefficients, NumPy element-wise functions, products as
    gathers (see :meth:`_Tables._product`): padded below
    :data:`STAIRCASE_WIDTH` points, in staircase blocks from there on, with
    the same bits either way."""

    dtype = DTYPE
    result_dtype = float        # derivatives leave jet_eval as float64
    number = float
    k, sign, inv_factorial = _K, _SIGN, _INV_FACTORIAL
    log, exp, sinh, cosh = np.log, np.exp, np.sinh, np.cosh
    isfinite, zeros = np.isfinite, np.zeros
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
        # take() gathers with the bits of fancy indexing: on one point the
        # gathers and the multiplication of a full order-4 product of two
        # variables take 2.0 us against 3.5 us indexed
        if a.shape[1] < STAIRCASE_WIDTH > b.shape[1]:     # both narrower
            return np.add.reduce(a.take(table.left, axis=0)
                                 * b.take(table.right, axis=0), axis=0)
        # block by block, so that no temporary outgrows (monomials, batch)
        (left, right), *rest = table.blocks
        out = a.take(left, axis=0) * b.take(right, axis=0)
        out += 0.0                          # the padded sum starts at +0
        for left, right in rest:
            out[:len(left)] += a.take(left, axis=0) * b.take(right, axis=0)
        return out.take(table.inverse, axis=0)

    def horner(self, tables, c, series):
        """The truncated Horner loop of :meth:`Jet._compose` on coefficients
        ``c``, for order >= 1: one :meth:`product` per step of ``tables``."""
        out = c * series[-1]
        out[0] = series[-2]
        for table, s in zip(tables, series[-3::-1]):
            out = self.product(table, out, c)
            out[0] = s
        return out


def _dot(pairs, x, y, prec, rnd):
    """``mpf_sum([mpf_mul(x[i], y[j]) for i, j in pairs], prec, rnd)``, the
    sum ``mp.fdot`` takes, with its bits, over ``_mpf_`` tuples.

    Each product's mantissa and exponent go straight into one integer
    accumulator, and the sum drops or replaces a term where ``mpf_sum``
    does (its ``max_extra_prec`` is 2 prec), so the accumulator holds the
    value ``mpf_sum`` rounds, and one ``from_man_exp`` rounds it the same
    way.  A monomial with an inf or nan factor takes ``mpf_sum`` itself.
    Mantissas may be ints or gmpy ``mpz``, so only operations both have are
    used.
    """
    limit = 2 * prec
    man = exp = 0
    for i, j in pairs:
        xsign, xman, xexp, xbc = x[i]
        ysign, yman, yexp, ybc = y[j]
        m = xman * yman
        if not m:
            if xexp and not xman or yexp and not yman:
                return mpf_sum([mpf_mul(x[i], y[j]) for i, j in pairs],
                               prec, rnd)
            continue                # a zero factor: mpf_sum skips fzero
        if xsign ^ ysign:
            m = -m
        e = xexp + yexp
        if e >= exp:
            delta = e - exp
            if delta > limit and (not man or
                                  delta - abs(man).bit_length() > limit):
                man, exp = m, e
            else:
                man += m << delta
        else:
            delta = exp - e
            # the product has xbc + ybc - 1 or xbc + ybc bits
            if (delta - xbc - ybc >= limit
                    and delta - abs(m).bit_length() > limit):
                if not man:
                    man, exp = m, e
            else:
                man = (man << delta) + m
                exp = e
    return from_man_exp(man, exp, prec, rnd)


class _MpBackend:
    """mpmath numbers in object arrays at the current working precision.

    A product sums each monomial's (i, j) pairs with the bits of
    ``mp.fdot`` (an object-array gather would also multiply the padding),
    in :func:`_dot` on ``_mpf_`` tuples converted once per point: the
    products are exact, the sum is rounded once and drops a term where
    ``mpf_sum`` does, and a monomial with an inf or nan factor is summed by
    ``mpf_sum`` itself.  Every group of a table's pairs is summed, the zero
    row's empty one to zero.  The Horner steps of a composition
    (:meth:`horner`) run on each point's tuple lists from the first step,
    whose products are ``mpf_mul`` calls, with ``mpf`` objects built at the
    end: no step multiplies mpmath numbers.

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

    @staticmethod
    def zeros(shape, dtype):
        return np.full(shape, mp.mp.zero, dtype=dtype)

    def asarray(self, values):
        return np.asarray(self._mpf(values), dtype=object)

    @staticmethod
    def masked(values, bad):
        return np.where(bad, mp.nan, values) if bad.any() else values

    @staticmethod
    def _points(m, size):
        """The columns of ``m`` as lists of ``_mpf_`` tuples, one per point
        of a batch of ``size`` (a single column is repeated)."""
        mpf, convert = mp.mpf, mp.convert
        cols = [[v._mpf_ if type(v) is mpf else convert(v)._mpf_
                 for v in col] for col in m.T.tolist()]
        return cols if len(cols) == size else cols * size

    def product(self, table, a, b):
        """``mp.fdot`` over each monomial's pairs, point by point (see
        :func:`_dot`).  The zero row's group of ``table.pairs`` is empty,
        and its sum is zero."""
        size = np.broadcast_shapes(a.shape[1:], b.shape[1:])[0]
        prec, rnd = mp.mp._prec_rounding
        make, dot = mp.make_mpf, _dot
        out = [[make(dot(g, x, y, prec, rnd)) for g in table.pairs]
               for x, y in zip(self._points(a, size), self._points(b, size))]
        return np.array(out, dtype=object).T

    def horner(self, tables, c, series):
        """The truncated Horner loop of :meth:`Jet._compose`, for order >=
        1, on ``_mpf_`` tuples: each point's ``c`` column and series are
        converted once, and ``mpf`` objects are built at the end.  The first
        step is ``c * s_order`` by ``mpf_mul`` with its constant monomial
        set to s_(order-1); each later step sums ``table.pairs`` as
        :meth:`product` does, with the bits of one product per step.  A
        step's constant monomial has no pairs (its right factor has no
        constant term), so it is the step's series term, and its zero row's
        group is empty, so that row is zero."""
        size = np.broadcast_shapes(c.shape[1:], series.shape[1:])[0]
        prec, rnd = mp.mp._prec_rounding
        make, dot, mul = mp.make_mpf, _dot, mpf_mul
        cols = []
        for x, terms in zip(self._points(c, size),
                            self._points(series[::-1], size)):
            o = [terms[1]] + [mul(v, terms[0], prec, rnd) for v in x[1:]]
            for table, s in zip(tables, terms[2:]):
                o = [s] + [dot(g, o, x, prec, rnd) for g in table.pairs[1:]]
            cols.append([make(v) for v in o])
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


def _powers(u0, count, dtype):
    """Rows u0^1..u0^count, one value per point, as a running product:
    each row is the one before times u0, with no pow call.  ``count`` may
    be 0 (an order-0 jet's logarithm has no series rows)."""
    out = np.empty((count, len(u0)), dtype=dtype)
    if count:
        out[0] = u0
        for m in range(1, count):
            np.multiply(out[m - 1], u0, out=out[m])
    return out


def _binomials(r, order):
    """Column of the series coefficients binom(r, k), k = 0..order, in the
    number type of ``r``."""
    facs = [1.0]
    for k in range(1, order + 1):
        facs.append(facs[-1] * ((r - (k - 1)) / k))
    return np.array(facs)[:, None]


class Jet:
    """Multivariate Taylor polynomials truncated to one monomial set.

    ``t`` is the set's :class:`_Tables` (from :func:`_tables`): every
    monomial of degree below ``order`` and the degree-``order`` ones it
    keeps.  ``c[k, b]`` is the coefficient of monomial k of the set at
    point b of the batch: the mixed partial divided by ``prod k_i!``.  The
    last row of ``c`` is zero.  Every operand of an operation carries the
    same set.
    ``faults`` is the batch's failure record, shared by every jet of one
    evaluation.  ``bk`` is the number backend of ``c``.

    ``affine`` is the variable the jet is affine in, or None: a
    :meth:`variable` shifted by constants, negated and scaled by constants
    (a float or one value per point).  Its coefficients are the value, the
    slope at monomial ``1 + affine``, and one signed zero (or NaN, after a
    non-finite scale) per point in every other row, the zero row included.
    Every other operation drops the tag, the sum of two jets and every
    product and composition too.
    """

    __slots__ = ("t", "c", "faults", "bk", "affine")
    __array_ufunc__ = None      # ndarray (op) Jet defers to the Jet

    def __init__(self, t: _Tables, c, faults, bk=FLOAT, affine=None):
        self.t = t
        self.c = c
        self.faults = faults
        self.bk = bk
        self.affine = affine

    @classmethod
    def constant(cls, t: _Tables, value, faults, bk=FLOAT) -> "Jet":
        value = bk.asarray(value).reshape(-1)
        c = np.zeros((t.size + 1, value.shape[0]), dtype=bk.dtype)
        c[0] = value
        return cls(t, c, faults, bk)

    @classmethod
    def variable(cls, t: _Tables, index: int, value, faults,
                 bk=FLOAT) -> "Jet":
        out = cls.constant(t, value, faults, bk)
        if t.order >= 1:
            out.c[1 + index] = bk.asarray(1.0)
        out.affine = index
        return out

    @property
    def nvars(self) -> int:
        return self.t.nvars

    @property
    def order(self) -> int:
        return self.t.order

    @property
    def value(self) -> np.ndarray:
        """Values at the expansion points, shape (batch,)."""
        return self.c[0]

    @property
    def size(self) -> int:
        return self.c.shape[1]

    def _like(self, c, affine=None) -> "Jet":
        return Jet(self.t, c, self.faults, self.bk, affine)

    # ---- ring operations -------------------------------------------------

    def _shift(self, k):
        """self + k for a constant k (a float or one value per point)."""
        out = self.c.copy()
        out[0] += k if isinstance(k, float) else self.bk.asarray(k)
        return self._like(out, self.affine)

    def __add__(self, other):
        if isinstance(other, Jet):
            return self._like(self.c + other.c)
        return self._shift(other)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.c, self.affine)

    def __sub__(self, other):
        if isinstance(other, Jet):
            return self._like(self.c - other.c)
        return self._shift(-other if isinstance(other, float)
                           else -self.bk.asarray(other))

    def __rsub__(self, other):
        return (-self)._shift(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            if not isinstance(other, float):
                other = self.bk.asarray(other)
            return self._like(self.c * other, self.affine)
        if self.order == 0:
            return self._like(self.c * other.c)
        return self._like(self.bk.product(self.t.mul, self.c, other.c))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        other = self.bk.asarray(other)
        zero = np.atleast_1d(other == 0.0)
        self.faults.flag(zero, lambda i: SingularDenominator(
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
        self.faults.flag(bad, lambda i: DomainViolation(
            f"fractional power of non-positive base {_at(u0, i)!r}"))
        k = bk.k[:self.order + 1]
        return self._compose(_binomials(bk.number(r), self.order)
                             * bk.masked(u0, bad) ** (r - k))

    def __rpow__(self, base):
        # constant base, jet exponent: a^w = exp(w ln a)
        bk = self.bk
        a = bk.asarray(base)
        bad = np.atleast_1d(a <= 0.0)
        self.faults.flag(bad, lambda i: DomainViolation(
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
            return Jet.constant(self.t, np.ones(self.size), self.faults,
                                self.bk)
        return result

    def _reciprocal(self) -> "Jet":
        bk = self.bk
        u0 = self.value
        zero = u0 == 0.0
        self.faults.flag(zero, lambda i: SingularDenominator(
            "jet division by zero value"))
        return self._compose(bk.sign[:self.order + 1] / _powers(
            bk.masked(u0, zero), self.order + 1, bk.dtype))

    # ---- analytic functions ----------------------------------------------

    def _compose(self, series) -> "Jet":
        """Substitute the zero-value part of self into a univariate series.

        ``series[k]`` must equal f^(k)(value)/k!, one value per point:
        an array of shape (order + 1, batch).

        Horner in the zero-value part d of self, p_k = p_(k+1) d + s_k, is
        truncated per step: d has no constant term, so the steps after
        p_(order-D) read only its coefficients of degree <= D, and step D
        computes only those monomials (see
        :attr:`_Tables.compose`).  Each of them is summed from the same
        pairs in the same order as in an untruncated step, so the result
        keeps its bits.  Only the padding of the steps before the last
        (which covers every monomial) shrinks, and padding adds products
        of zero rows: signed zeros, which leave a sum that starts at +0
        unchanged, or NaN where the series or the zero row of self is not
        finite.  Then every padded coefficient is NaN, and so is every
        other non-constant one of the result: it reads a degree-1
        coefficient of p_1, padded in the step before.

        When self is tagged affine in x_i (a variable shifted, negated or
        scaled by constants; see :class:`Jet`) and the order is at least 2,
        no product is made: see :meth:`_compose_affine`.  That takes the
        catalog relations from 99 products per order-4 jet to 45 (vdw_s
        9 -> 3, vdw_u 13 -> 4, vdw_F 10 -> 1, ideal_s 6 -> 0, ising_f
        21 -> 18, chap_s 5 -> 5; all ten in the module docstring).  The
        result is untagged, as every composition's is.
        """
        if self.order == 0:
            out = self.c * series[-1]
            out[0] = series[0]
            return self._like(out)
        if self.affine is not None and self.order >= 2:
            return self._like(self._compose_affine(series))
        return self._like(self.bk.horner(self.t.compose, self.c, series))

    def _compose_affine(self, series):
        """The bits of the Horner loop for self tagged affine in x_i, whose
        zero-value part is d = c_1 x_i (c_1 the slope), without a product.

        In a Horner step every pair but (x_i^(m-1), x_i) multiplies a zero
        coefficient of d, so the result is s_m c_1^m on monomial x_i^m,
        multiplied left to right, ((s_m c_1) c_1)..., as the steps
        multiply it, and zero elsewhere.  A step's sums start at +0
        (NumPy's add.reduce does; mpmath has no signed zero), so a zero
        comes out +0 whatever its terms' signs: the x_i^m rows add +0 to
        their products, and every other row is +0.

        That holds while every term is finite.  A point with an s_m c_1^m
        (m >= 1) that is not finite (from a non-finite series term or
        slope, or an overflow) goes through the Horner loop instead, which
        spreads NaN as its steps do.  The zero rows of self are NaN only
        where a non-finite scale made the slope non-finite too.  Every
        s_m c_1^m is tested, also where the set does not hold x_i^m (only
        the rows it holds are written), since the loop's NaN reaches every
        monomial the set holds.
        """
        bk, c, t = self.bk, self.c, self.t
        slope = c[1 + self.affine]
        powers = series[1:] * slope
        for m in range(1, self.order):
            powers[m:] *= slope
        powers += 0.0
        size = powers.shape[1]
        out = bk.zeros((c.shape[0], size), powers.dtype)
        out[0] = series[0]
        rows = t.powers[self.affine]
        out[rows] = powers[:len(rows)]
        if not bk.isfinite(powers).all():
            bad = np.flatnonzero(~bk.isfinite(powers).all(axis=0))
            out[:, bad] = bk.horner(
                t.compose, *(np.broadcast_to(m, (m.shape[0], size))[:, bad]
                             for m in (c, series)))
        return out

    def _overflow(self, name, *values):
        x = self.value
        isfinite = self.bk.isfinite
        bad = ~isfinite(values[0])
        for v in values[1:]:
            bad |= ~isfinite(v)
        self.faults.flag(bad & isfinite(x), lambda i: NonFinite(
            f"{name} overflow at {_at(x, i)!r}"))

    def ln(self) -> "Jet":
        bk = self.bk
        u0 = self.value
        bad = u0 <= 0.0
        self.faults.flag(bad, lambda i: DomainViolation(
            f"ln of non-positive argument {_at(u0, i)!r}"))
        u0 = bk.masked(u0, bad)
        series = np.empty((self.order + 1, len(u0)), dtype=bk.dtype)
        series[0] = bk.log(u0)
        series[1:] = bk.sign[:self.order] / (
            bk.k[1:self.order + 1] * _powers(u0, self.order, bk.dtype))
        return self._compose(series)

    def exp(self) -> "Jet":
        e0 = self.bk.exp(self.value)
        self._overflow("exp", e0)
        return self._compose(e0 * self.bk.inv_factorial[:self.order + 1])

    def sqrt(self) -> "Jet":
        u0 = self.value
        self.faults.flag(u0 <= 0.0, lambda i: DomainViolation(
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

        With two variables, a float delta that is the other variable
        shifted to value zero (every coefficient +0 but a 1 on that
        variable's monomial) is expanded without products: see
        :meth:`_placed_series`.
        """
        t = self.t
        held = self.c.any(axis=1).tolist()
        if self.nvars == 2 and self.bk is FLOAT:
            delta = deltas[1 - slot]
            if isinstance(delta, Jet) and delta.bk is FLOAT \
                    and _is_zero_shift(delta, 1 - slot):
                return self._placed_series(slot, delta, held)
        powers = {}
        series = [None] * (self.order + 1)
        for k, e in enumerate(t.exps):
            if t.degree[k] and not held[k]:
                continue
            term = self.c[k]
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

    def _placed_series(self, slot, delta, held):
        """:meth:`slot_series` of a two-variable jet whose other variable's
        delta is that variable shifted to value zero, with its bits.

        Each power delta^p of such a delta is that variable's monomial x^p
        with coefficient 1 (or zero where the delta's set does not hold
        x^p), so the term of monomial (m, p) is coefficient row k of self
        times a unit column: the row on x^p and +0 times it (a signed zero,
        or NaN) on every other row of the delta's set, the product's bits
        without its products.  The terms of each A_m are summed in the
        order and with the operations of the Jet sums, and an A_m whose
        one jet term is of degree 1 in x keeps the delta's affine tag, as
        those sums keep it."""
        t, other = self.t, 1 - slot
        # per A_m: the row of its first term (monomial (m, 0)) or None, and
        # its monomials k of degree p >= 1 in x, in the order they add
        first = [None] * (self.order + 1)
        placed = [[] for _ in first]
        for k, e in enumerate(t.exps):
            if t.degree[k] and not held[k]:
                continue
            m, p = e[slot], e[other]
            if p:
                placed[m].append((k, p))
            else:
                first[m] = self.c[k]
        flat = [kp for terms in placed for kp in terms]
        rows = delta.t.powers[other].tolist()
        units = np.zeros((len(flat), delta.t.size + 1), dtype=DTYPE)
        for n, (_, p) in enumerate(flat):
            if p <= len(rows):
                units[n, rows[p - 1]] = 1.0
        products = (units[:, :, None]
                    * self.c.take([k for k, _ in flat], axis=0)[:, None, :])
        series, start = [], 0
        for row, terms in zip(first, placed):
            if not terms:
                series.append(self.c[-1] if row is None else row)
                continue
            block = products[start:start + len(terms)]
            start += len(terms)
            if row is not None:
                block[0, 0] += row          # the row plus the first jet
            # the jets added in turn: accumulate is a left fold (a reduce
            # would start from +0)
            total = np.add.accumulate(block)[-1]
            tag = delta.affine if [p for _, p in terms] == [1] else None
            series.append(Jet(delta.t, total, delta.faults, FLOAT, tag))
        return series


def _is_zero_shift(delta, index):
    """Whether the coefficients of ``delta`` are +0 but a 1 on the monomial
    of variable ``index`` (none at order 0): its variable shifted to value
    zero, as ``Jet.variable(...) - value`` is at a finite value."""
    c = delta.c
    unit = np.zeros((c.shape[0], 1), dtype=c.dtype)
    if delta.order:
        unit[1 + index] = 1.0
    return bool((c == unit).all()) and not np.signbit(c).any()


@dataclass
class Jet4:
    """Value and symmetric partial-derivative arrays through order 4.

    For a batch every array carries a leading batch axis (``value`` has
    shape (batch,)), and ``faults`` records the points that failed.
    ``top`` is the monomial set's (see :class:`_Tables`): None for all
    monomials through ``order``, otherwise the degree-``order`` exponent
    tuples held, whose entries alone are not NaN at that degree.
    """

    value: object
    grad: np.ndarray
    hess: np.ndarray
    third: np.ndarray
    fourth: np.ndarray
    order: int = MAX_ORDER
    top: tuple | None = None
    faults: Faults | None = None

    @property
    def n(self) -> int:
        return self.grad.shape[-1]

    def point(self, i: int) -> "Jet4":
        """Point ``i`` of a batch as a single-point Jet4."""
        return Jet4(self.value.tolist()[i], self.grad[i], self.hess[i],
                    self.third[i], self.fourth[i], self.order, self.top)


def _as_jet(result, t: _Tables, size: int, faults, bk) -> Jet:
    if not isinstance(result, Jet):
        result = Jet.constant(t, result, faults, bk)
    if result.size != size:
        result = Jet(t, np.broadcast_to(result.c, (result.c.shape[0], size)),
                     faults, bk)
    return result


def jet_poly(field, x, order: int = MAX_ORDER, faults=None,
             backend=FLOAT, top=None) -> Jet:
    """Raw truncated Taylor polynomial of ``field`` around ``x``, on the
    monomial set of ``order`` and ``top`` (see :func:`_tables`).

    ``x`` is one point, or a (batch, n) array of points.  Failures are
    recorded in ``faults``, or in a new record, which the result carries.
    ``backend`` (:data:`FLOAT` or :data:`MPMATH`) holds the coefficients.
    The field runs in :func:`run_field`; a result that involves no
    coordinate becomes a constant jet, one column per point.
    """
    x = np.asarray(x, dtype=float)
    points = x.reshape(-1, x.shape[-1])
    result, faults = run_field(field, points, order, faults, backend, top)
    return _as_jet(result, _tables(points.shape[1], order, top),
                   points.shape[0], faults, backend)


def run_field(field, points, order: int = 0, faults=None, backend=FLOAT,
              top=None):
    """``field`` run on the variables of the (batch, n) array ``points``,
    jets on the monomial set of ``order`` and ``top`` (see
    :func:`_tables`): the batch run of :func:`jet_poly` and of a domain
    predicate's mask.

    Returns (result, faults): what the field returns (a Jet, a float where
    it involves no coordinate, or a predicate's truth value per point), and
    the failure record (``faults``, or a new one) that its jets carry.  A
    failure before any jet saw it (a float subexpression that involves no
    coordinate) belongs to every point of the batch: each fails with it,
    and the result is NaN.
    """
    size, n = points.shape
    faults = faults or Faults(size)
    t = _tables(n, order, top)
    args = [Jet.variable(t, i, points[:, i], faults, backend)
            for i in range(n)]
    try:
        return field(args), faults
    except GeothermoError as exc:
        faults.flag(np.ones(size, dtype=bool), lambda i: exc)
        return math.nan, faults


def jet_eval(field, x, order: int = MAX_ORDER, faults=None,
             backend=FLOAT, top=None) -> Jet4:
    """Evaluate ``field`` and its partials through ``order``.

    ``field`` is any callable accepting a sequence of Jets (or floats) and
    combining them with arithmetic and the analytic functions above.  Unused
    higher-order slots of the result are zero-filled.

    ``top`` truncates the jet to a monomial set (see :class:`_Tables`): a
    tuple of the degree-``order`` exponent tuples to keep, or None for all.
    The entries of the degree-``order`` monomials it drops are NaN, and a
    point fails with NonFinite only where a coefficient the set holds is
    not finite.

    For a single point ``x`` the result is a single-point Jet4 and a failure
    raises.  For a (batch, n) array the result carries a leading batch axis
    and a fault record (``faults``, or a new one) instead of raising.

    With the default ``backend`` the derivatives are float64; with
    :data:`MPMATH` they are mpmath numbers in object arrays.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}, got {order}")
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return one_point(_jet_batch(field, x[None], order, faults, backend,
                                    top))
    return _jet_batch(field, x, order, faults, backend, top)


def _jet_batch(field, x, order, faults, backend, top) -> Jet4:
    points = x.reshape(-1, x.shape[-1])
    faults = Faults(len(points)) if faults is None else faults
    with np.errstate(all="ignore"):
        derivs = jet_partials(field, points, order, faults, backend, top)
    return _jet4(_tables(points.shape[1], order, top), derivs, faults)


def jet_partials(field, points, order: int, faults, backend=FLOAT,
                 top=None):
    """The partials of ``field`` through ``order`` at the rows of the
    (batch, n) array ``points``, as :func:`jet_eval` takes them, before its
    scatter into tensors: a (batch, size + 1) array with one column per
    monomial of the set of ``order`` and ``top`` (see
    :func:`monomial_number`), then the NaN that the entries of the
    monomials the set drops read.  A point where a column the set holds is
    not finite fails with NonFinite in ``faults``, the batch's record.
    Call under ``np.errstate(all="ignore")``."""
    t = _tables(points.shape[1], order, top)
    jet = jet_poly(field, points, order, faults, backend, top)
    derivs = (jet.c * t.weights).T.astype(backend.result_dtype)
    finite = backend.isfinite(derivs[:, :-1])
    faults.flag(~finite.all(axis=1), lambda i: NonFinite(
        _coefficient_message(t, finite[i])))
    return derivs


def monomial_number(exps) -> int:
    """The number of the monomial with exponent tuple ``exps`` (one
    exponent per variable) in every set that holds it: its column in
    :func:`jet_partials` and its row in a Jet's coefficients."""
    return _tables(len(exps), sum(exps)).exps.index(tuple(exps))


def _jet4(t: _Tables, derivs, faults) -> Jet4:
    """The Jet4 of the monomial set ``t`` from its partials ``derivs``, a
    (batch, t.size + 1) array: one column per monomial of the set, then
    the NaN that the entries of the monomials the set drops read.  The
    tensors of degree above the set's order are zero."""
    size, n = len(derivs), t.nvars
    value = derivs[:, 0].copy()
    entries = derivs.take(t.tensor_index, axis=1)
    tensors, start = [], 0
    for d in range(1, MAX_ORDER + 1):
        shape = (size,) + (n,) * d
        if d > t.order:
            tensors.append(np.zeros(shape, dtype=derivs.dtype))
            continue
        stop = start + n ** d
        tensors.append(entries[:, start:stop].reshape(shape))
        start = stop
    return Jet4(value, *tensors, order=t.order, top=t.top, faults=faults)


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


# the fourth-order central first difference
# (f(x - 2h) - 8 f(x - h) + 8 f(x + h) - f(x + 2h)) / (12 h): its nodes'
# offsets in units of h
_STENCIL = np.array([-2.0, -1.0, 1.0, 2.0])


def fd_jet4(field, points) -> Jet4:
    """Every partial through order 4 at each row of the (batch, n) array
    ``points`` (one point is a batch of one) by nested central differences
    on the field's float path, sharing no code with the jet propagation.

    An order-k partial along the axes a_1 <= ... <= a_k nests the stencil
    of :data:`_STENCIL` once per axis, with the step
    h_a = eps^(1/(k+4)) * max(1, |x_a|) along axis a: the stencil is
    fourth-order accurate, so this balances its h^4 truncation against
    round-off.  Its 4^k nodes are built as arrays (see :func:`_stencil`),
    and its differences are reduced axis by axis from the last, so each
    entry has the bits of the recursion over the axes.  Stencil order runs
    point by point, and within a point monomial by monomial as
    :class:`_Tables` numbers them (the point itself first).  Every distinct
    node, keyed by its bits (-0.0 apart from 0.0), is evaluated once per
    call, in that order, and the first that fails raises its failure; a
    non-finite entry raises NonFinite.  The entries go through the same
    scatter as a jet's (:func:`_jet4`).
    """
    x = np.array(points, dtype=float, ndmin=2)
    t = _tables(x.shape[1], MAX_ORDER)
    # the step of an order-k partial along axis a at row i: steps[k, i, a]
    steps = np.array([EPS ** (1.0 / (k + 4)) for k in range(MAX_ORDER + 1)]
                     )[:, None, None] * np.maximum(1.0, np.abs(x))
    with np.errstate(all="ignore"):
        derivs = _nested_differences(_values_once(field, np.concatenate(
            [_stencil(x, e, steps) for e in t.exps], axis=1)), t.exps, steps)
    if not np.isfinite(derivs).all():
        raise NonFinite("finite-difference estimate is not finite")
    return _jet4(t, np.column_stack(derivs + [np.full(len(x), math.nan)]),
                 Faults(len(x)))


def _stencil(x, exps, steps):
    """The 4^k nodes of the nested stencil of the order-k monomial ``exps``
    at each row of ``x``: a (batch, 4^k, n) array, the offsets along the
    first axis outermost.  Each level adds its offsets to the coordinates
    the levels before it left, as a recursion over the axes adds them."""
    nodes = x[:, None]
    for a in np.repeat(range(len(exps)), exps):     # the axes, sorted
        nodes = np.repeat(nodes[:, :, None], 4, axis=2)
        nodes[..., a] += _STENCIL * steps[sum(exps), :, a, None, None]
        nodes = nodes.reshape(len(x), -1, x.shape[1])
    return nodes


def _values_once(field, nodes):
    """``field`` on its float path at each node of the (batch, count, n)
    array ``nodes``, a (batch, count) array.  Each distinct node, keyed by
    its bits (-0.0 apart from 0.0), is evaluated once, in first-occurrence
    order, and the first that fails raises its failure.

    A field whose float path is an order-0 jet evaluation of a batch of one
    (it sets ``float_batch``, as a Newton-derived field does) evaluates
    every distinct node in one order-0 batch instead, with the same bits:
    a point decides from its own values alone."""
    number = {}
    inverse = [number.setdefault(bits, len(number)) for bits in nodes.view(
        np.dtype((np.void, 8 * nodes.shape[-1]))).ravel().tolist()]
    if getattr(field, "float_batch", False):
        batch = jet_eval(field, np.frombuffer(b"".join(number)).reshape(
            len(number), nodes.shape[-1]), 0)
        error = batch.faults.pop_first()
        if error is not None:
            # a raised failure keeps this frame alive, but not the stencils
            del nodes, number, inverse, batch
            raise error
        values = batch.value
    else:
        values = []
        try:
            for bits in number:
                values.append(float(field(np.frombuffer(bits).tolist())))
        except GeothermoError:
            del nodes, number, inverse, values
            raise
    return np.asarray(values)[inverse].reshape(nodes.shape[:-1])


def _nested_differences(values, exps, steps):
    """The partials of the (batch, count) node values of the stencils of
    the monomials ``exps`` in turn, each in :func:`_stencil`'s order and
    reduced axis by axis from the last: one (batch,) array per monomial."""
    out = []
    for e, d in zip(exps, np.split(values, np.cumsum(
            [4 ** sum(e) for e in exps])[:-1], axis=1)):
        for a in np.repeat(range(len(e)), e)[::-1]:
            d = d.reshape(len(d), -1, 4)
            d = (d[..., 0] - 8.0 * d[..., 1] + 8.0 * d[..., 2]
                 - d[..., 3]) / (12.0 * steps[sum(e), :, a, None])
        out.append(d[:, 0])
    return out
