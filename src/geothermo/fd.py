"""The independent finite-difference oracle: :func:`fd_jet4`.

Every partial through order 4 at each point of a batch by nested central
finite differences on the field's float path, sharing no code with the jet
propagation.  An order-k partial along axis a steps
h_a = eps^(1/(k+4)) * max(1, |x_a|); its 4^k stencil nodes are built as
arrays, every distinct node of the call is evaluated once (as one order-0
batch for a field whose float path is a batch of one, such as a
Newton-derived one), and the differences are reduced axis by axis with the
bits of the recursion over the axes.  The same scatter as a jet's
(:func:`jets._jet4`) makes its Jet4.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import GeothermoError, NonFinite
from .jets import MAX_ORDER, Faults, Jet4, _jet4, _tables, jet_eval

EPS = sys.float_info.epsilon

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
        nodes = nodes.reshape(len(x), 4 * nodes.shape[1], x.shape[1])
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
            d = d.reshape(len(d), d.shape[1] // 4, 4)
            d = (d[..., 0] - 8.0 * d[..., 1] + 8.0 * d[..., 2]
                 - d[..., 3]) / (12.0 * steps[sum(e), :, a, None])
        out.append(d[:, 0])
    return out
