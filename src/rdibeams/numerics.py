"""Finite-difference stencils and ODE stepping shared by the inversion and
verification layers.

The default derivative stencil is 4th-order central with step h = 1e-3 in
natural units; Richardson (h, h/2) pairs supply the error estimate the
inversion contract requires.  Fields are differentiated in `gradient4`, once
per point: the divergence, curl and Dirac operators are then read off the
one 4-gradient instead of re-running the stencil per component.

The stencils take a batch of points, point[..., 4], and call the field once
per `partial4`, on the 16 stencil points of every point of the batch (four
per coordinate), all on one axis after the batch axes (fields take t, x, y,
z as arrays and return components trailing); `gradient4` is that call, on
the points of `stencil_points`.
`sample` evaluates a field at a batch of points and on the 16 stencil
points of several (points, step) requests in one call, so that several
readers share one evaluation: the field at the points, and per request its
4-gradient and the 4-gradient of a map of it, for all its points or a slice
of them (`StencilSample`).  The verify suite evaluates each closed form of a
spec this way, once, over the union of what its checks read, and a
standalone `inversion.invert` samples its field this way, once, at steps h
and h/2.  The maxwell row's `gradient4` is the one library caller of the
stencils outside `sample`.

`rk4_path` is the other way round: each step depends on the one before, so
it holds its state as Python floats and hands the right-hand side a tuple
of floats, one point at a time, and builds the path array once, at the end.
Its one right-hand side in the library is `verify.streamline_current`, the
closed-form current, which reads the profile on two floats.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

Array = np.ndarray

DEFAULT_STEP = 1e-3

# f'(x) ~ (-f(x+2h) + 8 f(x+h) - 8 f(x-h) + f(x-2h)) / (12 h)
_OFFSETS = np.array([2.0, 1.0, -1.0, -2.0])
_WEIGHTS = (-1.0, 8.0, -8.0, 1.0)
# row 4 mu + i moves coordinate mu by _OFFSETS[i] steps, and every other
# coordinate by -0.0, which keeps its bits (a -0.0 coordinate's too)
_MOVES = np.kron(np.eye(4), _OFFSETS[:, None])
_MOVES[_MOVES == 0.0] = -0.0


def _combine(vals, h):
    # the stencil's weighted sum over the leading axis, in a fixed order
    vals = np.asarray(vals, dtype=complex)
    acc = vals[0] * _WEIGHTS[0]
    for k in range(1, 4):
        acc = acc + vals[k] * _WEIGHTS[k]
    return acc / (12.0 * h)


def at(fn, point):
    """fn(t, x, y, z) at point[..., 4]: called with floats for one point,
    with arrays over the leading axes for a batch."""
    point = np.asarray(point, dtype=float)
    return fn(*point.transpose(-1, *range(point.ndim - 1)))


def stencil_points(point, h=DEFAULT_STEP):
    """The 16 stencil points of point[..., 4], on one axis after the batch
    axes, shaped (*batch, 16, 4): rows 4 mu .. 4 mu + 3 move coordinate mu
    by 2h, h, -h, -2h."""
    point = np.asarray(point, dtype=float)
    return point[..., None, :] + _MOVES * h


def _partials(vals, axis, h):
    # d[mu, *batch, ...] from a field's values on the stencil points,
    # vals[*batch, 16, ...], the stencil on `axis`
    vals = vals.reshape(vals.shape[:axis] + (4, 4) + vals.shape[axis + 1:])
    return _combine(vals.transpose(axis + 1, axis, *range(axis),
                                   *range(axis + 2, vals.ndim)), h)


def _to_axis(d, axis):
    # d[i, ...] with its leading axis moved to `axis`
    return d.transpose(*range(1, axis + 1), 0, *range(axis + 1, d.ndim))


def partial4(fn, point, *, h=DEFAULT_STEP):
    """The four 4th-order central partials of fn(t, x, y, z) at
    point[..., 4], d[mu, ...] = d_mu fn.  fn is called once, on the 16
    `stencil_points` of every point, shaped (*batch, 16), and returns
    values with components trailing: a per-point factor that forgot
    [..., None] does not broadcast against psi[..., 4] but raises."""
    return _partials(at(fn, stencil_points(point, h)), np.ndim(point) - 1, h)


def gradient4(fn, point, h=DEFAULT_STEP):
    """All four partials of fn(t, x, y, z) at point[..., 4], stacked after
    the batch axes: g[..., mu, :] = d_mu fn, the time row in d/dt (not
    d/d(ct)).  One `partial4` call, so fn is called once, on all 16
    `stencil_points` of every point; `StencilSample.gradient` is the same
    combination of values already evaluated there."""
    return _to_axis(partial4(fn, point, h=h), np.ndim(point) - 1)


@dataclass(frozen=True)
class StencilSample:
    """A field's values at point[*batch, 4] and on its 16 stencil points of
    step h, from one call (`sample`): at_points[*batch, k] and
    stencil[*batch, 16, k].  Indexing selects points of the batch."""

    at_points: Array
    stencil: Array
    h: float

    def gradient(self, of=None) -> Array:
        """`gradient4` at the points of the field, or of of(field) for a map
        `of` of its trailing component axis: [*batch, 4, k]."""
        vals = self.stencil if of is None else of(self.stencil)
        axis = self.stencil.ndim - 2
        return _to_axis(_partials(vals, axis, self.h), axis)

    def __getitem__(self, index) -> StencilSample:
        return StencilSample(self.at_points[index], self.stencil[index], self.h)


def sample(fn, point, steps) -> tuple[Array, list[StencilSample]]:
    """fn(t, x, y, z), with one trailing component axis, at point[..., 4]
    and, for each (index, h) of `steps`, on the 16 stencil points of step h
    of point[index] (index ... for every point), all in one call: the
    values at the points, and one StencilSample per step, over
    point[index]."""
    point = np.asarray(point, dtype=float)
    stencils = [stencil_points(point[index], h) for index, h in steps]
    values = at(fn, np.concatenate(
        [point.reshape(-1, 4), *(s.reshape(-1, 4) for s in stencils)]))
    start = point.size // 4
    at_points = values[:start].reshape(point.shape[:-1] + values.shape[1:])
    out = []
    for (index, h), pts in zip(steps, stencils):
        stop = start + pts.size // 4
        out.append(StencilSample(at_points[index], values[start:stop].reshape(
            pts.shape[:-1] + values.shape[1:]), h))
        start = stop
    return at_points, out


def divergence(g):
    """d_t F^0 + div F from the 4-gradient g[..., mu, nu] = d_mu F^nu of a
    real 4-vector field F."""
    g = g.real
    return g[..., 0, 0] + g[..., 1, 1] + g[..., 2, 2] + g[..., 3, 3]


def spatial_divergence(g):
    """div F from the 4-gradient g[..., mu, k] = d_mu F_k of a 3-vector
    field."""
    return g[..., 1, 0] + g[..., 2, 1] + g[..., 3, 2]


def spatial_curl(g):
    """curl F from the 4-gradient g[..., mu, k] = d_mu F_k of a 3-vector
    field."""
    return np.stack([
        g[..., 2, 2] - g[..., 3, 1],
        g[..., 3, 0] - g[..., 1, 2],
        g[..., 1, 1] - g[..., 2, 0],
    ], axis=-1)


def rk4_path(rhs, x0, s_total, steps):
    """Fixed-step RK4 integration of dx/ds = rhs(x) from the point x0[dim];
    returns the path, (steps+1, dim).

    The state is held as Python floats and rhs is handed a tuple of floats,
    so a right-hand side that evaluates one point pays no numpy call for the
    state.  rhs returns dim floats, as any sequence: a numpy array's
    elements step to the same bits.  Each component is stepped as
    x + (h/2) k for the stages and x + (h/6)(k1 + 2 k2 + 2 k3 + k4) for the
    step, in that order."""
    x = tuple(np.asarray(x0, dtype=float).tolist())
    h = float(s_total) / steps
    half, sixth = 0.5 * h, h / 6.0
    path = array("d", x)  # the path's floats, row after row
    for _ in range(steps):
        k1 = rhs(x)
        k2 = rhs(tuple([a + half * k for a, k in zip(x, k1)]))
        k3 = rhs(tuple([a + half * k for a, k in zip(x, k2)]))
        k4 = rhs(tuple([a + h * k for a, k in zip(x, k3)]))
        x = tuple([a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                   for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])
        path.extend(x)
    return np.frombuffer(path).reshape(steps + 1, len(x))
