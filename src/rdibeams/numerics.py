"""Finite-difference stencils and ODE stepping shared by the inversion and
verification layers.

The default derivative stencil is 4th-order central with step h = 1e-3 in
natural units; Richardson (h, h/2) pairs supply the error estimate the
inversion contract requires.  Fields are differentiated in `gradient4`, once
per point: the divergence, curl and Dirac operators are then read off the
one 4-gradient instead of re-running the stencil per component.

The stencils take a batch of points, point[..., 4], and call the field once
per `partial4`, on the four stencil points of every point of the batch and
of every axis asked for, all on one axis after the batch axes (fields take
t, x, y, z as arrays and return components trailing); `gradient4` is one
such call on all 16.  Its two halves are public: `stencil_points` builds
the points and `gradient_from_stencil` combines the field's values there.
`sample` evaluates a field at a batch of points and on their 16 stencil
points in one call, so that several readers share one evaluation: the
field at the points, its 4-gradient and the 4-gradient of a map of it, for
all points or a slice of them (`StencilSample`).

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


def stencil_points(point, h=DEFAULT_STEP, axes=(0, 1, 2, 3)):
    """The stencil of each of the k coordinates `axes` at point[..., 4], on
    one axis after the batch axes, shaped (*batch, 4k, 4): rows 4i .. 4i+3
    move coordinate axes[i] by 2h, h, -h, -2h."""
    point = np.asarray(point, dtype=float)
    pts = np.empty(point.shape[:-1] + (4 * len(axes), 4))
    pts[...] = point[..., None, :]
    for i, axis in enumerate(axes):
        pts[..., 4 * i:4 * i + 4, axis] += _OFFSETS * h
    return pts


def _partials(vals, axis, h):
    # d[i, *batch, ...] along the k coordinates of a stencil, from a field's
    # values on its points, vals[*batch, 4k, ...], the stencil on `axis`
    vals = vals.reshape(vals.shape[:axis] + (vals.shape[axis] // 4, 4)
                        + vals.shape[axis + 1:])
    return _combine(vals.transpose(axis + 1, axis, *range(axis),
                                   *range(axis + 2, vals.ndim)), h)


def _to_axis(d, axis):
    # d[i, ...] with its leading axis moved to `axis`
    return d.transpose(*range(1, axis + 1), 0, *range(axis + 1, d.ndim))


def gradient_from_stencil(vals, axis, h=DEFAULT_STEP):
    """The 4-gradient of `gradient4`, g[..., mu, :], from a field's values
    on stencil_points(point, h), vals[*batch, 16, ...], whose stencil axis
    `axis` is the number of batch axes."""
    return _to_axis(_partials(vals, axis, h), axis)


def partial4(fn, point, mu, h=DEFAULT_STEP):
    """4th-order central partial of fn(t, x, y, z) along coordinate mu at
    point[..., 4]; for a tuple of coordinates mu, the partial along each,
    stacked on a new leading axis.  fn is called once, on the four stencil
    points of each of k axes at every point, shaped (*batch, 4k), and
    returns values with components trailing: for k >= 2 a per-point factor
    that forgot [..., None] does not broadcast against psi[..., 4] but
    raises."""
    axes = mu if isinstance(mu, tuple) else (mu,)
    d = _partials(at(fn, stencil_points(point, h, axes)), np.ndim(point) - 1,
                  h)
    return d if isinstance(mu, tuple) else d[0]


def gradient4(fn, point, h=DEFAULT_STEP):
    """All four partials of fn(t, x, y, z) at point[..., 4], stacked after
    the batch axes: g[..., mu, :] = d_mu fn, the time row in d/dt (not
    d/d(ct)).  One `partial4` call, so fn is called once, on all 16
    `stencil_points` of every point; `gradient_from_stencil` is the same
    combination of values already evaluated there."""
    return _to_axis(partial4(fn, point, (0, 1, 2, 3), h), np.ndim(point) - 1)


@dataclass(frozen=True)
class StencilSample:
    """A field's values at point[*batch, 4] and on its 16 stencil points,
    from one call (`sample`): values[*batch, 17, k], row 0 at the point.
    Indexing selects points of the batch."""

    values: Array
    h: float

    @property
    def at_points(self) -> Array:
        """The field at the points, [*batch, k]."""
        return self.values[..., 0, :]

    def gradient(self, of=None) -> Array:
        """`gradient4` at the points of the field, or of of(field) for a map
        `of` of its trailing component axis: [*batch, 4, k]."""
        vals = self.values[..., 1:, :]
        return gradient_from_stencil(vals if of is None else of(vals),
                                     self.values.ndim - 2, self.h)

    def __getitem__(self, index) -> StencilSample:
        return StencilSample(self.values[index], self.h)


def sample(fn, point, h=DEFAULT_STEP) -> StencilSample:
    """fn(t, x, y, z), with one trailing component axis, at point[..., 4]
    and on its 16 stencil points of step h, in one call."""
    point = np.asarray(point, dtype=float)
    return StencilSample(at(fn, np.concatenate(
        [point[..., None, :], stencil_points(point, h)], axis=-2)), h)


def divergence4(fn, point, h=DEFAULT_STEP):
    """d_mu F^mu = d_t F^0 + div F of a real 4-vector field F."""
    return divergence(gradient4(fn, point, h))


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
    state.  rhs returns dim floats, as a tuple, a list or a numpy array.
    Each component is stepped as x + (h/2) k for the stages and
    x + (h/6)(k1 + 2 k2 + 2 k3 + k4) for the step, in that order."""
    def slope(q):
        k = rhs(q)
        return k.tolist() if isinstance(k, np.ndarray) else k

    x = tuple(np.asarray(x0, dtype=float).tolist())
    h = float(s_total) / steps
    half, sixth = 0.5 * h, h / 6.0
    path = array("d", x)  # the path's floats, row after row
    for _ in range(steps):
        k1 = slope(x)
        k2 = slope(tuple([a + half * k for a, k in zip(x, k1)]))
        k3 = slope(tuple([a + half * k for a, k in zip(x, k2)]))
        k4 = slope(tuple([a + h * k for a, k in zip(x, k3)]))
        x = tuple([a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                   for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])
        path.extend(x)
    return np.frombuffer(path).reshape(steps + 1, len(x))
