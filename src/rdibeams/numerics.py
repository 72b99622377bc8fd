"""Finite-difference stencils and ODE stepping shared by the inversion and
verification layers.

The default derivative stencil is 4th-order central with step h = 1e-3 in
natural units; Richardson (h, h/2) pairs supply the error estimate the
inversion contract requires.  Fields are differentiated in `gradient4`, once
per point: the divergence, curl and Dirac operators are then read off the
one 4-gradient instead of re-running the stencil per component.

The stencils take a batch of points, point[..., 4], and call the field once
per `partial4`, on the four stencil points of every point of the batch and
of every axis asked for (fields take t, x, y, z as floats or arrays and
return components trailing); `gradient4` is one such call on all 16.

`rk4_path` is the other way round: each step depends on the one before, so
it holds its state as Python floats and hands the right-hand side a tuple
of floats, one point at a time, and builds the path array once, at the end.
"""
from __future__ import annotations

from array import array

import numpy as np

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
    return fn(*np.moveaxis(np.asarray(point, dtype=float), -1, 0))


def deriv4(fn, x, h=DEFAULT_STEP):
    """4th-order central derivative of a scalar/array-valued fn of one real,
    at a float or an array x.  fn is called once, on the four stencil
    arguments stacked along a new leading axis."""
    x = np.asarray(x, dtype=float)
    return _combine(fn(x + (_OFFSETS * h).reshape((4,) + (1,) * x.ndim)), h)


def partial4(fn, point, mu, h=DEFAULT_STEP):
    """4th-order central partial of fn(t, x, y, z) along coordinate mu at
    point[..., 4]; for a tuple of coordinates mu, the partial along each,
    stacked on a new leading axis.  fn is called once, on the four stencil
    points of every axis and every point of the batch, and returns values
    with components trailing."""
    point = np.asarray(point, dtype=float)
    axes = mu if isinstance(mu, tuple) else (mu,)
    stencil = np.empty((len(axes), 4) + point.shape)
    stencil[...] = point
    offsets = (_OFFSETS * h).reshape((4,) + (1,) * (point.ndim - 1))
    for i, axis in enumerate(axes):
        stencil[i, ..., axis] += offsets
    d = _combine(np.moveaxis(at(fn, stencil), 1, 0), h)
    return d if isinstance(mu, tuple) else d[0]


def gradient4(fn, point, h=DEFAULT_STEP):
    """All four partials of fn(t, x, y, z) at point[..., 4], stacked after
    the batch axes: g[..., mu, :] = d_mu fn, the time row in d/dt (not
    d/d(ct)).  One `partial4` call, so fn is called once, on all 16
    stencil points of every point."""
    return np.moveaxis(partial4(fn, point, (0, 1, 2, 3), h), 0,
                       np.ndim(point) - 1)


def divergence4(fn, point, h=DEFAULT_STEP, c=1.0):
    """d_mu F^mu = d_t F^0 / c + div F of a real 4-vector field F."""
    g = gradient4(fn, point, h).real
    return g[..., 0, 0] / c + g[..., 1, 1] + g[..., 2, 2] + g[..., 3, 3]


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
    so a right-hand side that evaluates one point takes the `mathops.FLOATS`
    path of the closed forms.  rhs returns dim floats, as a tuple, a list or
    a numpy array.  Each component is stepped as x + (h/2) k for the stages
    and x + (h/6)(k1 + 2 k2 + 2 k3 + k4) for the step, in that order."""
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
