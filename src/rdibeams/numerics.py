"""Finite-difference stencils and ODE stepping shared by the inversion and
verification layers.

The default derivative stencil is 4th-order central with step h = 1e-3 in
natural units; Richardson (h, h/2) pairs supply the error estimate the
inversion contract requires.  Fields are differentiated in `gradient4`, once
per point: the divergence, curl and Dirac operators are then read off the
one 4-gradient instead of re-running the stencil per component.

The stencils take a batch of points, point[..., 4], and call the field once
per `partial4`, on the four stencil points of every point of the batch
(fields take t, x, y, z as floats or arrays and return components
trailing).  `gradient4` stays four such calls rather than one on all 16
stencil points, which keeps the peak batch, and the memory it holds, four
times smaller.
"""
from __future__ import annotations

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
    point[..., 4].  fn is called once, on the four stencil points of every
    point of the batch, and returns values with components trailing."""
    point = np.asarray(point, dtype=float)
    stencil = np.repeat(point[None], 4, axis=0)
    stencil[..., mu] += (_OFFSETS * h).reshape((4,) + (1,) * (point.ndim - 1))
    return _combine(at(fn, stencil), h)


def gradient4(fn, point, h=DEFAULT_STEP):
    """All four partials of fn(t, x, y, z) at point[..., 4], stacked after
    the batch axes: g[..., mu, :] = d_mu fn, the time row in d/dt (not
    d/d(ct))."""
    return np.stack([partial4(fn, point, mu, h) for mu in range(4)],
                    axis=np.ndim(point) - 1)


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
    """Fixed-step RK4 integration of dx/ds = rhs(x); returns (steps+1, dim)."""
    x = np.array(x0, dtype=float)
    h = s_total / steps
    out = np.empty((steps + 1, x.size))
    out[0] = x
    for i in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = x
    return out
