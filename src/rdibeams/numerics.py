"""Finite-difference stencils, quadrature and ODE stepping shared by the
inversion and verification layers.

The default derivative stencil is 4th-order central with step h = 1e-3 in
natural units; Richardson (h, h/2) pairs supply the error estimate the
inversion contract requires.  Fields are differentiated in `gradient4`, once
per point: the divergence, curl and Dirac operators are then read off the
one 4-gradient instead of re-running the stencil per component.
"""
from __future__ import annotations

import numpy as np

DEFAULT_STEP = 1e-3

# f'(x) ~ (-f(x+2h) + 8 f(x+h) - 8 f(x-h) + f(x-2h)) / (12 h)
_OFFSETS = (2.0, 1.0, -1.0, -2.0)
_WEIGHTS = (-1.0, 8.0, -8.0, 1.0)


def deriv4(fn, x, h=DEFAULT_STEP):
    """4th-order central derivative of a scalar/array-valued fn of one real."""
    acc = None
    for o, w in zip(_OFFSETS, _WEIGHTS):
        val = np.asarray(fn(x + o * h), dtype=complex) * w
        acc = val if acc is None else acc + val
    return acc / (12.0 * h)


def partial4(fn, point, mu, h=DEFAULT_STEP):
    """4th-order central partial of fn(t, x, y, z) along coordinate mu."""
    point = list(point)

    def slice_fn(s):
        q = list(point)
        q[mu] = s
        return fn(*q)

    return deriv4(slice_fn, point[mu], h)


def gradient4(fn, point, h=DEFAULT_STEP):
    """All four partials of fn(t, x, y, z), stacked: g[mu] = d_mu fn, the
    time row in d/dt (not d/d(ct))."""
    return np.stack([partial4(fn, point, mu, h) for mu in range(4)])


def divergence4(fn, point, h=DEFAULT_STEP, c=1.0):
    """d_mu F^mu = d_t F^0 / c + div F of a real 4-vector field F."""
    g = gradient4(fn, point, h).real
    return g[0, 0] / c + g[1, 1] + g[2, 2] + g[3, 3]


def spatial_divergence(g):
    """div F from the 4-gradient g[mu, k] = d_mu F_k of a 3-vector field."""
    return g[1, 0] + g[2, 1] + g[3, 2]


def spatial_curl(g):
    """curl F from the 4-gradient g[mu, k] = d_mu F_k of a 3-vector field."""
    return np.array([
        g[2, 2] - g[3, 1],
        g[3, 0] - g[1, 2],
        g[1, 1] - g[2, 0],
    ])


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def adaptive_simpson(fn, a, b, tol=1e-10, max_depth=48):
    """Classic adaptive Simpson on [a, b]."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = fn(lm), fn(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth - 1)
                + recurse(mid, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1))

    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


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
