"""Finite-difference stencils, quadrature and ODE stepping shared by the
inversion and verification layers.

The default derivative stencil is 4th-order central with step h = 1e-3 in
natural units; Richardson (h, h/2) pairs supply the error estimate the
inversion contract requires.
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


def spatial_divergence(vec_fn, point, h=DEFAULT_STEP):
    """div F of a 3-vector field F(t,x,y,z) at fixed time."""
    return sum(
        partial4(lambda *q, k=k: vec_fn(*q)[k], point, k + 1, h).real
        for k in range(3)
    )


def spatial_curl(vec_fn, point, h=DEFAULT_STEP):
    """curl F of a 3-vector field F(t,x,y,z) at fixed time."""
    d = [
        [partial4(lambda *q, k=k: vec_fn(*q)[k], point, j + 1, h).real
         for k in range(3)]
        for j in range(3)
    ]  # d[j][k] = d_j F_k
    return np.array([
        d[1][2] - d[2][1],
        d[2][0] - d[0][2],
        d[0][1] - d[1][0],
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
