"""Independent reference routines the tests check the library against."""
import numpy as np

from rdibeams import spinors, sta


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


class NonVectorResult(ValueError):
    """A sandwich product left residual weight outside the vector grade."""


def to_vector(a, tol=1e-8):
    """Project a 4x4 matrix onto its vector grade by trace projection,
    a^mu = Tr(a gamma^mu) / 4; error out if anything else carries more
    than `tol` relative weight."""
    comps = np.array([np.trace(a @ g).real / 4.0 for g in sta.GAMMA_UP])
    resid = np.max(np.abs(a - sta.from_vector(comps)))
    if resid > tol * max(np.max(np.abs(a)), 1.0):
        raise NonVectorResult(f"non-vector residual {resid:.3e}")
    return comps


def rk4_path(rhs, x0, s_total, steps):
    """Fixed-step RK4 of dx/ds = rhs(x) with the state a numpy array: the
    reference for the float-state `numerics.rk4_path`."""
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


def bilinear_current(psi):
    """J^mu read off the full bilinear contraction: the reference for the
    written-out `spinors.current`."""
    return spinors.bilinears(psi).current
