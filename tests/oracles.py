"""Independent reference routines the tests check the library against,
and the helpers only the tests use."""
import numpy as np

from rdibeams import specialfn as sf
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


# ---------------------------------------------------------------------------
# the trace-projection basis
# ---------------------------------------------------------------------------


def gamma_basis() -> dict:
    """The basis bundle: the four gamma_mu, the 16 trace-projection
    elements, gamma5, the alpha_k, and the pseudoscalar (17 distinct
    matrices in total)."""
    return {
        "gamma": sta.GAMMA,
        "gamma_up": sta.GAMMA_UP,
        "Gamma": sta.GAMMA16,
        "gamma5": sta.GAMMA5,
        "alpha": sta.ALPHA,
        "pseudoscalar": sta.PSEUDO,
    }


def trace_project(a, k: int) -> complex:
    """Coefficient functional Tr[A Gamma_k] / 4 for k in 1..16."""
    if not 1 <= k <= 16:
        raise IndexError(f"basis index {k} outside 1..16")
    return complex(np.trace(a @ sta.GAMMA16[k - 1])) / 4.0


def reconstruct(a):
    """Rebuild A from its 16 trace projections (sign-dual expansion: each
    Gamma_k squares to +I or -I)."""
    out = np.zeros((4, 4), dtype=complex)
    for g in sta.GAMMA16:
        square = np.trace(g @ g).real / 4.0
        out += (np.trace(a @ g) / 4.0 / square) * g
    return out


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def bessel_j_deriv(nu: int, x: float) -> float:
    """d/dx J_nu(x) via the two-sided recurrence."""
    if x == 0.0:
        if nu == 1:
            return 0.5
        return 0.0
    vals = sf.bessel_j_all(nu + 1, x)
    lower = vals[nu - 1] if nu >= 1 else -vals[1]
    return 0.5 * (lower - vals[nu + 1])


def hyp1f1_poly(n: int, b: float, x: float) -> float:
    """1F1(-n; b; x) evaluated as the terminating sum."""
    if n < 0:
        raise sf.DomainError("negative n")
    total = 1.0
    term = 1.0
    for k in range(n):
        denom = b + k
        if denom == 0.0:
            raise sf.DomainError(f"1F1 pole: b = {b} hits a non-positive "
                                 f"integer")
        term *= (-(n - k)) * x / (denom * (k + 1))
        total += term
    return total


def tricomi_u_poly(n: int, b: float, x: float) -> float:
    """Tricomi U(-n, b, x) for terminating (polynomial) parameters.

    Evaluated by the contiguous recurrence in the first parameter, with the
    negative-degree cases U(0,b,x) = 1 and U(-1,b,x) = x - b as anchors.
    """
    if n < 0 or n != int(n):
        raise sf.DomainError("first argument must be -n with integer n >= 0")
    n = int(n)
    if n == 0:
        return 1.0
    um = 1.0          # U(0, b, x)
    uc = x - b        # U(-1, b, x)
    a = -1.0
    for _ in range(n - 1):
        # U(a-1) = (x + 2a - b) U(a) - a (a - b + 1) U(a+1)
        um, uc = uc, (x + 2.0 * a - b) * uc - a * (a - b + 1.0) * um
        a -= 1.0
    return uc
