"""Self-contained special functions used by the solution catalog.

Integer-order Bessel J by Miller's downward recurrence (power series below
x = 2), for a float or a whole array of arguments at once; generalized
Laguerre polynomials and the terminating confluent hypergeometric functions
by stable three-term recurrences, which take arrays as they are.  No
external special-function dependency.
"""
from __future__ import annotations

import math

import numpy as np

from . import mathops

# documented validity window for bessel_j
BESSEL_MAX_ORDER = 200
BESSEL_MAX_ARG = 1.0e4


class DomainError(ValueError):
    """Argument outside a function's documented validity window."""


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Bessel J of integer order
# ---------------------------------------------------------------------------


def _bessel_series(nu: int, x, ops):
    # ascending series, stable for small arguments (x > 0)
    lead = ops.exp(nu * ops.log(x / 2.0) - math.lgamma(nu + 1))
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 60):
        term = term * (-q / (k * (nu + k)))
        total = total + term
        # a float comparison gives a bool, tested without a call; once every
        # element is below half an ulp of its total, later terms leave it be
        small = abs(term) < 1e-18 * abs(total) + 1e-300
        if small is not False and (small is True or small.all()):
            break
    return lead * total


def _miller_all(nmax: int, x, ops) -> list:
    # downward recurrence from well above the turning point, normalized by
    # J0 + 2*sum J_{2k} = 1; one start index for the whole batch, from its
    # largest argument, and a rescale wherever an element nears overflow
    top = max(nmax, float(ops.max(x)))
    start = int(top + 15.0 * top ** (1.0 / 3.0) + 20)
    start += start % 2  # even start keeps the normalization sum aligned
    jp = 0.0
    jc = 1e-300
    out = [0.0] * (nmax + 1)
    norm = 0.0
    for k in range(start, 0, -1):
        jm = (2.0 * k / x) * jc - jp
        jp = jc
        jc = jm
        over = abs(jc) > 1e250
        # rescale to dodge overflow; a float comparison gives a bool, tested
        # without a call
        if over is not False and (over is True or over.any()):
            scale = ops.where(over, 1e-250, 1.0)
            jc = jc * scale
            jp = jp * scale
            norm = norm * scale
            out = [v * scale for v in out]
        if (k - 1) <= nmax:
            out[k - 1] = jc
        if (k - 1) % 2 == 0:
            norm = norm + 2.0 * jc
    norm = norm - jc  # J0 counted once
    return [v / norm for v in out]


def bessel_j_all(nmax: int, x):
    """J_0(x) .. J_nmax(x) in one pass, for x >= 0 a float or an array.

    Indexed by order first: a list of floats for a float x, an array of
    shape (nmax + 1, *x.shape) for an array x.  Elements with x < 2 take the
    ascending series, the rest one shared Miller recurrence.
    """
    ops = mathops.of(x)
    if nmax < 0:
        raise DomainError("negative order")
    if nmax > BESSEL_MAX_ORDER or ops.any(x > BESSEL_MAX_ARG):
        raise DomainError(f"outside validity window: nmax={nmax}, "
                          f"x={ops.max(x)}")
    if ops.any(x < 0.0):
        raise DomainError("negative argument; use parity J_n(-x)=(-1)^n J_n(x)")
    if ops is mathops.FLOATS:
        # a numpy scalar would make every comparison of the recurrences a
        # numpy bool, tested by a method call instead of an identity check
        x = float(x)
        if x == 0.0:
            return [1.0] + [0.0] * nmax
        if x < 2.0:
            return [_bessel_series(nu, x, ops) for nu in range(nmax + 1)]
        return _miller_all(nmax, x, ops)
    out = np.zeros((nmax + 1,) + x.shape)
    out[0, x == 0.0] = 1.0
    small = (x > 0.0) & (x < 2.0)
    if small.any():
        out[:, small] = [_bessel_series(nu, x[small], ops)
                         for nu in range(nmax + 1)]
    large = x >= 2.0
    if large.any():
        out[:, large] = _miller_all(nmax, x[large], ops)
    return out


def bessel_j(nu: int, x: float) -> float:
    """Bessel function of the first kind, integer order nu >= 0."""
    if nu < 0:
        raise DomainError("negative order")
    return bessel_j_all(nu, x)[nu]


def bessel_j_deriv(nu: int, x: float) -> float:
    """d/dx J_nu(x) via the two-sided recurrence."""
    if x == 0.0:
        if nu == 1:
            return 0.5
        return 0.0
    vals = bessel_j_all(nu + 1, x)
    lower = vals[nu - 1] if nu >= 1 else -vals[1]
    return 0.5 * (lower - vals[nu + 1])


# ---------------------------------------------------------------------------
# Laguerre / confluent hypergeometric (terminating cases)
# ---------------------------------------------------------------------------


def laguerre(n: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^alpha(x), three-term recurrence."""
    if n < 0:
        raise DomainError("negative degree")
    if n == 0:
        return 1.0
    lm, lc = 1.0, 1.0 + alpha - x
    for k in range(1, n):
        lm, lc = lc, ((2 * k + 1 + alpha - x) * lc - (k + alpha) * lm) / (k + 1)
    return lc


def laguerre_deriv(n: int, alpha: float, x: float) -> float:
    """d/dx L_n^alpha(x) = -L_{n-1}^{alpha+1}(x)."""
    if n == 0:
        return 0.0
    return -laguerre(n - 1, alpha + 1, x)


def laguerre_deriv2(n: int, alpha: float, x: float) -> float:
    """d^2/dx^2 L_n^alpha(x) = L_{n-2}^{alpha+2}(x)."""
    if n < 2:
        return 0.0
    return laguerre(n - 2, alpha + 2, x)


def hyp1f1_poly(n: int, b: float, x: float) -> float:
    """1F1(-n; b; x) evaluated as the terminating sum."""
    if n < 0:
        raise DomainError("negative n")
    total = 1.0
    term = 1.0
    for k in range(n):
        denom = b + k
        if denom == 0.0:
            raise DomainError(f"1F1 pole: b = {b} hits a non-positive integer")
        term *= (-(n - k)) * x / (denom * (k + 1))
        total += term
    return total


def tricomi_u_poly(n: int, b: float, x: float) -> float:
    """Tricomi U(-n, b, x) for terminating (polynomial) parameters.

    Evaluated by the contiguous recurrence in the first parameter, with the
    negative-degree cases U(0,b,x) = 1 and U(-1,b,x) = x - b as anchors.
    """
    if n < 0 or n != int(n):
        raise DomainError("first argument must be -n with integer n >= 0")
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
