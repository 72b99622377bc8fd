"""Self-contained special functions used by the solution catalog.

Integer-order Bessel J by Miller's downward recurrence (power series below
x = 2), generalized Laguerre polynomials and the terminating confluent
hypergeometric functions by stable three-term recurrences.  No external
special-function dependency.
"""
from __future__ import annotations

import math

# documented validity window for bessel_j
BESSEL_MAX_ORDER = 200
BESSEL_MAX_ARG = 1.0e4


class DomainError(ValueError):
    """Argument outside a function's documented validity window."""


def factorial(n: int) -> int:
    if n < 0:
        raise DomainError(f"factorial of negative {n}")
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Bessel J of integer order
# ---------------------------------------------------------------------------


def _bessel_series(nu: int, x: float) -> float:
    # ascending series, stable for small arguments
    if x == 0.0:
        return 1.0 if nu == 0 else 0.0
    lead = math.exp(nu * math.log(x / 2.0) - math.lgamma(nu + 1))
    q = 0.25 * x * x
    term = 1.0
    total = 1.0
    for k in range(1, 60):
        term *= -q / (k * (nu + k))
        total += term
        if abs(term) < 1e-18 * abs(total) + 1e-300:
            break
    return lead * total


def _miller_all(nmax: int, x: float) -> list[float]:
    # downward recurrence from well above the turning point, normalized by
    # J0 + 2*sum J_{2k} = 1
    start = int(max(nmax, x) + 15.0 * max(nmax, x) ** (1.0 / 3.0) + 20)
    start += start % 2  # even start keeps the normalization sum aligned
    jp = 0.0
    jc = 1e-300
    out = [0.0] * (nmax + 1)
    norm = 0.0
    for k in range(start, 0, -1):
        jm = (2.0 * k / x) * jc - jp
        jp = jc
        jc = jm
        if abs(jc) > 1e250:  # rescale to dodge overflow
            scale = 1e-250
            jc *= scale
            jp *= scale
            norm *= scale
            out = [v * scale for v in out]
        if (k - 1) <= nmax:
            out[k - 1] = jc
        if (k - 1) % 2 == 0:
            norm += 2.0 * jc
    norm -= jc  # J0 counted once
    return [v / norm for v in out]


def bessel_j_all(nmax: int, x: float) -> list[float]:
    """J_0(x) .. J_nmax(x) in one pass (x >= 0)."""
    if nmax < 0:
        raise DomainError("negative order")
    if nmax > BESSEL_MAX_ORDER or x > BESSEL_MAX_ARG:
        raise DomainError(f"outside validity window: nmax={nmax}, x={x}")
    if x < 0.0:
        raise DomainError("negative argument; use parity J_n(-x)=(-1)^n J_n(x)")
    if x < 2.0:
        return [_bessel_series(nu, x) for nu in range(nmax + 1)]
    return _miller_all(nmax, x)


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
