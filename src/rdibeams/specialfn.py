"""Self-contained special functions used by the solution catalog.

Integer-order Bessel J of all orders up to nmax (`bessel_j_all`) by
Miller's downward recurrence (power series below x = 2) on a whole array
of arguments at once, a float being the one-point case.  Each element
starts the recurrence at its own index, so a point's value does not depend
on the rest of its batch; the recurrence tests for overflow only at the
steps where a growth bound, per start index from its smallest argument,
says an element can near it (none for the catalog's orders and radii, so a
step is three array operations, one more every other step), and takes the
series for all orders and terms in one broadcast.  The orthonormal
Laguerre functions of the magnetic profiles by their normalised three-term
recurrence, started in log space so that no factor overflows or underflows
on its own; one of them at a float runs on two floats, the case of the
streamline right-hand side, which evaluates one point at a time
(`verify.streamline_current`).  No external special-function dependency.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# documented validity window for bessel_j_all
BESSEL_MAX_ORDER = 200
BESSEL_MAX_ARG = 1.0e4


class DomainError(ValueError):
    """Argument outside a function's documented validity window."""


# ---------------------------------------------------------------------------
# Bessel J of integer order
# ---------------------------------------------------------------------------


# terms of the ascending series: below x = 2, q = x^2/4 <= 1 and term k is
# at most 1/(k!)^2 of the first, under 1e-22 at k = 14, so later terms
# would not change a total that is not small
_SERIES_TERMS = np.arange(1.0, 15.0)[:, None, None]


def _bessel_series_all(nmax: int, x):
    # the ascending series at an array 0 < x < 2, for every order and all
    # 14 terms in one broadcast, summed term after term
    nu = np.arange(nmax + 1.0)[:, None]
    lgam = np.array([math.lgamma(n + 1) for n in range(nmax + 1)])[:, None]
    lead = np.exp(nu * np.log(x / 2.0) - lgam)
    q = 0.25 * x * x
    terms = np.cumprod(-q / (_SERIES_TERMS * (nu + _SERIES_TERMS)), axis=0)
    total = 1.0
    for term in terms:
        total = total + term
    return lead * total


# the recurrence starts from this seed and divides an element by
# _RESCALE once it passes _RESCALE_AT
_SEED = 1e-300
_RESCALE_AT = 1e250
_RESCALE = 1e-250


def _miller_start(nmax: int, x):
    # well above the turning point of order nmax at each element of an
    # array x; even, which keeps the normalization sum aligned
    top = np.maximum(nmax, x)
    start = (top + 15.0 * top ** (1.0 / 3.0) + 20).astype(int)
    return start + start % 2


def _rescale_checkpoints(start: int, x_min: float) -> range:
    """The steps k of `_miller_all`'s recurrence, from `start` down, at
    which an element of x >= x_min may have passed 1e250: the steps that
    test for a rescale, range(k0, 0, -1), or range(0) for none.

    |J_(k-1)| <= (2k/x + 1) max(|J_k|, |J_(k+1)|), so after step k no
    element exceeds 1e-300 prod_(j=k..start) (2j/x_min + 1).  Once that
    bound passes 1e250 (a decade early, for rounding) every later step is
    tested: a test leaves elements up to 1e250 in place.  The product over
    all the steps is a ratio of gamma functions, so the common case, a
    bound that never gets there, costs no loop."""
    limit = math.log10(_RESCALE_AT) - 1.0
    half = 0.5 * x_min
    total = (start * math.log(1.0 / half) + math.lgamma(start + 1 + half)
             - math.lgamma(1 + half)) / math.log(10.0)
    bound = math.log10(_SEED)
    if bound + total <= limit:
        return range(0)
    for k in range(start, 0, -1):
        bound += math.log10(2.0 * k / x_min + 1.0)
        if bound > limit:
            return range(k, 0, -1)
    return range(0)


def _batch_checkpoints(starts, x) -> range:
    """The most steps `_rescale_checkpoints` gives a group of the elements of
    x that share a start index, from its smallest x: none where the largest
    start and smallest x of the batch, which bound every group, give none."""
    if not _rescale_checkpoints(int(starts.max()), float(x.min())):
        return range(0)
    return max((_rescale_checkpoints(s, float(x[starts == s].min()))
                for s in set(starts.tolist())), key=len)


def _miller_all(nmax: int, x) -> list:
    # downward recurrence from well above the turning point, normalized by
    # J0 + 2*sum J_{2k} = 1 (half the sum, doubled at the end: exact, as no
    # partial sum is subnormal).  Each element stays exactly 0 until its own
    # start index, so its value does not depend on the rest of the batch.
    # A rescale is tested only where one can be due (_rescale_checkpoints)
    starts = _miller_start(nmax, x)
    order = np.argsort(starts)  # each start's elements, order[i:j]
    ranked = starts[order]
    cuts = [0, *(np.flatnonzero(np.diff(ranked)) + 1).tolist(), len(ranked)]
    seeds = {k: order[i:j] for k, i, j in
             zip(ranked[cuts[:-1]].tolist(), cuts, cuts[1:])}
    check_from = _batch_checkpoints(starts, x).start
    jp = np.zeros_like(x)
    jc = np.zeros_like(x)
    out = [0.0] * (nmax + 1)
    half = np.zeros_like(x)
    for k in range(max(seeds), 0, -1):
        if k in seeds:  # k > nmax, so jc is in no entry of out
            jc[seeds[k]] = _SEED
        jm = 2.0 * k / x
        jm *= jc
        jm -= jp
        jp, jc = jc, jm
        if k <= check_from:
            # every step from the first checkpoint on is tested, so jp was
            # tested a step ago and |jc| alone decides
            over = abs(jc) > _RESCALE_AT
            if over.any():
                scale = np.where(over, _RESCALE, 1.0)
                jc = jc * scale
                jp = jp * scale
                half = half * scale
                out = [v * scale for v in out]
        if (k - 1) <= nmax:
            out[k - 1] = jc
        if (k - 1) % 2 == 0:
            half += jc
    norm = 2.0 * half - jc  # J0 counted once
    return [v / norm for v in out]


def bessel_j_all(nmax: int, x):
    """J_0(x) .. J_nmax(x) in one pass, for x >= 0 a float or an array.

    Indexed by order first: an array of shape (nmax + 1, *np.shape(x)), so
    (nmax + 1,) for a float x, which is the one-point case of the array
    code.  Elements with x < 2 take the ascending series, the rest one
    Miller recurrence, each from its own start index: every element is bit
    for bit its one-point call.
    """
    x = np.asarray(x, dtype=float)
    if nmax < 0:
        raise DomainError("negative order")
    if nmax > BESSEL_MAX_ORDER or np.any(x > BESSEL_MAX_ARG):
        raise DomainError(f"outside validity window: nmax={nmax}, "
                          f"x={np.max(x)}")
    if np.any(x < 0.0):
        raise DomainError("negative argument; use parity J_n(-x)=(-1)^n J_n(x)")
    flat = x.reshape(-1)
    out = np.zeros((nmax + 1, flat.size))
    out[0, flat == 0.0] = 1.0
    small = (flat > 0.0) & (flat < 2.0)
    if small.any():
        out[:, small] = _bessel_series_all(nmax, flat[small])
    large = flat >= 2.0
    if large.any():
        out[:, large] = _miller_all(nmax, flat[large])
    return out.reshape((nmax + 1,) + x.shape)


# ---------------------------------------------------------------------------
# Laguerre functions
# ---------------------------------------------------------------------------

# a start exp(s) below exp(_FAR) is carried as its exponent s beside a
# mantissa; an element whose growth bound stays below exp(_DEAD) is zero
_FAR = -650.0
_DEAD = -760.0


@lru_cache(maxsize=None)
def _steps(nmax: int, alpha: int) -> tuple:
    # (a_k, b_k, c_k) of ell_(k+1) = (a_k - b_k u) ell_k - c_k ell_(k-1),
    # k < nmax: DLMF 18.9.1 divided through by sqrt((k+1)(k+alpha+1))
    out = []
    for k in range(nmax):
        d = math.sqrt((k + 1) * (k + alpha + 1))
        out.append(((2 * k + alpha + 1) / d, 1.0 / d,
                    math.sqrt(k * (k + alpha)) / d))
    return tuple(out)


def laguerre_functions(nmax: int, alpha: int, u) -> list:
    """The orthonormal Laguerre functions ell_k^alpha(u) = sqrt(k!/Gamma(k+
    alpha+1)) u^(alpha/2) e^(-u/2) L_k^alpha(u), k = 0 .. nmax, with
    int ell_k^alpha(u)^2 du = 1 (DLMF 18.9), at an array u >= 0: a list
    indexed by order, empty for nmax < 0.

    The normalised three-term recurrence (DLMF 18.9.1) runs upward from
    ell_0 = exp(s), s = (alpha log u - u - log Gamma(alpha+1))/2.  Where
    exp(s) would underflow, s is carried as a running exponent beside a
    mantissa that is rescaled by 1e-250 once past 1e250, as in
    `_miller_all`, and the two meet last, by ldexp.  So no factor overflows
    or underflows on its own: a far-tail value the floats can hold,
    subnormal ones too, is found, and a smaller one is exactly zero.
    """
    if nmax < 0:
        return []
    if (u < 0.0).any():
        raise DomainError("negative argument of a Laguerre function")
    if alpha == 0:
        s = -0.5 * u
    else:
        with np.errstate(divide="ignore"):  # ell_k^alpha(0) = 0 for alpha > 0
            s = 0.5 * (alpha * np.log(u) - u - math.lgamma(alpha + 1.0))
    far = s < _FAR
    check = far.any()
    if check:
        # per step |ell_(k+1)| grows at most by u + 3 (nmax + alpha) + 2
        dead = s + nmax * np.log(u + 3.0 * (nmax + alpha) + 2.0) < _DEAD
        exponent = np.where(far & ~dead, s, 0.0)
        lc = np.where(dead, 0.0, np.exp(np.where(far, 0.0, s)))
    else:
        lc = np.exp(s)
    lm = 0.0
    out = [lc]
    for a, b, c in _steps(nmax, alpha):
        lm, lc = lc, (a - b * u) * lc - c * lm
        if check:
            over = abs(lc) > _RESCALE_AT
            if over.any():
                scale = np.where(over, _RESCALE, 1.0)
                lc, lm = lc * scale, lm * scale
                exponent = exponent - np.where(over, math.log(_RESCALE), 0.0)
                out = [v * scale for v in out]
        out.append(lc)
    if check:
        # exp(exponent) = 2^k exp(exponent - k ln 2), the second factor in
        # (1/2, 1]
        k = np.floor(exponent / math.log(2.0))
        frac = np.exp(exponent - k * math.log(2.0))
        out = [np.ldexp(v * frac, k.astype(np.int64)) for v in out]
    return out


def laguerre_function(n: int, alpha: int):
    """u -> ell_n^alpha(u) of `laguerre_functions`, for a float or an array
    u, with the recurrence's coefficients bound once; zero (shaped as u)
    for n < 0.  A float u > 0 whose start exp(s) is in range, the
    streamline's per-point case, runs on two floats; other floats run as
    0-d arrays."""
    if n < 0:
        return lambda u: 0.0 if type(u) is float else np.zeros(np.shape(u))
    steps = _steps(n, alpha)
    lgam = math.lgamma(alpha + 1.0)

    def ell(u):
        if type(u) is not float:
            return laguerre_functions(n, alpha, u)[n]
        if u > 0.0:
            s = 0.5 * (alpha * math.log(u) - u - lgam)
            if s >= _FAR:
                lm, lc = 0.0, math.exp(s)
                for a, b, c in steps:
                    lm, lc = lc, (a - b * u) * lc - c * lm
                return lc
        return float(laguerre_functions(n, alpha, np.array(u))[n])

    return ell
