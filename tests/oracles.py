"""Independent reference routines the tests check the library against,
and the helpers only the tests use."""
import math
from dataclasses import dataclass

import numpy as np

from rdibeams import catalog as cat
from rdibeams import numerics, spinors, sta
from rdibeams import specialfn as sf


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
# exponentials and polar rotor factors
# ---------------------------------------------------------------------------

# (6,6) Pade coefficients for the matrix exponential
_PADE6 = (1.0, 1.0 / 2.0, 5.0 / 44.0, 1.0 / 66.0, 1.0 / 792.0,
          1.0 / 15840.0, 1.0 / 665280.0)


def expm_pade6(m):
    """Matrix exponential by scaling-and-squaring with a (6,6) Pade core."""
    norm = np.linalg.norm(m, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    a = m / (2.0 ** squarings)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    even = _PADE6[0] * sta.ID + _PADE6[2] * a2 + _PADE6[4] * a4 \
        + _PADE6[6] * a6
    odd = a @ (_PADE6[1] * sta.ID + _PADE6[3] * a2 + _PADE6[5] * a4)
    res = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        res = res @ res
    return res


def rotor(a, b):
    """exp(a^k alpha_k - b^k PSEUDO alpha_k) for any boost part a and
    rotation part b, mixed ones included, by `expm_pade6`."""
    gen = sum(ak * g for ak, g in zip(a, sta.ALPHA))
    gen = gen - sum(bk * (sta.PSEUDO @ g) for bk, g in zip(b, sta.ALPHA))
    return expm_pade6(gen)


class SingularInput(ValueError):
    """Input matrix is numerically singular."""


@dataclass(frozen=True)
class RotorFactors:
    """Polar factors of a Lorentz rotor: R = boost @ rotation with the boost
    Hermitian positive definite and the rotation unitary, both unimodular."""

    boost: np.ndarray
    rotation: np.ndarray

    def recompose(self):
        return self.boost @ self.rotation


def polar_decompose(r) -> RotorFactors:
    """Split a unimodular matrix into boost (= sqrt(R R^dagger)) times
    rotation, via the eigen-decomposition of the Hermitian square."""
    svals = np.linalg.svd(r, compute_uv=False)
    if svals[-1] < 1e-12:
        raise SingularInput(f"smallest singular value {svals[-1]:.3e}")
    herm = r @ r.conj().T
    evals, evecs = np.linalg.eigh(herm)
    root = (evecs * np.sqrt(evals.clip(min=0.0))) @ evecs.conj().T
    inv_root = (evecs * (1.0 / np.sqrt(evals.clip(min=1e-300)))) \
        @ evecs.conj().T
    return RotorFactors(boost=root, rotation=inv_root @ r)


def dressed_polar_angle_residual(spec, xi: float) -> float:
    """The rotation angle of the polar factors of (1 + N) must satisfy
    tan(theta/2) = c^2 |f'| / (2 eps omega)."""
    u = spec.units
    eps = cat.eigenvalue(spec.static_base())
    d1, d2 = spec.waveform.fdot(xi)
    gen = cat.null_rotation_generator(d1, d2, eps, spec.omega, u)
    factors = polar_decompose(sta.ID + gen)
    cos_half = float(np.trace(factors.rotation).real) / 4.0
    theta_half = math.acos(min(1.0, max(-1.0, cos_half)))
    expected = math.atan(u.c ** 2 * math.hypot(d1, d2)
                         / (2.0 * eps * spec.omega))
    return abs(theta_half - expected)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def fields_from_potential(spec, point, h: float = numerics.DEFAULT_STEP):
    """E and B derived from the potential by finite differences,

        eE = -grad(eA^0) - d(e A)/d(ct),   eB = curl(e A),

    as a cross-check of the closed-form field displays."""
    g = numerics.gradient4(lambda *q: cat.potential(spec, *q), point, h).real
    return {"electric": -g[..., 1:, 0] - g[..., 0, 1:] / spec.units.c,
            "magnetic": numerics.spatial_curl(g[..., :, 1:])}


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def bessel_addition_residual(nu: int, rho: float, rho_bar: float,
                             dphi: float, terms: int = 40) -> float:
    """Residual of the two-center Bessel addition theorem

        exp(-i nu theta) J_nu(w) = sum_m J_m(rho_bar) J_{nu+m}(rho)
                                        exp(-i m dphi),

    with w, theta from the triangle with sides rho, rho_bar and angle dphi.
    """
    w = math.sqrt(rho ** 2 + rho_bar ** 2 - 2.0 * rho * rho_bar * math.cos(dphi))
    theta = math.atan2(rho_bar * math.sin(dphi),
                       rho - rho_bar * math.cos(dphi))
    nmax = abs(nu) + terms + 1
    jr = sf.bessel_j_all(nmax, rho)
    jb = sf.bessel_j_all(terms + 1, rho_bar)
    jw = sf.bessel_j_all(abs(nu), w)[abs(nu)] if w > 0 else (1.0 if nu == 0 else 0.0)
    if nu < 0:
        jw *= (-1) ** nu
    lhs = np.exp(-1j * nu * theta) * jw
    rhs = 0.0 + 0.0j
    for m in range(-terms, terms + 1):
        a = jb[abs(m)] * ((-1) ** m if m < 0 else 1)
        k = nu + m
        b = jr[abs(k)] * ((-1) ** k if k < 0 else 1)
        rhs += a * b * np.exp(-1j * m * dphi)
    return abs(lhs - rhs)


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
