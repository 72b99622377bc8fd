"""Closed-form evaluators for the seven vortex-beam solution families.

Stationary families (arbitrary longitudinal momentum p_z):

* free-bessel      -- field-free Bessel beam with orbital angular momentum,
* uniform-b        -- uniform axial magnetic field; levels independent of
                      the orbital index (phase winds against the flow),
* uniform-b-split  -- uniform field with the opposite winding; levels split
                      by the orbital index,
* radial-b         -- axial magnetic field falling off as 1/r, sourced by a
                      loop-like azimuthal current.

Laser-dressed families (plane wave along the magnetic axis, generated from
the stationary states by a null rotation; built at p_z = 0):

* volkov-bessel    -- dressed free beam,
* redmond          -- dressed uniform-field state,
* radial-b-laser   -- dressed 1/r-field state.

Everything is expressed through the dimensionless radius
lam = B sqrt(x^2+y^2) / (2 c hbar); potentials carry the coupling folded in
(eA throughout).  For odd winding number M the spinor phase carries a
half-integer winding exp(i M phi / 2) with its branch cut on the negative
x axis.

The evaluators (`spinor` fields, `profile`, `potential_split`/`potential`,
`fields`, `bilinear_fields`, `null_rotation_generator`) take their
coordinates as floats or as broadcastable numpy arrays; a batch keeps its
axes in front and the components trail, as in psi[..., 4].  Each formula is
written once: only the transcendental calls and the branch selections come
from `mathops`, `math`/`cmath` for a float point and numpy for a batch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from . import mathops, spinors, sta
from . import specialfn as sf
from .numerics import adaptive_simpson
from .units import NATURAL, UnitSystem
from .waveforms import Waveform

Array = np.ndarray


class OnAxisError(ValueError):
    """Evaluation requested on the symmetry axis of a singular family."""


class NotNormalizable(ValueError):
    """The family has no finite transverse norm (free Bessel beam)."""


class Family(str, Enum):
    FREE_BESSEL = "free-bessel"
    UNIFORM_B = "uniform-b"
    UNIFORM_B_SPLIT = "uniform-b-split"
    RADIAL_B = "radial-b"
    VOLKOV_BESSEL = "volkov-bessel"
    REDMOND = "redmond"
    RADIAL_B_LASER = "radial-b-laser"


DRESSED_BASE = {
    Family.VOLKOV_BESSEL: Family.FREE_BESSEL,
    Family.REDMOND: Family.UNIFORM_B,
    Family.RADIAL_B_LASER: Family.RADIAL_B,
}
MAGNETIC_FAMILIES = (Family.UNIFORM_B, Family.UNIFORM_B_SPLIT, Family.RADIAL_B)
SINGULAR_ON_AXIS = (Family.RADIAL_B, Family.RADIAL_B_LASER)


@dataclass(frozen=True)
class SolutionSpec:
    """Parameter record selecting one catalog family.

    n is the principal quantum number.  The orbital number is `l` for the
    Bessel and uniform-field families (winding M = 2l, or M = -2l for the
    split family) and `M >= 0` directly for the radial-field families.
    `p_perp` sets the transverse momentum of the free/dressed Bessel states,
    which have no discrete spectrum.
    """

    family: Family
    n: int = 0
    l: int = 0
    M: int | None = None
    B: float = 1.0
    m: float = 1.0
    p_z: float = 0.0
    p_perp: float = 1.0
    waveform: Waveform | None = None
    omega: float = 1.0
    units: UnitSystem = NATURAL
    # built once in __post_init__; left out of __eq__, __hash__ and repr,
    # which the normalization cache keys on
    _base: "SolutionSpec | None" = field(init=False, default=None,
                                         compare=False, repr=False)

    def __post_init__(self):
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        if self.n < 0 or self.B <= 0.0 or self.m <= 0.0:
            raise ValueError("need n >= 0, B > 0, m > 0")
        if fam in (Family.RADIAL_B, Family.RADIAL_B_LASER):
            M = self.l if self.M is None else self.M
            if M < 0:
                raise ValueError("radial-b families need M >= 0")
            object.__setattr__(self, "M", int(M))
            object.__setattr__(self, "l", int(M))
        else:
            if self.l < 0:
                raise ValueError("need l >= 0")
            M = -2 * self.l if fam is Family.UNIFORM_B_SPLIT else 2 * self.l
            if self.M is not None and self.M != M:
                raise ValueError(f"inconsistent M={self.M} for {fam.value}")
            object.__setattr__(self, "M", M)
        if fam in DRESSED_BASE:
            if self.waveform is None:
                raise ValueError(f"{fam.value} requires a waveform")
            if self.p_z != 0.0:
                raise ValueError("dressed families are built at p_z = 0")
            if self.omega <= 0.0:
                raise ValueError("need omega > 0")
        if fam in (Family.FREE_BESSEL, Family.VOLKOV_BESSEL) and self.p_perp <= 0:
            raise ValueError("free beam needs p_perp > 0")
        if fam in DRESSED_BASE:
            object.__setattr__(self, "_base", replace(
                self, family=DRESSED_BASE[fam], waveform=None))

    @property
    def is_dressed(self) -> bool:
        return self.family in DRESSED_BASE

    def static_base(self) -> "SolutionSpec":
        """The stationary spec a dressed family is built on."""
        return self if self._base is None else self._base


def _pw(base: float, k: int) -> float:
    # power with the convention that negative exponents only ever appear
    # multiplied by a vanishing coefficient
    return base ** k if k >= 0 else 0.0


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def eigenvalue(spec: SolutionSpec) -> float:
    """Energy of the state; longitudinal momentum adds p_z^2 c^2 under the
    square root."""
    c = spec.units.c
    base = (spec.m * c * c) ** 2 + (spec.p_z * c) ** 2
    fam = spec.static_base().family
    if fam is Family.FREE_BESSEL:
        return math.sqrt(base + (spec.p_perp * c) ** 2)
    if fam is Family.UNIFORM_B:
        return math.sqrt(base + 2.0 * spec.B ** 2 * spec.n)
    if fam is Family.UNIFORM_B_SPLIT:
        return math.sqrt(base + 2.0 * spec.B ** 2 * (spec.l + spec.n))
    n, M = spec.n, spec.M
    return math.sqrt(base + n * (n + M + 1) * spec.B ** 2
                     / (4.0 * (2 * n + M + 1) ** 2))


def lam_of_r(spec: SolutionSpec, r: float) -> float:
    return spec.B * r / (2.0 * spec.units.c * spec.units.hbar)


def r_of_lam(spec: SolutionSpec, lam: float) -> float:
    return 2.0 * spec.units.c * spec.units.hbar * lam / spec.B


def radial_kappa(spec: SolutionSpec) -> float:
    """kappa = (M+1)/(2n+M+1): the 1/r-field profile is a Laguerre
    polynomial in kappa lam."""
    base = spec.static_base()
    return (base.M + 1) / (2 * base.n + base.M + 1)


def _free_q(spec: SolutionSpec) -> float:
    # Bessel argument scale: f = lam^-l J_l(q lam)
    eps = eigenvalue(spec)
    c = spec.units.c
    kt2 = eps ** 2 - (spec.m * c * c) ** 2 - (spec.p_z * c) ** 2
    return 2.0 * math.sqrt(kt2) / spec.B


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------


def _raw_profile(spec: SolutionSpec, lam) -> dict:
    """Profile data with unit normalization constant, at lam >= 0 (a float
    or an array).

    Keys: f, fp, fpp (radial profile and lam-derivatives), H, Hp,
    amp = lam^(M/2) f and ampd = lam^(M/2) f' (phase-free, axis-regular),
    and the weight-stripped pair (amp_s, ampd_s) with
    amp * H = exp(-u/2) amp_s in the family's Gauss-Laguerre variable u.
    """
    # a float lam is the per-point case (the spinor field and the
    # quadrature nodes): test it first, without a call
    ops = mathops.FLOATS if type(lam) is float else mathops.of(lam)
    base = spec.static_base()
    fam = base.family
    n, l, M = base.n, base.l, base.M
    if fam is Family.FREE_BESSEL:
        q = _free_q(base)
        vals = sf.bessel_j_all(l + 2, q * lam)
        jl, jl1 = vals[l], vals[l + 1]
        amp = jl
        ampd = -q * jl1
        # off the axis, through the five-point Bessel ladder for f'' (kept
        # independent of the radial equation being verified); on the axis,
        # the limits
        pos = lam > 0
        r = ops.where(pos, lam, 1.0)
        jlm2 = vals[l - 2] if l >= 2 else ((-1) ** (2 - l)) * vals[2 - l]
        jlm1 = vals[l - 1] if l >= 1 else -vals[1]
        jdd = 0.25 * (jlm2 - 2.0 * jl + vals[l + 2])
        jd = 0.5 * (jlm1 - vals[l + 1])
        f = ops.where(pos, amp / r ** l, (q / 2.0) ** l / math.factorial(l))
        fp = ops.where(pos, ampd / r ** l, 0.0)
        fpp = ops.where(pos, q * q * jdd / r ** l
                        - 2.0 * l * q * jd / r ** (l + 1)
                        + l * (l + 1) * jl / r ** (l + 2), 0.0)
        return {"f": f, "fp": fp, "fpp": fpp, "H": 1.0, "Hp": 0.0,
                "amp": amp, "ampd": ampd, "amp_s": amp, "ampd_s": ampd}
    if fam in (Family.UNIFORM_B, Family.UNIFORM_B_SPLIT):
        u = 2.0 * lam * lam
        H = ops.exp(-lam * lam)
        Hp = -2.0 * lam * H
        L = sf.laguerre(n, l, u)
        Ld = sf.laguerre_deriv(n, l, u)
        Ldd = sf.laguerre_deriv2(n, l, u)
        if fam is Family.UNIFORM_B:
            f = L
            fp = 4.0 * lam * Ld
            fpp = 4.0 * Ld + 16.0 * lam * lam * Ldd
            amp = lam ** l * L
            ampd = lam ** l * fp
        else:
            cfac = (-1.0) ** l * sf.factorial(n) * sf.factorial(l) \
                / sf.factorial(n + l)
            # f = cfac * u^l * L as a function of lam
            f = cfac * _pw(u, l) * L
            dP = l * _pw(u, l - 1) * L + _pw(u, l) * Ld
            fp = cfac * 4.0 * lam * dP
            d2P = (l * (l - 1) * _pw(u, l - 2) * L
                   + 2.0 * l * _pw(u, l - 1) * Ld + _pw(u, l) * Ldd)
            fpp = cfac * (4.0 * dP + 16.0 * lam * lam * d2P)
            amp = cfac * 2.0 ** l * lam ** l * L
            ampd = cfac * 2.0 ** l * (2.0 * l * _pw(lam, l - 1) * L
                                      + 4.0 * lam ** (l + 1) * Ld)
        return {"f": f, "fp": fp, "fpp": fpp, "H": H, "Hp": Hp,
                "amp": amp, "ampd": ampd, "amp_s": amp, "ampd_s": ampd}
    # radial 1/r field
    kappa = radial_kappa(base)
    u = kappa * lam
    H = ops.exp(-lam / 2.0)
    Hp = -0.5 * H
    L = sf.laguerre(n, M, u)
    Ld = sf.laguerre_deriv(n, M, u)
    Ldd = sf.laguerre_deriv2(n, M, u)
    grow = ops.exp_checked((1.0 - kappa) * lam / 2.0)
    f = grow * L
    fp = grow * ((1.0 - kappa) / 2.0 * L + kappa * Ld)
    fpp = grow * (((1.0 - kappa) / 2.0) ** 2 * L
                  + (1.0 - kappa) * kappa * Ld + kappa * kappa * Ldd)
    half = lam ** (M / 2.0)
    return {"f": f, "fp": fp, "fpp": fpp, "H": H, "Hp": Hp,
            "amp": half * f, "ampd": half * fp,
            "amp_s": half * L, "ampd_s": half * ((1.0 - kappa) / 2.0 * L
                                                 + kappa * Ld)}


def stationary_bilinears(spec: SolutionSpec, a: float, b: float) -> dict:
    """J^0, J_phi, J^z, rho cos(beta) ("scalar") and rho s^3 of a stationary
    state, from a phase-free profile pair: (a, b) = (amp H, ampd H) gives
    the local values, the weight-stripped (amp_s, ampd_s) the integrands of
    the transverse quadrature."""
    base = spec.static_base()
    c = base.units.c
    A = base.m * c * c + eigenvalue(base)
    pz2 = (base.p_z * c) ** 2
    B = base.B
    upper = (A ** 2 + pz2) * a ** 2 / B ** 2
    lower = b ** 2 / 4.0
    return {"J0": upper + lower,
            "J_phi": -A * a * b / B,
            "J_z": 2.0 * A * c * base.p_z * a * a / B ** 2,
            "scalar": (A ** 2 - pz2) * a ** 2 / B ** 2 - lower,
            "rho_s3": upper - lower}


def _transverse_average(spec: SolutionSpec, g) -> float:
    """2 pi int g(lam) lam dlam for g free of the exp(-u) weight of the
    family's Gauss-Laguerre variable u (2 lam^2 in the uniform field,
    kappa lam in the 1/r field).

    The rule has N = max(96, d//2 + 1) nodes, so it is exact (degree
    2N - 1, Abramowitz & Stegun 25.4.45) for the profile bilinears, which
    are polynomials in u of degree d = l + 2n (uniform field) or
    d = M + 2n + 1 (1/r field, the measure included).
    """
    base = spec.static_base()
    fam = base.family
    if fam is Family.FREE_BESSEL:
        raise NotNormalizable("free Bessel beam averages are undefined")
    uniform = fam in (Family.UNIFORM_B, Family.UNIFORM_B_SPLIT)
    degree = base.l + 2 * base.n if uniform else base.M + 2 * base.n + 1
    nodes, weights = np.polynomial.laguerre.laggauss(max(96, degree // 2 + 1))
    total = 0.0
    if uniform:
        for u, w in zip(nodes, weights):
            total += w * g(math.sqrt(u / 2.0)) / 4.0
    else:
        kappa = radial_kappa(base)
        for u, w in zip(nodes, weights):
            total += w * g(u / kappa) * u / kappa ** 2
    return 2.0 * math.pi * total


@lru_cache(maxsize=4096)
def normalization(spec: SolutionSpec) -> float:
    """Normalization constant of the transverse profile.

    Magnetic families are fixed by 2 pi int J0 lam dlam = 1, integrated
    exactly by `_transverse_average`'s Gauss-Laguerre rule of
    max(96, d//2 + 1) nodes; the non-normalizable free Bessel beam uses
    the fixed per-area convention instead.
    """
    base = spec.static_base()
    if base.family is Family.FREE_BESSEL:
        c = base.units.c
        eps = eigenvalue(base)
        mc2 = base.m * c * c
        if base.p_z == 0.0:
            return base.B / (math.sqrt(2.0) * eps * math.sqrt(mc2 / eps + 1.0))
        return base.B / (eps * math.sqrt(mc2 / eps + 1.0))

    def j0(lam):
        pr = _raw_profile(base, lam)
        return stationary_bilinears(base, pr["amp_s"], pr["ampd_s"])["J0"]

    return 1.0 / math.sqrt(_transverse_average(base, j0))


def profile(spec: SolutionSpec, lam) -> dict:
    """Normalized profile data at lam, a float or an array (see _raw_profile
    for the keys)."""
    pr = _raw_profile(spec, lam)
    norm = normalization(spec)
    out = dict(pr)
    for key in ("f", "fp", "fpp", "amp", "ampd", "amp_s", "ampd_s"):
        out[key] = norm * pr[key]
    return out


def radial_profile(spec: SolutionSpec, lam: float) -> tuple[float, float]:
    """(f, H) at lam, normalization constant included in f."""
    pr = profile(spec, lam)
    return pr["f"], pr["H"]


# ---------------------------------------------------------------------------
# laser dressing
# ---------------------------------------------------------------------------


# the generator is g (f1' C1 + f2' C2), g = c^2 / (2 eps omega)
_NULL_C1 = -sta.ALPHA[0] - sta.PSEUDO @ sta.ALPHA[1]
_NULL_C2 = -sta.ALPHA[1] + sta.PSEUDO @ sta.ALPHA[0]


def null_rotation_generator(fdot1, fdot2, eps: float, omega: float,
                            units: UnitSystem = NATURAL) -> Array:
    """Nilpotent generator of the null rotation that dresses a stationary
    state with a plane wave travelling along +z; fdot1 and fdot2 are floats
    or arrays, and the result is [..., 4, 4]."""
    g = units.c ** 2 / (2.0 * eps * omega)
    return g * (np.multiply.outer(fdot1, _NULL_C1)
                + np.multiply.outer(fdot2, _NULL_C2))


def gauge_phase(spec: SolutionSpec, xi):
    """Scalar gauge phase accompanying the null rotation."""
    u = spec.units
    eps = eigenvalue(spec)
    return -u.c ** 4 / (2.0 * eps * spec.omega ** 3 * u.hbar) \
        * spec.waveform.gauge_integral(xi)


def coordinate_shift(spec: SolutionSpec, xi):
    """Transverse displacement (x' - x, y' - y) induced by the dressing."""
    u = spec.units
    eps = eigenvalue(spec)
    f1, f2 = spec.waveform.f(xi)
    scale = u.c ** 3 / (eps * spec.omega ** 2)
    return scale * f1, scale * f2


def xi_of(spec: SolutionSpec, t, z):
    return spec.omega * (t - z / spec.units.c)


# ---------------------------------------------------------------------------
# spinors
# ---------------------------------------------------------------------------


def spinor(spec: SolutionSpec, fault=None):
    """Column-spinor field (t, x, y, z) -> psi for the chosen family.

    t, x, y, z are floats, giving psi[4], or broadcastable arrays, giving
    psi[..., 4].  A dressed family is exp(i Phi) (1 + N(xi)) psi(t, x', y',
    z): the stationary field at coordinates shifted by the classical quiver
    motion, turned by the null rotation and carried by the gauge phase.
    `fault(profile, lam)`, when given, replaces the profile right after it
    is read (the verifier's negative controls inject faults through it)."""
    base = spec.static_base()
    u = base.units
    c, hbar = u.c, u.hbar
    eps = eigenvalue(base)
    A = base.m * c * c + eps
    M = base.M

    def static_field(t, x, y, z):
        ops = mathops.of(t, x, y, z)
        lam = lam_of_r(base, ops.hypot(x, y))
        pr = profile(base, lam)
        if fault is not None:
            pr = fault(pr, lam)
        phi = ops.atan2(y, x)
        phase = ops.cexp(-1j * (eps * t - base.p_z * z) / hbar
                         + 0.5j * M * phi)
        common = pr["H"] * phase
        return ops.stack([
            (A / base.B) * pr["amp"] * common,
            0.0,
            (c * base.p_z / base.B) * pr["amp"] * common,
            -0.5j * pr["ampd"] * pr["H"] * phase * ops.cexp(1j * phi),
        ])

    if not spec.is_dressed:
        return static_field

    def dressed(t, x, y, z):
        ops = mathops.of(t, x, y, z)
        xi = xi_of(spec, t, z)
        dx, dy = coordinate_shift(spec, xi)
        d1, d2 = spec.waveform.fdot(xi)
        phi = gauge_phase(spec, xi)
        if not any(ops.any(v != 0.0) for v in (dx, dy, d1, d2, phi)):
            return static_field(t, x, y, z)  # exact identity transform
        gen = null_rotation_generator(d1, d2, eps, spec.omega, u)
        psi = static_field(t, x + dx, y + dy, z)
        return np.asarray(ops.cexp(1j * phi))[..., None] \
            * ((sta.ID + gen) @ psi[..., None])[..., 0]

    return dressed


def matrix_spinor(spec: SolutionSpec):
    """Matrix-spinor field Psi with Psi u1 = psi (even-subalgebra lift)."""
    col = spinor(spec)

    def field(t, x, y, z):
        return spinors.hestenes_matrix(col(t, x, y, z))

    return field


# ---------------------------------------------------------------------------
# potentials and fields
# ---------------------------------------------------------------------------


def _primed(spec: SolutionSpec, t, x, y, z):
    if not spec.is_dressed:
        return x, y, 0.0
    xi = xi_of(spec, t, z)
    dx, dy = coordinate_shift(spec, xi)
    return x + dx, y + dy, xi


def potential_split(spec: SolutionSpec, t, x, y, z) -> dict:
    """The potential split into static/radiation/laser pieces (each a
    4-component eA array, [..., 4] for array coordinates).  The static piece
    lives at the primed transverse coordinates for dressed families."""
    ops = mathops.of(t, x, y, z)
    u = spec.units
    c, hbar = u.c, u.hbar
    B = spec.B
    base = spec.static_base()
    xp, yp, xi = _primed(spec, t, x, y, z)
    rp = ops.hypot(xp, yp)
    fam = base.family
    zero = ops.zero(t, x, y, z)
    static = radiation = laser = (zero,) * 4
    if fam in (Family.UNIFORM_B, Family.UNIFORM_B_SPLIT):
        coeff = B ** 2 / (2.0 * c ** 2 * hbar)
        static = (zero, -coeff * yp, coeff * xp, zero)
    elif fam is Family.RADIAL_B:
        if ops.any(rp == 0.0):
            raise OnAxisError("potential singular on the symmetry axis")
        coeff = B / (4.0 * c * rp)
        static = (zero, -coeff * yp, coeff * xp, zero)
    if spec.is_dressed:
        eps = eigenvalue(base)
        d1, d2 = spec.waveform.fdot(xi)
        laser = (zero, c * d1 / spec.omega, c * d2 / spec.omega, zero)
        if fam is Family.UNIFORM_B:
            a0 = -B ** 2 * (xp * d2 - yp * d1) / (2.0 * eps * spec.omega * hbar)
            radiation = (a0, zero, zero, a0)
        elif fam is Family.RADIAL_B:
            a0 = -B * c * (xp * d2 - yp * d1) / (4.0 * eps * spec.omega * rp)
            radiation = (a0, zero, zero, a0)
    return {"static": ops.stack(static), "radiation": ops.stack(radiation),
            "laser": ops.stack(laser)}


def potential(spec: SolutionSpec, t, x, y, z) -> Array:
    """Total driving potential eA^mu at a lab-frame point, or eA[..., 4]
    at array coordinates."""
    parts = potential_split(spec, t, x, y, z)
    return parts["static"] + parts["radiation"] + parts["laser"]


@dataclass(frozen=True)
class FieldSample:
    """Fields at a point, or at a batch of points along the leading axes
    (vectors carry a trailing axis of length 3)."""

    electric: Array       # e E
    magnetic: Array       # e B
    charge_source: float  # e mu0 rho_e
    current_source: Array  # e mu0 J_e


def fields(spec: SolutionSpec, t, x, y, z) -> FieldSample:
    """Closed-form electromagnetic fields and their source densities, at
    float or array coordinates."""
    ops = mathops.of(t, x, y, z)
    u = spec.units
    c, hbar = u.c, u.hbar
    B = spec.B
    base = spec.static_base()
    fam = base.family
    xp, yp, xi = _primed(spec, t, x, y, z)
    rp = ops.hypot(xp, yp)
    zero = ops.zero(t, x, y, z)
    eE = [zero] * 3
    eB = [zero] * 3
    rho_e = zero
    J_e = [zero] * 3
    if fam in (Family.UNIFORM_B, Family.UNIFORM_B_SPLIT):
        eB[2] = eB[2] + B ** 2 / (c ** 2 * hbar)
    elif fam is Family.RADIAL_B:
        if ops.any(rp == 0.0):
            raise OnAxisError("field singular on the symmetry axis")
        eB[2] = eB[2] + B / (4.0 * c * rp)
        J_e = [J_e[0] + (B / (4.0 * c)) * -yp / rp ** 3,
               J_e[1] + (B / (4.0 * c)) * xp / rp ** 3, J_e[2]]
    if spec.is_dressed:
        eps = eigenvalue(base)
        d1, d2 = spec.waveform.fdot(xi)
        dd1, dd2 = spec.waveform.fddot(xi)
        eE = [eE[0] - c * dd1, eE[1] - c * dd2, eE[2]]
        eB = [eB[0] + dd2, eB[1] - dd1, eB[2]]
        if fam is Family.UNIFORM_B:
            kE = B ** 2 * c / (eps * spec.omega * hbar)
            kB = B ** 2 / (eps * spec.omega * hbar)
        elif fam is Family.RADIAL_B:
            kE = B * c ** 2 / (4.0 * rp * eps * spec.omega)
            kB = B * c / (4.0 * rp * eps * spec.omega)
            rho_e = B * c ** 2 * (yp * d1 - xp * d2) \
                / (4.0 * eps * spec.omega * rp ** 3)
            J_e = [(B / (4.0 * c * rp ** 3)) * v
                   for v in (-yp, xp, c * (yp * d1 - xp * d2) / (eps * spec.omega))]
        if fam in (Family.UNIFORM_B, Family.RADIAL_B):
            eE = [eE[0] + kE * d2, eE[1] + kE * -d1, eE[2]]
            eB = [eB[0] + kB * d1, eB[1] + kB * d2, eB[2]]
    return FieldSample(ops.stack(eE), ops.stack(eB), rho_e, ops.stack(J_e))


# ---------------------------------------------------------------------------
# local kinematics (current, density, velocity, spin)
# ---------------------------------------------------------------------------


def bilinear_fields(spec: SolutionSpec, t, x, y, z) -> dict:
    """Closed-form local bilinears of the stationary families: current J^mu,
    signed scalar density (rho cos beta), and spin density rho s^mu, at
    float or array coordinates."""
    base = spec.static_base()
    if spec.is_dressed:
        raise ValueError("use velocity_spin for dressed families")
    ops = mathops.of(x, y)
    c = base.units.c
    r = ops.hypot(x, y)
    pr = profile(base, lam_of_r(base, r))
    k = stationary_bilinears(base, pr["amp"] * pr["H"], pr["ampd"] * pr["H"])
    jphi = k["J_phi"]
    # J_phi along the azimuthal unit vector; on the axis, where x = y = 0,
    # r is replaced by 1 and the transverse current is zero
    r = r + (r == 0.0)
    jx, jy = -jphi * y / r, jphi * x / r
    fac = c * base.p_z / (base.m * c * c + eigenvalue(base))
    return {"J": ops.stack([k["J0"], jx, jy, k["J_z"]]), "scalar": k["scalar"],
            "rho_s": ops.stack([k["J_z"], fac * jx, fac * jy, k["rho_s3"]]),
            "J_phi": jphi}


def velocity_spin(spec: SolutionSpec, t, x, y, z) -> tuple[Array, Array]:
    """Unit 4-velocity and unit spin vector at a point (closed form)."""
    base = spec.static_base()
    if not spec.is_dressed:
        bil = bilinear_fields(spec, t, x, y, z)
        rho = abs(bil["scalar"])
        if rho == 0.0:
            raise OnAxisError("null current circle: velocity undefined")
        return bil["J"] / rho, bil["rho_s"] / rho
    # dressed: sandwich the stationary vectors with the null rotation
    u = spec.units
    eps = eigenvalue(base)
    xi = xi_of(spec, t, z)
    dx, dy = coordinate_shift(spec, xi)
    v_s, s_s = velocity_spin(base, t, x + dx, y + dy, z)
    d1, d2 = spec.waveform.fdot(xi)
    gen = null_rotation_generator(d1, d2, eps, spec.omega, u)
    rot = sta.ID + gen
    rot_rev = sta.ID - gen
    v = sta.to_vector(rot @ sta.from_vector(v_s) @ rot_rev)
    s = sta.to_vector(rot @ sta.from_vector(s_s) @ rot_rev)
    return v, s


# ---------------------------------------------------------------------------
# averages
# ---------------------------------------------------------------------------


def averages(spec: SolutionSpec, xi: float = 0.0) -> dict:
    """Plane averages over the transverse probability measure.

    Returns the quadrature values together with the closed forms they match:
    the duality-signed density (rho cos beta), the azimuthal current
    weighted by the family's natural dimensionless radius (sqrt(2) lam for
    the uniform-field families, 1 for the radial-field family), and for
    dressed families the z-current and transverse centroid at phase xi.
    """
    base = spec.static_base()
    eps = eigenvalue(base)
    mc2 = base.m * base.units.c ** 2
    uniform = base.family in (Family.UNIFORM_B, Family.UNIFORM_B_SPLIT)

    def average(key, weighted=False):
        def g(lam):
            pr = profile(base, lam)
            val = stationary_bilinears(base, pr["amp_s"], pr["ampd_s"])[key]
            return math.sqrt(2.0) * lam * val if weighted and uniform else val
        return _transverse_average(base, g)

    out = {"rho": average("scalar"), "rho_closed": mc2 / eps,
           "norm": average("J0"), "J_phi": average("J_phi", weighted=True)}
    if base.family is Family.UNIFORM_B:
        out["J_phi_closed"] = -math.sqrt(2.0) * base.B * base.n / eps
    elif base.family is Family.UNIFORM_B_SPLIT:
        out["J_phi_closed"] = -math.sqrt(2.0) * base.B * (base.n + base.l) / eps
    elif base.family is Family.RADIAL_B:
        n, M = base.n, base.M
        out["J_phi_closed"] = -base.B * n * (1 + n + M) \
            / ((1 + 2 * n + M) ** 2 * eps)
    if spec.is_dressed:
        out.update(_dressed_averages(spec, xi))
    return out


def _dressed_averages(spec: SolutionSpec, xi: float) -> dict:
    """<J_z> and transverse centroid of a dressed state at phase xi, by
    2D quadrature of the dressed bilinears over the primed plane."""
    base = spec.static_base()
    u = spec.units
    c, hbar = u.c, u.hbar
    eps = eigenvalue(base)
    d1, d2 = spec.waveform.fdot(xi)
    gen = null_rotation_generator(d1, d2, eps, spec.omega, u)
    rot = sta.ID + gen
    bigm = rot.conj().T @ sta.ALPHA[2] @ rot      # alpha_3 sandwich
    bigm0 = rot.conj().T @ rot                    # identity sandwich

    col = spinor(base)
    phis = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    ring_cos, ring_sin = np.cos(phis), np.sin(phis)

    def ring(op, weight_xy):
        # the ring average at lam, from one spinor call on the whole ring
        def g(lam):
            r = r_of_lam(base, lam)
            xs, ys = r * ring_cos, r * ring_sin
            psi = col(0.0, xs, ys, 0.0)
            vals = np.einsum("ni,ij,nj->n", psi.conj(), op, psi).real
            return float(np.mean(weight_xy(xs, ys) * vals)) * lam
        return g

    lam_max = _lam_cutoff(base)
    jz = 2.0 * math.pi * adaptive_simpson(
        ring(bigm, lambda a, b: 1.0), 0.0, lam_max, tol=1e-12)
    cx = 2.0 * math.pi * adaptive_simpson(
        ring(bigm0, lambda a, b: a), 0.0, lam_max, tol=1e-12)
    cy = 2.0 * math.pi * adaptive_simpson(
        ring(bigm0, lambda a, b: b), 0.0, lam_max, tol=1e-12)
    tan2 = (c ** 2 * math.hypot(d1, d2) / (2.0 * eps * spec.omega)) ** 2
    out = {
        "J_z": jz,
        "J_z_closed": c ** 4 * (d1 * d1 + d2 * d2)
        / (2.0 * eps ** 2 * spec.omega ** 2),
        "centroid": (cx, cy),
        "tan2_half_angle": tan2,
    }
    if base.family is Family.UNIFORM_B:
        coeff = c ** 3 * base.n * hbar / (spec.omega * eps ** 2)
        out["centroid_closed"] = (coeff * d2, -coeff * d1)
    elif base.family is Family.RADIAL_B:
        n, M = base.n, base.M
        coeff = 3.0 * c ** 3 * hbar * n * (n + M + 1) \
            / (2.0 * (M + 1) * spec.omega * eps ** 2)
        out["centroid_closed"] = (coeff * d2, -coeff * d1)
    return out


def _lam_cutoff(base: SolutionSpec) -> float:
    if base.family in (Family.UNIFORM_B, Family.UNIFORM_B_SPLIT):
        return 7.0
    return 85.0 / radial_kappa(base)


# ---------------------------------------------------------------------------
# catalog description (CLI surface)
# ---------------------------------------------------------------------------


def describe_families() -> list[dict]:
    """Parameter schema of every family, for the command-line catalog."""
    entries = []
    common = {"B": "field-strength constant (energy units)",
              "m": "electron mass", "p_z": "longitudinal momentum"}
    for fam in Family:
        e = {"family": fam.value, "parameters": dict(common)}
        if fam in (Family.FREE_BESSEL, Family.VOLKOV_BESSEL):
            e["parameters"]["l"] = "orbital index, winding M = 2l"
            e["parameters"]["p_perp"] = "transverse momentum (> 0)"
            e["description"] = "field-free Bessel beam" \
                if fam is Family.FREE_BESSEL else \
                "Bessel beam dressed by a plane wave (Volkov-type)"
        elif fam is Family.UNIFORM_B:
            e["parameters"].update(n="principal index",
                                   l="orbital index, winding M = 2l")
            e["description"] = ("uniform axial magnetic field, levels "
                                "degenerate in l")
        elif fam is Family.UNIFORM_B_SPLIT:
            e["parameters"].update(n="principal index",
                                   l="orbital index, winding M = -2l")
            e["description"] = ("uniform axial magnetic field, levels split "
                                "by l")
        elif fam is Family.RADIAL_B:
            e["parameters"].update(n="principal index", M="winding (>= 0)")
            e["description"] = "axial magnetic field falling off as 1/r"
        elif fam is Family.REDMOND:
            e["parameters"].update(n="principal index",
                                   l="orbital index, winding M = 2l")
            e["description"] = ("uniform magnetic field plus co-propagating "
                                "plane wave")
        else:
            e["parameters"].update(n="principal index", M="winding (>= 0)")
            e["description"] = ("1/r magnetic field plus co-propagating "
                                "plane wave")
        if fam in DRESSED_BASE:
            e["parameters"].update(
                waveform="circular | linear | pulse, with amplitude",
                omega="plane-wave frequency")
        entries.append(e)
    return entries
