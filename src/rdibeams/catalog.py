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

Everything is in natural units (hbar = c = 1) and expressed through the
dimensionless radius lam = B sqrt(x^2+y^2) / 2; potentials carry the
coupling folded in (eA throughout).  For odd winding number M the spinor
phase carries a half-integer winding exp(i M phi / 2) with its branch cut
on the negative x axis.

Validity envelope (swept against 30-digit mpmath by the tests): the
magnetic families up to Laguerre degree 2n + l = MAX_DEGREE = 800 (l = M
in the 1/r field; past it, DomainError) at any radius, a profile below the
float range being exactly zero; the free and Volkov beams for Bessel order
l + 2 <= 200 and argument p_perp r <= 1e4, r shifted by the
dressing; the dressed families at p_z = 0, omega > 0 with 2 eps omega^3 a
normal float, and any amplitude, the pulse while its envelope is
negligible past center +- 12 widths.

The evaluators (`spinor` fields, `profile`, `potential_split`/`potential`,
`fields`, `sources`, `bilinear_fields`, `velocity_spin`,
`null_rotation_generator`, `null_rotation_lorentz`) take their coordinates
as numpy arrays of one shape, a float being the one-point case (a float
among arrays stands for every point); a batch keeps its axes in front and
the components trail, as in psi[..., 4].  Each formula is written once, in
numpy, and `_stack` and `_zero` shape its results.  A `spinor` field takes
a point of floats as the one-element batch, so its value is bit for bit
that point's value in any batch.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from . import sta
from . import specialfn as sf
from .waveforms import Waveform

Array = np.ndarray


def _shape(values):
    # the shape of the first highest-rank array among values, () for floats
    return max([getattr(v, "shape", ()) for v in values], key=len)


def _stack(parts):
    """Components along a new trailing axis: one array of the shape of the
    highest-rank part, filled part by part.  A part of a lower rank, a
    float among them, is repeated along the axes it lacks; a part whose
    shape does not fit raises."""
    out = np.empty(_shape(parts) + (len(parts),), np.result_type(*parts))
    for i, p in enumerate(parts):
        out[..., i] = p
    return out


def _zero(*values):
    """Zero with the shape of the highest-rank argument."""
    return np.zeros(_shape(values))


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
    # built once in __post_init__; left out of __eq__, __hash__ and repr,
    # which the normalization cache keys on
    _base: "SolutionSpec | None" = field(init=False, default=None,
                                         compare=False, repr=False)

    def __post_init__(self):
        fam = Family(self.family)
        object.__setattr__(self, "family", fam)
        # written so that NaN fails: NaN <= 0.0 is False as well
        if self.n < 0 or not 0.0 < self.B < math.inf \
                or not 0.0 < self.m < math.inf:
            raise ValueError("need n >= 0, B > 0, m > 0, B and m finite")
        for name in ("p_z", "p_perp", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"need a finite {name}")
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
            object.__setattr__(self, "_base", replace(
                self, family=DRESSED_BASE[fam], waveform=None))
        try:
            level = eigenvalue(self)
        except OverflowError:  # a square past the float range
            level = math.inf
        # a level whose square is not a normal float has lost its digits,
        # or is zero and would divide the normalization by zero
        if not sys.float_info.min <= level * level < math.inf:
            raise ValueError(f"{fam.value}: the level {level:g} is outside "
                             "the float range")
        if fam in (Family.FREE_BESSEL, Family.VOLKOV_BESSEL) and not (
                self.p_perp > 0.0 and _free_kt2(self) > 0.0):
            raise ValueError("free beam needs p_perp > 0, its square not "
                             "rounded away beside m^2 + p_z^2")
        # 2 eps omega^3 divides the gauge phase, and the dressing's other
        # divisors, 2 eps omega and eps omega^2, lie between it and eps (a
        # product, unlike a power, overflows to inf)
        cube = 2.0 * level * self.omega * self.omega * self.omega
        if fam in DRESSED_BASE and not sys.float_info.min <= cube < math.inf:
            raise ValueError(f"{fam.value}: omega = {self.omega} puts "
                             "2 eps omega^3 outside the float range")

    @property
    def is_dressed(self) -> bool:
        return self.family in DRESSED_BASE

    def static_base(self) -> "SolutionSpec":
        """The stationary spec a dressed family is built on."""
        return self if self._base is None else self._base


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------


def eigenvalue(spec: SolutionSpec) -> float:
    """Energy of the state; longitudinal momentum adds p_z^2 under the
    square root."""
    base = spec.m ** 2 + spec.p_z ** 2
    fam = spec.static_base().family
    if fam is Family.FREE_BESSEL:
        return math.sqrt(base + spec.p_perp ** 2)
    if fam is Family.UNIFORM_B:
        return math.sqrt(base + 2.0 * spec.B ** 2 * spec.n)
    if fam is Family.UNIFORM_B_SPLIT:
        return math.sqrt(base + 2.0 * spec.B ** 2 * (spec.l + spec.n))
    n, M = spec.n, spec.M
    return math.sqrt(base + n * (n + M + 1) * spec.B ** 2
                     / (4.0 * (2 * n + M + 1) ** 2))


def lam_of_r(spec: SolutionSpec, r: float) -> float:
    return spec.B * r / 2.0


def r_of_lam(spec: SolutionSpec, lam: float) -> float:
    return 2.0 * lam / spec.B


def radial_kappa(spec: SolutionSpec) -> float:
    """kappa = (M+1)/(2n+M+1): the 1/r-field profile is a Laguerre
    polynomial in kappa lam."""
    base = spec.static_base()
    return (base.M + 1) / (2 * base.n + base.M + 1)


def _free_kt2(spec: SolutionSpec) -> float:
    # p_perp^2 as the level carries it, eps^2 - m^2 - p_z^2
    return eigenvalue(spec) ** 2 - spec.m ** 2 - spec.p_z ** 2


def _free_q(spec: SolutionSpec) -> float:
    # Bessel argument scale: f = lam^-l J_l(q lam)
    return 2.0 * math.sqrt(_free_kt2(spec)) / spec.B


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

MAX_DEGREE = 800  # of the magnetic families (see the module docstring)


def _amplitude(base: SolutionSpec) -> float:
    """P of the pair aH = P ell_n^alpha(u) of `_pair_kernel`, which makes
    2 pi int J0 lam dlam = 1; a state past MAX_DEGREE raises DomainError."""
    n, l = base.n, base.l
    if 2 * n + l > MAX_DEGREE:
        orbital = "M" if base.family is Family.RADIAL_B else "l"
        raise sf.DomainError(
            f"{base.family.value} n={n} {orbital}={l}: Laguerre degree "
            f"2n + {orbital} = {2 * n + l} is past the validity envelope "
            f"({MAX_DEGREE})")
    eps = eigenvalue(base)
    scale = math.pi * eps * (eps + base.m)
    if base.family is Family.RADIAL_B:
        scale = 4 * (2 * n + l + 1) * scale / radial_kappa(base) ** 2
    return base.B / math.sqrt(scale)


def _pair_kernel(spec: SolutionSpec):
    """lam -> (aH, bH) = lam^(M/2) (f, f') H, the normalized phase-free
    pair the spinor reads, at lam >= 0 (a float or an array), with the
    spec's constants bound once.  The magnetic families take both from the
    Laguerre functions of `sf.laguerre_function`, so no growing polynomial
    meets a decaying weight: with u = 2 lam^2 and P = B/sqrt(pi eps A)
    (A = eps + m) in the uniform field, u = kappa lam and
    P = B kappa/sqrt(4 pi (2n+M+1) eps A) in the 1/r field,

        uniform-b:  aH = P ell_n^l,  bH = -2 sqrt(2n) P ell_(n-1)^(l+1),
        split:      P (-1)^l (ell_n^l, 2 sqrt(2(n+l)) ell_n^(l-1)),
        radial-b:   aH = P ell_n^M,  bH = (1-kappa)/2 aH
                                 - kappa sqrt(n) P ell_(n-1)^(M+1)/sqrt(u).

    The split state with l = 0 is the uniform-b one (same M, level, f)."""
    base = spec.static_base()
    fam = base.family
    n, l = base.n, base.l
    if fam is Family.FREE_BESSEL:
        q = _free_q(base)
        norm = normalization(base)

        def bessel(lam):
            vals = sf.bessel_j_all(l + 2, q * lam)
            return norm * vals[l], norm * (-q * vals[l + 1])

        return bessel
    P = _amplitude(base)
    ell_a = sf.laguerre_function(n, l)
    if fam is Family.RADIAL_B:
        kappa = radial_kappa(base)
        half = 0.5 * (1.0 - kappa)
        kb = kappa * math.sqrt(n) * P
        ell_b = sf.laguerre_function(n - 1, l + 1)
        # ell_(n-1)^(M+1)(u) / sqrt(u) at u = 0
        axis = math.sqrt(n) if l == 0 else 0.0

        def radial(lam):
            u = kappa * lam
            aH = P * ell_a(u)
            on_axis = u == 0.0
            tail = ell_b(u) / (u + on_axis) ** 0.5 + axis * on_axis
            return aH, half * aH - kb * tail

        return radial
    if fam is Family.UNIFORM_B_SPLIT and l > 0:
        P = (-1) ** l * P
        kb = 2.0 * math.sqrt(2.0 * (n + l)) * P
        ell_b = sf.laguerre_function(n, l - 1)
    else:
        kb = -2.0 * math.sqrt(2.0 * n) * P
        ell_b = sf.laguerre_function(n - 1, l + 1)

    def uniform(lam):
        u = 2.0 * lam * lam
        return P * ell_a(u), kb * ell_b(u)

    return uniform


def stationary_bilinears(spec: SolutionSpec):
    """(a, b) -> J^0, J_phi, J^z, rho cos(beta) ("scalar") and rho s^3 of
    a stationary state from its phase-free pair (a, b) = (aH, bH), with the
    spec's constants bound once, as `_pair_kernel` binds its own."""
    base = spec.static_base()
    A = base.m + eigenvalue(base)
    pz2 = base.p_z ** 2
    B, B2 = base.B, base.B ** 2
    plus, minus = A ** 2 + pz2, A ** 2 - pz2
    neg_A, two_A_pz = -A, 2.0 * A * base.p_z

    def kernel(a, b):
        upper = plus * a ** 2 / B2
        lower = b ** 2 / 4.0
        return {"J0": upper + lower,
                "J_phi": neg_A * a * b / B,
                "J_z": two_A_pz * a * a / B2,
                "scalar": minus * a ** 2 / B2 - lower,
                "rho_s3": upper - lower}

    return kernel


@lru_cache(maxsize=None)
def _laguerre_rule(count: int):
    """Gauss-Laguerre nodes u_i and weights times e^(u_i) (Golub & Welsch,
    Math. Comp. 23, 221-230, 1969): the Jacobi matrix's eigenvalues, one
    Newton step on ell_count^0 (slope -count ell_(count-1)^0(u)/u at a zero),
    and 1 / sum_(k<count) ell_k^0(u_i)^2.  numpy's rule overflows past 186
    nodes, and its 96-node weights, off by up to 6e-12, integrate
    ell_n^alpha^2 to 1 within 6e-13; this rule does within 1e-14."""
    jacobi = np.diag(2.0 * np.arange(count) + 1.0) \
        - np.diag(np.arange(1.0, count), -1)
    nodes = np.linalg.eigvalsh(jacobi)
    ell = sf.laguerre_functions(count, 0, nodes)
    nodes = nodes + nodes * ell[count] / (count * ell[count - 1])
    ell = sf.laguerre_functions(count - 1, 0, nodes)
    return nodes, 1.0 / sum(v * v for v in ell)


def _transverse_average(spec: SolutionSpec, g):
    """2 pi int g(lam) lam dlam for g a bilinear of the pair (aH, bH), by
    `_laguerre_rule` in the family's variable u (2 lam^2 in the uniform
    field, kappa lam in the 1/r field), for `averages`.

    g is called once, on the nodes' lam, with the node axis leading in its
    result.  The N = max(96, d//2 + 1) nodes are exact (degree 2N - 1) for
    the bilinears, e^(-u) times polynomials of degree d = l + 2n (uniform
    field) or d = M + 2n + 1 (1/r field, the measure included)."""
    base = spec.static_base()
    fam = base.family
    if fam is Family.FREE_BESSEL:
        raise NotNormalizable("free Bessel beam averages are undefined")
    uniform = fam in (Family.UNIFORM_B, Family.UNIFORM_B_SPLIT)
    degree = base.l + 2 * base.n if uniform else base.M + 2 * base.n + 1
    nodes, weights = _laguerre_rule(max(96, degree // 2 + 1))
    if uniform:
        lam, weights = np.sqrt(nodes / 2.0), weights / 4.0
    else:
        kappa = radial_kappa(base)
        lam, weights = nodes / kappa, weights * nodes / kappa ** 2
    return 2.0 * math.pi * (weights @ g(lam))


def _sqrt_ratio(num: int, den: int) -> float:
    # sqrt(num / den) of positive integers to an ulp, also where the ratio
    # itself would leave the float range
    shift = max(0, (den.bit_length() - num.bit_length() + 1) // 2) + 64
    return math.ldexp(math.isqrt((num << 2 * shift) // den), -shift)


@lru_cache(maxsize=4096)
def normalization(spec: SolutionSpec) -> float:
    """Normalization constant N of the paper-convention profile f = N
    L_n^l(u) (uniform field), N (-1)^l n! l!/(n+l)! u^l L_n^l(u) (split),
    N exp((1-kappa) lam/2) L_n^M(u) (1/r field): in closed form, P of
    `_amplitude` times sqrt(2^l n!/(n+l)!), sqrt((n+l)!/(n! 2^l l!^2)) and
    kappa^(M/2) sqrt(n!/(n+M)!), each the root of an exact integer ratio.
    The free Bessel beam takes the fixed per-area convention instead."""
    base = spec.static_base()
    if base.family is Family.FREE_BESSEL:
        eps = eigenvalue(base)
        root = math.sqrt(base.m / eps + 1.0)
        if base.p_z == 0.0:
            return base.B / (math.sqrt(2.0) * eps * root)
        return base.B / (eps * root)
    n, l = base.n, base.l
    fact = math.factorial
    if base.family is Family.RADIAL_B:
        num, den = (l + 1) ** l * fact(n), (2 * n + l + 1) ** l * fact(n + l)
    elif base.family is Family.UNIFORM_B_SPLIT:
        num, den = fact(n + l), fact(n) * 2 ** l * fact(l) ** 2
    else:
        num, den = 2 ** l * fact(n), fact(n + l)
    return _amplitude(base) * _sqrt_ratio(num, den)


def profile(spec: SolutionSpec, lam) -> dict:
    """Normalized profile data at lam, a float or an array: the pair aH, bH
    of `_pair_kernel`, and the paper convention's f, its lam-derivatives
    fp, fpp and the weight H with its derivative Hp.  The magnetic
    families take f from the same Laguerre functions, at lam > 0 where H
    does not underflow; f'' takes ell_(n-2)^(alpha+2) (split: ell_(n-1)^l).
    """
    base = spec.static_base()
    fam = base.family
    n, l, M = base.n, base.l, base.M
    if fam is Family.FREE_BESSEL:
        # off the axis, through the five-point Bessel ladder for f'' (kept
        # independent of the radial equation being verified); on the axis,
        # the limits
        q = _free_q(base)
        norm = normalization(base)
        vals = sf.bessel_j_all(l + 2, q * lam)
        jl, jl1 = vals[l], vals[l + 1]
        pos = lam > 0
        r = np.where(pos, lam, 1.0)
        jlm2 = vals[l - 2] if l >= 2 else ((-1) ** (2 - l)) * vals[2 - l]
        jlm1 = vals[l - 1] if l >= 1 else -vals[1]
        jdd = 0.25 * (jlm2 - 2.0 * jl + vals[l + 2])
        jd = 0.5 * (jlm1 - jl1)
        f = np.where(pos, jl / r ** l, (q / 2.0) ** l / math.factorial(l))
        fp = np.where(pos, -q * jl1 / r ** l, 0.0)
        fpp = np.where(pos, q * q * jdd / r ** l
                       - 2.0 * l * q * jd / r ** (l + 1)
                       + l * (l + 1) * jl / r ** (l + 2), 0.0)
        return {"f": norm * f, "fp": norm * fp, "fpp": norm * fpp, "H": 1.0,
                "Hp": 0.0, "aH": norm * jl, "bH": norm * (-q * jl1)}
    aH, bH = _pair_kernel(base)(lam)
    P, ell = _amplitude(base), sf.laguerre_function
    # cH = lam^(M/2) f'' H
    if fam is Family.RADIAL_B:
        kappa = radial_kappa(base)
        H, half = np.exp(-lam / 2.0), 0.5 * (1.0 - kappa)
        Hp = -0.5 * H
        cH = half * (2.0 * bH - half * aH) + kappa * math.sqrt(n * (n - 1)) \
            * P * ell(n - 2, l + 2)(kappa * lam) / lam
    else:
        u = 2.0 * lam * lam
        H = np.exp(-lam * lam)
        Hp = -2.0 * lam * H
        if fam is Family.UNIFORM_B_SPLIT and l > 0:
            cH = (2 * l - 1) * bH / lam - (-1) ** l * 8.0 \
                * math.sqrt(n * (n + l)) * P * ell(n - 1, l)(u)
        else:
            cH = bH / lam \
                + 8.0 * math.sqrt(n * (n - 1)) * P * ell(n - 2, l + 2)(u)
    weight = lam ** (M / 2.0) * H
    return {"f": aH / weight, "fp": bH / weight, "fpp": cH / weight,
            "H": H, "Hp": Hp, "aH": aH, "bH": bH}


# ---------------------------------------------------------------------------
# laser dressing
# ---------------------------------------------------------------------------


# the generator is g (f1' C1 + f2' C2), g = 1 / (2 eps omega)
_NULL_C1 = -sta.ALPHA[0] - sta.PSEUDO @ sta.ALPHA[1]
_NULL_C2 = -sta.ALPHA[1] + sta.PSEUDO @ sta.ALPHA[0]
# (C1 psi, C2 psi) as one product with the 8 x 4 matrix [C1; C2]
_NULL_TURN = sta.signed_gather(np.concatenate([_NULL_C1, _NULL_C2]))


def null_rotation_generator(fdot1, fdot2, eps: float, omega: float) -> Array:
    """Nilpotent generator of the null rotation that dresses a stationary
    state with a plane wave travelling along +z; fdot1 and fdot2 are floats
    or arrays, and the result is [..., 4, 4]."""
    g = 1.0 / (2.0 * eps * omega)
    return g * (np.multiply.outer(fdot1, _NULL_C1)
                + np.multiply.outer(fdot2, _NULL_C2))


_GAMMA = np.stack(sta.GAMMA)
_GAMMA_UP = np.stack(sta.GAMMA_UP)


def null_rotation_lorentz(spec: SolutionSpec, xi) -> Array:
    """Lorentz matrix of a dressed spec's null rotation at phase xi,
    Lambda^mu_nu = Tr(R gamma_nu rev(R) gamma^mu) / 4 with R = 1 + N(xi),
    so that R (v^nu gamma_nu) rev(R) = (Lambda v)^mu gamma_mu: the dressed
    current and spin are Lambda times the static ones at the shifted point.
    xi is a float or an array; the result is [..., 4, 4]."""
    d1, d2 = spec.waveform.fdot(xi)
    rot = sta.ID + null_rotation_generator(d1, d2, eigenvalue(spec),
                                           spec.omega)
    return np.einsum("...ij,njk,...kl,mli->...mn", rot, _GAMMA,
                     sta.reversion(rot), _GAMMA_UP).real / 4.0


def gauge_phase(spec: SolutionSpec, xi):
    """Scalar gauge phase accompanying the null rotation."""
    eps = eigenvalue(spec)
    return -1.0 / (2.0 * eps * spec.omega ** 3) \
        * spec.waveform.gauge_integral(xi)


def coordinate_shift(spec: SolutionSpec, xi):
    """Transverse displacement (x' - x, y' - y) induced by the dressing."""
    eps = eigenvalue(spec)
    f1, f2 = spec.waveform.f(xi)
    scale = 1.0 / (eps * spec.omega ** 2)
    return scale * f1, scale * f2


def xi_of(spec: SolutionSpec, t, z):
    return spec.omega * (t - z)


# ---------------------------------------------------------------------------
# spinors
# ---------------------------------------------------------------------------


def spinor(spec: SolutionSpec):
    """Column-spinor field (t, x, y, z) -> psi for the chosen family.

    t, x, y, z are floats, giving psi[4], or arrays of one shape, giving
    psi[..., 4].  A dressed family is exp(i Phi) (1 + N(xi)) psi(t, x', y',
    z): the stationary field at coordinates shifted by the classical quiver
    motion, turned by the null rotation and carried by the gauge phase.

    The per-spec constants, the normalization among them, are bound here,
    once: a point costs the raw profile and the phase, no cache lookup."""
    base = spec.static_base()
    eps = eigenvalue(base)
    A = base.m + eps
    M = base.M
    # the upper and lower amplitude factors of components 0 and 2
    k0, k2 = A / base.B, base.p_z / base.B
    pair = _pair_kernel(base)

    def static_field(t, x, y, z):
        lam = lam_of_r(base, np.hypot(x, y))
        aH, bH = pair(lam)
        phi = np.arctan2(y, x)
        phase = np.exp(-1j * (eps * t - base.p_z * z) + 0.5j * M * phi)
        return _stack([
            k0 * aH * phase,
            0.0,
            k2 * aH * phase,
            -0.5j * bH * phase * np.exp(1j * phi),
        ])

    if not spec.is_dressed:
        return _as_batch(static_field)
    g = 1.0 / (2.0 * eps * spec.omega)  # as in null_rotation_generator

    def dressed(t, x, y, z):
        xi = xi_of(spec, t, z)
        dx, dy = coordinate_shift(spec, xi)
        d1, d2 = spec.waveform.fdot(xi)
        phi = gauge_phase(spec, xi)
        if not any(np.any(v != 0.0) for v in (dx, dy, d1, d2, phi)):
            return static_field(t, x, y, z)  # exact identity transform
        psi = static_field(t, x + dx, y + dy, z)
        # (1 + N) psi = psi + g (f1' C1 psi + f2' C2 psi), the generator
        # applied to the column: no 4x4 matrix per point
        c12 = sta.gather_product(_NULL_TURN, psi)
        turn = (np.asarray(d1)[..., None] * c12[..., :4]
                + np.asarray(d2)[..., None] * c12[..., 4:])
        return np.exp(1j * phi)[..., None] * (psi + g * turn)

    return _as_batch(dressed)


def _as_batch(field):
    """field, with a point of floats run as the one-element batch: numpy
    rounds some calls on a scalar otherwise than on an array, so this keeps
    a point's value bit for bit its value in any batch."""
    def column(t, x, y, z):
        if np.ndim(t) + np.ndim(x) + np.ndim(y) + np.ndim(z):
            return field(t, x, y, z)
        return field(*np.array([[t], [x], [y], [z]], dtype=float))[0]

    return column


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
    B = spec.B
    base = spec.static_base()
    xp, yp, xi = _primed(spec, t, x, y, z)
    rp = np.hypot(xp, yp)
    fam = base.family
    zero = _zero(t, x, y, z)
    static = radiation = laser = (zero,) * 4
    if fam in (Family.UNIFORM_B, Family.UNIFORM_B_SPLIT):
        coeff = B ** 2 / 2.0
        static = (zero, -coeff * yp, coeff * xp, zero)
    elif fam is Family.RADIAL_B:
        if np.any(rp == 0.0):
            raise OnAxisError("potential singular on the symmetry axis")
        coeff = B / (4.0 * rp)
        static = (zero, -coeff * yp, coeff * xp, zero)
    if spec.is_dressed:
        eps = eigenvalue(base)
        d1, d2 = spec.waveform.fdot(xi)
        laser = (zero, d1 / spec.omega, d2 / spec.omega, zero)
        if fam is Family.UNIFORM_B:
            a0 = -B ** 2 * (xp * d2 - yp * d1) / (2.0 * eps * spec.omega)
            radiation = (a0, zero, zero, a0)
        elif fam is Family.RADIAL_B:
            a0 = -B * (xp * d2 - yp * d1) / (4.0 * eps * spec.omega * rp)
            radiation = (a0, zero, zero, a0)
    return {"static": _stack(static),
            "radiation": _stack(radiation),
            "laser": _stack(laser)}


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


def fields(spec: SolutionSpec, t, x, y, z) -> FieldSample:
    """Closed-form electromagnetic fields, at float or array coordinates;
    their source densities are `sources`."""
    B = spec.B
    base = spec.static_base()
    fam = base.family
    xp, yp, xi = _primed(spec, t, x, y, z)
    rp = np.hypot(xp, yp)
    zero = _zero(t, x, y, z)
    eE = [zero] * 3
    eB = [zero] * 3
    if fam in (Family.UNIFORM_B, Family.UNIFORM_B_SPLIT):
        eB[2] = eB[2] + B ** 2
    elif fam is Family.RADIAL_B:
        if np.any(rp == 0.0):
            raise OnAxisError("field singular on the symmetry axis")
        eB[2] = eB[2] + B / (4.0 * rp)
    if spec.is_dressed:
        eps = eigenvalue(base)
        d1, d2 = spec.waveform.fdot(xi)
        dd1, dd2 = spec.waveform.fddot(xi)
        eE = [eE[0] - dd1, eE[1] - dd2, eE[2]]
        eB = [eB[0] + dd2, eB[1] - dd1, eB[2]]
        if fam in (Family.UNIFORM_B, Family.RADIAL_B):
            k = B ** 2 / (eps * spec.omega) if fam is Family.UNIFORM_B \
                else B / (4.0 * rp * eps * spec.omega)
            eE = [eE[0] + k * d2, eE[1] + k * -d1, eE[2]]
            eB = [eB[0] + k * d1, eB[1] + k * d2, eB[2]]
    return FieldSample(_stack(eE), _stack(eB))


def sources(spec: SolutionSpec, t, x, y, z) -> tuple[Array, Array]:
    """The closed-form source densities of `fields`, (e mu0 rho_e,
    e mu0 J_e[..., 3]), at float or array coordinates: zero but for the
    loop-like current of the 1/r field and its dressing."""
    B = spec.B
    base = spec.static_base()
    zero = _zero(t, x, y, z)
    if base.family is not Family.RADIAL_B:
        return zero, _stack([zero] * 3)
    xp, yp, xi = _primed(spec, t, x, y, z)
    rp = np.hypot(xp, yp)
    if np.any(rp == 0.0):
        raise OnAxisError("field singular on the symmetry axis")
    if not spec.is_dressed:
        return zero, _stack([zero + (B / 4.0) * -yp / rp ** 3,
                                    zero + (B / 4.0) * xp / rp ** 3,
                                    zero])
    eps = eigenvalue(base)
    d1, d2 = spec.waveform.fdot(xi)
    rho_e = B * (yp * d1 - xp * d2) \
        / (4.0 * eps * spec.omega * rp ** 3)
    J_e = [(B / (4.0 * rp ** 3)) * v
           for v in (-yp, xp, (yp * d1 - xp * d2) / (eps * spec.omega))]
    return rho_e, _stack(J_e)


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
    r = np.hypot(x, y)
    k = stationary_bilinears(base)(*_pair_kernel(base)(lam_of_r(base, r)))
    jphi = k["J_phi"]
    # J_phi along the azimuthal unit vector; on the axis, where x = y = 0,
    # r is replaced by 1 and the transverse current is zero
    r = r + (r == 0.0)
    jx, jy = -jphi * y / r, jphi * x / r
    fac = base.p_z / (base.m + eigenvalue(base))
    J = _stack([k["J0"], jx, jy, k["J_z"]])
    rho_s = _stack([k["J_z"], fac * jx, fac * jy, k["rho_s3"]])
    return {"J": J, "scalar": k["scalar"], "rho_s": rho_s, "J_phi": jphi}


def velocity_spin(spec: SolutionSpec, t, x, y, z) -> tuple[Array, Array]:
    """Unit 4-velocity and unit spin vector at float or array coordinates
    (closed form), each [..., 4]: for a dressed family, the Lorentz matrix
    of the null rotation (`null_rotation_lorentz`) applied, point by point,
    to the stationary vectors at the shifted point.  Raises OnAxisError
    naming the first point where rho = 0."""
    if not spec.is_dressed:
        bil = bilinear_fields(spec, t, x, y, z)
        rho = np.abs(bil["scalar"])[..., None]
        if (rho == 0.0).any():
            first = np.flatnonzero(rho == 0.0)[0]
            raise OnAxisError(f"null current circle at point {first}: "
                              "velocity undefined")
        return bil["J"] / rho, bil["rho_s"] / rho
    # dressed: the null rotation's Lorentz map of the stationary vectors
    xi = xi_of(spec, t, z)
    dx, dy = coordinate_shift(spec, xi)
    v_s, s_s = velocity_spin(spec.static_base(), t, x + dx, y + dy, z)
    lorentz = null_rotation_lorentz(spec, xi)
    return (np.einsum("...ij,...j->...i", lorentz, v_s),
            np.einsum("...ij,...j->...i", lorentz, s_s))


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
    Every average comes from one call of the Gauss-Laguerre rule on the
    stationary bilinears.
    """
    base = spec.static_base()
    eps = eigenvalue(base)
    uniform = base.family in (Family.UNIFORM_B, Family.UNIFORM_B_SPLIT)

    pair, bilinears = _pair_kernel(base), stationary_bilinears(base)

    def g(lam):
        k = bilinears(*pair(lam))
        weight = math.sqrt(2.0) * lam if uniform else 1.0
        return np.stack([k["scalar"], k["J0"], weight * k["J_phi"], k["J_z"],
                         r_of_lam(base, lam) * k["J_phi"]], axis=-1)

    rho, j0, j_phi, j_z, r_j_phi = _transverse_average(base, g)
    out = {"rho": rho, "rho_closed": base.m / eps, "norm": j0, "J_phi": j_phi}
    if base.family is Family.UNIFORM_B:
        out["J_phi_closed"] = -math.sqrt(2.0) * base.B * base.n / eps
    elif base.family is Family.UNIFORM_B_SPLIT:
        out["J_phi_closed"] = -math.sqrt(2.0) * base.B * (base.n + base.l) / eps
    elif base.family is Family.RADIAL_B:
        n, M = base.n, base.M
        out["J_phi_closed"] = -base.B * n * (1 + n + M) \
            / ((1 + 2 * n + M) ** 2 * eps)
    if spec.is_dressed:
        out.update(_dressed_averages(spec, xi, j0, j_z, r_j_phi))
    return out


def _dressed_averages(spec: SolutionSpec, xi: float, j0: float, j_z: float,
                      r_j_phi: float) -> dict:
    """<J_z> and transverse centroid of a dressed state at phase xi.

    Over the primed plane the dressed current is Lambda(xi) times the
    stationary one, and by azimuthal symmetry the stationary plane averages
    are <J> = (<J0>, 0, 0, <J_z>), <x' J> = (0, 0, <r J_phi>/2, 0) and
    <y' J> = (0, -<r J_phi>/2, 0, 0); j0, j_z and r_j_phi are those
    stationary averages."""
    base = spec.static_base()
    eps = eigenvalue(base)
    d1, d2 = spec.waveform.fdot(xi)
    lorentz = null_rotation_lorentz(spec, xi)
    current = lorentz @ np.array([j0, 0.0, 0.0, j_z])
    cx = lorentz @ np.array([0.0, 0.0, r_j_phi / 2.0, 0.0])
    cy = lorentz @ np.array([0.0, -r_j_phi / 2.0, 0.0, 0.0])
    tan2 = (math.hypot(d1, d2) / (2.0 * eps * spec.omega)) ** 2
    out = {
        "J_z": current[3],
        "J_z_closed": (d1 * d1 + d2 * d2)
        / (2.0 * eps ** 2 * spec.omega ** 2),
        "centroid": (cx[0], cy[0]),
        "tan2_half_angle": tan2,
    }
    if base.family is Family.UNIFORM_B:
        coeff = base.n / (spec.omega * eps ** 2)
        out["centroid_closed"] = (coeff * d2, -coeff * d1)
    elif base.family is Family.RADIAL_B:
        n, M = base.n, base.M
        coeff = 3.0 * n * (n + M + 1) \
            / (2.0 * (M + 1) * spec.omega * eps ** 2)
        out["centroid_closed"] = (coeff * d2, -coeff * d1)
    return out


# ---------------------------------------------------------------------------
# catalog description (CLI surface)
# ---------------------------------------------------------------------------


_N = {"n": "principal index"}
_L = {"l": "orbital index, winding M = 2l"}
_WINDING = {"M": "winding (>= 0)"}
_BESSEL = {**_L, "pperp": "transverse momentum (> 0)"}
# family -> (description, its own parameters)
_LISTING = {
    Family.FREE_BESSEL: ("field-free Bessel beam", _BESSEL),
    Family.UNIFORM_B: ("uniform axial magnetic field, levels degenerate in l",
                       {**_N, **_L}),
    Family.UNIFORM_B_SPLIT: ("uniform axial magnetic field, levels split by l",
                             {**_N, "l": "orbital index, winding M = -2l"}),
    Family.RADIAL_B: ("axial magnetic field falling off as 1/r",
                      {**_N, **_WINDING}),
    Family.VOLKOV_BESSEL: ("Bessel beam dressed by a plane wave (Volkov-type)",
                           _BESSEL),
    Family.REDMOND: ("uniform magnetic field plus co-propagating plane wave",
                     {**_N, **_L}),
    Family.RADIAL_B_LASER: ("1/r magnetic field plus co-propagating plane "
                            "wave", {**_N, **_WINDING}),
}
_COMMON = {"B": "field-strength constant (energy units)",
           "mass": "electron mass"}
_STATIONARY = {"pz": "longitudinal momentum"}
_DRESSING = {"waveform": "circular | linear | pulse, with amplitude",
             "omega": "plane-wave frequency"}


def describe_families() -> list[dict]:
    """Parameter schema of every family, for the command-line catalog: the
    `eval` option keys it takes (a dressed family is built at p_z = 0)."""
    return [{"family": fam.value, "description": text,
             "parameters": {**_COMMON, **own,
                            **(_DRESSING if fam in DRESSED_BASE
                               else _STATIONARY)}}
            for fam, (text, own) in _LISTING.items()]
