"""Closed-form evaluators for the seven vortex-beam solution families.

Four are stationary, at any longitudinal momentum p_z: the free Bessel beam
(free-bessel), the uniform axial magnetic field in its two windings
(uniform-b, levels independent of the orbital index, and uniform-b-split,
levels split by it) and the 1/r field of a loop-like azimuthal current
(radial-b).  Every fact that tells them apart (the level's transverse term
K, the winding rule, the pair kernel and its amplitude, the quadrature,
f'', the field, the closed-form averages and the catalog text) is one
record of the table `_FAMILIES`, read in place of a branch on the family.
The other three (volkov-bessel, redmond, radial-b-laser) dress one of them
(`DRESSED_BASE`, whose record they read) with a plane wave along the
magnetic axis by a null rotation, at p_z = 0.

Everything is in natural units (hbar = c = 1) and expressed through the
dimensionless radius lam = B sqrt(x^2+y^2) / 2; potentials carry the
coupling folded in (eA throughout).  For odd winding number M the spinor
phase carries a half-integer winding exp(i M phi / 2) with its branch cut
on the negative x axis.

Each dressed evaluator reads its plane wave from one evaluation per call,
`_plane_wave` (the phase xi, the quiver shift and f').  The potential,
fields and sources read a magnetic family's field through one description,
`_axial` (B_z and its azimuthal potential at the point shifted by the
dressing), the one place that refuses the 1/r field's axis.

Validity envelope (swept against 30-digit mpmath by the tests): integer
n, l and M; the magnetic families up to Laguerre degree 2n + l =
MAX_DEGREE = 800 (l = M in the 1/r field; past it, DomainError) at any
radius, a profile below the float range being exactly zero; the free and
Volkov beams for Bessel order l + 2 <= 200 and argument p_perp r <= 1e4, r
shifted by the dressing, a free profile past the float range (near the axis
at large l and p_perp) raising DomainError; the dressed families at p_z =
0, omega > 0 with 2 eps omega^3 a normal float, and any amplitude, the
pulse while its envelope is negligible past center +- 12 widths.

The evaluators (`spinor` fields, `profile`, `potential_split`/`potential`,
`fields` (e(E, B) as one array, [..., 6]), `sources` (the 4-current
e mu0 (rho_e, J_e), [..., 4]), `bilinear_fields`, `velocity_spin`,
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
from collections.abc import Callable
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


@dataclass(frozen=True)
class SolutionSpec:
    """Parameter record selecting one catalog family.

    n is the principal quantum number.  The orbital number is `l` for the
    Bessel and uniform-field families (winding M = 2l, or M = -2l for the
    split family) and `M >= 0` directly for the radial-field families,
    whose `l`, if given beside M, is 0 or M.  n, l and M are integers (a
    bool is not one).
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
        record = _FAMILIES[DRESSED_BASE.get(fam, fam)]
        for name in ("n", "l") if self.M is None else ("n", "l", "M"):
            value = getattr(self, name)
            if isinstance(value, bool) \
                    or not isinstance(value, (int, np.integer)):
                raise ValueError(f"need an integer {name}, got {value!r}")
            object.__setattr__(self, name, int(value))
        # written so that NaN fails: NaN <= 0.0 is False as well
        if self.n < 0 or not 0.0 < self.B < math.inf \
                or not 0.0 < self.m < math.inf:
            raise ValueError("need n >= 0, B > 0, m > 0, B and m finite")
        for name in ("p_z", "p_perp", "omega"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"need a finite {name}")
        if record.winding is None:
            M = self.l if self.M is None else self.M
            if M < 0:
                raise ValueError("radial-b families need M >= 0")
            if self.l not in (0, M):
                raise ValueError(f"inconsistent l={self.l} for {fam.value} "
                                 f"M={M}: l is 0 or M")
            object.__setattr__(self, "l", M)
        else:
            if self.l < 0:
                raise ValueError("need l >= 0")
            M = record.winding * self.l
            if self.M is not None and self.M != M:
                raise ValueError(f"inconsistent M={self.M} for {fam.value}")
        object.__setattr__(self, "M", M)
        if self.is_dressed:
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
        # p_perp^2 as the level carries it, eps^2 - m^2 - p_z^2
        if "pperp" in record.params and not (self.p_perp > 0.0
                and level ** 2 - self.m ** 2 - self.p_z ** 2 > 0.0):
            raise ValueError("free beam needs p_perp > 0, its square not "
                             "rounded away beside m^2 + p_z^2")
        # 2 eps omega^3 divides the gauge phase, and the dressing's other
        # divisors, 2 eps omega and eps omega^2, lie between it and eps (a
        # product, unlike a power, overflows to inf)
        cube = 2.0 * level * self.omega * self.omega * self.omega
        if self.is_dressed and not sys.float_info.min <= cube < math.inf:
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
    """Energy of the state, eps = sqrt((m^2 + p_z^2) + K), K the family's
    transverse term."""
    return math.sqrt((spec.m ** 2 + spec.p_z ** 2) + _record(spec).K(spec))


def lam_of_r(spec: SolutionSpec, r: float) -> float:
    return spec.B * r / 2.0


def r_of_lam(spec: SolutionSpec, lam: float) -> float:
    return 2.0 * lam / spec.B


def radial_kappa(spec: SolutionSpec) -> float:
    """kappa = (M+1)/(2n+M+1): the 1/r-field profile is a Laguerre
    polynomial in kappa lam."""
    base = spec.static_base()
    return (base.M + 1) / (2 * base.n + base.M + 1)


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

MAX_DEGREE = 800  # of the magnetic families (see the module docstring)


@lru_cache(maxsize=4096)
def normalization(spec: SolutionSpec) -> float:
    """The amplitude P of `_pair_kernel`'s pair, the one constant a state's
    profile carries.  A magnetic state takes P = B/sqrt(pi eps (eps + m))
    in the uniform field and P = B kappa/sqrt(4 pi (2n+M+1) eps (eps + m))
    in the 1/r field, which make 2 pi int J^0 lam dlam = 1 (the paper's N
    of f is P times a ratio of factorials); a state past MAX_DEGREE raises
    DomainError.  The free Bessel beam, which has no finite transverse
    norm, takes the per-area constant B/(sqrt(2) eps sqrt(m/eps + 1)) at
    every p_z.  P = B / the record's scale."""
    base = spec.static_base()
    record, n, l = _record(base), base.n, base.l
    if record.degree is not None and 2 * n + l > MAX_DEGREE:
        raise sf.DomainError(
            f"{base.family.value} n={n} {record.orbital}={l}: Laguerre degree"
            f" 2n + {record.orbital} = {2 * n + l} is past the validity "
            f"envelope ({MAX_DEGREE})")
    return base.B / record.scale(base, eigenvalue(base))


def _pair_kernel(spec: SolutionSpec):
    """lam -> (aH, bH) = lam^(M/2) (f, f') H, the normalized phase-free
    pair the spinor reads, at lam >= 0 (a float or an array), with the
    spec's constants bound once, the amplitude P = `normalization` among
    them.  The free beam is P (J_l(q lam), -q J_(l+1)(q lam)).  The
    magnetic families take both from the Laguerre functions of
    `sf.laguerre_function`, so no growing polynomial meets a decaying
    weight: with u = 2 lam^2 in the uniform field, u = kappa lam in the 1/r
    field,

        uniform-b:  aH = P ell_n^l,  bH = -2 sqrt(2n) P ell_(n-1)^(l+1),
        split:      P (-1)^l (ell_n^l, 2 sqrt(2(n+l)) ell_n^(l-1)),
        radial-b:   aH = P ell_n^M,  bH = (1-kappa)/2 aH
                                 - kappa sqrt(n) P ell_(n-1)^(M+1)/sqrt(u).

    The split state with l = 0 is the uniform-b one (same M, level, f)."""
    base = spec.static_base()
    return _record(base).pair(base, normalization(base))


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
    record = _record(base)
    if record.degree is None:
        raise NotNormalizable("free Bessel beam averages are undefined")
    lam, weights = record.variable(
        base, *_laguerre_rule(max(96, record.degree(base) // 2 + 1)))
    return 2.0 * math.pi * (weights @ g(lam))


def profile(spec: SolutionSpec, lam) -> dict:
    """Normalized profile data at lam, a float or an array: the pair aH, bH
    of `_pair_kernel`, and the paper convention's f, its lam-derivatives
    fp, fpp and the weight H with its derivative Hp.  The magnetic
    families take f from the same Laguerre functions, at lam > 0 where H
    does not underflow, and f'' H from their record's `cH`."""
    base = spec.static_base()
    record, P = _record(base), normalization(base)
    if record.cH is None:  # the free beam, which has no weight
        return _bessel_profile(base, P, lam)
    aH, bH = _pair_kernel(base)(lam)
    H, Hp, cH = record.cH(base, P, lam, aH, bH)
    weight = lam ** (base.M / 2.0) * H
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


def null_rotation_lorentz(fdot1, fdot2, eps: float, omega: float) -> Array:
    """Lorentz matrix Lambda^mu_nu of the null rotation R = 1 + N that
    `null_rotation_generator` builds from the same arguments, R (v^nu
    gamma_nu) rev(R) = (Lambda v)^mu gamma_mu, in closed form 1 + L + L^2/2:
    with a = f' / (eps omega) and s = |a|^2 / 2, its rows are (1+s, -a1,
    -a2, -s), (-a1, 1, 0, a1), (-a2, 0, 1, a2) and (s, -a1, -a2, 1-s).
    fdot1 and fdot2 are floats or arrays; the result is [..., 4, 4]."""
    a1, a2 = fdot1 / (eps * omega), fdot2 / (eps * omega)
    s = 0.5 * (a1 * a1 + a2 * a2)
    # _stack fills the trailing axis, so each part is a column nu
    return _stack([_stack(column) for column in (
        (1.0 + s, -a1, -a2, s), (-a1, 1.0, 0.0, -a1),
        (-a2, 0.0, 1.0, -a2), (-s, a1, a2, 1.0 - s))])


def _plane_wave(spec: SolutionSpec, t, z):
    """A dressed spec's plane wave at (t, z), the one evaluation its
    readers share: the phase xi = omega (t - z), the quiver shift
    (x' - x, y' - y) = f(xi) / (eps omega^2) and f'(xi)."""
    xi = spec.omega * (t - z)
    f1, f2 = spec.waveform.f(xi)
    scale = 1.0 / (eigenvalue(spec) * spec.omega ** 2)
    return xi, (scale * f1, scale * f2), spec.waveform.fdot(xi)


# ---------------------------------------------------------------------------
# spinors
# ---------------------------------------------------------------------------


def spinor(spec: SolutionSpec, *, pair=None):
    """Column-spinor field (t, x, y, z) -> psi for the chosen family.

    t, x, y, z are floats, giving psi[4], or arrays of one shape, giving
    psi[..., 4].  A dressed family is exp(i Phi) (1 + N(xi)) psi(t, x', y',
    z): the stationary field at coordinates shifted by the classical quiver
    motion (`_plane_wave`), turned by the null rotation and carried by the
    gauge phase Phi = -G(xi) / (2 eps omega^3), G the waveform's
    `gauge_integral`.

    The per-spec constants, the amplitude `normalization` among them, are
    bound here, once: a point costs the raw profile and the phase, no cache
    lookup.  `pair` is the phase-free pair lam -> (aH, bH) the field reads,
    `_pair_kernel(spec)` by default; `verify.FAULTS` passes a perturbed one."""
    base = spec.static_base()
    eps = eigenvalue(base)
    A = base.m + eps
    M = base.M
    # the upper and lower amplitude factors of components 0 and 2
    k0, k2 = A / base.B, base.p_z / base.B
    pair = _pair_kernel(base) if pair is None else pair

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
    gauge = -1.0 / (2.0 * eps * spec.omega ** 3)

    def dressed(t, x, y, z):
        xi, (dx, dy), (d1, d2) = _plane_wave(spec, t, z)
        phi = gauge * spec.waveform.gauge_integral(xi)
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
    """(x', y', xi, f'(xi)): the point shifted by `_plane_wave`, its phase
    and the wave's slope there; (x, y, 0.0, (0.0, 0.0)) if not dressed."""
    if not spec.is_dressed:
        return x, y, 0.0, (0.0, 0.0)
    xi, (dx, dy), fdot = _plane_wave(spec, t, z)
    return x + dx, y + dy, xi, fdot


def _axial(spec: SolutionSpec, xp, yp):
    """A magnetic family's static field at its primed point (x', y') as
    its record's (b, d, n): B_z = b / d and eA_phi / r = B_z / n, (B^2, 1,
    2) in the uniform field and (B, 4 r', 1) in the 1/r field, which raises
    OnAxisError at r' = 0 (for a dressed state, the shifted axis); None for
    the free beams.  d keeps the power of two, so that each value rounds as
    a formula written out per family would."""
    axial = _record(spec).axial
    return None if axial is None else axial(spec, xp, yp)


def potential_split(spec: SolutionSpec, t, x, y, z) -> dict:
    """The potential split into static/radiation/laser pieces (each a
    4-component eA array, [..., 4] for array coordinates): B_z/n (-y', x')
    at the primed point, -(eA_static . f') / (eps omega) and f' / omega."""
    xp, yp, _, (d1, d2) = _primed(spec, t, x, y, z)
    zero = _zero(t, x, y, z)
    static = radiation = laser = (zero,) * 4
    axial = _axial(spec, xp, yp)
    if axial is not None:
        b, d, n = axial
        coeff = b / (n * d)
        static = (zero, -coeff * yp, coeff * xp, zero)
    if spec.is_dressed:
        eps = eigenvalue(spec)
        laser = (zero, d1 / spec.omega, d2 / spec.omega, zero)
        if axial is not None:
            a0 = -b * (xp * d2 - yp * d1) / (n * eps * spec.omega * d)
            radiation = (a0, zero, zero, a0)
    return {"static": _stack(static),
            "radiation": _stack(radiation),
            "laser": _stack(laser)}


def potential(spec: SolutionSpec, t, x, y, z) -> Array:
    """Total driving potential eA^mu at a lab-frame point, or eA[..., 4]
    at array coordinates."""
    parts = potential_split(spec, t, x, y, z)
    return parts["static"] + parts["radiation"] + parts["laser"]


def fields(spec: SolutionSpec, t, x, y, z) -> Array:
    """Closed-form electromagnetic fields e(E, B), [..., 6], e E first, at
    float or array coordinates: B_z at the primed point, the plane wave,
    and B_z's dressing, a null field of amplitude B_z / (eps omega); their
    sources are `sources`."""
    xp, yp, xi, (d1, d2) = _primed(spec, t, x, y, z)
    zero = _zero(t, x, y, z)
    eE = [zero] * 3
    eB = [zero] * 3
    axial = _axial(spec, xp, yp)
    if axial is not None:
        b, d, _ = axial
        eB[2] = eB[2] + b / d
    if spec.is_dressed:
        eps = eigenvalue(spec)
        dd1, dd2 = spec.waveform.fddot(xi)
        eE = [eE[0] - dd1, eE[1] - dd2, eE[2]]
        eB = [eB[0] + dd2, eB[1] - dd1, eB[2]]
        if axial is not None:
            k = b / (d * eps * spec.omega)
            eE = [eE[0] + k * d2, eE[1] + k * -d1, eE[2]]
            eB = [eB[0] + k * d1, eB[1] + k * d2, eB[2]]
    return _stack(eE + eB)


def sources(spec: SolutionSpec, t, x, y, z) -> Array:
    """The closed-form sources of `fields` as one 4-current,
    e mu0 (rho_e, J_e), [..., 4], at float or array coordinates: zero but
    for the loop-like current of the 1/r field and its dressing."""
    zero = _zero(t, x, y, z)
    if not _record(spec).singular:  # a uniform B_z has none
        return _stack([zero] * 4)
    xp, yp, _, (d1, d2) = _primed(spec, t, x, y, z)
    b, d, _ = _axial(spec, xp, yp)
    rp3 = (d / 4.0) ** 3  # d = 4 r', so d / 4 is r' exactly
    if not spec.is_dressed:
        return _stack([zero, zero + (b / 4.0) * -yp / rp3,
                       zero + (b / 4.0) * xp / rp3, zero])
    eps = eigenvalue(spec)
    rho_e = b * (yp * d1 - xp * d2) / (4.0 * eps * spec.omega * rp3)
    J_e = [(b / (4.0 * rp3)) * v
           for v in (-yp, xp, (yp * d1 - xp * d2) / (eps * spec.omega))]
    return _stack([rho_e, *J_e])


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
    xp, yp, _, (d1, d2) = _primed(spec, t, x, y, z)
    v_s, s_s = velocity_spin(spec.static_base(), t, xp, yp, z)
    lorentz = null_rotation_lorentz(d1, d2, eigenvalue(spec), spec.omega)
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
    record, eps = _record(base), eigenvalue(base)
    pair, bilinears = _pair_kernel(base), stationary_bilinears(base)

    def g(lam):
        k = bilinears(*pair(lam))
        return np.stack([k["scalar"], k["J0"], record.radius(lam) * k["J_phi"],
                         k["J_z"], r_of_lam(base, lam) * k["J_phi"]], axis=-1)

    rho, j0, j_phi, j_z, r_j_phi = _transverse_average(base, g)
    out = {"rho": rho, "rho_closed": base.m / eps, "norm": j0, "J_phi": j_phi,
           "J_phi_closed": record.J_phi(base, eps)}
    if not spec.is_dressed:
        return out
    # over the primed plane the dressed current is Lambda(xi) times the
    # stationary one, and by azimuthal symmetry the stationary plane averages
    # are <J> = (<J0>, 0, 0, <J_z>), <x' J> = (0, 0, <r J_phi>/2, 0) and
    # <y' J> = (0, -<r J_phi>/2, 0, 0)
    d1, d2 = spec.waveform.fdot(xi)
    lorentz = null_rotation_lorentz(d1, d2, eps, spec.omega)
    current = lorentz @ np.array([j0, 0.0, 0.0, j_z])
    cx = lorentz @ np.array([0.0, 0.0, r_j_phi / 2.0, 0.0])
    cy = lorentz @ np.array([0.0, -r_j_phi / 2.0, 0.0, 0.0])
    coeff = record.centroid(base, spec.omega, eps)
    out.update({
        "J_z": current[3],
        "J_z_closed": (d1 * d1 + d2 * d2) / (2.0 * eps ** 2 * spec.omega ** 2),
        "centroid": (cx[0], cy[0]),
        "tan2_half_angle": (math.hypot(d1, d2) / (2.0 * eps * spec.omega)) ** 2,
        "centroid_closed": (coeff * d2, -coeff * d1)})
    return out


# ---------------------------------------------------------------------------
# the stationary families: one record each
# ---------------------------------------------------------------------------


def _record(spec: SolutionSpec) -> "_Stationary":
    """The record of the family spec is, or of the one it dresses."""
    return _FAMILIES[spec.static_base().family]


def _bessel_pair(base: SolutionSpec, P: float):
    # f = lam^-l J_l(q lam), q = 2 p_perp / B from p_perp itself, not from
    # the level, which cancels when p_perp is small beside m
    l, q = base.l, 2.0 * base.p_perp / base.B

    def bessel(lam):
        vals = sf.bessel_j_all(l + 2, q * lam)
        return P * vals[l], P * (-q * vals[l + 1])

    return bessel


# the ladder's f'' cancels its terms by up to 2 l (l+1)^2 / x^2; where
# that passes this, which the axis does at any l, f and its derivatives
# come from the ascending series instead
_LADDER_LOSS = 1e4


def _bessel_profile(base: SolutionSpec, P: float, lam) -> dict:
    # f = lam^-l J_l(x), x = q lam: off the axis, f'' from the five-point
    # Bessel ladder (kept independent of the radial equation being
    # verified); near it, where J_l and lam^l underflow together and the
    # ladder cancels, f, f' and f'' from `_bessel_series`
    l, q = base.l, 2.0 * base.p_perp / base.B
    x = q * np.asarray(lam, dtype=float)
    vals = sf.bessel_j_all(l + 2, x)
    jl, jl1 = vals[l], vals[l + 1]
    near = 2 * l * (l + 1) ** 2 >= _LADDER_LOSS * x * x  # lam = 0 included
    r = np.where(near, 1.0, lam)
    jlm2 = vals[l - 2] if l >= 2 else ((-1) ** (2 - l)) * vals[2 - l]
    jlm1 = vals[l - 1] if l >= 1 else -vals[1]
    jdd = 0.25 * (jlm2 - 2.0 * jl + vals[l + 2])
    jd = 0.5 * (jlm1 - jl1)
    ladder = (_per_power(jl, r, l), _per_power(-q * jl1, r, l),
              _per_power(q * q * jdd, r, l)
              - _per_power(2.0 * l * q * jd, r, l + 1)
              + _per_power(l * (l + 1) * jl, r, l + 2))
    series = np.zeros((3, *x.shape))
    if near.any():
        series[:, near] = _bessel_series(l, q, P, x[near])
    f, fp, fpp = (np.where(near, s, P * d)[()] for s, d in zip(series, ladder))
    if not all(np.isfinite(v).all() for v in (f, fp, fpp)):
        raise sf.DomainError(
            f"free-bessel l={l} p_perp={base.p_perp}: the profile "
            f"lam^-l J_l(q lam) leaves the float range")
    return {"f": f, "fp": fp, "fpp": fpp, "H": 1.0, "Hp": 0.0,
            "aH": P * jl, "bH": P * (-q * jl1)}


def _per_power(v, r, n):
    # v / r**n; where r**n is below the normal floats, as v / m**n times
    # 2**(-n e), r = m 2**e, so that a quotient within the float range
    # keeps its digits
    power = r ** n
    low = power < sys.float_info.min
    if not low.any():
        return v / power
    m, e = np.frexp(r)
    with np.errstate(over="ignore"):  # past the float range: not finite
        return np.where(low, np.ldexp(v / m ** n, -n * e),
                        v / np.where(low, 1.0, power))


def _bessel_series(l: int, q: float, P: float, x):
    # P (f, f', f'') of f = lam^-l J_l(q lam) at x = q lam, from the
    # ascending series f = C sum_k t_k, t_k = (-x^2/4)^k l! / (k! (k+l)!),
    # C = (q/2)^l / l!: f' = -C q x/2 sum_k t_k / (k+l+1) and f'' = -C q^2/2
    # sum_k (2k+1) t_k / (k+l+1).  Near the axis x^2/4 <= 2 (l+1), so the
    # terms fall from the first few on and barely cancel; C is formed in
    # logarithms, so that neither (q/2)^l nor l! overflows on the way
    y = 0.25 * x * x
    term, sums = np.ones_like(x), np.zeros((3, *x.shape))
    for k in range(64):
        share = term / (k + l + 1)
        sums += (term, share, (2 * k + 1) * share)
        if not np.any(np.abs(term) > 1e-17 * np.abs(sums[0])):
            break
        term = term * -y / ((k + 1) * (k + 1 + l))
    with np.errstate(all="ignore"):  # past the float range: not finite
        pc = P * np.exp(l * np.log(q / 2.0) - math.lgamma(l + 1))
        return pc * sums[0], -pc * (0.5 * q * x * sums[1]), \
            -pc * (0.5 * q * q * sums[2])


def _landau_pair(base: SolutionSpec, P: float):
    # a state winding against the flow (M = -2l < 0, the split family at
    # l > 0) takes its lower function, and f'', from other Laguerre functions
    n, l, ell = base.n, base.l, sf.laguerre_function
    ell_a = ell(n, l)
    if base.M < 0:
        P = (-1) ** l * P
        kb, ell_b = 2.0 * math.sqrt(2.0 * (n + l)) * P, ell(n, l - 1)
    else:
        kb, ell_b = -2.0 * math.sqrt(2.0 * n) * P, ell(n - 1, l + 1)

    def uniform(lam):
        u = 2.0 * lam * lam
        return P * ell_a(u), kb * ell_b(u)

    return uniform


def _landau_cH(base: SolutionSpec, P: float, lam, aH, bH):
    n, l, ell = base.n, base.l, sf.laguerre_function
    u, H = 2.0 * lam * lam, np.exp(-lam * lam)
    if base.M < 0:
        cH = (2 * l - 1) * bH / lam - (-1) ** l * 8.0 \
            * math.sqrt(n * (n + l)) * P * ell(n - 1, l)(u)
    else:
        cH = bH / lam + 8.0 * math.sqrt(n * (n - 1)) * P * ell(n - 2, l + 2)(u)
    return H, -2.0 * lam * H, cH


def _radial_pair(base: SolutionSpec, P: float):
    n, l, kappa, ell = base.n, base.l, radial_kappa(base), sf.laguerre_function
    half, kb = 0.5 * (1.0 - kappa), kappa * math.sqrt(n) * P
    ell_a, ell_b = ell(n, l), ell(n - 1, l + 1)
    # ell_(n-1)^(M+1)(u) / sqrt(u) at u = 0
    axis = math.sqrt(n) if l == 0 else 0.0

    def radial(lam):
        u = kappa * lam
        aH = P * ell_a(u)
        on_axis = u == 0.0
        tail = ell_b(u) / (u + on_axis) ** 0.5 + axis * on_axis
        return aH, half * aH - kb * tail

    return radial


def _radial_cH(base: SolutionSpec, P: float, lam, aH, bH):
    n, l, kappa = base.n, base.l, radial_kappa(base)
    H, half = np.exp(-lam / 2.0), 0.5 * (1.0 - kappa)
    cH = half * (2.0 * bH - half * aH) + kappa * math.sqrt(n * (n - 1)) \
        * P * sf.laguerre_function(n - 2, l + 2)(kappa * lam) / lam
    return H, -0.5 * H, cH


def _radial_field(spec: SolutionSpec, xp, yp):
    rp = np.hypot(xp, yp)
    if np.any(rp == 0.0):
        raise OnAxisError("the 1/r field is singular on its axis, r' = 0")
    return spec.B, 4.0 * rp, 1


@dataclass(frozen=True)
class _Stationary:
    """One stationary family's facts, which the evaluators read in place of
    a branch on the family; a dressed family is its base's record plus the
    dressing.  base is the stationary spec and P its `normalization`.  The
    free beam, which has no weight, norm or field, leaves those None."""

    text: str  # `describe_families`' description
    laser: str | None  # and the dressed family's
    params: dict  # its own `eval` options; "pperp": it reads p_perp
    K: Callable  # spec -> the transverse term, eps^2 = (m^2 + p_z^2) + K
    winding: int | None  # M = winding l; None: M given, l is 0 or M
    pair: Callable  # (base, P) -> `_pair_kernel`'s kernel
    scale: Callable  # (base, eps) -> B / P
    orbital: str = "l"  # the orbital number's name
    cH: Callable | None = None  # (base, P, lam, aH, bH) -> H, H', cH
    degree: Callable | None = None  # base -> degree of `averages`' integrand
    variable: Callable | None = None  # (base, u, w) -> lam, w at nodes u
    radius: Callable | None = None  # lam -> `averages`' weight of J_phi
    J_phi: Callable | None = None  # (base, eps) -> <J_phi> in closed form
    centroid: Callable | None = None  # (base, omega, eps) -> dressed <x>/f2'
    axial: Callable | None = None  # (spec, x', y') -> `_axial`'s (b, d, n)
    singular: bool = False  # the 1/r field: singular on its axis, sourced


_N = {"n": "principal index"}
_L = {"l": "orbital index, winding M = 2l"}
_LANDAU = dict(  # the uniform field's facts, the same in both windings
    pair=_landau_pair, cH=_landau_cH,
    scale=lambda b, eps: math.sqrt(math.pi * eps * (eps + b.m)),
    degree=lambda b: b.l + 2 * b.n,
    variable=lambda b, u, w: (np.sqrt(u / 2.0), w / 4.0),
    radius=lambda lam: math.sqrt(2.0) * lam,
    axial=lambda spec, xp, yp: (spec.B ** 2, 1.0, 2))
_FAMILIES = {
    Family.FREE_BESSEL: _Stationary(
        "field-free Bessel beam",
        "Bessel beam dressed by a plane wave (Volkov-type)",
        {**_L, "pperp": "transverse momentum (> 0)"},
        K=lambda s: s.p_perp ** 2, winding=2, pair=_bessel_pair,
        scale=lambda b, eps: math.sqrt(2.0) * eps * math.sqrt(b.m / eps + 1.0)),
    Family.UNIFORM_B: _Stationary(
        "uniform axial magnetic field, levels degenerate in l",
        "uniform magnetic field plus co-propagating plane wave", {**_N, **_L},
        K=lambda s: 2.0 * s.B ** 2 * s.n, winding=2,
        J_phi=lambda b, eps: -math.sqrt(2.0) * b.B * b.n / eps,
        centroid=lambda b, omega, eps: b.n / (omega * eps ** 2), **_LANDAU),
    Family.UNIFORM_B_SPLIT: _Stationary(
        "uniform axial magnetic field, levels split by l", None,
        {**_N, "l": "orbital index, winding M = -2l"},
        K=lambda s: 2.0 * s.B ** 2 * (s.l + s.n), winding=-2,
        J_phi=lambda b, eps: -math.sqrt(2.0) * b.B * (b.n + b.l) / eps,
        **_LANDAU),
    Family.RADIAL_B: _Stationary(
        "axial magnetic field falling off as 1/r",
        "1/r magnetic field plus co-propagating plane wave",
        {**_N, "M": "winding (>= 0)"},
        K=lambda s: s.n * (s.n + s.M + 1) * s.B ** 2
        / (4.0 * (2 * s.n + s.M + 1) ** 2),
        winding=None, orbital="M", pair=_radial_pair, cH=_radial_cH,
        scale=lambda b, eps: math.sqrt(4 * (2 * b.n + b.l + 1) * (
            math.pi * eps * (eps + b.m)) / radial_kappa(b) ** 2),
        degree=lambda b: b.M + 2 * b.n + 1,
        variable=lambda b, u, w: (u / radial_kappa(b),
                                  w * u / radial_kappa(b) ** 2),
        radius=lambda lam: 1.0,
        J_phi=lambda b, eps: -b.B * b.n * (1 + b.n + b.M)
        / ((1 + 2 * b.n + b.M) ** 2 * eps),
        centroid=lambda b, omega, eps: 3.0 * b.n * (b.n + b.M + 1)
        / (2.0 * (b.M + 1) * omega * eps ** 2),
        axial=_radial_field, singular=True),
}
MAGNETIC_FAMILIES = tuple(f for f, r in _FAMILIES.items() if r.axial)
SINGULAR_ON_AXIS = tuple(f for f in Family
                         if _FAMILIES[DRESSED_BASE.get(f, f)].singular)
_COMMON = {"B": "field-strength constant (energy units)",
           "mass": "electron mass"}
_STATIONARY = {"pz": "longitudinal momentum"}
_DRESSING = {"waveform": "circular | linear | pulse, with amplitude",
             "omega": "plane-wave frequency"}


def describe_families() -> list[dict]:
    """Parameter schema of every family, for the command-line catalog: the
    `eval` option keys it takes (a dressed family is built at p_z = 0)."""
    rows = [(fam, r.text, r, _STATIONARY) for fam, r in _FAMILIES.items()]
    rows += [(fam, _FAMILIES[base].laser, _FAMILIES[base], _DRESSING)
             for fam, base in DRESSED_BASE.items()]
    return [{"family": fam.value, "description": text,
             "parameters": {**_COMMON, **r.params, **extra}}
            for fam, text, r, extra in rows]
