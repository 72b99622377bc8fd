"""Matrix spinors, column spinors and local observables.

A column spinor psi maps bijectively onto an element Psi of the even
subalgebra (scalar + six bivectors + pseudoscalar, eight real coefficients)
with psi = Psi u1, u1 = (1,0,0,0)^T.  The component dictionary is

    psi = (r0 - i r3,  r2 - i r1,  s3 + i s0,  s1 + i s2)^T
    Psi = r0 + s_k alpha_k + PSEUDO s0 - r_k PSEUDO alpha_k

The current, spin density and rho exp(i beta) are Dirac bilinears
psi-bar Gamma psi = psi^dagger gamma0 Gamma psi, each one contraction of psi
with a constant 4x4 matrix (`bilinears`):

    J^mu           = psi-bar gamma^mu psi
    rho s^mu       = psi-bar gamma^mu gamma5 psi
    rho cos(beta)  = psi-bar psi
    rho sin(beta)  = -Re(psi-bar i gamma5 psi)

The tetrad vectors e1, e2 come from the charge-conjugate bilinear
(Takabayasi; Lounesto, ch. 12), rho (e1 + i e2)^mu = psi^T K^mu psi with
K^mu = i gamma0 gamma2 gamma^mu (`tetrad_pair`).  With
Psi = rho^(1/2) exp(PSEUDO beta/2) R, all of them are sandwiches
Psi gamma_mu rev(Psi) = rho R gamma_mu rev(R) and Psi rev(Psi).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sta
from .sta import ALPHA, GAMMA, GAMMA0, GAMMA5, GAMMA_UP, ID, PSEUDO
from .units import NATURAL, UnitSystem

Array = np.ndarray

# the dictionary above: Psi = sum_i (Re psi, Im psi)_i _LIFT[i]
_LIFT = np.stack([
    ID, -PSEUDO @ ALPHA[1], ALPHA[2], ALPHA[0],
    PSEUDO @ ALPHA[2], PSEUDO @ ALPHA[0], PSEUDO, ALPHA[1],
])

# plane of the phase rotation: gamma^2 gamma^1 (== gamma_2 gamma_1)
PHASE_PLANE = GAMMA_UP[2] @ GAMMA_UP[1]


class NullDensity(ValueError):
    """psi^dagger psi vanished; observables are undefined at this point."""


def from_components(r, s) -> Array:
    """Column spinor from the real octet (r_mu, s_mu)."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    return np.array([
        r[0] - 1j * r[3],
        r[2] - 1j * r[1],
        s[3] + 1j * s[0],
        s[1] + 1j * s[2],
    ])


def hestenes_matrix(psi: Array) -> Array:
    """The unique even-subalgebra Psi with Psi u1 = psi[..., 4]."""
    psi = np.asarray(psi, dtype=complex)
    parts = np.concatenate([psi.real, psi.imag], axis=-1)
    return np.einsum("...i,ijk->...jk", parts, _LIFT)


def to_column(Psi: Array) -> Array:
    """psi = Psi u1 (first column)."""
    return np.asarray(Psi, dtype=complex)[:, 0].copy()


def phase_rotor(arg: float) -> Array:
    """exp(-gamma^2 gamma^1 * arg); acts on u1 as multiplication by
    exp(-i*arg)."""
    return np.cos(arg) * ID - np.sin(arg) * PHASE_PLANE


@dataclass(frozen=True)
class MatrixSpinor:
    """Factored matrix spinor: density, duality angle, Lorentz rotor and the
    scalar phase argument multiplying gamma^2 gamma^1."""

    rho: float
    beta: float
    rotor: Array
    phase_arg: float

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")


def assemble(ms: MatrixSpinor) -> Array:
    """sqrt(rho) exp(PSEUDO beta/2) rotor exp(-gamma^2 gamma^1 phase)."""
    duality = np.cos(ms.beta / 2.0) * ID + np.sin(ms.beta / 2.0) * PSEUDO
    return np.sqrt(ms.rho) * duality @ ms.rotor @ phase_rotor(ms.phase_arg)


# ---------------------------------------------------------------------------
# plane waves
# ---------------------------------------------------------------------------


def boost_from_momentum(p, m: float, units: UnitSystem = NATURAL,
                        sign: int = +1) -> Array:
    """Positive-definite boost taking the rest spinor to momentum p; the
    sign=-1 branch flips the momentum (negative-energy convention)."""
    p = np.asarray(p, dtype=float)
    c = units.c
    energy = np.sqrt((m * c * c) ** 2 + c * c * float(p @ p))
    mc2 = m * c * c
    pref = np.sqrt((energy + mc2) / (2.0 * mc2))
    slope = sign * c / (energy + mc2)
    mat = ID + slope * sum(pk * g for pk, g in zip(p, ALPHA))
    return pref * mat


def plane_wave(p, m: float, spin_axis=(0.0, 0.0, 1.0), angle: float = 0.0,
               energy_sign: int = +1, units: UnitSystem = NATURAL):
    """Free plane-wave column-spinor field (t, x, y, z) -> psi, psi[..., 4]
    for array coordinates.

    The spin rotation is exp(-PSEUDO alpha.axis * angle/2) applied in the
    rest frame before boosting; energy_sign=-1 returns the negative-energy
    mode with the opposite-velocity boost and the pseudoscalar phase factor.
    """
    p = np.asarray(p, dtype=float)
    axis = np.asarray(spin_axis, dtype=float)
    norm = np.linalg.norm(axis)
    bvec = (angle / 2.0) * axis / norm if angle != 0.0 and norm > 0 else (0, 0, 0)
    rot = sta.exp_bivector((0.0, 0.0, 0.0), bvec)
    c, hbar = units.c, units.hbar
    energy = np.sqrt((m * c * c) ** 2 + c * c * float(p @ p))
    boost = boost_from_momentum(p, m, units, sign=energy_sign)
    chi = rot[:, 0]  # rest-frame column with chosen spin orientation
    col0 = boost @ chi
    if energy_sign < 0:
        col0 = PSEUDO @ col0

    def field(t, x, y, z):
        # the negative-energy mode carries the opposite velocity: its boost
        # and its spatial wave vector are both flipped
        arg = (energy * t
               - energy_sign * (p[0] * x + p[1] * y + p[2] * z)) / hbar
        return np.exp(-1j * energy_sign * arg)[..., None] * col0

    return field


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


# gamma0 Gamma for the ten bilinears, in the order J^mu, rho s^mu,
# rho cos(beta), rho sin(beta); each is Hermitian, so every contraction
# psi^dagger (gamma0 Gamma) psi is real
_BILINEAR_MATRICES = np.stack(
    [GAMMA0 @ g for g in GAMMA_UP]
    + [GAMMA0 @ g @ GAMMA5 for g in GAMMA_UP]
    + [GAMMA0, -GAMMA0 @ PSEUDO])


@dataclass(frozen=True)
class Bilinears:
    """Dirac bilinears of a spinor, or of a batch of spinors along the
    leading axes (vectors carry a trailing axis of length 4)."""

    current: Array       # J^mu
    spin_density: Array  # rho * s^mu
    scalar: Array        # rho * cos(beta), signed
    pseudo: Array        # rho * sin(beta)

    @property
    def rho(self) -> Array:
        return np.hypot(self.scalar, self.pseudo)

    @property
    def beta(self) -> Array:
        return np.arctan2(self.pseudo, self.scalar)


def bilinears(psi: Array) -> Bilinears:
    """J^mu, rho s^mu and rho exp(i beta) of column spinors psi[..., 4].

    Raises NullDensity when psi^dagger psi vanishes anywhere in the batch.
    """
    psi = np.asarray(psi, dtype=complex)
    vals = np.einsum("...i,kij,...j->...k", psi.conj(), _BILINEAR_MATRICES,
                     psi).real
    if (vals[..., 0] <= 0.0).any():
        raise NullDensity("psi has zero norm at this point")
    return Bilinears(vals[..., 0:4], vals[..., 4:8], vals[..., 8], vals[..., 9])


# K^mu = i gamma0 gamma2 gamma^mu: psi^T K^mu psi = rho (e1 + i e2)^mu
_TETRAD_MATRICES = np.stack([1j * GAMMA0 @ GAMMA[2] @ g for g in GAMMA_UP])


def tetrad_pair(psi: Array) -> Array:
    """rho (e1 + i e2)^mu = psi^T K^mu psi of column spinors psi[..., 4]."""
    psi = np.asarray(psi, dtype=complex)
    return np.einsum("...i,kij,...j->...k", psi, _TETRAD_MATRICES, psi)


RHO_FLOOR = 1e-10  # rho / J^0 below which the tetrad is left undefined


@dataclass(frozen=True)
class Observables:
    current: Array            # J^mu
    spin_density: Array       # rho * s^mu
    rho: float
    beta: float
    scalar: float             # signed rho * cos(beta)
    velocity: Array | None    # J / rho, None when rho underflows
    spin: Array | None        # spin_density / rho
    tetrad: tuple | None      # e_0 .. e_3
    spin_plane: Array | None  # e2 e1 as a matrix
    undefined: bool


def observables(psi: Array) -> Observables:
    """All local bilinear observables of one column spinor.

    Raises NullDensity when psi^dagger psi vanishes.  When the invariant
    density rho falls below RHO_FLOOR relative to J^0 the velocity, spin,
    tetrad and spin-plane entries are flagged undefined (None) instead of
    being extrapolated.  e0 and e3 are the velocity and spin, e1 and e2 come
    from `tetrad_pair`, and the spin plane e2 e1 from
    `spin_plane_from_vectors`.
    """
    psi = np.asarray(psi, dtype=complex)
    bil = bilinears(psi)
    current, spin_density = bil.current, bil.spin_density
    rho, beta, scalar = float(bil.rho), float(bil.beta), float(bil.scalar)
    if rho < RHO_FLOOR * current[0]:
        return Observables(current, spin_density, rho, beta, scalar,
                           None, None, None, None, True)
    velocity, spin = current / rho, spin_density / rho
    e12 = tetrad_pair(psi) / rho
    return Observables(
        current=current,
        spin_density=spin_density,
        rho=rho,
        beta=beta,
        scalar=scalar,
        velocity=velocity,
        spin=spin,
        tetrad=(velocity, e12.real, e12.imag, spin),
        spin_plane=spin_plane_from_vectors(velocity, spin),
        undefined=False,
    )


_ALPHA = np.stack(ALPHA)
_PSEUDO_ALPHA = np.stack([PSEUDO @ a for a in ALPHA])


def spin_plane_from_vectors(velocity: Array, spin: Array) -> Array:
    """Spin plane e2 e1 from the velocity/spin cross-product form,

        S = alpha.(s x v) + PSEUDO alpha.(v0 s - s0 v),

    of velocity[..., 4] and spin[..., 4].  The relative plus sign is pinned
    by S = e2 e1 at the rest state."""
    v0, vv = velocity[..., :1], velocity[..., 1:]
    s0, sv = spin[..., :1], spin[..., 1:]
    return (np.einsum("...k,kij->...ij", np.cross(sv, vv), _ALPHA)
            + np.einsum("...k,kij->...ij", v0 * sv - s0 * vv, _PSEUDO_ALPHA))
