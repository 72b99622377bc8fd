"""The matrix lift of a column spinor, and its local observables.

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
Each takes a batch psi[..., 4], one spinor psi[4] being the one-point case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sta import ALPHA, GAMMA, GAMMA0, GAMMA5, GAMMA_UP, ID, PSEUDO

Array = np.ndarray

# the dictionary above: Psi = sum_i (Re psi, Im psi)_i _LIFT[i]
_LIFT = np.stack([
    ID, -PSEUDO @ ALPHA[1], ALPHA[2], ALPHA[0],
    PSEUDO @ ALPHA[2], PSEUDO @ ALPHA[0], PSEUDO, ALPHA[1],
])

# the same lift as a signed gather: each of the 32 floats of Psi (real and
# imaginary parts interleaved) is one of the eight parts, Re psi_i (part i)
# or Im psi_i (part 4 + i), times +1 or -1, and _GATHER indexes that part
# in psi.view(float), which interleaves Re psi_i and Im psi_i the same way
_FLOATS_OF_LIFT = np.stack([_LIFT.real, _LIFT.imag], axis=-1).reshape(8, 32)
_PART = np.argmax(np.abs(_FLOATS_OF_LIFT), axis=0)
_SIGN = _FLOATS_OF_LIFT[_PART, np.arange(32)]
_GATHER = 2 * (_PART % 4) + _PART // 4

class NullDensity(ValueError):
    """psi^dagger psi vanished; observables are undefined at this point."""


def hestenes_matrix(psi: Array) -> Array:
    """The unique even-subalgebra Psi with Psi u1 = psi[..., 4]."""
    psi = np.ascontiguousarray(psi, dtype=complex)
    parts = np.take(psi.view(float), _GATHER, axis=-1)
    parts *= _SIGN
    return parts.view(complex).reshape(psi.shape[:-1] + (4, 4))


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


_NULL_DENSITY = "psi^dagger psi is zero or not finite at this point"


def _check_density(j0):
    # J^0 = psi^dagger psi must be positive and finite: a NaN fails both
    # comparisons, so a far tail whose profile overflowed (inf times a
    # vanishing weight) is rejected rather than written out
    if not ((j0 > 0.0) & (j0 < math.inf)).all():
        raise NullDensity(_NULL_DENSITY)


def bilinears(psi: Array) -> Bilinears:
    """J^mu, rho s^mu and rho exp(i beta) of column spinors psi[..., 4].

    Raises NullDensity when psi^dagger psi vanishes anywhere in the batch,
    or is not finite.
    """
    psi = np.asarray(psi, dtype=complex)
    vals = np.einsum("...i,kij,...j->...k", psi.conj(), _BILINEAR_MATRICES,
                     psi).real
    _check_density(vals[..., 0])
    return Bilinears(vals[..., 0:4], vals[..., 4:8], vals[..., 8], vals[..., 9])


def current(psi: Array):
    """J^mu = psi-bar gamma^mu psi alone: the four J rows of `bilinears`
    written out on the components,

        J^0 = sum_i |psi_i|^2
        J^1 = 2 Re(psi_0^* psi_3 + psi_1^* psi_2)
        J^2 = 2 Im(psi_0^* psi_3 - psi_1^* psi_2)
        J^3 = 2 Re(psi_0^* psi_2 - psi_1^* psi_3)

    of column spinors psi[..., 4], giving J[..., 4].  Raises NullDensity
    where psi^dagger psi vanishes or is not finite.
    """
    psi = np.asarray(psi, dtype=complex)
    p0, p1, p2, p3 = psi.transpose(-1, *range(psi.ndim - 1))
    c0, c1 = p0.conjugate(), p1.conjugate()
    j0 = ((p0 * c0).real + (p1 * c1).real + (p2 * p2.conjugate()).real
          + (p3 * p3.conjugate()).real)
    _check_density(j0)
    a, b = c0 * p3, c1 * p2
    c = c0 * p2 - c1 * p3
    return np.stack((j0, 2.0 * (a.real + b.real), 2.0 * (a.imag - b.imag),
                     2.0 * c.real), axis=-1)


# K^mu = i gamma0 gamma2 gamma^mu: psi^T K^mu psi = rho (e1 + i e2)^mu
_TETRAD_MATRICES = np.stack([1j * GAMMA0 @ GAMMA[2] @ g for g in GAMMA_UP])


def tetrad_pair(psi: Array) -> Array:
    """rho (e1 + i e2)^mu = psi^T K^mu psi of column spinors psi[..., 4]."""
    psi = np.asarray(psi, dtype=complex)
    return np.einsum("...i,kij,...j->...k", psi, _TETRAD_MATRICES, psi)


RHO_FLOOR = 1e-10  # rho / J^0 below which the tetrad is left undefined


@dataclass(frozen=True)
class Observables(Bilinears):
    """The bilinears plus the tetrad, NaN at the undefined points."""

    velocity: Array    # J / rho
    spin: Array        # spin_density / rho
    tetrad: Array      # e_0 .. e_3 along axis -2
    spin_plane: Array  # e2 e1 as a matrix
    undefined: Array   # rho < RHO_FLOOR * J^0


def observables(psi: Array) -> Observables:
    """All local bilinear observables of column spinors psi[..., 4].

    Raises NullDensity when psi^dagger psi vanishes anywhere in the batch.
    Where the invariant density rho falls below RHO_FLOOR relative to J^0
    the velocity, spin, tetrad and spin plane are flagged undefined (NaN)
    instead of being extrapolated.  e0 and e3 are the velocity and spin,
    e1 and e2 come from `tetrad_pair`, and the spin plane e2 e1 from
    `spin_plane_from_vectors`.
    """
    psi = np.asarray(psi, dtype=complex)
    bil = bilinears(psi)
    undefined = bil.rho < RHO_FLOOR * bil.current[..., 0]
    rho = np.where(undefined, np.nan, bil.rho)[..., None]
    velocity, spin = bil.current / rho, bil.spin_density / rho
    with np.errstate(invalid="ignore"):  # complex division tests NaN >= 0
        e12 = tetrad_pair(psi) / rho
    return Observables(
        bil.current, bil.spin_density, bil.scalar, bil.pseudo,
        velocity=velocity,
        spin=spin,
        tetrad=np.stack([velocity, e12.real, e12.imag, spin], axis=-2),
        spin_plane=spin_plane_from_vectors(velocity, spin),
        undefined=undefined,
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
