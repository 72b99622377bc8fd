"""Spacetime algebra Cl(1,3) realised concretely as 4x4 complex matrices.

The four generators are the standard (Dirac) representation gamma matrices,
so the geometric product is plain matrix multiplication and grade extraction
is done by trace projection, Tr[A Gamma_k] / 4, against the 16-element
basis GAMMA16.  Conventions:

* metric signature (+,-,-,-), gamma0 = diag(I, -I), gamma_k off-diagonal
  with Pauli blocks,
* alpha_k = gamma_k gamma0,
* pseudoscalar  PSEUDO = gamma0 gamma1 gamma2 gamma3 = i gamma5, which
  squares to -1 and commutes with the alpha_k,
* reversion  rev(A) = gamma0 A^dagger gamma0  (an anti-automorphism).

All functions are pure; the module-level matrices are constants and must not
be mutated.
"""
from __future__ import annotations

import numpy as np

Array = np.ndarray

# ---------------------------------------------------------------------------
# basis matrices
# ---------------------------------------------------------------------------

_ID2 = np.eye(2, dtype=complex)
SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def _block(a: Array, b: Array, c: Array, d: Array) -> Array:
    return np.block([[a, b], [c, d]])


ID = np.eye(4, dtype=complex)
GAMMA0 = _block(_ID2, 0 * _ID2, 0 * _ID2, -_ID2)
GAMMA = (
    GAMMA0,
    _block(0 * _ID2, -SIGMA[0], SIGMA[0], 0 * _ID2),
    _block(0 * _ID2, -SIGMA[1], SIGMA[1], 0 * _ID2),
    _block(0 * _ID2, -SIGMA[2], SIGMA[2], 0 * _ID2),
)
#: gamma with upper index: gamma^0 = gamma_0, gamma^k = -gamma_k
GAMMA_UP = (GAMMA0, -GAMMA[1], -GAMMA[2], -GAMMA[3])
GAMMA5 = _block(0 * _ID2, _ID2, _ID2, 0 * _ID2)
ALPHA = tuple(GAMMA[k] @ GAMMA0 for k in (1, 2, 3))
#: pseudoscalar, squares to -I, commutes with every alpha_k
PSEUDO = 1.0j * GAMMA5

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

# 16-element trace-projection basis, indexed 1..16 in the constraint order:
# scalar, the four vectors, alpha_k, the three rotation bivectors, the four
# trivectors, gamma5.
GAMMA16 = (
    ID,
    GAMMA_UP[0],
    GAMMA_UP[1],
    GAMMA_UP[2],
    GAMMA_UP[3],
    ALPHA[0],
    ALPHA[1],
    ALPHA[2],
    GAMMA_UP[2] @ GAMMA_UP[3],
    GAMMA_UP[3] @ GAMMA_UP[1],
    GAMMA_UP[1] @ GAMMA_UP[2],
    GAMMA_UP[1] @ GAMMA_UP[2] @ GAMMA_UP[3],
    GAMMA_UP[0] @ GAMMA_UP[2] @ GAMMA_UP[3],
    GAMMA_UP[0] @ GAMMA_UP[3] @ GAMMA_UP[1],
    GAMMA_UP[0] @ GAMMA_UP[1] @ GAMMA_UP[2],
    GAMMA5,
)
#: indices (1-based) whose trace projections must vanish for a pure
#: electromagnetic (vector) potential
CONSTRAINED_INDICES = (1, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)


class MixedBivector(ValueError):
    """A bivector with both a boost and a rotation part, whose exponential
    has no closed form here."""


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def reversion(a: Array) -> Array:
    """rev(A) = gamma0 A^dagger gamma0 of matrices a[..., 4, 4].
    Anti-automorphism fixing vectors."""
    return GAMMA0 @ np.swapaxes(a.conj(), -1, -2) @ GAMMA0


def from_vector(v: Array) -> Array:
    """v^mu gamma_mu of real contravariant 4-vectors v[..., 4]."""
    v = np.asarray(v, dtype=float)[..., None, None]
    return sum(v[..., mu, :, :] * GAMMA[mu] for mu in range(4))


def minkowski_dot(u: Array, v: Array) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3])


# ---------------------------------------------------------------------------
# exponentials
# ---------------------------------------------------------------------------

def exp_bivector(a, b) -> Array:
    """exp(a^k alpha_k - b^k PSEUDO alpha_k).

    Pure boosts (b = 0) and pure rotations (a = 0) have hyperbolic /
    trigonometric closed forms, with unit determinant; a generator with both
    parts raises MixedBivector.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if nb == 0.0 and na == 0.0:
        return ID.copy()
    if nb == 0.0:
        unit = sum(ak * g for ak, g in zip(a / na, ALPHA))
        return np.cosh(na) * ID + np.sinh(na) * unit
    if na == 0.0:
        unit = sum(bk * (PSEUDO @ g) for bk, g in zip(b / nb, ALPHA))
        return np.cos(nb) * ID - np.sin(nb) * unit
    raise MixedBivector(f"boost part {a.tolist()} and rotation part "
                        f"{b.tolist()}")
