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


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def signed_gather(matrix) -> tuple[Array, Array]:
    """The tables of a constant matrix[n, n'] with the same number k of
    nonzero entries in every row, each +-1 or +-i: column[i, t] is the
    column of the t-th nonzero entry of row i, and coefficient[i, t] its
    value.  `gather_product` applies them."""
    matrix = np.asarray(matrix, dtype=complex)
    counts = np.count_nonzero(matrix, axis=1)
    column = np.nonzero(matrix)[1]
    coefficient = matrix[matrix != 0]
    if (counts != counts[0]).any() or (abs(coefficient) != 1.0).any() \
            or (coefficient.real * coefficient.imag != 0.0).any():
        raise ValueError("not a signed gather: rows differ in their count "
                         "of nonzero entries, or an entry is not +-1, +-i")
    shape = (len(matrix), counts[0])
    return column.reshape(shape), coefficient.reshape(shape)


def gather_product(table, x, axis: int = -1) -> Array:
    """matrix @ x for the tables of `signed_gather(matrix)`: along the last
    axis of x[..., n'] (axis=-1), or along the next-to-last of x[..., n', m]
    (axis=-2).  Each entry is its row's k exact products, summed in column
    order from +0, as einsum and matmul accumulate: for finite x it is
    their product bit for bit, the sign of a zero included."""
    column, coefficient = table
    # np.take lays its result out in C order, as x[..., column] does not
    if axis == -1:
        terms = np.take(x, column, axis=-1, mode="clip")
        terms *= coefficient
    else:
        terms = np.take(x, column, axis=-2, mode="clip")
        terms *= coefficient[..., None]
        terms = terms.swapaxes(-1, -2)
    out = terms[..., 0] + 0.0
    for t in range(1, column.shape[1]):
        out += terms[..., t]
    return out


_REVERSION_SIGN = np.outer(GAMMA0.diagonal(), GAMMA0.diagonal())


def reversion(a: Array) -> Array:
    """rev(A) = gamma0 A^dagger gamma0 of matrices a[..., 4, 4]: the sign
    pattern of gamma0 (.) gamma0 on A^dagger, the matrix products' bits
    for finite a.  Anti-automorphism fixing vectors."""
    out = np.swapaxes(a, -1, -2).conj() * _REVERSION_SIGN
    out += 0.0
    return out


# each of the 32 floats of v^mu gamma_mu (real and imaginary parts
# interleaved) is 0 or +-v^mu for one mu: the float's part and sign
_FLOATS_OF_GAMMA = np.stack([np.stack([g.real, g.imag], axis=-1).reshape(32)
                             for g in GAMMA])
_VECTOR_PART = np.argmax(np.abs(_FLOATS_OF_GAMMA), axis=0)
_VECTOR_SIGN = _FLOATS_OF_GAMMA[_VECTOR_PART, np.arange(32)]


def from_vector(v: Array) -> Array:
    """v^mu gamma_mu of real contravariant 4-vectors v[..., 4], as a signed
    gather of v plus +0: for finite v the bits of the sum of the four
    products."""
    v = np.asarray(v, dtype=float)
    out = np.take(v, _VECTOR_PART, axis=-1)
    out *= _VECTOR_SIGN
    out += 0.0
    return out.view(complex).reshape(v.shape[:-1] + (4, 4))
