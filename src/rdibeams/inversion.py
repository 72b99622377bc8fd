"""Dynamic inversion: recover the driving potential from a spinor field.

The electromagnetic potential is obtained by solving the matrix Dirac
equation backwards, eA-slash = D Psi^-1 with (`dirac_operator`)

    D = (d-slash Psi) gamma^2 gamma^1 - m Psi gamma^0,
    Psi^-1 = rev(Psi) exp(-PSEUDO beta) / rho,  so |det Psi| = rho^2,

with the derivatives taken by 4th-order central differences and a Richardson
(h, h/2) pair attached as the error estimate, at one point or at a batch of
points at once.  A valid electromagnetic inversion leaves only the vector
grade: the 12 constrained trace projections (scalar, the six bivectors, the
four trivectors and the pseudoscalar) must vanish.

The module also carries the circular-orbit residual |eA_0|, which vanishes
exactly when the radial profile solves its second-order equation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog as cat
from . import numerics, spinors, sta

Array = np.ndarray


class SingularSpinor(ValueError):
    """Spinor singular at the requested point: rho < 1e-6 in absolute terms
    (a far tail) in `invert`, a zero signed density in `circularity_residual`."""


@dataclass(frozen=True)
class PotentialSample:
    """Inverted potential at a point, or at a batch of points along the
    leading axes: the vector-grade part eA^mu, all 16 trace-projection
    coefficients, and the finite-difference error estimate."""

    eA: Array
    coefficients: Array        # complex, indices 0..15 for Gamma_1..Gamma_16
    richardson: float

    @property
    def constrained_residual(self) -> float:
        """Largest magnitude among the 12 projections that must vanish."""
        return np.max(np.abs(self.coefficients[..., _CONSTRAINED]), axis=-1)


# d-slash as one 4 x 16 matrix on (mu, j): row i holds gamma^mu[i, j] at
# column 4 mu + j; right products with the phase plane and gamma0 as left
# products of their transposes; Tr[A Gamma_k] as one 16 x 16 matrix on
# A[i, j] at column 4 i + j
_SLASH = sta.signed_gather(np.stack(sta.GAMMA_UP, axis=1).reshape(4, 16))
_TIMES_PHASE_PLANE = sta.signed_gather(spinors.PHASE_PLANE.T)
_TIMES_GAMMA0 = sta.signed_gather(sta.GAMMA0.T)
_TRACES = sta.signed_gather(np.stack(sta.GAMMA16).transpose(0, 2, 1)
                            .reshape(16, 16))
_CONSTRAINED = [k - 1 for k in sta.CONSTRAINED_INDICES]
SINGULAR_RHO2 = 1e-12  # rho^2 = |det Psi| below which Psi is not inverted
MIN_STEP, MAX_STEP = 1e-6, 1e-2  # the stencil steps `invert` takes


def dirac_operator(psi, grad, m: float) -> tuple[Array, Array]:
    """Psi = hestenes_matrix(psi) and the matrix Dirac operator D, from
    psi[..., 4] and its `numerics.gradient4` grad[..., 4, 4].  d_mu Psi is
    the lift of d_mu psi, exact as the lift is real-linear; the first column
    of D is the column form i gamma^mu d_mu psi - m psi."""
    Psi = spinors.hestenes_matrix(psi)
    dPsi = spinors.hestenes_matrix(grad)
    slash_d = sta.gather_product(
        _SLASH, dPsi.reshape(dPsi.shape[:-3] + (16, 4)), axis=-2)
    return Psi, sta.gather_product(_TIMES_PHASE_PLANE, slash_d) \
        - sta.gather_product(_TIMES_GAMMA0, m * Psi)


def _density(psi) -> tuple[Array, Array]:
    # (rho cos beta, rho sin beta) of psi[..., 4]; both are zero where
    # psi^dagger psi vanishes
    psi = np.asarray(psi, dtype=complex)
    live = np.einsum("...i,...i->...", psi.conj(), psi).real > 0.0
    scalar, pseudo = np.zeros(live.shape), np.zeros(live.shape)
    try:
        bil = spinors.bilinears(psi[live])
    except spinors.NullDensity as exc:
        raise SingularSpinor(str(exc)) from exc
    scalar[live], pseudo[live] = bil.scalar, bil.pseudo
    return scalar, pseudo


def singular(psi) -> Array:
    """Where the lift Psi of psi[..., 4] is not inverted: rho^2 = |det Psi|
    below SINGULAR_RHO2, a vanishing spinor included."""
    scalar, pseudo = _density(psi)
    return scalar ** 2 + pseudo ** 2 < SINGULAR_RHO2


def invert(field, point, h: float = numerics.DEFAULT_STEP, m: float = 1.0,
           sample: numerics.StencilSample | None = None) -> PotentialSample:
    """Invert a column-spinor field for its driving potential at a point,
    or at a batch of points point[..., 4].

    `field` maps (t, x, y, z) to a column spinor, whose lift is unique.  The
    step must sit in [MIN_STEP, MAX_STEP].  SingularSpinor is raised if Psi
    is singular at any point of the batch, before the field is
    differentiated.  `sample`, when given, is
    `numerics.sample(field, point, h)`, already evaluated: only the h/2
    stencil is evaluated anew.
    """
    if not MIN_STEP <= h <= MAX_STEP:
        raise ValueError(f"step h outside [{MIN_STEP}, {MAX_STEP}]")
    psi = numerics.at(field, point) if sample is None else sample.at_points
    scalar, pseudo = _density(psi)
    rho2 = scalar ** 2 + pseudo ** 2
    if np.any(rho2 < SINGULAR_RHO2):
        raise SingularSpinor(f"|det Psi| = rho^2 = {np.min(rho2):.3e}")
    # Psi^-1 = rev(Psi) exp(-PSEUDO beta) / rho
    duality = scalar[..., None, None] * sta.ID \
        - pseudo[..., None, None] * sta.PSEUDO

    def inverted(grad):
        Psi, D = dirac_operator(psi, grad, m)
        return D @ sta.reversion(Psi) @ duality / rho2[..., None, None]

    full = inverted(numerics.gradient4(field, point, h) if sample is None
                    else sample.gradient())
    half = inverted(numerics.gradient4(field, point, h / 2.0))
    est = np.max(np.abs(half - full), axis=(-2, -1)) / 15.0
    # Tr[half Gamma_k] / 4
    coeffs = sta.gather_product(
        _TRACES, half.reshape(half.shape[:-2] + (16,))) / 4.0
    # Tr[A-slash gamma^mu] / 4 = A^mu directly (no dual sign)
    return PotentialSample(eA=coeffs[..., 1:5].real, coefficients=coeffs,
                           richardson=est)


def circularity_residual(spec: cat.SolutionSpec, lam):
    """|eA_0(lam)| of a stationary state, evaluated in closed form at a
    float or an array lam.

    The time component of the inverted potential is

        eA_0 = eps - m J^0 / sigma - (B / 4 lam sigma) d(lam J_phi)/dlam

    and vanishes identically exactly when the radial profile satisfies its
    second-order equation (the circular-orbit condition).  A lam where the
    signed density sigma is exactly 0 (a null-current circle) raises
    SingularSpinor.
    """
    if spec.is_dressed:
        raise ValueError("stationary families only")
    base = spec.static_base()
    eps = cat.eigenvalue(base)
    A = base.m + eps
    B = base.B
    pr = cat.profile(base, lam)
    k = cat.stationary_bilinears(base)(pr["aH"], pr["bH"])
    j0, sigma = k["J0"], k["scalar"]
    if np.any(sigma == 0.0):
        raise SingularSpinor("null-current circle")
    # d/dlam of lam * J_phi with J_phi = -A lam^M f f' H^2 / B, via the
    # analytic profile derivatives
    M = base.M
    f, fp, fpp, H, Hp = pr["f"], pr["fp"], pr["fpp"], pr["H"], pr["Hp"]
    lamM = lam ** M
    d_lam_jphi = -(A / B) * ((M + 1) * lamM * f * fp * H * H
                             + lam ** (M + 1) * (fp * fp + f * fpp) * H * H
                             + 2.0 * lam ** (M + 1) * f * fp * H * Hp)
    term = -(B / (4.0 * lam * sigma)) * d_lam_jphi
    return abs(eps - base.m * j0 / sigma + term)


def radial_ode_residual(spec: cat.SolutionSpec, lam):
    """Residual of the profile equation

        f'' - 4 (m^2 + p_z^2 - eps^2) f / B^2
            + f' ((M+1)/lam + 2 H'/H) = 0,

    normalized by the local profile scale, at a float or an array lam."""
    base = spec.static_base()
    eps = cat.eigenvalue(base)
    pr = cat.profile(base, lam)
    gap = 4.0 * (base.m ** 2 + base.p_z ** 2 - eps ** 2) \
        / base.B ** 2
    res = pr["fpp"] - gap * pr["f"] \
        + pr["fp"] * ((base.M + 1) / lam + 2.0 * pr["Hp"] / pr["H"])
    scale = np.maximum(np.maximum(abs(pr["f"]), abs(pr["fp"])),
                       np.maximum(abs(pr["fpp"]), 1e-30))
    return abs(res) / scale
