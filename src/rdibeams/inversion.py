"""Dynamic inversion: recover the driving potential from a spinor field.

The electromagnetic potential is obtained by solving the matrix Dirac
equation backwards, eA-slash = D Psi^-1 with

    D = (d-slash Psi) gamma^2 gamma^1 - m Psi gamma^0
      = lift(i gamma^mu d_mu psi - m psi) gamma^0,
    Psi^-1 = rev(Psi) exp(-PSEUDO beta) / rho,  so |det Psi| = rho^2,

where Psi = lift(psi) (`spinors.hestenes_matrix`): D is odd and
gamma^0 u1 = u1, so D gamma^0 is the even element whose first column is
D u1, the column Dirac operator (`dirac_column`).  The derivatives are
taken by 4th-order central differences, with a Richardson (h, h/2) pair
attached as the error estimate, at one point or at a batch of points at
once.  A valid electromagnetic inversion leaves only the vector grade: the
12 constrained trace projections (scalar, the six bivectors, the four
trivectors and the pseudoscalar) must vanish.

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
# column 4 mu + j; Tr[A Gamma_k] as one 16 x 16 matrix on A[i, j] at
# column 4 i + j
_SLASH = sta.signed_gather(np.stack(sta.GAMMA_UP, axis=1).reshape(4, 16))
_TRACES = sta.signed_gather(np.stack(sta.GAMMA16).transpose(0, 2, 1)
                            .reshape(16, 16))
_CONSTRAINED = [k - 1 for k in sta.CONSTRAINED_INDICES]
SINGULAR_RHO2 = 1e-12  # rho^2 = |det Psi| below which Psi is not inverted
MIN_STEP, MAX_STEP = 1e-6, 1e-2  # the stencil steps `invert` takes


def dirac_column(psi, grad, m: float) -> Array:
    """i gamma^mu d_mu psi - m psi, the column Dirac operator, from psi[..., 4]
    and its `StencilSample.gradient` grad[..., 4, 4]: gamma^mu d_mu psi is
    one signed gather of the 4-gradient, with the d-slash table."""
    slash = sta.gather_product(_SLASH, grad.reshape(grad.shape[:-2] + (16,)))
    return 1j * slash - m * psi


def density(psi) -> tuple[Array, Array]:
    """(rho cos beta, rho sin beta) of psi[..., 4]; both are zero where
    psi^dagger psi vanishes."""
    psi = np.asarray(psi, dtype=complex)
    live = np.einsum("...i,...i->...", psi.conj(), psi).real > 0.0
    scalar, pseudo = np.zeros(live.shape), np.zeros(live.shape)
    try:
        bil = spinors.bilinears(psi[live])
    except spinors.NullDensity as exc:
        raise SingularSpinor(str(exc)) from exc
    scalar[live], pseudo[live] = bil.scalar, bil.pseudo
    return scalar, pseudo


def singular(dens) -> Array:
    """Where the lift Psi of a spinor psi is not inverted, from its
    `density(psi)`: rho^2 = |det Psi| below SINGULAR_RHO2, a vanishing
    spinor included."""
    scalar, pseudo = dens
    return scalar ** 2 + pseudo ** 2 < SINGULAR_RHO2


def invert(field, point, *, m: float, h: float = numerics.DEFAULT_STEP,
           sample: tuple | None = None) -> PotentialSample:
    """Invert a column-spinor field of mass m for its driving potential at
    a point, or at a batch of points point[..., 4].

    `field` maps (t, x, y, z) to a column spinor, whose lift is unique.  The
    mass has no default: the field does not carry it, and any other mass
    gives a wrong potential whose constraint traces still vanish.  m is a
    float, or one mass per point, m[..., 1], broadcast against each
    point's spinor.  The step must sit in [MIN_STEP, MAX_STEP].

    The field is sampled once, by one `numerics.sample` call at the points
    and on their stencils of steps h and h/2, before the singular test:
    SingularSpinor is raised if Psi is singular at any point of the batch,
    before the stencils are combined.  `sample`, when given, is (the
    field's `numerics.sample` at point of step h, that of step h/2, the
    `density` of the spinor at point or None); field is then never called
    and may be None.
    """
    if not MIN_STEP <= h <= MAX_STEP:
        raise ValueError(f"step h outside [{MIN_STEP}, {MAX_STEP}]")
    if sample is None:
        steps = [(..., h), (..., h / 2.0)]
        sample = (*numerics.sample(field, point, steps)[1], None)
    full, half, dens = sample
    psi = full.at_points
    scalar, pseudo = density(psi) if dens is None else dens
    rho2 = scalar ** 2 + pseudo ** 2
    if np.any(rho2 < SINGULAR_RHO2):
        raise SingularSpinor(f"|det Psi| = rho^2 = {np.min(rho2):.3e}")
    # Psi^-1 = rev(Psi) exp(-PSEUDO beta) / rho
    duality = scalar[..., None, None] * sta.ID \
        - pseudo[..., None, None] * sta.PSEUDO
    rev = sta.reversion(spinors.hestenes_matrix(psi))

    def inverted(smp):
        # D = lift(dirac_column) gamma^0: its columns 2 and 3 negated
        D = spinors.hestenes_matrix(dirac_column(psi, smp.gradient(), m))
        np.negative(D[..., 2:], out=D[..., 2:])
        return D @ rev @ duality / rho2[..., None, None]

    full, half = inverted(full), inverted(half)
    est = np.max(np.abs(half - full), axis=(-2, -1)) / 15.0
    # Tr[half Gamma_k] / 4
    coeffs = sta.gather_product(
        _TRACES, half.reshape(half.shape[:-2] + (16,))) / 4.0
    # Tr[A-slash gamma^mu] / 4 = A^mu directly (no dual sign)
    return PotentialSample(eA=coeffs[..., 1:5].real, coefficients=coeffs,
                           richardson=est)


def circularity_residual(spec: cat.SolutionSpec, lam, pr: dict | None = None):
    """|eA_0(lam)| of a stationary state, evaluated in closed form at a
    float or an array lam, from `pr`, its `catalog.profile` there, when
    given (already evaluated).

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
    if pr is None:
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


def radial_ode_residual(spec: cat.SolutionSpec, lam, pr: dict | None = None):
    """Residual of the profile equation

        f'' - 4 (m^2 + p_z^2 - eps^2) f / B^2
            + f' ((M+1)/lam + 2 H'/H) = 0,

    normalized by the local profile scale, at a float or an array lam, from
    `pr`, its `catalog.profile` there, when given (already evaluated)."""
    base = spec.static_base()
    eps = cat.eigenvalue(base)
    if pr is None:
        pr = cat.profile(base, lam)
    gap = 4.0 * (base.m ** 2 + base.p_z ** 2 - eps ** 2) \
        / base.B ** 2
    res = pr["fpp"] - gap * pr["f"] \
        + pr["fp"] * ((base.M + 1) / lam + 2.0 * pr["Hp"] / pr["H"])
    scale = np.maximum(np.maximum(abs(pr["f"]), abs(pr["fp"])),
                       np.maximum(abs(pr["fpp"]), 1e-30))
    return abs(res) / scale
