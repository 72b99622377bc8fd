"""Dynamic inversion: recover the driving potential from a spinor field.

The electromagnetic potential is obtained by solving the matrix Dirac
equation backwards, eA-slash = D Psi^-1 with (`dirac_operator`)

    D = hbar (d-slash Psi) gamma^2 gamma^1 - m c Psi gamma^0,
    Psi^-1 = rev(Psi) exp(-PSEUDO beta) / rho,  so |det Psi| = rho^2,

with the derivatives taken by 4th-order central differences and a Richardson
(h, h/2) pair attached as the error estimate, at one point or at a batch of
points at once.  A valid electromagnetic inversion leaves only the vector
grade: the 12 constrained trace projections (scalar, the six bivectors, the
four trivectors and the pseudoscalar) must vanish.

The module also carries the spin-divergence / tetrad-rotation / momentum
decomposition of the stationary potential, and the
circular-orbit residual |eA_0| that vanishes exactly when the radial profile
solves its second-order equation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog as cat
from . import numerics, spinors, sta
from .units import NATURAL, UnitSystem

Array = np.ndarray


class SingularSpinor(ValueError):
    """Spinor singular at the requested point: rho < 1e-6 in absolute terms
    (a far tail) in `invert`, a zero signed density in `circularity_residual`."""


class StepTooLarge(ValueError):
    """Richardson estimate exceeded the requested tolerance."""


@dataclass(frozen=True)
class PotentialSample:
    """Inverted potential at a point, or at a batch of points along the
    leading axes: the vector-grade part eA^mu, all 16 trace-projection
    coefficients, and the finite-difference error estimate."""

    eA: Array
    coefficients: Array        # complex, indices 0..15 for Gamma_1..Gamma_16
    richardson: float

    @property
    def grade_residuals(self) -> Array:
        """Magnitudes of the 16 trace projections (vector entries included)."""
        return np.abs(self.coefficients)

    @property
    def constrained_residual(self) -> float:
        """Largest magnitude among the 12 projections that must vanish."""
        return np.max(np.abs(self.coefficients[..., _CONSTRAINED]), axis=-1)


_GAMMA_UP = np.stack(sta.GAMMA_UP)
_GAMMA16 = np.stack(sta.GAMMA16)
_CONSTRAINED = [k - 1 for k in sta.CONSTRAINED_INDICES]
SINGULAR_RHO2 = 1e-12  # rho^2 = |det Psi| below which Psi is not inverted


def dirac_operator(psi, grad, m: float, units: UnitSystem) -> tuple[Array, Array]:
    """Psi = hestenes_matrix(psi) and the matrix Dirac operator D, from
    psi[..., 4] and its `numerics.gradient4` grad[..., 4, 4].  d_mu Psi is
    the lift of d_mu psi, exact as the lift is real-linear; the first column
    of D is the column form i hbar gamma^mu d_mu psi - m c psi."""
    Psi = spinors.hestenes_matrix(psi)
    dPsi = spinors.hestenes_matrix(grad)
    dPsi[..., 0, :, :] /= units.c
    slash_d = np.einsum("mij,...mjk->...ik", _GAMMA_UP, dPsi)
    return Psi, units.hbar * slash_d @ spinors.PHASE_PLANE \
        - m * units.c * Psi @ sta.GAMMA0


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
           units: UnitSystem = NATURAL, tol: float | None = None) -> PotentialSample:
    """Invert a column-spinor field for its driving potential at a point,
    or at a batch of points point[..., 4].

    `field` maps (t, x, y, z) to a column spinor, whose lift is unique.  The
    step must sit in [1e-6, 1e-2]; `tol`, when given, raises StepTooLarge if
    the Richardson estimate exceeds it at any point.  SingularSpinor is
    raised if Psi is singular at any point of the batch.
    """
    if not 1e-6 <= h <= 1e-2:
        raise ValueError("step h outside [1e-6, 1e-2]")
    psi = numerics.at(field, point)
    scalar, pseudo = _density(psi)
    rho2 = scalar ** 2 + pseudo ** 2
    if np.any(rho2 < SINGULAR_RHO2):
        raise SingularSpinor(f"|det Psi| = rho^2 = {np.min(rho2):.3e}")
    # Psi^-1 = rev(Psi) exp(-PSEUDO beta) / rho
    duality = scalar[..., None, None] * sta.ID \
        - pseudo[..., None, None] * sta.PSEUDO

    def inverted(step):
        Psi, D = dirac_operator(psi, numerics.gradient4(field, point, step),
                                m, units)
        return D @ sta.reversion(Psi) @ duality / rho2[..., None, None]

    full, half = inverted(h), inverted(h / 2.0)
    est = np.max(np.abs(half - full), axis=(-2, -1)) / 15.0
    if tol is not None and np.any(est > tol):
        raise StepTooLarge(f"Richardson estimate {np.max(est):.3e} "
                           f"> tol {tol:.3e}")
    coeffs = np.einsum("...ij,kji->...k", half, _GAMMA16) / 4.0  # Tr[half Gamma_k]/4
    # Tr[A-slash gamma^mu] / 4 = A^mu directly (no dual sign)
    return PotentialSample(eA=coeffs[..., 1:5].real, coefficients=coeffs,
                           richardson=est)


# ---------------------------------------------------------------------------
# closed-form stationary potential and its decomposition
# ---------------------------------------------------------------------------


def stationary_potential_terms(spec: cat.SolutionSpec, t, x, y, z,
                               h: float = numerics.DEFAULT_STEP) -> dict:
    """Decompose the stationary potential into its spin-divergence piece,
    the tetrad-rotation piece P_mu and the kinetic-momentum piece.

    Sign conventions are fixed by requiring agreement with invert():

        eA_0 = (hbar/2) div(rho s x v) / sigma + P_0 - m c J^0 / sigma
        eA_k = (hbar/2) [curl(rho (v^0 s - s^0 v))]_k / sigma - P_k
               - m c J^k / sigma

    where sigma = rho cos(beta) is the duality-signed density and
    P_mu = -(hbar/2) e_2 . d_mu e_1 is evaluated on the phase-bearing
    tetrad rho e_k / sigma (from `spinors.tetrad_pair`) by finite
    differences.
    """
    if spec.is_dressed:
        raise ValueError("stationary families only")
    units = spec.units
    c, hbar = units.c, units.hbar
    point = (t, x, y, z)
    bil = cat.bilinear_fields(spec, *point)
    sigma = bil["scalar"]

    # rho^2 (s x v) = (rho s) x (rho v), then rho (v^0 s - s^0 v); the
    # duality-signed scalar divides one density back out, keeping the field
    # smooth across the annuli where the scalar changes sign
    def spin_cross_and_lin_comb(*q):
        b = cat.bilinear_fields(spec, *q)
        rho_s, J = b["rho_s"], b["J"]
        return np.concatenate([np.cross(rho_s[..., 1:], J[..., 1:]),
                               J[..., :1] * rho_s[..., 1:]
                               - rho_s[..., :1] * J[..., 1:]], axis=-1) \
            / np.expand_dims(b["scalar"], -1)

    g = numerics.gradient4(spin_cross_and_lin_comb, point, h).real
    div = numerics.spatial_divergence(g[..., :3])
    curl = numerics.spatial_curl(g[..., 3:])

    col = cat.spinor(spec)

    def e1_plus_ie2(*q):
        sigma_q = cat.bilinear_fields(spec, *q)["scalar"]
        return spinors.tetrad_pair(col(*q)) / np.expand_dims(sigma_q, -1)

    e2_now = e1_plus_ie2(*point).imag
    P = np.zeros(4)
    for mu, de1 in enumerate(numerics.gradient4(e1_plus_ie2, point, h).real):
        if mu == 0:
            de1 = de1 / c
        P[mu] = -(hbar / 2.0) * sta.minkowski_dot(e2_now, de1)
    mom = spec.m * c * np.array(bil["J"]) / sigma
    spin_div_term = (hbar / 2.0) * div / sigma
    curl_term = (hbar / 2.0) * curl / sigma
    eA0 = spin_div_term + P[0] - mom[0]
    eAk = curl_term - P[1:] - mom[1:]
    return {
        "spin_divergence": spin_div_term,
        "curl": curl_term,
        "P": P,
        "momentum": mom,
        "eA": np.array([eA0, eAk[0], eAk[1], eAk[2]]),
    }


def circularity_residual(spec: cat.SolutionSpec, lam):
    """|eA_0(lam)| of a stationary state, evaluated in closed form at a
    float or an array lam.

    The time component of the inverted potential is

        eA_0 = eps/c - m c J^0 / sigma - (B / 4 c lam sigma) d(lam J_phi)/dlam

    and vanishes identically exactly when the radial profile satisfies its
    second-order equation (the circular-orbit condition).  A lam where the
    signed density sigma is exactly 0 (a null-current circle) raises
    SingularSpinor.
    """
    if spec.is_dressed:
        raise ValueError("stationary families only")
    base = spec.static_base()
    c = base.units.c
    eps = cat.eigenvalue(base)
    A = base.m * c * c + eps
    B = base.B
    pr = cat.profile(base, lam)
    k = cat.stationary_bilinears(base, pr["aH"], pr["bH"])
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
    term = -(B / (4.0 * c * lam * sigma)) * d_lam_jphi
    return abs(eps / c - base.m * c * j0 / sigma + term)


def radial_ode_residual(spec: cat.SolutionSpec, lam, fault=None):
    """Residual of the profile equation

        f'' - 4 (m^2 c^4 + p_z^2 c^2 - eps^2) f / B^2
            + f' ((M+1)/lam + 2 H'/H) = 0,

    normalized by the local profile scale, at a float or an array lam;
    `fault` as for `catalog.spinor`."""
    base = spec.static_base()
    c = base.units.c
    eps = cat.eigenvalue(base)
    pr = cat.profile(base, lam)
    if fault is not None:
        pr = fault(pr, lam)
    gap = 4.0 * ((base.m * c * c) ** 2 + (base.p_z * c) ** 2 - eps ** 2) \
        / base.B ** 2
    res = pr["fpp"] - gap * pr["f"] \
        + pr["fp"] * ((base.M + 1) / lam + 2.0 * pr["Hp"] / pr["H"])
    scale = np.maximum(np.maximum(abs(pr["f"]), abs(pr["fp"])),
                       np.maximum(abs(pr["fpp"]), 1e-30))
    return abs(res) / scale
