"""Independent reference routines the tests check the library against,
and the helpers only the tests use."""
import math
from dataclasses import dataclass

import numpy as np

from rdibeams import catalog as cat
from rdibeams import cli, numerics, spinors, sta, verify
from rdibeams import specialfn as sf


def adaptive_simpson(fn, a, b, tol=1e-10, max_depth=48):
    """Classic adaptive Simpson on [a, b]."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, eps, depth):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = fn(lm), fn(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return (recurse(lo, mid, flo, flm, fmid, left, eps / 2.0, depth - 1)
                + recurse(mid, hi, fmid, frm, fhi, right, eps / 2.0, depth - 1))

    fa, fm, fb = fn(a), fn(0.5 * (a + b)), fn(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, max_depth)


class NonVectorResult(ValueError):
    """A sandwich product left residual weight outside the vector grade."""


def to_vector(a, tol=1e-8):
    """Project a 4x4 matrix onto its vector grade by trace projection,
    a^mu = Tr(a gamma^mu) / 4; error out if anything else carries more
    than `tol` relative weight."""
    comps = np.array([np.trace(a @ g).real / 4.0 for g in sta.GAMMA_UP])
    resid = np.max(np.abs(a - sta.from_vector(comps)))
    if resid > tol * max(np.max(np.abs(a)), 1.0):
        raise NonVectorResult(f"non-vector residual {resid:.3e}")
    return comps


def rk4_path(rhs, x0, s_total, steps):
    """Fixed-step RK4 of dx/ds = rhs(x) with the state a numpy array: the
    reference for the float-state `numerics.rk4_path`."""
    x = np.array(x0, dtype=float)
    h = s_total / steps
    out = np.empty((steps + 1, x.size))
    out[0] = x
    for i in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = x
    return out


def deriv4(fn, x, h=numerics.DEFAULT_STEP):
    """4th-order central derivative of a scalar/array-valued fn of one real,
    at a float or an array x.  fn is called once, on the four stencil
    arguments stacked along a new leading axis."""
    x = np.asarray(x, dtype=float)
    offsets = (numerics._OFFSETS * h).reshape((4,) + (1,) * x.ndim)
    return numerics._combine(fn(x + offsets), h)


def stencil_points(point, h=numerics.DEFAULT_STEP):
    """The 16 stencil points of point[..., 4], filled and then moved one
    coordinate at a time: the reference for the one broadcast add of
    `numerics.stencil_points`."""
    point = np.asarray(point, dtype=float)
    pts = np.empty(point.shape[:-1] + (16, 4))
    pts[...] = point[..., None, :]
    for mu in range(4):
        pts[..., 4 * mu:4 * mu + 4, mu] += numerics._OFFSETS * h
    return pts


def spinor_current(spec):
    """q -> J^mu of the spinor at the point q, read off the full bilinear
    contraction: the reference for the closed-form
    `verify.streamline_current`."""
    col = cat.spinor(spec)
    return lambda q: spinors.bilinears(col(*q)).current


def proper_time_average(spec, n_radii: int = 24, steps: int = 600) -> float:
    """The flux-weighted proper-time average one radius at a time, each
    path's density evaluated on its own: the reference for the batched
    `verify.proper_time_average`."""
    base = spec.static_base()
    col = cat.spinor(base)
    lam_hi = 5.0 if base.family is not cat.Family.RADIAL_B else \
        40.0 / cat.radial_kappa(base)
    nodes, weights = np.polynomial.legendre.leggauss(n_radii)
    lams = 0.5 * (nodes + 1.0) * lam_hi
    wts = 0.5 * lam_hi * weights
    rhs = verify.streamline_current(base)
    total = 0.0
    for lam, w in zip(lams, wts):
        r0 = cat.r_of_lam(base, lam)
        bil = cat.bilinear_fields(base, 0.0, r0, 0.0, 0.0)
        if abs(bil["J_phi"]) < 1e-13 or bil["J"][0] < 1e-13:
            # degenerate orbit: (dtau/dt) J0 reduces to the signed density
            total += 2.0 * math.pi * w * lam * bil["scalar"]
            continue
        arc = 0.5 * math.pi * r0 / abs(bil["J_phi"])  # quarter revolution
        path = numerics.rk4_path(rhs, (0.0, r0, 0.0, 0.0), arc, steps)
        delta_t = path[-1, 0] - path[0, 0]
        # signed proper time accumulated along the path
        psis = numerics.at(col, path[:-1])
        dtau = float(np.sum(spinors.bilinears(psis).scalar)) * (arc / steps)
        total += 2.0 * math.pi * w * lam * (dtau / delta_t) * bil["J"][0]
    return 1.0 / total


def hestenes_matrix(psi):
    """Psi = sum_i (Re psi, Im psi)_i LIFT_i as one contraction: the
    reference for the signed gather of `spinors.hestenes_matrix`."""
    psi = np.asarray(psi, dtype=complex)
    parts = np.concatenate([psi.real, psi.imag], axis=-1)
    return np.einsum("...i,ijk->...jk", parts, spinors._LIFT)


# the products with constant Clifford matrices as einsum and matmul: the
# references for the signed gathers of the library (`sta.gather_product`)


def dirac_operator(psi, grad, m):
    """Psi and D = (d-slash Psi) gamma^2 gamma^1 - m Psi gamma^0 with
    d-slash an einsum over the gamma^mu stack and the right products
    matmuls: the reference for `inversion.dirac_operator`."""
    Psi = spinors.hestenes_matrix(psi)
    dPsi = spinors.hestenes_matrix(grad)
    slash_d = np.einsum("mij,...mjk->...ik", np.stack(sta.GAMMA_UP), dPsi)
    return Psi, slash_d @ spinors.PHASE_PLANE - m * Psi @ sta.GAMMA0


def trace_coefficients(a):
    """Tr[A Gamma_k] for the 16 Gamma_k of matrices a[..., 4, 4], as one
    einsum: the reference for the traces `inversion.invert` takes."""
    return np.einsum("...ij,kji->...k", a, np.stack(sta.GAMMA16))


def reversion(a):
    """gamma0 A^dagger gamma0 as two matmuls: the reference for
    `sta.reversion`."""
    return sta.GAMMA0 @ np.swapaxes(a.conj(), -1, -2) @ sta.GAMMA0


def from_vector(v):
    """v^mu gamma_mu as the sum of the four products: the reference for
    `sta.from_vector`."""
    v = np.asarray(v, dtype=float)[..., None, None]
    return sum(v[..., mu, :, :] * sta.GAMMA[mu] for mu in range(4))


def null_turn(psi):
    """(C1 psi, C2 psi) of the null rotation's two generators, as matmuls on
    psi[..., 4]: the reference for the dressed spinor's turn."""
    return np.concatenate([psi @ cat._NULL_C1.T, psi @ cat._NULL_C2.T],
                          axis=-1)


# ---------------------------------------------------------------------------
# matrix spinors in factored form
# ---------------------------------------------------------------------------


def from_components(r, s):
    """Column spinor from the real octet (r_mu, s_mu)."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    return np.array([
        r[0] - 1j * r[3],
        r[2] - 1j * r[1],
        s[3] + 1j * s[0],
        s[1] + 1j * s[2],
    ])


def phase_rotor(arg: float):
    """exp(-gamma^2 gamma^1 * arg); acts on u1 as multiplication by
    exp(-i*arg)."""
    return np.cos(arg) * sta.ID - np.sin(arg) * spinors.PHASE_PLANE


@dataclass(frozen=True)
class MatrixSpinor:
    """Factored matrix spinor: density, duality angle, Lorentz rotor and the
    scalar phase argument multiplying gamma^2 gamma^1."""

    rho: float
    beta: float
    rotor: np.ndarray
    phase_arg: float

    def __post_init__(self):
        if self.rho <= 0.0:
            raise ValueError("rho must be positive")


def assemble(ms: MatrixSpinor):
    """sqrt(rho) exp(PSEUDO beta/2) rotor exp(-gamma^2 gamma^1 phase)."""
    duality = np.cos(ms.beta / 2.0) * sta.ID \
        + np.sin(ms.beta / 2.0) * sta.PSEUDO
    return np.sqrt(ms.rho) * duality @ ms.rotor @ phase_rotor(ms.phase_arg)


# ---------------------------------------------------------------------------
# the trace-projection basis
# ---------------------------------------------------------------------------


def gamma_basis() -> dict:
    """The basis bundle: the four gamma_mu, the 16 trace-projection
    elements, gamma5, the alpha_k, and the pseudoscalar (17 distinct
    matrices in total)."""
    return {
        "gamma": sta.GAMMA,
        "gamma_up": sta.GAMMA_UP,
        "Gamma": sta.GAMMA16,
        "gamma5": sta.GAMMA5,
        "alpha": sta.ALPHA,
        "pseudoscalar": sta.PSEUDO,
    }


def trace_project(a, k: int) -> complex:
    """Coefficient functional Tr[A Gamma_k] / 4 for k in 1..16."""
    if not 1 <= k <= 16:
        raise IndexError(f"basis index {k} outside 1..16")
    return complex(np.trace(a @ sta.GAMMA16[k - 1])) / 4.0


def reconstruct(a):
    """Rebuild A from its 16 trace projections (sign-dual expansion: each
    Gamma_k squares to +I or -I)."""
    out = np.zeros((4, 4), dtype=complex)
    for g in sta.GAMMA16:
        square = np.trace(g @ g).real / 4.0
        out += (np.trace(a @ g) / 4.0 / square) * g
    return out


# ---------------------------------------------------------------------------
# exponentials and polar rotor factors
# ---------------------------------------------------------------------------


class MixedBivector(ValueError):
    """A bivector with both a boost and a rotation part, whose exponential
    has no closed form here."""


def exp_bivector(a, b):
    """exp(a^k alpha_k - b^k PSEUDO alpha_k).

    Pure boosts (b = 0) and pure rotations (a = 0) have hyperbolic /
    trigonometric closed forms, with unit determinant; a generator with both
    parts raises MixedBivector.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if nb == 0.0 and na == 0.0:
        return sta.ID.copy()
    if nb == 0.0:
        unit = sum(ak * g for ak, g in zip(a / na, sta.ALPHA))
        return np.cosh(na) * sta.ID + np.sinh(na) * unit
    if na == 0.0:
        unit = sum(bk * (sta.PSEUDO @ g) for bk, g in zip(b / nb, sta.ALPHA))
        return np.cos(nb) * sta.ID - np.sin(nb) * unit
    raise MixedBivector(f"boost part {a.tolist()} and rotation part "
                        f"{b.tolist()}")


def boost_from_momentum(p, m: float, sign: int = +1):
    """Positive-definite boost taking the rest spinor to momentum p; the
    sign=-1 branch flips the momentum (negative-energy convention)."""
    p = np.asarray(p, dtype=float)
    energy = np.sqrt(m ** 2 + float(p @ p))
    pref = np.sqrt((energy + m) / (2.0 * m))
    slope = sign / (energy + m)
    mat = sta.ID + slope * sum(pk * g for pk, g in zip(p, sta.ALPHA))
    return pref * mat


def minkowski_dot(u, v) -> float:
    """u . v in the (+,-,-,-) metric."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u[0] * v[0] - u[1] * v[1] - u[2] * v[2] - u[3] * v[3])


# (6,6) Pade coefficients for the matrix exponential
_PADE6 = (1.0, 1.0 / 2.0, 5.0 / 44.0, 1.0 / 66.0, 1.0 / 792.0,
          1.0 / 15840.0, 1.0 / 665280.0)


def expm_pade6(m):
    """Matrix exponential by scaling-and-squaring with a (6,6) Pade core."""
    norm = np.linalg.norm(m, ord=np.inf)
    squarings = max(0, int(np.ceil(np.log2(norm / 0.5))) if norm > 0.5 else 0)
    a = m / (2.0 ** squarings)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    even = _PADE6[0] * sta.ID + _PADE6[2] * a2 + _PADE6[4] * a4 \
        + _PADE6[6] * a6
    odd = a @ (_PADE6[1] * sta.ID + _PADE6[3] * a2 + _PADE6[5] * a4)
    res = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        res = res @ res
    return res


def rotor(a, b):
    """exp(a^k alpha_k - b^k PSEUDO alpha_k) for any boost part a and
    rotation part b, mixed ones included, by `expm_pade6`."""
    gen = sum(ak * g for ak, g in zip(a, sta.ALPHA))
    gen = gen - sum(bk * (sta.PSEUDO @ g) for bk, g in zip(b, sta.ALPHA))
    return expm_pade6(gen)


class SingularInput(ValueError):
    """Input matrix is numerically singular."""


@dataclass(frozen=True)
class RotorFactors:
    """Polar factors of a Lorentz rotor: R = boost @ rotation with the boost
    Hermitian positive definite and the rotation unitary, both unimodular."""

    boost: np.ndarray
    rotation: np.ndarray

    def recompose(self):
        return self.boost @ self.rotation


def polar_decompose(r) -> RotorFactors:
    """Split a unimodular matrix into boost (= sqrt(R R^dagger)) times
    rotation, via the eigen-decomposition of the Hermitian square."""
    svals = np.linalg.svd(r, compute_uv=False)
    if svals[-1] < 1e-12:
        raise SingularInput(f"smallest singular value {svals[-1]:.3e}")
    herm = r @ r.conj().T
    evals, evecs = np.linalg.eigh(herm)
    root = (evecs * np.sqrt(evals.clip(min=0.0))) @ evecs.conj().T
    inv_root = (evecs * (1.0 / np.sqrt(evals.clip(min=1e-300)))) \
        @ evecs.conj().T
    return RotorFactors(boost=root, rotation=inv_root @ r)


def dressed_polar_angle_residual(spec, xi: float) -> float:
    """The rotation angle of the polar factors of (1 + N) must satisfy
    tan(theta/2) = |f'| / (2 eps omega)."""
    eps = cat.eigenvalue(spec.static_base())
    d1, d2 = spec.waveform.fdot(xi)
    gen = cat.null_rotation_generator(d1, d2, eps, spec.omega)
    factors = polar_decompose(sta.ID + gen)
    cos_half = float(np.trace(factors.rotation).real) / 4.0
    theta_half = math.acos(min(1.0, max(-1.0, cos_half)))
    expected = math.atan(math.hypot(d1, d2) / (2.0 * eps * spec.omega))
    return abs(theta_half - expected)


_GAMMA = np.stack(sta.GAMMA)
_GAMMA_UP = np.stack(sta.GAMMA_UP)


def null_rotation_lorentz(fdot1, fdot2, eps: float, omega: float):
    """Lambda^mu_nu = Tr(R gamma_nu rev(R) gamma^mu) / 4 with R = 1 + N,
    N from `catalog.null_rotation_generator`, as one einsum over the gamma
    stacks: the reference for the closed-form `catalog.null_rotation_lorentz`.
    """
    rot = sta.ID + cat.null_rotation_generator(fdot1, fdot2, eps, omega)
    return np.einsum("...ij,njk,...kl,mli->...mn", rot, _GAMMA,
                     reversion(rot), _GAMMA_UP).real / 4.0


def plane_wave(spec, t, z):
    """A dressed spec's phase xi = omega (t - z), quiver shift
    (dx, dy) = f(xi) / (eps omega^2) and gauge phase
    -G(xi) / (2 eps omega^3), written apart from the catalog's, for the
    tests' independent transcriptions of the dressed columns."""
    eps = cat.eigenvalue(spec)
    xi = spec.omega * (t - z)
    f1, f2 = spec.waveform.f(xi)
    gauge = -spec.waveform.gauge_integral(xi) / (2.0 * eps * spec.omega ** 3)
    return xi, (f1 / (eps * spec.omega ** 2), f2 / (eps * spec.omega ** 2)), \
        gauge


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


def fields_from_potential(spec, point, h: float = numerics.DEFAULT_STEP):
    """E and B derived from the potential by finite differences,

        eE = -grad(eA^0) - d(e A)/dt,   eB = curl(e A),

    as a cross-check of the closed-form field displays."""
    g = numerics.gradient4(lambda *q: cat.potential(spec, *q), point, h).real
    return {"electric": -g[..., 1:, 0] - g[..., 0, 1:],
            "magnetic": numerics.spatial_curl(g[..., :, 1:])}


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------


def bessel_addition_residual(nu: int, rho: float, rho_bar: float,
                             dphi: float, terms: int = 40) -> float:
    """Residual of the two-center Bessel addition theorem

        exp(-i nu theta) J_nu(w) = sum_m J_m(rho_bar) J_{nu+m}(rho)
                                        exp(-i m dphi),

    with w, theta from the triangle with sides rho, rho_bar and angle dphi.
    """
    w = math.sqrt(rho ** 2 + rho_bar ** 2 - 2.0 * rho * rho_bar * math.cos(dphi))
    theta = math.atan2(rho_bar * math.sin(dphi),
                       rho - rho_bar * math.cos(dphi))
    nmax = abs(nu) + terms + 1
    jr = sf.bessel_j_all(nmax, rho)
    jb = sf.bessel_j_all(terms + 1, rho_bar)
    jw = sf.bessel_j_all(abs(nu), w)[abs(nu)] if w > 0 else (1.0 if nu == 0 else 0.0)
    if nu < 0:
        jw *= (-1) ** nu
    lhs = np.exp(-1j * nu * theta) * jw
    rhs = 0.0 + 0.0j
    for m in range(-terms, terms + 1):
        a = jb[abs(m)] * ((-1) ** m if m < 0 else 1)
        k = nu + m
        b = jr[abs(k)] * ((-1) ** k if k < 0 else 1)
        rhs += a * b * np.exp(-1j * m * dphi)
    return abs(lhs - rhs)


def bessel_j_deriv(nu: int, x: float) -> float:
    """d/dx J_nu(x) via the two-sided recurrence."""
    if x == 0.0:
        if nu == 1:
            return 0.5
        return 0.0
    vals = sf.bessel_j_all(nu + 1, x)
    lower = vals[nu - 1] if nu >= 1 else -vals[1]
    return 0.5 * (lower - vals[nu + 1])


def miller_all(nmax: int, x) -> list:
    """Miller's recurrence with each start's elements seeded by a full-array
    np.where, a fresh array per step and the whole normalization sum: the
    reference for the in-place steps of `specialfn._miller_all`."""
    starts = sf._miller_start(nmax, x)
    seeds = set(starts.tolist())
    start = max(seeds)
    check_from = sf._batch_checkpoints(starts, x).start
    jp = np.zeros_like(x)
    jc = np.zeros_like(x)
    out = [0.0] * (nmax + 1)
    norm = 0.0
    for k in range(start, 0, -1):
        if k in seeds:
            jc = np.where(starts == k, sf._SEED, jc)
        jm = (2.0 * k / x) * jc - jp
        jp = jc
        jc = jm
        if k <= check_from:
            over = abs(jc) > sf._RESCALE_AT
            if over.any():
                scale = np.where(over, sf._RESCALE, 1.0)
                jc = jc * scale
                jp = jp * scale
                norm = norm * scale
                out = [v * scale for v in out]
        if (k - 1) <= nmax:
            out[k - 1] = jc
        if (k - 1) % 2 == 0:
            norm = norm + 2.0 * jc
    norm = norm - jc  # J0 counted once
    return [v / norm for v in out]


def laguerre(n: int, alpha: float, x: float) -> float:
    """Generalized Laguerre polynomial L_n^alpha(x) by its three-term
    recurrence: the reference for the library's orthonormal Laguerre
    functions."""
    if n < 0:
        raise sf.DomainError("negative degree")
    if n == 0:
        return 1.0
    lm, lc = 1.0, 1.0 + alpha - x
    for k in range(1, n):
        lm, lc = lc, ((2 * k + 1 + alpha - x) * lc - (k + alpha) * lm) / (k + 1)
    return lc


def hyp1f1_poly(n: int, b: float, x: float) -> float:
    """1F1(-n; b; x) evaluated as the terminating sum."""
    if n < 0:
        raise sf.DomainError("negative n")
    total = 1.0
    term = 1.0
    for k in range(n):
        denom = b + k
        if denom == 0.0:
            raise sf.DomainError(f"1F1 pole: b = {b} hits a non-positive "
                                 f"integer")
        term *= (-(n - k)) * x / (denom * (k + 1))
        total += term
    return total


def tricomi_u_poly(n: int, b: float, x: float) -> float:
    """Tricomi U(-n, b, x) for terminating (polynomial) parameters.

    Evaluated by the contiguous recurrence in the first parameter, with the
    negative-degree cases U(0,b,x) = 1 and U(-1,b,x) = x - b as anchors.
    """
    if n < 0 or n != int(n):
        raise sf.DomainError("first argument must be -n with integer n >= 0")
    n = int(n)
    if n == 0:
        return 1.0
    um = 1.0          # U(0, b, x)
    uc = x - b        # U(-1, b, x)
    a = -1.0
    for _ in range(n - 1):
        # U(a-1) = (x + 2a - b) U(a) - a (a - b + 1) U(a+1)
        um, uc = uc, (x + 2.0 * a - b) * uc - a * (a - b + 1.0) * um
        a -= 1.0
    return uc


# ---------------------------------------------------------------------------
# magnetic profiles in 30 digits
# ---------------------------------------------------------------------------


def magnetic_pair_mp(spec, lam):
    """(aH, bH) of a stationary magnetic state (natural units) at lam, in
    30-digit mpmath, as mpf.

    aH = P ell_n^alpha(u), times (-1)^l in the split family, with the
    orthonormal Laguerre function taken from mpmath's Laguerre polynomial
    and gamma function; bH = lam^(M/2) H d/dlam (aH / (lam^(M/2) H)), the
    paper's lam^(M/2) f' H, by mpmath's numerical derivative, so that no
    Laguerre identity of the library is reused."""
    import mpmath

    mp = mpmath.mpf
    with mpmath.workdps(30):
        base = spec.static_base()
        n, l, M = base.n, base.l, base.M
        B, m, pz = mp(base.B), mp(base.m), mp(base.p_z)
        if base.family is cat.Family.RADIAL_B:
            K = 2 * n + M + 1
            kappa = mp(M + 1) / K
            eps = mpmath.sqrt(m ** 2 + pz ** 2 + n * (n + M + 1) * B ** 2
                              / (4 * K ** 2))
            P = B * kappa / mpmath.sqrt(4 * mpmath.pi * K * eps * (eps + m))

            def u(x):
                return kappa * x

            def H(x):
                return mpmath.exp(-x / 2)
        else:
            split = base.family is cat.Family.UNIFORM_B_SPLIT
            eps = mpmath.sqrt(m ** 2 + pz ** 2
                              + 2 * B ** 2 * (n + l if split else n))
            P = (-1) ** (l if split else 0) * B \
                / mpmath.sqrt(mpmath.pi * eps * (eps + m))

            def u(x):
                return 2 * x * x

            def H(x):
                return mpmath.exp(-x * x)

        def a(x):
            v = u(x)
            c = mpmath.sqrt(mpmath.factorial(n) / mpmath.gamma(n + l + 1))
            return P * c * v ** (mp(l) / 2) * mpmath.exp(-v / 2) \
                * mpmath.laguerre(n, l, v)

        def s(x):
            return x ** (mp(M) / 2) * H(x)

        lam = mp(lam)
        return +a(lam), s(lam) * mpmath.diff(lambda x: a(x) / s(x), lam)


def magnetic_spinor_mp(spec, t, x, y, z) -> np.ndarray:
    """psi[4] of a stationary magnetic state (natural units) at one point,
    from `magnetic_pair_mp`: (A aH, 0, p_z aH, -i B bH e^(i phi) / 2) / B
    times exp(-i (eps t - p_z z) + i M phi / 2)."""
    import mpmath

    with mpmath.workdps(30):
        base = spec.static_base()
        B, pz = mpmath.mpf(base.B), mpmath.mpf(base.p_z)
        eps = mpmath.mpf(cat.eigenvalue(base))
        r = mpmath.hypot(x, y)
        aH, bH = magnetic_pair_mp(base, B * r / 2)
        phi = mpmath.atan2(y, x)
        phase = mpmath.expj(-(eps * t - pz * z) + base.M * phi / 2)
        col = [(base.m + eps) * aH / B, 0, pz * aH / B,
               -0.5j * bH * mpmath.expj(phi)]
        return np.array([complex(v * phase) for v in col])


# ---------------------------------------------------------------------------
# the decomposition of the stationary potential
# ---------------------------------------------------------------------------


def stationary_potential_terms(spec, t, x, y, z,
                               h: float = numerics.DEFAULT_STEP) -> dict:
    """Decompose the stationary potential into its spin-divergence piece,
    the tetrad-rotation piece P_mu and the kinetic-momentum piece.

    Sign conventions are fixed by requiring agreement with invert():

        eA_0 = (1/2) div(rho s x v) / sigma + P_0 - m J^0 / sigma
        eA_k = (1/2) [curl(rho (v^0 s - s^0 v))]_k / sigma - P_k
               - m J^k / sigma

    where sigma = rho cos(beta) is the duality-signed density and
    P_mu = -(1/2) e_2 . d_mu e_1 is evaluated on the phase-bearing
    tetrad rho e_k / sigma (from `spinors.tetrad_pair`) by finite
    differences.
    """
    if spec.is_dressed:
        raise ValueError("stationary families only")
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
        P[mu] = -0.5 * minkowski_dot(e2_now, de1)
    mom = spec.m * np.array(bil["J"]) / sigma
    spin_div_term = 0.5 * div / sigma
    curl_term = 0.5 * curl / sigma
    eA0 = spin_div_term + P[0] - mom[0]
    eAk = curl_term - P[1:] - mom[1:]
    return {
        "spin_divergence": spin_div_term,
        "curl": curl_term,
        "P": P,
        "momentum": mom,
        "eA": np.array([eA0, eAk[0], eAk[1], eAk[2]]),
    }


_CSV_ROW = ",".join(["%.12g"] * len(cli._CSV_HEADER)) + "\r\n"
_JSONL_ORDER = sorted(range(len(cli._CSV_HEADER)),
                      key=cli._CSV_HEADER.__getitem__)
_JSONL_ROW = "{" + ", ".join(f'"{cli._CSV_HEADER[i]}": %r'
                             for i in _JSONL_ORDER) + "}\n"


def map_rows(table, fmt: str) -> str:
    """The rows of an eval map table[n, 28] as text, one %-format and one
    tuple per row, every value formatted where it stands: the reference for
    the constant columns and blocks of rows of `cli._map_text`."""
    row_text = _CSV_ROW
    if fmt == "jsonl":
        row_text, table = _JSONL_ROW, table[:, _JSONL_ORDER]
    return "".join([row_text % tuple(row) for row in table.tolist()])


# ---------------------------------------------------------------------------
# the per-family if-chains that `catalog._FAMILIES` replaced, kept as the
# reference the table is checked against bit for bit
# ---------------------------------------------------------------------------

F = cat.Family


def eigenvalue(spec) -> float:
    """The level, one branch per family."""
    base = spec.m ** 2 + spec.p_z ** 2
    fam = spec.static_base().family
    if fam is F.FREE_BESSEL:
        return math.sqrt(base + spec.p_perp ** 2)
    if fam is F.UNIFORM_B:
        return math.sqrt(base + 2.0 * spec.B ** 2 * spec.n)
    if fam is F.UNIFORM_B_SPLIT:
        return math.sqrt(base + 2.0 * spec.B ** 2 * (spec.l + spec.n))
    n, M = spec.n, spec.M
    return math.sqrt(base + n * (n + M + 1) * spec.B ** 2
                     / (4.0 * (2 * n + M + 1) ** 2))


def normalization(spec) -> float:
    """The amplitude P, one branch per family, past MAX_DEGREE DomainError
    naming the orbital number."""
    base = spec.static_base()
    eps = eigenvalue(base)
    if base.family is F.FREE_BESSEL:
        return base.B / (math.sqrt(2.0) * eps * math.sqrt(base.m / eps + 1.0))
    n, l = base.n, base.l
    if 2 * n + l > cat.MAX_DEGREE:
        orbital = "M" if base.family is F.RADIAL_B else "l"
        raise sf.DomainError(
            f"{base.family.value} n={n} {orbital}={l}: Laguerre degree "
            f"2n + {orbital} = {2 * n + l} is past the validity envelope "
            f"({cat.MAX_DEGREE})")
    scale = math.pi * eps * (eps + base.m)
    if base.family is F.RADIAL_B:
        scale = 4 * (2 * n + l + 1) * scale / cat.radial_kappa(base) ** 2
    return base.B / math.sqrt(scale)


def quantum_numbers(family, l: int, M: int | None) -> tuple:
    """(l, M) as a valid spec of the family stores them: the winding rule."""
    if family in (F.RADIAL_B, F.RADIAL_B_LASER):
        M = l if M is None else M
        return M, M
    return l, -2 * l if family is F.UNIFORM_B_SPLIT else 2 * l


_N = {"n": "principal index"}
_L = {"l": "orbital index, winding M = 2l"}
_WINDING = {"M": "winding (>= 0)"}
_BESSEL = {**_L, "pperp": "transverse momentum (> 0)"}
_LISTING = {
    F.FREE_BESSEL: ("field-free Bessel beam", _BESSEL),
    F.UNIFORM_B: ("uniform axial magnetic field, levels degenerate in l",
                  {**_N, **_L}),
    F.UNIFORM_B_SPLIT: ("uniform axial magnetic field, levels split by l",
                        {**_N, "l": "orbital index, winding M = -2l"}),
    F.RADIAL_B: ("axial magnetic field falling off as 1/r",
                 {**_N, **_WINDING}),
    F.VOLKOV_BESSEL: ("Bessel beam dressed by a plane wave (Volkov-type)",
                      _BESSEL),
    F.REDMOND: ("uniform magnetic field plus co-propagating plane wave",
                {**_N, **_L}),
    F.RADIAL_B_LASER: ("1/r magnetic field plus co-propagating plane "
                       "wave", {**_N, **_WINDING}),
}
_COMMON = {"B": "field-strength constant (energy units)",
           "mass": "electron mass"}
_STATIONARY = {"pz": "longitudinal momentum"}
_DRESSING = {"waveform": "circular | linear | pulse, with amplitude",
             "omega": "plane-wave frequency"}


def describe_families() -> list[dict]:
    """The catalog's schema from one listing of all seven families."""
    return [{"family": fam.value, "description": text,
             "parameters": {**_COMMON, **own,
                            **(_DRESSING if fam in cat.DRESSED_BASE
                               else _STATIONARY)}}
            for fam, (text, own) in _LISTING.items()]


def spec_label(spec) -> str:
    """A spec's report label, p_perp shown for the two Bessel families."""
    bits = [spec.family.value, f"n={spec.n}", f"l={spec.l}", f"M={spec.M}",
            f"B={spec.B}", f"pz={spec.p_z}"]
    if spec.family in (F.FREE_BESSEL, F.VOLKOV_BESSEL):
        bits.append(f"pperp={spec.p_perp}")
    if spec.waveform is not None:
        bits.append(f"wf={spec.waveform.kind}:{spec.waveform.amplitude}")
        bits.append(f"omega={spec.omega}")
    return " ".join(bits)


def closed_averages(spec, xi: float = 0.0) -> dict:
    """The closed forms `catalog.averages` sets beside its quadratures of a
    magnetic family's state: rho, J_phi, and for a dressed state J_z and the
    centroid at phase xi."""
    base = spec.static_base()
    eps = eigenvalue(base)
    n, l, M = base.n, base.l, base.M
    out = {"rho_closed": base.m / eps}
    if base.family is F.UNIFORM_B:
        out["J_phi_closed"] = -math.sqrt(2.0) * base.B * base.n / eps
    elif base.family is F.UNIFORM_B_SPLIT:
        out["J_phi_closed"] = -math.sqrt(2.0) * base.B * (n + l) / eps
    elif base.family is F.RADIAL_B:
        out["J_phi_closed"] = -base.B * n * (1 + n + M) \
            / ((1 + 2 * n + M) ** 2 * eps)
    if not spec.is_dressed:
        return out
    d1, d2 = spec.waveform.fdot(xi)
    out["J_z_closed"] = (d1 * d1 + d2 * d2) \
        / (2.0 * eps ** 2 * spec.omega ** 2)
    if base.family is F.UNIFORM_B:
        coeff = base.n / (spec.omega * eps ** 2)
        out["centroid_closed"] = (coeff * d2, -coeff * d1)
    elif base.family is F.RADIAL_B:
        coeff = 3.0 * n * (n + M + 1) \
            / (2.0 * (M + 1) * spec.omega * eps ** 2)
        out["centroid_closed"] = (coeff * d2, -coeff * d1)
    return out
