"""Independent machine checks for the solution catalog.

Every closed-form solution is verified by substitution: finite-difference
Dirac residuals (column and matrix form), current continuity, Lorentz gauge,
Maxwell sources, potential inversion agreement, the radial profile equation,
kinematic/tetrad invariants, the dual-path dressed-beam equivalence and the
null-rotation block identity.  The standard suite is one table, CHECKS, run
over seeded uniform points in the box [0.5, 5]^4 (natural units).

Each residual takes a batch of points, point[..., 4], and returns one value
per point; each check of CHECKS calls it once per spec, on all its points.
A residual differentiates its field once, with `numerics.gradient4`, whose
one `partial4` call evaluates the field once, on all 16 stencil points of
every point of the batch.  The true column spinor is the exception: the
suite evaluates it once per spec, on the first row that reads it, as one
`numerics.sample` at the spec's points and their h-stencil, and the dirac,
continuity, inversion, kinematics and volkov rows read slices of it (only
the inversion's h/2 stencil is evaluated anew).  Each of those residuals
takes the sample as an optional last argument and, called without it,
evaluates the spinor itself, to the same bits.  Nothing is kept past a
spec.  The Dirac residual shares the matrix Dirac operator of the
inversion, `inversion.dirac_operator`, which takes its derivative from the
column one.  A record that checked no point fails, and its extras give the
reason.

Negative controls assert detection power, not only agreement.  FAULTS names
each control's rows and the `catalog` attribute it wraps while each runs, on
a spinor sample of its own.  A control that reaches none of the selected
checks is a SelectionError (a usage error in the CLI).
"""
from __future__ import annotations

import functools
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import catalog as cat
from . import inversion, numerics, specialfn as sf, spinors, sta
from .waveforms import Waveform, circular, linear, pulse

Array = np.ndarray

BOX_LOW, BOX_HIGH = 0.5, 5.0


class StepUnstable(RuntimeError):
    """Streamline integration error estimate exceeded its bound."""


def sample_points(rng: np.random.Generator, count: int) -> Array:
    """Seeded uniform sample in the standard box, off the symmetry axis."""
    return rng.uniform(BOX_LOW, BOX_HIGH, size=(count, 4))


# ---------------------------------------------------------------------------
# pointwise residuals
# ---------------------------------------------------------------------------


def dirac_residual(spec: cat.SolutionSpec, point, h: float = numerics.DEFAULT_STEP,
                   sample: numerics.StencilSample | None = None):
    """Relative residual of gamma^mu (i d_mu - eA_mu) psi = m psi at
    point[..., 4], one value per point.

    The matrix form D - eA-slash Psi is evaluated, with D the matrix Dirac
    operator of `inversion.dirac_operator` on the column field and its
    4-gradient.  Its first column is the column form, so the returned value
    is the larger of the column residual and half the full matrix norm
    (they agree for a consistent lift).
    `sample`, when given, is the spinor's `numerics.sample` at point, step h.
    """
    if sample is None:
        sample = numerics.sample(cat.spinor(spec), point, h)
    psi = sample.at_points
    eA = numerics.at(lambda *q: cat.potential(spec, *q), point)
    Psi, D = inversion.dirac_operator(psi, sample.gradient(), spec.m)
    mat = D - sta.from_vector(eA) @ Psi
    scale = np.maximum(spec.m * np.linalg.norm(psi, axis=-1), 1e-30)
    return np.maximum(np.linalg.norm(mat[..., :, 0], axis=-1) / scale,
                      np.linalg.norm(mat, axis=(-2, -1)) / (2.0 * scale))


def continuity_residual(spec: cat.SolutionSpec, point,
                        h: float = numerics.DEFAULT_STEP,
                        sample: numerics.StencilSample | None = None):
    """|d_mu J^mu| from the bilinear current of the spinor field, at
    point[..., 4]: J^mu of the spinor on the stencil rows of its
    `numerics.sample` (`sample`, when given, already evaluated)."""
    if sample is None:
        sample = numerics.sample(cat.spinor(spec), point, h)
    return abs(numerics.divergence(sample.gradient(spinors.current)))


def lorentz_gauge_residual(spec: cat.SolutionSpec, point,
                           h: float = numerics.DEFAULT_STEP):
    """|d_mu eA^mu| by finite differences, at point[..., 4]."""
    return abs(numerics.divergence4(
        lambda *q: cat.potential(spec, *q), point, h))


def inversion_agreement(spec: cat.SolutionSpec, point,
                        h: float = numerics.DEFAULT_STEP,
                        sample: numerics.StencilSample | None = None) -> dict:
    """invert() against the family's closed-form potential, at
    point[..., 4]; each entry holds one value per point.  `sample` is
    handed on to invert()."""
    inv = inversion.invert(cat.spinor(spec), point, h=h, m=spec.m,
                           sample=sample)
    closed = numerics.at(lambda *q: cat.potential(spec, *q), point)
    return {
        "potential_diff": np.max(np.abs(inv.eA - closed), axis=-1),
        "constrained": inv.constrained_residual,
        "richardson": inv.richardson,
    }


def maxwell_residual(spec: cat.SolutionSpec, point,
                     h: float = numerics.DEFAULT_STEP):
    """Max residual of Gauss and Ampere laws against the closed-form
    sources, at point[..., 4]."""

    def e_and_b(*q):
        smp = cat.fields(spec, *q)
        return np.concatenate([smp.electric, smp.magnetic], axis=-1)

    charge, current = numerics.at(lambda *q: cat.sources(spec, *q), point)
    g = numerics.gradient4(e_and_b, point, h).real
    gauss = numerics.spatial_divergence(g[..., :3]) - charge
    ampere = numerics.spatial_curl(g[..., 3:]) - g[..., 0, :3] - current
    return np.maximum(abs(gauss), np.max(np.abs(ampere), axis=-1))


def field_invariants(spec: cat.SolutionSpec, point) -> dict:
    """e E . e B for the dressed magnetic families, at point[..., 4]."""
    smp = numerics.at(lambda *q: cat.fields(spec, *q), point)
    return {"E_dot_B": np.sum(smp.electric * smp.magnetic, axis=-1)}


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------


CONDITION_FLOOR = 5e-3  # rho / J^0 below which a point is excluded


def kinematics_check(spec: cat.SolutionSpec, points,
                     sample: numerics.StencilSample | None = None) -> dict:
    """The tetrad invariants of `spinors.observables` on a point batch.

    Asserts the exact invariants (unit velocity, unit spacelike spin,
    orthogonality, tetrad Gram matrix, spin-plane identity, vanishing
    pseudoscalar) and reports the worst deviations plus the fraction of
    points where the duality angle sits at pi instead of 0 (annuli around
    the radial nodes of excited states).

    Points with rho < CONDITION_FLOOR * J^0 are counted separately rather
    than asserted: within that distance of a null-current circle the
    round-off of the bilinears alone perturbs v.v - 1 by ~ eps (J^0/rho)^2,
    which double precision cannot keep under the 1e-10 tolerance.
    The spinor is read from `sample`, the spinor's `numerics.sample` at
    the points, when given.
    """
    psis = numerics.at(cat.spinor(spec), points) if sample is None \
        else sample.at_points
    obs = spinors.observables(psis)
    used = obs.rho >= CONDITION_FLOOR * obs.current[:, 0]
    rho, scalar = obs.rho[used, None], obs.scalar[used]
    assert (obs.current[used, :1] >= rho).all() and (rho > 0.0).all()
    tetrad = obs.tetrad[used]
    gram = np.einsum("nai,ij,nbj->nab", tetrad, sta.METRIC, tetrad)
    plane = sta.from_vector(tetrad[:, 2]) @ sta.from_vector(tetrad[:, 1]) \
        - obs.spin_plane[used]
    devs = {"vv": gram[:, 0, 0] - 1.0, "ss": gram[:, 3, 3] + 1.0,
            "vs": gram[:, 0, 3], "gram": gram - sta.METRIC, "plane": plane,
            "pseudo": obs.pseudo[used] / rho[:, 0],
            "beta0": obs.beta[used][scalar >= 0]}
    out = {k: float(np.max(np.abs(d), initial=0.0)) for k, d in devs.items()}
    out["beta_pi_fraction"] = np.count_nonzero(scalar < 0) / max(rho.size, 1)
    out["excluded"] = len(psis) - rho.size
    return out


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def volkov_bessel_explicit(spec: cat.SolutionSpec):
    """Independent transcription of the dressed Bessel column (dual path to
    the null-rotation construction; same gauge and normalization
    conventions as the catalog)."""
    base = spec.static_base()
    eps = cat.eigenvalue(base)
    kt = math.sqrt(eps ** 2 - base.m ** 2)
    norm = cat.normalization(base)
    l = base.l

    def field(t, x, y, z):
        xi = spec.omega * (t - z)
        dx, dy = cat.coordinate_shift(spec, xi)
        xp, yp = x + dx, y + dy
        lamp = cat.lam_of_r(base, np.hypot(xp, yp))
        phi = np.arctan2(yp, xp)
        d1, d2 = spec.waveform.fdot(xi)
        arg = 2.0 * lamp * kt / base.B
        jl = sf.bessel_j(l, arg)
        jl1 = sf.bessel_j(l + 1, arg)
        gl = np.exp(1j * l * phi) * jl
        gl1 = np.exp(1j * (l + 1) * phi) * jl1
        r = 1.0 / (eps * spec.omega)
        pref = (norm / (2.0 * base.B)) \
            * np.exp(1j * (cat.gauge_phase(spec, xi) - eps * t))
        col = np.stack([
            2.0 * (base.m + eps) * gl - r * kt * (d2 + 1j * d1) * gl1,
            r * (base.m + eps) * (d1 + 1j * d2) * gl,
            -r * kt * (d2 + 1j * d1) * gl1,
            2.0j * kt * gl1 - r * (base.m + eps) * (d1 + 1j * d2) * gl,
        ], axis=-1)
        return pref[..., None] * col

    return field


def volkov_equivalence(spec: cat.SolutionSpec, point,
                       sample: numerics.StencilSample | None = None):
    """Norm difference between the null-rotation construction and the
    explicit dressed Bessel column, at point[..., 4]; the construction is
    read from `sample`, its `numerics.sample` at the points, when given."""
    a = numerics.at(cat.spinor(spec), point) if sample is None \
        else sample.at_points
    b = numerics.at(volkov_bessel_explicit(spec), point)
    return np.linalg.norm(a - b, axis=-1)


def null_rotation_block_residual(wf: Waveform, xi, eps: float,
                                 omega: float) -> dict:
    """The 4x4 null-rotation matrix must equal its block (Weyl-basis)
    counterpart built from the complex shear parameter
    a = -(f1' - i f2') / (eps omega); also checks nilpotency and
    unimodularity.  xi is a float or an array of phases, and each entry
    holds one value per phase."""
    d1, d2 = wf.fdot(xi)
    gen = cat.null_rotation_generator(d1, d2, eps, omega)
    rotor = sta.ID + gen
    T = (sta.ID + sta.GAMMA5 @ sta.GAMMA0) / math.sqrt(2.0)
    blocked = T @ rotor @ T.conj().T
    a = -(d1 - 1j * d2) / (eps * omega)
    target = np.broadcast_to(sta.ID, np.shape(a) + (4, 4)).copy()
    target[..., 1, 0], target[..., 2, 3] = -np.conj(a), a
    most = functools.partial(np.max, axis=(-2, -1))
    return {
        "block_diff": most(np.abs(blocked - target)),
        "nilpotency": most(np.abs(gen @ gen)),
        "det_minus_1": np.abs(np.linalg.det(rotor) - 1.0),
        "unipotent": most(np.abs((rotor - sta.ID) @ (rotor - sta.ID))),
    }


# ---------------------------------------------------------------------------
# streamlines
# ---------------------------------------------------------------------------


# the largest move of a streamline's end point when its step is halved
STREAMLINE_STEP_TOL = 1e-6


def streamline_current(spec: cat.SolutionSpec):
    """The right-hand side of the streamline step, which evaluates one
    point at a time: q = (t, x, y, z), a tuple of floats, -> J^mu of a
    stationary spec in the closed form of `catalog.bilinear_fields`, J^0,
    J_phi and J^z from `catalog.stationary_bilinears` of the pair at the
    point's radius, J_phi along the azimuth.  Both kernels are bound once,
    here, so a step re-derives neither the profile's constants nor the
    level.  Raises ValueError for a dressed spec, as bilinear_fields does."""
    if spec.is_dressed:
        raise ValueError("use velocity_spin for dressed families")
    pair, bilinears = cat._pair_kernel(spec), cat.stationary_bilinears(spec)

    def rhs(q):
        _, x, y, _ = q
        r = math.hypot(x, y)
        k = bilinears(*pair(cat.lam_of_r(spec, r)))
        jphi = k["J_phi"]
        r = r or 1.0  # on the axis the transverse current is zero
        return (k["J0"], -jphi * y / r, jphi * x / r, k["J_z"])

    return rhs


def streamline(spec: cat.SolutionSpec, x0, s_max: float, steps: int) -> Array:
    """Integrate dx^mu/ds = J^mu(x) of a stationary spec with RK4 from
    x0 = (t, x, y, z); past STREAMLINE_STEP_TOL of step-halving error,
    raise StepUnstable."""
    rhs = streamline_current(spec)
    path = numerics.rk4_path(rhs, x0, s_max, steps)
    half = numerics.rk4_path(rhs, x0, s_max, 2 * steps)
    err = float(np.max(np.abs(path[-1] - half[-1])))
    if err > STREAMLINE_STEP_TOL:
        raise StepUnstable(f"RK4 step-halving error {err:.3e}")
    return path


def orbit_closure(spec: cat.SolutionSpec, r0: float, steps: int = 4000) -> dict:
    """Integrate one revolution of a stationary p_z = 0 state and report the
    radial drift and the proper-time rate along the orbit."""
    bil = cat.bilinear_fields(spec, 0.0, r0, 0.0, 0.0)
    jphi = bil["J_phi"]
    if abs(jphi) < 1e-14:
        raise StepUnstable("orbit has no azimuthal flow at this radius")
    s_rev = abs(2.0 * math.pi * r0 / jphi)
    path = streamline(spec, (0.0, r0, 0.0, 0.0), s_rev, steps)
    radii = np.hypot(path[:, 1], path[:, 2])
    angles = np.unwrap(np.arctan2(path[:, 2], path[:, 1]))
    swept = abs(angles[-1] - angles[0])
    drift = float(np.max(np.abs(radii - r0)))
    dt_ds = (path[-1, 0] - path[0, 0]) / s_rev
    return {"radial_drift": drift / max(swept / (2 * math.pi), 1e-12),
            "swept_angle": swept, "dt_ds": dt_ds,
            "z_drift": float(np.max(np.abs(path[:, 3] - path[0, 3])))}


def proper_time_average(spec: cat.SolutionSpec, n_radii: int = 24,
                        steps: int = 600) -> float:
    """Flux-weighted streamline average of dt/ds_proper.

    Streamline seeds are placed at Gauss-Legendre radii weighted by the
    probability flux; along each orbit the proper-time rate is measured
    from the integrated path using the duality-signed density, and the
    reciprocal of the average must equal eps / m.
    """
    base = spec.static_base()
    col = cat.spinor(base)
    lam_hi = 5.0 if base.family is not cat.Family.RADIAL_B else \
        40.0 / cat.radial_kappa(base)
    nodes, weights = np.polynomial.legendre.leggauss(n_radii)
    lams = 0.5 * (nodes + 1.0) * lam_hi
    wts = 0.5 * lam_hi * weights
    r0s = cat.r_of_lam(base, lams)
    bil = cat.bilinear_fields(base, 0.0, r0s, 0.0, 0.0)
    j0, jphi = bil["J"][:, 0], bil["J_phi"]
    flows = (np.abs(jphi) >= 1e-13) & (j0 >= 1e-13)
    arcs = 0.5 * math.pi * r0s[flows] / np.abs(jphi[flows])  # quarter turns
    rhs = streamline_current(base)
    paths = np.reshape([
        numerics.rk4_path(rhs, (0.0, r0, 0.0, 0.0), arc, steps)
        for r0, arc in zip(r0s[flows], arcs)], (-1, steps + 1, 4))
    delta_t = paths[:, -1, 0] - paths[:, 0, 0]
    # signed proper time accumulated along each path, all paths as one batch
    sigma = spinors.bilinears(numerics.at(col, paths[:, :-1])).scalar
    dtau = np.sum(sigma, axis=-1) * (arcs / steps)
    # on a degenerate orbit (dtau/dt) J0 reduces to the signed density
    rate = bil["scalar"].copy()
    rate[flows] = dtau / delta_t * j0[flows]
    return 1.0 / np.sum(2.0 * math.pi * wts * lams * rate)


# ---------------------------------------------------------------------------
# report assembly and the standard suite
# ---------------------------------------------------------------------------


@dataclass
class CheckRecord:
    name: str
    family: str
    grid: str
    max_residual: float
    tolerance: float
    passed: bool
    extra: dict = field(default_factory=dict)


@dataclass
class VerificationReport:
    solution_id: str
    seed: int
    fd_step: float
    records: list
    wall_clock: float = 0.0

    @property
    def passed(self) -> bool:
        """Every record passed, and there was at least one."""
        return bool(self.records) and all(r.passed for r in self.records)

    def to_json(self, include_timing: bool = False) -> str:
        def plain(v):
            if isinstance(v, (bool, np.bool_)):
                return bool(v)
            if isinstance(v, (int, np.integer)):
                return int(v)
            if isinstance(v, (float, np.floating)):
                return float(v)
            return v

        payload = {
            "solution_id": self.solution_id,
            "seed": self.seed,
            "fd_step": self.fd_step,
            "passed": bool(self.passed),
            "records": [
                {
                    "name": r.name,
                    "family": r.family,
                    "grid": r.grid,
                    "max_residual": float(r.max_residual),
                    "tolerance": float(r.tolerance),
                    "passed": bool(r.passed),
                    "extra": {k: plain(v) for k, v in r.extra.items()},
                }
                for r in self.records
            ],
        }
        if include_timing:
            payload["wall_clock"] = self.wall_clock
        return json.dumps(payload, indent=2, sort_keys=True)


def default_specs() -> dict:
    """Three parameter sets per family, desk-scale defaults."""
    wf = circular(0.3)
    wfl = linear(0.25)
    return {
        cat.Family.FREE_BESSEL: [
            cat.SolutionSpec(cat.Family.FREE_BESSEL, l=0, p_perp=1.0),
            cat.SolutionSpec(cat.Family.FREE_BESSEL, l=1, p_perp=0.8),
            cat.SolutionSpec(cat.Family.FREE_BESSEL, l=2, p_perp=1.2, p_z=0.5),
        ],
        cat.Family.UNIFORM_B: [
            cat.SolutionSpec(cat.Family.UNIFORM_B, n=0, l=0),
            cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0),
            cat.SolutionSpec(cat.Family.UNIFORM_B, n=2, l=1, p_z=0.4),
        ],
        cat.Family.UNIFORM_B_SPLIT: [
            cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=1, l=1),
            cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=1, l=2),
            cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=2, l=1, p_z=0.3),
        ],
        cat.Family.RADIAL_B: [
            cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0),
            cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=1),
            cat.SolutionSpec(cat.Family.RADIAL_B, n=2, M=1, p_z=0.4),
        ],
        cat.Family.VOLKOV_BESSEL: [
            cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=0, p_perp=1.0,
                             waveform=wf, omega=1.1),
            cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=1, p_perp=0.8,
                             waveform=wfl, omega=0.9),
            cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=1, p_perp=1.1,
                             waveform=pulse(0.2), omega=1.0),
        ],
        cat.Family.REDMOND: [
            cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                             omega=1.1),
            cat.SolutionSpec(cat.Family.REDMOND, n=1, l=1, waveform=wfl,
                             omega=0.9),
            cat.SolutionSpec(cat.Family.REDMOND, n=2, l=0, waveform=wf,
                             omega=1.3),
        ],
        cat.Family.RADIAL_B_LASER: [
            cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=1, M=0, waveform=wf,
                             omega=1.1),
            cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=1, M=1, waveform=wfl,
                             omega=0.9),
            cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=2, M=1, waveform=wf,
                             omega=1.2),
        ],
    }


def spec_label(spec: cat.SolutionSpec) -> str:
    bits = [spec.family.value, f"n={spec.n}", f"l={spec.l}", f"M={spec.M}",
            f"B={spec.B}", f"pz={spec.p_z}"]
    if spec.family in (cat.Family.FREE_BESSEL, cat.Family.VOLKOV_BESSEL):
        bits.append(f"pperp={spec.p_perp}")
    if spec.waveform is not None:
        bits.append(f"wf={spec.waveform.kind}:{spec.waveform.amplitude}")
        bits.append(f"omega={spec.omega}")
    return " ".join(bits)


class SelectionError(ValueError):
    """Unknown check or control name, a control that reaches no check, or
    no points to check on."""


@dataclass(frozen=True)
class Check:
    """One row of the suite table CHECKS."""

    name: str
    tolerance: float
    # (spec, xs, h, sample) -> (worst residual, extra), with xs all the
    # points at once and sample() the true spinor's numerics.sample at xs,
    # evaluated on the spec's first call (None for a fixed grid); the
    # worst residual is None when no point could be checked, and the record
    # then fails, its extra giving the reason
    measure: Callable
    # xs = pts[::max(1, len(pts) // k)] for an int k, a fixed (grid label,
    # lams) pair in place of the sampled points, or None: every point
    source: int | tuple | None = None
    applies: Callable = lambda spec: True
    paired: tuple = ()  # (name, tolerance, extra key) of a second record

    def run(self, spec, label, grid, pts, h, sample) -> list:
        if isinstance(self.source, tuple):
            (grid, pts), sample = self.source, None
        elif self.source is not None:
            some = slice(None, None, max(1, len(pts) // self.source))
            pts, sample = pts[some], lambda full=sample: full()[some]
        worst, extra = self.measure(spec, pts, h, sample)
        checked = worst is not None
        why = {}
        if not checked:
            lost = "excluded" if "excluded" in extra else "skipped"
            why = {"reason": f"no point checked: {len(pts)} of {len(pts)} {lost}"}
        out = [CheckRecord(self.name, label, grid, worst or 0.0, self.tolerance,
                           checked and worst <= self.tolerance, extra | why)]
        if self.paired:
            name, tol, key = self.paired
            out.append(CheckRecord(name, label, grid, extra[key], tol,
                                   checked and extra[key] <= tol, why))
        return out


def _each(residual):
    # the residual takes the whole point set at once, one value per point
    return lambda spec, xs, h, sample: (
        float(np.max(residual(spec, xs, h, sample))), {})


def _inversion(spec, xs, h, sample):
    # Psi is singular (rho < 1e-6 absolute, a far tail) at the skipped
    # points, which are counted apart; the rest are inverted as one batch
    sample = sample()
    singular = inversion.singular(sample.at_points)
    extra = {"constrained": 0.0, "skipped": int(np.count_nonzero(singular))}
    if singular.all():
        return None, extra
    res = inversion_agreement(spec, xs[~singular], h, sample[~singular])
    bound = np.maximum(2e-7, 10.0 * res["richardson"])
    extra["constrained"] = float(np.max(res["constrained"]))
    return float(np.max(res["potential_diff"] / bound)), extra


def _kinematics(spec, xs, h, sample):
    kin = kinematics_check(spec, xs, sample())
    worst = max(kin[k] for k in ("vv", "ss", "vs", "gram", "plane", "pseudo",
                                 "beta0"))
    return (worst if kin["excluded"] < len(xs) else None,
            {k: kin[k] for k in ("beta_pi_fraction", "excluded")})


def _circularity(spec, lams, h, sample):
    # the residual divides by the signed density: the lams where that is
    # exactly 0 (null-current circles) are skipped and counted apart; the
    # rest are checked as one batch
    pr = cat.profile(spec, lams)
    sigma = cat.stationary_bilinears(spec)(pr["aH"], pr["bH"])["scalar"]
    keep = sigma != 0.0
    extra = {"skipped": int(np.count_nonzero(~keep))}
    if not keep.any():
        return None, extra
    res = inversion.circularity_residual(spec, lams[keep])
    return float(np.max(res)), extra


# Each row runs, in this order, on every default spec it applies to.  The
# measures call their residuals through the module attribute at call time,
# so patching that attribute reaches the suite.  The rows that read the
# true column spinor take it from the spec's one shared sample.
CHECKS = (
    Check("dirac", 1e-7,
          _each(lambda s, x, h, smp: dirac_residual(s, x, h, smp()))),
    Check("continuity", 1e-7,
          _each(lambda s, x, h, smp: continuity_residual(s, x, h, smp())),
          source=12),
    Check("gauge", 2e-7,
          _each(lambda s, x, h, _: lorentz_gauge_residual(s, x, h)),
          source=12),
    Check("inversion", 1.0, _inversion, source=8,
          paired=("constraints", 2e-7, "constrained")),
    Check("maxwell", 1e-6,
          _each(lambda s, x, h, _: maxwell_residual(s, x, h)), source=8),
    Check("kinematics", 1e-10, _kinematics, source=25),
    Check("ode", 1e-8,
          _each(lambda s, lam, *_: inversion.radial_ode_residual(s, lam)),
          source=("lam linspace(0.05,4)x200", np.linspace(0.05, 4.0, 200)),
          applies=lambda s: not s.is_dressed),
    Check("circularity", 1e-8, _circularity,
          source=("lam linspace(0.1,3)x40", np.linspace(0.1, 3.0, 40)),
          applies=lambda s: not s.is_dressed),
    Check("volkov", 1e-10,
          _each(lambda s, x, h, smp: volkov_equivalence(s, x, smp())),
          source=50, applies=lambda s: s.family is cat.Family.VOLKOV_BESSEL),
    Check("fields", 1e-9,
          _each(lambda s, x, h, _: abs(field_invariants(s, x)["E_dot_B"])),
          source=20, applies=lambda s: s.is_dressed
          and s.family is not cat.Family.VOLKOV_BESSEL),
)
CHECK_NAMES = (*(name for c in CHECKS for name in (c.name, *c.paired[:1])),
               "nullrotor")


def perturb_profile(pr: dict, lam: float) -> dict:
    """The profile data of the perturb-profile control's ode row: f becomes
    f (1 + 0.01 lam), carried by the product rule into f' and f''."""
    g = 1.0 + 0.01 * lam
    return dict(pr, f=pr["f"] * g, fp=pr["fp"] * g + 0.01 * pr["f"],
                fpp=pr["fpp"] * g + 0.02 * pr["fp"])


def _perturbed_pair(pair, lam):
    # the pair lam^(M/2) (f, f') H of f (1 + 0.01 lam), for the dirac row
    aH, bH = pair(lam)
    g = 1.0 + 0.01 * lam
    return aH * g, bH * g + 0.01 * aH


# control -> {row it reaches: (catalog attribute, wrapper)}: run_suite rebinds
# the attribute to wrapper(the real one) while the row runs.  The ode row
# wraps `profile`, which builds f'' from its own closed form, not the pair.
FAULTS = {
    "scale-potential": {
        "dirac": ("potential", lambda real: lambda *a: 1.01 * real(*a))},
    "perturb-profile": {
        "dirac": ("_pair_kernel", lambda real: lambda spec: functools.partial(
            _perturbed_pair, real(spec))),
        "ode": ("profile", lambda real: lambda spec, lam: perturb_profile(
            real(spec, lam), lam))},
}


def run_suite(families=None, checks=None, points: int = 100, seed: int = 20240801,
              h: float = numerics.DEFAULT_STEP,
              negative_control: str | None = None) -> VerificationReport:
    """Run the selected rows of CHECKS on the default specs, then the
    suite-level null-rotation check.

    `negative_control` (a key of FAULTS) injects its fault into the rows
    it reaches, which must then fail at their normal tolerances.
    Raises SelectionError for an unknown name, for a control that reaches
    no selected row and for fewer than one point."""
    t0 = time.perf_counter()
    if points < 1:
        raise SelectionError(f"need at least one point, got {points}")
    wanted = {cat.Family(f) for f in families or cat.Family}
    specs = [spec for fam, group in default_specs().items() if fam in wanted
             for spec in group]
    checks = set(CHECK_NAMES if checks is None else checks)
    if checks - set(CHECK_NAMES):
        raise SelectionError(
            f"unknown check(s) {', '.join(sorted(checks - set(CHECK_NAMES)))}"
            f"; known: {', '.join(CHECK_NAMES)}")
    rows = [c for c in CHECKS if checks & {c.name, *c.paired[:1]}]
    if negative_control not in (None, *FAULTS):
        raise SelectionError(f"unknown negative control {negative_control!r}")
    faults = FAULTS.get(negative_control, {})
    if negative_control and not any(c.name in faults and c.applies(s)
                                    for c in rows for s in specs):
        raise SelectionError(f"negative control {negative_control} touches "
                             "none of the selected checks")
    records = []
    rng = np.random.default_rng(seed)
    grid_desc = f"uniform[{BOX_LOW},{BOX_HIGH}]^4 x{points} seed={seed}"
    for spec in specs:
        pts = sample_points(rng, points)
        label = spec_label(spec)
        # the true column spinor at pts and their h-stencil, evaluated on
        # the first row that reads it and kept for this spec's rows alone
        shared = functools.cache(
            lambda: numerics.sample(cat.spinor(spec), pts, h))
        for check in (c for c in rows if c.applies(spec)):
            if check.name not in faults:
                records += check.run(spec, label, grid_desc, pts, h, shared)
                continue
            attr, wrap = faults[check.name]
            real = getattr(cat, attr)
            setattr(cat, attr, wrap(real))
            try:  # on a sample of its own, evaluated under the fault
                records += check.run(spec, label, grid_desc, pts, h,
                                     functools.cache(shared.__wrapped__))
            finally:
                setattr(cat, attr, real)
    if "nullrotor" in checks:  # the null-rotation generator, once per run
        eps = cat.eigenvalue(cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0))
        res = null_rotation_block_residual(
            circular(0.3), rng.uniform(0.0, 2.0 * math.pi, size=20), eps, 1.1)
        worst = float(max(res["block_diff"].max(), res["nilpotency"].max()))
        records.append(CheckRecord("nullrotor", "generator", "xi x20", worst,
                                   1e-12, worst <= 1e-12))
    return VerificationReport(
        solution_id="standard-suite" if not negative_control
        else f"negative-control:{negative_control}",
        seed=seed, fd_step=h, records=records,
        wall_clock=time.perf_counter() - t0)
