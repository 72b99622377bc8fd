"""Independent machine checks for the solution catalog.

Every closed-form solution is verified by substitution: the finite-difference
Dirac residual (column form), current continuity, Lorentz gauge,
Maxwell sources, potential inversion agreement, the radial profile equation,
kinematic/tetrad invariants, the dual-path dressed-beam equivalence and the
null-rotation block identity.  The standard suite is one table, CHECKS, run
over seeded uniform points in the box [0.5, 5]^4 (natural units).

Each residual takes a batch of points, point[..., 4], and returns one value
per point.  Each row names the closed forms it reads (`Check.reads`: the
spinor, the potential, e E and e B, the profile).  The suite evaluates each
once per spec, before the spec's rows are measured, as one batch over the
union of what the spec's rows read of it (`_evaluate`): one
`numerics.sample` at the union of their points and of each step's stencil
points (every point, with no union taken, once a row reads every point),
one `catalog.profile` call on all their lam grids.  Each row reads its own
slice: the spinor at the points and their h-stencil and the inversion's h/2
stencil, the potential at the points and the gauge row's h-stencil, the
profile of the ode and circularity grids.  Each residual takes its row's
sample as an optional last argument and, called without it, builds its own
through the same evaluation, to the same bits.  The maxwell row
differentiates e E and e B itself, with `numerics.gradient4`.  A record
that checked no point fails, and its extras give the reason.

Most rows call their residual once per spec, on all its points.  The
pooled rows (`Check.pooled`: continuity, gauge, inversion and kinematics)
read a subsample of each spec's points, so a call of theirs costs more per
call than per point.  Each keeps its slice of every spec's evaluation, as
arrays of its own, and calls its residual once per pass, after the last
spec, on all specs' points together, with a `_Pool` in place of the spec:
it gives each point its spec's mass, and each spec's worst value and counts
from one segment reduction over the batch.  The inversion row finds the
singular points of all specs and inverts the rest on one
`inversion.density`.  The dirac row reads every point and stays per spec:
pooled, it would hold every spec's spinor stencils at once.

Negative controls assert detection power, not only agreement.  FAULTS maps
each control to its rows and a hook from a spec's closed forms (`_forms`)
to its faulted forms, evaluated once per spec for those rows, pooled or not.
A control that reaches none of the selected checks is a SelectionError (a
usage error in the CLI).
"""
from __future__ import annotations

import functools
import json
import math
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

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
# the closed forms the checks read
# ---------------------------------------------------------------------------


_STEPS = {"": None, "h": 1.0, "h/2": 0.5}  # a read's stencil step over h


def _forms(spec) -> dict:
    # the closed forms the rows read, bound here: each of (t, x, y, z) with
    # one trailing component axis, and the profile of lam
    return {"spinor": cat.spinor(spec),
            "potential": functools.partial(cat.potential, spec),
            "fields": functools.partial(cat.fields, spec),
            "profile": functools.partial(cat.profile, spec)}


def _union(size, indices):
    # index sets into `size` rows -> their union and each set's positions
    # in it; one set is its own union, and ... (every row) is the union of
    # any sets, each keeping its indices as its positions
    if all(index is indices[0] for index in indices):
        return indices[0], [...] * len(indices)
    if any(index is ... for index in indices):
        return ..., list(indices)
    mask = np.zeros(size, dtype=bool)
    for index in indices:
        mask[index] = True
    rank = np.cumsum(mask) - 1
    return np.flatnonzero(mask), [rank[index] for index in indices]


def _profile(forms, users):
    # one call of the profile form on the (row, read, lams) users' grids
    pr = forms["profile"](np.concatenate([lams for *_, lams in users]))
    out, start = {}, 0
    for name, read, lams in users:
        part = slice(start, start + len(lams))
        out[name, read] = {k: v[part] if np.ndim(v) else v
                           for k, v in pr.items()}
        start = part.stop
    return out


def _field(forms, h, points, form, users):
    # one numerics.sample of `form` for the (row, read, where) users
    centre, pos = _union(len(points), [u[2] for u in users])
    points = points[centre]
    by_step = {}  # stencil step over h (None: none) -> its users
    for j, (_, read, _) in enumerate(users):
        by_step.setdefault(_STEPS[read.partition("@")[2]], []).append(j)
    stencils = {f: _union(len(points), [pos[j] for j in js])
                for f, js in by_step.items() if f is not None}
    values, samples = numerics.sample(
        forms[form], points,
        [(index, f * h) for f, (index, _) in stencils.items()])
    out = {users[j][:2]: values[pos[j]] for j in by_step.get(None, ())}
    for smp, (f, (_, where)) in zip(samples, stencils.items()):
        out |= {users[j][:2]: smp[p] for j, p in zip(by_step[f], where)}
    return out


def _evaluate(forms, h, points, rows) -> dict:
    """{row: {read: its slice}} of what rows read of one spec's closed
    forms, each evaluated once, in the order the rows first read it.  rows
    maps a row's name to (its reads, where): points[where] for a slice or
    ..., else the lam grid `where` itself."""
    users = {}  # form -> its (row, read, where), in the order first read
    for name, (reads, where) in rows.items():
        for read in reads:
            users.setdefault(read.partition("@")[0], []).append(
                (name, read, where))
    got = {}
    for form, some in users.items():
        got |= _profile(forms, some) if form == "profile" \
            else _field(forms, h, points, form, some)
    return {name: {read: got[name, read] for read in reads}
            for name, (reads, _) in rows.items()}


def _alone(forms, point, name, h=numerics.DEFAULT_STEP):
    # the sample of row `name` at point[..., 4] alone: what a residual
    # called without one evaluates
    reads = next(c.reads for c in CHECKS if c.name == name)
    return _evaluate(forms, h, np.asarray(point, dtype=float),
                     {name: (reads, ...)})[name]


class _Pool:
    """In place of a spec in a pooled residual call (`Check.pooled`): the
    specs whose points make up the batch, spec k owning the next sizes[k]
    points, in order.  m is each point's mass, m[N, 1], which
    `inversion.invert` broadcasts against the point's spinor psi[N, 4]."""

    def __init__(self, specs, sizes):
        self.specs, self.sizes = tuple(specs), tuple(sizes)
        self.owner = np.repeat(np.arange(len(self.specs)), self.sizes)
        self.m = np.array([s.m for s in self.specs])[self.owner, None]

    def count(self, mask) -> list:
        """How many of each spec's points mask[N] holds at."""
        return np.bincount(self.owner[mask], minlength=len(self.specs)).tolist()

    def maxima(self, values) -> list:
        """Each spec's maximum over the last axis of values[..., N], from one
        segment reduction: a float (a list of them for values[k, N]), or
        None for a spec with no point."""
        starts = np.cumsum((0, *self.sizes[:-1]))[np.flatnonzero(self.sizes)]
        got = iter(np.maximum.reduceat(values, starts, axis=-1).T.tolist())
        return [next(got) if n else None for n in self.sizes]

    def take(self, keep) -> _Pool:
        """The pool of the points where keep[N] holds."""
        return _Pool(self.specs, self.count(keep))


def _joined(samples) -> dict:
    # several batches' samples of one row as one, in order, each read in
    # arrays of its own (np.concatenate copies, a single part too)
    out = {}
    for read in samples[0]:
        got = [s[read] for s in samples]
        if isinstance(got[0], numerics.StencilSample):
            out[read] = numerics.StencilSample(
                np.concatenate([g.at_points for g in got]),
                np.concatenate([g.stencil for g in got]), got[0].h)
        else:
            out[read] = np.concatenate(got)
    return out


def _pooled(items):
    # a pooled row's items (spec, xs, sample) as one: the _Pool of their
    # specs, all their points and their samples, in order
    specs, xs, samples = zip(*items)
    return (_Pool(specs, [len(x) for x in xs]), np.concatenate(xs),
            _joined(samples))


# ---------------------------------------------------------------------------
# pointwise residuals
# ---------------------------------------------------------------------------


def dirac_residual(spec: cat.SolutionSpec, point, h: float = numerics.DEFAULT_STEP,
                   sample: dict | None = None):
    """Relative residual |i gamma^mu d_mu psi - gamma^mu eA_mu psi - m psi|
    / (m |psi|) of the Dirac equation in column form at point[..., 4], one
    value per point, from `inversion.dirac_column` on psi and its gradient.
    `sample`, when given, holds the row's reads (`Check.reads`) at point,
    step h, already evaluated; so for every residual below.
    """
    if sample is None:
        sample = _alone(_forms(spec), point, "dirac", h)
    spinor = sample["spinor@h"]
    psi = spinor.at_points
    col = inversion.dirac_column(psi, spinor.gradient(), spec.m) \
        - (sta.from_vector(sample["potential"]) @ psi[..., None])[..., 0]
    scale = np.maximum(spec.m * np.linalg.norm(psi, axis=-1), 1e-30)
    return np.linalg.norm(col, axis=-1) / scale


def continuity_residual(spec: cat.SolutionSpec, point,
                        h: float = numerics.DEFAULT_STEP,
                        sample: dict | None = None):
    """|d_mu J^mu| from the bilinear current of the spinor field, at
    point[..., 4]: J^mu of the spinor on its stencil points."""
    if sample is None:
        sample = _alone(_forms(spec), point, "continuity", h)
    return abs(numerics.divergence(sample["spinor@h"].gradient(spinors.current)))


def lorentz_gauge_residual(spec: cat.SolutionSpec, point,
                           h: float = numerics.DEFAULT_STEP,
                           sample: dict | None = None):
    """|d_mu eA^mu| by finite differences, at point[..., 4]."""
    if sample is None:
        sample = _alone(_forms(spec), point, "gauge", h)
    return abs(numerics.divergence(sample["potential@h"].gradient()))


def inversion_agreement(spec: cat.SolutionSpec, point,
                        h: float = numerics.DEFAULT_STEP,
                        sample: dict | None = None) -> dict:
    """invert() against the family's closed-form potential, at
    point[..., 4]; each entry holds one value per point.  invert() reads
    the spinor at steps h and h/2 from the sample, so it evaluates no
    field, and its `inversion.density` too when the sample holds it.  spec
    may be a `_Pool`, whose m gives each point its spec's mass."""
    if sample is None:
        sample = _alone(_forms(spec), point, "inversion", h)
    inv = inversion.invert(None, point, h=h, m=spec.m, sample=(
        sample["spinor@h"], sample["spinor@h/2"], sample.get("density")))
    return {
        "potential_diff": np.max(np.abs(inv.eA - sample["potential"]), axis=-1),
        "constrained": inv.constrained_residual,
        "richardson": inv.richardson,
    }


def maxwell_residual(spec: cat.SolutionSpec, point,
                     h: float = numerics.DEFAULT_STEP):
    """Max residual of Gauss and Ampere laws against the closed-form
    sources, at point[..., 4]."""
    src = numerics.at(lambda *q: cat.sources(spec, *q), point)
    g = numerics.gradient4(functools.partial(cat.fields, spec), point, h).real
    gauss = numerics.spatial_divergence(g[..., :3]) - src[..., 0]
    ampere = numerics.spatial_curl(g[..., 3:]) - g[..., 0, :3] - src[..., 1:]
    return np.maximum(abs(gauss), np.max(np.abs(ampere), axis=-1))


def field_invariants(spec: cat.SolutionSpec, point,
                     sample: dict | None = None):
    """e E . e B for the dressed magnetic families, at point[..., 4], one
    value per point."""
    if sample is None:
        sample = _alone(_forms(spec), point, "fields")
    eb = sample["fields"]
    return np.sum(eb[..., :3] * eb[..., 3:], axis=-1)


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------


CONDITION_FLOOR = 5e-3  # rho / J^0 below which a point is excluded


def kinematics_check(spec: cat.SolutionSpec, points,
                     sample: dict | None = None) -> dict:
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
    The spinor is read from `sample`, when given.  spec may be a `_Pool`:
    the summary is then a list, one per spec, each of its own points.
    """
    if sample is None:
        sample = _alone(_forms(spec), points, "kinematics")
    psis = sample["spinor"]
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
            "beta0": np.where(scalar >= 0, obs.beta[used], 0.0)}
    # each deviation's worst at each point, 0 at an excluded one
    worst = np.zeros((len(devs), len(psis)))
    for row, d in zip(worst, devs.values()):
        row[used] = np.max(np.abs(d), axis=tuple(range(1, d.ndim)),
                           initial=0.0)
    negative = used & (obs.scalar < 0)
    pool = spec if isinstance(spec, _Pool) else _Pool([spec], [len(psis)])
    out = [dict(zip(devs, most or [0.0] * len(devs)),
                beta_pi_fraction=neg / max(kept, 1), excluded=n - kept)
           for most, kept, neg, n in zip(pool.maxima(worst), pool.count(used),
                                         pool.count(negative), pool.sizes)]
    return out if pool is spec else out[0]


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def volkov_bessel_explicit(spec: cat.SolutionSpec):
    """Independent transcription of the dressed Bessel column (dual path to
    the null-rotation construction; same gauge and normalization
    conventions as the catalog), with its own quiver shift
    f(xi) / (eps omega^2) and gauge phase -G(xi) / (2 eps omega^3), so that
    a fault in the catalog's plane wave shows here."""
    base = spec.static_base()
    eps = cat.eigenvalue(base)
    kt = base.p_perp
    norm = cat.normalization(base)
    l = base.l

    def field(t, x, y, z):
        xi = spec.omega * (t - z)
        f1, f2 = spec.waveform.f(xi)
        shift = 1.0 / (eps * spec.omega ** 2)
        xp, yp = x + shift * f1, y + shift * f2
        lamp = cat.lam_of_r(base, np.hypot(xp, yp))
        phi = np.arctan2(yp, xp)
        d1, d2 = spec.waveform.fdot(xi)
        arg = 2.0 * lamp * kt / base.B
        jl, jl1 = sf.bessel_j_all(l + 1, arg)[l:]
        gl = np.exp(1j * l * phi) * jl
        gl1 = np.exp(1j * (l + 1) * phi) * jl1
        r = 1.0 / (eps * spec.omega)
        gauge = -1.0 / (2.0 * eps * spec.omega ** 3) \
            * spec.waveform.gauge_integral(xi)
        pref = (norm / (2.0 * base.B)) * np.exp(1j * (gauge - eps * t))
        col = np.stack([
            2.0 * (base.m + eps) * gl - r * kt * (d2 + 1j * d1) * gl1,
            r * (base.m + eps) * (d1 + 1j * d2) * gl,
            -r * kt * (d2 + 1j * d1) * gl1,
            2.0j * kt * gl1 - r * (base.m + eps) * (d1 + 1j * d2) * gl,
        ], axis=-1)
        return pref[..., None] * col

    return field


def volkov_equivalence(spec: cat.SolutionSpec, point,
                       sample: dict | None = None):
    """Norm difference between the null-rotation construction and the
    explicit dressed Bessel column, at point[..., 4]; the construction is
    read from `sample`, when given."""
    if sample is None:
        sample = _alone(_forms(spec), point, "volkov")
    b = numerics.at(volkov_bessel_explicit(spec), point)
    return np.linalg.norm(sample["spinor"] - b, axis=-1)


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

    def payload(self, include_timing: bool = False) -> dict:
        """The report as JSON data: its fields and each record's, with
        `wall_clock` only under include_timing."""
        data = {"solution_id": self.solution_id, "seed": self.seed,
                "fd_step": self.fd_step, "passed": self.passed,
                "records": [asdict(r) for r in self.records]}
        if include_timing:
            data["wall_clock"] = self.wall_clock
        return data

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.payload(include_timing), indent=2,
                          sort_keys=True)


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
    if "pperp" in cat._record(spec).params:
        bits.append(f"pperp={spec.p_perp}")
    if spec.waveform is not None:
        bits.append(f"wf={spec.waveform.kind}:{spec.waveform.amplitude}")
        bits.append(f"omega={spec.omega}")
    return " ".join(bits)


class SelectionError(ValueError):
    """Unknown check or control name, no check that applies to a selected
    family, a control that reaches no check, or no points to check on."""


@dataclass(frozen=True)
class Check:
    """One row of the suite table CHECKS."""

    name: str
    tolerance: float
    # (items, h) -> one (worst residual, extra) per item, with each item
    # (spec, xs, sample): xs all of the spec's points at once and sample the
    # row's reads at xs, already evaluated; the worst residual is None when
    # no point could be checked, and the record then fails, its extra
    # giving the reason
    measure: Callable
    # what the row reads of its spec's closed forms, the same for its
    # residual called alone: a form at the row's points, "form@h" with its
    # h-stencil as well, "form@h/2" with its h/2-stencil
    reads: tuple = ()
    # xs = pts[::max(1, len(pts) // k)] for an int k, a fixed (grid label,
    # lams) pair in place of the sampled points, or None: every point
    source: int | tuple | None = None
    applies: Callable = lambda spec: True
    paired: tuple = ()  # (name, tolerance, extra key) of a second record
    # measured once a pass, on every spec's items, instead of once per spec
    pooled: bool = False

    def points(self, pts, grid):
        """The row's grid label, its points and where they are read:
        pts[where], or the lams of a fixed grid, where itself."""
        if isinstance(self.source, tuple):
            grid, lams = self.source
            return grid, lams, lams
        where = ... if self.source is None \
            else slice(None, None, max(1, len(pts) // self.source))
        return grid, pts[where], where

    def records(self, label, grid, n, result) -> list:
        """The row's records of one spec, from its measure's (worst, extra)
        on the spec's n points."""
        worst, extra = result
        checked = worst is not None
        why = {}
        if not checked:
            lost = "excluded" if "excluded" in extra else "skipped"
            why = {"reason": f"no point checked: {n} of {n} {lost}"}
        out = [CheckRecord(self.name, label, grid, worst or 0.0, self.tolerance,
                           checked and worst <= self.tolerance, extra | why)]
        if self.paired:
            name, tol, key = self.paired
            out.append(CheckRecord(name, label, grid, extra[key], tol,
                                   checked and extra[key] <= tol, why))
        return out


def _each(residual):
    # the residual on each item's points at once, one value per point
    return lambda items, h: [(float(np.max(residual(spec, xs, h, sample))), {})
                             for spec, xs, sample in items]


def _pointwise(residual):
    # the residual once, on all items' points, one value per point; each
    # item's worst is that of its own slice
    def measure(items, h):
        pool, xs, sample = _pooled(items)
        res = residual(pool, xs, h, sample)
        return [(most, {}) for most in pool.maxima(res)]
    return measure


def _inversion(items, h):
    # Psi is singular (rho < 1e-6 absolute, a far tail) at the skipped
    # points, which are counted apart; the rest of all items' points are
    # inverted as one batch, on the one density of the spinor that found
    # them
    pool, xs, sample = _pooled(items)
    dens = inversion.density(sample["spinor@h"].at_points)
    keep = ~inversion.singular(dens)
    kept = pool.take(keep)
    most = [None] * len(pool.specs)  # each spec's worst ratio and constrained
    if keep.any():
        res = inversion_agreement(
            kept, xs[keep], h, {read: got[keep] for read, got in sample.items()}
            | {"density": tuple(d[keep] for d in dens)})
        ratio = res["potential_diff"] / np.maximum(2e-7, 10.0 * res["richardson"])
        most = kept.maxima(np.stack([ratio, res["constrained"]]))
    return [(worst, {"constrained": constrained, "skipped": n - held})
            for (worst, constrained), n, held in zip(
                (got or (None, 0.0) for got in most), pool.sizes, kept.sizes)]


def _kinematics(items, h):
    pool, xs, sample = _pooled(items)
    out = []
    for kin, n in zip(kinematics_check(pool, xs, sample), pool.sizes):
        worst = max(kin[k] for k in ("vv", "ss", "vs", "gram", "plane",
                                     "pseudo", "beta0"))
        out.append((worst if kin["excluded"] < n else None,
                    {k: kin[k] for k in ("beta_pi_fraction", "excluded")}))
    return out


def _circularity(items, h):
    # the residual divides by the signed density: the lams where that is
    # exactly 0 (null-current circles) are skipped and counted apart; the
    # rest are checked as one batch
    out = []
    for spec, lams, sample in items:
        pr = sample["profile"]
        sigma = cat.stationary_bilinears(spec)(pr["aH"], pr["bH"])["scalar"]
        keep = sigma != 0.0
        extra = {"skipped": int(np.count_nonzero(~keep))}
        if not keep.any():
            out.append((None, extra))
            continue
        res = inversion.circularity_residual(
            spec, lams[keep], {k: v[keep] if np.ndim(v) else v
                               for k, v in pr.items()})
        out.append((float(np.max(res)), extra))
    return out


# Each row runs, in this order, on every default spec it applies to.  The
# measures call their residuals through the module attribute at call time,
# so patching that attribute reaches the suite.  Each row reads its spec's
# closed forms (`Check.reads`) from the spec's one evaluation of each; the
# maxwell row reads none, and differentiates e E and e B with
# numerics.gradient4.  The pooled rows read a subsample of each spec's
# points and run once a pass, on all specs' points; dirac reads every
# point, and pooling it would hold every spec's spinor stencils at once.
CHECKS = (
    Check("dirac", 1e-7, _each(lambda *a: dirac_residual(*a)),
          reads=("spinor@h", "potential")),
    Check("continuity", 1e-7, _pointwise(lambda *a: continuity_residual(*a)),
          reads=("spinor@h",), source=12, pooled=True),
    Check("gauge", 2e-7, _pointwise(lambda *a: lorentz_gauge_residual(*a)),
          reads=("potential@h",), source=12, pooled=True),
    Check("inversion", 1.0, _inversion,
          reads=("spinor@h", "spinor@h/2", "potential"), source=8,
          paired=("constraints", 2e-7, "constrained"), pooled=True),
    Check("maxwell", 1e-6,
          _each(lambda s, x, h, _: maxwell_residual(s, x, h)), source=8),
    Check("kinematics", 1e-10, _kinematics, reads=("spinor",), source=25,
          pooled=True),
    Check("ode", 1e-8,
          _each(lambda s, lam, h, smp: inversion.radial_ode_residual(
              s, lam, smp["profile"])), reads=("profile",),
          source=("lam linspace(0.05,4)x200", np.linspace(0.05, 4.0, 200)),
          applies=lambda s: not s.is_dressed),
    Check("circularity", 1e-8, _circularity, reads=("profile",),
          source=("lam linspace(0.1,3)x40", np.linspace(0.1, 3.0, 40)),
          applies=lambda s: not s.is_dressed),
    Check("volkov", 1e-10,
          _each(lambda s, x, h, smp: volkov_equivalence(s, x, smp)),
          reads=("spinor",), source=50,
          applies=lambda s: s.family is cat.Family.VOLKOV_BESSEL),
    Check("fields", 1e-9,
          _each(lambda s, x, h, smp: abs(field_invariants(s, x, smp))),
          reads=("fields",), source=20, applies=lambda s: s.is_dressed
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


# control -> (the rows it reaches, (spec, forms) -> the faulted forms).  The
# ode row reads the profile, which builds f'' from its own closed form, not
# the pair.  `cli.NEGATIVE_CONTROLS` repeats the keys, so that `cli` can
# print its help without importing this module: a new control is named
# there too.
FAULTS = {
    "scale-potential": (("dirac",), lambda spec, forms: forms | {
        "potential": lambda *q: 1.01 * forms["potential"](*q)}),
    "perturb-profile": (("dirac", "ode"), lambda spec, forms: forms | {
        "spinor": cat.spinor(spec, pair=functools.partial(
            _perturbed_pair, cat._pair_kernel(spec))),
        "profile": lambda lam: perturb_profile(forms["profile"](lam), lam)}),
}


def run_suite(families=None, checks=None, points: int = 100, seed: int = 20240801,
              h: float = numerics.DEFAULT_STEP,
              negative_control: str | None = None) -> VerificationReport:
    """Run the selected rows of CHECKS on the default specs of the selected
    families (None: every family), then the suite-level null-rotation
    check.

    `negative_control` (a key of FAULTS) injects its fault into the rows
    it reaches, which must then fail at their normal tolerances.
    Raises SelectionError for an unknown name, for no family, for checks
    that apply to no selected family (none selected included), for a
    control that reaches no selected row and for fewer than one point."""
    t0 = time.perf_counter()
    if points < 1:
        raise SelectionError(f"need at least one point, got {points}")
    known = [f.value for f in cat.Family]
    families = set(known if families is None else families)
    if unknown := ", ".join(sorted(map(str, families - set(known)))):
        raise SelectionError(f"unknown family(s) {unknown}; known: "
                             f"{', '.join(known)}")
    if not families:
        raise SelectionError(f"no family selected; known: {', '.join(known)}")
    specs = [spec for fam, group in default_specs().items() if fam in families
             for spec in group]
    checks = set(CHECK_NAMES if checks is None else checks)
    if checks - set(CHECK_NAMES):
        raise SelectionError(
            f"unknown check(s) {', '.join(sorted(checks - set(CHECK_NAMES)))}"
            f"; known: {', '.join(CHECK_NAMES)}")
    rows = [c for c in CHECKS if checks & {c.name, *c.paired[:1]}]
    if "nullrotor" not in checks and not any(c.applies(s) for c in rows
                                             for s in specs):
        raise SelectionError("the selected checks do not apply to the "
                             "selected families; nothing was checked")
    if negative_control not in (None, *FAULTS):
        raise SelectionError(f"unknown negative control {negative_control!r}")
    reached, fault = FAULTS.get(negative_control, ((), None))
    if negative_control and not any(c.name in reached and c.applies(s)
                                    for c in rows for s in specs):
        raise SelectionError(f"negative control {negative_control} touches "
                             "none of the selected checks")
    slots = []  # each spec's row's (label, grid), in order, then its records
    pools = {c.name: [] for c in rows if c.pooled}

    def measure(check, kept):
        # one call of the row's measure on kept, a list of (slot, item),
        # that turns each slot's (label, grid) into the item's records
        results = check.measure([item for _, item in kept], h)
        for (slot, (_, xs, _)), result in zip(kept, results):
            slots[slot] = check.records(*slots[slot], len(xs), result)

    rng = np.random.default_rng(seed)
    grid_desc = f"uniform[{BOX_LOW},{BOX_HIGH}]^4 x{points} seed={seed}"
    for spec in specs:
        pts = sample_points(rng, points)
        label = spec_label(spec)
        todo = [(c, *c.points(pts, grid_desc)) for c in rows if c.applies(spec)]
        # each closed form of the spec, evaluated once on the union of what
        # its rows read and kept for them alone: the true forms for the rows
        # the control does not reach, the faulted ones for the rows it does
        forms, reads = _forms(spec), ({}, {})
        for check, _, _, where in todo:
            reads[check.name in reached][check.name] = (check.reads, where)
        shared = _evaluate(forms, h, pts, reads[False])
        if reads[True]:
            shared |= _evaluate(fault(spec, forms), h, pts, reads[True])
        for check, grid, xs, where in todo:
            slot = len(slots)
            slots.append((label, grid))
            if check.name in pools:
                # measured in the row's one call after the last spec, from
                # arrays of its own: a view would keep this spec's whole
                # evaluation alive until then
                pools[check.name].append((slot, (
                    spec, xs.copy(), _joined([shared[check.name]]))))
            else:
                measure(check, [(slot, (spec, xs, shared[check.name]))])
        del shared  # before the next spec's evaluation and the pooled calls
    for check in rows:
        kept = pools.pop(check.name, ())
        if kept:  # freed once the row's one call returns
            measure(check, kept)
    records = [r for slot in slots for r in slot]
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
