"""Verifier checks: residual machinery, identity checks, streamlines,
reports, negative controls, determinism."""
import json
import math

import numpy as np
import pytest

import oracles
from rdibeams import catalog as cat
from rdibeams import inversion, numerics, spinors, verify, waveforms


def test_dirac_residual_plane_wave_baseline():
    # analytic free solution: residual at the finite-difference floor
    spec = cat.SolutionSpec(cat.Family.FREE_BESSEL, l=0, p_perp=1.0)
    rng = np.random.default_rng(0)
    worst = max(verify.dirac_residual(spec, tuple(rng.uniform(0.5, 5, 4)))
                for _ in range(20))
    assert worst < 1e-8


@pytest.mark.parametrize(
    "spec", [s for group in verify.default_specs().values() for s in group],
    ids=verify.spec_label)
def test_batched_residuals_equal_a_per_point_loop(spec):
    pts = np.random.default_rng(8).uniform(verify.BOX_LOW, verify.BOX_HIGH,
                                           size=(6, 4))
    # inversion leaves out the far-tail points where Psi is singular
    invertible = pts[~inversion.singular(numerics.at(cat.spinor(spec), pts))]
    cases = [(verify.dirac_residual, pts), (verify.continuity_residual, pts),
             (verify.lorentz_gauge_residual, pts), (verify.maxwell_residual, pts),
             (lambda s, p: verify.field_invariants(s, p)["E_dot_B"], pts)]
    cases += [(lambda s, p, key=key: verify.inversion_agreement(s, p)[key],
               invertible) for key in ("potential_diff", "constrained",
                                       "richardson")]
    if spec.family is cat.Family.VOLKOV_BESSEL:
        cases.append((verify.volkov_equivalence, pts))
    for residual, on in cases:
        batch = np.asarray(residual(spec, on))
        assert batch.shape == on.shape[:-1]
        looped = [residual(spec, tuple(p)) for p in on]
        np.testing.assert_allclose(batch, looped, rtol=0, atol=1e-11)
    if not spec.is_dressed:
        lams = np.linspace(0.05, 4.0, 9)
        np.testing.assert_allclose(
            inversion.radial_ode_residual(spec, lams),
            [inversion.radial_ode_residual(spec, lam) for lam in lams],
            rtol=0, atol=1e-11)


def test_dirac_residual_catalog_families_quick():
    wf = waveforms.circular(0.3)
    specs = [
        cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0),
        cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=1, l=1),
        cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0, p_z=0.4),
        cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=1, p_perp=0.9,
                         waveform=wf, omega=1.1),
        cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                         omega=1.1),
        cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=1, M=1, waveform=wf,
                         omega=0.9),
    ]
    rng = np.random.default_rng(1)
    for spec in specs:
        worst = max(verify.dirac_residual(spec, tuple(rng.uniform(0.5, 5, 4)))
                    for _ in range(10))
        assert worst < 1e-7, spec.family


def test_pulse_gauge_phase_is_smooth_for_stencils():
    # the worst of 1000 points at seed 7: 5.0e-7 while the gauge integral
    # was adaptive, because its mesh changed between stencil points
    spec = verify.default_specs()[cat.Family.VOLKOV_BESSEL][2]
    assert spec.waveform.kind == "pulse"
    point = (3.157694067804738, 1.3599558229953066, 0.8716071708280108,
             0.9593410167151173)
    assert verify.dirac_residual(spec, point) < 1e-10


def test_perturb_profile_faults_follow_the_product_rule():
    # both faults of the control model f (1 + 0.01 lam): the ode row's
    # profile data gives its lam derivatives (checked by finite
    # differences) and the same H, and the dirac row's pair is
    # aH = lam^(M/2) f H, bH = lam^(M/2) f' H of that f
    spec = cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=1)
    lam = 1.3
    pr = cat.profile(spec, lam)
    bad = verify.perturb_profile(pr, lam)
    assert bad["H"] == pr["H"] and bad["Hp"] == pr["Hp"]

    def f(x):
        return cat.profile(spec, x)["f"] * (1.0 + 0.01 * x)

    assert bad["f"] == pytest.approx(f(lam), rel=1e-14)
    assert bad["fp"] == pytest.approx(oracles.deriv4(f, lam).real, rel=1e-9)
    assert bad["fpp"] == pytest.approx(
        oracles.deriv4(lambda x: oracles.deriv4(f, x), lam).real, rel=1e-6)
    aH, bH = verify._perturbed_pair(cat._pair_kernel(spec), lam)
    assert aH == pytest.approx(lam ** 0.5 * bad["f"] * pr["H"], rel=1e-12)
    assert bH == pytest.approx(lam ** 0.5 * bad["fp"] * pr["H"], rel=1e-12)


def test_continuity_residuals():
    wf = waveforms.circular(0.3)
    rng = np.random.default_rng(4)
    for spec, tol in [
        (cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0), 1e-8),
        (cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0), 1e-8),
        (cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                          omega=1.1), 1e-7),
    ]:
        worst = max(
            verify.continuity_residual(spec, tuple(rng.uniform(0.5, 4, 4)))
            for _ in range(6))
        assert worst < tol


def test_continuity_detects_non_solution():
    # a hand-made non-solution spinor field has divergent current
    def fake(t, x, y, z):
        return np.stack([np.exp(-1j * t + 0.3 * x * y), 0.1 * x, 0.0 * t,
                         0.2j * z], axis=-1)

    from rdibeams import numerics

    def current(*q):
        return spinors.bilinears(fake(*q)).current

    pt = (1.0, 1.2, 0.8, 0.6)
    total = sum(numerics.partial4(current, pt, mu, 1e-3).real[mu]
                for mu in range(4))
    assert abs(total) > 1e-3


def test_maxwell_sources_match():
    wf = waveforms.circular(0.3)
    rng = np.random.default_rng(5)
    for spec in (cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0),
                 cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0),
                 cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=1, M=0,
                                  waveform=wf, omega=1.1)):
        worst = max(verify.maxwell_residual(spec, tuple(rng.uniform(0.6, 4, 4)))
                    for _ in range(6))
        assert worst < 1e-6, spec.family


def test_lorentz_gauge():
    wf = waveforms.circular(0.3)
    rng = np.random.default_rng(6)
    for spec in (cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                                  omega=1.1),
                 cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=2, M=1,
                                  waveform=wf, omega=1.2),
                 cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=0, p_perp=1.0,
                                  waveform=waveforms.pulse(0.2), omega=1.0)):
        worst = max(
            verify.lorentz_gauge_residual(spec, tuple(rng.uniform(0.6, 4, 4)))
            for _ in range(6))
        assert worst < 2e-7, spec.family


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def test_volkov_dual_path():
    wf = waveforms.circular(0.3)
    spec = cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=1, p_perp=0.9,
                            waveform=wf, omega=1.1)
    rng = np.random.default_rng(9)
    for _ in range(50):
        pt = tuple(rng.uniform(0.5, 5.0, size=4))
        assert verify.volkov_equivalence(spec, pt) < 1e-10
    # linear polarization variant
    spec = cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=0, p_perp=1.1,
                            waveform=waveforms.linear(0.25), omega=0.9)
    for _ in range(20):
        pt = tuple(rng.uniform(0.5, 5.0, size=4))
        assert verify.volkov_equivalence(spec, pt) < 1e-10


def test_null_rotation_block_identity():
    # an array of phases gives, per phase, the bits of its float call
    xis = np.random.default_rng(10).uniform(0.0, 2.0 * math.pi, size=20)
    eps = math.sqrt(3.0)
    for wf in (waveforms.circular(0.4), waveforms.linear(0.25),
               waveforms.pulse(0.2)):
        batch = verify.null_rotation_block_residual(wf, xis, eps, 1.1)
        for k, xi in enumerate(xis.tolist()):
            res = verify.null_rotation_block_residual(wf, xi, eps, 1.1)
            assert res["block_diff"] < 1e-12
            assert res["nilpotency"] < 1e-15
            assert res["det_minus_1"] < 1e-12
            assert res["unipotent"] < 1e-15
            for key, val in res.items():
                assert batch[key][k].tobytes() == val.tobytes(), key
    res0 = verify.null_rotation_block_residual(waveforms.circular(0.0), 0.7,
                                               math.sqrt(3.0), 1.1)
    assert res0["block_diff"] < 1e-15  # identity up to basis-change rounding


# ---------------------------------------------------------------------------
# streamlines
# ---------------------------------------------------------------------------


STATIONARY_SPECS = [s for group in verify.default_specs().values()
                    for s in group if not s.is_dressed]


@pytest.mark.parametrize("spec", STATIONARY_SPECS, ids=verify.spec_label)
def test_streamline_current_is_the_spinor_current(spec):
    # the closed form the streamline step integrates, one point at a time,
    # is the current of the spinor.  The two differ by a few ulps in the
    # radius (math.hypot against numpy's) and the profile, which the tail
    # exp(-lam^2) amplifies by about lam^2: at most 4.9 eps (1 + lam^2) J^0
    # over 4000 seeded points per spec, 7.3e-15 J^0 at lam = 3
    pts = np.random.default_rng(13).uniform(0.5, 5.0, size=(50, 4))
    rhs = verify.streamline_current(spec)
    got = np.array([rhs(tuple(p.tolist())) for p in pts])
    want = spinors.bilinears(cat.spinor(spec)(*pts.T)).current
    lam = cat.lam_of_r(spec, np.hypot(pts[:, 1], pts[:, 2]))[:, None]
    bound = 8.0 * np.finfo(float).eps * (1.0 + lam ** 2) * want[:, :1]
    assert np.all(np.abs(got - want) <= bound)


@pytest.mark.parametrize("spec", [
    s for fam, group in verify.default_specs().items()
    if fam not in cat.DRESSED_BASE for s in group], ids=verify.spec_label)
def test_streamline_step_does_not_rederive_the_level(spec, monkeypatch):
    # the right-hand side binds the level once, when it is built: its calls
    # reach no `eigenvalue`
    rhs = verify.streamline_current(spec)
    real, calls = cat.eigenvalue, []
    monkeypatch.setattr(cat, "eigenvalue",
                        lambda s: calls.append(s) or real(s))
    for r in np.linspace(0.5, 3.0, 100).tolist():
        rhs((0.0, r, 0.3, 0.0))
    assert calls == []


def test_streamline_current_refuses_a_dressed_spec():
    spec = cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0,
                            waveform=waveforms.circular(0.3), omega=1.1)
    with pytest.raises(ValueError, match="dressed"):
        verify.streamline_current(spec)


def test_streamline_rest_particle_is_straight_time_line():
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=0, l=0)
    path = verify.streamline(spec, (0.0, 0.8, 0.0, 0.0), 3.0, 300)
    np.testing.assert_allclose(path[:, 1], 0.8, atol=1e-12)
    np.testing.assert_allclose(path[:, 3], 0.0, atol=1e-12)
    assert path[-1, 0] > path[0, 0]


def test_orbit_closure_uniform_field():
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0)
    out = verify.orbit_closure(spec, 0.8)
    assert out["radial_drift"] < 1e-6
    assert out["swept_angle"] == pytest.approx(2.0 * math.pi, rel=1e-3)
    assert out["z_drift"] < 1e-12


ORBIT_SPECS = [
    s for group in verify.default_specs().values() for s in group
    if not s.is_dressed
    and abs(cat.bilinear_fields(s, 0.0, 0.8, 0.0, 0.0)["J_phi"]) > 1e-14]


@pytest.mark.parametrize("spec", ORBIT_SPECS, ids=verify.spec_label)
def test_orbit_closure_follows_the_circle(spec):
    # a stationary streamline is the circle r = r0, run at dt/ds = J^0(r0)
    # and angular rate J_phi / r0, so one revolution sweeps 2 pi.  The
    # bound is the step-halving error streamline accepts: the halved
    # step's own RK4 error is 16 times smaller, so the accepted end point
    # is within 16/15 of that tolerance
    r0 = 0.8
    bil = cat.bilinear_fields(spec, 0.0, r0, 0.0, 0.0)
    out = verify.orbit_closure(spec, r0, steps=500)
    s_rev = 2.0 * math.pi * r0 / abs(bil["J_phi"])
    bound = verify.STREAMLINE_STEP_TOL * 16.0 / 15.0
    assert abs(out["dt_ds"] - bil["J"][0]) <= bound / s_rev
    assert abs(out["swept_angle"] - 2.0 * math.pi) <= bound / r0


def test_proper_time_flux_average():
    for spec in (cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0),
                 cat.SolutionSpec(cat.Family.UNIFORM_B, n=0, l=0)):
        eps = cat.eigenvalue(spec)
        avg = verify.proper_time_average(spec)
        assert abs(avg - eps) / eps < 1e-4


STREAMLINE_SPECS = [
    s for fam in cat.MAGNETIC_FAMILIES for s in verify.default_specs()[fam]
    if abs(cat.bilinear_fields(s, 0.0, 0.8, 0.0, 0.0)["J_phi"]) > 1e-14]


# the split and 1/r-field pairs, each with a longitudinal current: the
# reference evaluates the spinor one point at a time, at about 0.1 ms a point
REFERENCE_SPECS = [verify.default_specs()[fam][2] for fam
                   in (cat.Family.UNIFORM_B_SPLIT, cat.Family.RADIAL_B)]


@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=verify.spec_label)
def test_streamlines_match_the_array_state_reference(spec, monkeypatch):
    # the float-state RK4 over the closed-form current moves the streamline
    # results by round-off only against the array-state RK4 over the
    # spinor's full bilinear current
    def run():
        return (verify.orbit_closure(spec, 0.8, steps=400),
                verify.proper_time_average(spec, 12, 32))

    orbit, avg = run()
    monkeypatch.setattr(numerics, "rk4_path", oracles.rk4_path)
    monkeypatch.setattr(verify, "streamline_current", oracles.spinor_current)
    ref_orbit, ref_avg = run()
    for key in ("swept_angle", "dt_ds"):
        assert orbit[key] == pytest.approx(ref_orbit[key], rel=1e-13, abs=0)
    assert avg == pytest.approx(ref_avg, rel=1e-13, abs=0)
    assert abs(orbit["radial_drift"] - ref_orbit["radial_drift"]) <= 1e-14


@pytest.mark.parametrize("spec", STREAMLINE_SPECS, ids=verify.spec_label)
def test_proper_time_average_matches_the_per_radius_reference(spec):
    # one spinor evaluation for every path's proper time moves the average
    # by round-off alone (2.2e-16 relative at most on these 8 specs, which
    # the benchmark's streamlines workload runs with 24 radii, 32 steps)
    assert verify.proper_time_average(spec, 24, 32) == pytest.approx(
        oracles.proper_time_average(spec, 24, 32), rel=1e-14, abs=0)


def test_redmond_streamline_centroid_tracks_drive():
    # transverse streamline-cloud centroid follows the closed-form centroid
    wf = waveforms.circular(0.3)
    spec = cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                            omega=1.1)
    col = cat.spinor(spec)

    def rhs(q):  # the four streamlines' states, stepped as one batch
        return spinors.current(col(*np.reshape(q, (4, 4)).T)).ravel()

    seeds = [(0.0, 0.9, 0.0, 0.0), (0.0, 0.0, 1.2, 0.0),
             (0.0, -1.0, 0.4, 0.0), (0.0, 0.5, -0.8, 0.0)]
    paths = numerics.rk4_path(rhs, np.ravel(seeds), 4.0, 400).reshape(-1, 4, 4)
    # phase of the drive advances along the path through xi = omega (t - z)
    drift = []
    for k in (0, 100, 250, 399):
        pts = paths[k]
        xi = 1.1 * (pts[:, 0].mean() - pts[:, 3].mean())
        av = cat.averages(spec, xi=float(xi))
        drift.append((pts[:, 1].mean() - av["centroid_closed"][0],
                      pts[:, 2].mean() - av["centroid_closed"][1]))
    # the cloud oscillates around the closed-form centroid; the mean offset
    # stays bounded by the cloud radius while the phase advances
    assert np.max(np.abs(np.array(drift))) < 1.0


# ---------------------------------------------------------------------------
# report and suite
# ---------------------------------------------------------------------------


def test_report_serialization_round_trip():
    rep = verify.run_suite(families=["uniform-b"], checks={"dirac"},
                           points=4, seed=5)
    payload = json.loads(rep.to_json())
    assert payload["passed"] is True
    assert payload["seed"] == 5
    assert all(r["name"] == "dirac" for r in payload["records"])
    assert "wall_clock" not in payload
    timed = json.loads(rep.to_json(include_timing=True))
    assert "wall_clock" in timed


def test_suite_determinism():
    a = verify.run_suite(families=["radial-b"], checks={"dirac", "kinematics"},
                         points=6, seed=11).to_json()
    b = verify.run_suite(families=["radial-b"], checks={"dirac", "kinematics"},
                         points=6, seed=11).to_json()
    assert a == b


def test_negative_control_suites_detect_faults():
    # injected faults drive the checks past their tolerances: the suite
    # fails, and the residuals sit far above the 1e-4 detection floor
    rep = verify.run_suite(families=["uniform-b"], checks={"dirac", "ode"},
                           points=5, seed=6,
                           negative_control="scale-potential")
    assert not rep.passed
    for r in rep.records:
        # the scaled potential reaches the dirac check only
        assert (r.max_residual > 1e-4) == (r.name == "dirac"), r.name
    # the profile fault reaches the dressed families through the real
    # spinor evaluator as well
    rep = verify.run_suite(families=["uniform-b", "redmond"],
                           checks={"dirac", "ode"}, points=5, seed=6,
                           negative_control="perturb-profile")
    assert not rep.passed
    assert {r.family.split()[0] for r in rep.records} == {"uniform-b",
                                                          "redmond"}
    for r in rep.records:
        assert r.max_residual > 1e-4


def test_negative_control_selection_errors():
    with pytest.raises(ValueError, match="bogus"):
        verify.run_suite(families=["uniform-b"], checks={"dirac"}, points=2,
                         negative_control="bogus")
    # ode, the only other check the profile fault reaches, applies to
    # stationary families only
    with pytest.raises(verify.SelectionError, match="touches none"):
        verify.run_suite(families=["redmond"], checks={"ode", "gauge"},
                         points=2, negative_control="perturb-profile")


FAULT_ROWS = [(control, row) for control, rows in verify.FAULTS.items()
              for row in rows]
FAULTED_ATTRIBUTES = {attr for rows in verify.FAULTS.values()
                      for attr, _ in rows.values()}
# the attribute each faulted row's residual is read through
ROW_RESIDUALS = {"dirac": (verify, "dirac_residual"),
                 "ode": (inversion, "radial_ode_residual")}


def test_fault_table_names_known_rows_and_catalog_callables():
    for control, row in FAULT_ROWS:
        attr, wrap = verify.FAULTS[control][row]
        assert row in verify.CHECK_NAMES, (control, row)
        real = getattr(cat, attr)
        assert callable(real) and real.__module__ == cat.__name__, attr
        assert callable(wrap(real)), (control, row)
    assert FAULTED_ATTRIBUTES == {"potential", "profile", "_pair_kernel"}


@pytest.mark.parametrize("control, row", FAULT_ROWS)
def test_each_fault_fails_its_row(control, row):
    real = {attr: getattr(cat, attr) for attr in FAULTED_ATTRIBUTES}
    rep = verify.run_suite(checks={row}, points=100, seed=20240801,
                           negative_control=control)
    assert {r.name for r in rep.records} == {row}
    assert any(not r.passed for r in rep.records), (control, row)
    assert all(getattr(cat, a) is obj for a, obj in real.items())


@pytest.mark.parametrize("control, row", FAULT_ROWS)
def test_control_run_restores_the_catalog_when_its_row_raises(control, row,
                                                              monkeypatch):
    # the faulted row's residual sees its attribute rebound, raises, and
    # leaves every catalog attribute as it found it
    real = {attr: getattr(cat, attr) for attr in FAULTED_ATTRIBUTES}
    attr = verify.FAULTS[control][row][0]
    seen = []

    def broken(*args):
        seen.append(getattr(cat, attr) is not real[attr])
        raise RuntimeError("residual failed")

    monkeypatch.setattr(*ROW_RESIDUALS[row], broken)
    with pytest.raises(RuntimeError, match="residual failed"):
        verify.run_suite(families=["uniform-b"], checks={row}, points=2,
                         negative_control=control)
    assert seen == [True]
    assert all(getattr(cat, a) is obj for a, obj in real.items())


@pytest.mark.parametrize("points", [0, -3])
def test_run_suite_without_points_is_selection_error(points):
    with pytest.raises(verify.SelectionError, match="point"):
        verify.run_suite(families=["uniform-b"], checks={"dirac"},
                         points=points)


STATIONARY_RECORDS = ["dirac", "continuity", "gauge", "inversion",
                      "constraints", "maxwell", "kinematics", "ode",
                      "circularity"]
DRESSED_RECORDS = ["dirac", "continuity", "gauge", "inversion",
                   "constraints", "maxwell", "kinematics"]


def test_suite_record_sequence():
    expected = []
    for family, names in (
            ("free-bessel", STATIONARY_RECORDS),
            ("uniform-b", STATIONARY_RECORDS),
            ("uniform-b-split", STATIONARY_RECORDS),
            ("radial-b", STATIONARY_RECORDS),
            ("volkov-bessel", DRESSED_RECORDS + ["volkov"]),
            ("redmond", DRESSED_RECORDS + ["fields"]),
            ("radial-b-laser", DRESSED_RECORDS + ["fields"])):
        expected += [(name, family) for _ in range(3) for name in names]
    expected.append(("nullrotor", "generator"))
    rep = verify.run_suite(points=2)
    assert len(expected) == 181
    assert [(r.name, r.family.split()[0]) for r in rep.records] == expected


def test_circularity_with_every_radius_singular_fails(monkeypatch):
    # a signed density of exactly 0 at every radius: each is skipped
    real = cat.stationary_bilinears

    def null_density(spec):
        kernel = real(spec)
        return lambda a, b: kernel(a, b) | {"scalar": 0.0 * a}

    monkeypatch.setattr(cat, "stationary_bilinears", null_density)
    rep = verify.run_suite(families=["uniform-b"], checks={"circularity"},
                           points=1)
    assert [r.passed for r in rep.records] == [False] * 3
    assert all(r.max_residual == 0.0 for r in rep.records)
    assert all(r.extra["skipped"] == 40 for r in rep.records)


# the attribute each check's residual is read through at call time
CHECK_RESIDUALS = {
    "dirac": (verify, "dirac_residual"),
    "continuity": (verify, "continuity_residual"),
    "gauge": (verify, "lorentz_gauge_residual"),
    "inversion": (verify, "inversion_agreement"),
    "maxwell": (verify, "maxwell_residual"),
    "kinematics": (verify, "kinematics_check"),
    "ode": (inversion, "radial_ode_residual"),
    "circularity": (inversion, "circularity_residual"),
    "volkov": (verify, "volkov_equivalence"),
    "fields": (verify, "field_invariants"),
    "nullrotor": (verify, "null_rotation_block_residual"),
}


def test_suite_calls_residuals_through_module_attributes(monkeypatch):
    calls = dict.fromkeys(CHECK_RESIDUALS, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, (module, attr) in CHECK_RESIDUALS.items():
        monkeypatch.setattr(module, attr, counting(name, getattr(module, attr)))
    verify.run_suite(points=2)
    assert all(calls.values()), calls
    assert set(CHECK_RESIDUALS) | {"constraints"} == set(verify.CHECK_NAMES)


# the residuals that read the true column spinor, with the number of
# leading arguments of their standalone call
SHARED_RESIDUALS = {"dirac_residual": 3, "continuity_residual": 3,
                    "inversion_agreement": 3, "kinematics_check": 2,
                    "volkov_equivalence": 2}


def test_residuals_from_the_shared_sample_equal_standalone_calls(monkeypatch):
    # each residual the suite computes from its spec's one shared sample is
    # bit for bit the standalone (spec, point[, h]) call, which evaluates
    # the spinor itself, for every default spec
    seen = []

    def recording(name, fn):
        def wrapper(*args):
            out = fn(*args)
            seen.append((name, fn, args, out))
            return out
        return wrapper

    for name in SHARED_RESIDUALS:
        monkeypatch.setattr(verify, name, recording(name, getattr(verify, name)))
    verify.run_suite(points=40, seed=3)
    assert {name for name, *_ in seen} == set(SHARED_RESIDUALS)
    labels = set()
    for name, fn, args, shared in seen:
        assert isinstance(args[-1], numerics.StencilSample), name
        alone = fn(*args[:SHARED_RESIDUALS[name]])
        if not isinstance(shared, dict):
            shared, alone = {"": shared}, {"": alone}
        assert shared.keys() == alone.keys()
        for key, value in shared.items():
            assert np.asarray(value).tobytes() == \
                np.asarray(alone[key]).tobytes(), (name, key)
        labels.add(verify.spec_label(args[0]))
    assert len(labels) == 21


def count_spinor_evaluations(monkeypatch, **suite):
    # spinor evaluations per (spec label, faulted) in one run_suite call; a
    # spinor is faulted when it was built on a rebound `_pair_kernel`
    counts = {}
    real, kernel = cat.spinor, cat._pair_kernel

    def counting(spec):
        col = real(spec)
        key = (verify.spec_label(spec), cat._pair_kernel is not kernel)

        def field(*q):
            counts[key] = counts.get(key, 0) + 1
            return col(*q)
        return field

    monkeypatch.setattr(cat, "spinor", counting)
    verify.run_suite(points=5, **suite)
    return counts


def test_suite_evaluates_each_true_spinor_at_most_twice(monkeypatch):
    # one shared sample per spec, and the inversion's h/2 stencil
    counts = count_spinor_evaluations(monkeypatch)
    assert len(counts) == 21 and not any(faulted for _, faulted in counts)
    assert max(counts.values()) <= 2, counts
    # the faulted spinor of the control keeps its own evaluation, in the
    # dirac row of every spec
    counts = count_spinor_evaluations(monkeypatch,
                                      negative_control="perturb-profile")
    assert max(n for (_, faulted), n in counts.items() if not faulted) <= 2
    assert sum(faulted for _, faulted in counts) == 21
    # no selected row reads the spinor: it is never evaluated
    assert count_spinor_evaluations(monkeypatch, checks={"gauge"}) == {}


def test_suite_leaves_nothing_behind_between_runs():
    # the shared sample lives in one spec's loop body: a run at another
    # seed in between changes no byte of a report
    a = verify.run_suite(points=8, seed=41).to_json()
    verify.run_suite(points=8, seed=42)
    assert verify.run_suite(points=8, seed=41).to_json() == a
