"""Verifier checks: residual machinery, identity checks, streamlines,
reports, negative controls, determinism."""
import dataclasses
import json
import math

import numpy as np
import pytest

import oracles
from rdibeams import catalog as cat
from rdibeams import inversion, numerics, spinors, verify, waveforms
from rdibeams import specialfn as sf


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
    invertible = pts[~inversion.singular(
        inversion.density(numerics.at(cat.spinor(spec), pts)))]
    cases = [(verify.dirac_residual, pts), (verify.continuity_residual, pts),
             (verify.lorentz_gauge_residual, pts), (verify.maxwell_residual, pts),
             (verify.field_invariants, pts)]
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
    total = sum(numerics.partial4(current, pt, h=1e-3)[mu].real[mu]
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


@pytest.mark.parametrize("l", [2, 3])
def test_volkov_row_passes_at_higher_orders(l, monkeypatch):
    # the explicit column takes J_l from the l + 1 ladder, which starts one
    # index above J_l's own where 2 <= x < l + 1 and may move it there by
    # round-off; on 1000 points that reach those x, the row still passes
    real, args = sf.bessel_j_all, []
    monkeypatch.setattr(sf, "bessel_j_all", lambda nmax, x: (
        args.append(np.asarray(x)) if nmax == l + 1 else None) or real(nmax, x))
    tol = next(c.tolerance for c in verify.CHECKS if c.name == "volkov")
    for wf, omega in ((waveforms.circular(0.3), 1.1),
                      (waveforms.pulse(0.2), 1.0)):
        spec = cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=l, p_perp=1.0,
                                waveform=wf, omega=omega)
        pts = verify.sample_points(np.random.default_rng(l), 1000)
        assert np.max(verify.volkov_equivalence(spec, pts)) <= tol
        x = args.pop()
        assert np.count_nonzero((x >= 2.0) & (x < l + 1)) > 10


def test_volkov_row_detects_a_fault_in_the_catalog_shift(monkeypatch):
    # the explicit column writes its own quiver shift and gauge phase, so a
    # 1.01 scale on the catalog's shift fails the volkov row; while the
    # column read the catalog's shift, the same fault left every volkov
    # record at round-off (below 5e-16), and only the dirac row saw it
    real = cat._plane_wave

    def scaled_shift(spec, t, z):
        xi, (dx, dy), fdot = real(spec, t, z)
        return xi, (1.01 * dx, 1.01 * dy), fdot

    monkeypatch.setattr(cat, "_plane_wave", scaled_shift)
    rep = verify.run_suite(families=["volkov-bessel"], checks={"volkov"})
    assert [r.name for r in rep.records] == ["volkov"] * 3
    for r in rep.records:
        assert not r.passed and r.max_residual > 1e-5, r.family


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


@pytest.mark.parametrize("control", [None, "scale-potential"])
def test_report_json_is_its_payload(control):
    # to_json dumps payload() as it is: every value is already JSON data
    rep = verify.run_suite(families=["uniform-b"], points=4, seed=5,
                           negative_control=control)
    for timed in (False, True):
        assert json.loads(rep.to_json(timed)) == rep.payload(timed)


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


def _first_changed(table):
    # a signed gather's table, a sign table or a column table with its first
    # coefficient or sign negated, or its first column moved on to the next
    if isinstance(table, tuple):
        return table[0], _first_changed(table[1])
    out = table.copy()
    out.flat[0] = (out.flat[0] + 1) % (table.max() + 1) \
        if table.dtype.kind == "i" else -out.flat[0]
    return out


# single-entry mutants of the matrix lift, which the dirac row does not
# read: the inversion row alone must catch them, on every spec with a
# field.  On a field-free state i gamma^mu d_mu psi - m psi is about 0
# whatever the lift, so the potential inverted from its lift is the right
# one, 0, and the three free-bessel specs pass
LIFT_MUTANTS = {"spinors._SIGN[0]": (spinors, "_SIGN"),
                "spinors._GATHER[0]": (spinors, "_GATHER")}


@pytest.mark.parametrize("seed", [20240801, 1, 7])
@pytest.mark.parametrize("mutant", list(LIFT_MUTANTS))
def test_lift_mutant_fails_every_inversion_record(mutant, seed, monkeypatch):
    module, attr = LIFT_MUTANTS[mutant]
    monkeypatch.setattr(module, attr, _first_changed(getattr(module, attr)))
    rep = verify.run_suite(checks=["inversion"], points=100, seed=seed)
    assert sorted((r.name, r.passed) for r in rep.records) == \
        [("constraints", False)] * 18 + [("constraints", True)] * 3 \
        + [("inversion", False)] * 18 + [("inversion", True)] * 3
    assert all(r.family.startswith("free-bessel ")
               for r in rep.records if r.passed)


@pytest.mark.parametrize("seed", [20240801, 1, 7])
def test_slash_mutant_fails_every_dirac_and_inversion_record(seed,
                                                             monkeypatch):
    # the d-slash table with its first coefficient negated: the dirac row
    # reads it through `dirac_column`, and `invert` through the same column
    monkeypatch.setattr(inversion, "_SLASH", _first_changed(inversion._SLASH))
    rep = verify.run_suite(checks=["dirac", "inversion"], points=100,
                           seed=seed)
    got = [r.passed for r in rep.records if r.name in ("dirac", "inversion")]
    assert got == [False] * 42


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


def test_a_faulted_pooled_row_is_measured_per_spec_under_its_fault(
        monkeypatch):
    # a control that reaches a pooled row takes the row out of the pool:
    # the gauge row, with 0.01 t added to eA^0 (a 4-divergence of 0.01), is
    # measured once per spec (a pool of one), on an evaluation made under
    # the fault; every gauge record fails, every other record keeps its
    # bits, and the catalog gets its potential back
    real = cat.potential
    clean = verify.run_suite(points=12, seed=2)
    monkeypatch.setitem(verify.FAULTS, "drift-gauge", {"gauge": (
        "potential", lambda real: lambda spec, t, *q: real(spec, t, *q)
        + np.asarray(t)[..., None] * (0.01, 0.0, 0.0, 0.0))})
    gauge, seen = verify.lorentz_gauge_residual, []

    def recording(pool, *args):
        seen.append(([verify.spec_label(s) for s in pool.specs],
                     cat.potential is not real))
        return gauge(pool, *args)

    monkeypatch.setattr(verify, "lorentz_gauge_residual", recording)
    faulted = verify.run_suite(points=12, seed=2,
                               negative_control="drift-gauge")
    assert cat.potential is real
    assert seen == [([verify.spec_label(s)], True)
                    for group in verify.default_specs().values() for s in group]
    assert len(faulted.records) == len(clean.records)
    for ours, theirs in zip(clean.records, faulted.records):
        if ours.name == "gauge":
            assert not theirs.passed
            assert theirs.max_residual == pytest.approx(0.01, rel=1e-6)
        else:
            assert repr(theirs) == repr(ours)


@pytest.mark.parametrize("families, match", [
    ([], "no family selected; known: free-bessel, "),
    (["uniform-b", "nope"], "unknown family.s. nope; known: free-bessel, "),
])
def test_run_suite_family_selection_errors(families, match):
    # only None selects every family: an empty selection would check
    # nothing, and an unknown family is named beside the known ones
    with pytest.raises(verify.SelectionError, match=match):
        verify.run_suite(families=families, checks={"dirac"}, points=1)


@pytest.mark.parametrize("points", [0, -3])
def test_run_suite_without_points_is_selection_error(points):
    with pytest.raises(verify.SelectionError, match="point"):
        verify.run_suite(families=["uniform-b"], checks={"dirac"},
                         points=points)


@pytest.mark.parametrize("families, checks", [
    (None, []),
    (["uniform-b"], ["volkov"]),  # the volkov row applies to volkov-bessel
])
def test_run_suite_with_no_applying_check_is_selection_error(
        monkeypatch, families, checks):
    # a selection that checks nothing is refused before a point is drawn
    drawn = []
    monkeypatch.setattr(verify, "sample_points", lambda *a: drawn.append(a))
    with pytest.raises(verify.SelectionError, match="nothing was checked"):
        verify.run_suite(families=families, checks=checks, points=3)
    assert drawn == []


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


# the residuals that read their spec's shared evaluation, each with its
# module and the number of leading arguments of its standalone call; invert
# stands for the inversion's h/2 half, which it reads from the same sample
SHARED_RESIDUALS = {"dirac_residual": (verify, 3),
                    "continuity_residual": (verify, 3),
                    "lorentz_gauge_residual": (verify, 3),
                    "inversion_agreement": (verify, 3),
                    "kinematics_check": (verify, 2),
                    "volkov_equivalence": (verify, 2),
                    "field_invariants": (verify, 2),
                    "radial_ode_residual": (inversion, 2),
                    "circularity_residual": (inversion, 2),
                    "invert": (inversion, 2)}


def _parts(pool):
    # each spec's slice of a verify._Pool's batch
    stops = np.cumsum(pool.sizes).tolist()
    return [slice(stop - n, stop) for n, stop in zip(pool.sizes, stops)]


def _share(out, k, part):
    # spec k's share of a pooled call's value: its entry of a per-spec list,
    # else its slice of the points
    if isinstance(out, list):
        return out[k]
    if isinstance(out, dict):
        return {key: value[part] for key, value in out.items()}
    return out[part]


def test_residuals_from_the_shared_sample_equal_standalone_calls(monkeypatch):
    # each residual the suite computes from its spec's one evaluation of
    # each closed form is bit for bit the standalone (spec, point[, h])
    # call, which evaluates them itself, for every default spec; a pooled
    # call, with a verify._Pool in place of the spec, is so spec by spec,
    # on each spec's slice of its points; so is invert, h/2 stencil and
    # density included, called in the pooled inversion with a mass per point
    seen = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.append((name, fn, args, kwargs, out))
            return out
        return wrapper

    for name, (module, _) in SHARED_RESIDUALS.items():
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    verify.run_suite(points=40, seed=3)
    monkeypatch.undo()  # the standalone calls below are not recorded
    assert {name for name, *_ in seen} == set(SHARED_RESIDUALS)
    labels = set()
    for i, (name, fn, args, kwargs, shared) in enumerate(seen):
        lead = SHARED_RESIDUALS[name][1]
        if name == "invert":
            # inside the inversion row's one call, which is recorded next
            assert seen[i + 1][0] == "inversion_agreement"
            assert None not in kwargs.pop("sample"), name
            pool, m = seen[i + 1][2][0], kwargs.pop("m")
            assert m.tobytes() == pool.m.tobytes()
            calls = [(lambda s=s, part=part: fn(cat.spinor(s), args[1][part],
                                                m=s.m, **kwargs), part)
                     for s, part in zip(pool.specs, _parts(pool))]
            shared = vars(shared)
        elif isinstance(args[0], verify._Pool):
            assert len(args) == lead + 1 and args[-1] is not None, name
            pool = args[0]
            calls = [(lambda s=s, part=part: fn(s, args[1][part], *args[2:lead]),
                      part) for s, part in zip(pool.specs, _parts(pool))]
            labels.update(verify.spec_label(s) for s in pool.specs)
        else:
            assert len(args) == lead + 1 and args[-1] is not None, name
            calls, shared = [(lambda: fn(*args[:lead]), ...)], [shared]
            labels.add(verify.spec_label(args[0]))
        for k, (alone, part) in enumerate(calls):
            mine, alone = _share(shared, k, part), alone()
            if name == "invert":
                alone = vars(alone)
            if not isinstance(mine, dict):
                mine, alone = {"": mine}, {"": alone}
            assert mine.keys() == alone.keys()
            for key, value in mine.items():
                assert np.asarray(value).tobytes() == \
                    np.asarray(alone[key]).tobytes(), (name, key)
    assert len(labels) == 21


def count_evaluations(monkeypatch, **suite):
    # evaluations of each closed form per (form, spec label, faulted) in one
    # run_suite call, and of the inversion density per (form, faulted); a
    # spinor is faulted when it was built on a rebound `_pair_kernel`
    counts = {}
    real, kernel = cat.spinor, cat._pair_kernel

    def add(key):
        counts[key] = counts.get(key, 0) + 1

    def counting_spinor(spec):
        col = real(spec)
        key = ("spinor", verify.spec_label(spec), cat._pair_kernel is not kernel)

        def field(*q):
            add(key)
            return col(*q)
        return field

    def counting(form, fn):
        def wrapper(spec, *args):
            add((form, verify.spec_label(spec), False))
            return fn(spec, *args)
        return wrapper

    monkeypatch.setattr(cat, "spinor", counting_spinor)
    for form in ("potential", "fields", "profile"):
        monkeypatch.setattr(cat, form, counting(form, getattr(cat, form)))
    density = inversion.density
    monkeypatch.setattr(inversion, "density", lambda psi: add(
        ("density", None, False)) or density(psi))
    verify.run_suite(points=5, **suite)
    return counts


def test_suite_evaluates_each_closed_form_once_per_spec(monkeypatch):
    # one evaluation per spec of the spinor, the potential and the profile,
    # each on the union of what its rows read; e E and e B once for the
    # maxwell row's own gradient4 and once for the fields row where it
    # applies; the inversion density once a pass, in the pooled row
    counts = count_evaluations(monkeypatch)
    assert not any(faulted for *_, faulted in counts)
    specs = [s for group in verify.default_specs().values() for s in group]
    labels = [verify.spec_label(s) for s in specs]
    want = {("spinor", label, False): 1 for label in labels}
    want |= {("potential", label, False): 1 for label in labels}
    want |= {("fields", verify.spec_label(s), False): 1 + (
        s.is_dressed and s.family is not cat.Family.VOLKOV_BESSEL)
        for s in specs}
    want |= {("profile", verify.spec_label(s), False): 1
             for s in specs if not s.is_dressed}
    want[("density", None, False)] = 1
    assert counts == want
    # the faulted spinor of the control keeps its own evaluation, in the
    # dirac row of every spec, and the true one is still evaluated once
    counts = count_evaluations(monkeypatch, negative_control="perturb-profile")
    spinors_ = {key: n for key, n in counts.items() if key[0] == "spinor"}
    assert sorted(spinors_.values()) == [1] * 42
    assert sum(faulted for *_, faulted in spinors_) == 21
    # no selected row reads the spinor: it is never evaluated
    counts = count_evaluations(monkeypatch, checks={"gauge"})
    assert not [key for key in counts if key[0] == "spinor"]


def test_suite_leaves_nothing_behind_between_runs():
    # the shared sample lives in one spec's loop body: a run at another
    # seed in between changes no byte of a report
    a = verify.run_suite(points=8, seed=41).to_json()
    verify.run_suite(points=8, seed=42)
    assert verify.run_suite(points=8, seed=41).to_json() == a


POOLED_ROWS = [c for c in verify.CHECKS if c.pooled]


def test_pooled_rows_are_the_subsampled_rows():
    assert [c.name for c in POOLED_ROWS] == ["continuity", "gauge",
                                             "inversion", "kinematics"]


def _sign_change_radius(spec, lo, hi):
    # the radius in (lo, hi) where the spec's scalar density changes sign,
    # by bisection: rho / J^0 is about 0 on that circle
    def sigma(r):
        return cat.bilinear_fields(spec, 0.0, r, 0.0, 0.0)["scalar"]
    assert sigma(lo) * sigma(hi) < 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if sigma(lo) * sigma(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("check", POOLED_ROWS, ids=lambda c: c.name)
def test_a_pooled_row_gives_each_item_its_one_item_result(check):
    # items of specs with another m and B, pooled beside a default spec,
    # get bit for bit the (worst, extra) of their one-item calls: a row
    # that read one spec's mass, or mixed the specs' points, would not.
    # Two of the first spec's points sit where its scalar density changes
    # sign, which the kinematics row excludes, so each spec's counts differ
    h = numerics.DEFAULT_STEP
    specs = [cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=1, m=0.7, B=1.3),
             verify.default_specs()[cat.Family.REDMOND][1],
             cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=1, m=1.6, B=0.8)]
    rng = np.random.default_rng(12)
    items = []
    for spec, n in zip(specs, (9, 5, 13)):
        xs = verify.sample_points(rng, n)
        items.append((spec, xs, verify._alone(spec, xs, h, check.name)))
    r0 = _sign_change_radius(specs[0], 1.0, 1.5)
    items[0][1][:2, 1:3] = ((r0, 0.0), (0.6 * r0, -0.8 * r0))
    items[0] = (*items[0][:2], verify._alone(specs[0], items[0][1], h,
                                             check.name))
    pooled = check.measure(items, h)
    assert len(pooled) == len(items)
    for item, got in zip(items, pooled):
        assert repr(got) == repr(check.measure([item], h)[0]), check.name
    if check.name == "kinematics":
        extras = [extra for _, extra in pooled]
        assert [e["excluded"] for e in extras] == [2, 0, 0]
        assert [e["beta_pi_fraction"] > 0.0 for e in extras] == \
            [True, False, False]


@pytest.mark.parametrize("where", [0, 1, 2, None])
def test_a_pooled_inversion_gives_a_spec_with_every_point_skipped_none(where):
    # a spec whose every point lies in a far tail, first, between or last
    # in the pool (None: every spec), gets no worst value, all its points
    # skipped and a failing record that says so; the specs beside it keep
    # their one-spec results bit for bit
    h = numerics.DEFAULT_STEP
    check = next(c for c in POOLED_ROWS if c.name == "inversion")
    specs = [verify.default_specs()[cat.Family.REDMOND][0],
             cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0),
             cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=1, m=0.7, B=1.3)]
    rng = np.random.default_rng(5)
    items = []
    for k, (spec, n) in enumerate(zip(specs, (7, 6, 4))):
        xs = verify.sample_points(rng, n)
        if where in (k, None):
            xs[:, 1:3] += 20.0
        items.append((spec, xs, verify._alone(spec, xs, h, check.name)))
    pooled = check.measure(items, h)
    for k, (item, got) in enumerate(zip(items, pooled)):
        n = len(item[1])
        if where in (k, None):
            assert got == (None, {"constrained": 0.0, "skipped": n})
            record, paired = check.records("far", "grid", n, got)
            assert not record.passed and not paired.passed
            assert record.extra["reason"] == \
                f"no point checked: {n} of {n} skipped"
        else:
            assert got[0] is not None and got[1]["skipped"] < n
            assert repr(got) == repr(check.measure([item], h)[0])


def test_one_family_alone_gets_the_records_of_the_full_run():
    # the first family's specs draw the same points alone as in the full
    # run, so pooling them beside the other 18 specs changes none of their
    # records
    family = next(iter(verify.default_specs())).value
    full = verify.run_suite(points=30, seed=9)
    alone = verify.run_suite(families=[family], points=30, seed=9)
    ours = [r for r in full.records if r.family.split()[0] == family]
    assert len(ours) == 27
    assert [repr(r) for r in ours] == \
        [repr(r) for r in alone.records if r.name != "nullrotor"]


def test_pooled_inputs_share_no_memory_with_their_evaluation(monkeypatch):
    # what a pooled row keeps past its spec's loop is owned, not a view of
    # the spec's union evaluation, which would stay alive with it
    unions, kept = [], {}
    real_sample = numerics.sample

    def recording_sample(fn, point, steps):
        values, samples = real_sample(fn, point, steps)
        unions.append([values, *(s.stencil for s in samples)])
        return values, samples

    def keeping(check):
        def measure(items, h):
            kept[check.name] = items
            return check.measure(items, h)
        return dataclasses.replace(check, measure=measure)

    monkeypatch.setattr(numerics, "sample", recording_sample)
    monkeypatch.setattr(verify, "CHECKS", tuple(
        keeping(c) if c.pooled else c for c in verify.CHECKS))
    verify.run_suite(points=12, seed=4)
    assert set(kept) == {c.name for c in POOLED_ROWS}
    arrays = [a for items in kept.values() for _, xs, sample in items
              for a in (xs, *(a for got in sample.values() for a in (
                  (got.at_points, got.stencil) if hasattr(got, "stencil")
                  else (got,))))]
    assert arrays
    assert not any(np.shares_memory(a, u) for a in arrays
                   for union in unions for u in union)
