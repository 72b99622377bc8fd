"""Acceptance suite: every criterion at its stated tolerance, one printed
line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 6 is split: the kinematic/tetrad invariants and the exact
duality-angle dichotomy pass; the literal pointwise beta = 0 assertion is a
strict expected failure, because the excited catalog states genuinely carry
duality-flipped annuli around their radial nodes (see the decisions ledger).
"""
import json
import math
import time

import numpy as np
import pytest

from rdibeams import catalog as cat
from rdibeams import verify, waveforms
import oracles
from oracles import adaptive_simpson

SEED = 20240801


def report(num, name, ok, detail=""):
    print(f"ACCEPTANCE {num:>3} {name}: {'PASS' if ok else 'FAIL'} {detail}")


# ---------------------------------------------------------------------------
# 1. Dirac residual suite + negative controls + runtime
# ---------------------------------------------------------------------------


def test_criterion_1_dirac_suite():
    t0 = time.perf_counter()
    rep = verify.run_suite(checks={"dirac"}, points=100, seed=SEED)
    worst = max(r.max_residual for r in rep.records)
    n_specs = len(rep.records)
    ok = rep.passed and worst <= 1e-7 and n_specs == 21
    # negative controls: the injected faults must push every dirac record
    # past 1e-4 (and therefore fail the suite)
    neg1 = verify.run_suite(families=["uniform-b"], checks={"dirac"},
                            points=10, seed=SEED,
                            negative_control="scale-potential")
    neg2 = verify.run_suite(families=["uniform-b", "radial-b"],
                            checks={"dirac"}, points=10, seed=SEED,
                            negative_control="perturb-profile")
    detected = (not neg1.passed and not neg2.passed
                and all(r.max_residual > 1e-4
                        for r in neg1.records + neg2.records))
    elapsed = time.perf_counter() - t0
    ok = ok and detected and elapsed < 600.0
    report(1, "dirac residual suite", ok,
           f"(21 parameter sets x 100 points, worst {worst:.2e}, "
           f"controls detected, {elapsed:.0f}s)")
    assert rep.passed and worst <= 1e-7
    assert detected
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 2. inversion agreement
# ---------------------------------------------------------------------------


def test_criterion_2_inversion_agreement():
    rep = verify.run_suite(checks={"inversion", "constraints"}, points=100,
                           seed=SEED)
    inv_recs = [r for r in rep.records if r.name == "inversion"]
    con_recs = [r for r in rep.records if r.name == "constraints"]
    worst_ratio = max(r.max_residual for r in inv_recs)
    worst_con = max(r.max_residual for r in con_recs)
    ok = worst_ratio <= 1.0 and worst_con <= 2e-7
    report(2, "potential inversion agreement", ok,
           f"(worst diff/bound {worst_ratio:.2e}, constrained traces "
           f"{worst_con:.2e})")
    assert ok


# ---------------------------------------------------------------------------
# 3. eigenvalues
# ---------------------------------------------------------------------------


def test_criterion_3_eigenvalues():
    e1 = cat.eigenvalue(cat.SolutionSpec(cat.Family.UNIFORM_B, n=1))
    e2 = cat.eigenvalue(cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=1, l=1))
    e3 = cat.eigenvalue(cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0))
    ok = (abs(e1 - math.sqrt(3.0)) < 1e-12
          and abs(e2 - math.sqrt(5.0)) < 1e-12
          and abs(e3 - math.sqrt(19.0 / 18.0)) < 1e-12)
    for fam, kw in [(cat.Family.UNIFORM_B, dict(n=1)),
                    (cat.Family.UNIFORM_B_SPLIT, dict(n=1, l=1)),
                    (cat.Family.RADIAL_B, dict(n=1, M=0))]:
        rest = cat.eigenvalue(cat.SolutionSpec(fam, **kw))
        moving = cat.eigenvalue(cat.SolutionSpec(fam, p_z=0.7, **kw))
        ok = ok and abs(moving - math.sqrt(rest ** 2 + 0.49)) < 1e-12
    report(3, "level formulas", ok,
           "(sqrt3, sqrt5, sqrt(19/18); p_z^2 addition at p_z=0.7)")
    assert ok


# ---------------------------------------------------------------------------
# 4. averages
# ---------------------------------------------------------------------------


def test_criterion_4_averages():
    ok = True
    details = []
    for spec in (cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0),
                 cat.SolutionSpec(cat.Family.UNIFORM_B, n=2, l=1),
                 cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=1, l=1),
                 cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0),
                 cat.SolutionSpec(cat.Family.RADIAL_B, n=2, M=1)):
        av = cat.averages(spec)
        ok = ok and abs(av["rho"] - av["rho_closed"]) < 1e-8
    # azimuthal averages against the quoted closed forms
    s = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0)
    eps = cat.eigenvalue(s)
    av = cat.averages(s)
    ok = ok and abs(abs(av["J_phi"]) - math.sqrt(2.0) / eps) < 1e-8
    details.append(f"|<J_phi>|={abs(av['J_phi']):.8f}")
    s = cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0)
    eps = cat.eigenvalue(s)
    av = cat.averages(s)
    expected = 1 * (1 + 1 + 0) / ((1 + 2 + 0) ** 2 * eps)
    ok = ok and abs(abs(av["J_phi"]) - expected) < 1e-8
    # Redmond z-current constant in the drive phase
    wf = waveforms.circular(0.3)
    red = cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                           omega=1.1)
    vals = [cat.averages(red, xi=xi)["J_z"]
            for xi in (0.0, 0.7, 1.9, 3.1, 5.0)]
    ok = ok and (max(vals) - min(vals)) < 1e-9
    details.append(f"<J_z> spread {max(vals) - min(vals):.1e}")
    report(4, "transverse averages", ok, "(" + ", ".join(details) + ")")
    assert ok


# ---------------------------------------------------------------------------
# 5. normalization
# ---------------------------------------------------------------------------


def test_criterion_5_normalization():
    ok = True
    worst = 0.0
    for spec in (cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0),
                 cat.SolutionSpec(cat.Family.UNIFORM_B, n=2, l=1),
                 cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=1, l=1),
                 cat.SolutionSpec(cat.Family.UNIFORM_B_SPLIT, n=2, l=2),
                 cat.SolutionSpec(cat.Family.RADIAL_B, n=1, M=0),
                 cat.SolutionSpec(cat.Family.RADIAL_B, n=2, M=1)):
        eps = cat.eigenvalue(spec)
        A = spec.m + eps

        def j0(lam, spec=spec, A=A):
            pr = cat.profile(spec, lam)
            aH = pr["amp"] * pr["H"]
            bH = pr["ampd"] * pr["H"]
            return A * A * aH * aH / spec.B ** 2 + bH * bH / 4.0

        lam_max = 7.0 if spec.family is not cat.Family.RADIAL_B else \
            85.0 * (2 * spec.n + spec.M + 1) / (spec.M + 1)
        total = 2.0 * math.pi * adaptive_simpson(
            lambda u: j0(u) * u, 0.0, lam_max, tol=1e-12)
        worst = max(worst, abs(total - 1.0))
        ok = ok and abs(total - 1.0) < 1e-8
    report(5, "probability normalization", ok, f"(worst |int-1| {worst:.1e})")
    assert ok


# ---------------------------------------------------------------------------
# 6. kinematic / tetrad invariants and the duality angle
# ---------------------------------------------------------------------------


def _kinematics_all_families(points=100):
    rng = np.random.default_rng(SEED)
    out = []
    for fam, specs in verify.default_specs().items():
        for spec in specs:
            pts = verify.sample_points(rng, points)
            out.append((spec, verify.kinematics_check(spec, pts)))
    return out


def test_criterion_6_kinematic_invariants():
    results = _kinematics_all_families()
    worst = 0.0
    for spec, kin in results:
        worst = max(worst, kin["vv"], kin["ss"], kin["vs"], kin["gram"],
                    kin["plane"])
    ok = worst <= 1e-10
    report(6, "kinematic/tetrad invariants", ok,
           f"(v.v, s.s, v.s, Gram, spin plane; worst {worst:.1e})")
    assert ok


def test_criterion_6_duality_angle_dichotomy():
    # the exact invariant: the pseudoscalar density vanishes identically,
    # so beta is 0 or pi; it is 0 wherever the scalar density is positive
    results = _kinematics_all_families()
    worst_pseudo = max(kin["pseudo"] for _, kin in results)
    worst_beta0 = max(kin["beta0"] for _, kin in results)
    frac = {spec.family.value: kin["beta_pi_fraction"]
            for spec, kin in results}
    ok = worst_pseudo <= 1e-10 and worst_beta0 <= 1e-10
    report(6, "duality-angle dichotomy", ok,
           f"(pseudoscalar {worst_pseudo:.1e}; flipped-annulus fractions "
           f"up to {max(frac.values()):.2f})")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "excited states carry duality-flipped annuli around their radial nodes "
    "(scalar density changes sign), so beta = 0 cannot hold at every "
    "sampled point; see the decisions ledger"))
def test_criterion_6_beta_zero_pointwise_strict():
    results = _kinematics_all_families()
    worst = 0.0
    for spec, kin in results:
        worst = max(worst, kin["beta_pi_fraction"])
    report(6, "beta = 0 at every sampled point", worst == 0.0,
           f"(flipped fraction {worst:.2f})")
    assert worst == 0.0


# ---------------------------------------------------------------------------
# 7. field identities
# ---------------------------------------------------------------------------


def test_criterion_7_field_identities():
    wf = waveforms.circular(0.3)
    rng = np.random.default_rng(SEED)
    ok = True
    worst_dot = worst_inv = worst_gauge = 0.0
    red = cat.SolutionSpec(cat.Family.REDMOND, n=1, l=0, waveform=wf,
                           omega=1.1)
    ral = cat.SolutionSpec(cat.Family.RADIAL_B_LASER, n=1, M=0, waveform=wf,
                           omega=1.1)
    for spec in (red, ral):
        for _ in range(20):
            pt = tuple(rng.uniform(0.5, 5.0, size=4))
            smp = cat.fields(spec, *pt)
            dot = float(np.dot(smp.electric, smp.magnetic))
            worst_dot = max(worst_dot, abs(dot))
            if spec is ral:
                xp, yp, _ = cat._primed(spec, *pt)
                expected = -spec.B ** 2 / (16.0 * (xp * xp + yp * yp))
                inv2 = float(np.dot(smp.electric, smp.electric)
                             - np.dot(smp.magnetic, smp.magnetic))
                worst_inv = max(worst_inv, abs(inv2 - expected))
            worst_gauge = max(worst_gauge,
                              verify.lorentz_gauge_residual(spec, pt))
    ok = worst_dot < 1e-9 and worst_inv < 1e-9 and worst_gauge < 2e-7
    report(7, "field identities", ok,
           f"(E.B {worst_dot:.1e}, invariant {worst_inv:.1e}, gauge "
           f"{worst_gauge:.1e})")
    assert ok


# ---------------------------------------------------------------------------
# 8. Bessel addition theorem
# ---------------------------------------------------------------------------


def test_criterion_8_bessel_addition():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        nu = int(rng.integers(0, 11))
        rho = float(rng.uniform(0.05, 5.0))
        rho_bar = float(rng.uniform(0.0, 2.0))
        dphi = float(rng.uniform(0.0, 2.0 * math.pi))
        worst = max(worst, oracles.bessel_addition_residual(
            nu, rho, rho_bar, dphi, terms=40))
    ok = worst <= 1e-10
    report(8, "Bessel addition theorem", ok, f"(worst {worst:.1e} at K=40)")
    assert ok


# ---------------------------------------------------------------------------
# 9. dressed-beam dual-path equivalence
# ---------------------------------------------------------------------------


def test_criterion_9_volkov_dual_path():
    wf = waveforms.circular(0.3)
    spec = cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=1, p_perp=0.9,
                            waveform=wf, omega=1.1)
    rng = np.random.default_rng(SEED)
    worst = max(verify.volkov_equivalence(spec, tuple(rng.uniform(0.5, 5, 4)))
                for _ in range(50))
    zero = cat.SolutionSpec(cat.Family.VOLKOV_BESSEL, l=1, p_perp=0.9,
                            waveform=waveforms.circular(0.0), omega=1.1)
    pt = (1.3, 2.0, 1.1, 0.7)
    exact = np.array_equal(cat.spinor(zero)(*pt),
                           cat.spinor(zero.static_base())(*pt))
    ok = worst <= 1e-10 and exact
    report(9, "dressed-beam dual path", ok,
           f"(worst {worst:.1e}; zero-drive degeneration exact)")
    assert ok


# ---------------------------------------------------------------------------
# 10. null-rotation block identity
# ---------------------------------------------------------------------------


def test_criterion_10_null_rotation_identity():
    wf = waveforms.circular(0.4)
    rng = np.random.default_rng(SEED)
    worst_block = worst_nil = 0.0
    eps = math.sqrt(3.0)
    for _ in range(20):
        xi = float(rng.uniform(0.0, 2.0 * math.pi))
        res = verify.null_rotation_block_residual(wf, xi, eps, 1.1)
        worst_block = max(worst_block, res["block_diff"])
        worst_nil = max(worst_nil, res["nilpotency"])
    ok = worst_block <= 1e-12 and worst_nil <= 1e-14
    report(10, "null-rotation block identity", ok,
           f"(block {worst_block:.1e}, nilpotency {worst_nil:.1e})")
    assert ok


# ---------------------------------------------------------------------------
# 11. streamlines
# ---------------------------------------------------------------------------


def test_criterion_11_streamlines():
    spec = cat.SolutionSpec(cat.Family.UNIFORM_B, n=1, l=0)
    out = verify.orbit_closure(spec, 0.8)
    eps = cat.eigenvalue(spec)
    avg = verify.proper_time_average(spec)
    ok = out["radial_drift"] <= 1e-6 and abs(avg - eps) / eps <= 1e-4
    report(11, "streamlines", ok,
           f"(radial drift {out['radial_drift']:.1e}/rev, "
           f"dt/ds {avg:.6f} vs {eps:.6f})")
    assert ok


# ---------------------------------------------------------------------------
# 12. determinism
# ---------------------------------------------------------------------------


def test_criterion_12_determinism():
    kw = dict(families=["redmond"], checks={"dirac", "kinematics"},
              points=8, seed=SEED)
    a = verify.run_suite(**kw).to_json()
    b = verify.run_suite(**kw).to_json()
    ok = a == b
    report(12, "report determinism", ok,
           f"({len(a)} bytes, byte-identical)")
    assert ok
    payload = json.loads(a)
    assert payload["seed"] == SEED
