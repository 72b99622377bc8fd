"""Spacetime-algebra engine checks: generator relations, trace projections,
exponentials against the scaling-and-squaring oracle, the oracle's polar
factors, and rotor sandwiches projected back onto vectors by the test
oracle."""
import numpy as np
import pytest

import oracles
from oracles import NonVectorResult, to_vector
from rdibeams import catalog as cat
from rdibeams import inversion, sta


def sandwich(r, v):
    """R (v^mu gamma_mu) rev(R), projected back onto vector components."""
    return to_vector(r @ sta.from_vector(v) @ sta.reversion(r))


def random_rotor(rng, scale=0.6):
    a = rng.normal(size=3) * scale
    b = rng.normal(size=3) * scale
    return oracles.rotor(a, b)


def test_generator_anticommutators():
    for mu in range(4):
        for nu in range(4):
            acomm = sta.GAMMA[mu] @ sta.GAMMA[nu] + sta.GAMMA[nu] @ sta.GAMMA[mu]
            np.testing.assert_allclose(
                acomm, 2.0 * sta.METRIC[mu, nu] * sta.ID, atol=1e-15)


def test_gamma_squares():
    np.testing.assert_allclose(sta.GAMMA_UP[0] @ sta.GAMMA_UP[0], sta.ID,
                               atol=1e-15)
    np.testing.assert_allclose(sta.GAMMA_UP[1] @ sta.GAMMA_UP[1], -sta.ID,
                               atol=1e-15)
    anti = sta.GAMMA_UP[1] @ sta.GAMMA_UP[2] + sta.GAMMA_UP[2] @ sta.GAMMA_UP[1]
    np.testing.assert_allclose(anti, np.zeros((4, 4)), atol=1e-15)


def test_block_forms():
    # gamma0 = diag(I, -I); gamma_k off-diagonal Pauli blocks; gamma5
    # off-diagonal identity; pseudoscalar = i gamma5
    np.testing.assert_array_equal(sta.GAMMA0,
                                  np.diag([1.0, 1.0, -1.0, -1.0]))
    for k in range(3):
        blk = sta.GAMMA[k + 1]
        np.testing.assert_allclose(blk[:2, 2:], -sta.SIGMA[k], atol=0)
        np.testing.assert_allclose(blk[2:, :2], sta.SIGMA[k], atol=0)
        alpha = sta.ALPHA[k]
        np.testing.assert_allclose(alpha[:2, 2:], sta.SIGMA[k], atol=0)
    np.testing.assert_allclose(sta.GAMMA5[:2, 2:], np.eye(2), atol=0)
    np.testing.assert_allclose(sta.PSEUDO,
                               sta.GAMMA[0] @ sta.GAMMA[1] @ sta.GAMMA[2]
                               @ sta.GAMMA[3], atol=1e-15)
    np.testing.assert_allclose(sta.PSEUDO @ sta.PSEUDO, -sta.ID, atol=1e-15)
    np.testing.assert_allclose(sta.ALPHA[0] @ sta.ALPHA[1] @ sta.ALPHA[2],
                               sta.PSEUDO, atol=1e-15)


def test_pseudoscalar_commutes_with_alpha():
    for a in sta.ALPHA:
        np.testing.assert_allclose(sta.PSEUDO @ a, a @ sta.PSEUDO, atol=1e-15)


def test_gamma_basis_bundle():
    bundle = oracles.gamma_basis()
    assert len(bundle["Gamma"]) == 16
    assert len(bundle["gamma"]) == 4
    # 17 distinct elements: the 16 plus the pseudoscalar
    distinct = list(bundle["Gamma"]) + [bundle["pseudoscalar"]]
    assert len(distinct) == 17


def test_reversion_basics():
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(sta.reversion(sta.ID), sta.ID)
    for g in sta.GAMMA:
        np.testing.assert_allclose(sta.reversion(g), g, atol=1e-15)
    g12 = sta.GAMMA_UP[1] @ sta.GAMMA_UP[2]
    np.testing.assert_allclose(sta.reversion(g12),
                               sta.GAMMA_UP[2] @ sta.GAMMA_UP[1], atol=1e-15)
    for _ in range(20):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(sta.reversion(a @ b),
                                   sta.reversion(b) @ sta.reversion(a),
                                   atol=1e-12)
        np.testing.assert_allclose(sta.reversion(sta.reversion(a)), a,
                                   atol=1e-14)


def _parts(rng, shape, zeros):
    # random complex entries; with `zeros`, about a third of the real and
    # of the imaginary parts are +0 or -0
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if zeros:
        for part in (a.real, a.imag):
            hit = rng.random(shape) < 0.3
            part[hit] = np.where(rng.random(shape)[hit] < 0.5, 0.0, -0.0)
    return a


@pytest.mark.parametrize("shape", [(), (1,), (2,), (17,), (100,), (3, 17)])
def test_gathers_are_bitwise_their_einsum_and_matmul(shape):
    # every product with a constant Clifford matrix is a signed gather whose
    # sums keep the einsum's or matmul's order from +0: bit for bit their
    # result on finite entries, a signed zero included
    rng = np.random.default_rng(len(shape) + sum(shape))
    for zeros in (False, True):
        psi = _parts(rng, shape + (4,), zeros)
        grad = _parts(rng, shape + (4, 4), zeros)
        a = _parts(rng, shape + (4, 4), zeros)
        got = inversion.dirac_operator(psi, grad, 1.3)
        ref = oracles.dirac_operator(psi, grad, 1.3)
        for g, r in zip(got, ref):
            assert g.shape == r.shape == shape + (4, 4)
            assert g.tobytes() == r.tobytes()
        for x in (a, np.swapaxes(a, -1, -2)):  # contiguous and strided
            assert sta.reversion(x).tobytes() == \
                oracles.reversion(x).tobytes()
        traces = sta.gather_product(inversion._TRACES,
                                    a.reshape(shape + (16,)))
        assert traces.tobytes() == oracles.trace_coefficients(a).tobytes()
        turn = sta.gather_product(cat._NULL_TURN, psi)
        assert turn.tobytes() == oracles.null_turn(psi).tobytes()
        for v in (a.real[..., 0, :], a.imag[..., 0, :]):  # strided
            assert sta.from_vector(v).tobytes() == \
                oracles.from_vector(v).tobytes()


def test_signed_gather_refuses_other_matrices():
    with pytest.raises(ValueError):
        sta.signed_gather(2.0 * sta.GAMMA0)  # an entry that is not +-1
    with pytest.raises(ValueError):
        sta.signed_gather(sta.ID + sta.GAMMA5 @ np.diag([1, 1, 1, 0]))


def test_reversion_inverts_boosts():
    rng = np.random.default_rng(1)
    for _ in range(20):
        boost = oracles.exp_bivector(rng.normal(size=3) * 0.7, (0, 0, 0))
        np.testing.assert_allclose(sta.reversion(boost),
                                   np.linalg.inv(boost), atol=1e-10)


def test_trace_projection_values():
    assert oracles.trace_project(sta.ID, 1) == pytest.approx(1.0)
    for k in range(1, 17):
        expected = 1.0 if k == 2 else 0.0
        assert oracles.trace_project(sta.GAMMA_UP[0], k) == pytest.approx(
            expected)
    g12 = sta.GAMMA_UP[1] @ sta.GAMMA_UP[2]
    assert oracles.trace_project(g12, 11) == pytest.approx(-1.0)
    with pytest.raises(IndexError):
        oracles.trace_project(sta.ID, 17)
    with pytest.raises(IndexError):
        oracles.trace_project(sta.ID, 0)


def test_trace_basis_orthogonality_all_256_pairs():
    for j in range(16):
        for k in range(16):
            t = np.trace(sta.GAMMA16[j] @ sta.GAMMA16[k]) / 4.0
            if j == k:
                assert abs(abs(t) - 1.0) < 1e-14
            else:
                assert abs(t) < 1e-14


def test_reconstruction_from_projections():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_allclose(oracles.reconstruct(a), a, atol=1e-12)


def test_exp_bivector_identity():
    np.testing.assert_array_equal(oracles.exp_bivector((0, 0, 0), (0, 0, 0)),
                                  sta.ID)


def test_exp_bivector_matches_plane_wave_boost():
    # boost generator -(w/2) alpha_x with tanh(w/2) = 3/5 equals the
    # momentum-built boost for p along -x with matching gamma factor
    w_half = np.arctanh(0.6)
    lhs = oracles.exp_bivector((-w_half, 0.0, 0.0), (0, 0, 0))
    m = 1.0
    energy = 2.125 * m  # cosh(w) for tanh(w/2) = 3/5
    p = -np.sqrt(energy ** 2 - m ** 2)
    rhs = oracles.boost_from_momentum((p, 0.0, 0.0), m)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # cross-check against the scaling-and-squaring oracle
    gen = -w_half * sta.ALPHA[0]
    np.testing.assert_allclose(lhs, oracles.expm_pade6(gen), atol=1e-12)


def test_exp_bivector_double_cover():
    u = oracles.exp_bivector((0, 0, 0), (0, 0, np.pi / 2))
    np.testing.assert_allclose(u @ u, -sta.ID, atol=1e-12)
    gen = -(np.pi / 2) * sta.PSEUDO @ sta.ALPHA[2]
    np.testing.assert_allclose(u, oracles.expm_pade6(gen), atol=1e-12)


def test_exp_bivector_properties():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = rng.normal(size=3)
        boost = oracles.exp_bivector(a, (0, 0, 0))
        np.testing.assert_allclose(boost, boost.conj().T, atol=1e-10)
        np.testing.assert_allclose(
            boost @ oracles.exp_bivector(-a, (0, 0, 0)), sta.ID, atol=1e-10)
        b = rng.normal(size=3)
        rot = oracles.exp_bivector((0, 0, 0), b)
        np.testing.assert_allclose(rot @ rot.conj().T, sta.ID, atol=1e-10)
        mixed = oracles.rotor(a * 0.5, b * 0.5)
        assert abs(np.linalg.det(mixed) - 1.0) < 1e-10
        with pytest.raises(oracles.MixedBivector):
            oracles.exp_bivector(a * 0.5, b * 0.5)


def test_polar_decompose_identity_and_pure_boost():
    f = oracles.polar_decompose(sta.ID)
    np.testing.assert_allclose(f.boost, sta.ID, atol=1e-12)
    np.testing.assert_allclose(f.rotation, sta.ID, atol=1e-12)
    boost = oracles.exp_bivector((0.4, -0.2, 0.7), (0, 0, 0))
    f = oracles.polar_decompose(boost)
    np.testing.assert_allclose(f.boost, boost, atol=1e-12)
    np.testing.assert_allclose(f.rotation, sta.ID, atol=1e-12)


def test_polar_decompose_random_rotors():
    rng = np.random.default_rng(4)
    for _ in range(100):
        r = random_rotor(rng)
        f = oracles.polar_decompose(r)
        np.testing.assert_allclose(f.recompose(), r, atol=1e-12)
        np.testing.assert_allclose(f.boost, f.boost.conj().T, atol=1e-12)
        np.testing.assert_allclose(f.rotation @ f.rotation.conj().T, sta.ID,
                                   atol=1e-12)
        assert abs(np.linalg.det(f.boost) - 1.0) < 1e-10
        evals = np.linalg.eigvalsh(f.boost)
        assert evals.min() > 0.0


def test_polar_decompose_singular_input():
    with pytest.raises(oracles.SingularInput):
        oracles.polar_decompose(np.zeros((4, 4), dtype=complex))


def test_sandwich_identity_and_boost():
    v = np.array([1.3, -0.2, 0.5, 0.9])
    np.testing.assert_allclose(sandwich(sta.ID, v), v, atol=1e-14)
    w = 0.8
    r = oracles.exp_bivector((0, 0, w / 2), (0, 0, 0))
    out = sandwich(r, (1, 0, 0, 0))
    np.testing.assert_allclose(out, [np.cosh(w), 0, 0, np.sinh(w)],
                               atol=1e-12)


def test_sandwich_preserves_minkowski_norm():
    rng = np.random.default_rng(5)
    for _ in range(100):
        r = random_rotor(rng)
        for _ in range(10):
            v = rng.normal(size=4)
            out = sandwich(r, v)
            assert abs(oracles.minkowski_dot(out, out)
                       - oracles.minkowski_dot(v, v)) < 1e-10


def test_sandwich_rejects_non_rotor():
    bad = sta.ID * 1.0
    bad = bad + 0.3 * sta.GAMMA5  # not a rotor: mixes grades
    with pytest.raises(NonVectorResult):
        sandwich(bad, (1.0, 0.2, 0.0, 0.0))
