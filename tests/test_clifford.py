import numpy as np
import pytest

from diracsoc.cli import clifford_records
from diracsoc.clifford import (DIRAC, METRIC_DIAG, CliffordError, GammaSet, as_four_vector,
                               mdot, relation_residuals)
from diracsoc.config import RunConfig

I4 = np.eye(4, dtype=np.complex128)


def test_anticommutator_exact_all_pairs():
    # {gamma^mu, gamma^nu} = 2 eta^{munu} I with no tolerance at all
    for mu in range(4):
        for nu in range(4):
            anti = DIRAC.anticommutator(mu, nu)
            want = 2 * (METRIC_DIAG[mu] if mu == nu else 0) * I4
            assert np.array_equal(anti, want), (mu, nu)


def test_anticommutator_examples():
    assert np.array_equal(DIRAC.anticommutator(0, 0), 2 * I4)
    assert np.array_equal(DIRAC.anticommutator(0, 1), np.zeros((4, 4)))
    assert np.array_equal(DIRAC.anticommutator(1, 1), -2 * I4)


def test_hermiticity():
    g = DIRAC.gammas
    assert np.array_equal(g[0].conj().T, g[0])
    for i in (1, 2, 3):
        assert np.array_equal(g[i].conj().T, -g[i])


def test_spin_tensor_diagonal_vanishes():
    for mu in range(4):
        assert np.array_equal(DIRAC.spin_tensor(mu, mu), np.zeros((4, 4)))


def test_spin_tensor_01_by_direct_multiplication():
    # gamma^0 and gamma^1 anticommute, so [g0, g1] = 2 g0 g1
    g = DIRAC.gammas
    assert np.array_equal(DIRAC.spin_tensor(0, 1), 1j * (g[0] @ g[1]))


def test_spin_tensor_antisymmetry():
    for mu in range(4):
        for nu in range(4):
            assert np.array_equal(DIRAC.spin_tensor(nu, mu), -DIRAC.spin_tensor(mu, nu))


def test_product_identity_exact():
    # gamma^nu gamma^mu = eta^{numu} I + (1/2)[gamma^nu, gamma^mu]
    g = DIRAC.gammas
    for nu in range(4):
        for mu in range(4):
            lhs = g[nu] @ g[mu]
            rhs = (METRIC_DIAG[nu] if mu == nu else 0) * I4 + 0.5 * DIRAC.commutator(nu, mu)
            assert np.array_equal(lhs, rhs)


def test_slash_basis_vectors():
    assert np.array_equal(DIRAC.slash([1, 0, 0, 0]), DIRAC.gammas[0])
    sl = DIRAC.slash([0, 1, 0, 0])
    assert np.abs(sl @ sl + I4).max() == 0.0  # v.v = -1 under the metric


def test_slash_square_random_complex():
    rng = np.random.default_rng(42)
    for _ in range(100):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        sl = DIRAC.slash(v)
        assert np.abs(sl @ sl - mdot(v, v) * I4).max() <= 1e-12


def test_slash_determinant_identity():
    # det(slash(k) - a I) = (k.k - a^2)^2, against numpy's determinant
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a = complex(rng.standard_normal() + 1j * rng.standard_normal())
        det = np.linalg.det(DIRAC.slash(k) - a * I4)
        want = (mdot(k, k) - a * a) ** 2
        assert abs(det - want) <= 1e-10 * max(1.0, abs(want))


def test_index_and_shape_errors():
    with pytest.raises(CliffordError):
        DIRAC.anticommutator(4, 0)
    with pytest.raises(CliffordError):
        DIRAC.spin_tensor(0, -1)
    with pytest.raises(CliffordError):
        as_four_vector([1, 2, 3])


def test_gammaset_rejects_corrupted_matrices():
    bad = np.array(DIRAC.gammas)
    bad[2, 1, 1] += 1.0
    with pytest.raises(CliffordError):
        GammaSet(gammas=bad)


def test_relation_residuals_exact_for_dirac():
    entries = relation_residuals(DIRAC.gammas)
    assert [e[0] for e in entries] == (["anticommutator"] * 16 + ["spin_lorentz_algebra"] * 16
                                       + ["product_identity"] * 16 + ["hermiticity"] * 4)
    assert all(resid == 0.0 for *_, resid in entries)


def test_relation_residuals_are_the_failures_of_the_corrupted_run():
    bad = np.array(DIRAC.gammas)
    bad[1, 0, 3] += 0.5  # the set verify-clifford --corrupt-gamma checks
    nonzero = {(c, mu, nu) for c, mu, nu, resid in relation_residuals(bad) if resid != 0.0}
    records, _, _ = clifford_records(RunConfig.from_sources(), corrupt=True)
    failed = {(r["check"], r["mu"], r["nu"]) for r in records if "mu" in r and not r["pass"]}
    assert nonzero == failed
    # the Lorentz algebra breaks at every off-diagonal (mu, nu); S^{mumu} = 0 makes the
    # diagonal entries read 0 for any matrices
    assert len(nonzero) == 23
    assert {(mu, nu) for c, mu, nu in nonzero if c == "spin_lorentz_algebra"} \
        == {(mu, nu) for mu in range(4) for nu in range(4) if mu != nu}
    with pytest.raises(CliffordError, match=r"Clifford relation violated at \(1,1\)"):
        GammaSet(gammas=bad)


def test_gammaset_rejects_a_non_hermitian_similar_set():
    # S g S^-1 keeps every algebraic relation exactly but breaks hermiticity
    s = np.eye(4, dtype=np.complex128)
    s[0, 1] = 1.0
    s_inv = np.eye(4, dtype=np.complex128)
    s_inv[0, 1] = -1.0
    similar = np.array([s @ g @ s_inv for g in DIRAC.gammas])
    failing = {c for c, _, _, resid in relation_residuals(similar) if resid != 0.0}
    assert failing == {"hermiticity"}
    with pytest.raises(CliffordError, match=r"gamma\^\d must be (anti-)?Hermitian"):
        GammaSet(gammas=similar)


def test_gammas_are_immutable():
    with pytest.raises(ValueError):
        DIRAC.gammas[0, 0, 0] = 5.0
