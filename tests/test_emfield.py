import numpy as np
import pytest

from diracsoc import emfield
from diracsoc.clifford import METRIC_DIAG
from diracsoc.constants import PhysicalConstants
from diracsoc.emfield import (PotentialError, PotentialSpec, evaluate_potential,
    field_strength, is_lorenz_gauge, lorenz_residual, spin_coupling_matrix)

CONSTS = PhysicalConstants()


def fd_jacobian(spec, z, h=1e-3, order=2):
    """J[mu, nu] = d A_nu / d z^mu by central differences of evaluate_potential, a witness
    for the analytic Jacobian independent of the catalog's derivative formulas."""
    def shifted(mu, delta):
        return evaluate_potential(spec, [z[nu] + (delta if nu == mu else 0.0) for nu in range(4)])
    if order == 2:
        rows = [(shifted(mu, h) - shifted(mu, -h)) / (2 * h) for mu in range(4)]
    else:
        rows = [(-shifted(mu, 2 * h) + 8 * shifted(mu, h) - 8 * shifted(mu, -h)
                 + shifted(mu, -2 * h)) / (12 * h) for mu in range(4)]
    return np.stack(rows)


def fd_field_strength(spec, z, **fd):
    J = fd_jacobian(spec, z, **fd)
    return J - np.swapaxes(J, 0, 1)


def lorenz_catalog():
    return [
        emfield.free(),
        emfield.constant_electric(1.3),
        emfield.constant_magnetic(0.7),
        emfield.em_plane_wave([0, 0, 0.5, 0], [1.0, 1.0, 0, 0]),
        emfield.em_plane_wave([0, 0, 0, 0.4], [0, 2.0, 0, 0]),
        emfield.constant_potential([0.8, -0.3, 0.2, 0.0]),
    ]


def test_free_is_zero_everywhere():
    z = [0.3, -1.2, 0.5, 2.0]
    assert np.array_equal(evaluate_potential(emfield.free(), z), np.zeros(4))


def test_constant_magnetic_symmetric_gauge():
    B = 0.9
    x, y = 0.4, -1.1
    A = evaluate_potential(emfield.constant_magnetic(B), [0.0, x, y, 0.0])
    assert A[0] == 0 and A[3] == 0
    assert A[1] == pytest.approx(-B * y / 2)
    assert A[2] == pytest.approx(B * x / 2)
    # F_12 = B, measured by finite differences
    F = fd_field_strength(emfield.constant_magnetic(B), [0.0, x, y, 0.0], h=1e-4)
    assert F[1, 2] == pytest.approx(B, abs=1e-8)


def test_constant_electric_single_component():
    E = 1.7
    spec = emfield.constant_electric(E)
    z = [0.2, 0.5, -0.3, 0.9]
    Fa = field_strength(spec, z)
    Fn = fd_field_strength(spec, z, h=1e-4)
    assert np.abs(Fa - Fn).max() <= 1e-7
    # exactly one independent nonzero component, in a time-space slot
    nonzero = [(m, n) for m in range(4) for n in range(m + 1, 4) if Fa[m, n] != 0]
    assert nonzero == [(0, 1)]
    assert Fa[0, 1] == pytest.approx(E)
    # constant in z
    Fb = field_strength(spec, [5.0, -2.0, 1.0, 0.0])
    assert np.array_equal(Fa, Fb)


def test_plane_wave_value_and_field_strength():
    eps = np.array([0, 0, 0.5, 0])
    k = np.array([1.0, 1.0, 0, 0])  # lightlike and transverse
    spec = emfield.em_plane_wave(eps, k)
    z = [0.7, -0.2, 0.0, 0.0]
    kz = k[0] * z[0] + k[1] * z[1]
    A = evaluate_potential(spec, z)
    assert np.allclose(A, eps * np.cos(kz), atol=1e-15)
    # F_munu = -(k_mu eps_nu - k_nu eps_mu) sin(k.z), derived by hand
    Fa = field_strength(spec, z)
    want = -(np.outer(k, eps) - np.outer(k, eps).T) * np.sin(kz)
    assert np.abs(Fa - want).max() <= 1e-14
    Fn = fd_field_strength(spec, z, h=1e-4)
    assert np.abs(Fa - Fn).max() <= 1e-7


def test_plane_wave_requires_transversality():
    with pytest.raises(PotentialError):
        emfield.em_plane_wave([1.0, 0, 0, 0], [1.0, 0, 0, 0])


def test_lorenz_residual_catalog_random_points():
    rng = np.random.default_rng(11)
    for spec in lorenz_catalog():
        assert is_lorenz_gauge(spec)
        for _ in range(100):
            z = rng.standard_normal(4)
            assert abs(lorenz_residual(spec, z)) <= 1e-12
            J = fd_jacobian(spec, z)
            assert abs(sum(METRIC_DIAG[mu] * J[mu, mu] for mu in range(4))) <= 1e-10


def test_lorenz_residual_linear_potential_exact():
    spec = emfield.custom_polynomial({"a0_1000": 1.0})  # A_0 = z^0
    assert lorenz_residual(spec, [0.3, 0.1, -0.2, 0.5]) == 1.0 + 0j
    assert not is_lorenz_gauge(spec)


def test_lorenz_residual_is_the_jacobian_trace_bitwise():
    # only the diagonal is computed; it must equal the trace of the full Jacobian bit for bit
    rng = np.random.default_rng(3)
    z = [rng.standard_normal((9, 5)) + 1j * rng.standard_normal((9, 5)) for _ in range(4)]
    specs = lorenz_catalog() + [
        emfield.custom_wave([0.3, -0.2, 0.1, 0.7], [1.0, 0.5, -2.0, 0.3], 1.1),
        emfield.custom_polynomial({"a0_1000": 2.5, "a1_0100": -1.0, "a2_0021": 0.3,
                                   "a3_1111": 0.2})]
    for spec in specs:
        J = emfield.potential_jacobian(spec, z)
        trace = sum(METRIC_DIAG[mu] * J[mu, mu] for mu in range(4))
        got = lorenz_residual(spec, z)
        assert np.array_equal(got.view(np.float64), trace.view(np.float64)), spec.name


def test_gauge_violating_wave_divergence():
    spec = emfield.custom_wave([0.3, 0, 0, 0], [1.0, 0, 0, 0])
    assert not is_lorenz_gauge(spec)
    z = [0.4, 0.0, 0.0, 0.0]
    # d.A = -eta^{00} k_0 eps_0 sin(k.z)
    want = -1.0 * 0.3 * np.sin(0.4)
    assert lorenz_residual(spec, z) == pytest.approx(want, abs=1e-14)


def test_field_strength_antisymmetry():
    rng = np.random.default_rng(5)
    for spec in lorenz_catalog():
        z = rng.standard_normal(4)
        Fa = field_strength(spec, z)
        assert np.abs(Fa + Fa.T).max() == 0.0
        Fn = fd_field_strength(spec, z, h=1e-3)
        assert np.abs(Fn + Fn.T).max() <= 1e-12


def test_finite_difference_second_order_convergence():
    spec = emfield.em_plane_wave([0, 0, 0.5, 0], [1.0, 1.0, 0, 0])
    z = [0.3, 0.4, 0.0, 0.0]
    Fa = field_strength(spec, z)
    hs = np.array([4e-2, 2e-2, 1e-2, 5e-3])
    errs = [np.abs(fd_field_strength(spec, z, h=h) - Fa).max()
            for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.2


def test_finite_difference_fourth_order_option():
    spec = emfield.em_plane_wave([0, 0, 0.5, 0], [1.0, 1.0, 0, 0])
    z = [0.3, 0.4, 0.0, 0.0]
    Fa = field_strength(spec, z)
    hs = np.array([2e-1, 1e-1, 5e-2])
    errs = [np.abs(fd_field_strength(spec, z, h=h, order=4) - Fa).max()
            for h in hs]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 4.0) <= 0.4


def test_complex_argument_evaluation():
    # every catalog entry is entire, so complex coordinates are fine
    z = [0.2 + 0.1j, -0.4 + 0.3j, 0.1j, 0.0]
    for spec in lorenz_catalog():
        A = evaluate_potential(spec, z)
        assert A.shape == (4,)
        assert np.all(np.isfinite(A.view(np.float64)))


def test_spin_coupling_zero_field():
    F = np.zeros((4, 4))
    assert np.array_equal(spin_coupling_matrix(F, CONSTS), np.zeros((4, 4)))


def test_spin_coupling_magnetic_eigenvalues():
    B = 1.1
    spec = emfield.constant_magnetic(B)
    F = field_strength(spec, [0.0, 0.0, 0.0, 0.0])
    M = spin_coupling_matrix(F, CONSTS)
    # block diagonal in the Dirac basis
    assert np.abs(M[:2, 2:]).max() == 0.0 and np.abs(M[2:, :2]).max() == 0.0
    evals = np.sort(np.linalg.eigvalsh(M))
    scale = CONSTS.e * CONSTS.hbar / (2 * CONSTS.m) * 2 * B
    assert np.allclose(evals, [-scale, -scale, scale, scale], atol=1e-12)


def test_spin_coupling_two_forms_agree():
    rng = np.random.default_rng(19)
    for _ in range(50):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        F = raw - raw.T
        a = spin_coupling_matrix(F, CONSTS, form="sigma")
        b = spin_coupling_matrix(F, CONSTS, form="commutator")
        assert np.abs(a - b).max() <= 1e-12


def test_spin_coupling_charge_sign_independent():
    rng = np.random.default_rng(23)
    raw = rng.standard_normal((4, 4))
    F = raw - raw.T
    a = spin_coupling_matrix(F, CONSTS.with_epsilon(1))
    b = spin_coupling_matrix(F, CONSTS.with_epsilon(-1))
    assert np.array_equal(a, b)


def test_spec_validation_errors():
    with pytest.raises(PotentialError):
        PotentialSpec("not_a_potential")
    with pytest.raises(PotentialError):
        PotentialSpec("constant_electric", {})
    with pytest.raises(PotentialError):
        emfield.custom_polynomial({"b0_0000": 1.0})


WAVE = {"eps0": 0.0, "eps1": 0.0, "eps2": 0.5, "eps3": 0.0,
        "k0": 1.0, "k1": 1.0, "k2": 0.0, "k3": 0.0}


@pytest.mark.parametrize("name,params,key", [
    ("em_plane_wave", {**WAVE, "phse": 0.7}, "phse"),
    ("custom_wave", {**WAVE, "E": 1.0}, "E"),
    ("constant_electric", {"E": 1.0, "B": 2.0}, "B"),
    ("free", {"phase": 0.0}, "phase"),
    ("custom_polynomial", {"a0_0000": 1.0, "foo": 2.0}, "foo"),
])
def test_spec_refuses_a_parameter_its_entry_does_not_take(name, params, key):
    with pytest.raises(PotentialError, match=repr(key)) as exc:
        PotentialSpec(name, params)
    assert exc.value.param == key


@pytest.mark.parametrize("kdoteps,plane_wave,custom", [
    (5e-15, True, True),     # below custom_wave's absolute 1e-14
    (1e-13, True, False),    # em_plane_wave accepts up to a relative 1e-12 and stays gauge
    (2e-12, None, False),    # beyond it em_plane_wave is refused
])
def test_lorenz_gauge_boundary_of_the_two_wave_entries(kdoteps, plane_wave, custom):
    eps, k = [kdoteps, 0.0, 0.5, 0.0], [1.0, 1.0, 0.0, 0.0]  # k.eps = eps0
    assert is_lorenz_gauge(emfield.custom_wave(eps, k)) is custom
    if plane_wave is None:
        with pytest.raises(PotentialError):
            emfield.em_plane_wave(eps, k)
    else:
        assert is_lorenz_gauge(emfield.em_plane_wave(eps, k)) is plane_wave
