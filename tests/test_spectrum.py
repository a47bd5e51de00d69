import tracemalloc

import numpy as np
import pytest

from diracsoc.clifford import DIRAC, mdot
from diracsoc.constants import PhysicalConstants
from diracsoc.spectrum import (SpectrumError, delta_sweep, dispersion_solve, fit_mode_frequency,
    gap, legacy_mode_condition, matrix_nullspace, nullspace_spinors, propertime_evolve)

CONSTS = PhysicalConstants()


def random_on_shell_momentum(rng, consts=CONSTS):
    kvec = rng.standard_normal(3)
    k0 = dispersion_solve(kvec, consts)[0 if rng.random() < 0.5 else 1]
    return np.array([k0, *kvec])


def test_dispersion_rest_frame():
    assert dispersion_solve([0, 0, 0], CONSTS) == (1.0, -1.0)


def test_dispersion_arithmetic():
    roots = dispersion_solve([3, 0, 0], CONSTS)
    assert roots[0] == pytest.approx(np.sqrt(10.0), abs=1e-15)
    assert roots[1] == pytest.approx(-np.sqrt(10.0), abs=1e-15)


def test_dispersion_roots_kill_determinant():
    rng = np.random.default_rng(3)
    eye = np.eye(4)
    for _ in range(20):
        kvec = rng.standard_normal(3) * 2
        for k0 in dispersion_solve(kvec, CONSTS):
            k = np.array([k0, *kvec])
            det = np.linalg.det(CONSTS.hbar * DIRAC.slash(k) - CONSTS.mc * eye)
            assert abs(det) <= 1e-9


def test_dispersion_roots_are_gap_zeros_bisection():
    # cross-check the closed form against bisection on Delta(k0)
    kvec = np.array([1.3, -0.4, 0.7])

    def gap(k0):
        k = np.array([k0, *kvec])
        return CONSTS.hbar ** 2 * mdot(k, k).real - CONSTS.mass_shell

    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = dispersion_solve(kvec, CONSTS)[0]
    assert abs(root - 0.5 * (lo + hi)) <= 1e-12


def test_nullspace_rest_frame():
    k = np.array([CONSTS.mc / CONSTS.hbar, 0, 0, 0])
    basis = nullspace_spinors(k, CONSTS)
    assert basis.shape == (2, 4)
    # spanned by the first two Dirac-basis unit vectors
    assert np.abs(basis[:, 2:]).max() <= 1e-12
    gram = basis @ basis.conj().T
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_nullspace_dimension_random_on_shell():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = random_on_shell_momentum(rng)
        basis = nullspace_spinors(k, CONSTS)
        assert basis.shape == (2, 4)
        M = CONSTS.hbar * DIRAC.slash(k) - CONSTS.mc * np.eye(4)
        assert np.abs(M @ basis.T).max() <= 1e-10


def test_nullspace_off_shell_raises():
    k = np.array([1.5, 0.3, 0, 0])
    with pytest.raises(SpectrumError, match="no nontrivial nullspace"):
        nullspace_spinors(k, CONSTS)


def test_on_shell_mode_is_stationary():
    k = np.array([np.sqrt(2.0), 1.0, 0, 0])
    assert abs(gap(k, CONSTS)) <= 1e-12 * CONSTS.mass_shell
    chis = propertime_evolve(k, np.array([1.0, 0.2j, -0.3, 0.4]), dtau=0.01, steps=1000,
                             consts=CONSTS)
    assert np.linalg.norm(chis[-1] - chis[0]) <= 1e-12


def test_off_shell_mode_rotation_frequency():
    k = np.array([1.7, 0.6, 0, 0])
    delta = gap(k, CONSTS)
    assert abs(delta) > 0.1
    chis = propertime_evolve(k, np.array([1.0, 0, 0.5, 0]), dtau=0.003, steps=500,
                             consts=CONSTS)
    measured = fit_mode_frequency(chis, 0.003)
    want = CONSTS.epsilon * delta / (CONSTS.hbar * CONSTS.m)
    assert abs(measured - want) <= 1e-8 * max(1.0, abs(want))


def test_epsilon_flips_rotation_sense():
    k = np.array([1.7, 0.6, 0, 0])
    chi0 = np.array([1.0, 0, 0, 0])
    plus, minus = CONSTS.with_epsilon(1), CONSTS.with_epsilon(-1)
    # one step from a unit amplitude is the step factor itself
    fplus = propertime_evolve(k, chi0, 0.01, 1, plus)[1, 0]
    fminus = propertime_evolve(k, chi0, 0.01, 1, minus)[1, 0]
    assert fplus == np.conj(fminus)
    tp = propertime_evolve(k, chi0, 0.003, 200, plus)
    tm = propertime_evolve(k, chi0, 0.003, 200, minus)
    assert fit_mode_frequency(tp, 0.003) == pytest.approx(-fit_mode_frequency(tm, 0.003),
                                                          rel=1e-12)


def test_norm_preserved():
    k = np.array([2.0, 1.1, 0, 0])
    chis = propertime_evolve(k, np.array([0.3, -0.4j, 0.6, 0.2]), 0.01, 500, CONSTS)
    norms = np.linalg.norm(chis, axis=1)
    assert np.abs(norms - norms[0]).max() <= 1e-12


def test_evolution_rejects_bad_steps():
    k = np.array([1.0, 0, 0, 0])
    chi0 = np.array([1.0, 0, 0, 0])
    with pytest.raises(SpectrumError):
        propertime_evolve(k, chi0, -0.01, 10, CONSTS)
    # nan <= 0 is False, so a sign test alone would let nan through
    for dtau in (np.nan, np.inf):
        with pytest.raises(SpectrumError, match="finite dtau"):
            propertime_evolve(k, chi0, dtau, 10, CONSTS)


# k.k = 3, so Delta = 2 and the phase per step is 2 dtau: exactly pi at dtau = pi/2
@pytest.mark.parametrize("epsilon", [1, -1])
def test_evolution_refuses_a_step_phase_of_pi_or_more(epsilon):
    consts = CONSTS.with_epsilon(epsilon)
    k = np.array([2.0, 1.0, 0, 0])
    chi0 = np.array([1.0, 0, 0, 0])
    assert propertime_evolve(k, chi0, 1.5707, 10, consts).shape == (11, 4)
    for dtau in (np.pi / 2, 2.0):
        with pytest.raises(SpectrumError, match="cannot unwrap"):
            propertime_evolve(k, chi0, dtau, 10, consts)
    # a step of 4 rad would otherwise fit the frequency 2 as -1.1416
    with pytest.raises(SpectrumError, match="cannot unwrap"):
        delta_sweep(1.0, [2.0], consts, 2.0, 10, 1e-10)


# on shell, off shell, and either sign of epsilon
@pytest.mark.parametrize("k0", [np.sqrt(2.0), 1.8])
@pytest.mark.parametrize("epsilon", [1, -1])
def test_trajectory_is_the_literal_recursion_bit_for_bit(k0, epsilon):
    consts = CONSTS.with_epsilon(epsilon)
    k = np.array([k0, 1.0, 0, 0])
    chi0 = np.array([1.0, 0.3j, -0.2, 0.5 - 0.1j])
    dtau, steps = 1e-3, 1000
    chis = propertime_evolve(k, chi0, dtau, steps, consts)
    assert chis.shape == (steps + 1, 4) and not chis.flags.writeable
    # the scalar is the first operand, as here: chi * factor or a multiply.accumulate
    # can differ in the last bit of the imaginary part
    delta = consts.hbar ** 2 * mdot(k, k).real - consts.mass_shell
    factor = complex(np.exp(1j * consts.epsilon * delta * dtau / (consts.hbar * consts.m)))
    chi, want = chi0, [chi0]
    for _ in range(steps):
        chi = factor * chi
        want.append(chi)
    assert np.array_equal(chis.view(float), np.array(want).view(float))


def _list_of_states_sweep(k1, gaps, consts, dtau, steps, stationary_tol=1e-10):
    """Reference sweep: a list of amplitudes, one per step, and their proper times;
    overlaps one np.vdot at a time."""
    records = []
    chi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    for requested in gaps:
        k0sq = (requested + consts.mass_shell) / consts.hbar ** 2 + k1 ** 2
        k = np.array([np.sqrt(k0sq), k1, 0.0, 0.0])
        delta = consts.hbar ** 2 * mdot(k, k).real - consts.mass_shell
        factor = complex(np.exp(1j * consts.epsilon * delta * dtau / (consts.hbar * consts.m)))
        traj, taus = [chi0], [0.0]
        chi = chi0
        for n in range(1, steps + 1):
            chi = factor * chi
            traj.append(chi)
            taus.append(n * dtau)
        drift = float(np.linalg.norm(traj[-1] - traj[0]) / np.linalg.norm(traj[0]))
        first = traj[0]
        n0 = np.vdot(first, first)
        taus = np.array(taus)
        overlaps = np.array([np.vdot(first, c) / n0 for c in traj])
        phases = np.unwrap(np.angle(overlaps))
        records.append({
            "k0": float(k[0]),
            "k1": float(k1),
            "delta": float(delta),
            "measured_frequency": float(np.polyfit(taus - taus[0], phases, 1)[0]),
            "closed_form_frequency": consts.epsilon * delta / (consts.hbar * consts.m),
            "final_drift": drift,
            "stationary": drift <= stationary_tol,
        })
    return records


@pytest.mark.parametrize("k1,gap_range,n_gaps,steps,epsilon", [
    (1.0, 2.0, 41, 1000, 1),   # the evolve suite's default
    (1.3, 2.5, 7, 257, -1),
])
def test_delta_sweep_equals_the_list_of_states_sweep(k1, gap_range, n_gaps, steps, epsilon):
    consts = CONSTS.with_epsilon(epsilon)
    gaps = np.linspace(-gap_range, gap_range, n_gaps)
    assert (delta_sweep(k1, gaps, consts, 1e-3, steps, 1e-10)
            == _list_of_states_sweep(k1, gaps, consts, 1e-3, steps))


def test_default_sweep_peak_memory():
    # one mode's trajectory is 1001 x 4 complex128 = 64 KiB; the sweep keeps one at a time
    gaps = np.linspace(-2.0, 2.0, 41)
    delta_sweep(1.0, gaps, CONSTS, 1e-3, 1000, 1e-10)  # first-call imports and caches
    tracemalloc.start()
    try:
        delta_sweep(1.0, gaps, CONSTS, 1e-3, 1000, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_stationary_iff_on_shell_sweep():
    gaps = np.linspace(-2.0, 2.0, 41)
    records = delta_sweep(1.0, gaps, CONSTS, dtau=1e-3, steps=1000, stationary_tol=1e-10)
    for rec in records:
        on_shell = abs(rec["delta"]) <= 1e-10
        assert rec["stationary"] == on_shell
    assert sum(rec["stationary"] for rec in records) == 1


def test_legacy_condition_on_shell_upper_branch():
    # chi in null(hbar slash(k) - mc): both forms stationary
    rng = np.random.default_rng(29)
    k = random_on_shell_momentum(rng)
    chi = nullspace_spinors(k, CONSTS)[0]
    rep = legacy_mode_condition(k, chi, CONSTS)
    assert rep.new_residual <= 1e-10
    assert rep.legacy_residual <= 1e-10


def test_legacy_condition_on_shell_lower_branch():
    # chi in null(hbar slash(k) + mc): new form stationary, legacy misses by 2 m^2 c^2
    rng = np.random.default_rng(31)
    k = random_on_shell_momentum(rng)
    M = CONSTS.hbar * DIRAC.slash(k) + CONSTS.mc * np.eye(4)
    chi = matrix_nullspace(M)[0]
    rep = legacy_mode_condition(k, chi, CONSTS)
    assert rep.new_residual <= 1e-10
    assert rep.legacy_residual == pytest.approx(2 * CONSTS.mass_shell, rel=1e-10)


def test_legacy_condition_lightlike_mode():
    # k.k = 0 with slash(k) chi = 0: legacy-stationary but off the mass shell
    k = np.array([2.0, 2.0, 0, 0])
    chi = matrix_nullspace(DIRAC.slash(k))[0]
    rep = legacy_mode_condition(k, chi, CONSTS)
    assert rep.legacy_residual <= 1e-12
    assert rep.gap == pytest.approx(-CONSTS.mass_shell)
    assert rep.new_residual == pytest.approx(CONSTS.mass_shell * rep.chi_norm, rel=1e-12)
