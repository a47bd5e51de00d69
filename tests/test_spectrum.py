import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from diracsoc import ModeTrajectory, emfield
from diracsoc.clifford import DIRAC, mdot
from diracsoc.constants import PhysicalConstants
from diracsoc.spectrum import (FourMomentum, ModeState, SpectrumError, delta_sweep,
    dispersion_solve, fit_mode_frequency, legacy_mode_condition, matrix_nullspace,
    mode_phase_factor, nullspace_spinors, propertime_evolve)

CONSTS = PhysicalConstants()
FREE = emfield.free()


def random_on_shell_momentum(rng, consts=CONSTS):
    kvec = rng.standard_normal(3)
    k0 = dispersion_solve(kvec, consts)[0 if rng.random() < 0.5 else 1]
    return FourMomentum(np.array([k0, *kvec]))


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
    k = FourMomentum(np.array([CONSTS.mc / CONSTS.hbar, 0, 0, 0]))
    basis = nullspace_spinors(k, consts=CONSTS)
    assert basis.shape == (2, 4)
    # spanned by the first two Dirac-basis unit vectors
    assert np.abs(basis[:, 2:]).max() <= 1e-12
    gram = basis @ basis.conj().T
    assert np.allclose(gram, np.eye(2), atol=1e-12)


def test_nullspace_dimension_random_on_shell():
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = random_on_shell_momentum(rng)
        basis = nullspace_spinors(k, consts=CONSTS)
        assert basis.shape == (2, 4)
        M = CONSTS.hbar * DIRAC.slash(k.k) - CONSTS.mc * np.eye(4)
        assert np.abs(M @ basis.T).max() <= 1e-10


def test_nullspace_off_shell_raises():
    k = FourMomentum(np.array([1.5, 0.3, 0, 0]))
    with pytest.raises(SpectrumError, match="no nontrivial nullspace"):
        nullspace_spinors(k, consts=CONSTS)


def test_on_shell_mode_is_stationary():
    k = FourMomentum(np.array([np.sqrt(2.0), 1.0, 0, 0]))
    assert abs(k.gap(CONSTS)) <= 1e-12 * CONSTS.mass_shell
    state = ModeState(np.array([1.0, 0.2j, -0.3, 0.4]), k)
    traj = propertime_evolve(state, FREE, dtau=0.01, steps=1000, consts=CONSTS)
    assert np.linalg.norm(traj.chis[-1] - traj.chis[0]) <= 1e-12


def test_off_shell_mode_rotation_frequency():
    k = FourMomentum(np.array([1.7, 0.6, 0, 0]))
    gap = k.gap(CONSTS)
    assert abs(gap) > 0.1
    state = ModeState(np.array([1.0, 0, 0.5, 0]), k)
    traj = propertime_evolve(state, FREE, dtau=0.003, steps=500, consts=CONSTS)
    measured = fit_mode_frequency(traj)
    want = CONSTS.epsilon * gap / (CONSTS.hbar * CONSTS.m)
    assert abs(measured - want) <= 1e-8 * max(1.0, abs(want))


def test_epsilon_flips_rotation_sense():
    k = FourMomentum(np.array([1.7, 0.6, 0, 0]))
    state = ModeState(np.array([1.0, 0, 0, 0]), k)
    fplus = mode_phase_factor(k, 0.01, CONSTS.with_epsilon(1))
    fminus = mode_phase_factor(k, 0.01, CONSTS.with_epsilon(-1))
    assert fplus == np.conj(fminus)
    tp = propertime_evolve(state, FREE, 0.003, 200, CONSTS.with_epsilon(1))
    tm = propertime_evolve(state, FREE, 0.003, 200, CONSTS.with_epsilon(-1))
    assert fit_mode_frequency(tp) == pytest.approx(-fit_mode_frequency(tm), rel=1e-12)


def test_norm_preserved():
    k = FourMomentum(np.array([2.0, 1.1, 0, 0]))
    state = ModeState(np.array([0.3, -0.4j, 0.6, 0.2]), k)
    traj = propertime_evolve(state, FREE, 0.01, 500, CONSTS)
    norms = np.linalg.norm(traj.chis, axis=1)
    assert np.abs(norms - norms[0]).max() <= 1e-12


def test_evolution_rejects_potentials_and_bad_steps():
    k = FourMomentum(np.array([1.0, 0, 0, 0]))
    state = ModeState(np.array([1.0, 0, 0, 0]), k)
    with pytest.raises(SpectrumError):
        propertime_evolve(state, emfield.constant_electric(1.0), 0.01, 10, CONSTS)
    with pytest.raises(SpectrumError):
        propertime_evolve(state, FREE, -0.01, 10, CONSTS)
    # nan <= 0 is False, so a sign test alone would let nan through
    for dtau in (np.nan, np.inf):
        with pytest.raises(SpectrumError, match="finite dtau"):
            propertime_evolve(state, FREE, dtau, 10, CONSTS)


# on shell, off shell, and either sign of epsilon; tau starts away from 0
@pytest.mark.parametrize("k0", [np.sqrt(2.0), 1.8])
@pytest.mark.parametrize("epsilon", [1, -1])
def test_trajectory_is_the_literal_recursion_bit_for_bit(k0, epsilon):
    consts = CONSTS.with_epsilon(epsilon)
    k = FourMomentum(np.array([k0, 1.0, 0, 0]))
    state = ModeState(np.array([1.0, 0.3j, -0.2, 0.5 - 0.1j]), k, tau=0.25)
    dtau, steps = 1e-3, 1000
    traj = propertime_evolve(state, FREE, dtau, steps, consts)
    assert isinstance(traj, ModeTrajectory) and traj.k is k
    assert traj.taus.shape == (steps + 1,) and traj.chis.shape == (steps + 1, 4)
    assert not traj.taus.flags.writeable and not traj.chis.flags.writeable
    # the scalar is the first operand, as here: chi * factor or a multiply.accumulate
    # can differ in the last bit of the imaginary part
    factor = mode_phase_factor(k, dtau, consts)
    chi, chis, taus = state.chi, [state.chi], [state.tau]
    for n in range(1, steps + 1):
        chi = factor * chi
        chis.append(chi)
        taus.append(state.tau + n * dtau)
    assert np.array_equal(traj.chis.view(float), np.array(chis).view(float))
    assert np.array_equal(traj.taus, np.array(taus))


def _list_of_states_sweep(k1, gaps, consts, dtau, steps, stationary_tol=1e-10):
    """Reference sweep: one ModeState per step, overlaps one np.vdot at a time."""
    records = []
    chi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    for gap in gaps:
        k0sq = (gap + consts.mass_shell) / consts.hbar ** 2 + k1 ** 2
        k = FourMomentum(np.array([np.sqrt(k0sq), k1, 0.0, 0.0]))
        state = ModeState(chi0, k)
        factor = mode_phase_factor(k, dtau, consts)
        traj = [state]
        chi = state.chi
        for n in range(1, steps + 1):
            chi = factor * chi
            traj.append(replace(state, chi=chi, tau=state.tau + n * dtau))
        drift = float(np.linalg.norm(traj[-1].chi - traj[0].chi) / np.linalg.norm(traj[0].chi))
        first = traj[0].chi
        n0 = np.vdot(first, first)
        taus = np.array([s.tau for s in traj])
        overlaps = np.array([np.vdot(first, s.chi) / n0 for s in traj])
        phases = np.unwrap(np.angle(overlaps))
        records.append({
            "k0": float(k.k[0]),
            "k1": float(k1),
            "delta": float(k.gap(consts)),
            "measured_frequency": float(np.polyfit(taus - taus[0], phases, 1)[0]),
            "closed_form_frequency": consts.epsilon * k.gap(consts) / (consts.hbar * consts.m),
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
    assert (delta_sweep(k1, gaps, consts, 1e-3, steps)
            == _list_of_states_sweep(k1, gaps, consts, 1e-3, steps))


def test_default_sweep_peak_memory():
    # one mode's trajectory is 1001 x 4 complex128 = 64 KiB; the sweep keeps one at a time
    gaps = np.linspace(-2.0, 2.0, 41)
    delta_sweep(1.0, gaps, CONSTS, 1e-3, 1000)  # first-call imports and caches
    tracemalloc.start()
    try:
        delta_sweep(1.0, gaps, CONSTS, 1e-3, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_stationary_iff_on_shell_sweep():
    gaps = np.linspace(-2.0, 2.0, 41)
    records = delta_sweep(1.0, gaps, CONSTS, dtau=1e-3, steps=1000)
    for rec in records:
        on_shell = abs(rec["delta"]) <= 1e-10
        assert rec["stationary"] == on_shell
    assert sum(rec["stationary"] for rec in records) == 1


def test_legacy_condition_on_shell_upper_branch():
    # chi in null(hbar slash(k) - mc): both forms stationary
    rng = np.random.default_rng(29)
    k = random_on_shell_momentum(rng)
    chi = nullspace_spinors(k, consts=CONSTS)[0]
    rep = legacy_mode_condition(k, chi, consts=CONSTS)
    assert rep.new_residual <= 1e-10
    assert rep.legacy_residual <= 1e-10


def test_legacy_condition_on_shell_lower_branch():
    # chi in null(hbar slash(k) + mc): new form stationary, legacy misses by 2 m^2 c^2
    rng = np.random.default_rng(31)
    k = random_on_shell_momentum(rng)
    M = CONSTS.hbar * DIRAC.slash(k.k) + CONSTS.mc * np.eye(4)
    chi = matrix_nullspace(M)[0]
    rep = legacy_mode_condition(k, chi, consts=CONSTS)
    assert rep.new_residual <= 1e-10
    assert rep.legacy_residual == pytest.approx(2 * CONSTS.mass_shell, rel=1e-10)


def test_legacy_condition_lightlike_mode():
    # k.k = 0 with slash(k) chi = 0: legacy-stationary but off the mass shell
    k = FourMomentum(np.array([2.0, 2.0, 0, 0]))
    chi = matrix_nullspace(DIRAC.slash(k.k))[0]
    rep = legacy_mode_condition(k, chi, consts=CONSTS)
    assert rep.legacy_residual <= 1e-12
    assert rep.gap == pytest.approx(-CONSTS.mass_shell)
    assert rep.new_residual == pytest.approx(CONSTS.mass_shell * rep.chi_norm, rel=1e-12)
