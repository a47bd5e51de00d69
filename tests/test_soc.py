import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from diracsoc import emfield, soc
from diracsoc.clifford import METRIC_DIAG, mdot
from diracsoc.constants import PhysicalConstants
from diracsoc.grid import Field, SpacetimeGrid, random_band_limited
from diracsoc.soc import (DiffusionCoefficients, EnsembleParams, EulerStream, HopfColeError,
    _path_noise, PolynomialTestFunction, SocError, accumulate_action, constant_control,
    generator_check, hjb_residual, hjb_residual_mode, hopf_cole_check,
    hopf_cole_exponential_error, make_diffusion, monomial, optimal_control,
    optimal_control_mode, run_generator_battery, simulate, standard_test_battery,
    weak_condition_residual, zero_control, zero_diffusion)

CONSTS = PhysicalConstants()
GRID = SpacetimeGrid(dims=2, extent=(2 * np.pi, 2 * np.pi), points=(64, 64))
K_ON = np.array([np.sqrt(2.0), 1.0, 0.0, 0.0])  # k.k = 1 = (mc/hbar)^2


# -- control law --------------------------------------------------------------

def test_optimal_control_mode_free():
    w = optimal_control_mode(K_ON, CONSTS)
    assert np.allclose(w.w, CONSTS.hbar * K_ON / CONSTS.m, atol=1e-15)


def test_control_is_a_read_only_copy():
    v = np.array([0.3, -0.2, 0.1, 0.05], dtype=complex)
    w = constant_control(v, "drift")
    v[0] = 9.0
    assert w.w[0] == 0.3 and w.label == "drift"
    with pytest.raises(ValueError):
        w.w[1] = 0.0


def test_optimal_control_mode_epsilon_flip():
    wp = optimal_control_mode(K_ON, CONSTS.with_epsilon(1))
    wm = optimal_control_mode(K_ON, CONSTS.with_epsilon(-1))
    assert np.array_equal(wp.w, -wm.w)


def test_optimal_control_mode_constant_potential_shift():
    a = np.array([0.4, -0.2, 0.1, 0.0])
    w0 = optimal_control_mode(K_ON, CONSTS)
    wa = optimal_control_mode(K_ON, CONSTS, A_const=a)
    shift = -CONSTS.epsilon * CONSTS.e * a / CONSTS.m
    assert np.allclose(wa.w - w0.w, shift, atol=1e-15)


def test_optimal_control_grid_single_mode_oracle():
    kappa = 2 * np.pi * 3 / GRID.extent[1]
    z1 = GRID.meshes()[1]
    beta = 0.3 - 0.1j
    jt = Field(GRID, beta * np.exp(1j * kappa * z1))
    w = optimal_control(jt, emfield.free(), CONSTS)
    want1 = (CONSTS.epsilon / CONSTS.m) * (1j * CONSTS.hbar) * (1j * kappa) * jt.values
    assert np.abs(w[1] - want1).max() <= 1e-10 * np.abs(want1).max()
    assert np.abs(w[0]).max() <= 1e-12
    assert np.abs(w[2]).max() == 0.0  # inactive axis, no gradient, no potential


def test_weak_condition_on_shell_both_epsilons():
    for eps in (1, -1):
        w = optimal_control_mode(K_ON, CONSTS.with_epsilon(eps))
        assert abs(weak_condition_residual(w, CONSTS)) <= 1e-12


def test_weak_condition_off_shell_gap():
    k = np.array([1.5, 0.5, 0.0, 0.0])
    gap = CONSTS.hbar ** 2 * mdot(k, k).real - CONSTS.mass_shell
    w = optimal_control_mode(k, CONSTS)
    assert weak_condition_residual(w, CONSTS) == pytest.approx(gap / CONSTS.m ** 2)


def test_weak_condition_timelike_unit():
    assert weak_condition_residual(np.array([CONSTS.c, 0, 0, 0]), CONSTS) == 0.0


# -- HJB residual -------------------------------------------------------------

def test_hjb_mode_on_shell_zero():
    assert abs(hjb_residual_mode(K_ON, CONSTS)) <= 1e-10


def test_hjb_mode_off_shell_is_minus_gap():
    k = np.array([1.9, 0.7, 0.0, 0.0])
    gap = CONSTS.hbar ** 2 * mdot(k, k).real - CONSTS.mass_shell
    assert hjb_residual_mode(k, CONSTS) == pytest.approx(-gap, rel=1e-12)


def test_hjb_affine_in_gap_with_unit_slope():
    gaps = np.linspace(-2.0, 2.0, 21)
    residuals = []
    for gap in gaps:
        k0 = np.sqrt((gap + CONSTS.mass_shell) / CONSTS.hbar ** 2 + 1.0)
        residuals.append(hjb_residual_mode(np.array([k0, 1.0, 0, 0]), CONSTS).real)
    slope, intercept = np.polyfit(gaps, residuals, 1)
    assert abs(abs(slope) - 1.0) <= 1e-6
    assert abs(intercept) <= 1e-10


def test_hjb_zero_jtilde_pure_rest_mass():
    jt = Field(GRID, np.zeros(GRID.shape, dtype=complex))
    res = hjb_residual(jt, emfield.free(), CONSTS)
    assert np.allclose(res.values, CONSTS.mass_shell, atol=1e-14)


def test_hjb_grid_single_mode_oracle():
    kappa = 2 * np.pi * 2 / GRID.extent[1]
    z1 = GRID.meshes()[1]
    beta = 0.2 + 0.05j
    jv = beta * np.exp(1j * kappa * z1)
    jt = Field(GRID, jv)
    res = hjb_residual(jt, emfield.free(), CONSTS)
    # by hand: dal J = kappa^2 J and the quadratic term is
    # eta^{11} (i hbar (i kappa) J)^2 = -hbar^2 kappa^2 J^2
    want = -(-CONSTS.mass_shell - CONSTS.hbar ** 2 * kappa ** 2 * jv
             - CONSTS.hbar ** 2 * kappa ** 2 * jv * jv)
    assert np.abs(res.values - want).max() <= 1e-10 * np.abs(want).max()


def test_hjb_tau_derivative_enters_lhs():
    jt = Field(GRID, np.zeros(GRID.shape, dtype=complex))
    dtau = Field(GRID, np.full(GRID.shape, 0.7 + 0.1j))
    res = hjb_residual(jt, emfield.free(), CONSTS, tau_derivative=dtau)
    want = -1j * CONSTS.epsilon * CONSTS.hbar * CONSTS.m * (0.7 + 0.1j) + CONSTS.mass_shell
    assert np.allclose(res.values, want, atol=1e-14)


def test_hjb_scalar_spin_restriction_shifts_residual():
    # a scalar stand-in for the coupling eigenvalue enters the RHS with a
    # minus sign, so the residual shifts by +spin_scalar
    jt = Field(GRID, np.zeros(GRID.shape, dtype=complex))
    base = hjb_residual(jt, emfield.free(), CONSTS)
    shifted = hjb_residual(jt, emfield.free(), CONSTS, spin_scalar=0.3 - 0.2j)
    assert np.allclose(shifted.values - base.values, 0.3 - 0.2j, atol=1e-14)


# -- Hopf-Cole ----------------------------------------------------------------

def test_hopf_cole_exponential_closed_form():
    for a in (0.8, 0.5 - 0.7j, 1.2j):
        assert hopf_cole_exponential_error(a) <= 1e-10


def test_hopf_cole_grid_exponential_of_single_mode():
    kappa = 2 * np.pi * 2 / GRID.extent[1]
    z1 = GRID.meshes()[1]
    g = 0.4 * np.exp(1j * kappa * z1)
    phi = Field(GRID, np.exp(g))
    assert hopf_cole_check(phi) <= 1e-10


def test_hopf_cole_random_bounded_below():
    # log(phi) is not band-limited, so the grid needs headroom above the
    # field's modes for its spectral tail to fall below the tolerance
    g = SpacetimeGrid(dims=2, extent=(2 * np.pi, 2 * np.pi), points=(128, 128))
    rng = np.random.default_rng(71)
    f = random_band_limited(g, 3, rng)
    bump = 0.45 * f.values / np.abs(f.values).max()
    phi = Field(g, 1.0 + bump)  # |phi| >= 0.55
    assert hopf_cole_check(phi) <= 1e-8


def test_hopf_cole_zero_crossing_rejected():
    z0, z1 = GRID.meshes()
    phi = Field(GRID, np.sin(z1) + 0j + 1e-12)
    with pytest.raises(HopfColeError, match="grid point"):
        hopf_cole_check(phi)


# -- diffusion coefficients ---------------------------------------------------

def test_diffusion_squares_exact_natural_units():
    d = make_diffusion(CONSTS)
    assert d.squares[0] == 2j and d.sigma[0] ** 2 == 2j
    assert d.squares[1] == -2j and d.sigma[1] ** 2 == -2j
    dm = make_diffusion(CONSTS.with_epsilon(-1))
    assert dm.squares[0] == -2j and dm.sigma[0] ** 2 == -2j
    assert np.array_equal(d.sigma ** 2, d.squares)
    assert np.array_equal(dm.sigma ** 2, dm.squares)


def test_diffusion_squares_formula():
    consts = PhysicalConstants(hbar=2.0, m=0.5)
    d = make_diffusion(consts)
    want = 2j * consts.epsilon * (consts.hbar / consts.m) * METRIC_DIAG
    assert np.allclose(d.squares, want, atol=0)
    assert np.abs(d.sigma ** 2 - want).max() <= 1e-15


# -- SDE simulation -----------------------------------------------------------

@pytest.mark.parametrize("ds", [0.0, -1e-3, np.nan, np.inf])
def test_ensemble_params_reject_bad_step_size(ds):
    with pytest.raises(SocError, match="step size"):
        EnsembleParams(n_paths=2, steps=1, ds=ds)


def test_simulate_straight_line_exact():
    w4 = np.array([1.0, 0.5, -0.25, 0.0], dtype=complex)
    params = EnsembleParams(n_paths=3, steps=32, ds=1.0 / 1024)
    ens = simulate(params, constant_control(w4), CONSTS, seed=1,
                   diffusion=zero_diffusion())
    z = np.zeros((3, 4), dtype=complex)
    for _ in range(32):
        z = z + w4 * params.ds
    assert np.array_equal(ens.paths[:, -1, :], z)
    assert not ens.truncated.any()


def test_simulate_bitwise_reproducible():
    params = EnsembleParams(n_paths=128, steps=16, ds=1e-3)
    e1 = simulate(params, zero_control(), CONSTS, seed=99)
    e2 = simulate(params, zero_control(), CONSTS, seed=99)
    assert np.array_equal(e1.paths, e2.paths)
    e3 = simulate(params, zero_control(), CONSTS, seed=100)
    assert not np.array_equal(e1.paths, e3.paths)


def test_simulate_path_prefix_independent_of_ensemble_size():
    # counter-based substreams: path p draws the same noise regardless of n_paths
    small = simulate(EnsembleParams(n_paths=4, steps=8, ds=1e-3),
                     zero_control(), CONSTS, seed=5)
    large = simulate(EnsembleParams(n_paths=16, steps=8, ds=1e-3),
                     zero_control(), CONSTS, seed=5)
    assert np.array_equal(small.paths, large.paths[:4])


def _reference_noise(seed, n_paths, steps):
    # one freshly constructed generator per step, straight from the substream definition
    return np.stack([
        np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, s, 0]))
        .standard_normal((n_paths, 4)) for s in range(steps)], axis=1)


@pytest.mark.parametrize("seed", [0, 12345, 2 ** 100])
@pytest.mark.parametrize("n_paths,steps", [(1000, 1), (64, 32), (3, 257)])
def test_path_noise_matches_fresh_generator_per_path(seed, n_paths, steps):
    xi = _path_noise(seed, n_paths, steps)
    assert xi.shape == (n_paths, steps, 4)
    assert np.array_equal(xi, _reference_noise(seed, n_paths, steps))


def test_path_noise_keeps_no_state_between_calls():
    first = _path_noise(7, 50, 9)
    other = _path_noise(8, 50, 9)
    again = _path_noise(7, 50, 9)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_path_noise_from_a_later_step_is_a_slice():
    full = _path_noise(21, 30, 12)
    for k in (1, 5, 11):
        assert np.array_equal(_path_noise(21, 30, 12 - k, start=k), full[:, k:])


@pytest.mark.parametrize("n_paths", [1, 40])
@pytest.mark.parametrize("chunk", [1, 3, 100, 1 << 20])
def test_simulate_independent_of_noise_chunk(monkeypatch, chunk, n_paths):
    # a call draws max(1, chunk // n_paths) steps: 1, 2, 3 and 13 (all) steps occur
    params = EnsembleParams(n_paths=n_paths, steps=13, ds=1e-3)
    w = constant_control(np.array([0.3, -0.2, 0.1, 0.05]))
    want = simulate(params, w, CONSTS, seed=17)
    monkeypatch.setattr(soc, "NOISE_CHUNK", chunk)
    got = simulate(params, w, CONSTS, seed=17)
    assert np.array_equal(got.paths, want.paths)


@pytest.mark.parametrize("chunk,n_paths,steps", [
    (64, 7, 50), (64, 300, 9), (64, 5000, 2), (None, 3000, 50), (None, 70000, 3)])
def test_simulate_draws_noise_in_bounded_chunks(monkeypatch, chunk, n_paths, steps):
    calls = []

    def recorded(seed, n, k, start=0):
        calls.append((n, k, start))
        return _path_noise(seed, n, k, start=start)

    if chunk is not None:
        monkeypatch.setattr(soc, "NOISE_CHUNK", chunk)
    monkeypatch.setattr(soc, "_path_noise", recorded)
    simulate(EnsembleParams(n_paths=n_paths, steps=steps, ds=1e-3),
             zero_control(), CONSTS, seed=3)
    assert all(n * k <= max(n, soc.NOISE_CHUNK) for n, k, _ in calls)
    # the calls tile the steps in order, each step drawn once
    assert [s for _, k, start in calls for s in range(start, start + k)] == list(range(steps))


def test_noise_uncorrelated_across_adjacent_steps_and_paths():
    xi = _path_noise(2024, 4000, 16)
    for a, b in ((xi[:, :-1], xi[:, 1:]), (xi[:-1], xi[1:])):
        a, b = a.ravel(), b.ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) <= 5 / np.sqrt(a.size)


def test_simulate_diffusion_variance():
    n, steps, ds = 20000, 16, 1e-3
    ens = simulate(EnsembleParams(n_paths=n, steps=steps, ds=ds),
                   zero_control(), CONSTS, seed=7)
    d = make_diffusion(CONSTS)
    total = steps * ds
    tol = 5.0 / np.sqrt(n)
    for mu in range(4):
        want = abs(d.sigma[mu]) ** 2 * total / 2
        for part in (ens.paths[:, -1, mu].real, ens.paths[:, -1, mu].imag):
            got = np.var(part, ddof=1)
            assert abs(got - want) / want <= tol


@pytest.mark.parametrize("eps,expected", [(1, (1, -1, -1, -1)), (-1, (-1, 1, 1, 1))])
def test_increment_reim_correlation_pattern(eps, expected):
    consts = CONSTS.with_epsilon(eps)
    ens = simulate(EnsembleParams(n_paths=512, steps=1, ds=1e-3),
                   zero_control(), consts, seed=11)
    dz = ens.paths[:, 1, :] - ens.paths[:, 0, :]
    for mu in range(4):
        corr = np.corrcoef(dz[:, mu].real, dz[:, mu].imag)[0, 1]
        assert corr == pytest.approx(expected[mu], abs=1e-12)


def test_simulate_blowup_flagged_and_frozen():
    w = constant_control(np.array([1e308, 0, 0, 0]))
    params = EnsembleParams(n_paths=4, steps=5, ds=10.0)
    ens = simulate(params, w, CONSTS, seed=3, diffusion=zero_diffusion())
    assert ens.truncated.all()
    assert (ens.first_bad_step == 0).all()
    assert np.all(np.isfinite(ens.paths.view(np.float64)))


def _stream_cases():
    # 2048 paths draw 4 steps per noise chunk, so 80 steps cross 19 chunk boundaries
    crossing = (EnsembleParams(n_paths=2048, steps=80, ds=1e-3),
                constant_control(np.array([0.3, -0.2, 0.1, 0.05])), None)
    # a real noise amplitude of 3e307 overflows a component after a few steps, at a
    # different step on each path; the imaginary parts stay zero
    blowup = (EnsembleParams(n_paths=64, steps=24, ds=1.0), zero_control(),
              DiffusionCoefficients(np.full(4, 3e307), np.zeros(4)))
    return {"chunk_boundary": crossing, "blowup": blowup}


@pytest.mark.parametrize("case", ["chunk_boundary", "blowup"])
def test_stream_positions_and_flags_match_stored_paths(case):
    params, w, diff = _stream_cases()[case]
    stored = simulate(params, w, CONSTS, seed=5, diffusion=diff)
    stream = EulerStream(params, w, CONSTS, seed=5, diffusion=diff)
    held = []
    for s, z in enumerate(stream):
        assert z.tobytes() == stored.paths[:, s].tobytes()
        # the flags at step s name exactly the paths that blew up on an earlier step
        blown = (stored.first_bad_step >= 0) & (stored.first_bad_step < s)
        assert np.array_equal(stream.truncated, blown)
        held.append(z)
    assert len(held) == params.steps + 1
    # no yielded array is written after its yield
    assert all(z.tobytes() == stored.paths[:, s].tobytes() for s, z in enumerate(held))
    assert np.array_equal(stream.truncated, stored.truncated)
    assert np.array_equal(stream.first_bad_step, stored.first_bad_step)
    if case == "chunk_boundary":
        assert params.steps > soc.NOISE_CHUNK // params.n_paths
        assert not stored.truncated.any()
    else:
        assert 0 < np.count_nonzero(stored.truncated) < params.n_paths
        assert len(set(stored.first_bad_step[stored.truncated])) > 1


def test_stream_end_state_restarts_from_z0():
    params = EnsembleParams(n_paths=5, steps=7, ds=1e-3, z0=[0.5, 0, 0.25j, 0])
    stream = EulerStream(params, zero_control(), CONSTS, seed=31)
    first, again = stream.end_state(), stream.end_state()
    assert np.array_equal(first, again)
    assert np.array_equal(first, simulate(params, zero_control(), CONSTS, seed=31).paths[:, -1])


def literal_recursion(params, w, seed, diffusion):
    """(positions, truncated, first_bad_step) after each step of the plain recursion
    z' = (z + w ds) + sigma sqrt(ds) xi, one path and one step at a time, from the
    noise of every step drawn at once; a path whose position stops being finite stays
    at its last finite position and is flagged at that step."""
    n = params.n_paths
    xi = _path_noise(seed, n, params.steps)
    with np.errstate(over="ignore", invalid="ignore"):
        drift = w.w * params.ds
        amp = diffusion.sigma * math.sqrt(params.ds)
    z = np.broadcast_to(params.z0, (n, 4)).copy()
    truncated, first_bad = np.zeros(n, dtype=bool), np.full(n, -1)
    states = [(z, truncated.copy(), first_bad.copy())]
    for s in range(params.steps):
        z = z.copy()
        for p in np.flatnonzero(~truncated):
            with np.errstate(over="ignore", invalid="ignore"):
                moved = z[p] + drift + amp * xi[p, s]
            if np.isfinite(moved).all():
                z[p] = moved
            else:
                truncated[p], first_bad[p] = True, s
        states.append((z, truncated.copy(), first_bad.copy()))
    return states


def _assert_stream_is_the_recursion(params, w, diffusion, seed, noise_chunk):
    want = literal_recursion(params, w, seed, diffusion)
    with mock.patch.object(soc, "NOISE_CHUNK", noise_chunk):
        stream = EulerStream(params, w, CONSTS, seed, diffusion=diffusion)
        held = []
        for s, z in enumerate(stream):
            pos, truncated, first_bad = want[s]
            assert z.tobytes() == pos.tobytes(), s
            assert np.array_equal(stream.truncated, truncated), s
            assert np.array_equal(stream.first_bad_step, first_bad), s
            held.append(z)
    assert len(held) == params.steps + 1
    # no yielded array is written after its yield
    assert all(z.tobytes() == pos.tobytes() for z, (pos, _, _) in zip(held, want))
    return want[-1]


def _recursion_cases():
    # one path drifting by 2.5e307 per step is finite through step 6 (1.75e308) and
    # overflows at step 7; three steps per chunk put step 7 mid-chunk after two clean
    # chunks, four steps per chunk make it a chunk's last step
    one = EnsembleParams(n_paths=1, steps=12, ds=1.0)
    rush = constant_control(np.array([2.5e307, 0, 0, 0]))
    # every position is finite, but four paths at 1.5e308 overflow the sum of a row
    near_max = EnsembleParams(n_paths=4, steps=10, ds=1.0, z0=[1.5e308, 0, 0, 0])
    # a real noise amplitude of 6e307 blows path 0 up at step 4 and path 1 at step 11,
    # two steps per chunk: path 0 stays frozen through chunks in which a whole-chunk
    # update would have moved it and kept every position finite
    noisy = EnsembleParams(n_paths=2, steps=40, ds=1.0)
    loud = DiffusionCoefficients(np.full(4, 6e307), np.zeros(4))
    return {
        "blowup_in_later_chunk": (one, rush, zero_diffusion(), 3, {0: 7}),
        "blowup_on_chunk_last_step": (one, rush, zero_diffusion(), 4, {0: 7}),
        "finite_sum_overflows": (near_max, constant_control(np.array([1.0, 0, 0, 0])),
                                 zero_diffusion(), 12, {}),
        "frozen_in_earlier_chunk": (noisy, zero_control(), loud, 4, {0: 4, 1: 11}),
    }


@pytest.mark.parametrize("case", list(_recursion_cases()))
def test_stream_is_the_literal_recursion(case):
    params, w, diffusion, noise_chunk, blowups = _recursion_cases()[case]
    z, _, first_bad = _assert_stream_is_the_recursion(params, w, diffusion, seed=1,
                                                      noise_chunk=noise_chunk)
    assert {p: s for p, s in enumerate(first_bad) if s >= 0} == blowups
    if case == "finite_sum_overflows":
        with np.errstate(over="ignore"):
            assert np.isfinite(z).all() and not np.isfinite(z.sum())


def _amplitudes():
    # zero, or m x 10^e from small up to near the largest double
    return st.one_of(st.just(0.0), st.builds(lambda m, e: m * 10.0 ** e,
                                             st.floats(1.0, 9.99), st.integers(-3, 307)))


@settings(max_examples=80, deadline=None)
@given(n_paths=st.integers(1, 12), steps=st.integers(1, 25), noise_chunk=st.integers(1, 64),
       ds=st.sampled_from([1e-3, 1.0, 10.0]), drift=_amplitudes(), noise=_amplitudes(),
       z0=st.sampled_from([0.0, 1e300, 1.7e308]), seed=st.integers(0, 2 ** 32 - 1))
# sqrt(ds) = 3.16 overflows both the drift and the diffusion amplitude before any step
@example(n_paths=3, steps=4, noise_chunk=6, ds=10.0, drift=9e307, noise=9e307, z0=0.0, seed=0)
def test_stream_matches_literal_recursion_at_every_yield(n_paths, steps, noise_chunk, ds,
                                                        drift, noise, z0, seed):
    params = EnsembleParams(n_paths=n_paths, steps=steps, ds=ds, z0=[z0, 0, -z0, 0])
    w = constant_control(drift * np.array([1.0, -0.5j, 0.25, 1 + 1j]))
    diffusion = DiffusionCoefficients(noise * make_diffusion(CONSTS).sigma, np.zeros(4))
    _assert_stream_is_the_recursion(params, w, diffusion, seed, noise_chunk)


# -- stochastic action --------------------------------------------------------

def test_action_constant_on_shell_control_exact():
    w4 = np.zeros(4, dtype=complex)
    w4[0] = CONSTS.c
    params = EnsembleParams(n_paths=2, steps=1024, ds=1.0 / 1024)
    ens = simulate(params, constant_control(w4), CONSTS, seed=13,
                   diffusion=zero_diffusion())
    est = accumulate_action(ens, emfield.free(), CONSTS)
    assert est.mean == -CONSTS.m * CONSTS.c ** 2  # tau_f - tau_i = 1 in binary steps
    assert est.n_branch_flags == 0 and est.n_degenerate_flags == 0


def test_action_zero_control_degenerate():
    params = EnsembleParams(n_paths=2, steps=8, ds=1.0 / 64)
    ens = simulate(params, zero_control(), CONSTS, seed=17,
                   diffusion=zero_diffusion())
    est = accumulate_action(ens, emfield.free(), CONSTS)
    assert est.mean == 0.0
    assert est.n_degenerate_flags == 2 * 8


def test_action_branch_cut_flagged():
    w4 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)  # w.w = -1 < 0
    params = EnsembleParams(n_paths=3, steps=4, ds=1.0 / 64)
    ens = simulate(params, constant_control(w4), CONSTS, seed=19,
                   diffusion=zero_diffusion())
    est = accumulate_action(ens, emfield.free(), CONSTS)
    assert est.n_branch_flags == 3 * 4


def test_action_epsilon_flip_changes_only_charge_term():
    # fixed control and potential; flipping epsilon must shift the action by
    # exactly -2 e sum A.w ds (kinetic and spin terms unchanged)
    a = np.array([0.5, -0.3, 0.2, 0.1])
    pot = emfield.constant_potential(a)
    w4 = np.array([1.2, 0.4, -0.1, 0.05], dtype=complex)
    params = EnsembleParams(n_paths=2, steps=16, ds=1.0 / 256)
    ens = simulate(params, constant_control(w4), CONSTS, seed=23,
                   diffusion=zero_diffusion())
    sp = accumulate_action(ens, pot, CONSTS.with_epsilon(1))
    sm = accumulate_action(ens, pot, CONSTS.with_epsilon(-1))
    a_dot_w = complex(np.sum(METRIC_DIAG * a * w4))
    want = -2 * CONSTS.e * a_dot_w * 16 * params.ds
    assert sp.mean - sm.mean == pytest.approx(want, rel=1e-12)


def test_action_stops_at_the_blowup_step():
    # a path contributes w before its blow-up step and nothing from that step on
    w4 = np.array([CONSTS.c, 0.0, 0.0, 0.0], dtype=complex)
    params = EnsembleParams(n_paths=3, steps=8, ds=1.0 / 64)
    ens = simulate(params, constant_control(w4), CONSTS, seed=29, diffusion=zero_diffusion())
    ens.truncated[[0, 2]] = True
    ens.first_bad_step[[0, 2]] = (3, 0)
    est = accumulate_action(ens, emfield.free(), CONSTS)
    per_step = -CONSTS.mc * CONSTS.c * params.ds
    assert np.array_equal(est.samples, np.array([3, 8, 0]) * per_step)
    assert est.n_degenerate_flags == 5 + 8


# -- generator consistency ----------------------------------------------------

def test_polynomial_validation_and_derivatives():
    with pytest.raises(SocError):
        PolynomialTestFunction({(3, 2, 0, 0): 1.0}, "too_big")
    f = PolynomialTestFunction({(1, 2, 0, 0): 2.0, (0, 0, 1, 0): -1.0}, "mix")
    z0 = np.array([0.3, -0.2, 0.5, 0.1], dtype=complex)
    h = 1e-6
    for mu in range(4):
        zp, zm = z0.copy(), z0.copy()
        zp[mu] += h
        zm[mu] -= h
        fd = (f(zp.reshape(1, 4))[0] - f(zm.reshape(1, 4))[0]) / (2 * h)
        assert abs(fd - f.grad(z0)[mu]) <= 1e-6
        fdd = (f(zp.reshape(1, 4))[0] - 2 * f(z0.reshape(1, 4))[0]
               + f(zm.reshape(1, 4))[0]) / h ** 2
        assert abs(fdd - f.hess_diag(z0)[mu]) <= 1e-3


def test_generator_linear_drift_only():
    rpt = generator_check(monomial(1), constant_control([0.3, -0.2, 0, 0]),
                          CONSTS, ds=1e-3, n_paths=20000, seed=31)
    assert rpt.passed
    assert rpt.exact == pytest.approx(-0.2)


def test_generator_quadratic_pure_diffusion():
    rpt = generator_check(monomial(1, 2), zero_control(), CONSTS,
                          ds=1e-3, n_paths=50000, seed=37)
    d = make_diffusion(CONSTS)
    assert rpt.exact == d.squares[1]
    assert rpt.passed
    assert rpt.rel_error <= 5.0 / np.sqrt(50000) + 1e-3


def test_generator_cross_term_vanishes():
    f = PolynomialTestFunction({(1, 1, 0, 0): 1.0}, "z0*z1")
    rpt = generator_check(f, zero_control(), CONSTS, ds=1e-3, n_paths=50000, seed=41)
    assert rpt.exact == 0
    assert rpt.abs_error <= 3 * rpt.stderr


def test_standard_battery_passes():
    reports = run_generator_battery(CONSTS, ds=1e-3, n_paths=20000, seed=12345)
    assert len(reports) == 6
    assert all(r.passed for r in reports)
    assert {r.label for r in reports} == {"z0", "z1", "z1^2", "z0*z1", "z0^2", "z1^3"}


def test_battery_functions_have_degree_le_4():
    for f in standard_test_battery():
        assert all(sum(e) <= 4 for e in f.coeffs)
