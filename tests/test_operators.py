import tracemalloc

import numpy as np
import pytest

from diracsoc import emfield, operators
from diracsoc.cli import gauge_violating_potential, identity_potentials
from diracsoc.clifford import DIRAC, METRIC_DIAG, mdot
from diracsoc.constants import PhysicalConstants
from diracsoc.grid import (Field, GridError, SpacetimeGrid, _derivatives, band_limited_jet,
                           dalembertian, l2norm, partial, plane_wave, random_band_limited)
from diracsoc.operators import (_COMMUTATOR_ROWS, _GAMMA_ROWS, OperatorError, SampledPotential,
    _accumulate, _monomial_rows, build_spinor, dirac_apply, factored_rhs,
    factorization_discrepancy, fock_and_factored, fock_and_factored_in_place, fock_rhs,
    gauge_discrepancy_prediction, kg_residual_componentwise, legacy_factored_rhs,
    minimal_coupling_slash, relative_discrepancy)

GRID = SpacetimeGrid(dims=2, extent=(2 * np.pi, 2 * np.pi), points=(64, 64))
CONSTS = PhysicalConstants(m=3.0)  # mass 3 so modes (5,4) sit exactly on shell
FREE = emfield.free()

K_ON = GRID.commensurate_wavevector([5, 4])     # k.k = 25 - 16 = 9 = (mc/hbar)^2
K_OFF = GRID.commensurate_wavevector([4, 2])    # k.k = 12, gap = 3


def lorenz_potentials():
    return [
        ("free", FREE),
        ("constant_A", emfield.constant_potential([0.8, -0.3, 0.2, 0.0])),
        ("em_wave_lightlike", emfield.em_plane_wave([0, 0, 0.5, 0],
                                                    GRID.commensurate_wavevector([1, 1]))),
        ("em_wave_spacelike", emfield.em_plane_wave([0, 0, 0, 0.4],
                                                    GRID.commensurate_wavevector([0, 2]))),
    ]


def dirac_plane_wave(k, chi):
    """psi = (hbar slash(k) + mc) chi exp(-i k.z) on GRID.

    For on-shell k this lies in the kernel of ``dirac_apply`` with A=0,
    since (hbar slash(k) - mc)(hbar slash(k) + mc) = (hbar^2 k.k - m^2c^2) I.
    """
    amp = (CONSTS.hbar * DIRAC.slash(k) + CONSTS.mc * np.eye(4)) @ np.asarray(chi, dtype=complex)
    return plane_wave(GRID, k, chi=amp)


def test_on_shell_plane_wave_in_kernel():
    assert mdot(K_ON, K_ON).real == pytest.approx(CONSTS.mass_shell)
    psi = dirac_plane_wave(K_ON, [1.0, 0.3, 0.2j, -0.1])
    res = dirac_apply(psi, FREE, CONSTS)
    assert l2norm(res) / l2norm(psi) <= 1e-10


def test_zero_field_maps_to_zero():
    psi = Field(GRID, np.zeros((4,) + GRID.shape, dtype=complex))
    assert l2norm(dirac_apply(psi, FREE, CONSTS)) == 0.0


def test_off_shell_residual_norm():
    # (hbar slash(k) - mc)(hbar slash(k) + mc) chi = Delta chi
    gap = CONSTS.hbar ** 2 * mdot(K_OFF, K_OFF).real - CONSTS.mass_shell
    chi = np.array([1.0, -0.5, 0.25j, 0.1])
    psi = dirac_plane_wave(K_OFF, chi)
    res = dirac_apply(psi, FREE, CONSTS)
    carrier = plane_wave(GRID, K_OFF, chi=chi)
    got = l2norm(res)
    want = abs(gap) * l2norm(carrier)
    assert abs(got - want) / want <= 1e-8


def test_conjugate_apply_plane_wave():
    chi = np.array([0.3, 1.0, -0.2, 0.5j])
    phi = plane_wave(GRID, K_OFF, chi=chi)
    out = build_spinor(phi, FREE, CONSTS)
    amp = (CONSTS.hbar * DIRAC.slash(K_OFF) + CONSTS.mc * np.eye(4)) @ chi
    want = plane_wave(GRID, K_OFF, chi=amp)
    assert l2norm(out - want) / l2norm(want) <= 1e-12


def test_conjugate_apply_constant_field():
    chi = np.array([0.2, 0.4, -0.6, 0.8])
    phi = Field(GRID, np.tile(chi.reshape(4, 1, 1), (1,) + GRID.shape).astype(complex))
    out = build_spinor(phi, FREE, CONSTS)
    assert l2norm(out - CONSTS.mc * phi) <= 1e-13 * CONSTS.mc


def test_conjugate_apply_rest_frame_annihilates_lower_bispinor():
    consts = PhysicalConstants()
    grid = SpacetimeGrid(dims=1, extent=(2 * np.pi,), points=(32,))
    k = np.array([consts.mc / consts.hbar, 0.0, 0.0, 0.0])  # integer mode for m=c=1
    phi = plane_wave(grid, k, chi=[0.0, 0.0, 0.0, 1.0])
    out = build_spinor(phi, FREE, consts)
    assert l2norm(out) <= 1e-12


def test_fock_rhs_free_plane_wave_eigenvalue():
    chi = np.array([1.0, 0.2, 0.3, -0.4j])
    gap = CONSTS.hbar ** 2 * mdot(K_OFF, K_OFF).real - CONSTS.mass_shell
    phi = plane_wave(GRID, K_OFF, chi=chi)
    out = fock_rhs(phi, FREE, CONSTS)
    assert l2norm(out - gap * phi) / l2norm(phi) <= 1e-10 * abs(gap)


def test_fock_rhs_on_shell_vanishes():
    phi = plane_wave(GRID, K_ON, chi=[1.0, 0.2, 0.3, -0.4j])
    out = fock_rhs(phi, FREE, CONSTS)
    assert l2norm(out) / l2norm(phi) <= 1e-10


def test_fock_rhs_constant_field():
    chi = np.array([1.0, 0.0, -1.0, 0.5])
    phi = Field(GRID, np.tile(chi.reshape(4, 1, 1), (1,) + GRID.shape).astype(complex))
    out = fock_rhs(phi, FREE, CONSTS)
    assert l2norm(out + CONSTS.mass_shell * phi) <= 1e-12 * CONSTS.mass_shell


@pytest.mark.parametrize("name,pot", lorenz_potentials())
def test_factored_equals_fock_in_lorenz_gauge(name, pot):
    rng = np.random.default_rng(21)
    for _ in range(5):
        phi = random_band_limited(GRID, 4, rng, spinor=True)
        rel = factorization_discrepancy(phi, pot, CONSTS)
        assert rel <= 1e-8, name


def test_factored_equals_fock_exactly_for_free():
    rng = np.random.default_rng(2)
    phi = random_band_limited(GRID, 4, rng, spinor=True)
    rel = factorization_discrepancy(phi, FREE, CONSTS)
    assert rel <= 1e-12


def gauge_violating():
    return emfield.custom_wave([0.3, 0, 0, 0], GRID.commensurate_wavevector([1, 0]))


def test_gauge_discrepancy_law():
    # factored - fock = -i e hbar (d.A) phi for a divergence-violating A
    rng = np.random.default_rng(31)
    pot = gauge_violating()
    for _ in range(3):
        phi = random_band_limited(GRID, 4, rng, spinor=True)
        diff = factored_rhs(phi, pot, CONSTS).values - fock_rhs(phi, pot, CONSTS).values
        pred = gauge_discrepancy_prediction(phi, pot, CONSTS).values
        scale = np.abs(pred).max()
        assert np.abs(diff - pred).max() <= 1e-8 * scale


def test_gauge_discrepancy_coefficient_is_unity():
    # the measured proportionality between (factored - fock) and (d.A) phi
    # is exactly -i e hbar: fitting the one-dimensional ratio gives 1, not 1/2
    rng = np.random.default_rng(37)
    pot = gauge_violating()
    phi = random_band_limited(GRID, 4, rng, spinor=True)
    diff = factored_rhs(phi, pot, CONSTS).values - fock_rhs(phi, pot, CONSTS).values
    pred = gauge_discrepancy_prediction(phi, pot, CONSTS).values
    ratio = np.vdot(pred, diff) / np.vdot(pred, pred)
    assert abs(ratio - 1.0) <= 1e-10
    assert abs(ratio - 0.5) >= 0.49


def test_legacy_difference_identity():
    # new_factored - legacy_factored = (i hbar gamma d - e gamma A - mc)(mc phi)
    rng = np.random.default_rng(41)
    for _, pot in lorenz_potentials()[1:3]:
        phi = random_band_limited(GRID, 4, rng, spinor=True)
        new = factored_rhs(phi, pot, CONSTS)
        legacy = legacy_factored_rhs(phi, pot, CONSTS)
        want = dirac_apply(CONSTS.mc * phi, pot, CONSTS)
        assert l2norm((new - legacy) - want) / l2norm(want) <= 1e-10


def test_legacy_zero_field():
    phi = Field(GRID, np.zeros((4,) + GRID.shape, dtype=complex))
    assert l2norm(legacy_factored_rhs(phi, FREE, CONSTS)) == 0.0


def test_free_factors_commute():
    rng = np.random.default_rng(43)
    phi = random_band_limited(GRID, 4, rng, spinor=True)
    ab = dirac_apply(build_spinor(phi, FREE, CONSTS), FREE, CONSTS)
    ba = build_spinor(dirac_apply(phi, FREE, CONSTS), FREE, CONSTS)
    assert l2norm(ab - ba) / l2norm(ab) <= 1e-12


def test_kg_residual_on_shell():
    psi = dirac_plane_wave(K_ON, [1.0, 0.3, -0.2, 0.5j])
    kg = kg_residual_componentwise(psi, FREE, CONSTS)
    assert not kg.degenerate.any()
    assert kg.max_residual <= 1e-10


def test_kg_residual_off_shell_uniform():
    gap = CONSTS.hbar ** 2 * mdot(K_OFF, K_OFF).real - CONSTS.mass_shell
    psi = plane_wave(GRID, K_OFF, chi=[1.0, -0.7, 0.2, 0.9])
    kg = kg_residual_componentwise(psi, FREE, CONSTS)
    want = abs(gap) / CONSTS.hbar ** 2
    assert np.allclose(kg.residuals, want, rtol=1e-10)


def test_kg_residual_degenerate_component():
    psi = plane_wave(GRID, K_ON, chi=[1.0, 0.0, 0.0, 0.0])
    kg = kg_residual_componentwise(psi, FREE, CONSTS)
    assert list(kg.degenerate) == [False, True, True, True]
    assert kg.residuals[1] == 0.0


def test_kg_residual_requires_free_potential():
    psi = plane_wave(GRID, K_ON, chi=[1.0, 0.0, 0.0, 0.0])
    with pytest.raises(OperatorError):
        kg_residual_componentwise(psi, emfield.constant_electric(1.0), CONSTS)


def test_mass_shell_determinant_identity():
    rng = np.random.default_rng(53)
    eye = np.eye(4)
    for _ in range(100):
        k = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        det = np.linalg.det(CONSTS.hbar * DIRAC.slash(k) - CONSTS.mc * eye)
        want = (CONSTS.hbar ** 2 * mdot(k, k) - CONSTS.mass_shell) ** 2
        assert abs(det - want) <= 1e-10 * max(abs(want), 1.0)


def test_potential_varying_on_inactive_axis_rejected():
    rng = np.random.default_rng(59)
    phi = random_band_limited(GRID, 4, rng, spinor=True)
    with pytest.raises(OperatorError):
        dirac_apply(phi, emfield.constant_magnetic(1.0), CONSTS)  # varies along z^2


def test_scalar_field_rejected():
    rng = np.random.default_rng(61)
    phi = random_band_limited(GRID, 4, rng, spinor=False)
    with pytest.raises(OperatorError):
        minimal_coupling_slash(phi, FREE, CONSTS)


def test_fd4_backend_discrepancy_converges_at_fourth_order():
    pot_modes = [1, 1]
    errs, hs = [], []
    rng_seed = 67
    for n in (32, 64, 128):
        g = SpacetimeGrid(dims=2, extent=(2 * np.pi, 2 * np.pi), points=(n, n))
        pot = emfield.em_plane_wave([0, 0, 0.5, 0], g.commensurate_wavevector(pot_modes))
        rng = np.random.default_rng(rng_seed)
        # same continuum field on every grid: fixed low modes
        phi = plane_wave(g, g.commensurate_wavevector([2, 1]),
                         chi=[1.0, 0.3, -0.2, 0.1])
        rel = factorization_discrepancy(phi, pot, CONSTS, backend="fd4")
        errs.append(rel)
        hs.append(g.spacing[0])
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 4.0) <= 0.3


def test_two_plus_one_dimensional_identity():
    # the operators are written over active axes, so a (2+1)D grid works
    # unchanged; the potential here varies along z^2
    g = SpacetimeGrid(dims=3, extent=(2 * np.pi,) * 3, points=(16, 16, 16))
    pot = emfield.em_plane_wave([0, 0, 0, 0.4], g.commensurate_wavevector([0, 0, 1]))
    rng = np.random.default_rng(73)
    phi = random_band_limited(g, 3, rng, spinor=True)
    rel = factorization_discrepancy(phi, pot, CONSTS)
    assert rel <= 1e-8


# -- gamma mixing ----------------------------------------------------------------

MIX_MATRICES = ([("gamma", mu, DIRAC.gamma(mu)) for mu in range(4)]
                + [("commutator", (mu, nu), DIRAC.commutator(mu, nu))
                   for mu in range(4) for nu in range(4)])


@pytest.mark.parametrize("kind,index,mat", MIX_MATRICES)
def test_gamma_mix_permutation_equals_tensordot(kind, index, mat):
    # every import-time row table applies its Dirac matrix as np.tensordot does, bit for
    # bit, alone (out_a = M_a,p(a) v_p(a), as the operators form it) and added into an
    # array by ``_accumulate``; the table builder refuses the zero commutator
    # [gamma^mu, gamma^mu], which F never needs, and a matrix with a second nonzero entry
    # in a row
    assert sorted(_COMMUTATOR_ROWS) == [(mu, nu) for mu in range(4) for nu in range(4)
                                        if mu != nu]
    if kind == "commutator" and index[0] == index[1]:
        with pytest.raises(OperatorError, match="one nonzero entry per row"):
            _monomial_rows(mat)
        return
    rows = _GAMMA_ROWS[index] if kind == "gamma" else _COMMUTATOR_ROWS[index]
    rng = np.random.default_rng(83)
    v = rng.standard_normal((4, 16, 8)) + 1j * rng.standard_normal((4, 16, 8))
    acc = rng.standard_normal((4, 16, 8)) + 1j * rng.standard_normal((4, 16, 8))
    mixed = np.tensordot(mat, v, axes=(1, 0))
    alone = np.empty_like(v)
    for a, b, m in rows:
        np.multiply(m, v[b], out=alone[a])
    assert np.array_equal(alone, mixed)
    want = acc + mixed
    row = np.empty_like(v[0])
    for a, b, m in rows:
        _accumulate(acc[a], m, v[b], row)
    assert np.array_equal(acc, want)
    corrupted = np.array(mat)
    corrupted[0, rows[0][1] ^ 1] = 0.5
    with pytest.raises(OperatorError, match="one nonzero entry per row"):
        _monomial_rows(corrupted)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_minimal_coupling_refuses_a_non_finite_term(bad, monkeypatch):
    # the derivative terms are accumulated unchecked; a non-finite entry in them, set on
    # both axes at one point of every component so that the gamma rows add it there with
    # either sign, must reach the output, whose Field refuses it
    real = operators._partial_values

    def poisoned(values, grid, mu, backend="spectral", out=None):
        d = real(values, grid, mu, backend, out)
        d[3, 5] = bad
        return d

    rng = np.random.default_rng(109)
    phi = random_band_limited(GRID, 4, rng, spinor=True)
    pot = emfield.constant_potential([0.8, -0.3, 0.2, 0.0])
    minimal_coupling_slash(phi, pot, CONSTS)
    monkeypatch.setattr(operators, "_partial_values", poisoned)
    with np.errstate(invalid="ignore"), pytest.raises(GridError, match="non-finite"):
        minimal_coupling_slash(phi, pot, CONSTS)


# -- independent witness: the operators against their term-by-term definition -----
#
# The reference below is the plain formulation: derivatives from ``partial``,
# spinor mixing by ``np.tensordot`` and the potential and field strength
# evaluated afresh from the spec.  The operators must reproduce it bit for bit.

WITNESS_GRID = SpacetimeGrid(dims=2, extent=(2 * np.pi, 2 * np.pi), points=(32, 32))
WITNESS_GRID_3D = SpacetimeGrid(dims=3, extent=(2 * np.pi,) * 3, points=(32, 32, 8))
WITNESS_CONSTS = PhysicalConstants(hbar=0.7, c=1.3, m=1.1, e=-0.9)


def witness_cases():
    g = WITNESS_GRID
    return [
        ("free", g, emfield.free()),
        ("constant_electric", g, emfield.constant_electric(0.6)),
        ("constant_magnetic", WITNESS_GRID_3D, emfield.constant_magnetic(0.8)),
        ("em_plane_wave", g, emfield.em_plane_wave([0, 0, 0.5, 0],
                                                   g.commensurate_wavevector([1, 1]))),
        ("custom_polynomial", g, emfield.custom_polynomial(
            {"a0_0000": 0.8, "a1_0000": -0.3, "a0_0100": 0.5, "a2_0100": 0.25})),
        ("custom_wave", g, emfield.custom_wave([0.3, 0, 0, 0],
                                               g.commensurate_wavevector([1, 0]))),
    ]


def _ref_partial(f, mu, backend):
    return partial(f, mu, backend).values if f.grid.is_active(mu) else np.zeros_like(f.values)


def _ref_slash(psi, spec, consts, backend):
    Av = emfield.evaluate_potential(spec, psi.grid.coords4())
    out = np.zeros_like(psi.values)
    for nu in range(4):
        term = 1j * consts.hbar * _ref_partial(psi, nu, backend)
        if np.any(Av[nu] != 0):
            term = term - consts.e * Av[nu] * psi.values
        out = out + np.tensordot(DIRAC.gammas[nu], term, axes=(1, 0))
    return out


def _ref_factored(phi, spec, consts, backend):
    psi = Field(phi.grid, _ref_slash(phi, spec, consts, backend) + consts.mc * phi.values)
    return _ref_slash(psi, spec, consts, backend) - consts.mc * psi.values


def _ref_second_derivative(phi, mu, backend):
    """d_mu d_mu phi: spectral per axis is fft, times -k^2 (Nyquist zeroed), ifft."""
    if backend == "fd4":
        return partial(partial(phi, mu, backend), mu, backend).values
    n, axis = phi.grid.points[mu], mu + 1
    k = 2 * np.pi * np.fft.fftfreq(n, d=phi.grid.extent[mu] / n)
    k[n // 2] = 0.0
    shape = [1] * phi.values.ndim
    shape[axis] = n
    return np.fft.ifft(-(k * k).reshape(shape) * np.fft.fft(phi.values, axis=axis), axis=axis)


def _ref_fock(phi, spec, consts, backend):
    hbar, e, mc = consts.hbar, consts.e, consts.mc
    coords = phi.grid.coords4()
    Av = emfield.evaluate_potential(spec, coords)
    F = emfield.field_strength(spec, coords)
    box = np.zeros_like(phi.values)
    for mu in range(phi.grid.dims):
        box = box + METRIC_DIAG[mu] * _ref_second_derivative(phi, mu, backend)
    out = -(mc ** 2) * phi.values - hbar ** 2 * box
    for mu in range(4):
        for nu in range(4):
            if np.any(F[mu, nu] != 0):
                mixed = np.tensordot(DIRAC.commutator(mu, nu), F[mu, nu] * phi.values,
                                     axes=(1, 0))
                out = out - (0.25j * e * hbar) * mixed
    for mu in range(4):
        if np.any(Av[mu] != 0):
            out = out - 2j * e * hbar * METRIC_DIAG[mu] * Av[mu] * _ref_partial(phi, mu, backend)
    asq = sum(METRIC_DIAG[mu] * Av[mu] * Av[mu] for mu in range(4))
    if np.any(asq != 0):
        out = out + e ** 2 * asq * phi.values
    return out


@pytest.mark.parametrize("backend", ["spectral", "fd4"])
@pytest.mark.parametrize("name,grid,spec", witness_cases())
def test_operators_equal_term_by_term_reference(name, grid, spec, backend):
    rng = np.random.default_rng(97)
    c = WITNESS_CONSTS
    for _ in range(2):
        phi = random_band_limited(grid, 3, rng, spinor=True)
        fock_want = _ref_fock(phi, spec, c, backend)
        fact_want = _ref_factored(phi, spec, c, backend)
        for pot in (spec, SampledPotential(spec, grid)):
            assert np.array_equal(fock_rhs(phi, pot, c, backend).values, fock_want)
            assert np.array_equal(factored_rhs(phi, pot, c, backend).values, fact_want)
            # the shared kernel gives the same bits as the two operators alone
            fock, fact = fock_and_factored(phi, pot, c, backend)
            assert np.array_equal(fock.values, fock_want)
            assert np.array_equal(fact.values, fact_want)


@pytest.mark.parametrize("backend", ["spectral", "fd4"])
@pytest.mark.parametrize("name,grid,spec", witness_cases())
def test_in_place_kernel_gives_fock_and_factored_bits(name, grid, spec, backend):
    # fed _derivatives(phi), the kernel forms fock in box's buffer and the second factor in
    # dphi[1]'s with fock_and_factored's bits, and the residual it leaves equals
    # factorization_discrepancy's
    rng = np.random.default_rng(131)
    phi = random_band_limited(grid, 3, rng, spinor=True)
    pot = SampledPotential(spec, grid)
    want = fock_and_factored(phi, pot, WITNESS_CONSTS, backend)
    dphi, box = _derivatives(phi.values, grid, backend)
    fock, fact = fock_and_factored_in_place(phi.values, grid, pot, WITNESS_CONSTS, backend,
                                            dphi, box)
    assert fock is box and fact is dphi[1]
    assert fock.tobytes() == want[0].values.tobytes()
    assert fact.tobytes() == want[1].values.tobytes()
    rel = relative_discrepancy(fock, fact, np.empty(fock.shape))
    assert rel == factorization_discrepancy(phi, pot, WITNESS_CONSTS, backend)


def count_transforms(monkeypatch, grid):
    """Count np.fft transforms in spinor passes: a call over the whole grid adds the share
    of the four components it transforms; any other call is one window pass."""
    passes = {"fft": 0.0, "ifft": 0.0, "window": 0}
    for kind in ("fft", "ifft"):
        real = getattr(np.fft, kind)

        def counted(a, *args, _real=real, _kind=kind, **kwargs):
            if a.shape[a.ndim - grid.dims:] == grid.shape:
                passes[_kind] += a.size / (4 * np.prod(grid.shape))
            else:
                passes["window"] += 1
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, kind, counted)
    return passes


def test_fock_and_factored_transforms_phi_once_per_axis(monkeypatch):
    # 2-D: one forward transform per axis of phi and of psi; inverse transforms for phi's
    # d'Alembertian and first derivatives and for psi's first derivatives (psi's one
    # spinor component at a time)
    rng = np.random.default_rng(113)
    phi = random_band_limited(WITNESS_GRID, 3, rng, spinor=True)
    passes = count_transforms(monkeypatch, WITNESS_GRID)
    fock_and_factored(phi, emfield.constant_potential([0.8, -0.3, 0.2, 0.0]), WITNESS_CONSTS)
    assert passes == {"fft": 4, "ifft": 6, "window": 0}


def test_identity_field_path_transforms(monkeypatch):
    # the suite's path for one field on the default grid, 8 full passes and 4 window passes:
    # the jet's 4 full inverse passes (phi, d_0 phi, d_1 phi, box) and 4 window passes, then
    # psi's 2 forward and 2 inverse passes.  Drawing phi and then transforming it, as
    # fock_and_factored does, takes 11 full passes and 1 window pass.
    grid = SpacetimeGrid()
    pot = SampledPotential(identity_potentials(grid)[2][1], grid)
    pot.F
    passes = count_transforms(monkeypatch, grid)
    phi, dphi, box = band_limited_jet(grid, 8, np.random.default_rng(5))
    fock_and_factored_in_place(phi, grid, pot, PhysicalConstants(), "spectral", dphi, box)
    assert passes == {"fft": 2, "ifft": 6, "window": 4}


def _traced_peak(fn, *args):
    """Traced peak of fn(*args) above what was allocated on entry, in bytes."""
    tracemalloc.reset_peak()
    entry = tracemalloc.get_traced_memory()[0]
    fn(*args)
    return tracemalloc.get_traced_memory()[1] - entry


def test_factorization_discrepancy_peak_memory_on_the_default_grid():
    # The kernel holds at most five spinor-sized arrays above its inputs.  F is sampled
    # inside the call for a fresh SampledPotential, before phi's derivative arrays
    # exist, so its sampling adds nothing to the larger of the two peaks: sampling F, or
    # the kernel on top of the F components that stay.
    grid = SpacetimeGrid()
    consts = PhysicalConstants()
    rng = np.random.default_rng(127)
    potentials = identity_potentials(grid) + [("negative-gauge", gauge_violating_potential(grid))]
    tracemalloc.start()
    try:
        for name, spec in potentials:
            phi = random_band_limited(grid, 8, rng, spinor=True)
            size = phi.values.nbytes
            probe = SampledPotential(spec, grid)
            sampling = _traced_peak(lambda: probe.F)
            del probe
            pot = SampledPotential(spec, grid)
            fresh = _traced_peak(factorization_discrepancy, phi, pot, consts)
            kernel = _traced_peak(factorization_discrepancy, phi, pot, consts)
            kept = sum(f.nbytes for f in pot.F.values())
            assert kernel <= 5 * size, (name, kernel / size)
            assert fresh <= max(sampling, kept + kernel) + size // 16, (name, fresh / size)
            del pot, phi
    finally:
        tracemalloc.stop()


WITNESS_GRID_256 = SpacetimeGrid(dims=2, extent=(2 * np.pi, 2 * np.pi), points=(256, 256))


@pytest.mark.parametrize("name,grid,max_mode", [(name, g, 3) for name, g, _ in witness_cases()]
                         + [("grid256", WITNESS_GRID_256, 8)])
def test_dalembertian_agrees_with_composed_first_derivatives(name, grid, max_mode):
    # spectral: one -k^2 pass per axis against ik applied twice, equal up to rounding;
    # fd4: the composed first-derivative stencil, bit for bit
    rng = np.random.default_rng(107)
    phi = random_band_limited(grid, max_mode, rng, spinor=True)
    for backend in ("spectral", "fd4"):
        composed = np.zeros_like(phi.values)
        for mu in range(grid.dims):
            composed = composed + METRIC_DIAG[mu] * partial(
                partial(phi, mu, backend), mu, backend).values
        got = dalembertian(phi, backend).values
        if backend == "fd4":
            assert np.array_equal(got, composed)
        else:
            assert np.abs(got - composed).max() <= 1e-12 * np.abs(composed).max()


def test_sampled_potential_holds_only_nonzero_field_strength():
    pot = SampledPotential(emfield.constant_electric(0.6), WITNESS_GRID)
    assert sorted(pot.F) == [(0, 1), (1, 0)]
    assert np.all(pot.F[(0, 1)] == 0.6) and np.all(pot.F[(1, 0)] == -0.6)
    assert pot.coupled == (True, False, False, False)
    assert not pot.A.flags.writeable
    assert not any(f.flags.writeable for f in pot.F.values())
    assert SampledPotential(emfield.free(), WITNESS_GRID).F == {}


def test_sampled_potential_holds_a_squared():
    pot = SampledPotential(emfield.constant_potential([0.8, -0.3, 0.2, 0.0]), WITNESS_GRID)
    assert np.array_equal(pot.asq, np.full(WITNESS_GRID.shape, 0.8 ** 2 - 0.3 ** 2 - 0.2 ** 2))
    assert not pot.asq.flags.writeable
    assert SampledPotential(emfield.free(), WITNESS_GRID).asq is None


def test_sampled_potential_grid_mismatch_rejected():
    rng = np.random.default_rng(101)
    phi = random_band_limited(GRID, 4, rng, spinor=True)
    pot = SampledPotential(FREE, WITNESS_GRID)
    with pytest.raises(OperatorError):
        fock_rhs(phi, pot, CONSTS)


def test_operator_outputs_are_read_only_and_unaliased():
    rng = np.random.default_rng(103)
    phi = random_band_limited(GRID, 4, rng, spinor=True)
    pot = emfield.constant_potential([0.8, -0.3, 0.2, 0.0])
    outputs = [op(phi, pot, CONSTS) for op in (minimal_coupling_slash, dirac_apply, build_spinor,
                                                fock_rhs, factored_rhs, legacy_factored_rhs)]
    outputs.append(gauge_discrepancy_prediction(phi, gauge_violating(), CONSTS))
    for out in outputs:
        assert not out.values.flags.writeable
        assert not np.shares_memory(out.values, phi.values)
        with pytest.raises(ValueError):
            out.values[0, 0, 0] = 0
