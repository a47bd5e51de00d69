"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest -v -s tests/test_acceptance.py``).

Criterion 3 asserts the stated discrepancy coefficient -i e hbar / 2 for
the gauge-dependence law.  The coefficient that actually follows from
expanding the operator product is -i e hbar (no half); the companion
test for criterion 3 verifies that measured law at the same tolerance,
and the half-coefficient assertion is expected to fail.  Both are kept
so the factor-of-two question stays visible.
"""

import time

import numpy as np
import pytest

from diracsoc import emfield, soc, spectrum
from diracsoc.cli import identity_potentials, gauge_violating_potential, main
from diracsoc.clifford import DIRAC, METRIC_DIAG
from diracsoc.constants import PhysicalConstants
from diracsoc.grid import SpacetimeGrid, l2norm, plane_wave, random_band_limited
from diracsoc.operators import (build_spinor, dirac_apply, factored_rhs,
    factorization_discrepancy, fock_rhs, gauge_discrepancy_prediction,
    kg_residual_componentwise, legacy_factored_rhs)
from diracsoc.report import read_jsonl

CONSTS = PhysicalConstants()
GRID256 = SpacetimeGrid(dims=2, extent=(2 * np.pi, 2 * np.pi), points=(256, 256))

ACCEPTANCE_LINES: list[str] = []  # echoed by conftest in the terminal summary


def _report(n, ok, desc):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {desc}"
    ACCEPTANCE_LINES.append(line)
    print("\n[acceptance] " + line)


def test_criterion_01_clifford_suite():
    started = time.monotonic()
    eye = np.eye(4)
    ok = True
    for mu in range(4):
        for nu in range(4):
            anti = DIRAC.anticommutator(mu, nu)
            want = 2 * (METRIC_DIAG[mu] if mu == nu else 0) * eye
            ok &= np.array_equal(anti, want)
            ok &= np.array_equal(DIRAC.spin_tensor(mu, nu), -DIRAC.spin_tensor(nu, mu))
    rng = np.random.default_rng(101)
    for _ in range(50):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        F = raw - raw.T
        a = emfield.spin_coupling_matrix(F, CONSTS, form="sigma")
        b = emfield.spin_coupling_matrix(F, CONSTS, form="commutator")
        ok &= np.abs(a - b).max() <= 1e-12
    elapsed = time.monotonic() - started
    ok &= elapsed < 1.0
    _report(1, ok, f"Clifford identities exact, coupling forms <=1e-12, {elapsed:.2f}s")
    assert ok


def test_criterion_02_factorization_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(202)
    worst = 0.0
    for name, pot in identity_potentials(GRID256):
        for _ in range(20):
            phi = random_band_limited(GRID256, 8, rng, spinor=True)
            rel = factorization_discrepancy(phi, pot, CONSTS, backend="spectral")
            worst = max(worst, rel)
    spectral_ok = worst <= 1e-8

    errs, hs = [], []
    for n in (64, 128, 256):
        g = SpacetimeGrid(dims=2, extent=(2 * np.pi, 2 * np.pi), points=(n, n))
        pot = emfield.em_plane_wave([0, 0, 0.5, 0], g.commensurate_wavevector([1, 1]))
        phi = plane_wave(g, g.commensurate_wavevector([2, 1]), chi=[1.0, 0.3, -0.2, 0.1])
        rel = factorization_discrepancy(phi, pot, CONSTS, backend="fd4")
        errs.append(rel)
        hs.append(g.spacing[0])
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    fd4_ok = abs(slope - 4.0) <= 0.3

    elapsed = time.monotonic() - started
    ok = spectral_ok and fd4_ok and elapsed < 60.0
    _report(2, ok, f"4 potentials x 20 fields worst rel {worst:.2e} <= 1e-8; "
                   f"fd4 slope {slope:.2f} in 4.0+-0.3; {elapsed:.1f}s < 60s")
    assert ok


def _gauge_discrepancy_parts():
    rng = np.random.default_rng(303)
    pot = gauge_violating_potential(GRID256)
    phi = random_band_limited(GRID256, 8, rng, spinor=True)
    diff = factored_rhs(phi, pot, CONSTS).values - fock_rhs(phi, pot, CONSTS).values
    full = gauge_discrepancy_prediction(phi, pot, CONSTS).values  # -i e hbar (d.A) phi
    return diff, full


def test_criterion_03_gauge_dependence_stated_half_coefficient():
    # stated form: factored - fock = -(i e hbar / 2)(d_mu A^mu) phi pointwise
    diff, full = _gauge_discrepancy_parts()
    half = 0.5 * full
    scale = np.abs(half).max()
    resid = float(np.abs(diff - half).max()) / scale
    ok = resid <= 1e-8
    _report(3, ok, f"half-coefficient law residual {resid:.2e} vs 1e-8 "
                   "(measured coefficient is -i e hbar, twice the stated one; "
                   "see the companion measured-law test)")
    assert ok, (
        "the dropped symmetric term is -i e hbar (d.A) phi, not half of it: "
        f"pointwise residual against the half-coefficient form is {resid:.3e}")


def test_criterion_03_gauge_dependence_measured_law():
    # same check against the coefficient the operator expansion produces
    diff, full = _gauge_discrepancy_parts()
    scale = np.abs(full).max()
    resid = float(np.abs(diff - full).max()) / scale
    ratio = np.vdot(full, diff) / np.vdot(full, full)
    ok = resid <= 1e-8 and abs(ratio - 1.0) <= 1e-9
    _report("3b", ok, f"measured law residual {resid:.2e} <= 1e-8, "
                      f"fitted coefficient ratio {ratio.real:.12f}")
    assert ok


def test_criterion_04_mass_shell_stationarity():
    k_on = np.array([np.sqrt(2.0), 1.0, 0, 0])
    chis = spectrum.propertime_evolve(k_on, np.array([1.0, 0.3j, -0.2, 0.5]), 1e-3, 1000,
                                      CONSTS)
    drift = np.linalg.norm(chis[-1] - chis[0])
    stationary_ok = drift <= 1e-12

    k_off = np.array([1.8, 0.9, 0, 0])
    gap = spectrum.gap(k_off, CONSTS)
    chis = spectrum.propertime_evolve(k_off, np.array([1.0, 0, 0, 0]), 1e-3, 1000, CONSTS)
    measured = spectrum.fit_mode_frequency(chis, 1e-3)
    want = CONSTS.epsilon * gap / (CONSTS.hbar * CONSTS.m)
    freq_ok = abs(measured - want) <= 1e-8 and abs(abs(measured) - abs(gap)) <= 1e-8

    sweep = spectrum.delta_sweep(1.0, np.linspace(-2, 2, 41), CONSTS, 1e-3, 1000, 1e-10)
    both_ways = all(rec["stationary"] == (abs(rec["delta"]) <= 1e-10) for rec in sweep)

    ok = stationary_ok and freq_ok and both_ways
    _report(4, ok, f"on-shell drift {drift:.1e} <= 1e-12 over 1000 steps; "
                   f"off-shell frequency error {abs(measured - want):.1e} <= 1e-8; "
                   "sweep: stationary <=> on-shell")
    assert ok


def test_criterion_05_spinor_construction():
    grid = SpacetimeGrid(dims=2, extent=(2 * np.pi, 2 * np.pi), points=(128, 128))
    consts = PhysicalConstants(m=3.0)
    k = grid.commensurate_wavevector([5, 4])  # k.k = 9 = (mc/hbar)^2
    chi = np.array([1.0, 0.4 - 0.2j, 0.3j, -0.6])
    phi = plane_wave(grid, k, chi=chi)
    psi = build_spinor(phi, emfield.free(), consts)
    res = l2norm(dirac_apply(psi, emfield.free(), consts)) / l2norm(psi)
    kg = kg_residual_componentwise(psi, emfield.free(), consts)
    ok = res <= 1e-10 and not kg.degenerate.any() and kg.residuals.max() <= 1e-10
    _report(5, ok, f"spinor-construction residual {res:.1e} <= 1e-10, "
                   f"componentwise mass-shell residual {kg.residuals.max():.1e} <= 1e-10")
    assert ok


def test_criterion_06_legacy_comparison_lightlike():
    grid = SpacetimeGrid(dims=2, extent=(2 * np.pi, 2 * np.pi), points=(128, 128))
    k = grid.commensurate_wavevector([2, 2])  # lightlike: k.k = 0
    chi = spectrum.matrix_nullspace(DIRAC.slash(k))[0]  # slash(k) chi = 0
    gap = spectrum.gap(k, CONSTS)
    phi = plane_wave(grid, k, chi=chi)

    legacy = l2norm(legacy_factored_rhs(phi, emfield.free(), CONSTS)) / l2norm(phi)
    legacy_ok = legacy <= 1e-10

    fock_norm = l2norm(fock_rhs(phi, emfield.free(), CONSTS))
    want = abs(gap) * l2norm(phi)
    new_ok = abs(fock_norm - want) <= 1e-10 * want

    off_shell = abs(gap + CONSTS.mass_shell) <= 1e-14 and gap != 0.0
    ok = legacy_ok and new_ok and off_shell
    _report(6, ok, f"legacy-stationary lightlike mode: legacy residual {legacy:.1e}, "
                   f"gap {gap:+.1f} (off shell), second-order residual = |gap|*norm "
                   f"to {abs(fock_norm - want) / want:.1e}")
    assert ok


def test_criterion_07_optimal_control_weak_condition_hjb():
    k_on = np.array([np.sqrt(2.0), 1.0, 0.0, 0.0])
    weak_ok = True
    for eps in (1, -1):
        w = soc.optimal_control_mode(k_on, CONSTS.with_epsilon(eps))
        weak_ok &= abs(soc.weak_condition_residual(w, CONSTS)) <= 1e-12

    on_shell_res = abs(soc.hjb_residual_mode(k_on, CONSTS))
    hjb_ok = on_shell_res <= 1e-10

    gaps = np.linspace(-2.0, 2.0, 33)
    residuals = []
    for gap in gaps:
        k0 = np.sqrt((gap + CONSTS.mass_shell) / CONSTS.hbar ** 2 + 1.0)
        residuals.append(soc.hjb_residual_mode(np.array([k0, 1.0, 0, 0]), CONSTS).real)
    slope = float(np.polyfit(gaps, residuals, 1)[0])
    slope_ok = abs(abs(slope) - 1.0) <= 1e-6

    ok = weak_ok and hjb_ok and slope_ok
    _report(7, ok, f"weak condition <=1e-12 both signs; on-shell HJB residual "
                   f"{on_shell_res:.1e} <= 1e-10; slope magnitude {abs(slope):.8f}")
    assert ok


def test_criterion_08_hopf_cole_identity():
    exp_err = max(soc.hopf_cole_exponential_error(a) for a in (0.8, 0.5 - 0.7j, 1.2j))
    grid = SpacetimeGrid(dims=2, extent=(2 * np.pi, 2 * np.pi), points=(128, 128))
    z1 = grid.meshes()[1]
    g = 0.4 * np.exp(1j * (2 * np.pi * 2 / grid.extent[1]) * z1)
    exp_grid_err = soc.hopf_cole_check(np.exp(g), grid)
    exp_ok = exp_err <= 1e-10 and exp_grid_err <= 1e-10

    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(5):
        f = random_band_limited(grid, 3, rng)
        bump = 0.45 * f.values / np.abs(f.values).max()
        worst = max(worst, soc.hopf_cole_check(1.0 + bump, grid))
    rand_ok = worst <= 1e-8

    ok = exp_ok and rand_ok
    _report(8, ok, f"exponential fields {max(exp_err, exp_grid_err):.1e} <= 1e-10; "
                   f"random bounded-below fields {worst:.1e} <= 1e-8")
    assert ok


def test_criterion_09_stochastic_layer():
    started = time.monotonic()
    exact_ok = True
    for eps in (1, -1):
        d = soc.make_diffusion(CONSTS.with_epsilon(eps))
        exact_ok &= bool(np.array_equal(d.sigma ** 2, d.squares))
        want = 2j * eps * METRIC_DIAG.astype(complex)
        exact_ok &= bool(np.array_equal(d.squares, want))

    reports = soc.run_generator_battery(CONSTS, ds=1e-3, n_paths=100000, seed=12345)
    battery_ok = len(reports) == 6 and all(r.abs_error <= 3 * r.stderr for r in reports)

    w4 = np.array([0.4, -0.1, 0.25, 0.0], dtype=complex)
    params = soc.EnsembleParams(n_paths=3, steps=64, ds=1.0 / 512)
    ens = soc.simulate(params, w4, CONSTS, 12345,
                       diffusion=soc.zero_diffusion())
    z = np.zeros((3, 4), dtype=complex)
    for _ in range(64):
        z = z + w4 * params.ds
    line_ok = bool(np.array_equal(ens.paths[:, -1, :], z))

    rp = soc.EnsembleParams(n_paths=256, steps=16, ds=1e-3)
    e1 = soc.simulate(rp, np.zeros(4), CONSTS, 777)
    e2 = soc.simulate(rp, np.zeros(4), CONSTS, 777)
    repro_ok = bool(np.array_equal(e1.paths, e2.paths))

    elapsed = time.monotonic() - started
    ok = exact_ok and battery_ok and line_ok and repro_ok and elapsed < 120.0
    _report(9, ok, f"diffusion squares exact; 6-function battery at N=1e5 within "
                   f"3 stderr; straight line and seeded ensembles bitwise; {elapsed:.1f}s < 120s")
    assert ok


def test_criterion_10_end_to_end_report(tmp_path):
    started = time.monotonic()
    out = str(tmp_path / "out")
    codes = [
        main(["verify-clifford", "--out", out]),
        main(["verify-identity", "--out", out]),
        main(["dispersion", "--out", out]),
        main(["evolve", "--out", out]),
        main(["simulate", "--out", out]),
    ]
    report_code = main(["report", "--out", out])
    summary = read_jsonl(tmp_path / "out" / "summary.jsonl")
    failures = sum(rec["failed"] for rec in summary)
    elapsed = time.monotonic() - started
    ok = codes == [0, 0, 0, 0, 0] and report_code == 0 and failures == 0 and elapsed < 300.0
    _report(10, ok, f"all suites green, {failures} failures, {elapsed:.0f}s < 300s")
    assert ok
