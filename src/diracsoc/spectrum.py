"""Plane-wave dispersion analysis and proper-time mode evolution.

A Fourier mode chi exp(-i k.z) turns the free second-order operator into
multiplication by the on-shell gap  Delta = hbar^2 (k.k) - m^2 c^2,  so
its proper-time evolution has the closed form

    phi(tau) = exp(i epsilon Delta tau / (hbar m)) phi(0).

Modes are therefore stationary exactly when Delta = 0, i.e. on the mass
shell; no time-stepping error enters the comparison.  A wave vector k is a
real (4,) array of lower-index components (units 1/length), and a
trajectory is a read-only (steps + 1, 4) array of amplitudes, one row per
proper-time step of dtau, filled by the literal one-step recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import DIRAC, ArrayC, mdot
from .constants import PhysicalConstants


class SpectrumError(ValueError):
    pass


def gap(k, consts: PhysicalConstants) -> float:
    """Delta = hbar^2 k.k - m^2 c^2 of a real wave vector k."""
    return consts.hbar ** 2 * mdot(k, k).real - consts.mass_shell


def dispersion_solve(spatial_k, consts: PhysicalConstants) -> tuple[float, float]:
    """The two k^0 roots of the mass shell for given spatial wave components."""
    kvec = np.asarray(spatial_k, dtype=float).reshape(3)
    k0 = float(np.sqrt(np.dot(kvec, kvec) + consts.mass_shell / consts.hbar ** 2))
    return k0, -k0


# singular values at most this fraction of the largest one span the nullspace
NULLSPACE_REL_TOL = 1e-8


def matrix_nullspace(M: ArrayC) -> ArrayC:
    """Orthonormal nullspace basis of a matrix via SVD (rows are vectors)."""
    _, s, vh = np.linalg.svd(np.asarray(M, dtype=np.complex128))
    cutoff = NULLSPACE_REL_TOL * (s[0] if s.size else 0.0)
    return vh[s <= cutoff].conj()


def nullspace_spinors(k, consts: PhysicalConstants) -> ArrayC:
    """Orthonormal basis of null(hbar slash(k) - mc I); dimension 2 on shell."""
    delta = gap(k, consts)
    if abs(delta) > 1e-10 * consts.mass_shell:
        raise SpectrumError(f"no nontrivial nullspace: k is off shell by Delta={delta:g}")
    M = consts.hbar * DIRAC.slash(k) - consts.mc * np.eye(4)
    basis = matrix_nullspace(M)
    if basis.shape[0] != 2:
        raise SpectrumError(f"expected a 2-dimensional nullspace, found {basis.shape[0]}")
    return basis


def propertime_evolve(k, chi0, dtau: float, steps: int, consts: PhysicalConstants) -> ArrayC:
    """The read-only (steps + 1, 4) amplitudes of the free mode k from ``chi0``.

    Row n is the scalar step factor exp(i epsilon Delta dtau / (hbar m))
    times row n - 1, one multiply per step with the factor as first
    operand, so on-shell modes are fixed points to rounding.  The step's
    phase must stay below pi, or np.unwrap in fit_mode_frequency folds it
    into a wrong frequency.
    """
    if steps < 0 or not 0 < dtau < np.inf:
        raise SpectrumError(f"need steps >= 0 and a finite dtau > 0, got steps={steps}, "
                            f"dtau={dtau}")
    step = 1j * consts.epsilon * gap(k, consts) * dtau / (consts.hbar * consts.m)
    if not abs(step.imag) < np.pi:
        raise SpectrumError(f"dtau = {dtau:g} turns the mode's phase by {step.imag:.6g} rad "
                            f"per step, which the frequency fit cannot unwrap")
    # a 0-d array spares each multiply the conversion of a scalar operand;
    # the product's bits are the same
    factor = np.array(np.exp(step))
    chis = np.empty((steps + 1, 4), dtype=np.complex128)
    chis[0] = chi0
    prev = chis[0]
    for row in chis[1:]:
        prev = np.multiply(factor, prev, out=row)
    chis.setflags(write=False)
    return chis


def fit_mode_frequency(chis: ArrayC, dtau: float) -> float:
    """Angular frequency of the phase rotation of amplitudes ``dtau`` apart, from a
    linear fit.

    Uses the overlap with the initial amplitude, whose phase advances
    linearly for the closed-form evolution; the overlaps of all steps are
    one matrix-vector product.
    """
    if len(chis) < 2:
        raise SpectrumError("need at least two states to fit a frequency")
    chi0 = chis[0]
    n0 = np.vdot(chi0, chi0)
    if n0 == 0:
        raise SpectrumError("cannot fit the frequency of a null mode")
    overlaps = chis @ chi0.conj() / n0
    phases = np.unwrap(np.angle(overlaps))
    slope = np.polyfit(np.arange(len(chis)) * dtau, phases, 1)[0]
    return float(slope)


@dataclass(frozen=True)
class LegacyModeReport:
    """Side-by-side stationarity residuals of the two factored forms.

    legacy_residual: |(hbar^2 (k.k) I - mc hbar slash(k)) chi|
    new_residual:    |(hbar^2 (k.k) - m^2 c^2) chi| = |Delta| |chi|
    """

    gap: float
    chi_norm: float
    legacy_residual: float
    new_residual: float


def legacy_mode_condition(k, chi, consts: PhysicalConstants) -> LegacyModeReport:
    chi = np.asarray(chi, dtype=np.complex128).reshape(4)
    kk = mdot(k, k).real
    hbar, mc = consts.hbar, consts.mc
    legacy = (hbar ** 2 * kk) * chi - mc * hbar * (DIRAC.slash(k) @ chi)
    delta = gap(k, consts)
    return LegacyModeReport(
        gap=delta,
        chi_norm=float(np.linalg.norm(chi)),
        legacy_residual=float(np.linalg.norm(legacy)),
        new_residual=float(abs(delta) * np.linalg.norm(chi)),
    )


def delta_sweep(k1: float, gaps, consts: PhysicalConstants, dtau: float, steps: int,
                stationary_tol: float) -> list[dict]:
    """Evolve one mode per requested gap value and flag the stationary ones.

    k^0 is solved from the gap at fixed spatial component k^1, the mode
    is evolved for ``steps`` proper-time steps, and a mode counts as
    stationary when its final amplitude deviates from the initial one by
    at most stationary_tol in relative norm.  Modes are evolved and fitted
    one at a time, so one trajectory is alive at once.
    """
    records = []
    chi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    for requested in gaps:
        k0sq = (requested + consts.mass_shell) / consts.hbar ** 2 + k1 ** 2
        if k0sq < 0:
            raise SpectrumError(f"gap {requested} gives no real k^0 at k^1={k1}")
        k = np.array([np.sqrt(k0sq), k1, 0.0, 0.0])
        chis = propertime_evolve(k, chi0, dtau, steps, consts)
        drift = float(np.linalg.norm(chis[-1] - chis[0]) / np.linalg.norm(chis[0]))
        delta = gap(k, consts)
        records.append({
            "k0": float(k[0]),
            "k1": float(k1),
            "delta": float(delta),
            "measured_frequency": fit_mode_frequency(chis, dtau),
            "closed_form_frequency": consts.epsilon * delta / (consts.hbar * consts.m),
            "final_drift": drift,
            "stationary": drift <= stationary_tol,
        })
    return records
