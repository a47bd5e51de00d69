"""Plane-wave dispersion analysis and proper-time mode evolution.

A Fourier mode chi exp(-i k.z) turns the free second-order operator into
multiplication by the on-shell gap  Delta = hbar^2 (k.k) - m^2 c^2,  so
its proper-time evolution has the closed form

    phi(tau) = exp(i epsilon Delta tau / (hbar m)) phi(0).

Modes are therefore stationary exactly when Delta = 0, i.e. on the mass
shell; no time-stepping error enters the comparison.  A trajectory is a
``ModeTrajectory``: the proper times and the amplitudes as two read-only
arrays, one row per step, filled by the literal one-step recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import DIRAC, ArrayC, GammaSet, mdot
from .constants import PhysicalConstants
from .emfield import PotentialSpec


class SpectrumError(ValueError):
    pass


@dataclass(frozen=True)
class FourMomentum:
    """Real wave four-vector (lower-index components, units 1/length)."""

    k: np.ndarray

    def __post_init__(self) -> None:
        k = np.asarray(self.k, dtype=float)
        if k.shape != (4,):
            raise SpectrumError(f"wave vector must have shape (4,), got {k.shape}")
        k.setflags(write=False)
        object.__setattr__(self, "k", k)

    def gap(self, consts: PhysicalConstants) -> float:
        """Delta = hbar^2 k.k - m^2 c^2 (real since k is real)."""
        return consts.hbar ** 2 * mdot(self.k, self.k).real - consts.mass_shell


@dataclass(frozen=True)
class ModeState:
    chi: ArrayC
    k: FourMomentum
    tau: float = 0.0

    def __post_init__(self) -> None:
        chi = np.asarray(self.chi, dtype=np.complex128).reshape(4)
        chi.setflags(write=False)
        object.__setattr__(self, "chi", chi)


@dataclass(frozen=True)
class ModeTrajectory:
    """A mode's proper-time trajectory: amplitude ``chis[n]`` at proper time ``taus[n]``.

    ``taus`` has shape (steps + 1,) and ``chis`` shape (steps + 1, 4); both
    are read-only.
    """

    k: FourMomentum
    taus: np.ndarray
    chis: ArrayC


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


def nullspace_spinors(k: FourMomentum, gammas: GammaSet = DIRAC,
                      consts: PhysicalConstants = PhysicalConstants()) -> ArrayC:
    """Orthonormal basis of null(hbar slash(k) - mc I); dimension 2 on shell."""
    if abs(k.gap(consts)) > 1e-10 * consts.mass_shell:
        raise SpectrumError(
            f"no nontrivial nullspace: k is off shell by Delta={k.gap(consts):g}")
    M = consts.hbar * gammas.slash(k.k) - consts.mc * np.eye(4)
    basis = matrix_nullspace(M)
    if basis.shape[0] != 2:
        raise SpectrumError(f"expected a 2-dimensional nullspace, found {basis.shape[0]}")
    return basis


def mode_phase_factor(k: FourMomentum, dtau: float, consts: PhysicalConstants) -> complex:
    """exp(i epsilon Delta dtau / (hbar m)) -- one step of the closed form."""
    return complex(np.exp(1j * consts.epsilon * k.gap(consts) * dtau / (consts.hbar * consts.m)))


def propertime_evolve(state: ModeState, A: PotentialSpec, dtau: float, steps: int,
                      consts: PhysicalConstants) -> ModeTrajectory:
    """Evolve a Fourier mode in proper time (free potential only).

    Returns the trajectory of ``steps + 1`` amplitudes, the first being
    ``state.chi``: row n of ``chis`` is the scalar step factor times row
    n - 1, one multiply per step with the factor as first operand, so
    on-shell modes are fixed points to rounding.  ``taus[n]`` is
    ``state.tau + n * dtau``.
    """
    if A.name != "free":
        raise SpectrumError("proper-time mode evolution supports the free potential only")
    if steps < 0 or not 0 < dtau < np.inf:
        raise SpectrumError(f"need steps >= 0 and a finite dtau > 0, got steps={steps}, "
                            f"dtau={dtau}")
    # a 0-d array spares each multiply the conversion of a scalar operand;
    # the product's bits are the same
    factor = np.array(mode_phase_factor(state.k, dtau, consts))
    taus = state.tau + np.arange(steps + 1) * dtau
    chis = np.empty((steps + 1, 4), dtype=np.complex128)
    chis[0] = state.chi
    prev = chis[0]
    for row in chis[1:]:
        prev = np.multiply(factor, prev, out=row)
    taus.setflags(write=False)
    chis.setflags(write=False)
    return ModeTrajectory(state.k, taus, chis)


def fit_mode_frequency(traj: ModeTrajectory) -> float:
    """Angular frequency of the mode's phase rotation, from a linear fit.

    Uses the overlap with the initial amplitude, whose phase advances
    linearly for the closed-form evolution; the overlaps of all steps are
    one matrix-vector product.
    """
    if len(traj.taus) < 2:
        raise SpectrumError("need at least two states to fit a frequency")
    chi0 = traj.chis[0]
    n0 = np.vdot(chi0, chi0)
    if n0 == 0:
        raise SpectrumError("cannot fit the frequency of a null mode")
    overlaps = traj.chis @ chi0.conj() / n0
    phases = np.unwrap(np.angle(overlaps))
    slope = np.polyfit(traj.taus - traj.taus[0], phases, 1)[0]
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


def legacy_mode_condition(k: FourMomentum, chi, gammas: GammaSet = DIRAC,
                          consts: PhysicalConstants = PhysicalConstants()) -> LegacyModeReport:
    chi = np.asarray(chi, dtype=np.complex128).reshape(4)
    kk = mdot(k.k, k.k).real
    hbar, mc = consts.hbar, consts.mc
    legacy = (hbar ** 2 * kk) * chi - mc * hbar * (gammas.slash(k.k) @ chi)
    gap = k.gap(consts)
    return LegacyModeReport(
        gap=gap,
        chi_norm=float(np.linalg.norm(chi)),
        legacy_residual=float(np.linalg.norm(legacy)),
        new_residual=float(abs(gap) * np.linalg.norm(chi)),
    )


def delta_sweep(k1: float, gaps, consts: PhysicalConstants, dtau: float, steps: int,
                stationary_tol: float = 1e-10) -> list[dict]:
    """Evolve one mode per requested gap value and flag the stationary ones.

    k^0 is solved from the gap at fixed spatial component k^1, the mode
    is evolved for ``steps`` proper-time steps, and a mode counts as
    stationary when its final amplitude deviates from the initial one by
    at most stationary_tol in relative norm.  Modes are evolved and fitted
    one at a time, so one trajectory's arrays are alive at once.
    """
    records = []
    chi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    for gap in gaps:
        k0sq = (gap + consts.mass_shell) / consts.hbar ** 2 + k1 ** 2
        if k0sq < 0:
            raise SpectrumError(f"gap {gap} gives no real k^0 at k^1={k1}")
        k = FourMomentum(np.array([np.sqrt(k0sq), k1, 0.0, 0.0]))
        traj = propertime_evolve(ModeState(chi0, k), PotentialSpec("free"),
                                 dtau, steps, consts)
        chis = traj.chis
        drift = float(np.linalg.norm(chis[-1] - chis[0]) / np.linalg.norm(chis[0]))
        records.append({
            "k0": float(k.k[0]),
            "k1": float(k1),
            "delta": float(k.gap(consts)),
            "measured_frequency": fit_mode_frequency(traj),
            "closed_form_frequency": consts.epsilon * k.gap(consts) / (consts.hbar * consts.m),
            "final_drift": drift,
            "stationary": drift <= stationary_tol,
        })
    return records
