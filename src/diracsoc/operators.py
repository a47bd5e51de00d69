"""First- and second-order proper-time operators and their factored forms.

All operators act on 4-component fields and return the same.  The
second-order right-hand side (``fock_rhs``) and the product of the two
first-order factors (``factored_rhs``) agree for divergence-free
potentials; for a potential with d.A = g != 0 their difference is the
field -i e hbar g(z) phi, which ``gauge_discrepancy_prediction``
computes directly.

Compositions are evaluated by genuinely applying one operator to the
output of the other on the grid; there is no symbolic fusion.
``fock_and_factored`` computes phi's derivative arrays once, from one
forward transform per axis, and both sides read them: the A.d term of
``fock_rhs`` and the first factor.  Those arrays are the same bits that
each side computes alone, so the equivalence check is as honest a
numerical test as two separate evaluations.

The operators apply the Dirac matrices of ``clifford.DIRAC``.  Each of those
gammas, and each commutator of two distinct ones, has one nonzero entry per
row, so the operators mix spinor components through row tables
(a, p(a), M_a,p(a)) taken from those matrices once, at import.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clifford import DIRAC, METRIC_DIAG, ArrayC
from .constants import PhysicalConstants
from .emfield import PotentialSpec, evaluate_potential, lorenz_residual, potential_jacobian
from .grid import (Field, SpacetimeGrid, _derivatives, _partial_values, _require_finite,
                   dalembertian, l2norm)


class OperatorError(ValueError):
    pass


def _require_spinor(psi: Field) -> None:
    if not psi.is_spinor:
        raise OperatorError("operator expects a 4-component field")


class SampledPotential:
    """A potential sampled once on one grid, passed to the operators in place of its spec.

    ``A`` holds the lower-index components A_mu on the grid,
    ``coupled[mu]`` says whether A_mu is anywhere nonzero and ``asq`` is
    A^mu A_mu (None where it vanishes identically).  ``F`` maps
    (mu, nu), mu != nu, to F_munu for the components that are not identically zero,
    in row-major order.  It is evaluated on first use, one component at a
    time, from the dense 4x4 Jacobian that ``potential_jacobian`` builds
    (16 MiB on a 256x256 grid, freed once F is taken).  The dense Jacobian
    stays: taking F entry by entry from ``jacobian_entries`` lowers the
    traced peak of the sampling but not the process's peak RSS, and it
    multiplies the minor page faults, since the 16 MiB block is what raises
    glibc's dynamic mmap threshold above the operators' 4 MiB arrays.  The
    operators take F before phi's derivatives exist, so that its peak does
    not add to theirs.
    """

    def __init__(self, spec: PotentialSpec, grid: SpacetimeGrid) -> None:
        # the grid cannot represent variation along inactive axes
        for mu in range(grid.dims, 4):
            if spec.family.varies_along(mu):
                raise OperatorError(
                    f"potential {spec.name} varies along inactive axis {mu}; "
                    f"use a grid with dims > {mu}")
        self.spec = spec
        self.grid = grid
        self.A = evaluate_potential(spec, grid.coords4())
        self.A.setflags(write=False)
        self.coupled = tuple(bool(np.any(a != 0)) for a in self.A)
        asq = sum(METRIC_DIAG[mu] * self.A[mu] * self.A[mu] for mu in range(4))
        asq.setflags(write=False)
        self.asq = asq if np.any(asq != 0) else None

    @cached_property
    def F(self) -> dict[tuple[int, int], np.ndarray]:
        J = potential_jacobian(self.spec, self.grid.coords4())
        F = {}
        for mu in range(4):
            for nu in range(4):
                component = J[mu, nu] - J[nu, mu]
                if mu != nu and np.any(component != 0):
                    component.setflags(write=False)
                    F[(mu, nu)] = component
        return F


Potential = PotentialSpec | SampledPotential


def _sampled(psi: Field, A: Potential) -> SampledPotential:
    if not isinstance(A, SampledPotential):
        return SampledPotential(A, psi.grid)
    if A.grid != psi.grid:
        raise OperatorError("potential was sampled on a different grid than the field")
    return A


Rows = tuple[tuple[int, int, complex], ...]


def _monomial_rows(mat: ArrayC) -> Rows:
    """(a, p(a), M_a,p(a)) for each row of a monomial matrix.

    A monomial matrix has one nonzero entry per row, as every gamma matrix
    and every commutator of two distinct ones has; out_a = M_a,p(a) v_p(a)
    then equals the full sum over b exactly, since the other terms are
    products with zero.  The rows are found in plain Python: NumPy reductions
    here raised the peak RSS of ``import diracsoc`` by 0.4 MB (NumPy 2.4.6).
    """
    rows = []
    for a, entries in enumerate(mat):
        cols = [b for b, m in enumerate(entries) if m != 0]
        if len(cols) != 1:
            raise OperatorError("spinor mixing needs a matrix with one nonzero entry per row")
        rows.append((a, cols[0], entries[cols[0]]))
    return tuple(rows)


# the rows of gamma^mu and of [gamma^mu, gamma^nu] for mu != nu: F_munu vanishes for mu = nu
_GAMMA_ROWS = tuple(_monomial_rows(g) for g in DIRAC.gammas)
_COMMUTATOR_ROWS = {(mu, nu): _monomial_rows(DIRAC.commutator(mu, nu))
                    for mu in range(4) for nu in range(4) if mu != nu}


def _gamma_mix(rows: Rows, comp: np.ndarray, add_to: np.ndarray | None = None) -> np.ndarray:
    """Apply a monomial 4x4 matrix, given by its rows, in spinor space: out_a = M_a,p(a) v_p(a).

    With ``add_to`` the result is added into that array, one component at a
    time, and the array is returned.
    """
    if add_to is None:
        out = np.empty(comp.shape, dtype=np.complex128)
        for a, b, m in rows:
            np.multiply(m, comp[b], out=out[a])
        return out
    row = np.empty(comp.shape[1:], dtype=np.complex128)
    for a, b, m in rows:
        np.multiply(m, comp[b], out=row)
        add_to[a] += row
    return add_to


def _slash_values(psi: Field, pot: SampledPotential, consts: PhysicalConstants,
                  backend: str, mass: int = 0,
                  dpsi: list[np.ndarray] | None = None) -> np.ndarray:
    """gamma^nu (i hbar d_nu - e A_nu) psi + mass m c psi as a fresh array, unchecked.

    ``mass`` is 0, +1 or -1.  The potential and mass terms are formed one
    spinor component at a time in one reused buffer.  ``dpsi``, if given,
    holds d_nu psi for the active axes in order and is consumed: each array
    is popped and overwritten by its term.  Otherwise each derivative is taken
    when its term is reached.
    """
    values = psi.values
    row = np.empty(psi.grid.shape, dtype=np.complex128)
    out = None  # axis 0 is always active, so its term starts the sum
    for nu in range(4):
        active, coupled = psi.grid.is_active(nu), pot.coupled[nu]
        eA = consts.e * pot.A[nu] if coupled else None
        if active:
            term = dpsi.pop(0) if dpsi is not None else _partial_values(psi, nu, backend)
            np.multiply(1j * consts.hbar, term, out=term)
            if coupled:
                for b in range(4):
                    np.multiply(eA, values[b], out=row)
                    term[b] -= row
            out = _gamma_mix(_GAMMA_ROWS[nu], term, add_to=out)
            del term  # freed before the next axis's derivative is taken
        elif coupled:
            # d_nu psi vanishes on an inactive axis: the term is -e A_nu psi
            for a, b, m in _GAMMA_ROWS[nu]:
                np.multiply(eA, values[b], out=row)
                np.negative(row, out=row)
                np.multiply(m, row, out=row)
                out[a] += row
    if mass:
        add = np.add if mass > 0 else np.subtract
        for a in range(4):
            np.multiply(consts.mc, values[a], out=row)
            add(out[a], row, out=out[a])
    # a non-finite term leaves a non-finite entry in out (inf - inf is nan), which Field refuses
    return out


def minimal_coupling_slash(psi: Field, A: Potential, consts: PhysicalConstants,
                           backend: str = "spectral") -> Field:
    """gamma^nu (i hbar d_nu - e A_nu) psi -- the mass-free first-order part."""
    _require_spinor(psi)
    return Field(psi.grid, _slash_values(psi, _sampled(psi, A), consts, backend), copy=False)


def dirac_apply(psi: Field, A: Potential, consts: PhysicalConstants,
                backend: str = "spectral") -> Field:
    """(i hbar gamma^nu d_nu - e gamma^nu A_nu - m c) psi."""
    _require_spinor(psi)
    return Field(psi.grid, _slash_values(psi, _sampled(psi, A), consts, backend, mass=-1),
                 copy=False)


def build_spinor(phi: Field, A: Potential, consts: PhysicalConstants,
                 backend: str = "spectral") -> Field:
    """psi = i hbar gamma^mu d_mu phi - e gamma^mu A_mu phi + m c phi.

    The conjugate factor of ``dirac_apply`` (+m c in place of -m c) applied to phi.
    """
    _require_spinor(phi)
    return Field(phi.grid, _slash_values(phi, _sampled(phi, A), consts, backend, mass=+1),
                 copy=False)


def _fock_values(phi: Field, pot: SampledPotential, consts: PhysicalConstants,
                 dphi: list[np.ndarray], box: np.ndarray) -> np.ndarray:
    """The terms of ``fock_rhs``, unchecked, from phi's derivatives.

    The result is formed in ``box``'s buffer; ``dphi`` is read on the
    coupled axes.  The mass, field-strength, A.d and A^2 terms are formed
    one spinor component at a time in one reused buffer.
    """
    hbar, e, mc = consts.hbar, consts.e, consts.mc
    values = phi.values
    row = np.empty(phi.grid.shape, dtype=np.complex128)
    out = np.multiply(hbar ** 2, _require_finite(box), out=box)
    for a in range(4):  # -m^2 c^2 phi - hbar^2 box
        np.multiply(-(mc ** 2), values[a], out=row)
        np.subtract(row, out[a], out=out[a])

    for (mu, nu), F_munu in pot.F.items():
        for a, b, m in _COMMUTATOR_ROWS[mu, nu]:
            np.multiply(F_munu, values[b], out=row)
            np.multiply(m, row, out=row)
            np.multiply(0.25j * e * hbar, row, out=row)
            out[a] -= row

    for mu in range(phi.grid.dims):
        if pot.coupled[mu]:
            coef = 2j * e * hbar * METRIC_DIAG[mu] * pot.A[mu]
            d = _require_finite(dphi[mu])
            for a in range(4):
                np.multiply(coef, d[a], out=row)
                out[a] -= row

    if pot.asq is not None:
        coef = e ** 2 * pot.asq
        for a in range(4):
            np.multiply(coef, values[a], out=row)
            out[a] += row
    return out


def fock_rhs(phi: Field, A: Potential, consts: PhysicalConstants,
             backend: str = "spectral") -> Field:
    """Second-order right-hand side, term by term:

    -m^2 c^2 phi - hbar^2 d^mu d_mu phi
    - (i e hbar / 4) [gamma^mu, gamma^nu] F_munu phi
    - 2 i e hbar A^mu d_mu phi + e^2 A^mu A_mu phi
    """
    _require_spinor(phi)
    pot = _sampled(phi, A)
    pot.F  # sampled before phi's derivatives exist (see SampledPotential.F)
    dphi, box = _derivatives(phi, backend, first=any(pot.coupled[:phi.grid.dims]))
    return Field(phi.grid, _fock_values(phi, pot, consts, dphi, box), copy=False)


def factored_rhs(phi: Field, A: Potential, consts: PhysicalConstants,
                 backend: str = "spectral") -> Field:
    """(i hbar gamma d - e gamma A - mc)(i hbar gamma d - e gamma A + mc) phi."""
    return dirac_apply(build_spinor(phi, A, consts, backend), A, consts, backend)


def fock_and_factored(phi: Field, A: Potential, consts: PhysicalConstants,
                      backend: str = "spectral") -> tuple[Field, Field]:
    """(``fock_rhs``, ``factored_rhs``) of phi, sharing phi's derivatives.

    d_mu phi and the d'Alembertian come from one forward transform per axis;
    ``fock_rhs``'s A.d term reads the first derivatives and the first factor
    then consumes them.  Each output is the same bits as the function's own.
    """
    _require_spinor(phi)
    pot = _sampled(phi, A)
    pot.F  # sampled before phi's derivatives exist (see SampledPotential.F)
    dphi, box = _derivatives(phi, backend)
    fock = Field(phi.grid, _fock_values(phi, pot, consts, dphi, box), copy=False)
    psi = Field(phi.grid, _slash_values(phi, pot, consts, backend, mass=+1, dpsi=dphi),
                copy=False)
    return fock, dirac_apply(psi, pot, consts, backend)


def legacy_factored_rhs(phi: Field, A: Potential, consts: PhysicalConstants,
                        backend: str = "spectral") -> Field:
    """(i hbar gamma d - e gamma A - mc)(i hbar gamma d - e gamma A) phi.

    The earlier factored form whose second factor lacks the +mc term;
    kept for side-by-side comparison with ``factored_rhs``.
    """
    return dirac_apply(minimal_coupling_slash(phi, A, consts, backend), A, consts, backend)


def gauge_discrepancy_prediction(phi: Field, A: PotentialSpec, consts: PhysicalConstants,
                                 backend: str = "spectral") -> Field:
    """-i e hbar (d_mu A^mu)(z) phi: the symmetric term absent from fock_rhs.

    factored_rhs - fock_rhs equals this field; it vanishes identically
    in Lorenz gauge, which is the content of the equivalence theorem.
    """
    _require_spinor(phi)
    div = lorenz_residual(A, phi.grid.coords4())
    return Field(phi.grid, -1j * consts.e * consts.hbar * div * phi.values, copy=False)


def factorization_discrepancy(phi: Field, A: Potential, consts: PhysicalConstants,
                              backend: str = "spectral") -> float:
    """|factored - fock| / |fock|, the relative discrepancy between the two forms
    (inf where fock vanishes)."""
    fock, fact = fock_and_factored(phi, A, consts, backend)
    diff = l2norm(fact - fock)
    ref = l2norm(fock)
    return diff / ref if ref > 0 else np.inf


@dataclass(frozen=True)
class KGResidual:
    residuals: np.ndarray  # per-component relative Klein-Gordon defect
    degenerate: np.ndarray  # True where the component vanishes identically

    @property
    def max_residual(self) -> float:
        live = self.residuals[~self.degenerate]
        return float(live.max()) if live.size else 0.0


def kg_residual_componentwise(psi: Field, A: PotentialSpec, consts: PhysicalConstants,
                              backend: str = "spectral") -> KGResidual:
    """r_a = |(d^mu d_mu + m^2 c^2 / hbar^2) psi_a| / |psi_a| per component.

    Defined for the free potential only: with fields present the
    second-order operator carries the spin coupling and the components
    mix.
    """
    _require_spinor(psi)
    if A.name != "free":
        raise OperatorError("componentwise Klein-Gordon residual is defined for A=free")
    k2 = consts.mass_shell / consts.hbar ** 2
    op = dalembertian(psi, backend).values + k2 * psi.values
    residuals = np.zeros(4)
    degenerate = np.zeros(4, dtype=bool)
    for a in range(4):
        na = float(np.sqrt(np.mean(np.abs(psi.values[a]) ** 2)))
        if na == 0.0:
            degenerate[a] = True
            continue
        residuals[a] = float(np.sqrt(np.mean(np.abs(op[a]) ** 2))) / na
    return KGResidual(residuals, degenerate)
