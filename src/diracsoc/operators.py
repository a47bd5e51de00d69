"""First- and second-order proper-time operators and their factored forms.

All operators act on 4-component fields and return the same.  The
second-order right-hand side (``fock_rhs``) and the product of the two
first-order factors (``factored_rhs``) agree for divergence-free
potentials; for a potential with d.A = g != 0 their difference is the
field -i e hbar g(z) phi, which ``gauge_discrepancy_prediction``
computes directly.

Compositions are evaluated by genuinely applying one operator to the
output of the other on the grid; there is no symbolic fusion.  The two sides
are composed once, in ``fock_and_factored_in_place``: it takes phi's
derivative arrays from its caller, and both sides read them, the A.d term of
``fock_rhs`` and the first factor.  ``factorization_discrepancy`` passes
``grid._derivatives(phi)``, one forward transform per axis, and
``verify-identity`` passes those of ``grid.band_limited_jet``.  Those arrays
are the same bits that each side computes alone, so the equivalence check is
as honest a numerical test as two separate evaluations.  The kernel forms
both sides in their buffers, taking psi's derivatives one spinor component
at a time.

The operators apply the Dirac matrices of ``clifford.DIRAC``.  Each of those
gammas, and each commutator of two distinct ones, has one nonzero entry per
row, so the operators mix spinor components through row tables
(a, p(a), M_a,p(a)) taken from those matrices once, at import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clifford import DIRAC, METRIC_DIAG, ArrayC
from .constants import PhysicalConstants
from .emfield import PotentialSpec, _coords, evaluate_potential, lorenz_residual
from .grid import (Field, SpacetimeGrid, _derivatives, _partial_values, _require_finite, _rms,
                   dalembertian)


class OperatorError(ValueError):
    pass


def _require_spinor(psi: Field) -> None:
    if not psi.is_spinor:
        raise OperatorError("operator expects a 4-component field")


def require_representable(spec: PotentialSpec, grid: SpacetimeGrid) -> None:
    """OperatorError unless ``spec`` is constant along the inactive axes of ``grid``,
    which cannot represent variation along them."""
    for mu in range(grid.dims, 4):
        if spec.family.varies_along(mu):
            raise OperatorError(f"potential {spec.name} varies along inactive axis {mu}; "
                                f"use a grid with dims > {mu}")


def _sample_field_strength(spec: PotentialSpec, grid: SpacetimeGrid) -> dict:
    """``SampledPotential.F``, pair by pair: the two Jacobian entries d_mu A_nu and
    d_nu A_mu are taken once and give both F_munu and F_numu, with no dense 4x4 Jacobian."""
    pairs = [(mu, nu) for mu in range(4) for nu in range(mu + 1, 4)]
    # d_mu A_nu then d_nu A_mu for each pair; None where it vanishes identically
    entries = spec.family.jacobian_entries(
        _coords(grid.coords4()), [p for mu, nu in pairs for p in ((mu, nu), (nu, mu))])
    F = {}
    for mu, nu in pairs:
        d_mu_nu, d_nu_mu = (0j if d is None else d for d in (next(entries), next(entries)))
        component = d_mu_nu - d_nu_mu
        if np.any(component != 0):
            F[(mu, nu)], F[(nu, mu)] = component, d_nu_mu - d_mu_nu
    for component in F.values():
        component.setflags(write=False)
    return dict(sorted(F.items()))


class SampledPotential:
    """A potential sampled once on one grid, passed to the operators in place of its spec.

    ``A`` holds the lower-index components A_mu on the grid,
    ``coupled[mu]`` says whether A_mu is anywhere nonzero and ``asq`` is
    A^mu A_mu (None where it vanishes identically).  ``F`` maps
    (mu, nu), mu != nu, to F_munu for the components that are not identically
    zero, in row-major order.  Everything is sampled at construction, F last,
    once A's temporaries are freed; a potential therefore exists before any
    derivative of a field it acts on, so F's sampling peak never adds to theirs.
    """

    def __init__(self, spec: PotentialSpec, grid: SpacetimeGrid) -> None:
        require_representable(spec, grid)
        self.spec = spec
        self.grid = grid
        self.A = evaluate_potential(spec, grid.coords4())
        self.A.setflags(write=False)
        self.coupled = tuple(bool(np.any(a != 0)) for a in self.A)
        asq = sum(METRIC_DIAG[mu] * self.A[mu] * self.A[mu] for mu in range(4))
        asq.setflags(write=False)
        self.asq = asq if np.any(asq != 0) else None
        del asq  # a zero A^2 is freed before F is sampled
        self.F = _sample_field_strength(spec, grid)


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


def _accumulate(out: np.ndarray, m: complex, term: np.ndarray, row: np.ndarray) -> None:
    """out += m term for a gamma entry m, with ``row`` (which may be ``term``) as the
    product's buffer.  For m = +1 or -1 term is added or subtracted without
    forming the product: the result is the same up to the sign of an exact zero.
    """
    if m == 1:
        out += term
    elif m == -1:
        out -= term
    else:
        out += np.multiply(m, term, out=row)


def _slash_values(values: np.ndarray, grid: SpacetimeGrid, pot: SampledPotential,
                  consts: PhysicalConstants, backend: str, mass: int = 0,
                  dpsi: list[np.ndarray] | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
    """gamma^nu (i hbar d_nu - e A_nu) psi + mass m c psi from psi's values, unchecked.

    ``mass`` is 0, +1 or -1.  Spinor components are mixed through the gamma
    row tables, one component at a time, with the potential and mass terms
    formed in one reused buffer.  ``dpsi``, if given, holds d_nu psi for the
    active axes in order and is consumed: the sum is formed in ``dpsi[0]``'s
    buffer (gamma^0 is diagonal) and each later array is overwritten by its
    term.  Otherwise each derivative is taken one component at a time, and
    the sum is formed in ``out``, or in a new array.
    """
    ihbar = 1j * consts.hbar
    row = np.empty(grid.shape, dtype=np.complex128)
    if dpsi is not None:
        out = dpsi[0]
    elif out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    deriv = None if dpsi is not None or grid.dims == 1 else np.empty_like(row)
    for nu in range(4):
        coupled = pot.coupled[nu]
        eA = consts.e * pot.A[nu] if coupled else None
        if grid.is_active(nu):
            for a, b, m in _GAMMA_ROWS[nu]:
                # axis 0 is always active and gamma^0 is diagonal: its term starts out[a]
                if dpsi is not None:
                    term = dpsi[nu][b]
                else:
                    term = _partial_values(values[b], grid, nu, backend,
                                           out=out[a] if nu == 0 else deriv)
                np.multiply(ihbar, term, out=term)
                if coupled:
                    np.multiply(eA, values[b], out=row)
                    term -= row
                if nu == 0:
                    np.multiply(m, term, out=out[a])
                else:
                    _accumulate(out[a], m, term, row)
        elif coupled:
            # d_nu psi vanishes on an inactive axis: the term is -e A_nu psi, and
            # m (-x) is (-m) x exactly
            for a, b, m in _GAMMA_ROWS[nu]:
                np.multiply(eA, values[b], out=row)
                _accumulate(out[a], -m, row, row)
        del eA  # freed before the next axis's is formed
    if mass:
        add = np.add if mass > 0 else np.subtract
        for a in range(4):
            np.multiply(consts.mc, values[a], out=row)
            add(out[a], row, out=out[a])
    # a non-finite term leaves a non-finite entry in out (inf - inf is nan), which is refused
    return out


def _slash(psi: Field, A: Potential, consts: PhysicalConstants, backend: str,
           mass: int) -> Field:
    _require_spinor(psi)
    return Field(psi.grid, _slash_values(psi.values, psi.grid, _sampled(psi, A), consts,
                                         backend, mass))


def minimal_coupling_slash(psi: Field, A: Potential, consts: PhysicalConstants,
                           backend: str = "spectral") -> Field:
    """gamma^nu (i hbar d_nu - e A_nu) psi -- the mass-free first-order part."""
    return _slash(psi, A, consts, backend, mass=0)


def dirac_apply(psi: Field, A: Potential, consts: PhysicalConstants,
                backend: str = "spectral") -> Field:
    """(i hbar gamma^nu d_nu - e gamma^nu A_nu - m c) psi."""
    return _slash(psi, A, consts, backend, mass=-1)


def build_spinor(phi: Field, A: Potential, consts: PhysicalConstants,
                 backend: str = "spectral") -> Field:
    """psi = i hbar gamma^mu d_mu phi - e gamma^mu A_mu phi + m c phi.

    The conjugate factor of ``dirac_apply`` (+m c in place of -m c) applied to phi.
    """
    return _slash(phi, A, consts, backend, mass=+1)


def _fock_values(values: np.ndarray, grid: SpacetimeGrid, pot: SampledPotential,
                 consts: PhysicalConstants, dphi: list[np.ndarray],
                 box: np.ndarray) -> np.ndarray:
    """The terms of ``fock_rhs`` from phi's values and derivatives.

    The result is formed in ``box``'s buffer; ``dphi`` is read on the
    coupled axes.  box, and dphi where it is read, are checked finite; the
    result is not.  The mass, field-strength, A.d and A^2 terms are formed
    one spinor component at a time in one reused buffer.
    """
    hbar, e, mc = consts.hbar, consts.e, consts.mc
    row = np.empty(grid.shape, dtype=np.complex128)
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

    for mu in range(grid.dims):
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
    dphi, box = _derivatives(phi.values, phi.grid, backend,
                             first=any(pot.coupled[:phi.grid.dims]))
    return Field(phi.grid, _fock_values(phi.values, phi.grid, pot, consts, dphi, box))


def factored_rhs(phi: Field, A: Potential, consts: PhysicalConstants,
                 backend: str = "spectral") -> Field:
    """(i hbar gamma d - e gamma A - mc)(i hbar gamma d - e gamma A + mc) phi."""
    return dirac_apply(build_spinor(phi, A, consts, backend), A, consts, backend)


def fock_and_factored_in_place(phi: np.ndarray, grid: SpacetimeGrid, pot: SampledPotential,
                               consts: PhysicalConstants, backend: str,
                               dphi: list[np.ndarray], box: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
    """(``fock_rhs``, ``factored_rhs``) values of the spinor values phi, from its derivatives.

    ``dphi`` (d_mu phi for the active axes) and ``box`` (the d'Alembertian)
    are consumed: fock is formed in box's buffer, the first factor psi in
    dphi[0]'s, and the second factor in dphi[1]'s, freed once psi is formed
    (a new array on a 1-dim grid).  phi is only read.  Both sides read the
    same derivative arrays, which ``fock_rhs`` and the first factor would each
    compute alone; psi's derivatives are taken one component at a time.  The
    derivative arrays read, psi and both outputs are checked finite; phi is
    not, being a Field's values or the checked phi of ``grid.band_limited_jet``.
    """
    fock = _require_finite(_fock_values(phi, grid, pot, consts, dphi, box))
    psi = _require_finite(_slash_values(phi, grid, pot, consts, backend, mass=+1, dpsi=dphi))
    fact = _slash_values(psi, grid, pot, consts, backend, mass=-1,
                         out=dphi[1] if len(dphi) > 1 else None)
    return fock, _require_finite(fact)


def legacy_factored_rhs(phi: Field, A: Potential, consts: PhysicalConstants,
                        backend: str = "spectral") -> Field:
    """(i hbar gamma d - e gamma A - mc)(i hbar gamma d - e gamma A) phi.

    The earlier factored form whose second factor lacks the +mc term;
    kept for side-by-side comparison with ``factored_rhs``.
    """
    return dirac_apply(minimal_coupling_slash(phi, A, consts, backend), A, consts, backend)


def gauge_discrepancy_coefficient(A: PotentialSpec, grid: SpacetimeGrid,
                                  consts: PhysicalConstants) -> np.ndarray:
    """-i e hbar (d_mu A^mu)(z) on the grid: the factor of phi in
    ``gauge_discrepancy_prediction``."""
    return -1j * consts.e * consts.hbar * lorenz_residual(A, grid.coords4())


def gauge_discrepancy_prediction(phi: Field, A: PotentialSpec, consts: PhysicalConstants,
                                 backend: str = "spectral") -> Field:
    """-i e hbar (d_mu A^mu)(z) phi: the symmetric term absent from fock_rhs.

    factored_rhs - fock_rhs equals this field; it vanishes identically
    in Lorenz gauge, which is the content of the equivalence theorem.
    """
    _require_spinor(phi)
    return Field(phi.grid, gauge_discrepancy_coefficient(A, phi.grid, consts) * phi.values)


def relative_discrepancy(fock: np.ndarray, fact: np.ndarray,
                         scratch: np.ndarray | None = None) -> float:
    """|fact - fock| / |fock| in root mean square, as ``l2norm`` takes it (inf where fock
    vanishes).  ``fact`` is overwritten by the difference; the moduli go in
    ``scratch``, a real array of their shape, when given."""
    ref = _rms(fock, scratch)
    diff = _rms(np.subtract(fact, fock, out=fact), scratch)
    return diff / ref if ref > 0 else np.inf


def factorization_discrepancy(phi: Field, A: Potential, consts: PhysicalConstants,
                              backend: str = "spectral") -> float:
    """|factored - fock| / |fock|, the relative discrepancy between the two forms
    (inf where fock vanishes)."""
    _require_spinor(phi)
    return relative_discrepancy(*fock_and_factored_in_place(
        phi.values, phi.grid, _sampled(phi, A), consts, backend,
        *_derivatives(phi.values, phi.grid, backend)))


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
        na = _rms(psi.values[a])
        if na == 0.0:
            degenerate[a] = True
            continue
        residuals[a] = _rms(op[a]) / na
    return KGResidual(residuals, degenerate)
