"""Analytic four-potential catalog and field-strength machinery.

Potentials are stored and returned as lower-index components ``A_mu``,
each an entire function of the coordinates, so they can be evaluated at
complex arguments.  Positions are passed as the four coordinates
``z^mu`` (scalars or broadcasting arrays).

Every catalog entry is one of two families, resolved once from the table
``CATALOG`` when its ``PotentialSpec`` is built.  Each family answers the
same four questions: its components, its Jacobian, whether its divergence
vanishes identically, and whether it varies along an axis.  Components and
Jacobian entries come one at a time, None where they vanish identically, and
each has the shape the coordinates broadcast to, so coordinates held along
one axis each give arrays that span only the axes they vary along.

* Polynomial (``PolynomialPotential``, one ``Polynomial`` per component):
  ``free``; ``constant_electric(E)``, ``A_0 = -E z^1``, giving ``F_01 = +E``;
  ``constant_magnetic(B)`` in symmetric gauge, ``A_1 = -(B/2) z^2`` and
  ``A_2 = +(B/2) z^1``, giving ``F_12 = +B``; ``custom_polynomial``, terms
  keyed ``a<mu>_<e0><e1><e2><e3>`` (``a0_1000 = 2.5`` is ``A_0 = 2.5 z^0``),
  used for constants and for non-periodic negative tests.
* Cosine wave (``CosineWave``), ``A_mu = eps_mu cos(k . z + phase)``:
  ``em_plane_wave(eps, k)`` enforces transversality ``k . eps = 0``, so its
  divergence vanishes identically; ``custom_wave`` is the same waveform
  without the constraint, and with ``k . eps != 0`` it is the catalog's
  deliberately gauge-violating entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .clifford import DIRAC, METRIC_DIAG, ArrayC
from .constants import PhysicalConstants

Exponents = tuple[int, int, int, int]


class PotentialError(ValueError):
    def __init__(self, message: str, param: str | None = None) -> None:
        super().__init__(message)
        self.param = param  # the parameter at fault, when one is


@dataclass(frozen=True)
class Polynomial:
    """sum_e c_e z^e over exponent tuples e = (e0, e1, e2, e3), summed in the order given."""

    terms: Mapping[Exponents, complex]

    def __call__(self, coords) -> np.ndarray:
        """The value at the four coordinates ``coords[mu]`` (scalars or broadcasting arrays)."""
        shape = np.broadcast_shapes(*(np.shape(coords[mu]) for mu in range(4)))
        out = np.zeros(shape, dtype=np.complex128)
        for exps, c in self.terms.items():
            term = np.full(shape, complex(c))
            for mu, p in enumerate(exps):
                if p:
                    term = term * coords[mu] ** p
            out = out + term
        return out

    def derivative(self, mu: int) -> "Polynomial":
        """d/dz^mu term by term; terms constant in z^mu drop out."""
        return Polynomial({exps[:mu] + (exps[mu] - 1,) + exps[mu + 1:]: c * exps[mu]
                           for exps, c in self.terms.items() if exps[mu]})


@dataclass(frozen=True)
class PolynomialPotential:
    """A_mu as polynomials: ``terms`` maps (mu, exponents) to coefficients in the order given."""

    terms: Mapping[tuple[int, Exponents], float]

    @cached_property
    def components(self) -> tuple[Polynomial, ...]:
        return tuple(Polynomial({exps: c for (nu, exps), c in self.terms.items() if nu == mu})
                     for mu in range(4))

    def component_values(self, zs):
        """A_mu for mu = 0..3; None where it vanishes identically."""
        for poly in self.components:
            yield poly(zs) if poly.terms else None

    def jacobian_entries(self, zs, pairs):
        """d A_nu / d z^mu for each (mu, nu) in ``pairs``; None where it vanishes identically."""
        for mu, nu in pairs:
            d = self.components[nu].derivative(mu)
            yield d(zs) if d.terms else None

    def divergence_free(self) -> bool:
        # the divergence is again a polynomial; its coefficients are summed in term order
        div: dict[Exponents, float] = {}
        for (mu, exps), c in self.terms.items():
            for d, dc in Polynomial({exps: c}).derivative(mu).terms.items():
                div[d] = div.get(d, 0.0) + METRIC_DIAG[mu] * dc
        return all(abs(c) < 1e-14 for c in div.values())

    def varies_along(self, mu: int) -> bool:
        return any(exps[mu] > 0 for _, exps in self.terms)

    def mode(self, mu: int, length: float) -> float:
        """Fourier mode number along axis mu: a polynomial contributes none."""
        return 0.0


@dataclass(frozen=True)
class CosineWave:
    """A_mu = eps_mu cos(k . z + phase)."""

    eps: np.ndarray
    k: np.ndarray
    phase: float = 0.0

    def _phase(self, zs):
        return sum(self.k[mu] * zs[mu] for mu in range(4)) + self.phase

    def component_values(self, zs):
        """A_mu for mu = 0..3; None where it vanishes identically."""
        c = np.cos(self._phase(zs))
        for mu in range(4):
            yield self.eps[mu] * c if self.eps[mu] != 0.0 else None

    def jacobian_entries(self, zs, pairs):
        """d A_nu / d z^mu for each (mu, nu) in ``pairs``; None where it vanishes identically."""
        s = np.sin(self._phase(zs))
        for mu, nu in pairs:
            yield -self.k[mu] * self.eps[nu] * s if self.k[mu] and self.eps[nu] else None

    def k_dot_eps(self) -> float:
        return np.sum(METRIC_DIAG * self.k * self.eps)

    def divergence_free(self) -> bool:
        return bool(abs(self.k_dot_eps()) < 1e-14)

    def varies_along(self, mu: int) -> bool:
        return self.k[mu] != 0.0

    def mode(self, mu: int, length: float) -> float:
        """Fourier mode number |k_mu| L / 2 pi along an axis of length L."""
        return abs(self.k[mu]) * length / (2 * np.pi)


@dataclass(frozen=True)
class TransverseWave(CosineWave):
    """The em_plane_wave entry: a cosine wave checked transverse on construction."""

    def __post_init__(self) -> None:
        kdoteps = self.k_dot_eps()
        if abs(kdoteps) > 1e-12 * max(1.0, np.abs(self.k).max() * np.abs(self.eps).max()):
            raise PotentialError(
                f"em_plane_wave requires k.eps = 0 (transverse polarization), got {kdoteps}")

    def divergence_free(self) -> bool:
        return True


_WAVE_KEYS = tuple(f"eps{mu}" for mu in range(4)) + tuple(f"k{mu}" for mu in range(4))


def _wave_args(params: Mapping[str, float]) -> tuple:
    eps_k = np.array([params[key] for key in _WAVE_KEYS], dtype=float)
    return eps_k[:4], eps_k[4:], params.get("phase", 0.0)


def _parse_poly_key(key: str) -> tuple[int, Exponents]:
    # a<mu>_<e0><e1><e2><e3>, single-digit exponents
    if (len(key) != 7 or key[0] != "a" or key[2] != "_"
            or not key[1].isdigit() or not key[3:].isdigit() or int(key[1]) > 3):
        raise PotentialError(f"bad polynomial term key {key!r}; expected a<mu>_<e0e1e2e3>",
                             param=key)
    return int(key[1]), tuple(int(c) for c in key[3:])


# catalog name -> (required parameter keys, optional parameter keys, family built from
# the parameters); custom_polynomial (optional keys None) takes any number of term
# keys, which its builder parses
CATALOG = {
    "free": ((), (), lambda p: PolynomialPotential({})),
    "constant_electric": (("E",), (), lambda p: PolynomialPotential(
        {(0, (0, 1, 0, 0)): -p["E"]})),
    "constant_magnetic": (("B",), (), lambda p: PolynomialPotential(
        {(1, (0, 0, 1, 0)): -0.5 * p["B"], (2, (0, 1, 0, 0)): 0.5 * p["B"]})),
    "em_plane_wave": (_WAVE_KEYS, ("phase",), lambda p: TransverseWave(*_wave_args(p))),
    "custom_polynomial": ((), None, lambda p: PolynomialPotential(
        {_parse_poly_key(key): coef for key, coef in p.items()})),
    "custom_wave": (_WAVE_KEYS, ("phase",), lambda p: CosineWave(*_wave_args(p))),
}


@dataclass(frozen=True)
class PotentialSpec:
    """A named analytic four-potential with real parameters."""

    name: str
    params: Mapping[str, float] = field(default_factory=dict)
    family: PolynomialPotential | CosineWave = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.name not in CATALOG:
            raise PotentialError(f"unknown potential {self.name!r}; catalog: {tuple(CATALOG)}")
        object.__setattr__(self, "params", dict(self.params))
        required, optional, build = CATALOG[self.name]
        missing = [k for k in required if k not in self.params]
        if missing:
            raise PotentialError(f"{self.name}: missing parameters {missing}")
        if optional is not None:
            for key in self.params:
                if key not in required + optional:
                    raise PotentialError(f"{self.name} takes no parameter {key!r}, only "
                                         f"{list(required + optional)}", param=key)
        object.__setattr__(self, "family", build(self.params))


# -- catalog constructors ----------------------------------------------------

def free() -> PotentialSpec:
    return PotentialSpec("free")


def constant_electric(E: float) -> PotentialSpec:
    return PotentialSpec("constant_electric", {"E": E})


def constant_magnetic(B: float) -> PotentialSpec:
    return PotentialSpec("constant_magnetic", {"B": B})


def _wave_params(eps, k, phase: float) -> dict[str, float]:
    """The parameters of a wave entry: eps0..eps3, k0..k3 and phase."""
    params = {f"eps{mu}": float(eps[mu]) for mu in range(4)}
    params.update({f"k{mu}": float(k[mu]) for mu in range(4)})
    params["phase"] = float(phase)
    return params


def em_plane_wave(eps, k, phase: float = 0.0) -> PotentialSpec:
    return PotentialSpec("em_plane_wave", _wave_params(eps, k, phase))


def custom_wave(eps, k, phase: float = 0.0) -> PotentialSpec:
    return PotentialSpec("custom_wave", _wave_params(eps, k, phase))


def custom_polynomial(terms: Mapping[str, float]) -> PotentialSpec:
    return PotentialSpec("custom_polynomial", terms)


def constant_potential(a) -> PotentialSpec:
    """Uniform four-potential A_mu = a_mu (a degree-0 polynomial entry)."""
    return custom_polynomial({f"a{mu}_0000": float(a[mu]) for mu in range(4) if a[mu] != 0.0})


# -- evaluation --------------------------------------------------------------

def _coords(z) -> list[np.ndarray]:
    zs = [np.asarray(z[mu], dtype=np.complex128) for mu in range(4)]
    return list(np.broadcast_arrays(*zs))


def evaluate_potential(spec: PotentialSpec, z) -> np.ndarray:
    """A_mu(z): lower-index components, shape (4,) + broadcast(z)."""
    zs = _coords(z)
    A = np.zeros((4,) + zs[0].shape, dtype=np.complex128)
    for mu, component in enumerate(spec.family.component_values(zs)):
        if component is not None:
            A[mu] = component
    return A


_PAIRS = tuple((mu, nu) for mu in range(4) for nu in range(4))
_DIAGONAL = tuple((mu, mu) for mu in range(4))


def potential_jacobian(spec: PotentialSpec, z) -> np.ndarray:
    """J[mu, nu] = d A_nu / d z^mu, shape (4, 4) + broadcast(z)."""
    zs = _coords(z)
    J = np.zeros((4, 4) + zs[0].shape, dtype=np.complex128)
    for (mu, nu), entry in zip(_PAIRS, spec.family.jacobian_entries(zs, _PAIRS)):
        if entry is not None:
            J[mu, nu] = entry
    return J


def field_strength(spec: PotentialSpec, z) -> np.ndarray:
    """F[mu, nu] = d_mu A_nu - d_nu A_mu, shape (4, 4) + broadcast(z)."""
    J = potential_jacobian(spec, z)
    return J - np.swapaxes(J, 0, 1)


def _divergence(spec: PotentialSpec, zs, zero):
    """d_mu A^mu at the coordinates ``zs`` from the diagonal Jacobian entries J[mu, mu],
    taken one at a time, with ``zero`` in place of each that vanishes identically."""
    diagonal = (zero if entry is None else entry
                for entry in spec.family.jacobian_entries(zs, _DIAGONAL))
    return sum(METRIC_DIAG[mu] * d for mu, d in enumerate(diagonal))


def lorenz_residual(spec: PotentialSpec, z):
    """Divergence d_mu A^mu(z); identically zero for gauge-respecting entries."""
    zs = _coords(z)
    res = _divergence(spec, zs, np.zeros(zs[0].shape, dtype=np.complex128))
    return complex(res) if np.ndim(res) == 0 else res


def is_lorenz_gauge(spec: PotentialSpec) -> bool:
    """True when the entry's divergence vanishes identically by construction."""
    return spec.family.divergence_free()


def spin_coupling_matrix(F: ArrayC, consts: PhysicalConstants, form: str = "sigma") -> ArrayC:
    """Spin/EM coupling (e hbar / 2m) sigma^{munu} F_{munu} as a 4x4 matrix.

    ``form="sigma"`` contracts the spin tensor directly;
    ``form="commutator"`` evaluates the equivalent
    (i e hbar / 4m) [gamma^mu, gamma^nu] F_{munu}.  The two routes are
    algebraically identical and are compared in tests.  The coupling is
    independent of the charge-sign branch epsilon by construction.
    """
    F = np.asarray(F, dtype=np.complex128)
    if F.shape != (4, 4):
        raise PotentialError(f"pointwise field strength must be 4x4, got {F.shape}")
    if form == "sigma":
        pref, matrix = consts.e * consts.hbar / (2 * consts.m), DIRAC.spin_tensor
    elif form == "commutator":
        pref, matrix = 1j * consts.e * consts.hbar / (4 * consts.m), DIRAC.commutator
    else:
        raise PotentialError(f"unknown coupling form {form!r}")
    out = np.zeros((4, 4), dtype=np.complex128)
    for mu in range(4):
        for nu in range(4):
            if F[mu, nu] != 0:
                out += pref * matrix(mu, nu) * F[mu, nu]
    return out
