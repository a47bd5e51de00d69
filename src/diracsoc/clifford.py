"""Gamma-matrix algebra in the standard Dirac representation.

Conventions used throughout the package:

* Metric signature (+1, -1, -1, -1); the metric is diagonal, so raising or
  lowering an index multiplies component mu by eta[mu].
* Four-vectors are stored as their covariant (lower-index) components
  ``v_mu``, except grid positions, which are plain coordinates ``z^mu``.
* The Minkowski product of two lower-index vectors is
  ``u . v = sum_mu eta^{mumu} u_mu v_mu`` -- bilinear, never conjugated.
* ``slash(v) = gamma^mu v_mu`` contracts a lower-index vector with the
  gamma matrices, so ``slash(v) @ slash(v) = (v . v) * I``.

Gamma matrices are built from exact small integers (entries in
{0, +-1, +-i}), so products of a few of them are exact in complex128
arithmetic and the Clifford identities can be checked with equality,
not tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

ArrayC = NDArray[np.complex128]

METRIC_DIAG = np.array([1, -1, -1, -1], dtype=np.int64)


class CliffordError(ValueError):
    pass


def _check_index(mu: int) -> None:
    if mu not in (0, 1, 2, 3):
        raise CliffordError(f"spacetime index must be 0..3, got {mu!r}")


@dataclass(frozen=True)
class Metric:
    """Diagonal Minkowski metric with signature (1, 3)."""

    diag: tuple[int, int, int, int] = (1, -1, -1, -1)

    def __post_init__(self) -> None:
        if len(self.diag) != 4 or any(d not in (1, -1) for d in self.diag):
            raise CliffordError(f"metric diagonal must be four entries of +-1, got {self.diag}")
        if sorted(self.diag, reverse=True) != [1, -1, -1, -1]:
            raise CliffordError(f"metric signature must be (1,3), got {self.diag}")

    @property
    def array(self) -> ArrayC:
        return np.diag(np.array(self.diag, dtype=np.complex128))


MINKOWSKI = Metric()


def _pauli() -> list[ArrayC]:
    s1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    s3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return [s1, s2, s3]


def _dirac_gammas() -> ArrayC:
    i2 = np.eye(2, dtype=np.complex128)
    z2 = np.zeros((2, 2), dtype=np.complex128)
    gammas = np.empty((4, 4, 4), dtype=np.complex128)
    gammas[0] = np.block([[i2, z2], [z2, -i2]])
    for i, s in enumerate(_pauli()):
        gammas[i + 1] = np.block([[z2, s], [-s, z2]])
    return gammas


def relation_residuals(g, metric_diag=METRIC_DIAG) -> list[tuple[str, int, int, float]]:
    """Max-abs residual of each defining relation of four 4x4 matrices ``g``.

    Entries ``(check, mu, nu, residual)``: the anticommutators
    ``{g^mu, g^nu} = 2 eta^{munu} I``, the Lorentz algebra of the spin
    generators ``S^{munu} = (i/4)[g^mu, g^nu]``,
    ``[S^{munu}, S^{rhosig}] = i(eta^{nurho} S^{musig} - eta^{murho} S^{nusig}
    - eta^{nusig} S^{murho} + eta^{musig} S^{nurho})`` (worst over rho, sig),
    the product identity
    ``g^nu g^mu = eta^{numu} I + (1/2)[g^nu, g^mu]`` (nu outer) and the
    hermiticity ``(g^mu)^dagger = eta^{mumu} g^mu`` (nu = mu).  All are exactly
    0.0 for a valid set of small-integer matrices; the matrices are not
    validated, so a damaged set shows which relations it breaks.
    """
    g = np.asarray(g, dtype=np.complex128)
    eye = np.eye(4, dtype=np.complex128)
    pairs = [(mu, nu) for mu in range(4) for nu in range(4)]

    def resid(a) -> float:
        return float(np.abs(a).max())

    out = [("anticommutator", mu, nu,
            resid(g[mu] @ g[nu] + g[nu] @ g[mu] - (2 * metric_diag[mu] if mu == nu else 0) * eye))
           for mu, nu in pairs]
    eta = np.diag(metric_diag)
    S = 0.25j * (g[:, None] @ g[None, :] - g[None, :] @ g[:, None])  # S[mu, nu]
    # indexed [mu, nu, rho, sig, row, col]; the worst over (rho, sig) is taken with
    # ndarray.max, which propagates NaN
    lorentz = (S[:, :, None, None] @ S - S @ S[:, :, None, None]
               - 1j * (np.einsum("nr,msij->mnrsij", eta, S) - np.einsum("mr,nsij->mnrsij", eta, S)
                       - np.einsum("ns,mrij->mnrsij", eta, S) + np.einsum("ms,nrij->mnrsij", eta, S)))
    worst = np.abs(lorentz).max(axis=(2, 3, 4, 5))
    out += [("spin_lorentz_algebra", mu, nu, float(worst[mu, nu])) for mu, nu in pairs]
    out += [("product_identity", mu, nu,
             resid(g[nu] @ g[mu] - ((metric_diag[nu] if mu == nu else 0) * eye
                                    + 0.5 * (g[nu] @ g[mu] - g[mu] @ g[nu]))))
            for nu, mu in pairs]
    out += [("hermiticity", mu, mu, resid(g[mu].conj().T - metric_diag[mu] * g[mu]))
            for mu in range(4)]
    return out


@dataclass(frozen=True)
class GammaSet:
    """The four Dirac-representation gamma matrices plus the metric."""

    metric: Metric = MINKOWSKI
    gammas: ArrayC = field(default_factory=_dirac_gammas)

    def __post_init__(self) -> None:
        g = np.asarray(self.gammas, dtype=np.complex128)
        if g.shape != (4, 4, 4):
            raise CliffordError(f"expected four 4x4 matrices, got shape {g.shape}")
        g.setflags(write=False)
        object.__setattr__(self, "gammas", g)
        for check, mu, nu, resid in relation_residuals(g, self.metric.diag):
            if resid != 0.0:  # NaN included
                if check != "hermiticity":
                    raise CliffordError(f"Clifford relation violated at ({mu},{nu})")
                kind = "Hermitian" if self.metric.diag[mu] > 0 else "anti-Hermitian"
                raise CliffordError(f"gamma^{mu} must be {kind}")

    def gamma(self, mu: int) -> ArrayC:
        _check_index(mu)
        return self.gammas[mu]

    def anticommutator(self, mu: int, nu: int) -> ArrayC:
        """{gamma^mu, gamma^nu}; equals 2 eta^{munu} I exactly."""
        _check_index(mu)
        _check_index(nu)
        return self.gammas[mu] @ self.gammas[nu] + self.gammas[nu] @ self.gammas[mu]

    def commutator(self, mu: int, nu: int) -> ArrayC:
        _check_index(mu)
        _check_index(nu)
        return self.gammas[mu] @ self.gammas[nu] - self.gammas[nu] @ self.gammas[mu]

    def spin_tensor(self, mu: int, nu: int) -> ArrayC:
        """sigma^{munu} = (i/2)[gamma^mu, gamma^nu]."""
        return 0.5j * self.commutator(mu, nu)

    def slash(self, v) -> ArrayC:
        """gamma^mu v_mu for a (possibly complex) lower-index four-vector."""
        v = as_four_vector(v)
        return np.tensordot(v, self.gammas, axes=(0, 0))


DIRAC = GammaSet()


def as_four_vector(v) -> ArrayC:
    arr = np.asarray(v, dtype=np.complex128)
    if arr.shape != (4,):
        raise CliffordError(f"four-vector must have shape (4,), got {arr.shape}")
    return arr


def raise_index(v) -> ArrayC:
    """v^mu = eta^{mumu} v_mu (also lowers, since eta is its own inverse)."""
    return METRIC_DIAG * as_four_vector(v)


def mdot(u, v) -> complex:
    """Minkowski product u_mu v^mu of two lower-index vectors (bilinear)."""
    u = as_four_vector(u)
    v = as_four_vector(v)
    return complex(np.sum(METRIC_DIAG * u * v))
