"""Regular periodic spacetime lattice with spectral and fd4 differentiation.

The first ``dims`` coordinates (z^0, z^1, ...) are active; fields are
sampled on a uniform periodic grid over them and are constant along the
remaining coordinates.  The default experiment dimensionality is 1+1.
Axis mu spans [0, extent[mu]) with points[mu] samples, so the mode
numbers n give commensurate wave components k_mu = 2 pi n / extent[mu].

``partial`` differentiates with respect to the coordinate z^mu, i.e. it
returns the lower-index derivative field d_mu f.  The spectral backend
multiplies the transform along axis mu by the symbol i k for a first
derivative and by -k^2 for a second (``dalembertian``), with the Nyquist
entry zeroed in both, so the one-pass second derivative has the symbol of
``partial`` applied twice.  The fd4 backend is the fourth-order central
stencil; its d'Alembertian composes that first-derivative stencil.  Where
both orders are wanted (``_derivatives``), one forward transform per axis
serves them, and each result is the same bits as when computed alone.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .clifford import METRIC_DIAG, as_four_vector


class GridError(ValueError):
    pass


BACKENDS = ("spectral", "fd4")


@dataclass(frozen=True)
class SpacetimeGrid:
    dims: int = 2
    extent: tuple[float, ...] = (2 * np.pi, 2 * np.pi)
    points: tuple[int, ...] = (256, 256)

    def __post_init__(self) -> None:
        if not 1 <= self.dims <= 4:
            raise GridError(f"dims must be 1..4, got {self.dims}")
        object.__setattr__(self, "extent", tuple(float(x) for x in self.extent))
        object.__setattr__(self, "points", tuple(int(n) for n in self.points))
        if len(self.extent) != self.dims or len(self.points) != self.dims:
            raise GridError("extent and points must have one entry per active axis")
        for L in self.extent:
            if L <= 0:
                raise GridError(f"axis extent must be positive, got {L}")
        for n in self.points:
            if n < 8 or (n & (n - 1)) != 0:
                raise GridError(f"points per axis must be a power of two >= 8, got {n}")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / n for L, n in zip(self.extent, self.points))

    def is_active(self, mu: int) -> bool:
        return 0 <= mu < self.dims

    def axis(self, mu: int) -> np.ndarray:
        if not self.is_active(mu):
            raise GridError(f"axis {mu} is inactive on a {self.dims}-dim grid")
        return np.arange(self.points[mu]) * self.spacing[mu]

    def meshes(self) -> list[np.ndarray]:
        return list(np.meshgrid(*(self.axis(mu) for mu in range(self.dims)), indexing="ij"))

    def coords4(self) -> list:
        """All four coordinates; inactive ones are the scalar 0.0."""
        active = self.meshes()
        return [active[mu] if mu < self.dims else 0.0 for mu in range(4)]

    def angular_frequencies(self, mu: int) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(self.points[mu], d=self.spacing[mu])

    def commensurate_wavevector(self, modes) -> np.ndarray:
        """k_mu = 2 pi n_mu / L_mu for integer mode numbers (inactive axes 0)."""
        k = np.zeros(4)
        for mu, n in enumerate(modes):
            if n != 0 and not self.is_active(mu):
                raise GridError(f"nonzero mode on inactive axis {mu}")
            if self.is_active(mu):
                k[mu] = 2 * np.pi * n / self.extent[mu]
        return k


@dataclass(frozen=True)
class Field:
    """Complex scalar (grid.shape) or 4-component spinor ((4,)+grid.shape).

    The values are checked (shape, finiteness) and held read-only.  By
    default they are copied, so the caller's array can change afterwards
    without changing the field; ``copy=False`` adopts an array that no one
    else holds, which is how the library wraps results it just computed.
    """

    grid: SpacetimeGrid
    values: np.ndarray
    copy: InitVar[bool] = field(default=True, kw_only=True)

    def __post_init__(self, copy: bool) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape == self.grid.shape:
            pass
        elif v.shape == (4,) + self.grid.shape:
            pass
        else:
            raise GridError(
                f"field shape {v.shape} matches neither scalar {self.grid.shape} "
                f"nor spinor {(4,) + self.grid.shape}")
        _require_finite(v)
        if copy:
            v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def is_spinor(self) -> bool:
        return self.values.ndim == self.grid.dims + 1

    def __add__(self, other: "Field") -> "Field":
        return Field(self.grid, self.values + other.values, copy=False)

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.grid, self.values - other.values, copy=False)

    def __rmul__(self, c) -> "Field":
        return Field(self.grid, c * self.values, copy=False)


def _require_finite(values: np.ndarray) -> np.ndarray:
    """``values`` itself, once every entry is known to be finite (GridError otherwise)."""
    if not np.all(np.isfinite(values.view(np.float64))):
        raise GridError("field contains non-finite values")
    return values


def l2norm(f: Field) -> float:
    """Root-mean-square magnitude over all components and points."""
    return float(np.sqrt(np.mean(np.abs(f.values) ** 2)))


def _axis_of(f: Field, mu: int) -> int:
    return mu + (1 if f.is_spinor else 0)


def _spectral_symbols(grid: SpacetimeGrid, mu: int) -> tuple[np.ndarray, np.ndarray]:
    """(i k, -k^2) along axis mu, Nyquist entry zeroed (a symmetric convention)."""
    k = grid.angular_frequencies(mu)
    k[grid.points[mu] // 2] = 0.0  # points are powers of two, so there is a Nyquist mode
    return 1j * k, -(k * k)


def _spectral_passes(values: np.ndarray, axis: int, symbols: list[np.ndarray]
                     ) -> list[np.ndarray]:
    """Transform along one array axis once; multiply by each symbol and transform back.

    Every product but the last is a new array; the last is formed in the
    transform's own buffer.
    """
    shape = [1] * values.ndim
    shape[axis] = values.shape[axis]
    fhat = np.fft.fft(values, axis=axis)
    products = [fhat * s.reshape(shape) for s in symbols[:-1]]
    products.append(np.multiply(fhat, symbols[-1].reshape(shape), out=fhat))
    return [np.fft.ifft(p, axis=axis, out=p) for p in products]


def _fd4(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """The fourth-order central first-derivative stencil along one array axis."""
    return (-np.roll(values, -2, axis=axis) + 8 * np.roll(values, -1, axis=axis)
            - 8 * np.roll(values, 1, axis=axis) + np.roll(values, 2, axis=axis)) / (12 * h)


def _axis_derivatives(f: Field, mu: int, backend: str, orders: tuple[int, ...]
                      ) -> list[np.ndarray]:
    """For each order in ``orders``: d_mu f (1) or eta^{mumu} d_mu d_mu f (2).

    The results are fresh writable arrays, unchecked.  Spectral: one forward
    transform serves both orders.  fd4: the second is the first-derivative
    stencil applied to the first.
    """
    if not f.grid.is_active(mu):
        raise GridError(f"cannot differentiate along inactive axis {mu}")
    axis = _axis_of(f, mu)
    if backend == "spectral":
        ik, minus_k2 = _spectral_symbols(f.grid, mu)
        symbols = {1: ik, 2: METRIC_DIAG[mu] * minus_k2}
        return _spectral_passes(f.values, axis, [symbols[n] for n in orders])
    if backend == "fd4":
        h = f.grid.spacing[mu]
        d = _fd4(f.values, axis, h)
        return [d if n == 1 else METRIC_DIAG[mu] * _fd4(d, axis, h) for n in orders]
    raise GridError(f"unknown backend {backend!r}; valid: {BACKENDS}")


def _partial_values(f: Field, mu: int, backend: str = "spectral") -> np.ndarray:
    """The values of ``partial(f, mu, backend)`` as a fresh writable array, unchecked."""
    return _axis_derivatives(f, mu, backend, (1,))[0]


def partial(f: Field, mu: int, backend: str = "spectral") -> Field:
    """d f / d z^mu on the periodic grid (lower-index derivative)."""
    return Field(f.grid, _partial_values(f, mu, backend), copy=False)


def partial_or_zero(f: Field, mu: int, backend: str = "spectral") -> Field:
    """Like ``partial`` but inactive axes return the zero field."""
    if not f.grid.is_active(mu):
        return Field(f.grid, np.zeros_like(f.values), copy=False)
    return partial(f, mu, backend)


def _derivatives(f: Field, backend: str = "spectral", first: bool = True
                 ) -> tuple[list[np.ndarray], np.ndarray]:
    """([d_mu f for each active mu], d^mu d_mu f) as fresh writable arrays, unchecked.

    One forward transform per axis serves both; with ``first=False`` the
    first derivatives are not kept and the list is empty.
    """
    grads, box = [], None
    for mu in range(f.grid.dims):
        *d, dd = _axis_derivatives(f, mu, backend, (1, 2) if first else (2,))
        grads += d
        if box is None:
            box = dd
        else:
            box += dd
    return grads, box


def dalembertian(f: Field, backend: str = "spectral") -> Field:
    """d^mu d_mu f = eta^{munu} d_nu d_mu f over the active axes.

    Spectral: one transform pair per axis, with the symbol eta^{mumu} (-k^2)
    (Nyquist entry zeroed, as in ``partial``).  fd4: the first-derivative
    stencil applied twice along each axis.
    """
    return Field(f.grid, _derivatives(f, backend, first=False)[1], copy=False)


def plane_wave(grid: SpacetimeGrid, k, chi=None, amplitude: complex = 1.0) -> Field:
    """exp(-i k.z) (times a constant bispinor chi, if given).

    k holds lower-index components; its inactive-axis components must
    vanish since the grid cannot represent that dependence.
    """
    k = as_four_vector(k)
    for mu in range(grid.dims, 4):
        if k[mu] != 0:
            raise GridError(f"plane wave needs k[{mu}]=0 on a {grid.dims}-dim grid")
    zs = grid.meshes()
    phase = sum(k[mu] * zs[mu] for mu in range(grid.dims))
    wave = amplitude * np.exp(-1j * phase)
    if chi is None:
        return Field(grid, wave, copy=False)
    chi = np.asarray(chi, dtype=np.complex128).reshape(4)
    return Field(grid, chi.reshape((4,) + (1,) * grid.dims) * wave[np.newaxis], copy=False)


def random_band_limited(grid: SpacetimeGrid, max_mode: int, rng: np.random.Generator,
                        spinor: bool = False) -> Field:
    """Random field whose spectrum is supported on modes |n_mu| <= max_mode.

    Each component draws its (2 max_mode + 1)^dims block of spectral
    coefficients in turn.  The inverse transform runs axis by axis, last
    axis first as ``np.fft.ifftn`` does, and each pass transforms only the
    lines whose untransformed indices lie in the mode window; every other
    line is zero before and after, so the result equals the dense ifftn.
    """
    for n, L in zip(grid.points, grid.extent):
        if max_mode >= n // 2:
            raise GridError(f"max_mode {max_mode} reaches the Nyquist mode of {n} points")
    ncomp = 4 if spinor else 1
    block_shape = tuple(2 * max_mode + 1 for _ in range(grid.dims))
    values = np.stack([rng.standard_normal(block_shape) + 1j * rng.standard_normal(block_shape)
                       for _ in range(ncomp)])
    for mu in reversed(range(grid.dims)):
        n = grid.points[mu]
        padded = np.zeros(values.shape[:mu + 1] + (n,) + values.shape[mu + 2:],
                          dtype=np.complex128)
        padded[(slice(None),) * (mu + 1) + (np.r_[0:max_mode + 1, n - max_mode:n],)] = values
        values = np.fft.ifft(padded, axis=mu + 1, out=padded)
    values *= np.sqrt(np.prod(grid.shape))
    return Field(grid, values if spinor else values[0], copy=False)
