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
both orders are wanted (``_derivatives``, on a field's array), one forward
transform per axis serves them, and each result is the same bits as when
computed alone.  ``band_limited_jet`` draws a random band-limited spinor with
its first derivatives and d'Alembertian, with no ``Field``: spectral ones come
from the drawn spectrum itself, with no forward transform, and fd4 ones from
the stencil on the drawn array.  Each is an array, except that a spectral first
derivative past axis 0 given a buffer of one component is a ``ModeComponents``:
the mode block, synthesized one spinor component at a time into that buffer
when read, with the bits of the whole array.  ``ModeComponents`` re-draws phi
itself the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    The values are copied, checked (shape, finiteness) and held read-only, so
    the caller's array can change afterwards without changing the field.
    """

    grid: SpacetimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=np.complex128)
        if v.shape not in (self.grid.shape, (4,) + self.grid.shape):
            raise GridError(
                f"field shape {v.shape} matches neither scalar {self.grid.shape} "
                f"nor spinor {(4,) + self.grid.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", _require_finite(v))

    @property
    def is_spinor(self) -> bool:
        return self.values.ndim == self.grid.dims + 1

    def __add__(self, other: "Field") -> "Field":
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        return Field(self.grid, self.values - other.values)

    def __rmul__(self, c) -> "Field":
        return Field(self.grid, c * self.values)


def _require_finite(values: np.ndarray) -> np.ndarray:
    """``values`` itself, once every entry is known to be finite (GridError otherwise)."""
    if not np.all(np.isfinite(values.view(np.float64))):
        raise GridError("field contains non-finite values")
    return values


def _rms(values: np.ndarray, scratch: np.ndarray | None = None) -> float:
    """Root-mean-square magnitude of an array; the moduli go in ``scratch`` (real, of
    the same shape) when given.

    Where the mean square overflows but the largest modulus ``top`` is finite, the
    value is ``top * sqrt(mean((|x| / top)^2))``; a finite mean square takes no
    further pass.
    """
    mod = np.abs(values, out=scratch)
    with np.errstate(over="ignore"):
        value = float(np.sqrt(np.mean(np.square(mod, out=mod))))
    if not np.isfinite(value):
        top = np.abs(values, out=mod).max()
        if np.isfinite(top):
            np.divide(mod, top, out=mod)
            value = float(top * np.sqrt(np.mean(np.square(mod, out=mod))))
    return value


def l2norm(f: Field) -> float:
    """Root-mean-square magnitude over all components and points."""
    return _rms(f.values)


def _spectral_symbols(grid: SpacetimeGrid, mu: int) -> tuple[np.ndarray, np.ndarray]:
    """(i k, -k^2) along axis mu, Nyquist entry zeroed (a symmetric convention)."""
    k = grid.angular_frequencies(mu)
    k[grid.points[mu] // 2] = 0.0  # points are powers of two, so there is a Nyquist mode
    return 1j * k, -(k * k)


def _spectral_passes(values: np.ndarray, axis: int, symbols: list[np.ndarray],
                     out: np.ndarray | None = None) -> list[np.ndarray]:
    """Transform along one array axis once; multiply by each symbol and transform back.

    Every product but the last is a new array; the last is formed in the
    transform's own buffer, which is ``out`` when given.
    """
    shape = [1] * values.ndim
    shape[axis] = values.shape[axis]
    fhat = np.fft.fft(values, axis=axis, out=out)
    products = [fhat * s.reshape(shape) for s in symbols[:-1]]
    products.append(np.multiply(fhat, symbols[-1].reshape(shape), out=fhat))
    return [np.fft.ifft(p, axis=axis, out=p) for p in products]


def _fd4(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """The fourth-order central first-derivative stencil along one array axis, with
    f[i-2] .. f[i+2] read as slices of one copy of ``values`` wrapped by two rows
    at each end."""
    n = values.shape[axis]
    cut = (slice(None),) * axis
    padded = np.concatenate((values[cut + (slice(n - 2, n),)], values,
                             values[cut + (slice(0, 2),)]), axis=axis)
    f = [padded[cut + (slice(lo, lo + n),)] for lo in range(5)]  # f[i-2] .. f[i+2]
    return (-f[4] + 8 * f[3] - 8 * f[1] + f[0]) / (12 * h)


def _axis_derivatives(values: np.ndarray, grid: SpacetimeGrid, mu: int, backend: str,
                      orders: tuple[int, ...], out: np.ndarray | None = None
                      ) -> list[np.ndarray]:
    """For each order in ``orders``: d_mu f (1) or eta^{mumu} d_mu d_mu f (2).

    ``values`` holds a field, or one spinor component of it: its last
    ``grid.dims`` axes are the grid's.  The results are writable arrays,
    unchecked.  Spectral: one forward transform serves both orders, and the
    last result is formed in ``out`` when given.  fd4: the second is the
    first-derivative stencil applied to the first; ``out`` is not used.
    """
    if not grid.is_active(mu):
        raise GridError(f"cannot differentiate along inactive axis {mu}")
    axis = values.ndim - grid.dims + mu
    if backend == "spectral":
        ik, minus_k2 = _spectral_symbols(grid, mu)
        symbols = {1: ik, 2: METRIC_DIAG[mu] * minus_k2}
        return _spectral_passes(values, axis, [symbols[n] for n in orders], out)
    if backend == "fd4":
        h = grid.spacing[mu]
        d = _fd4(values, axis, h)
        return [d if n == 1 else METRIC_DIAG[mu] * _fd4(d, axis, h) for n in orders]
    raise GridError(f"unknown backend {backend!r}; valid: {BACKENDS}")


def _partial_values(values: np.ndarray, grid: SpacetimeGrid, mu: int,
                    backend: str = "spectral", out: np.ndarray | None = None) -> np.ndarray:
    """d_mu of a field's values, or of one spinor component (see ``_axis_derivatives``)."""
    return _axis_derivatives(values, grid, mu, backend, (1,), out)[0]


def partial(f: Field, mu: int, backend: str = "spectral") -> Field:
    """d f / d z^mu on the periodic grid (lower-index derivative)."""
    return Field(f.grid, _partial_values(f.values, f.grid, mu, backend))


def partial_or_zero(f: Field, mu: int, backend: str = "spectral") -> Field:
    """Like ``partial`` but inactive axes return the zero field."""
    if not f.grid.is_active(mu):
        return Field(f.grid, np.zeros_like(f.values))
    return partial(f, mu, backend)


def _derivatives(values: np.ndarray, grid: SpacetimeGrid, backend: str = "spectral",
                 first: bool = True) -> tuple[list[np.ndarray], np.ndarray]:
    """([d_mu f for each active mu], d^mu d_mu f) of a field's values as fresh writable
    arrays, unchecked.

    One forward transform per axis serves both; with ``first=False`` the
    first derivatives are not kept and the list is empty.
    """
    grads, box = [], None
    for mu in range(grid.dims):
        *d, dd = _axis_derivatives(values, grid, mu, backend, (1, 2) if first else (2,))
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
    return Field(f.grid, _derivatives(f.values, f.grid, backend, first=False)[1])


def plane_wave(grid: SpacetimeGrid, k, chi=None) -> Field:
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
    wave = np.exp(-1j * phase)
    if chi is None:
        return Field(grid, wave)
    chi = np.asarray(chi, dtype=np.complex128).reshape(4)
    return Field(grid, chi.reshape((4,) + (1,) * grid.dims) * wave[np.newaxis])


def _mode_window(n: int, max_mode: int) -> np.ndarray:
    """The transform indices of the modes -max_mode..max_mode on an axis of n points."""
    return np.r_[0:max_mode + 1, n - max_mode:n]


def _mode_block(grid: SpacetimeGrid, max_mode: int, rng: np.random.Generator,
                ncomp: int) -> np.ndarray:
    """ncomp components, each drawing its (2 max_mode + 1)^dims spectral coefficients in turn."""
    for n in grid.points:
        if max_mode >= n // 2:
            raise GridError(f"max_mode {max_mode} reaches the Nyquist mode of {n} points")
    block_shape = tuple(2 * max_mode + 1 for _ in range(grid.dims))
    return np.stack([rng.standard_normal(block_shape) + 1j * rng.standard_normal(block_shape)
                     for _ in range(ncomp)])


def _pruned_ifft(block: np.ndarray, grid: SpacetimeGrid, max_mode: int, axes,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The inverse transform of a mode block, one pass per grid axis in the order ``axes``.

    Each pass pads its axis to full length, the block's modes going to
    ``_mode_window``, and transforms only the lines whose untransformed
    indices lie in the window; every other line is zero before and after, so
    the result equals the dense ifftn.  Only the last pass spans the whole
    grid.  Given ``out``, a spinor buffer, it is formed there one component at a
    time, each padded and transformed while its part of ``out`` is in cache; the
    bits are those of one pass over all four.
    """
    values = block
    for i, mu in enumerate(axes):
        n, axis = grid.points[mu], values.ndim - grid.dims + mu
        window = (slice(None),) * axis + (_mode_window(n, max_mode),)
        if out is not None and i == grid.dims - 1:
            for part, modes in zip(out, values):
                part.fill(0)
                part[window[1:]] = modes
                np.fft.ifft(part, axis=axis - 1, out=part)
            return out
        padded = np.zeros(values.shape[:axis] + (n,) + values.shape[axis + 1:],
                          dtype=np.complex128)
        padded[window] = values
        values = np.fft.ifft(padded, axis=axis, out=padded)
    return values


def _synthesized(block: np.ndarray, grid: SpacetimeGrid, max_mode: int,
                 factor: np.ndarray | None, out: np.ndarray | None = None) -> np.ndarray:
    """The array of a mode block: with ``factor`` None the field itself, by pruned passes
    last axis first (as ``np.fft.ifftn`` goes) and then scaled by sqrt(points); otherwise
    the array of ``block * factor``, axis 0 first, so that the one full pass runs along
    the contiguous last axis.  Formed in ``out`` when given (see ``_pruned_ifft``)."""
    if factor is None:
        values = _pruned_ifft(block, grid, max_mode, reversed(range(grid.dims)), out)
        values *= np.sqrt(np.prod(grid.shape))
        return values
    return _pruned_ifft(block * factor, grid, max_mode, range(grid.dims), out)


def random_band_limited(grid: SpacetimeGrid, max_mode: int, rng: np.random.Generator,
                        spinor: bool = False) -> Field:
    """Random field whose spectrum is supported on modes |n_mu| <= max_mode.

    Each component draws its (2 max_mode + 1)^dims block of spectral
    coefficients in turn.  The inverse transform runs as pruned passes, last
    axis first as ``np.fft.ifftn`` does, and equals the dense ifftn.
    """
    values = _synthesized(_mode_block(grid, max_mode, rng, 4 if spinor else 1), grid,
                          max_mode, None)
    return Field(grid, values if spinor else values[0])


def spinor_modes(grid: SpacetimeGrid, max_mode: int, rng: np.random.Generator) -> np.ndarray:
    """The mode block of a random spinor: the draws that ``random_band_limited(grid,
    max_mode, rng, spinor=True)`` and ``band_limited_jet`` take, in their order."""
    return _mode_block(grid, max_mode, rng, 4)


@dataclass(frozen=True, eq=False)
class ModeComponents:
    """A spinor array kept as its mode block and synthesized one component at a time.

    ``components[b]`` forms component b in ``buf`` (an array of ``grid.shape``,
    overwritten on every read) and returns ``buf``; it is component b of the
    whole array that ``band_limited_jet`` forms from ``block`` with ``factor``
    (None for phi itself), bit for bit.
    """

    grid: SpacetimeGrid
    max_mode: int
    block: np.ndarray
    factor: np.ndarray | None
    buf: np.ndarray

    def __getitem__(self, b: int) -> np.ndarray:
        _synthesized(self.block[b:b + 1], self.grid, self.max_mode, self.factor,
                     self.buf[np.newaxis])
        return self.buf


def band_limited_jet(grid: SpacetimeGrid, max_mode: int, rng: np.random.Generator,
                     backend: str = "spectral", out: list[np.ndarray] | None = None
                     ) -> tuple[np.ndarray, list, np.ndarray]:
    """A random spinor phi with its derivatives: (phi, [d_mu phi, active mu], d^mu d_mu phi).

    phi takes the draws of ``random_band_limited(grid, max_mode, rng,
    spinor=True)`` and has its bits; it is checked finite and the derivatives
    are not.  ``out`` holds dims + 2 buffers, filled in the order phi, d_0 phi,
    ..., box; without it the arrays are new.  Each buffer is spinor-shaped,
    except that a first derivative past axis 0 may take one of ``grid.shape``;
    with the spectral backend that derivative is then a ``ModeComponents``
    reading into it, so several may share one buffer.  Any other count or shape
    is a GridError.  Spectral:
    each derivative is synthesized from phi's mode block times its symbol (i
    k_mu, or the sum of eta^{mumu} (-k_mu^2)); they agree with
    ``_derivatives(phi, grid, "spectral")`` up to rounding.  fd4: phi goes in
    ``out[0]`` and the derivatives are ``_derivatives(phi, grid, "fd4")``, new
    arrays, since the stencil is what the fd4 backend verifies.
    """
    if backend not in BACKENDS:
        raise GridError(f"unknown backend {backend!r}; valid: {BACKENDS}")
    spinor = (4,) + grid.shape
    if out is not None and (len(out) != grid.dims + 2 or any(
            buf.shape != spinor and not (2 <= k <= grid.dims and buf.shape == grid.shape)
            for k, buf in enumerate(out))):
        raise GridError(f"out needs {grid.dims + 2} buffers (phi, d_0 phi .. d_{grid.dims - 1} "
                        f"phi, box) of shape {spinor}, or {grid.shape} for a first derivative "
                        f"past axis 0; got shapes {[buf.shape for buf in out]}")
    bufs = out if out is not None else [None] * (grid.dims + 2)
    block = spinor_modes(grid, max_mode, rng)
    phi = _require_finite(_synthesized(block, grid, max_mode, None, bufs[0]))
    if backend == "fd4":
        return (phi, *_derivatives(phi, grid, "fd4"))
    scale = np.sqrt(np.prod(grid.shape))
    factors, box = [], 0.0
    for mu in range(grid.dims):
        ik, minus_k2 = (s[_mode_window(grid.points[mu], max_mode)].reshape(
            (-1,) + (1,) * (grid.dims - 1 - mu)) for s in _spectral_symbols(grid, mu))
        factors.append(scale * ik)
        box = box + METRIC_DIAG[mu] * minus_k2
    factors.append(scale * box)
    derived = [ModeComponents(grid, max_mode, block, f, buf)
               if buf is not None and buf.shape == grid.shape
               else _synthesized(block, grid, max_mode, f, buf)
               for f, buf in zip(factors, bufs[1:])]
    return phi, derived[:-1], derived[-1]
