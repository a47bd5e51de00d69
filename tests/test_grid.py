import numpy as np
import pytest

from diracsoc.clifford import mdot
from diracsoc.grid import (Field, GridError, SpacetimeGrid, _derivatives, band_limited_jet,
                           dalembertian, l2norm, partial, partial_or_zero, plane_wave,
                           random_band_limited)

GRID = SpacetimeGrid(dims=2, extent=(2 * np.pi, 2 * np.pi), points=(64, 64))


def rel_err(got, want):
    return np.abs(got - want).max() / max(np.abs(want).max(), 1e-300)


def test_grid_validation():
    with pytest.raises(GridError):
        SpacetimeGrid(dims=0, extent=(), points=())
    with pytest.raises(GridError):
        SpacetimeGrid(dims=1, extent=(1.0,), points=(100,))  # not a power of two
    with pytest.raises(GridError):
        SpacetimeGrid(dims=1, extent=(1.0,), points=(4,))  # too few points
    with pytest.raises(GridError):
        SpacetimeGrid(dims=2, extent=(1.0,), points=(8, 8))


@pytest.mark.parametrize("backend", ["spectral", "fd4"])
@pytest.mark.parametrize("mu", [0, 1])
def test_plane_wave_derivative(backend, mu):
    k = GRID.commensurate_wavevector([3, -2])
    f = plane_wave(GRID, k)
    df = partial(f, mu, backend)
    want = -1j * k[mu] * f.values
    tol = 1e-10 if backend == "spectral" else 1e-2
    assert rel_err(df.values, want) <= tol


def test_constant_field_derivative_is_zero():
    f = Field(GRID, np.full(GRID.shape, 2.3 + 1j))
    for backend in ("spectral", "fd4"):
        for mu in (0, 1):
            assert np.abs(partial(f, mu, backend).values).max() <= 1e-13


def test_fd4_convergence_order():
    k_modes = [3, -2]
    errs = []
    hs = []
    for n in (32, 64, 128):
        g = SpacetimeGrid(dims=2, extent=(2 * np.pi, 2 * np.pi), points=(n, n))
        k = g.commensurate_wavevector(k_modes)
        f = plane_wave(g, k)
        df = partial(f, 1, "fd4")
        errs.append(np.abs(df.values - (-1j * k[1]) * f.values).max())
        hs.append(g.spacing[1])
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert abs(slope - 4.0) <= 0.3


def test_linearity():
    rng = np.random.default_rng(4)
    f = random_band_limited(GRID, 6, rng)
    g = random_band_limited(GRID, 6, rng)
    a, b = 1.7 - 0.3j, -0.4 + 2.1j
    for backend in ("spectral", "fd4"):
        lhs = partial(Field(GRID, a * f.values + b * g.values), 0, backend).values
        rhs = a * partial(f, 0, backend).values + b * partial(g, 0, backend).values
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_mixed_partials_commute():
    rng = np.random.default_rng(8)
    f = random_band_limited(GRID, 6, rng)
    d01 = partial(partial(f, 0), 1).values
    d10 = partial(partial(f, 1), 0).values
    assert np.abs(d01 - d10).max() <= 1e-10 * np.abs(d01).max()


def test_dalembertian_plane_wave_eigenvalue():
    k = GRID.commensurate_wavevector([2, 3])
    f = plane_wave(GRID, k)
    want = -mdot(k, k) * f.values
    assert rel_err(dalembertian(f).values, want) <= 1e-10


def test_dalembertian_constant_is_zero():
    f = Field(GRID, np.full(GRID.shape, 1.0 + 0.5j))
    assert np.abs(dalembertian(f).values).max() <= 1e-13


def test_dalembertian_superposition():
    k1 = GRID.commensurate_wavevector([1, 2])
    k2 = GRID.commensurate_wavevector([-3, 1])
    f1, f2 = plane_wave(GRID, k1), plane_wave(GRID, k2)
    mix = Field(GRID, 0.7 * f1.values + 1.9j * f2.values)
    want = -mdot(k1, k1) * 0.7 * f1.values - mdot(k2, k2) * 1.9j * f2.values
    assert rel_err(dalembertian(mix).values, want) <= 1e-10


def test_inactive_axis_errors():
    f = plane_wave(GRID, GRID.commensurate_wavevector([1, 0]))
    with pytest.raises(GridError):
        partial(f, 2)
    assert np.abs(partial_or_zero(f, 2).values).max() == 0.0
    with pytest.raises(GridError):
        plane_wave(GRID, [1.0, 0.0, 0.5, 0.0])


def test_nonfinite_rejected():
    v = np.zeros(GRID.shape, dtype=complex)
    v[0, 0] = np.nan
    with pytest.raises(GridError):
        Field(GRID, v)


def test_spinor_field_shape_and_derivative():
    k = GRID.commensurate_wavevector([1, 1])
    chi = np.array([1.0, 0.5j, -0.25, 0.0])
    psi = plane_wave(GRID, k, chi=chi)
    assert psi.is_spinor and psi.values.shape == (4,) + GRID.shape
    dpsi = partial(psi, 0)
    assert rel_err(dpsi.values, -1j * k[0] * psi.values) <= 1e-10


def test_random_band_limited_spectrum_confined():
    rng = np.random.default_rng(13)
    f = random_band_limited(GRID, 5, rng)
    spec = np.fft.fftn(f.values)
    mask = np.ones(GRID.shape, dtype=bool)
    idx = np.r_[0:6, -5:0]
    mask[np.ix_(idx, idx)] = False
    assert np.abs(spec[mask]).max() <= 1e-10 * np.abs(spec).max()
    with pytest.raises(GridError):
        random_band_limited(GRID, 32, rng)


BAND_LIMITED_SHAPES = [((256, 256), 8), ((64, 64), 3), ((32, 32, 8), 2), ((16,), 5),
                       ((8, 8, 8, 8), 1)]


def _naive_band_limited(grid, max_mode, rng, spinor):
    # per component: the dense spectrum, one ifftn, scaled by sqrt(N)
    window = np.r_[0:max_mode + 1, -max_mode:0]
    block_shape = (2 * max_mode + 1,) * grid.dims
    comps = []
    for _ in range(4 if spinor else 1):
        spec = np.zeros(grid.shape, dtype=np.complex128)
        spec[np.ix_(*[window] * grid.dims)] = (rng.standard_normal(block_shape)
                                               + 1j * rng.standard_normal(block_shape))
        comps.append(np.fft.ifftn(spec) * np.sqrt(np.prod(grid.shape)))
    return np.stack(comps) if spinor else comps[0]


@pytest.mark.parametrize("spinor", [False, True])
@pytest.mark.parametrize("points,max_mode", BAND_LIMITED_SHAPES)
def test_random_band_limited_equals_dense_ifftn(points, max_mode, spinor):
    grid = SpacetimeGrid(dims=len(points), extent=(2 * np.pi,) * len(points), points=points)
    got = random_band_limited(grid, max_mode, np.random.default_rng(17), spinor=spinor)
    want = _naive_band_limited(grid, max_mode, np.random.default_rng(17), spinor)
    assert np.array_equal(got.values, want)


@pytest.mark.parametrize("points,max_mode", BAND_LIMITED_SHAPES)
def test_band_limited_jet_is_the_field_with_its_derivatives(points, max_mode):
    # phi and the generator state after the draw equal random_band_limited's bit for bit.
    # Spectral: each derivative agrees with _derivatives(phi) within eps log2(N) K max|phi|,
    # K being the symbol's largest value on the grid (|k| at the Nyquist mode for d_mu, the
    # sum of those k^2 for the box): _derivatives takes phi's own rounding, spread over
    # every mode, up to K.  fd4: the jet is _derivatives(phi, grid, "fd4") bit for bit.
    grid = SpacetimeGrid(dims=len(points), extent=(2 * np.pi,) * len(points), points=points)
    rng_field, rng_jet = np.random.default_rng(17), np.random.default_rng(17)
    field = random_band_limited(grid, max_mode, rng_field, spinor=True)
    nyquist = [np.pi * n / L for n, L in zip(grid.points, grid.extent)]
    for backend in ("spectral", "fd4"):
        state = rng_jet.bit_generator.state
        phi, dphi, box = band_limited_jet(grid, max_mode, rng_jet, backend)
        assert np.array_equal(phi, field.values)
        assert rng_jet.bit_generator.state == rng_field.bit_generator.state
        rng_jet.bit_generator.state = state
        want_dphi, want_box = _derivatives(field.values, grid, backend)
        assert len(dphi) == grid.dims
        if backend == "fd4":
            assert all(np.array_equal(got, want) for got, want in zip(dphi + [box],
                                                                      want_dphi + [want_box]))
            continue
        scale = np.finfo(float).eps * np.log2(np.prod(points)) * np.abs(phi).max()
        for got, want, k in zip(dphi + [box], want_dphi + [want_box],
                                nyquist + [sum(k * k for k in nyquist)]):
            assert np.abs(got - want).max() <= k * scale


def test_band_limited_jet_fills_the_given_buffers():
    # spectral: phi, the derivatives and the box land in the buffers, in that order, with
    # the bits of a jet drawn into new arrays; whatever the buffers held is overwritten
    shape = (4,) + GRID.shape
    bufs = [np.full(shape, np.nan + 1j) for _ in range(GRID.dims + 2)]
    phi, dphi, box = band_limited_jet(GRID, 5, np.random.default_rng(3), out=bufs)
    assert all(got is buf for got, buf in zip([phi, *dphi, box], bufs))
    want = band_limited_jet(GRID, 5, np.random.default_rng(3))
    assert np.array_equal(phi, want[0]) and np.array_equal(box, want[2])
    assert all(np.array_equal(got, w) for got, w in zip(dphi, want[1]))
    with pytest.raises(GridError):
        band_limited_jet(GRID, 32, np.random.default_rng(3))
    with pytest.raises(GridError):
        band_limited_jet(GRID, 5, np.random.default_rng(3), backend="fd2")


def test_field_norm_and_immutability():
    f = plane_wave(GRID, GRID.commensurate_wavevector([1, 0]))
    assert l2norm(f) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        f.values[0, 0] = 0


def test_field_boundary_contract():
    # the public constructor copies: changing the source later leaves the field alone
    src = np.ones((4,) + GRID.shape, dtype=complex)
    f = Field(GRID, src)
    src[0, 0, 0] = 5.0
    assert f.values[0, 0, 0] == 1.0
    assert not f.values.flags.writeable
    assert not np.shares_memory(f.values, src)
    for copy in (True, False):
        with pytest.raises(GridError):
            Field(GRID, np.ones((3,) + GRID.shape), copy=copy)
        with pytest.raises(GridError):
            Field(GRID, np.ones(GRID.shape[:1]), copy=copy)
        bad = np.ones(GRID.shape, dtype=complex)
        bad[1, 2] = complex(0.0, np.inf)
        with pytest.raises(GridError):
            Field(GRID, bad, copy=copy)


def test_grid_outputs_are_read_only_and_unaliased():
    rng = np.random.default_rng(17)
    f = random_band_limited(GRID, 5, rng, spinor=True)
    g = plane_wave(GRID, GRID.commensurate_wavevector([1, 2]), chi=[1.0, 0.0, 0.5j, 0.0])
    outputs = [f, g, partial(f, 0), partial(f, 1, "fd4"), partial_or_zero(f, 3),
               dalembertian(f), dalembertian(f, "fd4"), f + g, f - g, 2.0 * f,
               plane_wave(GRID, GRID.commensurate_wavevector([1, 0])),
               random_band_limited(GRID, 3, rng)]
    for out in outputs:
        assert not out.values.flags.writeable
    for out in outputs[2:10]:
        assert not np.shares_memory(out.values, f.values)
        assert not np.shares_memory(out.values, g.values)
