"""Property tests of the potential families over random catalog parameters."""

import numpy as np
from hypothesis import given, settings, strategies as st

from diracsoc import emfield
from diracsoc.emfield import (field_strength, is_lorenz_gauge, lorenz_residual,
                              potential_jacobian)
from test_emfield import fd_field_strength, fd_jacobian

PROPERTY = settings(max_examples=60, deadline=None)

# coefficients are multiples of 1/8, so divergence coefficients cancel exactly or not at all
COEF = st.integers(-8, 8).filter(bool).map(lambda n: n / 8)
EXPONENTS = st.tuples(*[st.integers(0, 3)] * 4).filter(lambda e: sum(e) <= 3)
# (p, e2) of a cancelling pair below, whose terms have degree 2p + 1 + e2 <= 3
PAIRS = st.sampled_from([(0, 0), (0, 1), (0, 2), (1, 0)])


def _key(mu, exps):
    return f"a{mu}_" + "".join(map(str, exps))


@st.composite
def polynomial_potentials(draw):
    """custom_polynomial of degree <= 3, sometimes with pairs whose divergences cancel."""
    terms = {}
    for mu, exps, c in draw(st.lists(st.tuples(st.integers(0, 3), EXPONENTS, COEF),
                                     max_size=4)):
        terms[_key(mu, exps)] = c
    # A_0 = c z^0 z^e and A_1 = c z^1 z^e with e_0 = e_1 give d_0 A^0 + d_1 A^1 = 0
    for (p, e2), c in draw(st.lists(st.tuples(PAIRS, COEF), max_size=2)):
        terms[_key(0, (p + 1, p, e2, 0))] = c
        terms[_key(1, (p, p + 1, e2, 0))] = c
    return emfield.custom_polynomial(terms)


def _points(n=3, seed=0):
    rng = np.random.default_rng(seed)
    return [list(rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)) for _ in range(n)]


@PROPERTY
@given(polynomial_potentials())
def test_polynomial_jacobian_matches_fourth_order_differences(spec):
    # the fourth-order stencil is exact for degree <= 4, so only rounding remains
    for z in _points():
        J = potential_jacobian(spec, z)
        Jfd = fd_jacobian(spec, z, h=1e-2, order=4)
        assert np.abs(J - Jfd).max() <= 1e-11
        F = field_strength(spec, z)
        Ffd = fd_field_strength(spec, z, h=1e-2, order=4)
        assert np.abs(F - Ffd).max() <= 1e-11


@PROPERTY
@given(polynomial_potentials())
def test_lorenz_gauge_iff_divergence_vanishes(spec):
    vanishes = all(abs(lorenz_residual(spec, z)) <= 1e-12 for z in _points(seed=1))
    assert is_lorenz_gauge(spec) == vanishes


@PROPERTY
@given(st.lists(st.sampled_from([0.0, 1.0, -2.0, 0.5, 3.0]), min_size=4, max_size=4),
       st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       st.floats(-np.pi, np.pi))
def test_cosine_wave_varies_along_nonzero_k(k, eps, phase):
    wave = emfield.custom_wave(eps, k, phase).family
    assert [wave.varies_along(mu) for mu in range(4)] == [k[mu] != 0 for mu in range(4)]
