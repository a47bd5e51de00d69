"""Symbolic witness of the diffusion generator.

For each polynomial of ``soc.BATTERY``, sympy derives

    G f = w_mu df/dz_mu + 1/2 sum_mu sigma_mu^2 d2f/dz_mu^2

from the polynomial and from the diffusion amplitudes
sigma_mu = sqrt(hbar/m) (1 + i eps) x (1 for mu = 0, i otherwise), squared
exactly.  The drifts are taken as the exact rationals of their doubles, so at
z0 = 0 the generator's ``exact`` value must equal the symbolic one bit for bit.
"""

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")

from diracsoc import soc  # noqa: E402
from diracsoc.constants import PhysicalConstants  # noqa: E402
from diracsoc.emfield import Polynomial  # noqa: E402

Z = sympy.symbols("z0:4")
DRIFTS = {"battery": (0.3, -0.2, 0.1, 0.05), "zero": (0.0, 0.0, 0.0, 0.0)}
# dyadic rationals, so the double z0 is the symbolic point exactly
NONZERO_Z0 = (0.5, -0.25, 0.375, 1.125)


def symbolic_generator(f: Polynomial, drift, consts: PhysicalConstants, z0) -> complex:
    """G f at z0 in exact arithmetic, rounded once to a complex double."""
    poly = sum(sympy.Rational(c) * sympy.Mul(*(z ** e for z, e in zip(Z, exps)))
               for exps, c in f.terms.items())
    eps = sympy.Integer(consts.epsilon)
    rho = sympy.sqrt(sympy.Rational(consts.hbar) / sympy.Rational(consts.m)) * (1 + sympy.I * eps)
    sigma = [rho, sympy.I * rho, sympy.I * rho, sympy.I * rho]
    g = sum(sympy.Rational(w) * sympy.diff(poly, z) + sympy.Rational(1, 2) * s ** 2
            * sympy.diff(poly, z, 2) for w, z, s in zip(drift, Z, sigma))
    value = sympy.expand(g.subs({z: sympy.Rational(x) for z, x in zip(Z, z0)}))
    re, im = value.as_real_imag()
    return complex(float(re), float(im))


def numeric_generator(f, drift, consts, z0) -> complex:
    return soc.generator_check(f, drift, consts, ds=1e-3, n_paths=2, seed=1,
                               z0=np.array(z0, dtype=np.complex128)).exact


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("drift", sorted(DRIFTS))
@pytest.mark.parametrize("index", range(len(soc.BATTERY)))
def test_generator_exact_matches_symbolic(index, drift, eps):
    f = soc.BATTERY[index][1]
    consts = PhysicalConstants(epsilon=eps)
    at_origin = (0.0, 0.0, 0.0, 0.0)
    assert numeric_generator(f, DRIFTS[drift], consts, at_origin) \
        == symbolic_generator(f, DRIFTS[drift], consts, at_origin)
    want = symbolic_generator(f, DRIFTS[drift], consts, NONZERO_Z0)
    got = numeric_generator(f, DRIFTS[drift], consts, NONZERO_Z0)
    assert abs(got - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("eps", [1, -1])
def test_battery_exact_values_match_symbolic(eps):
    # each report against the symbolic generator under the drift of its table row
    consts = PhysicalConstants(epsilon=eps)
    reports = soc.run_generator_battery(consts, ds=1e-3, n_paths=2, seed=12345)
    assert len(reports) == len(soc.BATTERY)
    for (_, f, drift), rpt in zip(soc.BATTERY, reports):
        assert rpt.exact == symbolic_generator(f, drift, consts, (0.0, 0.0, 0.0, 0.0))
