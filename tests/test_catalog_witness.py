"""Bitwise witness for the potential catalog and the generator battery's polynomials.

The references below write out each catalog entry's formula term by term,
in the order the library sums the terms, so any change to how the library
evaluates a potential, its Jacobian or a test polynomial must reproduce
these arrays exactly.  Potentials and Jacobians are compared by value: the
library adds every polynomial component to a zero array, which turns a
-0.0 of the degree-1 references into +0.0, and the suites read A only
through norms.  The test functions are compared bit for bit, because their
values reach the JSON-lines output, where -0 and 0 print differently.
"""

import numpy as np
import pytest

from diracsoc import emfield
from diracsoc.emfield import evaluate_potential, potential_jacobian
from diracsoc.grid import SpacetimeGrid
from diracsoc.soc import BATTERY


def _poly_key(key):
    return int(key[1]), tuple(int(c) for c in key[3:])


def reference_potential(name, params, z):
    zs = list(np.broadcast_arrays(*[np.asarray(z[mu], dtype=np.complex128) for mu in range(4)]))
    shape = zs[0].shape
    A = np.zeros((4,) + shape, dtype=np.complex128)
    if name == "constant_electric":
        A[0] = -params["E"] * zs[1]
    elif name == "constant_magnetic":
        A[1] = -0.5 * params["B"] * zs[2]
        A[2] = 0.5 * params["B"] * zs[1]
    elif name in ("em_plane_wave", "custom_wave"):
        eps = np.array([params[f"eps{mu}"] for mu in range(4)], dtype=float)
        k = np.array([params[f"k{mu}"] for mu in range(4)], dtype=float)
        kz = sum(k[mu] * zs[mu] for mu in range(4)) + params.get("phase", 0.0)
        c = np.cos(kz)
        for mu in range(4):
            if eps[mu] != 0.0:
                A[mu] = eps[mu] * c
    elif name == "custom_polynomial":
        for key, coef in params.items():
            mu, exps = _poly_key(key)
            term = np.full(shape, complex(coef))
            for nu, p in enumerate(exps):
                if p:
                    term = term * zs[nu] ** p
            A[mu] = A[mu] + term
    return A


def reference_jacobian(name, params, z):
    zs = list(np.broadcast_arrays(*[np.asarray(z[mu], dtype=np.complex128) for mu in range(4)]))
    shape = zs[0].shape
    J = np.zeros((4, 4) + shape, dtype=np.complex128)
    if name == "constant_electric":
        J[1, 0] = -params["E"]
    elif name == "constant_magnetic":
        J[2, 1] = -0.5 * params["B"]
        J[1, 2] = 0.5 * params["B"]
    elif name in ("em_plane_wave", "custom_wave"):
        eps = np.array([params[f"eps{mu}"] for mu in range(4)], dtype=float)
        k = np.array([params[f"k{mu}"] for mu in range(4)], dtype=float)
        kz = sum(k[mu] * zs[mu] for mu in range(4)) + params.get("phase", 0.0)
        s = np.sin(kz)
        for mu in range(4):
            if k[mu] == 0.0:
                continue
            for nu in range(4):
                if eps[nu] != 0.0:
                    J[mu, nu] = -k[mu] * eps[nu] * s
    elif name == "custom_polynomial":
        for key, coef in params.items():
            nu, exps = _poly_key(key)
            for mu, p in enumerate(exps):
                if p == 0:
                    continue
                term = np.full(shape, complex(coef * p))
                for rho, q in enumerate(exps):
                    qq = q - 1 if rho == mu else q
                    if qq:
                        term = term * zs[rho] ** qq
                J[mu, nu] = J[mu, nu] + term
    return J


CATALOG_SPECS = [
    emfield.free(),
    emfield.constant_electric(1.3),
    emfield.constant_magnetic(0.7),
    emfield.em_plane_wave([0.0, 0.0, 0.5, 0.0], [1.0, 1.0, 0.0, 0.0], phase=0.3),
    emfield.custom_wave([0.3, 0.1, 0.0, -0.2], [1.0, 0.5, 0.0, -2.0], phase=-0.1),
    emfield.custom_polynomial({"a0_1000": 1.5, "a1_0210": -0.25, "a0_0000": 0.3,
                               "a3_1001": 2.0, "a0_0100": -1.0, "a2_0030": 0.75}),
]


def _points():
    grid = SpacetimeGrid(dims=3, extent=(2 * np.pi, 2 * np.pi, 3.0), points=(8, 8, 8))
    rng = np.random.default_rng(2024)
    complex_pts = [rng.standard_normal(7) + 1j * rng.standard_normal(7) for _ in range(4)]
    return [("grid", grid.coords4()), ("complex", complex_pts),
            ("scalar", [0.2 + 0.1j, -0.4 + 0.3j, 0.1j, 0.0])]


@pytest.mark.parametrize("spec", CATALOG_SPECS, ids=[s.name for s in CATALOG_SPECS])
def test_catalog_matches_term_by_term_reference(spec):
    for label, z in _points():
        A = evaluate_potential(spec, z)
        J = potential_jacobian(spec, z)
        assert np.array_equal(A, reference_potential(spec.name, spec.params, z)), label
        assert np.array_equal(J, reference_jacobian(spec.name, spec.params, z)), label


def reference_call(coeffs, z):
    z = np.asarray(z, dtype=np.complex128)
    out = np.zeros(z.shape[:-1], dtype=np.complex128)
    for exps, c in coeffs.items():
        term = np.full(z.shape[:-1], complex(c))
        for mu, p in enumerate(exps):
            if p:
                term = term * z[..., mu] ** p
        out = out + term
    return out


def reference_grad(coeffs, z0):
    g = np.zeros(4, dtype=np.complex128)
    for exps, c in coeffs.items():
        for mu, p in enumerate(exps):
            if p == 0:
                continue
            term = complex(c) * p
            for nu, q in enumerate(exps):
                term *= z0[nu] ** (q - 1 if nu == mu else q)
            g[mu] += term
    return g


def reference_hess_diag(coeffs, z0):
    hd = np.zeros(4, dtype=np.complex128)
    for exps, c in coeffs.items():
        for mu, p in enumerate(exps):
            if p < 2:
                continue
            term = complex(c) * p * (p - 1)
            for nu, q in enumerate(exps):
                term *= z0[nu] ** (q - 2 if nu == mu else q)
            hd[mu] += term
    return hd


def same_bits(a, b):
    # stricter than np.array_equal: -0.0 and 0.0 print differently in the JSONL
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and np.array_equal(a.reshape(-1).view(np.uint64), b.reshape(-1).view(np.uint64))


@pytest.mark.parametrize("where", ["origin", "random"])
def test_battery_matches_term_by_term_reference(where):
    rng = np.random.default_rng(7)
    z0 = np.zeros(4, dtype=np.complex128) if where == "origin" \
        else rng.standard_normal(4) + 1j * rng.standard_normal(4)
    paths = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    # evaluated as generator_check evaluates them: at the columns of the end positions,
    # at z0, and through Polynomial.derivative at z0
    for label, f, _ in BATTERY:
        assert same_bits(f(paths.T), reference_call(f.terms, paths)), label
        assert same_bits(f(z0), reference_call(f.terms, z0)), label
        grad = np.array([f.derivative(mu)(z0) for mu in range(4)])
        hess_diag = np.array([f.derivative(mu).derivative(mu)(z0) for mu in range(4)])
        assert same_bits(grad, reference_grad(f.terms, z0)), label
        assert same_bits(hess_diag, reference_hess_diag(f.terms, z0)), label
