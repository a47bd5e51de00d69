"""The suites' outputs at the default configuration and the report over them, one small
simulate run under the plane-wave control, one small simulate run that blows up, one
long simulate run, ``verify-identity --backend fd4``, ``verify-identity`` at
non-unit constants and for each kind of configured potential, ``evolve`` at
non-unit constants with epsilon = -1, and one small simulate run with
epsilon = -1, pinned by SHA-256.

A refactor must leave every record byte-identical.  The hashes were taken with
NumPy 2.4.6 on Python 3.11.7; another NumPy may round differently, so there the
test skips.  A change that alters these bytes on purpose updates the pin and
says so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from diracsoc.cli import EXIT_BLOWUP, EXIT_FAIL, EXIT_PASS, main

PINNED_NUMPY = "2.4.6"
GOLDEN = {
    "clifford.jsonl": "339faae0b5e00498ffc107449efe7c713fa812ecd2ad330ac3cc5080ba36731b",
    "dispersion.jsonl": "b812866ac7b8d276d87312372b8cea3b0500ef4c046b0aff84cd293dc7ab12a3",
    "evolve.jsonl": "f57380845d299b7c27db284d0b2c56999411f480a1242cf0c4444f841d4a0562",
    "identity.jsonl": "fb29633cf50ce4921c34aaa7b98152e64ec76dc036e4058f8800e9fe1776176f",
    "simulate.jsonl": "c09c8f062ddfc05cc7c2598c849dc8c94365460a382f9f21015edce17e599d7b",
    "dispersion.csv": "02bf122e6c7c44554888a58a844cc715b6f90e1f48639d519204e86069b3b7ae",
    "evolve_sweep.csv": "94a162db749e7010fb53b7c694c848552d5d85d0aaad04e12019a17e492ce49a",
}


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"outputs pinned on NumPy {PINNED_NUMPY}; this is NumPy {np.__version__}")
    out = tmp_path_factory.mktemp("default")
    for command in ("verify-clifford", "verify-identity", "dispersion", "evolve", "simulate"):
        assert main([command, "--out", str(out)]) == EXIT_PASS
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_default_output_matches_pin(default_outputs, name):
    assert hashlib.sha256((default_outputs / name).read_bytes()).hexdigest() == GOLDEN[name]


GOLDEN_SUMMARY = "91c8d1732b2a54c4b5b6c938b661bf77ef11c5b679efec0c656837afccd32c67"


def test_report_over_default_outputs_matches_pin(default_outputs, tmp_path):
    for path in default_outputs.glob("*.jsonl"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    assert main(["report", "--out", str(tmp_path)]) == EXIT_PASS
    digest = hashlib.sha256((tmp_path / "summary.jsonl").read_bytes()).hexdigest()
    assert digest == GOLDEN_SUMMARY


# the configured ensemble under the plane-wave control, its paths dumped: the control
# path that the default configuration never takes
PLANE_WAVE_CONFIG = """
simulate.n_paths = 2000
simulate.variance_paths = 2000
simulate.variance_steps = 8
simulate.repro_paths = 64
simulate.repro_steps = 8
simulate.control = plane_wave
simulate.control_w = 1.25,0.75,0,0
simulate.dump_paths = true
simulate.dump_max_paths = 4
"""
GOLDEN_PLANE_WAVE = {
    "simulate.jsonl": "666511eca88322deba7e6e87bbdf16c86f5bc4ebb624d220807ebd1d430ce0d1",
    "paths.csv": "90f0e85e370ab33329261546c42780e78662cffb8abcd62866fafd5476d94f5f",
}


@pytest.fixture(scope="module")
def plane_wave_outputs(tmp_path_factory):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"outputs pinned on NumPy {PINNED_NUMPY}; this is NumPy {np.__version__}")
    out = tmp_path_factory.mktemp("plane_wave")
    cfg = out / "run.cfg"
    cfg.write_text(PLANE_WAVE_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANE_WAVE))
def test_plane_wave_simulate_output_matches_pin(plane_wave_outputs, name):
    digest = hashlib.sha256((plane_wave_outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_PLANE_WAVE[name]


# the configured ensemble under a constant control whose drift 1e308 * ds overflows on
# the first step, its paths dumped: every path is flagged at step 0 and frozen at z0,
# and the run exits 3
BLOWUP_CONFIG = """
simulate.n_paths = 5000
simulate.variance_paths = 5000
simulate.variance_steps = 8
simulate.repro_paths = 64
simulate.repro_steps = 8
simulate.control = constant
simulate.control_w = 1e308,0,0,0
simulate.ds = 10
simulate.dump_paths = true
"""
GOLDEN_BLOWUP = {
    "simulate.jsonl": "b0f270fdaae3131faf1fe1bc5a142f301b408a74d1dabc11c635baaf3bbcaba6",
    "paths.csv": "ee99ec0c6a1ae2bee87a3be57d8d512c9d3f322fe95201a03cb95d2bea727881",
}


@pytest.fixture(scope="module")
def blowup_outputs(tmp_path_factory):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"outputs pinned on NumPy {PINNED_NUMPY}; this is NumPy {np.__version__}")
    out = tmp_path_factory.mktemp("blowup")
    cfg = out / "run.cfg"
    cfg.write_text(BLOWUP_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_BLOWUP
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_BLOWUP))
def test_blowup_simulate_output_matches_pin(blowup_outputs, name):
    digest = hashlib.sha256((blowup_outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_BLOWUP[name]


# fd4 carries its stencil's truncation error into the identity residuals, so this run
# exits 1 against the spectral tolerance; its records pin that the operator kernel
# reproduces the fd4 arithmetic exactly
GOLDEN_FD4_IDENTITY = "b8356498e07b63d8afb73fefdb2ab2c5743f0c9cf324af7d89bccba1ed0eef68"


def test_fd4_identity_output_matches_pin(tmp_path):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"outputs pinned on NumPy {PINNED_NUMPY}; this is NumPy {np.__version__}")
    assert main(["verify-identity", "--backend", "fd4", "--out", str(tmp_path)]) == EXIT_FAIL
    digest = hashlib.sha256((tmp_path / "identity.jsonl").read_bytes()).hexdigest()
    assert digest == GOLDEN_FD4_IDENTITY


# few long paths: 64 repro paths take 128 steps per noise chunk, so each 8192-step stream
# crosses 63 chunk boundaries, which the default configuration's streams never do
LONG_CONFIG = """
simulate.n_paths = 2000
simulate.variance_paths = 256
simulate.variance_steps = 8192
simulate.repro_paths = 64
simulate.repro_steps = 8192
simulate.control = plane_wave
simulate.control_w = 1.25,0.75,0,0
"""
GOLDEN_LONG_SIMULATE = "df3999fefd5a1dda380039f71e0fc81535e69bfc61a047231a47ebfe00e4a2cd"


def test_long_simulate_output_matches_pin(tmp_path):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"outputs pinned on NumPy {PINNED_NUMPY}; this is NumPy {np.__version__}")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(LONG_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--seed", "12345",
                 "--out", str(tmp_path)]) == EXIT_PASS
    digest = hashlib.sha256((tmp_path / "simulate.jsonl").read_bytes()).hexdigest()
    assert digest == GOLDEN_LONG_SIMULATE


# constants away from 1, so that the records tell powers of hbar, c, m and e apart,
# which the default unit constants cannot
NON_UNIT_CONFIG = """
constants.hbar = 0.75
constants.c = 1.5
constants.m = 1.25
constants.e = -0.6
grid.points = 64,64
identity.n_fields = 3
identity.gauge_fields = 2
"""
GOLDEN_NON_UNIT_IDENTITY = "e789b67c78d8c47f8eceec9c5059a8e32dcafeb461f866ce0e10af81bef9dde5"


def test_non_unit_constants_identity_output_matches_pin(tmp_path):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"outputs pinned on NumPy {PINNED_NUMPY}; this is NumPy {np.__version__}")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(NON_UNIT_CONFIG)
    assert main(["verify-identity", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_PASS
    digest = hashlib.sha256((tmp_path / "identity.jsonl").read_bytes()).hexdigest()
    assert digest == GOLDEN_NON_UNIT_IDENTITY


# the non-unit constants with epsilon = -1: the evolve sweep's k^0, gaps and closed-form
# frequencies carry every constant and the sign of the phase
NON_UNIT_EVOLVE_CONFIG = """
constants.hbar = 0.75
constants.c = 1.5
constants.m = 1.25
constants.e = -0.6
constants.epsilon = -1
"""
GOLDEN_NON_UNIT_EVOLVE = {
    "evolve.jsonl": "4e2b1e5fa37566aa1643a9eb4f6d5723fb3f736ef245d2053f773474789af7c7",
    "evolve_sweep.csv": "5d40c8f0bdaa9934f64afbc7143b494d3b9ce0e6e33b4e9b3d8be98d65181368",
}


@pytest.fixture(scope="module")
def non_unit_evolve_outputs(tmp_path_factory):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"outputs pinned on NumPy {PINNED_NUMPY}; this is NumPy {np.__version__}")
    out = tmp_path_factory.mktemp("non_unit_evolve")
    cfg = out / "run.cfg"
    cfg.write_text(NON_UNIT_EVOLVE_CONFIG)
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
    return out


@pytest.mark.parametrize("name", sorted(GOLDEN_NON_UNIT_EVOLVE))
def test_non_unit_evolve_output_matches_pin(non_unit_evolve_outputs, name):
    digest = hashlib.sha256((non_unit_evolve_outputs / name).read_bytes()).hexdigest()
    assert digest == GOLDEN_NON_UNIT_EVOLVE[name]


# epsilon = -1 flips the expected signs of the Re/Im correlations of the increments
NEGATIVE_EPSILON_SIMULATE_CONFIG = """
simulate.n_paths = 5000
simulate.variance_paths = 5000
simulate.variance_steps = 8
simulate.repro_paths = 64
simulate.repro_steps = 8
constants.epsilon = -1
"""
GOLDEN_NEGATIVE_EPSILON_SIMULATE = \
    "7d40fdbed405dbc59b510d3a9ea309afe208fa198149a455a5377188b189ca19"


def test_negative_epsilon_simulate_output_matches_pin(tmp_path):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"outputs pinned on NumPy {PINNED_NUMPY}; this is NumPy {np.__version__}")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(NEGATIVE_EPSILON_SIMULATE_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_PASS
    digest = hashlib.sha256((tmp_path / "simulate.jsonl").read_bytes()).hexdigest()
    assert digest == GOLDEN_NEGATIVE_EPSILON_SIMULATE


# a configured potential runs one family of fields: a gauge-violating wave only the
# gauge discrepancy law, a Lorenz-gauge wave only factored_vs_fock
def _potential_params(**params):
    return "".join(f"potential.{key} = {value}\n" for key, value in params.items())


CONFIGURED_IDENTITY = {
    "custom_wave": (
        _potential_params(eps0=0.3, eps1=0, eps2=0, eps3=0, k0=1, k1=0, k2=0, k3=0),
        "9e2e04f47aac2826db3a1097b7768e4e2dc1457e0658c9cc1b15bcce49f226ae"),
    "em_plane_wave": (
        _potential_params(eps0=0, eps1=0, eps2=0.5, eps3=0, k0=1, k1=1, k2=0, k3=0),
        "f307ed1c807b9b5ec08e57e6e26aa8b055c9bb0d02cd31636bc54897929af618"),
}


@pytest.mark.parametrize("name", sorted(CONFIGURED_IDENTITY))
def test_configured_potential_identity_output_matches_pin(tmp_path, name):
    if np.__version__ != PINNED_NUMPY:
        pytest.skip(f"outputs pinned on NumPy {PINNED_NUMPY}; this is NumPy {np.__version__}")
    params, pin = CONFIGURED_IDENTITY[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid.points = 64,64\npotential.name = {name}\n{params}")
    assert main(["verify-identity", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_PASS
    digest = hashlib.sha256((tmp_path / "identity.jsonl").read_bytes()).hexdigest()
    assert digest == pin
