"""The suites' outputs at the default configuration and the report over them, one small
simulate run under the plane-wave control, one long simulate run, and
``verify-identity --backend fd4``, pinned by SHA-256.

A refactor must leave every record byte-identical.  The hashes were taken with
NumPy 2.4.6 on Python 3.11.7; another NumPy may round differently, so there the
test skips.  A change that alters these bytes on purpose updates the pin and
says so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from diracsoc.cli import EXIT_FAIL, EXIT_PASS, main

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
