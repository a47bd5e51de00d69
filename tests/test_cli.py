import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import diracsoc
from diracsoc import cli, grid, soc, spectrum
from diracsoc.cli import EXIT_BLOWUP, EXIT_FAIL, EXIT_PASS, _exit_for, main
from diracsoc.config import KEYS, ConfigError, RunConfig, parse_config_text
from diracsoc.grid import random_band_limited
from diracsoc.operators import OperatorError
from diracsoc.report import jsonl_dumps, read_jsonl

FAST_IDENTITY = """
# small grid keeps this suite quick
grid.points = 64,64
identity.n_fields = 2
identity.max_mode = 4
identity.gauge_fields = 2
"""

PLANE_WAVE_PARAMS = "".join(f"potential.{key} = {value}\n" for key, value in (
    ("eps0", 0), ("eps1", 0), ("eps2", 0.5), ("eps3", 0), ("k0", 1), ("k1", 1), ("k2", 0),
    ("k3", 0)))

FAST_SIMULATE = """
simulate.n_paths = 5000
simulate.variance_paths = 5000
simulate.variance_steps = 8
simulate.repro_paths = 64
simulate.repro_steps = 8
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# -- config -------------------------------------------------------------------

def test_parse_config_text():
    m = parse_config_text("a.b = 1 # comment\n\n# full comment\nc = x\n")
    assert m == {"a.b": "1", "c": "x"}
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")


def test_config_defaults_and_overrides():
    cfg = RunConfig.from_sources()
    assert cfg.constants().hbar == 1.0
    assert cfg.grid().points == (256, 256)
    cfg2 = RunConfig.from_sources({"constants.epsilon": "-1"}, {"seed": "7"})
    assert cfg2.constants().epsilon == -1
    assert cfg2["seed"] == 7
    assert cfg.hash() != cfg2.hash()
    assert cfg.hash() == RunConfig.from_sources().hash()


def test_config_rejects_unknown_and_invalid():
    with pytest.raises(ConfigError):
        RunConfig.from_sources({"nope": "1"})
    with pytest.raises(ConfigError):
        RunConfig.from_sources({"constants.epsilon": "2"})
    with pytest.raises(ConfigError):
        RunConfig.from_sources({"backend": "banana"})
    with pytest.raises(ConfigError):
        RunConfig.from_sources({"grid.points": "100,100"})
    with pytest.raises(ConfigError):
        RunConfig.from_sources({"identity.tolerance": "-1"})


# a key added without a rule would reach the suites unchecked
@pytest.mark.parametrize("key", [*KEYS, "potential.E"])
def test_every_key_is_parsed_at_load(key):
    with pytest.raises(ConfigError) as info:
        RunConfig.from_sources({key: "x?"})
    assert str(info.value).startswith(key)


def test_readme_table_lists_every_key_and_default():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    table = {key.strip().strip("`"): default.strip().strip("`") for key, default in rows}
    assert table == {key: default for key, (default, _) in KEYS.items()}


def test_jsonl_formatting_17_digits():
    line = jsonl_dumps({"x": 0.1, "n": 3, "ok": True, "c": 1 + 2j, "s": "hi"})
    assert '"x":0.10000000000000001' in line
    assert '"c":{"re":1,"im":2}' in line
    assert '"ok":true' in line


# -- verify-clifford ----------------------------------------------------------

def test_verify_clifford_pass_and_record_count(tmp_path):
    out = tmp_path / "out"
    assert main(["verify-clifford", "--out", str(out)]) == 0
    records = read_jsonl(out / "clifford.jsonl")
    anti = [r for r in records if r["check"] == "anticommutator"]
    assert len(anti) == 16
    assert all(r["pass"] for r in records)
    assert (out / "clifford_meta.json").exists()


def test_verify_clifford_corrupted_fails(tmp_path):
    out = tmp_path / "out"
    assert main(["verify-clifford", "--out", str(out), "--corrupt-gamma"]) == 1
    records = read_jsonl(out / "clifford.jsonl")
    assert any(not r["pass"] for r in records)


def test_missing_config_file_exit_2(tmp_path):
    assert main(["verify-clifford", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "o")]) == 2


def test_unknown_config_key_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "bogus.key = 1\n")
    assert main(["dispersion", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# -- verify-identity ----------------------------------------------------------

def test_verify_identity_records(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, FAST_IDENTITY)
    assert main(["verify-identity", "--config", cfg, "--out", str(out)]) == 0
    records = read_jsonl(out / "identity.jsonl")
    equiv = [r for r in records if r["check"] == "factored_vs_fock"]
    gauge = [r for r in records if r["check"] == "gauge_discrepancy_law"]
    assert len(equiv) == 4 * 2
    assert {r["potential"] for r in equiv} == {
        "free", "constant_A", "em_wave_lightlike", "em_wave_spacelike"}
    assert len(gauge) == 2
    assert all(r["potential"] == "negative-gauge" for r in gauge)
    assert all(r["pass"] for r in records)


def test_identity_fields_after_the_first_allocate_no_spinor(monkeypatch):
    # Every field is drawn into the first field's arrays and checked in place.  On the
    # default grid, the traced peak of each field after the first (its draw, kernel and
    # residual, in both families) stays below one spinor's bytes: its temporaries are
    # single components.  A field that samples a potential is not measured.  The fields
    # are checked in this process, where tracemalloc sees them.
    cfg = RunConfig.from_sources({"identity.n_fields": "3", "identity.gauge_fields": "3"})
    spinor_bytes = 4 * np.prod(cfg.grid().shape) * 16
    real_jet, real_potential = cli.band_limited_jet, cli.SampledPotential
    peaks, state = [], {"fields": 0, "sampled": False}

    def jet(*args, **kwargs):
        current, peak = tracemalloc.get_traced_memory()
        if state["fields"] > 1 and not state["sampled"]:
            peaks.append(peak - state["start"])  # the previous field
        state.update(fields=state["fields"] + 1, sampled=False, start=current)
        tracemalloc.reset_peak()
        return real_jet(*args, **kwargs)

    def potential(*args):
        state["sampled"] = True
        return real_potential(*args)

    monkeypatch.setattr(cli, "_worker_count", lambda n_fields: 1)
    monkeypatch.setattr(cli, "band_limited_jet", jet)
    monkeypatch.setattr(cli, "SampledPotential", potential)
    tracemalloc.start()
    try:
        records, _, _ = cli.identity_records(cfg)
    finally:
        tracemalloc.stop()
    assert len(records) == 4 * 3 + 3 and all(r["pass"] for r in records)
    # 15 fields: not the first, not the last (no later draw closes it), not the four that
    # sample the next potential
    assert len(peaks) == 15 - 1 - 1 - 4
    assert max(peaks) < spinor_bytes, max(peaks) / spinor_bytes


# an odd field count in each family, so that the two processes' shares differ in size
# and both families straddle them
ODD_IDENTITY = FAST_IDENTITY.replace("n_fields = 2", "n_fields = 3").replace(
    "gauge_fields = 2", "gauge_fields = 3")
ODD_RUN = RunConfig.from_sources(parse_config_text(ODD_IDENTITY))
GAUGE_VIOLATING_PARAMS = "".join(f"potential.{key} = {value}\n" for key, value in (
    ("eps0", 0.3), ("eps1", 0), ("eps2", 0), ("eps3", 0), ("k0", 1), ("k1", 0), ("k2", 0),
    ("k3", 0)))


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("text,n_records", [
    (ODD_IDENTITY, 4 * 3 + 3),
    (ODD_IDENTITY + "potential.name = em_plane_wave\n" + PLANE_WAVE_PARAMS, 3),
    (ODD_IDENTITY + "potential.name = custom_wave\n" + GAUGE_VIOLATING_PARAMS, 3),
], ids=["catalog", "configured_lorenz", "configured_gauge_violating"])
@pytest.mark.parametrize("backend", ["spectral", "fd4"])
def test_identity_records_are_the_same_bytes_in_any_number_of_processes(
        tmp_path, monkeypatch, text, n_records, backend):
    cfg = write_cfg(tmp_path, text)
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_worker_count", lambda n_fields: min(workers, n_fields))
        out = tmp_path / f"workers{workers}"
        assert main(["verify-identity", "--config", cfg, "--backend", backend,
                     "--out", str(out)]) in (EXIT_PASS, EXIT_FAIL)
        assert_no_child_process()
        meta = json.loads((out / "identity_meta.json").read_text())
        assert meta["workers"] == workers
        assert len(meta["busy_seconds"]) == workers and min(meta["busy_seconds"]) > 0
        outputs.append((out / "identity.jsonl").read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == n_records


@pytest.mark.parametrize("text,message", [
    ("potential.name = em_plane_wave\n" + PLANE_WAVE_PARAMS.replace("eps2 = 0.5", "eps2 = 0")
     .replace("eps3 = 0", "eps3 = 0.5").replace("k1 = 1", "k1 = 0").replace("k2 = 0", "k2 = 1"),
     "potential em_plane_wave varies along inactive axis 2; use a grid with dims > 2"),
    ("potential.name = constant_magnetic\npotential.B = 1.0\n",
     "potential constant_magnetic is a polynomial that varies along axis 1; it is not "
     "periodic on the grid, so A phi would jump at the wrap"),
    # at e = 0 the predicted gauge discrepancy is 0, so its law would pass vacuously;
    # at a subnormal charge its factor is 0 or subnormal, and the prediction may
    # underflow to 0 (at 1e-323 it does, and the law divided by it)
    *((text + f"constants.e = {e}\n",
       f"constants.e = {e} makes the factor -i e hbar (d.A) of the predicted gauge "
       f"discrepancy of potential {name} 0 or subnormal at every grid point, so the "
       f"prediction may vanish and gauge_discrepancy_law would have nothing to hold the "
       f"discrepancy to; use a larger |constants.e|")
      for text, name in (("", "negative-gauge"),
                         ("potential.name = custom_wave\n" + GAUGE_VIOLATING_PARAMS,
                          "custom_wave"))
      for e in ("0", "5e-324", "1e-323", "-1e-310")),
])
def test_identity_refusals_come_before_any_field(tmp_path, monkeypatch, capsys, text, message):
    def no_fields(*args):
        raise AssertionError("fields checked after a refusal")

    monkeypatch.setattr(cli, "_in_processes", no_fields)
    cfg = write_cfg(tmp_path, FAST_IDENTITY + text)
    assert main(["verify-identity", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def break_fields(monkeypatch, cfg, broken,
                 raised=lambda k: OperatorError(f"field {k} is broken")):
    """Make the operator kernel raise ``raised(k)`` on each field index k in ``broken``.
    Field k is found by its values: phi is the k-th spinor that ``random_band_limited``
    draws from the seeded generator, as every field is drawn in the serial order."""
    rng = np.random.default_rng(cfg["seed"])
    phis = [random_band_limited(cfg.grid(), cfg["identity.max_mode"], rng, spinor=True).values
            for _ in range(max(broken) + 1)]
    real_kernel = cli.fock_and_factored_in_place

    def kernel(phi, *args):
        for k in sorted(broken):
            if np.array_equal(phi, phis[k]):
                raise raised(k)
        return real_kernel(phi, *args)

    monkeypatch.setattr(cli, "fock_and_factored_in_place", kernel)


@pytest.mark.parametrize("broken", [{1}, {2}, {1, 2}, {2, 3}])
def test_identity_field_error_is_reported_as_in_one_process(
        tmp_path, monkeypatch, capsys, broken):
    # with two processes the odd fields are the forked worker's and the even ones this
    # process's; the error of the lowest broken field is the one a serial run meets
    cfg = write_cfg(tmp_path, ODD_IDENTITY)
    errors = []
    for workers in (1, 2):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_worker_count", lambda n_fields: min(workers, n_fields))
            break_fields(patch, ODD_RUN, broken)
            out = tmp_path / f"workers{workers}"
            assert main(["verify-identity", "--config", cfg, "--out", str(out)]) == 2
        assert_no_child_process()
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"config error: field {min(broken)} is broken\n"


def test_identity_interrupt_in_this_process_stops_the_worker(monkeypatch):
    # a BaseException in this process's share is no field's error: the worker is
    # killed and reaped, and the exception propagates
    monkeypatch.setattr(cli, "_worker_count", lambda n_fields: min(2, n_fields))
    break_fields(monkeypatch, ODD_RUN, {0}, raised=lambda k: KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        cli.identity_records(ODD_RUN)
    assert_no_child_process()


def test_identity_worker_that_dies_is_an_error(monkeypatch):
    monkeypatch.setattr(cli, "_worker_count", lambda n_fields: min(2, n_fields))
    break_fields(monkeypatch, ODD_RUN, {1}, raised=lambda k: os._exit(3))
    with pytest.raises(RuntimeError, match="ended without its results"):
        cli.identity_records(ODD_RUN)
    assert_no_child_process()


def test_identity_worker_runs_no_atexit_handler_and_flushes_nothing(tmp_path):
    # a forked worker leaves by os._exit: a handler registered before main runs once, in
    # this process (a profiler or tracer writes its output from such a handler), and
    # output still buffered at the fork is written once
    cfg = write_cfg(tmp_path, ODD_IDENTITY)
    script = (
        "import atexit, sys\n"
        "from diracsoc import cli\n"
        "atexit.register(print, 'atexit handler ran', flush=True)\n"
        "print('buffered before the fork')\n"
        "cli._worker_count = lambda n_fields: min(2, n_fields)\n"
        f"sys.exit(cli.main(['verify-identity', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'o')!r}]))\n")
    proc = run_python("-c", script)
    assert proc.returncode == EXIT_PASS, proc.stderr
    assert proc.stdout.count("atexit handler ran") == 1
    assert proc.stdout.count("buffered before the fork") == 1
    assert json.loads((tmp_path / "o" / "identity_meta.json").read_text())["workers"] == 2


def test_verify_identity_tolerance_override_fails(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, FAST_IDENTITY + "identity.tolerance = 1e-15\n")
    assert main(["verify-identity", "--config", cfg, "--out", str(out)]) == 1


# -- dispersion / evolve -------------------------------------------------------

def test_dispersion_suite(tmp_path):
    out = tmp_path / "out"
    assert main(["dispersion", "--out", str(out)]) == 0
    records = read_jsonl(out / "dispersion.jsonl")
    assert len(records) == 64  # 32 sweep points, two roots each
    csv_lines = (out / "dispersion.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "k1,k0,delta,det_abs,pass"
    assert len(csv_lines) == 65


def test_spectrum_error_in_a_suite_exits_2(tmp_path, monkeypatch, capsys):
    # the evolve suite checks its sweep before delta_sweep runs, which keeps
    # delta_sweep's own refusals out of reach but for rounding; one that is met
    # anyway is a one-line config error, not a traceback
    def no_real_k0(*args, **kwargs):
        raise spectrum.SpectrumError("gap -2.0 gives no real k^0 at k^1=0.3")

    monkeypatch.setattr(spectrum, "delta_sweep", no_real_k0)
    assert main(["evolve", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "config error: gap -2.0 gives no real k^0 at k^1=0.3\n"
    assert not (tmp_path / "o").exists()


def test_evolve_record_states_the_bound_it_applies(tmp_path, monkeypatch):
    # the frequency bound scales with max(1, |closed_form_frequency|); a record off
    # by 1.5 frequency_tol at frequency 2 passes and must say its bound is 2e-8
    real_sweep = spectrum.delta_sweep

    def one_record_off(*args, **kwargs):
        sweep = real_sweep(*args, **kwargs)
        sweep[0] = dict(sweep[0], closed_form_frequency=2.0, measured_frequency=2.0 + 1.5e-8)
        return sweep

    monkeypatch.setattr(spectrum, "delta_sweep", one_record_off)
    out = tmp_path / "out"
    assert main(["evolve", "--out", str(out)]) == EXIT_PASS
    records = read_jsonl(out / "evolve.jsonl")
    assert records[0]["tolerance"] == 2e-8
    assert records[0]["residual"] > 1e-8
    assert not any(r["pass"] and r["residual"] > r["tolerance"] for r in records)


def test_evolve_suite_flags_only_on_shell(tmp_path):
    out = tmp_path / "out"
    assert main(["evolve", "--out", str(out)]) == 0
    records = read_jsonl(out / "evolve.jsonl")
    assert all(r["pass"] for r in records)
    tol = RunConfig.from_sources()["evolve.stationary_tol"]
    assert all(r["stationary"] == (r["final_drift"] <= tol) for r in records)
    stationary = [r for r in records if r["stationary"]]
    assert len(stationary) == 1
    assert abs(stationary[0]["delta"]) <= 1e-12
    csv_lines = (out / "evolve_sweep.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "k0,k1,delta,measured_frequency,stationary"
    assert len(csv_lines) == len(records) + 1


# -- simulate ------------------------------------------------------------------

def test_simulate_suite_and_dump(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, FAST_SIMULATE + "simulate.dump_paths = true\n"
                    "simulate.dump_max_paths = 3\n")
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    records = read_jsonl(out / "simulate.jsonl")
    by_check = {r["check"] for r in records}
    assert {"diffusion_squares", "generator", "straight_line_bitwise",
            "fixed_seed_bitwise", "reim_correlation_signs", "diffusion_variance",
            "action_constant_onshell", "configured_ensemble"} <= by_check
    gen = [r for r in records if r["check"] == "generator"]
    assert len(gen) == 6
    assert all("stderr" in r for r in gen)
    lines = (out / "paths.csv").read_text().strip().splitlines()
    assert lines[0].startswith("path,step,s,z0_re,z0_im")
    assert len(lines) == 1 + 3 * 9  # 3 paths, 8 steps + initial point


NON_UNIT_CONSTANTS = ("constants.hbar = 0.75\nconstants.c = 1.5\nconstants.m = 1.25\n"
                      "constants.e = -0.6\n")


@pytest.mark.parametrize("constants", ["constants.m = 0.5\n", NON_UNIT_CONSTANTS],
                         ids=["m_half", "non_unit"])
def test_diffusion_squares_bound_passes_rounding_and_catches_a_conjugate(tmp_path, monkeypatch,
                                                                         constants):
    # At these constants sigma^2 rounds, so the exact squares cannot be held to 0: the
    # bound of 4 ulps of max |sigma^2| lets simulate pass, while conjugating one amplitude
    # still fails the record by more than 1e10 times the bound.
    def squares_record(out):
        return {r["check"]: r for r in read_jsonl(out / "simulate.jsonl")}["diffusion_squares"]

    cfg = write_cfg(tmp_path, constants)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "ok")]) == EXIT_PASS
    rec = squares_record(tmp_path / "ok")
    assert 0 < rec["residual"] <= rec["tolerance"]

    real = soc.make_diffusion

    def conjugated(consts):
        d = real(consts)
        sigma = d.sigma.copy()
        sigma[1] = sigma[1].conjugate()
        return soc.DiffusionCoefficients(sigma, d.squares)

    monkeypatch.setattr(soc, "make_diffusion", conjugated)
    cfg = write_cfg(tmp_path, constants + FAST_SIMULATE, "fast.cfg")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "fault")]) == EXIT_FAIL
    rec = squares_record(tmp_path / "fault")
    assert not rec["pass"] and rec["residual"] > 1e10 * rec["tolerance"]


def test_simulate_blowup_exit_3(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, FAST_SIMULATE +
                    "simulate.control = constant\n"
                    "simulate.control_w = 1e308,0,0,0\n"
                    "simulate.ds = 10\n")
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 3
    rec = {r["check"]: r for r in read_jsonl(out / "simulate.jsonl")}["configured_ensemble"]
    assert rec["truncated_paths"] == 64
    # 1e308 * ds overflows on the first step of every path; path 0 is the first on ties
    assert (rec["first_bad_step"], rec["first_bad_path"]) == (0, 0)
    keys = list(rec)
    assert keys.index("first_bad_step") < keys.index("first_bad_path") < keys.index("residual")


def test_configured_ensemble_names_the_earliest_blowup(tmp_path, monkeypatch):
    class LateBlowups(soc.EulerStream):
        def __iter__(self):
            yield from super().__iter__()
            if self.seed == 12345 + 2:  # the configured ensemble, once it has run
                self.truncated[:] = False
                self.first_bad_step[:] = -1
                for path, step in ((3, 6), (5, 2), (9, 2)):
                    self.truncated[path], self.first_bad_step[path] = True, step

    monkeypatch.setattr(soc, "EulerStream", LateBlowups)
    cfg = write_cfg(tmp_path, FAST_SIMULATE)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_BLOWUP
    records = {r["check"]: r for r in read_jsonl(tmp_path / "o" / "simulate.jsonl")}
    rec = records["configured_ensemble"]
    assert (rec["truncated_paths"], rec["first_bad_step"], rec["first_bad_path"]) == (3, 2, 5)
    action = records["action_constant_onshell"]
    assert (action["n_branch_flags"], action["n_degenerate_flags"]) == (0, 0)


# hbar = 4 and eps = -1 make (eps/m) hbar k differ from k, and keep sigma^2 exact
@pytest.mark.parametrize("control", ["zero", "constant", "plane_wave"])
def test_configured_control_sets_the_stream_drift(tmp_path, monkeypatch, control):
    drifts = []  # appended in this process, so every family runs here
    monkeypatch.setattr(cli, "_worker_count", lambda n_tasks: 1)

    class Recorded(soc.EulerStream):
        def __init__(self, params, w, consts, seed, diffusion=None):
            super().__init__(params, w, consts, seed, diffusion)
            if seed == 12345 + 2:  # the configured ensemble
                drifts.append(self.w)

    monkeypatch.setattr(soc, "EulerStream", Recorded)
    cfg = write_cfg(tmp_path, FAST_SIMULATE + "constants.hbar = 4\nconstants.epsilon = -1\n"
                    f"simulate.control = {control}\nsimulate.control_w = 0.5,0.25,-0.125,0\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_PASS
    records = {r["check"]: r for r in read_jsonl(tmp_path / "o" / "simulate.jsonl")}
    assert records["configured_ensemble"]["control"] == control
    k = np.array([0.5, 0.25, -0.125, 0])
    want = {"zero": np.zeros(4), "constant": k, "plane_wave": -4 * k}[control]  # (eps/m) hbar k
    assert len(drifts) == 1 and np.array_equal(drifts[0], want)


def test_fixed_seed_bitwise_compares_every_step(tmp_path, monkeypatch):
    # negative control: the two seeded streams draw the same noise except at the last
    # step of the second one, and one step per noise chunk makes every step its own draw.
    # The draws are counted in this process, so every family runs here
    monkeypatch.setattr(cli, "_worker_count", lambda n_tasks: 1)
    real_noise = soc._path_noise
    last_draws = []

    def perturbed(seed, n_paths, steps, start=0):
        xi = real_noise(seed, n_paths, steps, start=start)
        if (seed, n_paths, start + steps) == (12345, 64, 40):  # a repro stream's last step
            last_draws.append(start)
            if len(last_draws) == 2:
                xi[:, -1] += 1.0
        return xi

    monkeypatch.setattr(soc, "NOISE_CHUNK", 64)
    monkeypatch.setattr(soc, "_path_noise", perturbed)
    cfg = write_cfg(tmp_path, FAST_SIMULATE.replace("repro_steps = 8", "repro_steps = 40"))
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_FAIL
    assert last_draws == [39, 39]
    records = {r["check"]: r for r in read_jsonl(tmp_path / "o" / "simulate.jsonl")}
    assert (records["fixed_seed_bitwise"]["pass"], records["fixed_seed_bitwise"]["residual"]) \
        == (False, 1.0)
    assert all(r["pass"] for name, r in records.items() if name != "fixed_seed_bitwise")


def test_simulate_records_memory_does_not_grow_with_steps(monkeypatch):
    # the stored variance ensemble alone was 256 x 4097 x 64 B; streamed, every family
    # but the 2 x 1024-path action check holds O(n_paths) positions.  tracemalloc sees
    # only this process, so every family runs here
    monkeypatch.setattr(cli, "_worker_count", lambda n_tasks: 1)
    cfg = RunConfig.from_sources(parse_config_text(
        "simulate.n_paths = 2000\n"
        "simulate.variance_paths = 256\n"
        "simulate.variance_steps = 4096\n"
        "simulate.repro_steps = 4096\n"), {})
    tracemalloc.start()
    try:
        records, _, _ = cli.simulate_records(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r["pass"] for r in records)
    assert peak < 256 * 4097 * 64 / 4


@pytest.mark.parametrize("text,code", [
    (FAST_SIMULATE, EXIT_PASS),
    (FAST_SIMULATE + "simulate.control = plane_wave\nsimulate.control_w = 1.25,0.75,0,0\n"
     "simulate.dump_paths = true\nsimulate.dump_max_paths = 5\n", EXIT_PASS),
    (FAST_SIMULATE + "simulate.n_sigma = 1e-9\n", EXIT_FAIL),
    (FAST_SIMULATE + "simulate.control = constant\nsimulate.control_w = 1e308,0,0,0\n"
     "simulate.ds = 10\n", EXIT_BLOWUP),
], ids=["small", "plane_wave_dump", "failing_generator", "blowup"])
def test_simulate_outputs_are_the_same_bytes_in_any_number_of_processes(
        tmp_path, monkeypatch, text, code):
    cfg = write_cfg(tmp_path, text)
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_worker_count", lambda n_tasks: min(workers, n_tasks))
        out = tmp_path / f"workers{workers}"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == code
        assert_no_child_process()
        assert gc.get_freeze_count() == 0
        meta = json.loads((out / "simulate_meta.json").read_text())
        assert meta["workers"] == workers
        assert len(meta["busy_seconds"]) == workers and min(meta["busy_seconds"]) > 0
        outputs.append([(out / name).read_bytes() if (out / name).exists() else None
                        for name in ("simulate.jsonl", "paths.csv")])
    assert outputs[0] == outputs[1]
    records = {r["check"]: r for r in read_jsonl(tmp_path / "workers2" / "simulate.jsonl")}
    assert len(records) == 8
    if code == EXIT_BLOWUP:
        rec = records["configured_ensemble"]
        assert (rec["truncated_paths"], rec["first_bad_step"], rec["first_bad_path"]) \
            == (64, 0, 0)
    assert (outputs[0][1] is not None) == ("dump_paths" in text)


@pytest.mark.parametrize("flags,code", [([], EXIT_PASS), (["--corrupt-gamma"], EXIT_FAIL)],
                         ids=["dirac", "corrupt"])
def test_clifford_records_are_the_same_bytes_in_any_number_of_processes(
        tmp_path, monkeypatch, flags, code):
    # three tasks: relations, slash_square and slash_determinant, the samples drawn
    # before any of them
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_worker_count", lambda n_tasks: min(workers, n_tasks))
        out = tmp_path / f"workers{workers}"
        assert main(["verify-clifford", *flags, "--out", str(out)]) == code
        assert_no_child_process()
        meta = json.loads((out / "clifford_meta.json").read_text())
        assert meta["workers"] == workers and len(meta["busy_seconds"]) == workers
        assert list(meta["check_seconds"]) == ["relations", "slash_square", "slash_determinant"]
        outputs.append((out / "clifford.jsonl").read_bytes())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 54


def test_simulate_families_are_dealt_heaviest_first_to_the_least_loaded_process():
    # simulate-long's path-steps: the variance ensemble (index 5) outweighs the rest
    cfg = RunConfig.from_sources(parse_config_text(
        "simulate.n_paths = 2000\nsimulate.variance_paths = 256\n"
        "simulate.variance_steps = 8192\nsimulate.repro_paths = 64\n"
        "simulate.repro_steps = 8192\n"), {})
    costs = [cost(cfg) for *_, cost in cli.SIMULATE_FAMILIES]
    # reim_correlation_signs reads two steps, but draws one noise chunk of 8192 path-steps
    assert costs == [0, 6 * 2000, 3 * 64, 2 * 64 * 8192, 8192, 256 * 8192, 2 * 1024, 64 * 8192]
    assert cli._share_out(costs, 1) == [list(range(8))]
    assert cli._share_out(costs, 2) == [[5], [0, 1, 2, 3, 4, 6, 7]]
    assert cli._share_out([5, 3, 3, 2], 2) == [[0, 3], [1, 2]]
    assert cli._share_out([1, 1], 3) == [[0], [1], []]
    # identity's fields cost 1 each: dealt round-robin
    assert cli._share_out([1] * 5, 2) == [[0, 2, 4], [1, 3]]


@pytest.mark.parametrize("workers", [1, 2])
def test_task_runner_times_each_task_under_its_name(monkeypatch, workers):
    # a clock that only the tasks advance: each process's busy seconds are the sum of
    # its tasks', and a name that repeats (identity's fields) sums over its tasks and
    # over the processes; the names keep the order in which they first appear
    clock = [0.0]

    def task(name, seconds):
        def run():
            clock[0] += seconds
            return [{"check": name, "seconds": seconds}], [(name,)]
        return name, 1, run

    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(cli, "_worker_count", lambda n_tasks: min(workers, n_tasks))
    # two processes are dealt [0, 2] and [1, 3]
    tasks = [task("b", 1.0), task("a", 2.0), task("b", 4.0), task("a", 8.0)]
    records, rows, meta = cli._in_processes(tasks)
    assert [r["seconds"] for r in records] == [1.0, 2.0, 4.0, 8.0]
    assert rows == [("b",), ("a",), ("b",), ("a",)]
    assert meta == {"check_seconds": {"b": 5.0, "a": 10.0}, "workers": workers,
                    "busy_seconds": [15.0] if workers == 1 else [5.0, 10.0]}
    assert list(meta["check_seconds"]) == ["b", "a"]
    assert_no_child_process()


def break_families(monkeypatch, broken):
    """Make each family of SIMULATE_FAMILIES whose index is in ``broken`` raise."""
    def raiser(k):
        def family(cfg):
            raise ConfigError(f"family {k} is broken")
        return family

    monkeypatch.setattr(cli, "SIMULATE_FAMILIES", tuple(
        (name, raiser(k) if k in broken else family, cost)
        for k, (name, family, cost) in enumerate(cli.SIMULATE_FAMILIES)))


# on FAST_SIMULATE, two processes: the variance family (5) runs in this process and
# every other family in the forked worker
@pytest.mark.parametrize("broken", [{1}, {5}, {1, 5}, {5, 6}, {2, 6}])
def test_simulate_family_error_is_reported_as_in_one_process(
        tmp_path, monkeypatch, capsys, broken):
    cfg = write_cfg(tmp_path, FAST_SIMULATE)
    costs = [cost(RunConfig.from_sources(parse_config_text(FAST_SIMULATE), {}))
             for *_, cost in cli.SIMULATE_FAMILIES]
    assert cli._share_out(costs, 2) == [[5], [0, 1, 2, 3, 4, 6, 7]]
    errors = []
    for workers in (1, 2):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_worker_count", lambda n_tasks: min(workers, n_tasks))
            break_families(patch, broken)
            out = tmp_path / f"workers{workers}"
            assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert_no_child_process()
        assert gc.get_freeze_count() == 0
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"config error: family {min(broken)} is broken\n"


def test_no_suite_builds_a_field(tmp_path, monkeypatch):
    # every suite works on arrays, under both backends: a grid.Field constructed on any
    # suite path raises here.  One process, so that every task runs under the patch
    def no_field(*args):
        raise AssertionError("a suite constructed a grid.Field")

    monkeypatch.setattr(grid.Field, "__post_init__", no_field)
    monkeypatch.setattr(cli, "_worker_count", lambda n_tasks: 1)
    identity = write_cfg(tmp_path, "grid.points = 32,32\nidentity.max_mode = 3\n",
                         "identity.cfg")
    simulate = write_cfg(tmp_path, FAST_SIMULATE + "simulate.control = plane_wave\n"
                         "simulate.control_w = 1.25,0.75,0,0\nsimulate.dump_paths = true\n",
                         "simulate.cfg")
    for args in (["verify-identity", "--config", identity, "--backend", "spectral"],
                 ["verify-identity", "--config", identity, "--backend", "fd4"],
                 ["verify-clifford"], ["dispersion"], ["evolve"],
                 ["simulate", "--config", simulate]):
        out = tmp_path / args[0]
        assert main(args + ["--out", str(out)]) in (EXIT_PASS, EXIT_FAIL)
        assert len(read_jsonl(out / f"{cli.SUITES[args[0]][0]}.jsonl")) > 0


def test_epsilon_flag_changes_constants(tmp_path):
    out = tmp_path / "out"
    assert main(["dispersion", "--out", str(out), "--epsilon", "-1"]) == 0
    rec = read_jsonl(out / "dispersion.jsonl")[0]
    assert rec["constants"]["epsilon"] == -1


# -- report --------------------------------------------------------------------

def test_report_aggregates_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify-clifford", "--out", str(out)]) == 0
    assert main(["dispersion", "--out", str(out)]) == 0
    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    summary = read_jsonl(out / "summary.jsonl")
    suites = {r["suite"]: r for r in summary}
    assert suites["verify-clifford"]["failed"] == 0
    assert suites["dispersion"]["total"] == 64


def test_report_no_inputs_exit_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", "--out", str(empty)]) == 2


def test_report_missing_directory_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing"
    assert main(["report", "--out", str(missing)]) == 2
    assert "no suite outputs found" in capsys.readouterr().err
    assert not missing.exists()


@pytest.mark.parametrize("content,words", [
    ("", "dispersion.jsonl holds no records"),
    ('{"suite":"dispersion","pass":true}\n{"suite":\n', "dispersion.jsonl line 2: not JSON"),
    ("[1, 2]\n", "dispersion.jsonl line 1: not a JSON object"),
    (None, "Is a directory"),
], ids=["empty", "truncated_line", "not_an_object", "directory"])
def test_report_refuses_bad_input_exit_2(tmp_path, content, words):
    out = tmp_path / "o"
    assert main(["verify-clifford", "--out", str(out)]) == EXIT_PASS
    if content is None:  # an entry that matches *.jsonl but cannot be read
        (out / "dispersion.jsonl").mkdir()
    else:
        (out / "dispersion.jsonl").write_text(content)
    proc = run_cli_process("diracsoc.cli", "report", "--out", str(out))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("report: ")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert words in proc.stderr
    assert not (out / "summary.jsonl").exists()


def test_report_counts_failures(tmp_path):
    out = tmp_path / "out"
    assert main(["verify-clifford", "--out", str(out), "--corrupt-gamma"]) == 1
    assert main(["report", "--out", str(out)]) == 1
    # the summary names exactly the failing lines of clifford.jsonl
    records = read_jsonl(out / "clifford.jsonl")
    (summary,) = read_jsonl(out / "summary.jsonl")
    failed = sorted(n for c in summary["checks"].values() for n in c["failed_lines"])
    assert failed == [i + 1 for i, r in enumerate(records) if not r["pass"]]
    # the damaged gamma^1 breaks the spin generators' Lorentz algebra at every mu != nu
    assert summary["checks"]["spin_lorentz_algebra"]["worst_margin"] == "inf"
    assert len(summary["checks"]["spin_lorentz_algebra"]["failed_lines"]) == 12
    assert summary["checks"]["anticommutator"]["worst_margin"] == "inf"


def test_report_margins_and_failed_lines(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "made.jsonl").write_text(
        '{"suite":"s","check":"exact","residual":0.0,"tolerance":0.0,"pass":true}\n'
        '{"suite":"s","check":"exact","residual":1e-300,"tolerance":0.0,"pass":false}\n'
        '{"suite":"s","check":"ratio","residual":0.5,"tolerance":2.0,"pass":true}\n'
        '\n'
        '{"suite":"s","check":"ratio","residual":"nan","tolerance":2.0,"pass":false}\n'
        '{"suite":"s","check":"ratio","residual":1.0,"tolerance":4.0,"pass":true}\n'
        '{"suite":"t","check":"exact","residual":0,"tolerance":0,"pass":true}\n'
        '{"suite":"t","check":"ratio","residual":3.0,"tolerance":2.0,"pass":false}\n')
    assert main(["report", "--out", str(out)]) == EXIT_FAIL
    summary = read_jsonl(out / "summary.jsonl")
    assert [r["suite"] for r in summary] == ["s", "t"]  # one record per suite
    assert summary[0]["checks"] == {
        "exact": {"worst_margin": "inf", "failed_lines": [2]},
        "ratio": {"worst_margin": "nan", "failed_lines": [5]}}  # NaN is the worst
    assert summary[1]["checks"] == {
        "exact": {"worst_margin": 0.0, "failed_lines": []},
        "ratio": {"worst_margin": 1.5, "failed_lines": [8]}}
    assert list(summary[1]) == ["suite", "total", "passed", "failed", "checks", "pass"]
    text = capsys.readouterr().out
    assert any(line.split() == ["s", "exact", "inf", "2"] for line in text.splitlines())
    assert any(line.split() == ["t", "exact", "0", "-"] for line in text.splitlines())


# -- determinism ----------------------------------------------------------------

def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["verify-clifford", "--out", str(out)]) == 0
        assert main(["dispersion", "--out", str(out)]) == 0
        assert main(["evolve", "--out", str(out)]) == 0
    for name in ("clifford.jsonl", "dispersion.jsonl", "dispersion.csv",
                 "evolve.jsonl", "evolve_sweep.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_simulate_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cfg = write_cfg(tmp_path, FAST_SIMULATE)
    for out in (a, b):
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert (a / "simulate.jsonl").read_bytes() == (b / "simulate.jsonl").read_bytes()


# -- configured potential --------------------------------------------------------

def test_configured_potential_single_sweep(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, """
grid.points = 64,64
identity.n_fields = 3
identity.max_mode = 4
potential.name = em_plane_wave
potential.eps2 = 0.5
potential.k0 = 1
potential.k1 = 1
potential.eps0 = 0
potential.eps1 = 0
potential.eps3 = 0
potential.k2 = 0
potential.k3 = 0
""")
    assert main(["verify-identity", "--config", cfg, "--out", str(out)]) == 0
    records = read_jsonl(out / "identity.jsonl")
    assert len(records) == 3
    assert all(r["check"] == "factored_vs_fock" for r in records)
    assert all(r["potential"] == "em_plane_wave" for r in records)


def test_configured_gauge_violating_potential_uses_discrepancy_law(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, """
grid.points = 64,64
identity.gauge_fields = 2
identity.max_mode = 4
potential.name = custom_wave
potential.eps0 = 0.3
potential.k0 = 1
potential.eps1 = 0
potential.eps2 = 0
potential.eps3 = 0
potential.k1 = 0
potential.k2 = 0
potential.k3 = 0
""")
    assert main(["verify-identity", "--config", cfg, "--out", str(out)]) == 0
    records = read_jsonl(out / "identity.jsonl")
    assert len(records) == 2
    assert all(r["check"] == "gauge_discrepancy_law" for r in records)


def test_configured_potential_bad_params_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, "potential.name = em_plane_wave\n")  # missing eps/k
    assert main(["verify-identity", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_configured_potential_inactive_axis_exit_2(tmp_path):
    # the symmetric-gauge magnetic entry is a polynomial in z^1 and z^2; it is refused as
    # not periodic along axis 1 (test_identity_refusals_come_before_any_field gives the
    # messages of both refusals)
    cfg = write_cfg(tmp_path, "potential.name = constant_magnetic\npotential.B = 1.0\n"
                    "identity.n_fields = 1\n")
    assert main(["verify-identity", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def run_python(*args):
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(diracsoc.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def run_cli_process(module, *args):
    """Run the CLI in a fresh interpreter, as the installed script would be."""
    return run_python("-m", module, *args)


@pytest.mark.parametrize("module", ["diracsoc.report", "diracsoc.clifford"])
def test_importing_a_module_loads_no_other_package_module(module):
    # the package re-exports nothing, so a module brings in only what it imports itself
    proc = run_python("-c", f"import sys, {module}\n"
                            "print(*sorted(m for m in sys.modules if m.startswith('diracsoc')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["diracsoc", module]


def assert_one_line_config_error(proc, key):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"config error: {key}")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_config_file_that_is_not_utf8_text_exit_2(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xff\xfe\x00")
    proc = run_cli_process("diracsoc.cli", "verify-clifford", "--config", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert_one_line_config_error(proc, "config file")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under_file"])
def test_out_that_is_or_lies_under_a_file_exit_2(tmp_path, below):
    # refused before the suite runs, and nothing is created or overwritten
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    proc = run_cli_process("diracsoc.cli", "dispersion", "--out", str(taken / below))
    assert_one_line_config_error(proc, "--out")
    assert taken.read_bytes() == b"not a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_out_that_is_a_dangling_link_exit_2(tmp_path):
    (tmp_path / "link").symlink_to(tmp_path / "nowhere")
    proc = run_cli_process("diracsoc.cli", "dispersion", "--out", str(tmp_path / "link"))
    assert_one_line_config_error(proc, "--out")
    assert [p.name for p in tmp_path.iterdir()] == ["link"]


@pytest.mark.parametrize("below", ["", "made"], ids=["name", "under_made"])
def test_out_with_a_name_too_long_for_the_file_system_exit_2(tmp_path, below):
    # refused before the suite runs: mkdir would fail once the suite is done, and no
    # directory above the long name is made either
    out = tmp_path / below / ("a" * 300) / "sub"
    proc = run_cli_process("diracsoc.cli", "dispersion", "--out", str(out))
    assert_one_line_config_error(proc, f"--out {out}: a name of 300 bytes")
    assert list(tmp_path.iterdir()) == []


def test_identity_at_zero_charge_checks_a_configured_lorenz_gauge_potential(tmp_path):
    # a Lorenz-gauge potential has no gauge family, and at e = 0 its coupling drops out
    cfg = write_cfg(tmp_path, FAST_IDENTITY + "constants.e = 0\n"
                    "potential.name = em_plane_wave\n" + PLANE_WAVE_PARAMS)
    out = tmp_path / "o"
    assert main(["verify-identity", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    records = read_jsonl(out / "identity.jsonl")
    assert {r["check"] for r in records} == {"factored_vs_fock"} and len(records) == 2


@pytest.mark.parametrize("text, n_stationary", [
    # the band is 6.7e-3 of the threshold at steps = 1000 and stationary_tol = 1e-10, so
    # a threshold 1% off the gap 0.1 classifies its modes on the right side
    ("evolve.dtau = 0.99e-12\n", 3), ("evolve.dtau = 1.01e-12\n", 1),
    # 6 steps u / stationary_tol is 6.7 and 13: an absolute bound alone would put the
    # on-shell gap (|delta| of about 4e-16) within rounding of the threshold, but its
    # phase is too small to drift by more than twice itself
    ("evolve.stationary_tol = 1e-13\n", 1),
    ("evolve.steps = 20000\nevolve.stationary_tol = 1e-12\n", 1),
])
def test_evolve_accepts_gaps_just_outside_the_rounding_band(tmp_path, text, n_stationary):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    stationary = [r for r in read_jsonl(out / "evolve.jsonl") if r["stationary"]]
    assert len(stationary) == n_stationary
    assert min(abs(r["delta"]) for r in stationary) <= 1e-15


def test_identity_max_mode_beyond_nyquist_exit_2(tmp_path):
    # 200 modes do not fit below the Nyquist mode (128) of the default 256-point axes
    cfg = write_cfg(tmp_path, "identity.max_mode = 200\n")
    proc = run_cli_process("diracsoc.cli", "verify-identity", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert_one_line_config_error(proc, "identity.max_mode")


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "simulate.ds", "0"),
    ("simulate", "simulate.ds", "-1e-3"),
    ("simulate", "simulate.n_paths", "1"),
    ("simulate", "simulate.variance_paths", "1"),
    ("simulate", "simulate.repro_paths", "1"),
    ("simulate", "simulate.variance_steps", "0"),
    ("evolve", "evolve.steps", "-5"),
    ("evolve", "evolve.steps", "0"),
    ("evolve", "evolve.dtau", "0"),
    ("dispersion", "dispersion.n_points", "0"),
    ("verify-clifford", "clifford.det_samples", "0"),
    ("evolve", "evolve.n_gaps", "0"),
    # each of these would let the suite pass without checking what it names
    ("verify-identity", "identity.n_fields", "0"),
    ("verify-identity", "identity.gauge_fields", "0"),
    ("verify-identity", "identity.tolerance", "inf"),
    ("simulate", "simulate.dump_max_paths", "-4"),
    ("simulate", "simulate.n_sigma", "inf"),
    ("simulate", "simulate.n_sigma", "-1"),
    ("simulate", "simulate.n_sigma", "nan"),
    ("simulate", "simulate.ds", "inf"),
    # non-finite sweep bounds, and sweeps whose most negative gap has no real k^0
    ("evolve", "evolve.gap_range", "nan"),
    ("evolve", "evolve.gap_range", "inf"),
    ("evolve", "evolve.k1", "nan"),
    ("evolve", "evolve.k1", "inf"),
    ("dispersion", "dispersion.kmax", "nan"),
    ("dispersion", "dispersion.kmax", "inf"),
    ("evolve", "evolve.k1", "0.3"),
    ("evolve", "evolve.gap_range", "3"),
    # sweeps with no on-shell gap, which never check that an on-shell mode is stationary
    ("evolve", "evolve.n_gaps", "40"),
    ("evolve", "evolve.n_gaps", "1"),
    # a per-step phase gap_range * dtau / (hbar m) of pi or more, which np.unwrap folds
    ("evolve", "evolve.dtau", "1.5708"),
    ("evolve", "evolve.dtau", "2"),
    ("evolve", "evolve.dtau", "4"),
    # a stationarity threshold of 0.1, the sweep's spacing: the gap -0.09999999999999964
    # drifted by 1.0000000000000128e-10 > 1e-10, on the wrong side of it by rounding
    ("evolve", "evolve.dtau", "1e-12"),
    # every key is parsed at load, whichever suite runs and whether it reads the key
    ("verify-clifford", "simulate.control", "bogus"),
    ("simulate", "simulate.control_w", "1,2,3"),
    ("simulate", "simulate.dump_paths", "maybe"),
    ("verify-identity", "potential.a0_0000", "inf"),
    # non-finite constants and extents
    ("verify-identity", "grid.extent", "nan,1"),
    ("verify-identity", "grid.extent", "inf,inf"),
    ("verify-identity", "constants.e", "inf"),
    ("dispersion", "constants.e", "nan"),
    ("dispersion", "constants.c", "inf"),
    ("evolve", "constants.hbar", "inf"),
    ("simulate", "constants.m", "inf"),
    # refusals whose message names the key
    ("dispersion", "constants.m", "-1"),
    ("dispersion", "constants.epsilon", "2"),
    ("dispersion", "grid.points", "100,100"),
    ("dispersion", "grid.dims", "5"),
])
def test_out_of_range_config_value_exit_2(tmp_path, command, key, value):
    assert_refused_at_load(tmp_path, command, f"{key} = {value}\n", key)


@pytest.mark.parametrize("command,text,key", [
    ("simulate", "simulate.control = constant\nsimulate.control_w = 1,2,3", "simulate.control_w"),
    ("simulate", "simulate.control = plane_wave\nsimulate.control_w = 1,2,3",
     "simulate.control_w"),
    ("verify-identity", "potential.name = custom_polynomial\npotential.a0_0000 = inf",
     "potential.a0_0000"),
    ("verify-identity", "potential.name = custom_polynomial\npotential.a0_0000 = nan",
     "potential.a0_0000"),
    # entry counts that do not match grid.dims
    ("dispersion", "grid.dims = 3", "grid.extent"),
    ("dispersion", "grid.dims = 1\ngrid.extent = 1", "grid.points"),
    # a potential parameter that no configured entry takes, which would change
    # config_hash and nothing else
    ("verify-identity", "potential.name = em_plane_wave\n" + PLANE_WAVE_PARAMS
     + "potential.phse = 0.7", "potential.phse"),
    ("verify-identity", "potential.name = constant_electric\npotential.E = 1\n"
     "potential.B = 2", "potential.B"),
    ("dispersion", "potential.name = free\npotential.phase = 0", "potential.phase"),
    # a k^0 refusal names evolve.k1 only when evolve.gap_range is at its default text
    ("evolve", "evolve.k1 = 0.3\nevolve.gap_range = 1.5", "evolve.gap_range"),
    ("evolve", "evolve.k1 = 0.3\nevolve.gap_range = 2.0", "evolve.k1"),
    # dtau is the largest with 1.7 dtau < pi, but the end modes realize |gap| a rounding
    # above 1.7 and so turn by pi per step, which the frequency fit cannot unwrap
    ("evolve", "evolve.gap_range = 1.7\nevolve.dtau = 1.8479956785822311", "evolve.dtau"),
    ("verify-identity", "potential.E = 3", "potential.E"),
    ("simulate", "potential.name = catalog\npotential.a0_0000 = 1", "potential.a0_0000"),
    ("verify-identity", "potential.name = custom_polynomial\npotential.foo = 1",
     "potential.foo"),
])
def test_refused_config_values_name_their_key(tmp_path, command, text, key):
    assert_refused_at_load(tmp_path, command, text + "\n", key)


def test_plane_wave_phase_is_a_potential_parameter():
    cfg = RunConfig.from_sources(parse_config_text(
        "potential.name = em_plane_wave\n" + PLANE_WAVE_PARAMS + "potential.phase = 0.7\n"))
    assert cfg.potential().family.phase == 0.7


def assert_refused_at_load(tmp_path, command, text, key):
    cfg = write_cfg(tmp_path, text)
    proc = run_cli_process("diracsoc.cli", command, "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert_one_line_config_error(proc, key)
    assert not (tmp_path / "o").exists()


# at m = 0.5 the default evolve sweep's gap -2 has no real k^0 at k1 = 1; only evolve
# runs that sweep, so only evolve refuses the mass
@pytest.mark.parametrize("command", ["verify-clifford", "dispersion", "verify-identity"])
def test_evolve_sweep_checks_leave_other_suites_alone(tmp_path, command):
    cfg = write_cfg(tmp_path, "constants.m = 0.5\ngrid.points = 32,32\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_PASS


# only verify-identity reads identity.max_mode, so a grid below its Nyquist rule (the
# default max_mode 8 reaches the Nyquist mode of 16 points) leaves every other command alone
@pytest.mark.parametrize("command", ["verify-clifford", "dispersion", "evolve", "simulate",
                                     "report"])
def test_identity_nyquist_rule_leaves_other_suites_alone(tmp_path, command):
    cfg = write_cfg(tmp_path, "grid.points = 16,16\n" + FAST_SIMULATE)
    out = str(tmp_path / "o")
    if command == "report":
        assert main(["verify-clifford", "--out", out]) == EXIT_PASS
    assert main([command, "--config", cfg, "--out", out]) == EXIT_PASS


def test_evolve_refuses_a_mass_its_sweep_cannot_reach(tmp_path):
    cfg = write_cfg(tmp_path, "constants.m = 0.5\n")
    proc = run_cli_process("diracsoc.cli", "evolve", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert_one_line_config_error(proc, "evolve.gap_range")
    assert not (tmp_path / "o").exists()


def test_evolve_accepts_a_step_just_below_the_unwrap_bound(tmp_path):
    # the end gaps turn by 2 * 1.5707 = 3.1414 < pi per step; the nested output path is
    # created by the first file written
    cfg = write_cfg(tmp_path, "evolve.dtau = 1.5707\n")
    out = tmp_path / "a" / "b"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    assert (out / "evolve.jsonl").exists() and (out / "evolve_sweep.csv").exists()


# Philox keys are below 2**128, and the simulate suite derives keys up to seed + 6 * 7919
MAX_SEED = 2 ** 128 - 1 - 6 * 7919


@pytest.mark.parametrize("seed", [-1, MAX_SEED + 1, 2 ** 128])
def test_seed_outside_philox_key_range_exit_2(tmp_path, seed):
    proc = run_cli_process("diracsoc.cli", "simulate", "--seed", str(seed),
                           "--out", str(tmp_path / "o"))
    assert_one_line_config_error(proc, "seed")


def test_largest_seed_accepted():
    assert RunConfig.from_sources(overrides={"seed": str(MAX_SEED)})["seed"] == MAX_SEED
    assert RunConfig.from_sources(overrides={"seed": "0"})["seed"] == 0


def test_empty_record_list_is_not_a_pass():
    assert _exit_for([]) == EXIT_FAIL
    assert _exit_for([{"pass": True}]) == EXIT_PASS
    assert _exit_for([{"pass": True}, {"pass": False}]) == EXIT_FAIL


def test_python_dash_m_diracsoc(tmp_path):
    proc = run_cli_process("diracsoc", "verify-clifford", "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("verify-clifford: PASS")
    assert (tmp_path / "o" / "clifford.jsonl").exists()


# -- preconditions found while the suite runs --------------------------------------

@pytest.mark.parametrize("max_mode,code", [(1, 0), (2, 2)])
def test_identity_dealiasing_on_small_grid(tmp_path, max_mode, code):
    # the catalog's em_wave_spacelike is mode 2 on axis 1: 2 + 2 reaches the Nyquist
    # mode 4 of an 8-point axis, which the spectral derivative zeroes
    cfg = write_cfg(tmp_path, f"grid.points = 8,8\nidentity.n_fields = 3\n"
                              f"identity.max_mode = {max_mode}\n")
    proc = run_cli_process("diracsoc.cli", "verify-identity", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    if code == 0:
        assert proc.returncode == 0, proc.stderr
    else:
        assert_one_line_config_error(proc, "identity.max_mode")
        assert "em_wave_spacelike on axis 1" in proc.stderr
        assert not (tmp_path / "o").exists()


def test_identity_dealiasing_configured_plane_wave(tmp_path):
    # mode 3 on both axes of a 16-point grid leaves room for max_mode 4, not 5
    cfg = write_cfg(tmp_path, """
grid.points = 16,16
identity.max_mode = 5
potential.name = em_plane_wave
potential.eps0 = 0
potential.eps1 = 0
potential.eps2 = 0.5
potential.eps3 = 0
potential.k0 = 3
potential.k1 = 3
potential.k2 = 0
potential.k3 = 0
""")
    proc = run_cli_process("diracsoc.cli", "verify-identity", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert_one_line_config_error(proc, "identity.max_mode")
    assert "em_plane_wave on axis 0" in proc.stderr


@pytest.mark.parametrize("max_mode,code", [(7, 0), (8, 2)])
def test_identity_max_mode_against_the_free_potential(tmp_path, max_mode, code):
    # the free potential adds no mode, so max_mode reaches the Nyquist mode 8 of 16 points
    # on its own
    cfg = write_cfg(tmp_path, f"grid.points = 16,16\nidentity.n_fields = 1\n"
                              f"identity.max_mode = {max_mode}\npotential.name = free\n")
    proc = run_cli_process("diracsoc.cli", "verify-identity", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    if code == 0:
        assert proc.returncode == 0, proc.stderr
    else:
        assert_one_line_config_error(proc, "identity.max_mode")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name,code", [("catalog", 2), ("free", 0)])
def test_identity_catalog_needs_two_axes(tmp_path, name, code):
    # the catalog's waves vary along axis 1; one configured potential runs on one axis
    cfg = write_cfg(tmp_path, f"grid.dims = 1\ngrid.extent = 6.283185307179586\n"
                              f"grid.points = 64\nidentity.n_fields = 2\n"
                              f"identity.max_mode = 4\npotential.name = {name}\n")
    proc = run_cli_process("diracsoc.cli", "verify-identity", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    if code == 0:
        assert proc.returncode == 0, proc.stderr
    else:
        assert_one_line_config_error(proc, "grid.dims")
        assert not (tmp_path / "o").exists()


WAVE_1_5 = PLANE_WAVE_PARAMS.replace("k0 = 1\n", "k0 = 1.5\n").replace("k1 = 1\n",
                                                                       "k1 = 1.5\n")


@pytest.mark.parametrize("text,key", [
    ("potential.name = em_plane_wave\n" + WAVE_1_5, "potential.k0"),
    ("potential.name = custom_wave\n"
     + GAUGE_VIOLATING_PARAMS.replace("k0 = 1\n", "k0 = 0.5\n"), "potential.k0"),
    ("potential.name = custom_wave\n"
     + GAUGE_VIOLATING_PARAMS.replace("k1 = 0\n", "k1 = 0.25\n"), "potential.k1"),
], ids=["plane_wave", "gauge_violating", "second_axis"])
def test_identity_refuses_a_wave_that_is_not_periodic_on_the_grid(tmp_path, text, key):
    # mode |k_mu| L_mu / 2 pi of 1.5, 0.5 or 0.25 on the 2 pi extents: A phi would jump at
    # the wrap, and the records would fail on correct code
    cfg = write_cfg(tmp_path, FAST_IDENTITY + text)
    proc = run_cli_process("diracsoc.cli", "verify-identity", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert_one_line_config_error(proc, key)
    assert "not a whole number" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_identity_runs_a_wave_that_is_periodic_on_a_longer_extent(tmp_path):
    # k = 1.5 fits 3 whole periods into an extent of 4 pi
    cfg = write_cfg(tmp_path, FAST_IDENTITY + "grid.extent = 12.566370614359172,"
                    "12.566370614359172\npotential.name = em_plane_wave\n" + WAVE_1_5)
    assert main(["verify-identity", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_PASS


@pytest.mark.parametrize("patched,check", [("corrcoef", "reim_correlation_signs"),
                                           ("var", "diffusion_variance")])
def test_nan_statistic_fails_simulate(tmp_path, monkeypatch, patched, check):
    nan_like = {"corrcoef": lambda *a, **k: np.full((2, 2), np.nan),
                "var": lambda *a, **k: np.nan}[patched]
    monkeypatch.setattr(np, patched, nan_like)
    cfg = write_cfg(tmp_path, FAST_SIMULATE)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_FAIL
    (rec,) = [r for r in read_jsonl(tmp_path / "o" / "simulate.jsonl") if r["check"] == check]
    assert rec["pass"] is False
    assert rec["residual"] == "nan"


def test_invalid_simulate_control_exit_2(tmp_path):
    cfg = write_cfg(tmp_path, FAST_SIMULATE + "simulate.control = bogus\n")
    proc = run_cli_process("diracsoc.cli", "simulate", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert_one_line_config_error(proc, "simulate.control")


def test_nan_determinant_fails_clifford(tmp_path, monkeypatch):
    monkeypatch.setattr(np.linalg, "det", lambda *a, **k: np.nan)
    out = tmp_path / "o"
    assert main(["verify-clifford", "--out", str(out)]) == EXIT_FAIL
    records = {r["check"]: r for r in read_jsonl(out / "clifford.jsonl")}
    assert records["slash_determinant"]["pass"] is False
    assert records["slash_determinant"]["residual"] == "nan"
    assert records["slash_square"]["pass"] is True


@pytest.mark.parametrize("name,key,axis", [("constant_electric", "E = 1.3", 1),
                                            ("custom_polynomial", "a0_1000 = 1", 0)])
def test_identity_refuses_non_periodic_polynomial(tmp_path, name, key, axis):
    # a polynomial varying along an active axis jumps at the periodic wrap
    cfg = write_cfg(tmp_path, f"grid.points = 64,64\npotential.name = {name}\n"
                              f"potential.{key}\n")
    proc = run_cli_process("diracsoc.cli", "verify-identity", "--config", cfg,
                           "--out", str(tmp_path / "o"))
    assert_one_line_config_error(proc, f"potential {name}")
    assert f"varies along axis {axis}" in proc.stderr
    assert not (tmp_path / "o").exists()


def test_identity_accepts_constant_configured_polynomial(tmp_path):
    cfg = write_cfg(tmp_path, FAST_IDENTITY + "potential.name = custom_polynomial\n"
                                              "potential.a0_0000 = 0.5\n")
    assert main(["verify-identity", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_PASS


def test_identity_meta_records_check_family_seconds(tmp_path):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, FAST_IDENTITY)
    assert main(["verify-identity", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    seconds = json.loads((out / "identity_meta.json").read_text())["check_seconds"]
    assert set(seconds) == {"factored_vs_fock", "gauge_discrepancy_law"}
    assert all(s > 0 for s in seconds.values())


def test_simulate_meta_records_check_family_seconds(tmp_path):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, FAST_SIMULATE)
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    seconds = json.loads((out / "simulate_meta.json").read_text())["check_seconds"]
    # one span per check family the suite writes, in the order it writes them
    families = list(dict.fromkeys(r["check"] for r in read_jsonl(out / "simulate.jsonl")))
    assert list(seconds) == families
    assert {"generator", "straight_line_bitwise", "fixed_seed_bitwise", "reim_correlation_signs",
            "diffusion_variance", "action_constant_onshell", "configured_ensemble"} <= set(seconds)
    assert all(s >= 0 for s in seconds.values())


@pytest.mark.parametrize("command,stem,families", [
    ("verify-clifford", "clifford", ["relations", "slash_square", "slash_determinant"]),
    ("dispersion", "dispersion", ["root_on_shell"]),
    ("evolve", "evolve", ["mode_stationarity"]),
])
def test_small_suite_meta_records_check_family_seconds(tmp_path, command, stem, families):
    out = tmp_path / "o"
    assert main([command, "--out", str(out)]) == EXIT_PASS
    meta = json.loads((out / f"{stem}_meta.json").read_text())
    seconds = meta["check_seconds"]
    assert list(seconds) == families
    assert all(s >= 0 for s in seconds.values())
    # the one task runner's meta, as the two forked suites write it
    assert list(meta)[-4:] == ["records", "check_seconds", "workers", "busy_seconds"]
    assert 1 <= meta["workers"] <= len(families)
    assert len(meta["busy_seconds"]) == meta["workers"]
    assert all(s >= 0 for s in meta["busy_seconds"])
    # every check the suite writes is timed, under its own name or under "relations"
    checks = {r["check"] for r in read_jsonl(out / f"{stem}.jsonl")}
    assert checks - set(families) <= {"anticommutator", "spin_lorentz_algebra",
                                      "product_identity", "hermiticity"}


# -- the record contract ------------------------------------------------------------

@pytest.mark.parametrize("command,text,flags,code", [
    ("verify-clifford", "", [], EXIT_PASS),
    ("verify-clifford", "", ["--corrupt-gamma"], EXIT_FAIL),
    ("verify-identity", FAST_IDENTITY, [], EXIT_PASS),
    ("dispersion", "", [], EXIT_PASS),
    ("evolve", "", [], EXIT_PASS),
    ("simulate", FAST_SIMULATE, [], EXIT_PASS),
])
def test_every_record_carries_its_verdict(tmp_path, command, text, flags, code):
    out = tmp_path / "o"
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == code
    (path,) = out.glob("*.jsonl")
    records = read_jsonl(path)
    assert records
    for rec in records:
        assert {"residual", "tolerance", "pass"} <= set(rec), rec["check"]
        within = rec["residual"] <= rec["tolerance"]
        assert within or not rec["pass"], rec["check"]
        if command != "evolve":  # evolve also requires the stationarity classification
            assert rec["pass"] == within, rec["check"]
