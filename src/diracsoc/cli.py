"""Batch verification suites behind a single command-line entry point.

Subcommands: verify-clifford, verify-identity, dispersion, evolve,
simulate, report.  Each suite is a module-level ``<stem>_records(cfg)``
function that returns ``(records, rows, meta)``: its records, all built by
``check``, its CSV rows and its timings for the meta file.  The verdict is
``residual <= tolerance`` (a NaN residual fails), and every record carries
the suite name, the effective-configuration hash, seed, constants, backend,
and the branch choices, so outputs are self-describing.  Every suite makes its
refusals first and then hands its work to one task runner, ``_in_processes``,
as named, costed check tasks (a field each, a check family each) that it
times, runs in up to one forked process per CPU and joins in the serial order.
One suite runner, ``run_suite``, times a suite, writes ``<stem>.jsonl``, its
CSV and ``<stem>_meta.json``, and picks the exit code; re-running a command
with an identical configuration reproduces the JSON-lines files byte for
byte, for any number of processes.

Exit codes: 0 all checks pass, 1 at least one check failed,
2 usage/configuration error, 3 numerical blow-up.
"""

from __future__ import annotations

import argparse
import functools
import gc
import itertools
import os
import pickle
import sys
import time
from pathlib import Path

import numpy as np

from . import emfield, soc, spectrum
from .clifford import DIRAC, mdot, relation_residuals
from .config import KEYS, ConfigError, RunConfig, load_config_file
from .grid import BACKENDS, SpacetimeGrid, band_limited_jet, spinor_modes
from .operators import (OperatorError, SampledPotential, fock_and_factored_in_place,
                        gauge_discrepancy_coefficient, relative_discrepancy,
                        require_representable)
from .report import read_jsonl_numbered, summarize, write_csv, write_jsonl, write_meta

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BLOWUP = 3


def _grid_label(grid: SpacetimeGrid) -> str:
    return "x".join(str(n) for n in grid.points)


def check(cfg: RunConfig, suite: str, name: str, holds: bool = True, **fields) -> dict:
    """One record: suite, check name, ``fields`` in the given order, verdict, provenance.

    ``fields`` must hold ``residual`` and ``tolerance``; the record passes when
    ``residual <= tolerance`` (so a NaN residual fails) and ``holds`` is true.
    """
    rec = {"suite": suite, "check": name, **fields,
           "pass": bool(fields["residual"] <= fields["tolerance"]) and holds}
    rec.update(cfg.provenance())
    return rec


# -- the check-task runner ------------------------------------------------------

def _worker_count(n_tasks: int) -> int:
    """Processes to run ``n_tasks`` tasks in: one per CPU this process may run on, at
    most one per task, and one where ``os.fork`` or the affinity mask is missing."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_tasks))


def _share_out(costs: list[int], n: int) -> list[list[int]]:
    """The indices of ``costs`` dealt to ``n`` processes, heaviest first (the lower
    index on ties), each to the process with the least cost so far (the lowest
    process on ties); each process's indices in increasing order."""
    shares, loads = [[] for _ in range(n)], [0] * n
    for k in sorted(range(len(costs)), key=lambda k: -costs[k]):
        w = loads.index(min(loads))
        shares[w].append(k)
        loads[w] += costs[k]
    return [sorted(share) for share in shares]


def _in_processes(tasks: list[tuple[str, int, object]]) -> tuple[list[dict], list, dict]:
    """Run the check tasks of ``tasks``, (name, cost, task) triples, and return their
    records and rows joined in index order, and the meta of the run.

    The tasks are dealt to ``_worker_count`` processes by cost (``_share_out``),
    and each process runs its own in increasing index.  task() gives its
    (records, rows), and the seconds it takes are summed under its name in
    ``check_seconds``, in the order the names first appear.  A process stops at
    its first task that raises an Exception.  Once every process is done, the
    exception of the lowest index is raised here with its type and message: the
    one that running every task in index order meets first.  The first share
    runs in this process and each other share in a child forked first, which
    pickles what it did into a pipe and leaves by ``os._exit``, so that it runs
    no atexit handler and flushes no inherited buffer.  The collector's objects
    are frozen across the forks (``gc.freeze``), so that no collection in a child
    touches, and so copies, the pages it shares with this process.  Every child
    is reaped before this returns or raises; if this process fails first, the
    children are killed.  The meta also gives the process count and each
    process's busy seconds.
    """
    n = _worker_count(len(tasks))
    dealt = _share_out([cost for _, cost, _ in tasks], n)

    def run(w):
        started, done = time.perf_counter(), []
        for k in dealt[w]:
            task_started = time.perf_counter()
            try:
                records, rows = tasks[k][2]()
            except Exception as exc:
                return done, (k, exc), time.perf_counter() - started
            done.append((k, records, rows, time.perf_counter() - task_started))
        return done, None, time.perf_counter() - started

    children, shares = [], []
    if n > 1:
        gc.freeze()
    try:
        for w in range(1, n):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    os.close(read_fd)
                    for _, pipe in children:
                        pipe.close()
                    with open(write_fd, "wb") as pipe:
                        pipe.write(pickle.dumps(run(w)))
                    os._exit(0)
                finally:
                    os._exit(1)  # whatever run(w) or the pipe raised
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        shares.append(run(0))
        for pid, pipe in children:
            data = pipe.read()
            if not data:
                raise RuntimeError(f"worker process {pid} ended without its results")
            shares.append(pickle.loads(data))
    finally:
        for pid, pipe in children:
            pipe.close()
            if len(shares) < n:
                import signal  # only a failed run pays for the import
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        gc.unfreeze()
    errors = [error for _, error, _ in shares if error is not None]
    if errors:
        raise min(errors, key=lambda e: e[0])[1]
    records, rows, seconds = [], [], {}
    for k, task_records, task_rows, task_seconds in sorted(
            (task for done, _, _ in shares for task in done), key=lambda task: task[0]):
        records += task_records
        rows += task_rows
        name = tasks[k][0]
        seconds[name] = seconds.get(name, 0.0) + task_seconds
    return records, rows, {"check_seconds": seconds, "workers": n,
                           "busy_seconds": [busy for *_, busy in shares]}


# -- clifford ----------------------------------------------------------------

def clifford_records(cfg: RunConfig, corrupt: bool = False) -> tuple[list[dict], list, dict]:
    """All gamma-algebra identity checks as records (exact unless noted), no CSV rows,
    and the meta of the run; the four relation families are one task, ``relations``.

    With ``corrupt`` (a negative control) one entry of gamma^1 is damaged first.
    """
    g = np.array(DIRAC.gammas)
    if corrupt:
        g[1, 0, 3] += 0.5
    eye = np.eye(4, dtype=np.complex128)
    rng = np.random.default_rng(cfg["seed"])
    n = cfg["clifford.det_samples"]
    # per sample: v draws its real then imaginary parts, then the shift a does
    samples = [(rng.standard_normal(4) + 1j * rng.standard_normal(4),
                complex(rng.standard_normal() + 1j * rng.standard_normal())) for _ in range(n)]
    slashes = [np.tensordot(v, g, axes=(0, 0)) for v, _ in samples]

    def relations():
        return [check(cfg, "verify-clifford", name, mu=mu, nu=nu, residual=resid,
                      tolerance=0.0) for name, mu, nu, resid in relation_residuals(g)], []

    def slash_square():
        # np.max, unlike max(), propagates NaN, so an undefined residual fails its check
        worst = float(np.max([float(np.abs(sl @ sl - mdot(v, v) * eye).max())
                              for (v, _), sl in zip(samples, slashes)]))
        return [check(cfg, "verify-clifford", "slash_square",
                      samples=n, residual=worst, tolerance=1e-12)], []

    def slash_determinant():
        residuals = []
        for (v, a), sl in zip(samples, slashes):
            det = complex(np.linalg.det(sl - a * eye))
            want = (mdot(v, v) - a * a) ** 2
            residuals.append(abs(det - want) / max(abs(want), 1.0))
        return [check(cfg, "verify-clifford", "slash_determinant", samples=n,
                      residual=float(np.max(residuals)),
                      tolerance=cfg["clifford.det_tolerance"])], []

    return _in_processes([("relations", 1, relations), ("slash_square", n, slash_square),
                          ("slash_determinant", n, slash_determinant)])


# -- identity ----------------------------------------------------------------

def identity_potentials(grid: SpacetimeGrid) -> list[tuple[str, emfield.PotentialSpec]]:
    """Four divergence-free potentials representable on the active axes."""
    k_wave = grid.commensurate_wavevector([1, 1])
    k_space = grid.commensurate_wavevector([0, 2])
    return [
        ("free", emfield.free()),
        ("constant_A", emfield.constant_potential([0.8, -0.3, 0.2, 0.0])),
        ("em_wave_lightlike", emfield.em_plane_wave([0.0, 0.0, 0.5, 0.0], k_wave)),
        ("em_wave_spacelike", emfield.em_plane_wave([0.0, 0.0, 0.0, 0.4], k_space)),
    ]


def gauge_violating_potential(grid: SpacetimeGrid) -> emfield.PotentialSpec:
    k = grid.commensurate_wavevector([1, 0])
    return emfield.custom_wave([0.3, 0.0, 0.0, 0.0], k)


def _gauge_law_residual(phi, fock, fact, coef) -> float:
    """max |(factored - fock) - predicted| / max |predicted| for one field, where the
    prediction is ``coef phi`` (``gauge_discrepancy_prediction``); formed one spinor
    component at a time, with ``fact`` overwritten."""
    worst, scale = [], []
    for a in range(4):
        pred = coef * phi[a]
        diff = np.subtract(fact[a], fock[a], out=fact[a])
        diff -= pred
        scale.append(np.abs(pred).max())
        worst.append(np.abs(diff).max())
    return float(np.max(worst)) / float(np.max(scale))


def identity_records(cfg: RunConfig) -> tuple[list[dict], list, dict]:
    """The identity records, no CSV rows, and the meta of the run.

    Every refusal is made before any field is drawn.  The generator's state is
    then saved before each field's draws, in the serial order, and each field is
    a cost-1 check task of ``_in_processes`` that restores its state, so it gets
    the same draws in any process.  A process samples each potential it needs
    once, and a gauge field's coefficient before it, holding only the last; it
    draws every field with its derivatives into its first field's arrays and
    forms both sides in place in them.  No task calls a BLAS routine, so a
    forked copy never enters the BLAS thread pool it inherits.
    """
    grid = cfg.grid()
    max_mode = cfg["identity.max_mode"]

    configured = cfg.potential()
    if configured is not None:
        sweep = [(configured.name, configured)] if emfield.is_lorenz_gauge(configured) else []
        negatives = [] if emfield.is_lorenz_gauge(configured) \
            else [(configured.name, configured)]
    elif grid.dims < 2:
        raise ConfigError("grid.dims = 1 leaves no axis 1 for the catalog sweep's waves; "
                          "use grid.dims >= 2 or name one potential in potential.name")
    else:
        sweep = identity_potentials(grid)
        negatives = [("negative-gauge", gauge_violating_potential(grid))]

    # A potential that is not periodic on the grid makes A phi jump at the wrap: a
    # polynomial that varies along an axis, or a wave whose mode |k_mu| L_mu / 2 pi
    # is not a whole number.  A phi reaches mode max_mode + (the potential's mode); the
    # Nyquist mode points/2 is zeroed by the spectral derivative, so the identity would
    # fail by aliasing.
    for name, spec in sweep + negatives:
        for mu in range(grid.dims):
            if isinstance(spec.family, emfield.PolynomialPotential) \
                    and spec.family.varies_along(mu):
                raise ConfigError(f"potential {name} is a polynomial that varies along axis "
                                  f"{mu}; it is not periodic on the grid, so A phi would "
                                  f"jump at the wrap")
            mode = spec.family.mode(mu, grid.extent[mu])
            if abs(mode - round(mode)) > 1e-9:
                raise ConfigError(f"potential.k{mu} = {spec.family.k[mu]:.6g} of {name} is mode "
                                  f"{mode:.6g} on axis {mu}, not a whole number of periods "
                                  f"over grid.extent {grid.extent[mu]:.6g}; it is not periodic "
                                  f"on the grid, so A phi would jump at the wrap")
            if max_mode + mode >= grid.points[mu] / 2 - 1e-9:  # commensurate k: whole modes
                raise ConfigError(f"identity.max_mode {max_mode} plus mode {mode:.6g} of potential "
                                  f"{name} on axis {mu} reaches the Nyquist mode of "
                                  f"{grid.points[mu]} points; products would alias")
    for _, spec in sweep + negatives:
        require_representable(spec, grid)
    # a charge of 0 leaves no prediction for the gauge law to hold the discrepancy to,
    # and one whose coefficient is subnormal everywhere leaves a prediction coef phi
    # that may underflow to 0 at every point
    consts, tiny = cfg.constants(), np.finfo(float).tiny
    for name, spec in negatives:
        if not np.abs(gauge_discrepancy_coefficient(spec, grid, consts)).max() >= tiny:
            raise ConfigError(f"constants.e = {cfg.raw['constants.e']} makes the factor "
                              f"-i e hbar (d.A) of the predicted gauge discrepancy of potential "
                              f"{name} 0 or subnormal at every grid point, so the prediction "
                              f"may vanish and gauge_discrepancy_law would have nothing to hold "
                              f"the discrepancy to; use a larger |constants.e|")

    # (check, potential name, spec, field index) per field, in the serial order, and the
    # generator's state before each field's draws
    fields = [(check_name, name, spec, i) for check_name, potentials, count in (
                  ("factored_vs_fock", sweep, cfg["identity.n_fields"]),
                  ("gauge_discrepancy_law", negatives, cfg["identity.gauge_fields"]))
              for name, spec in potentials for i in range(count)]
    rng = np.random.default_rng(cfg["seed"])
    states = []
    for _ in fields:
        states.append(rng.bit_generator.state)
        spinor_modes(grid, max_mode, rng)

    backend, glabel = cfg["backend"], _grid_label(grid)
    scratch = np.empty((4,) + grid.shape)
    jet, spec, pot, coef = None, None, None, None

    def check_field(k):
        nonlocal jet, spec, pot, coef
        check_name, name, field_spec, i = fields[k]
        if field_spec is not spec:
            spec, pot, coef = field_spec, None, None  # the last potential is freed first
            if check_name == "gauge_discrepancy_law":
                coef = gauge_discrepancy_coefficient(spec, grid, consts)
            pot = SampledPotential(spec, grid)
        rng.bit_generator.state = states[k]
        phi, dphi, box = band_limited_jet(grid, max_mode, rng, backend, out=jet)
        jet = [phi, *dphi, box]
        fock, fact = fock_and_factored_in_place(phi, grid, pot, consts, backend, dphi, box)
        residual = relative_discrepancy(fock, fact, scratch) if coef is None \
            else _gauge_law_residual(phi, fock, fact, coef)
        return [check(cfg, "verify-identity", check_name, potential=name, field_index=i,
                      grid=glabel, residual=residual,
                      tolerance=cfg["identity.tolerance"])], []

    return _in_processes([(fields[k][0], 1, functools.partial(check_field, k))
                          for k in range(len(fields))])


# -- dispersion --------------------------------------------------------------

def dispersion_records(cfg: RunConfig) -> tuple[list[dict], list[tuple], dict]:
    """The dispersion records, the rows of ``dispersion.csv``, and the meta of the run."""
    consts = cfg.constants()
    tol = cfg["dispersion.det_tolerance"]
    n = cfg["dispersion.n_points"]
    kmax = cfg["dispersion.kmax"]
    eye = np.eye(4, dtype=np.complex128)

    def root_on_shell():
        records, rows = [], []
        for k1 in np.linspace(-kmax, kmax, n):
            for k0 in spectrum.dispersion_solve([k1, 0.0, 0.0], consts):
                k = np.array([k0, k1, 0.0, 0.0])
                det = complex(np.linalg.det(consts.hbar * DIRAC.slash(k) - consts.mc * eye))
                rec = check(cfg, "dispersion", "root_on_shell", k1=float(k1), k0=float(k0),
                            residual=abs(det), tolerance=tol)
                records.append(rec)
                rows.append((float(k1), float(k0), spectrum.gap(k, consts), abs(det),
                             rec["pass"]))
        return records, rows

    return _in_processes([("root_on_shell", 1, root_on_shell)])  # one task: no deal


# -- evolve ------------------------------------------------------------------

def evolve_records(cfg: RunConfig) -> tuple[list[dict], list[tuple], dict]:
    """The evolve records, the rows of ``evolve_sweep.csv``, and the meta of the run.

    Before any mode is evolved, the sweep is refused (ConfigError) unless every
    gap has a real k^0, the per-step phase stays below pi, one gap is on shell
    and no gap is within rounding of the stationarity threshold.
    """
    consts = cfg.constants()
    raw = cfg.raw
    k1, gap_range = cfg["evolve.k1"], cfg["evolve.gap_range"]
    dtau, steps = cfg["evolve.dtau"], cfg["evolve.steps"]
    # the sweep's extremes are its end gaps, -gap_range and gap_range, and k0sq is the
    # expression spectrum.delta_sweep solves k^0 from.  The most negative gap needs a
    # real k^0 at k1; the error names evolve.k1 when that key alone is off its
    # default, else evolve.gap_range
    k0sq = [(g + consts.mass_shell) / consts.hbar ** 2 + k1 ** 2 for g in (-gap_range, gap_range)]
    if k0sq[0] < 0:
        off_default = [key for key in ("evolve.k1", "evolve.gap_range")
                       if raw[key] != KEYS[key][0]]
        key = "evolve.k1" if off_default == ["evolve.k1"] else "evolve.gap_range"
        raise ConfigError(
            f"{key} = {raw[key]} gives the gap -{gap_range:g} no real k^0 at "
            f"evolve.k1 = {k1:g} (k^0^2 = {k0sq[0]:.3g}); evolve.gap_range must stay "
            f"within hbar^2 k1^2 + m^2 c^2 = "
            f"{consts.hbar ** 2 * k1 ** 2 + consts.mass_shell:g}")
    # np.unwrap in spectrum.fit_mode_frequency folds a step of pi or more into a wrong
    # frequency.  The phase is taken from the gaps the end modes realize, as
    # spectrum.propertime_evolve takes it, so that its own refusal is never reached
    largest = max(abs(spectrum.gap(np.array([np.sqrt(s), k1, 0.0, 0.0]), consts)) for s in k0sq)
    phase = largest * dtau / (consts.hbar * consts.m)
    if phase >= np.pi:
        raise ConfigError(
            f"evolve.dtau = {raw['evolve.dtau']} turns the phase of the gap "
            f"{gap_range:g} by {phase:.6g} rad per step, which the frequency fit cannot "
            f"unwrap; evolve.dtau must stay below pi hbar m / evolve.gap_range = "
            f"{np.pi * consts.hbar * consts.m / gap_range:.8g}")
    # the drift bound evolve.stationary_tol translates into this largest |gap| whose
    # mode must stay stationary via 2 sin(|D| T / 2 hbar m), over T = steps * dtau; a
    # sweep with no gap that close to 0 never checks that a mode is stationary
    gaps = np.linspace(-gap_range, gap_range, cfg["evolve.n_gaps"])
    gap_threshold = cfg["evolve.stationary_tol"] * consts.hbar * consts.m / (steps * dtau)
    if not np.any(np.abs(gaps) <= gap_threshold):
        raise ConfigError(
            f"evolve.n_gaps = {raw['evolve.n_gaps']} puts no gap within "
            f"{gap_threshold:.3g} of 0 on [-{gap_range:g}, {gap_range:g}], so no mode is "
            f"on shell; use an odd count of at least 3")
    # a gap within rounding of the threshold may be flagged on either side of it.  Its
    # drift 2 sin(x / 2), x = |D| steps dtau / (hbar m), falls short of x by at most
    # stationary_tol^2 / 24 relatively at the threshold; rounding moves it by 12 u
    # relatively, u = eps / 2, and absolutely by under 6 u per step (the complex
    # multiply sqrt 5 u, the step factor's cos and sin 2 sqrt 2 u), and under 2 x over
    # all steps: a step of phase below sqrt(u) has a cos that rounds to 1, so it moves
    # the amplitude by at most its sin.  The gaps are delta_sweep's modes'
    u, tol = np.finfo(float).eps / 2, cfg["evolve.stationary_tol"]
    for g in gaps:
        k0 = np.sqrt((g + consts.mass_shell) / consts.hbar ** 2 + k1 ** 2)
        realized = abs(spectrum.gap(np.array([k0, k1, 0.0, 0.0]), consts))
        band = gap_threshold * (tol ** 2 / 24 + 12 * u) \
            + min(2 * realized, gap_threshold * 6 * steps * u / tol)
        if abs(realized - gap_threshold) <= band:
            raise ConfigError(
                f"evolve.dtau = {raw['evolve.dtau']} puts the gap {g:g} within {band:.3g} of "
                f"the stationarity threshold evolve.stationary_tol hbar m / (evolve.steps "
                f"evolve.dtau) = {gap_threshold:.6g}, where rounding may flag its mode on "
                f"either side; move evolve.dtau so that no gap is that close to it")

    def mode_stationarity():
        freq_tol = cfg["evolve.frequency_tol"]
        records, rows = [], []
        for rec in spectrum.delta_sweep(k1, gaps, consts, dtau, steps, tol):
            expect_stationary = abs(rec["delta"]) <= gap_threshold
            closed_form = rec["closed_form_frequency"]
            records.append(check(
                cfg, "evolve", "mode_stationarity", holds=rec["stationary"] == expect_stationary,
                k0=rec["k0"], k1=rec["k1"], delta=rec["delta"],
                measured_frequency=rec["measured_frequency"], closed_form_frequency=closed_form,
                final_drift=rec["final_drift"], stationary=rec["stationary"],
                residual=abs(rec["measured_frequency"] - closed_form),
                tolerance=freq_tol * max(1.0, abs(closed_form))))
            rows.append((rec["k0"], rec["k1"], rec["delta"], rec["measured_frequency"],
                         rec["stationary"]))
        return records, rows

    return _in_processes([("mode_stationarity", 1, mode_stationarity)])  # one task: no deal


# -- simulate ----------------------------------------------------------------

def _configured_control(cfg: RunConfig, consts) -> np.ndarray:
    kind, w = cfg["simulate.control"], np.array(cfg["simulate.control_w"])
    if kind == "zero":
        return np.zeros(4)
    if kind == "constant":
        return w
    return soc.optimal_control_mode(w, consts)  # plane_wave: w holds the wave vector k


# Every family below is a check task of ``_in_processes``: family(cfg) returns
# its records and its rows of paths.csv (none but for the configured ensemble).  No
# family reads another's state: each draws its noise from its own (seed,
# step)-keyed streams.

def _diffusion_squares(cfg: RunConfig) -> tuple[list[dict], list]:
    # sigma^2 is formed in floating point and rounds by about one ulp of its largest
    # entry; the exact squares hold to 4 ulps of it
    diff = soc.make_diffusion(cfg.constants())
    sq = diff.sigma ** 2
    return [check(cfg, "simulate", "diffusion_squares",
                  residual=float(np.abs(sq - diff.squares).max()),
                  tolerance=4 * float(np.spacing(np.abs(sq).max())))], []


def _generator_battery(cfg: RunConfig) -> tuple[list[dict], list]:
    ds, n_paths, n_sigma = cfg["simulate.ds"], cfg["simulate.n_paths"], cfg["simulate.n_sigma"]
    reports = soc.run_generator_battery(cfg.constants(), ds=ds, n_paths=n_paths,
                                        seed=cfg["seed"])
    return [check(cfg, "simulate", "generator", function=label,
                  estimate=rpt.estimate, exact=rpt.exact, residual=rpt.abs_error,
                  stderr=rpt.stderr, n_sigma=n_sigma, n_paths=n_paths, ds=ds,
                  tolerance=n_sigma * rpt.stderr)
            for (label, _, _), rpt in zip(soc.BATTERY, reports)], []


_LINE = soc.EnsembleParams(n_paths=3, steps=64, ds=1.0 / 512)


def _straight_line_bitwise(cfg: RunConfig) -> tuple[list[dict], list]:
    # straight-line motion with diffusion disabled, against a literal recursion
    w4 = np.array([0.4, -0.1, 0.25, 0.0], dtype=np.complex128)
    end = soc.EulerStream(_LINE, w4, cfg.constants(), cfg["seed"],
                          diffusion=soc.zero_diffusion()).end_state()
    z = np.broadcast_to(_LINE.z0, (_LINE.n_paths, 4)).copy()
    for _ in range(_LINE.steps):
        z = z + w4 * _LINE.ds
    return [check(cfg, "simulate", "straight_line_bitwise",
                  residual=0.0 if np.array_equal(end, z) else 1.0, tolerance=0.0)], []


def _repro_params(cfg: RunConfig) -> soc.EnsembleParams:
    return soc.EnsembleParams(n_paths=cfg["simulate.repro_paths"],
                              steps=cfg["simulate.repro_steps"], ds=cfg["simulate.ds"])


def _fixed_seed_bitwise(cfg: RunConfig) -> tuple[list[dict], list]:
    # bitwise reproducibility of a seeded ensemble: two streams compared at every step
    consts, seed, rp = cfg.constants(), cfg["seed"], _repro_params(cfg)
    repro = all(np.array_equal(z1, z2) for z1, z2 in zip(
        soc.EulerStream(rp, np.zeros(4), consts, seed),
        soc.EulerStream(rp, np.zeros(4), consts, seed)))
    return [check(cfg, "simulate", "fixed_seed_bitwise",
                  residual=0.0 if repro else 1.0, tolerance=0.0)], []


def _reim_correlation_signs(cfg: RunConfig) -> tuple[list[dict], list]:
    # per-component Re/Im correlation pattern of the increments, from steps 0 and 1 of
    # the reproducibility ensemble: the stream is keyed by (seed, step), so these are
    # the bits fixed_seed_bitwise compares, and one noise chunk at most is drawn
    consts = cfg.constants()
    start, first = itertools.islice(
        soc.EulerStream(_repro_params(cfg), np.zeros(4), consts, cfg["seed"]), 2)
    dz = first - start
    expected_sign = np.array([1.0, -1.0, -1.0, -1.0]) * consts.epsilon
    # np.max, unlike max(), propagates NaN, so an undefined statistic fails its check
    worst = float(np.max([abs(float(np.corrcoef(dz[:, mu].real, dz[:, mu].imag)[0, 1])
                              - expected_sign[mu]) for mu in range(4)]))
    return [check(cfg, "simulate", "reim_correlation_signs",
                  residual=worst, tolerance=1e-12)], []


def _diffusion_variance(cfg: RunConfig) -> tuple[list[dict], list]:
    # diffusion-only variance: Var[Re z_mu] = Var[Im z_mu] = |sigma|^2 s / 2
    consts, ds = cfg.constants(), cfg["simulate.ds"]
    vp = soc.EnsembleParams(n_paths=cfg["simulate.variance_paths"],
                            steps=cfg["simulate.variance_steps"], ds=ds)
    end = soc.EulerStream(vp, np.zeros(4), consts, cfg["seed"] + 1).end_state()
    sigma, total_s = soc.make_diffusion(consts).sigma, vp.steps * ds
    errors = []
    for mu in range(4):
        want = abs(sigma[mu]) ** 2 * total_s / 2
        for part in (end[:, mu].real, end[:, mu].imag):
            errors.append(abs(float(np.var(part, ddof=1)) - want) / want)
    return [check(cfg, "simulate", "diffusion_variance", residual=float(np.max(errors)),
                  tolerance=5.0 / np.sqrt(vp.n_paths))], []


_ON_SHELL = soc.EnsembleParams(n_paths=2, steps=1024, ds=1.0 / 1024)


def _action_constant_onshell(cfg: RunConfig) -> tuple[list[dict], list]:
    # action of a deterministic on-shell path: S = -m c^2 (tau_f - tau_i)
    consts = cfg.constants()
    on_shell_w = np.zeros(4, dtype=np.complex128)
    on_shell_w[0] = consts.c
    ea = soc.simulate(_ON_SHELL, on_shell_w, consts, cfg["seed"],
                      diffusion=soc.zero_diffusion())
    est = soc.accumulate_action(ea, emfield.free(), consts)
    want = -consts.m * consts.c ** 2 * 1.0
    return [check(cfg, "simulate", "action_constant_onshell", mean=est.mean,
                  n_branch_flags=est.n_branch_flags,
                  n_degenerate_flags=est.n_degenerate_flags,
                  residual=abs(est.mean - want), tolerance=0.0)], []


def _configured_ensemble(cfg: RunConfig) -> tuple[list[dict], list[tuple]]:
    # user-configured ensemble (blow-up detection hooks in here)
    consts, up = cfg.constants(), _repro_params(cfg)
    stream = soc.EulerStream(up, _configured_control(cfg, consts), consts, cfg["seed"] + 2)
    rows = []
    if cfg["simulate.dump_paths"]:  # only the dumped paths are kept while it streams
        n_dump = min(cfg["simulate.dump_max_paths"], up.n_paths)
        kept = np.stack([z[:n_dump].copy() for z in stream], axis=1)  # (n_dump, steps+1, 4)
        rows = [(p, s, s * up.ds, z[0].real, z[0].imag, z[1].real, z[1].imag,
                 z[2].real, z[2].imag, z[3].real, z[3].imag)
                for p, path in enumerate(kept.tolist()) for s, z in enumerate(path)]
    else:
        stream.end_state()
    n_trunc = int(np.count_nonzero(stream.truncated))
    # the earliest blow-up over all paths (the lowest path index on ties); -1 when clean
    first_step = first_path = -1
    if n_trunc:
        first_path = int(np.argmin(np.where(stream.truncated, stream.first_bad_step, up.steps)))
        first_step = int(stream.first_bad_step[first_path])
    return [check(cfg, "simulate", "configured_ensemble",
                  control=cfg["simulate.control"], n_paths=up.n_paths, steps=up.steps,
                  truncated_paths=n_trunc, first_bad_step=first_step,
                  first_bad_path=first_path, residual=float(n_trunc), tolerance=0.0)], rows


# (check, family, its cost in path-steps: paths x steps x streams), in the serial order
SIMULATE_FAMILIES = (
    ("diffusion_squares", _diffusion_squares, lambda cfg: 0),
    ("generator", _generator_battery, lambda cfg: len(soc.BATTERY) * cfg["simulate.n_paths"]),
    ("straight_line_bitwise", _straight_line_bitwise, lambda cfg: _LINE.n_paths * _LINE.steps),
    ("fixed_seed_bitwise", _fixed_seed_bitwise,
     lambda cfg: 2 * cfg["simulate.repro_paths"] * cfg["simulate.repro_steps"]),
    ("reim_correlation_signs", _reim_correlation_signs,  # the one noise chunk it draws
     lambda cfg: cfg["simulate.repro_paths"] * min(
         cfg["simulate.repro_steps"], max(1, soc.NOISE_CHUNK // cfg["simulate.repro_paths"]))),
    ("diffusion_variance", _diffusion_variance,
     lambda cfg: cfg["simulate.variance_paths"] * cfg["simulate.variance_steps"]),
    ("action_constant_onshell", _action_constant_onshell,
     lambda cfg: _ON_SHELL.n_paths * _ON_SHELL.steps),
    ("configured_ensemble", _configured_ensemble,
     lambda cfg: cfg["simulate.repro_paths"] * cfg["simulate.repro_steps"]),
)


def simulate_records(cfg: RunConfig) -> tuple[list[dict], list[tuple], dict]:
    """The simulate records, the rows of ``paths.csv``, and the meta of the run.

    The families of ``SIMULATE_FAMILIES`` are the check tasks of ``_in_processes``,
    each costed by its path-steps, so the outputs are the same bytes for any
    number of processes.
    """
    return _in_processes([(name, cost(cfg), functools.partial(family, cfg))
                          for name, family, cost in SIMULATE_FAMILIES])


# -- the runner ----------------------------------------------------------------

_PATHS_HEADER = ["path", "step", "s"] + [f"z{mu}_{part}" for mu in range(4)
                                         for part in ("re", "im")]

# command -> (output stem, CSV written from the rows the suite returns)
SUITES = {
    "verify-clifford": ("clifford", None),
    "verify-identity": ("identity", None),
    "dispersion": ("dispersion", ("dispersion.csv", ["k1", "k0", "delta", "det_abs", "pass"])),
    "evolve": ("evolve", ("evolve_sweep.csv",
                          ["k0", "k1", "delta", "measured_frequency", "stationary"])),
    "simulate": ("simulate", ("paths.csv", _PATHS_HEADER)),
}


def _exit_for(records: list[dict]) -> int:
    # a suite that produced no records checked nothing, so it cannot pass
    if records and all(r.get("pass", False) for r in records):
        return EXIT_PASS
    return EXIT_FAIL


def run_suite(command: str, cfg: RunConfig, out: Path, **kwargs) -> int:
    """Run one suite, write its outputs and return the exit code.

    ``<stem>_records`` is looked up by name at call time, so a wrapper bound to
    the module attribute (a tracer, a test's monkeypatch) sees the call.  A suite
    returns its records, its CSV rows (empty for none) and the meta of its task
    runner (``_in_processes``), which goes to the meta file after the record count.
    """
    stem, csv = SUITES[command]
    started = time.time()
    records, rows, meta = globals()[f"{stem}_records"](cfg, **kwargs)
    write_jsonl(out / f"{stem}.jsonl", records)
    if rows:
        write_csv(out / csv[0], csv[1], rows)
    write_meta(out / f"{stem}_meta.json", stem, elapsed=time.time() - started,
               extra={"records": len(records), **meta})
    if any(r.get("truncated_paths") for r in records):  # simulate's configured ensemble
        return EXIT_BLOWUP
    return _exit_for(records)


def cmd_report(out: Path) -> int:
    started = time.time()
    files = sorted(p for p in out.glob("*.jsonl") if p.name != "summary.jsonl")
    if not files:
        print(f"report: no suite outputs found in {out}", file=sys.stderr)
        return EXIT_CONFIG
    all_records = []
    for path in files:  # every input is read before anything is written
        try:
            records = read_jsonl_numbered(path)
        # a line that is not a JSON object, or not text, or an entry that cannot be read
        except (OSError, ValueError) as exc:
            print(f"report: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if not records:
            print(f"report: {path} holds no records", file=sys.stderr)
            return EXIT_CONFIG
        all_records.extend(records)
    by_suite = summarize(all_records)
    summary_records = []
    total_failed = 0
    for suite in sorted(by_suite):
        counts = by_suite[suite]
        total_failed += counts["failed"]
        summary_records.append({"suite": suite, **counts,
                                "pass": counts["failed"] == 0})
    write_jsonl(out / "summary.jsonl", summary_records)
    write_meta(out / "summary_meta.json", "report", elapsed=time.time() - started,
               extra={"sources": [p.name for p in files]})
    width = max(len(s) for s in by_suite)
    print(f"{'suite':<{width}}  total  passed  failed")
    for rec in summary_records:
        print(f"{rec['suite']:<{width}}  {rec['total']:>5}  {rec['passed']:>6}  {rec['failed']:>6}")
    checks = [(rec["suite"], name, c) for rec in summary_records
              for name, c in rec["checks"].items()]
    cwidth = max(len(name) for _, name, _ in checks)
    print(f"\n{'suite':<{width}}  {'check':<{cwidth}}  worst residual/tolerance  failed lines")
    for suite, name, c in checks:
        lines = ",".join(map(str, c["failed_lines"])) or "-"
        print(f"{suite:<{width}}  {name:<{cwidth}}  {c['worst_margin']:>24.3g}  {lines}")
    print(f"overall: {'PASS' if total_failed == 0 else 'FAIL'} "
          f"({len(all_records)} records, {total_failed} failures)")
    return EXIT_PASS if total_failed == 0 else EXIT_FAIL


# -- argument parsing ---------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracsoc",
        description="verification suites for the stochastic-optimal-control "
                    "formulation of relativistic spin-1/2 dynamics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*SUITES, "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="path to a key=value config file")
        p.add_argument("--out", type=str, default="diracsoc-out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--backend", choices=BACKENDS, default=None)
        p.add_argument("--epsilon", choices=("+1", "-1"), default=None)
        if name == "verify-clifford":
            p.add_argument("--corrupt-gamma", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_map = load_config_file(args.config) if args.config else {}
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        if args.backend is not None:
            overrides["backend"] = args.backend
        if args.epsilon is not None:
            overrides["constants.epsilon"] = str(int(args.epsilon))
        cfg = RunConfig.from_sources(file_map, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(args.out)  # created by the first file a suite writes
    chain = (out, *out.parents)
    made = list(itertools.takewhile(lambda p: not os.path.lexists(p), chain))
    base = chain[len(made)]
    if not base.is_dir():
        print(f"config error: --out {out}: {base} is not a directory", file=sys.stderr)
        return EXIT_CONFIG
    # a directory to be made must fit the file system's name limit, or the outputs
    # could not be written once the suite has run
    name_max = os.pathconf(base, "PC_NAME_MAX") if hasattr(os, "pathconf") else 255
    for part in made:
        if len(os.fsencode(part.name)) > name_max:
            print(f"config error: --out {out}: a name of {len(os.fsencode(part.name))} "
                  f"bytes is longer than the {name_max} that {base} allows", file=sys.stderr)
            return EXIT_CONFIG
    kwargs = {"corrupt": args.corrupt_gamma} if args.command == "verify-clifford" else {}
    try:
        code = cmd_report(out) if args.command == "report" \
            else run_suite(args.command, cfg, out, **kwargs)
    # e.g. a potential the grid cannot represent, or a gap with no real k^0
    except (ConfigError, OperatorError, spectrum.SpectrumError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command != "report" and code != EXIT_CONFIG:
        status = {EXIT_PASS: "PASS", EXIT_FAIL: "FAIL", EXIT_BLOWUP: "BLOW-UP"}[code]
        print(f"{args.command}: {status} (outputs in {out})")
    return code


if __name__ == "__main__":
    sys.exit(main())
