"""End-to-end benchmark of the diracsoc command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload identity --seed 12345 --seconds 30 --trace 0

Each workload is a fixed sequence of CLI invocations (one repetition).
Every invocation is a fresh Python child process, spawned one at a time
(a closed loop, one client) and timed from outside: wall time from spawn to
exit, set-up time from spawn until ``RunConfig.from_sources`` returned, CPU
time and peak RSS from ``os.wait4``.  Repetitions run until the next one
would end after ``--seconds``; at least one always runs.  The reported value
of each end-to-end metric is the median over the run's repetitions, except
``setup_s``: for each invocation of a repetition, the median of all its
set-ups in the run, summed over the invocations.  Where the repetitions give
fewer than ``SETUP_SAMPLES`` set-ups, invocations that stop once set-up is
done add the rest after the repetitions (see NOTES.md for paired runs: the
median of only two repetitions' set-ups spread more across runs).

Every invocation's output is checked: exit code, record count, ``pass`` on
every record, and a JSON-lines SHA-256 that must not change between the
repetitions of a run.  ``--seed`` is handed to the CLI as ``--seed``, except
on the ``simulate`` workloads, whose 3-sigma verdicts fail on about one seed
in seventy with correct code: there it picks one of ``SIMULATE_SEEDS`` (see
NOTES.md).  A run has one deadline, ``RUN_LIMIT_S`` after its start; an
invocation that would run past it is killed or not started, and its records
count as failed.

With ``--trace 1`` untraced and traced repetitions alternate; the traced
child wraps the public functions of each ``diracsoc`` module (see
``child.py``) and the per-layer metrics are medians over traced
repetitions.  The last line of standard output is the JSON result; the line
before it, starting ``detail:``, holds samples, digests and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench-work"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# one deadline per run, counted from its start: an invocation still running at
# the deadline is killed and the invocations left are not started, all counted
# as failed, so that a run with a hung program still ends within 180 s; the
# measurement budget is capped so that a healthy run ends before the deadline
RUN_LIMIT_S = 150.0
MAX_SECONDS = 120.0

# setup_s is the median of at least this many set-ups of each step; runs with
# fewer untraced repetitions top up with invocations that stop after set-up
SETUP_SAMPLES = 15

PER_LAYER = {
    "grid.partial.calls": "count",
    "grid.partial.self_s": "s",
    "grid.partial.bytes": "B",
    "grid.dalembertian.self_s": "s",
    "grid.Field.constructions": "count",
    "grid.Field.self_s": "s",
    "grid.partial_or_zero.useful_ratio": "ratio",
    "grid.partial_or_zero.self_s": "s",
    "grid.random_band_limited.self_s": "s",
    "operators.minimal_coupling_slash.calls": "count",
    "operators.minimal_coupling_slash.self_s": "s",
    "operators.fock_rhs.self_s": "s",
    "operators.factored_rhs.self_s": "s",
    "emfield.evaluate_potential.self_s": "s",
    "emfield.field_strength.self_s": "s",
    "emfield.potential_jacobian.self_s": "s",
    "soc._path_noise.self_s": "s",
    "soc._path_noise.generators": "count",
    "soc._path_noise.draws": "count",
    "soc._path_noise.draws_per_generator": "ratio",
    "soc.simulate.self_s": "s",
    "soc.simulate.path_steps": "count",
    "soc.simulate.ns_per_path_step": "ns",
    "soc.simulate.truncated_paths": "count",
    "soc.generator_check.self_s": "s",
    "soc.accumulate_action.self_s": "s",
    "spectrum.propertime_evolve.self_s": "s",
    "spectrum.fit_mode_frequency.self_s": "s",
    "spectrum.delta_sweep.self_s": "s",
    "config.RunConfig.from_sources.self_s": "s",
    "cli.import_s": "s",
    "report.write_jsonl.self_s": "s",
    "report.write_jsonl.bytes": "B",
    "report.write_csv.self_s": "s",
    "cli.records.self_s": "s",
    "cli.records.count": "count",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.covered_ratio": "ratio",
}


@dataclass(frozen=True)
class Step:
    """One CLI invocation and the JSON-lines file it must write."""

    command: str
    output: str
    records: int
    extra: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    steps: tuple[Step, ...]
    config: dict[str, str] = field(default_factory=dict)
    why: str = ""
    seeds: tuple[int, ...] = ()  # CLI seeds to choose from; empty: any seed

    def cli_seed(self, seed: int) -> int:
        """The CLI seed for ``--seed``: itself, unless the workload names its seeds."""
        if not self.seeds or seed in self.seeds:
            return seed
        return self.seeds[seed % len(self.seeds)]


# The simulate suite's statistical checks (six 3-sigma generator verdicts and
# the diffusion variance) each fail on a fraction of a percent of seeds with
# correct code, about one seed in seventy together; these seeds passed on both
# simulate workloads in every run of two ten-seed sets (NOTES.md)
SIMULATE_SEEDS = (12345, 1, 2, 3, 4, 5, 6, 7, 8, 9)

LONG_CONFIG = {
    "simulate.n_paths": "2000",
    "simulate.variance_paths": "256",
    "simulate.variance_steps": "8192",
    "simulate.repro_paths": "64",
    "simulate.repro_steps": "8192",
    "simulate.control": "plane_wave",
    "simulate.control_w": "1.25,0.75,0,0",
}

WORKLOADS = {
    "identity": Workload(
        (Step("verify-identity", "identity.jsonl", 85),),
        why="verify-identity at the default config: spectral grid, operators and emfield"),
    "simulate": Workload(
        (Step("simulate", "simulate.jsonl", 13),), seeds=SIMULATE_SEEDS,
        why="simulate at the default config: 620k short paths, per-path noise generators"),
    "simulate-long": Workload(
        (Step("simulate", "simulate.jsonl", 13),), LONG_CONFIG, seeds=SIMULATE_SEEDS,
        why="simulate with few long paths: the Euler loop and full path arrays"),
    "suites-small": Workload(
        (Step("verify-clifford", "clifford.jsonl", 54),
         Step("dispersion", "dispersion.jsonl", 64),
         Step("evolve", "evolve.jsonl", 41),
         Step("report", "summary.jsonl", 3)),
        why="four short suites plus report in one directory: process start-up and import"),
}

# Harness self-test sizes: 32x32 grid, a few hundred paths.
TINY_CONFIG = {
    "grid.points": "32,32",
    "identity.max_mode": "3",
    "identity.n_fields": "2",
    "identity.gauge_fields": "1",
    "clifford.det_samples": "10",
    "dispersion.n_points": "4",
    "evolve.n_gaps": "5",
    "evolve.steps": "100",
    "simulate.n_paths": "300",
    "simulate.variance_paths": "200",
    "simulate.repro_paths": "16",
}
TINY_LONG = {"simulate.variance_paths": "64", "simulate.variance_steps": "256",
             "simulate.repro_steps": "256"}
TINY_RECORDS = {"identity.jsonl": 9, "dispersion.jsonl": 8, "evolve.jsonl": 5}


def tiny(workload: Workload) -> Workload:
    """The same invocations at self-test sizes."""
    config = {**workload.config, **TINY_CONFIG}
    if workload.config:
        config.update(TINY_LONG)
    steps = tuple(Step(s.command, s.output, TINY_RECORDS.get(s.output, s.records), s.extra)
                  for s in workload.steps)
    return Workload(steps, config, workload.why, workload.seeds)


class HarnessError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Invocation:
    code: int | None  # None: not started, the run's deadline had passed
    wall: float
    cpu: float
    rss_mb: float
    setup: float | None
    stamp: dict


@dataclass
class Check:
    attempted: int
    failed: int
    digest: str | None
    problem: str | None = None


@dataclass
class Rep:
    traced: bool
    invocations: list[Invocation]
    checks: list[Check]

    @property
    def wall(self) -> float:
        return sum(i.wall for i in self.invocations)

    @property
    def setup(self) -> float:
        return sum(i.setup or 0.0 for i in self.invocations)

    @property
    def cpu(self) -> float:
        return sum(i.cpu for i in self.invocations)

    @property
    def rss_mb(self) -> float:
        return max(i.rss_mb for i in self.invocations)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def spawn(argv: list[str], log: Path, deadline: float) -> Invocation:
    """Run one child to completion, or kill it at the deadline, and time it from outside."""
    stamp = log.with_suffix(".stamp.json")
    remaining = deadline - perf_counter()
    if remaining <= 0:
        log.write_text("not started: the run's deadline had passed\n")
        return Invocation(code=None, wall=0.0, cpu=0.0, rss_mb=0.0, setup=None, stamp={})
    with open(log, "wb") as fh:
        t0 = perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, str(CHILD), str(stamp), *argv],
                             child_env(), file_actions=[(os.POSIX_SPAWN_DUP2, fh.fileno(), 1),
                                                        (os.POSIX_SPAWN_DUP2, fh.fileno(), 2)])
        signal.signal(signal.SIGALRM, lambda *_: kill(pid))
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            kill(pid)
            os.waitpid(pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = perf_counter() - t0
    data = json.loads(stamp.read_text()) if stamp.exists() else {}
    setup_end = data.get("setup_end")
    return Invocation(code=os.waitstatus_to_exitcode(status), wall=wall,
                      cpu=usage.ru_utime + usage.ru_stime, rss_mb=usage.ru_maxrss / 1024.0,
                      setup=None if setup_end is None else setup_end - t0, stamp=data)


def check_step(step: Step, out: Path, inv: Invocation, log: Path) -> Check:
    """Exit code, record count, pass flags and digest of one invocation's output."""
    n = step.records

    def broken(problem: str) -> Check:
        tail = log.read_text(errors="replace").strip().splitlines()[-3:]
        return Check(n, n, None, f"{step.command}: {problem}; log: {' | '.join(tail)}")

    if inv.code is None:
        return broken(f"not started: the run's {RUN_LIMIT_S:g} s deadline had passed")
    if inv.code == -signal.SIGKILL:
        return broken(f"killed by SIGKILL (the run's deadline is {RUN_LIMIT_S:g} s)")
    if inv.code not in (0, 1):
        return broken(f"exit code {inv.code}")
    if inv.setup is None:
        return broken("RunConfig.from_sources never returned")
    path = out / step.output
    if not path.is_file():
        return broken(f"{step.output} missing")
    data = path.read_bytes()
    try:
        records = [json.loads(line) for line in data.splitlines() if line.strip()]
    except ValueError as exc:
        return broken(f"{step.output} is not JSON lines ({exc})")
    if len(records) != n:
        return broken(f"{len(records)} records in {step.output}, expected {n}")
    failed = sum(1 for r in records if r.get("pass") is not True)
    if (inv.code == 0) != (failed == 0):
        return broken(f"exit code {inv.code} with {failed} failing records")
    problem = f"{step.command}: {failed} records fail" if failed else None
    return Check(n, failed, hashlib.sha256(data).hexdigest(), problem)


def invoke(step: Step, out: Path, config: Path | None, seed: int, mode: str,
           log: Path, deadline: float) -> Invocation:
    argv = [mode, step.command, *step.extra, "--out", str(out), "--seed", str(seed)]
    if config is not None:
        argv += ["--config", str(config)]
    return spawn(argv, log, deadline)


def run_rep(workload: Workload, rep_dir: Path, config: Path | None, seed: int,
            traced: bool, deadline: float) -> Rep:
    out = rep_dir / "out"
    out.mkdir(parents=True)
    invocations, checks = [], []
    for k, step in enumerate(workload.steps):
        log = rep_dir / f"{k}-{step.command}.log"
        inv = invoke(step, out, config, seed, "1" if traced else "0", log, deadline)
        invocations.append(inv)
        checks.append(check_step(step, out, inv, log))
    shutil.rmtree(rep_dir)
    return Rep(traced, invocations, checks)


def extra_setups(workload: Workload, run_dir: Path, config: Path | None, seed: int,
                 count: int, deadline: float) -> list[list[float]]:
    """Per step, the set-up times of ``count`` invocations that stop after set-up."""
    out = run_dir / "setup-out"
    out.mkdir()
    samples: list[list[float]] = [[] for _ in workload.steps]
    for _ in range(count):
        for k, step in enumerate(workload.steps):
            inv = invoke(step, out, config, seed, "setup", run_dir / f"setup-{k}.log",
                         deadline)
            if inv.setup is not None:
                samples[k].append(inv.setup)
    return samples


def self_times(stamp: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: summed self time (duration minus direct children) and calls."""
    spans = stamp.get("spans", [])
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    selfs: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, start, end, _), inner in zip(spans, child):
        selfs[name] += end - start - inner
        calls[name] += 1
    return selfs, calls


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Every per-layer value of one traced repetition, summed over its invocations."""
    values: dict[str, float] = defaultdict(float)
    for inv in rep.invocations:
        selfs, calls = self_times(inv.stamp)
        for name, s in selfs.items():
            values[f"{name}.self_s"] += s
            values[f"{name}.calls"] += calls[name]
        for name, counts in inv.stamp.get("counts", {}).items():
            for key, v in counts.items():
                values[f"{name}.{key}"] += v
        values["cli.import_s"] += inv.stamp.get("import_s", 0.0)

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        return scale * values[num] / values[den] if values[den] else 0.0

    values["grid.Field.constructions"] = values["grid.Field.calls"]
    values["grid.partial_or_zero.useful_ratio"] = ratio("grid.partial_or_zero.useful",
                                                        "grid.partial_or_zero.calls")
    values["soc._path_noise.draws_per_generator"] = ratio("soc._path_noise.draws",
                                                          "soc._path_noise.generators")
    values["soc.simulate.ns_per_path_step"] = ratio("soc.simulate.self_s",
                                                    "soc.simulate.path_steps", 1e9)
    # share of the post-set-up wall time that the traced self times account for
    covered = sum(v for k, v in values.items() if k.endswith(".self_s")) \
        - values["config.RunConfig.from_sources.self_s"]
    run_s = rep.wall - rep.setup
    values["trace.covered_ratio"] = covered / run_s if run_s > 0 else 0.0
    values["trace.wall_s"] = rep.wall
    return values


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' elsewhere."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(versions: dict) -> dict:
    return {**versions,
            "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(), "git_commit": git_commit()}


def prepare(workload: Workload, run_dir: Path, deadline: float) -> tuple[Path | None, dict]:
    """Write the config file and warm the bytecode caches; returns config and versions."""
    if not (SRC / "diracsoc" / "cli.py").is_file():
        raise HarnessError(f"no diracsoc sources under {SRC}")
    run_dir.mkdir(parents=True)
    config = None
    if workload.config:
        config = run_dir / "workload.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in workload.config.items()))
    warm = spawn(["0"], run_dir / "warmup.log", deadline)
    if warm.code != 0 or not warm.stamp:
        log = (run_dir / "warmup.log").read_text(errors="replace").strip()
        raise HarnessError(f"cannot import diracsoc.cli (exit {warm.code}): {log[-400:]}")
    return config, warm.stamp


def measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    run_dir = WORK / f"{name}-{seed}-{os.getpid()}"
    seed = workload.cli_seed(seed)
    try:
        config, versions = prepare(workload, run_dir, deadline)
        reps: list[Rep] = []
        started = perf_counter()
        rounds = 0
        while True:
            for traced in ((False, True) if trace else (False,)):
                reps.append(run_rep(workload, run_dir / f"rep{len(reps)}", config, seed, traced,
                                    deadline))
            rounds += 1
            now = perf_counter()
            elapsed = now - started
            if elapsed + elapsed / rounds > seconds or now >= deadline:
                break
        plain = sum(not r.traced for r in reps)
        setups = extra_setups(workload, run_dir, config, seed,
                              0 if trace else max(0, SETUP_SAMPLES - plain), deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    return summarize(name, workload, seed, reps, setups, trace, environment(versions))


def summarize(name: str, workload: Workload, seed: int, reps: list[Rep],
              setups: list[list[float]], trace: bool, env: dict) -> dict:
    # a repetition whose output bytes differ from the first one's fails all its records
    reference = [c.digest for c in reps[0].checks]
    for rep in reps[1:]:
        for k, (check, ref) in enumerate(zip(rep.checks, reference)):
            if check.digest is not None and ref is not None and check.digest != ref:
                rep.checks[k] = Check(check.attempted, check.attempted, check.digest,
                                      f"{workload.steps[k].output} differs between repetitions")
    checks = [c for rep in reps for c in rep.checks]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    problems = sorted({c.problem for c in checks if c.problem})
    digests = {s.output: d for s, d in zip(workload.steps, reference)}
    combined = hashlib.sha256("".join(f"{k}:{v}\n" for k, v in digests.items()).encode())

    plain = [r for r in reps if not r.traced]
    samples = {"wall_s": [r.wall for r in plain], "cpu_s": [r.cpu for r in plain],
               "peak_rss_mb": [r.rss_mb for r in plain]}
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    # set-up per step: the repetitions' own set-ups plus the set-up-only invocations
    samples["setup_s"] = [
        [r.invocations[k].setup for r in plain if r.invocations[k].setup is not None] + extra
        for k, extra in enumerate(setups)]
    metrics["setup_s"] = sum(statistics.median(s) for s in samples["setup_s"] if s)
    counts = {k: len(plain) for k in END_TO_END}
    counts["setup_s"] = min(len(s) for s in samples["setup_s"])
    if trace:
        layers = [layer_metrics(r) for r in reps if r.traced]
        traced_wall = statistics.median(r.wall for r in reps if r.traced)
        for values in layers:
            values["trace.overhead_ratio"] = (traced_wall / metrics["wall_s"] - 1.0
                                              if metrics["wall_s"] else 0.0)
        metrics = {k: statistics.median(v.get(k, 0.0) for v in layers) for k in PER_LAYER}
        counts = {k: len(layers) for k in PER_LAYER}
    units = PER_LAYER if trace else END_TO_END
    return {
        "workload": name, "cli_seed": seed, "why": workload.why,
        "repetitions": len(plain), "traced_repetitions": len(reps) - len(plain),
        "invocations_per_repetition": len(workload.steps),
        "fail_ratio": failed / attempted, "attempted": attempted, "failed": failed,
        "problems": problems, "jsonl_sha256": combined.hexdigest(), "files": digests,
        "samples": samples, "sample_counts": counts, "env": env,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }


def print_report(res: dict) -> None:
    print(f"workload {res['workload']} (CLI seed {res['cli_seed']}): {res['repetitions']} repetitions"
          f" of {res['invocations_per_repetition']} invocation(s), closed loop, one client"
          + (f", {res['traced_repetitions']} traced" if res["traced_repetitions"] else ""))
    for k, m in res["metrics"].items():
        print(f"  {k:<42} {m['value']:>16.6g} {m['unit']:<6} median of {res['sample_counts'][k]}")
    print(f"  {'fail_ratio':<42} {res['fail_ratio']:>16.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} checks failed)")
    print(f"  jsonl_sha256 {res['jsonl_sha256']}")
    for problem in res["problems"]:
        print(f"  FAILED: {problem}")
    detail = {k: v for k, v in res.items() if k != "metrics"}
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345, help="passed to the CLI as --seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="measurement budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seed must be >= 0 and --seconds in (0, {MAX_SECONDS:g}]")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = tiny(workload)
    try:
        res = measure(args.workload, workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
