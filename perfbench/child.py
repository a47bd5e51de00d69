"""Run one ``diracsoc`` CLI invocation the way the console script does.

Usage: python3 child.py STAMP_PATH MODE(0|1|setup) [CLI ARGS...]

With no CLI arguments the child only imports ``diracsoc.cli``, which
compiles the bytecode caches before anything is timed, and writes the
Python, NumPy and BLAS versions to STAMP_PATH.

The child records ``time.perf_counter()`` (CLOCK_MONOTONIC, shared with the
parent process) when the first ``RunConfig.from_sources`` call returns; the
parent subtracts its spawn time to get the invocation's set-up time.  With
MODE=setup the child exits there, before the suite runs.  With MODE=1 it
also wraps the public functions of each ``diracsoc`` module (the table
``TARGETS``) and keeps one span per call in memory: name, start, end and
the index of the enclosing span.  Everything is written to STAMP_PATH as
JSON when the interpreter exits.  Nothing in the package is modified on disk.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from time import perf_counter


def _partial_bytes(args, kwargs, result):
    # computed from array sizes: the input field is read once, the output written once
    return {"bytes": args[0].values.nbytes + result.values.nbytes}


def _partial_or_zero_useful(args, kwargs, result):
    mu = args[1] if len(args) > 1 else kwargs["mu"]
    return {"useful": int(args[0].grid.is_active(mu))}


def _noise_counts(args, kwargs, result):
    n_paths, steps = result.shape[0], result.shape[1]
    return {"generators": n_paths, "draws": n_paths * steps * 4}


def _simulate_counts(args, kwargs, result):
    return {"path_steps": result.n_paths * result.steps,
            "truncated_paths": int(result.truncated.sum())}


def _written_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _record_count(args, kwargs, result):
    records = result[0] if isinstance(result, tuple) else result
    return {"count": len(records)}


# (module, attribute, span name, counter); a dotted attribute names a method
TARGETS = [
    ("diracsoc.grid", "partial", "grid.partial", _partial_bytes),
    ("diracsoc.grid", "partial_or_zero", "grid.partial_or_zero", _partial_or_zero_useful),
    ("diracsoc.grid", "dalembertian", "grid.dalembertian", None),
    ("diracsoc.grid", "random_band_limited", "grid.random_band_limited", None),
    ("diracsoc.grid", "Field.__post_init__", "grid.Field", None),
    ("diracsoc.operators", "minimal_coupling_slash", "operators.minimal_coupling_slash", None),
    ("diracsoc.operators", "fock_rhs", "operators.fock_rhs", None),
    ("diracsoc.operators", "factored_rhs", "operators.factored_rhs", None),
    ("diracsoc.emfield", "evaluate_potential", "emfield.evaluate_potential", None),
    ("diracsoc.emfield", "field_strength", "emfield.field_strength", None),
    ("diracsoc.emfield", "potential_jacobian", "emfield.potential_jacobian", None),
    ("diracsoc.soc", "_path_noise", "soc._path_noise", _noise_counts),
    ("diracsoc.soc", "simulate", "soc.simulate", _simulate_counts),
    ("diracsoc.soc", "generator_check", "soc.generator_check", None),
    ("diracsoc.soc", "accumulate_action", "soc.accumulate_action", None),
    ("diracsoc.spectrum", "propertime_evolve", "spectrum.propertime_evolve", None),
    ("diracsoc.spectrum", "fit_mode_frequency", "spectrum.fit_mode_frequency", None),
    ("diracsoc.spectrum", "delta_sweep", "spectrum.delta_sweep", None),
    ("diracsoc.config", "RunConfig.from_sources", "config.RunConfig.from_sources", None),
    ("diracsoc.report", "write_jsonl", "report.write_jsonl", _written_bytes),
    ("diracsoc.report", "write_csv", "report.write_csv", None),
    ("diracsoc.cli", "clifford_records", "cli.records", _record_count),
    ("diracsoc.cli", "identity_records", "cli.records", _record_count),
    ("diracsoc.cli", "dispersion_records", "cli.records", _record_count),
    ("diracsoc.cli", "evolve_records", "cli.records", _record_count),
    ("diracsoc.cli", "simulate_records", "cli.records", _record_count),
]


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` plus per-name counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, dict[str, int]] = {}
        self._stack = [-1]

    def wrap(self, fn, name: str, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if counter is not None:
                slot = self.counts.setdefault(name, {})
                for key, value in counter(args, kwargs, result).items():
                    slot[key] = slot.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        return traced


def _rebind(original, replacement) -> None:
    """Point every name bound to ``original`` in any diracsoc module at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "diracsoc" or modname.startswith("diracsoc."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)


def _wrap_target(modname: str, attr: str, make):
    """Replace a function or method by ``make(function)``; classmethods stay classmethods."""
    mod = sys.modules[modname]
    if "." not in attr:
        original = getattr(mod, attr)
        _rebind(original, make(original))
        return
    cls_name, meth = attr.split(".")
    cls = getattr(mod, cls_name)
    raw = vars(cls)[meth]
    if isinstance(raw, classmethod):
        setattr(cls, meth, classmethod(make(raw.__func__)))
    else:
        setattr(cls, meth, make(raw))


def _fingerprint() -> dict:
    """Versions of the interpreter and libraries the program runs on."""
    import platform

    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy before 1.25 has no dict mode
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name}


def _dump_json(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh)


def main(argv: list[str]) -> int:
    stamp_path, mode, cli_args = argv[0], argv[1], argv[2:]
    t0 = perf_counter()
    import diracsoc.cli
    result = {"import_s": perf_counter() - t0, "setup_end": None}
    if not cli_args:
        _dump_json(stamp_path, _fingerprint())
        return 0

    tracer = Tracer() if mode == "1" else None
    if tracer is not None:
        for modname, attr, name, counter in TARGETS:
            _wrap_target(modname, attr,
                         lambda fn, name=name, counter=counter: tracer.wrap(fn, name, counter))

    def stamped(fn):
        def from_sources(*args, **kwargs):
            cfg = fn(*args, **kwargs)
            if result["setup_end"] is None:
                result["setup_end"] = perf_counter()
            if mode == "setup":
                sys.exit(0)  # the stamp is written at exit
            return cfg
        return from_sources

    _wrap_target("diracsoc.config", "RunConfig.from_sources", stamped)

    def dump() -> None:
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = tracer.counts
        _dump_json(stamp_path, result)

    atexit.register(dump)
    sys.argv = ["diracsoc", *cli_args]
    return diracsoc.cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
