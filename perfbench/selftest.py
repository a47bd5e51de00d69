"""Self-test of the benchmark harness at tiny sizes.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

Runs every workload through ``run.py`` the way the benchmark is run, at
self-test sizes (32x32 grid, a few hundred paths), with and without
tracing.  It checks that each run prints exactly the metrics that
``BENCHMARK.json`` declares, with their units, and that all checks pass.
It then checks that failures are counted in ``fail_ratio``: by
``verify-clifford --corrupt-gamma``, which damages one gamma entry, and by
an invocation that exits 2 on an unknown config key.  Exits 1 on any error.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def run_cli(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "12345",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr}")
    *_, detail, last = proc.stdout.strip().splitlines()
    return json.loads(last), json.loads(detail.removeprefix("detail: "))


def check_emission(bench: dict) -> list[str]:
    errors = []
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if {w["name"] for w in bench["workloads"]} != set(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            res, detail = run_cli(workload, trace)
            where = f"{workload} --trace {trace}"
            if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
                errors.append(f"{where}: result keys {sorted(res)}")
            units = {k: m["unit"] for k, m in res["metrics"].items()}
            if units != declared[trace]:
                errors.append(f"{where}: metrics {units} differ from {declared[trace]}")
            for name, m in res["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    errors.append(f"{where}: {name} is not a number")
            if not res["correct"] or detail["fail_ratio"] != 0:
                errors.append(f"{where}: checks failed: {detail['problems']}")
            print(f"ok {where}: {len(units)} metrics, {res['attempted']} checks, "
                  f"sha256 {detail['jsonl_sha256'][:12]}")
    return errors


def check_fail_counting() -> list[str]:
    errors = []
    corrupt = run.Workload(
        (run.Step("verify-clifford", "clifford.jsonl", 54, ("--corrupt-gamma",)),),
        dict(run.TINY_CONFIG))
    res = run.measure("corrupt-gamma", corrupt, 12345, 0.1, trace=False)
    print(f"corrupt-gamma: fail_ratio {res['fail_ratio']:.4f} "
          f"({res['failed']} of {res['attempted']})")
    if not 0 < res["fail_ratio"] < 1:
        errors.append("corrupted gamma: expected some but not all records to fail")

    bad_config = run.Workload((run.Step("verify-clifford", "clifford.jsonl", 54),),
                              {"no.such.key": "1"})
    res = run.measure("bad-config", bad_config, 12345, 0.1, trace=False)
    print(f"bad-config: fail_ratio {res['fail_ratio']:.4f} ({res['problems'][0][:60]}...)")
    if res["fail_ratio"] != 1:
        errors.append("an invocation that exits 2 must fail all its expected records")
    return errors


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    errors = check_emission(bench) + check_fail_counting()
    for e in errors:
        print("ERROR:", e)
    print("selftest:", "FAIL" if errors else "PASS")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
