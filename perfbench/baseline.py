"""Run every workload over several seeds and write the baseline with its spread.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py

Each run is ``run.py`` exactly as it is run for ``BENCHMARK.json``, with its
``run_seconds``: one process per run, ten runs per workload at seeds 12345,
1, ..., 9 in turn, the workloads interleaved so that slow drift of the
machine's speed reaches all of them alike.  After the timed runs, each workload gets one traced run at seed 12345.  Per workload
and end-to-end metric the output holds every run's value, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles divided by the median.  The spread of
every metric is compared with the metric's bound.  The result is written to
``perfbench/baseline.json``.  Exits 1 if any check failed or any spread
exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import run

DEFAULT_SEED = 12345
RUNS = 10
OUT = run.HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    *_, detail, last = proc.stdout.strip().splitlines()
    result, detail = json.loads(last), json.loads(detail.removeprefix("detail: "))
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "problems": detail["problems"],
            "repetitions": detail["repetitions"], "jsonl_sha256": detail["jsonl_sha256"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "env": detail["env"]}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = [DEFAULT_SEED, *range(1, RUNS)]

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            res = run_once(name, seed, seconds, 0)
            runs[name].append(res)
            print(f"{name:<14} seed {seed:>5}: correct {res['correct']}, "
                  + ", ".join(f"{k} {v:.4g}" for k, v in res["metrics"].items()), flush=True)

    errors, summary = [], {}
    for name in names:
        traced = run_once(name, DEFAULT_SEED, seconds, 1)
        timed = runs[name]
        metrics = {k: spread([r["metrics"][k] for r in timed]) for k in bounds}
        for k, m in metrics.items():
            if m["spread"] > bounds[k]:
                errors.append(f"{name}: {k} spread {m['spread']:.3f} exceeds bound {bounds[k]}")
        errors += [f"{name} seed {r['seed']}: {p}" for r in timed + [traced]
                   for p in r["problems"]]
        summary[name] = {
            "runs": len(timed), "seeds": seeds, "run_seconds": seconds,
            "all_correct": all(r["correct"] for r in timed + [traced]),
            "fail_ratio": sum(r["failed"] for r in timed) / sum(r["attempted"] for r in timed),
            "repetitions_per_run": [r["repetitions"] for r in timed],
            "jsonl_sha256_default_seed": timed[0]["jsonl_sha256"],
            "end_to_end": metrics,
            "per_layer_default_seed": traced["metrics"],
        }
        print(f"{name}: " + ", ".join(
            f"{k} {m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}] spread {m['spread']:.3f}"
            for k, m in metrics.items()), flush=True)

    env = runs[names[0]][0]["env"]
    OUT.write_text(json.dumps({"env": env, "workloads": summary}, indent=1) + "\n")
    for e in errors:
        print("ERROR:", e)
    print(f"wrote {OUT}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
