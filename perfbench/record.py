"""Record one BENCH history entry: every workload over several seeds.

Usage (from the repository root)::

    python3 perfbench/record.py --out perfbench/history/BENCH_<n>.json --commit <sha>

For each workload in ``BENCHMARK.json`` this runs ``run.py`` untraced once
per seed, then once traced, one process at a time. It writes the median,
quartiles and spread (quartile distance over median) of every metric, each
seed's values and raw-table sha256, the environment, and the tracing
overhead (1 - traced over untraced ``evals_per_s``). Next to the calibrated
metrics it keeps each run's plain wall-clock ``evals_per_s`` and median
machine factor (see ``clock.py``), summarized the same way, so a
calibrated gain can be checked against wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark process: its JSON result and its readable lines by key."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.strip().splitlines()
    info = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1] if " " in line}
    return json.loads(lines[-1]), info


def spread(values: list[float], unit: str) -> dict:
    """Median, quartiles and quartile distance over median of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "unit": unit,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def summarize(results: list[dict]) -> dict:
    return {
        name: spread([r["metrics"][name]["value"] for r in results], first["unit"])
        for name, first in results[0]["metrics"].items()
    }


def wall_figures(line: str) -> dict:
    """The ``wall`` line's ``key value`` pairs as numbers."""
    words = line.split()
    return {key: float(value) for key, value in zip(words[::2], words[1::2])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--commit", default="unknown", help="the commit measured")
    parser.add_argument("--runs", type=int, default=10, help="untraced seeds per workload")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    entry = {"commit": args.commit, "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        results, shas, walls = [], [], []
        for seed in seeds:
            result, info = bench(workload, seed, seconds, 0)
            results.append(result)
            shas.append(info["raw_sha256"].split()[0])
            walls.append(wall_figures(info["wall"]))
            entry["env"] = json.loads(info["env"])
            print(workload, seed, json.dumps(result), flush=True)
        traced, _ = bench(workload, seeds[0], seconds, 1)
        print(workload, "traced", json.dumps(traced), flush=True)
        untraced = summarize(results)
        entry["workloads"][workload] = {
            "correct": all(r["correct"] for r in results + [traced]),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "raw_sha256": shas,
            "end_to_end": untraced,
            "wall": {
                "evals_per_s": spread([w["evals_per_s"] for w in walls], "1/s"),
                "machine_factor": spread([w["machine_factor"] for w in walls], "ratio"),
            },
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "trace_overhead": 1.0 - traced["metrics"]["trace.evals_per_s"]["value"]
            / untraced["evals_per_s"]["median"],
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(entry, indent=1) + "\n", encoding="utf-8")
    for workload, result in entry["workloads"].items():
        for name, s in result["end_to_end"].items():
            print(f"{workload:7s} {name:26s} median {s['median']:.6g} spread {s['spread']:.4f}")
        for name, s in result["wall"].items():
            print(f"{workload:7s} wall {name:21s} median {s['median']:.6g} spread {s['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
