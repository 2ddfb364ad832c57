"""Run every workload on several seeds and record medians and quartiles.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Run from the root of a checkout. Runs are sequential (never two workloads at
once). For each workload and end-to-end metric it records the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {"src_sha": git_sha(), "nproc": os.cpu_count(),
               "run_seconds": bench["run_seconds"], "seeds": seed_range(args.seeds),
               "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        blas = set()
        for seed in summary["seeds"]:
            started = time.monotonic()
            proc = subprocess.run(
                [*bench["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: failed\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            blas.update(line.split("blas_threads ")[1].split()[0]
                        for line in lines if "blas_threads " in line)
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: {time.monotonic() - started:.1f} s", file=sys.stderr)
        rows = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            rows[metric] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                            "spread": (q3 - q1) / statistics.median(vals),
                            "bound": bounds[metric], "values": vals}
            print(f"{name:12s} {metric:26s} median {statistics.median(vals):12.4f} "
                  f"spread {rows[metric]['spread']:.3f} bound {bounds[metric]}")
        summary["workloads"][name] = {"blas_threads": sorted(blas), "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
