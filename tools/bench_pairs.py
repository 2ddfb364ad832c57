"""Alternating parent/change pairs of the benchmark, summarised per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --pr N

PARENT and CHANGE are git revisions whose `perfbench/` and BENCHMARK.json are
the same; the script refuses to run otherwise, so both sides are measured by
one harness and judged by one set of bounds. Each revision is checked out
once, detached, in its own `git worktree` under --work. For every workload of
BENCHMARK.json, pair i (seed i, from 1 to 10) runs
`perfbench/run.py --workload W --seed i --seconds T --trace 0` once in each
tree, with T the benchmark's `run_seconds`; the side that runs first
alternates from pair to pair, so drift of the machine over time falls on both
sides alike.

The result goes to REPO/BENCH_<pr>.json. For each workload and end-to-end
metric it records the parent's median, quartiles, IQR and full range, the
change's median and range, the change's wins (pairs in which the change is
better), the relative change of the medians and the metric's bound, next to
the parent's own range as a share of its smallest run. It also records both
shas and their `src` trees, nproc, the BLAS thread count the benchmark pins,
the seeds, every run's values, and failed runs. The file is rewritten after
every run, so a series cut short keeps what it measured. The worktrees are
removed at the end.
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

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def add_worktree(repo: Path, path: Path, sha: str) -> None:
    if path.exists():
        subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force", str(path)],
                       capture_output=True)
    git(repo, "worktree", "prune")
    git(repo, "worktree", "add", "--detach", str(path), sha)


def pinned_blas_threads(tree: Path) -> dict[str, str]:
    """The thread variables that `perfbench/run.py` pins for its workers."""
    sys.path.insert(0, str(tree / "perfbench"))
    try:
        import run  # run.py imports no numpy and starts nothing on import
        return dict(run.PINNED_ENV)
    finally:
        sys.path.pop(0)


def run_once(python: str, tree: Path, workload: str, seed: int, seconds: float) -> dict:
    started = time.monotonic()
    proc = subprocess.run([python, "perfbench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    out = {"seed": seed, "returncode": proc.returncode,
           "wall_s": round(time.monotonic() - started, 1)}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        out.update(correct=result["correct"], attempted=result["attempted"],
                   failed=result["failed"],
                   metrics={k: m["value"] for k, m in result["metrics"].items()})
    except (IndexError, ValueError, KeyError):
        out["error"] = (proc.stderr or proc.stdout)[-2000:]
    return out


def better(direction: str, a: float, b: float) -> bool:
    """Whether ``a`` is better than ``b``."""
    return a < b if direction == "lower" else a > b


def summarise(metric: dict, pairs: list[dict]) -> dict | None:
    name, direction = metric["name"], metric["better"]
    done = [p for p in pairs if all(name in p[s].get("metrics", {}) for s in SIDES)]
    if not done:
        return None
    parent = [p["parent"]["metrics"][name] for p in done]
    change = [p["change"]["metrics"][name] for p in done]
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1
                 else parent * 3)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gain = (p_med - c_med) if direction == "lower" else (c_med - p_med)
    relative = c_med / p_med - 1.0 if p_med else float("nan")
    worse_by = relative if direction == "lower" else -relative
    return {
        "unit": metric["unit"], "better": direction, "bound": metric["bound"], "pairs": len(done),
        "parent": {"median": p_med, "q1": q1, "q3": q3, "iqr": q3 - q1, "min": min(parent),
                   "max": max(parent), "values": parent},
        "parent_range_share": (max(parent) - min(parent)) / min(parent) if min(parent) else None,
        "change": {"median": c_med, "min": min(change), "max": max(change), "values": change},
        "change_wins": sum(better(direction, c, p) for p, c in zip(parent, change)),
        "relative_change": relative,
        "inside_bound": worse_by <= metric["bound"],
        "gain_beyond_parent_iqr": gain > q3 - q1,
    }


def summary(bench: dict, pairs: dict[str, list[dict]]) -> dict:
    out = {}
    for workload, runs in pairs.items():
        rows = {m["name"]: summarise(m, runs) for m in bench["end_to_end"]}
        fails = {s: {"attempted": sum(r[s].get("attempted", 0) for r in runs if s in r),
                     "failed": sum(r[s].get("failed", 0) for r in runs if s in r),
                     "runs_without_result": sum("error" in r[s] for r in runs if s in r)}
                 for s in SIDES}
        out[workload] = {"metrics": {k: v for k, v in rows.items() if v}, "fail": fails}
    return out


def print_table(result: dict) -> None:
    print(f"{'workload':<12} {'metric':<24} {'parent median (Q1-Q3) [range]':<44} "
          f"{'change':>10} {'wins':>6} {'rel':>8} {'bound':>6}")
    for workload, block in result["summary"].items():
        for name, m in block["metrics"].items():
            p = m["parent"]
            print(f"{workload:<12} {name:<24} "
                  f"{p['median']:>9.4g} ({p['q1']:.4g}-{p['q3']:.4g}) "
                  f"[{p['min']:.4g}-{p['max']:.4g}]".ljust(82)
                  + f"{m['change']['median']:>10.4g} {m['change_wins']:>3}/{m['pairs']:<2} "
                  f"{m['relative_change']:>+8.1%} {m['bound']:>6.0%}"
                  + ("" if m["inside_bound"] else "  OUTSIDE"))
        fail = block["fail"]
        print(f"{workload:<12} failed/attempted: parent {fail['parent']['failed']}/"
              f"{fail['parent']['attempted']}, change {fail['change']['failed']}/"
              f"{fail['change']['attempted']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent")
    ap.add_argument("change", help="git revision of the change")
    ap.add_argument("--pr", required=True, help="number for the output name BENCH_<pr>.json")
    ap.add_argument("--repo", type=Path, default=ROOT, help="git repository (default: this one)")
    ap.add_argument("--work", type=Path, help="worktree directory (default: REPO/.bench_pairs)")
    args = ap.parse_args(argv)

    repo = args.repo.resolve()
    work = (args.work or repo / ".bench_pairs").resolve()
    out_path = repo / f"BENCH_{args.pr}.json"
    shas = {"parent": git(repo, "rev-parse", f"{args.parent}^{{commit}}"),
            "change": git(repo, "rev-parse", f"{args.change}^{{commit}}")}
    if subprocess.run(["git", "-C", str(repo), "diff", "--quiet", shas["parent"], shas["change"],
                       "--", "perfbench", "BENCHMARK.json"]).returncode != 0:
        sys.exit("perfbench/ or BENCHMARK.json differs between the two revisions")
    trees = {side: work / side for side in SIDES}
    work.mkdir(parents=True, exist_ok=True)
    for side in SIDES:
        add_worktree(repo, trees[side], shas[side])
    try:
        bench = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = [w["name"] for w in bench["workloads"]]
        seconds = bench["run_seconds"]
        seeds = list(range(1, 11))
        pinned = pinned_blas_threads(trees["parent"])
        result = {
            "pr": args.pr,
            "command": ["python3", "perfbench/run.py", "--workload", "W", "--seed", "S",
                        "--seconds", str(seconds), "--trace", "0"],
            "sha": shas,
            "src_tree": {side: git(repo, "rev-parse", f"{shas[side]}:src") for side in SIDES},
            "nproc": os.cpu_count(),
            "blas_threads": int(pinned["OPENBLAS_NUM_THREADS"]),
            "pinned_env": pinned,
            "python": sys.version.split()[0],
            "seeds": seeds,
            "order": "pair i runs the parent first when i is even (from 0), the change first "
                     "when it is odd",
            "quartiles": "statistics.quantiles(n=4, method='inclusive')",
            "pairs": {w: [] for w in workloads},
        }
        for workload in workloads:
            for i, seed in enumerate(seeds):
                pair = {}
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    pair[side] = run_once(sys.executable, trees[side], workload, seed, seconds)
                    print(f"{workload} pair {i + 1}/{len(seeds)} seed {seed} {side}: "
                          f"{pair[side].get('metrics', pair[side].get('error', ''))}", flush=True)
                result["pairs"][workload].append(pair)
                result["summary"] = summary(bench, result["pairs"])
                out_path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print_table(result)
        print(f"wrote {out_path}")
    finally:
        for side in SIDES:
            subprocess.run(["git", "-C", str(repo), "worktree", "remove", "--force",
                            str(trees[side])], capture_output=True)
        git(repo, "worktree", "prune")
    return 0


if __name__ == "__main__":
    sys.exit(main())
