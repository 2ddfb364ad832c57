"""Benchmark of the cgl package, run as a black box from its source tree.

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Each run generates its corpus from the seed,
then runs the phases of the workload one after another, each in its own
single-threaded process (worker.py): corpus generation, repeated set-up, the
timed training loop (training workloads) and the timed serving loop (a fresh
process: `cgl predict` calls, then `cgl evaluate`). Outputs are checked
against in-process recomputation; every epoch, call and check counts as one
attempted operation.

With --trace 0 the last line of stdout is a JSON object with every
end-to-end metric; with --trace 1 it holds the per-layer metrics instead,
from spans recorded around the cgl functions, plus the tracing overhead. The
spans are written to .perfbench_work/traces/. Exit codes: 0 all checks
passed, 1 a check failed or a phase crashed, 2 no cgl source tree here.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS, layer_metrics
from workloads import WORKLOADS, workload

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
TIME_LIMIT_S = 170.0

# name -> unit; the direction and bound live in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "setup_peak_rss_mb": "MB",
    "train_patients_per_s": "patients/s",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "evaluate_patients_per_s": "patients/s",
    "peak_rss_mb": "MB",
}

PINNED_ENV = {
    "CGL_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class PhaseError(RuntimeError):
    pass


def run_phase(phase: str, job: dict, work: Path, deadline: float) -> dict:
    job_path = work / f"{phase}.job.json"
    out_path = work / f"{phase}.result.json"
    job_path.write_text(json.dumps(dict(job, out=str(out_path))), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise PhaseError(f"no time left for the {phase} phase")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), phase, str(job_path)],
            env=env, cwd=ROOT, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise PhaseError(f"the {phase} phase ran past the time limit") from None
    if proc.returncode != 0 or not out_path.exists():
        raise PhaseError(f"the {phase} phase exited with code {proc.returncode}")
    return json.loads(out_path.read_text(encoding="utf-8"))


def end_to_end(res: dict) -> dict[str, float]:
    setup, serve = res["setup"], res["serve"]
    rates = (res["train"] if "train" in res else setup)["train_patients_per_s"]
    predict_ms = [1e3 * s for s in serve["predict_s"]]
    return {
        "setup_s": statistics.median(setup["setup_s"]),
        "setup_peak_rss_mb": setup["peak_rss_mb"],
        "train_patients_per_s": statistics.median(rates),
        "predict_ms_p50": statistics.median(predict_ms),
        "predict_ms_p90": statistics.quantiles(predict_ms, n=10)[8],
        "evaluate_patients_per_s": statistics.median(serve["evaluate_patients_per_s"]),
        "peak_rss_mb": max(res[p]["peak_rss_mb"] for p in ("train", "serve") if p in res),
    }


def per_layer(res: dict) -> tuple[dict[str, float | None], list[str]]:
    dumps = [r["trace"] for r in res.values() if "trace" in r]
    values, absent = layer_metrics(dumps)
    fp = res["setup"]["fingerprint"]
    values["graphs.link_nnz"] = fp["adjacency_nnz"] if fp["adjacency_nnz"] >= 0 else None
    values["graphs.link_density"] = (fp["adjacency_nnz"] / fp["codes"] ** 2
                                     if fp["adjacency_nnz"] >= 0 else None)
    values["runtime.cpu_per_wall"] = max(r["cpu_per_wall"] for r in res.values()
                                         if "cpu_per_wall" in r)
    overhead = {k: v for r in res.values() for k, v in r.get("overhead", {}).items()}
    for name in ("setup_s", "train_patients_per_s", "predict_ms_p50",
                 "evaluate_patients_per_s"):
        values[f"trace.overhead.{name}"] = overhead.get(name)
    return values, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed loop of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every shape (for the benchmark's own tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cgl" / "__init__.py").is_file():
        print(f"error: no cgl source tree under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    wl = workload(args.workload, tiny=args.tiny)
    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    job = {"workload": wl, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "work": str(work), "root": str(ROOT)}
    phases = ["gen", "setup"] + (["train"] if wl["train"] else []) + ["serve"]
    res: dict[str, dict] = {}
    try:
        work.mkdir(parents=True, exist_ok=True)
        for phase in phases:
            started = time.monotonic()
            res[phase] = run_phase(phase, job, work, deadline)
            print(f"phase {phase} took {time.monotonic() - started:.1f} s", file=sys.stderr)
    except PhaseError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in res.values()) + 1
    failed = sum(r["failed"] for r in res.values())
    failures = [m for r in res.values() for m in r["failures"]]
    cpu_per_wall = max(r["cpu_per_wall"] for r in res.values() if "cpu_per_wall" in r)
    blas_threads = max(1, round(cpu_per_wall))
    if blas_threads != 1:
        failed += 1
        failures.append(f"effective BLAS threads {blas_threads} (cpu/wall {cpu_per_wall:.2f})")

    fp = dict(res["setup"]["fingerprint"], sha256=res["gen"]["sha256"])
    digest = {p: r["digest"] for p, r in res.items() if "digest" in r}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"nproc {os.cpu_count()} blas_threads {blas_threads} cpu_per_wall {cpu_per_wall:.3f}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print("digest " + json.dumps(digest, sort_keys=True))
    print(f"predict samples {len(res['serve']['predict_s'])}, evaluate samples "
          f"{len(res['serve']['evaluate_patients_per_s'])}")
    for message in failures:
        print(f"failed: {message}")
    print(f"fail_rate {failed}/{attempted} failed/attempted")

    if args.trace:
        values, absent = per_layer(res)
        base.joinpath("traces").mkdir(parents=True, exist_ok=True)
        trace_path = base / "traces" / f"{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({p: r["trace"] for p, r in res.items() if "trace" in r}),
                              encoding="utf-8")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        missing = sorted(n for n, v in values.items() if v is None)
        if absent or missing:
            print(f"absent: wrapped names {absent}; layers reported as 0: {missing}")
        metrics = {name: {"value": values.get(name) or 0.0, "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(res).items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
