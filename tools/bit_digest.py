"""One sha256 per output of the model, so that two revisions can be diffed.

    python3 tools/bit_digest.py [--src DIR] [--tiny] > digests.txt

For each benchmark workload shape (read from `perfbench/workloads.py`, at
seed 1) it generates the workload's corpus, assembles it and builds its models
and checkpoint through `perfbench/worker.py`'s `Job`, as the benchmark does,
and prints `<workload> <item> <sha256>` lines for:

- `step.loss` and `step.grad.<name>`: the loss and every leaf gradient of one
  train-mode step on the first 32 training patients;
- `fit.history` and `fit.params`: a one-epoch `fit` over the first two
  32-patient batches, validated on the valid split, and every array and
  batch-norm statistic after it;
- `predict_scores`: the fitted model's scores of the test split;
- `evaluate.report` and `evaluate.per_patient`: the files that
  `cgl evaluate` writes for the test split of a checkpoint of that model.

--src picks the `cgl` package to import (default: this repository's
`src`), so one script digests any revision: run it once per revision, each in
its own process, with `CGL_THREADS=1`, and diff the outputs. --tiny uses the
workloads' `TINY` shapes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def array_digest(arrays: dict) -> str:
    """Names, shapes and bytes of every array, in name order."""
    import numpy as np

    parts = []
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        parts += [name.encode(), str(a.shape).encode(), a.tobytes()]
    return sha(*parts)


def history_digest(history: list[dict]) -> str:
    """Every value of every row, floats by their exact hex form."""
    rows = [{k: float(v).hex() if isinstance(v, float) else v for k, v in row.items()}
            for row in history]
    return sha(json.dumps(rows, sort_keys=True).encode())


def digest_workload(worker, spec: dict, work: Path) -> list[tuple[str, str]]:
    cgl = worker.cgl
    job = worker.Job({"workload": spec, "seed": SEED, "seconds": 0, "trace": False,
                      "work": str(work), "phase": "gen"})
    worker.phase_gen(job)
    problem = job.load_problem()
    batch = problem.settings.config.batch_size

    out = []
    train = problem.examples["train"]
    leaves, loss, _, _ = job.new_model(problem)._train_pass(train[:batch], update_stats=True)
    loss.backward()
    out.append(("step.loss", sha(loss.values.tobytes())))
    out += [(f"step.grad.{name}", array_digest({name: leaves[name].grad}))
            for name in sorted(leaves)]

    model = job.new_model(problem)
    history = cgl.model.fit(model, train[:2 * batch], problem.examples["valid"] or None,
                            epochs=1, seed=problem.seeds.shuffle)
    out.append(("fit.history", history_digest(history)))
    bn = {f"{name}.{stat}": getattr(state, stat) for name, state in model.params.bn.items()
          for stat in ("running_mean", "running_var")}
    out.append(("fit.params", array_digest({**model.params.arrays, **bn})))
    scores = cgl.model.predict_scores(model, problem.examples["test"])
    out.append(("predict_scores", array_digest({"scores": scores})))

    job.save(model, problem)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cgl.cli.main(["evaluate", "--checkpoint", str(job.checkpoint),
                           "--dataset", str(job.corpus / "dataset.jsonl"),
                           "--out", str(work / "evaluate")])
    if rc != 0:
        raise SystemExit(f"cgl evaluate exited with {rc}")
    out.append(("evaluate.report", sha((work / "evaluate" / "report.txt").read_bytes())))
    out.append(("evaluate.per_patient",
                sha((work / "evaluate" / "per_patient.csv").read_bytes())))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the cgl package to digest (default: this repo's)")
    ap.add_argument("--tiny", action="store_true", help="the workloads' TINY shapes")
    args = ap.parse_args(argv)

    sys.path[:0] = [str(args.src.resolve()), str(ROOT / "perfbench")]
    import worker
    from workloads import WORKLOADS, workload

    for name in WORKLOADS:
        with tempfile.TemporaryDirectory(prefix="bit_digest-") as tmp:
            for item, digest in digest_workload(worker, workload(name, args.tiny), Path(tmp)):
                print(f"{name} {item} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
