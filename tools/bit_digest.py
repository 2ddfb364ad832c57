"""One sha256 per output of the model, so that two revisions can be diffed.

    python3 tools/bit_digest.py [--src DIR] [--tiny] > digests.txt

For each benchmark workload shape (read from `perfbench/workloads.py`, at
seed 1) it generates the workload's corpus, assembles it and builds its models
and checkpoint through `perfbench/worker.py`'s `Job`, as the benchmark does,
and prints `<workload> <item> <sha256>` lines for:

- `generate.ontology`, `generate.dataset` and `generate.manifest`: the files
  that `cgl generate` writes with the workload's corpus as `gen_` keys;
- `step.loss` and `step.grad.<name>`: the loss and every leaf gradient of one
  train-mode step on the first 32 training patients;
- `fit.history` and `fit.params`: a one-epoch `fit` over the first two
  32-patient batches, validated on the valid split, and every array and
  batch-norm statistic after it;
- `predict_scores`: the fitted model's scores of the test split;
- `evaluate.report` and `evaluate.per_patient`: the files that
  `cgl evaluate` writes for the test split of a checkpoint of that model;
- `predict.stdout`: what `cgl predict` prints for the first test patient's
  history, scored by that checkpoint;
- `export.code_embeddings` and `export.attention`: the files of both kinds of
  `cgl export` of that checkpoint, the attention for the same history;
- `train.history`, `train.manifest` and `train.arrays`: the files of a
  one-epoch `cgl train` with the workload's model keys and split.

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


def config_text(keys: dict, prefix: str = "") -> str:
    """``key = value`` lines, a list as comma-separated values."""
    def text(v):
        if isinstance(v, (list, tuple)):
            return ",".join(map(str, v))
        return str(v).lower() if isinstance(v, bool) else str(v)
    return "".join(f"{prefix}{key} = {text(v)}\n" for key, v in keys.items())


def run_cli(cgl, *argv) -> str:
    """``cgl`` with ``argv``; what it prints, or an exit on a non-zero code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cgl.cli.main([str(a) for a in argv])
    if rc != 0:
        raise SystemExit(f"cgl {argv[0]} exited with {rc}")
    return buf.getvalue()


def file_digests(prefix: str, directory: Path, names: dict[str, str]) -> list[tuple[str, str]]:
    return [(f"{prefix}.{item}", sha((directory / name).read_bytes()))
            for item, name in names.items()]


def digest_workload(worker, spec: dict, work: Path) -> list[tuple[str, str]]:
    cgl = worker.cgl
    out = []
    (work / "corpus.cfg").write_text(config_text(spec["corpus"], "gen_"), encoding="utf-8")
    run_cli(cgl, "generate", "--config", work / "corpus.cfg", "--seed", SEED,
            "--out", work / "generate")
    out += file_digests("generate", work / "generate", {
        "ontology": "ontology.tsv", "dataset": "dataset.jsonl",
        "manifest": "dataset.manifest.json"})
    job = worker.Job({"workload": spec, "seed": SEED, "seconds": 0, "trace": False,
                      "work": str(work), "phase": "gen"})
    worker.phase_gen(job)
    problem = job.load_problem()
    batch = problem.settings.config.batch_size

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
    dataset = job.corpus / "dataset.jsonl"
    run_cli(cgl, "evaluate", "--checkpoint", job.checkpoint, "--dataset", dataset,
            "--out", work / "evaluate")
    out += file_digests("evaluate", work / "evaluate", {
        "report": "report.txt", "per_patient": "per_patient.csv"})

    job.write_histories(problem)
    patient = min(job.histories.iterdir())
    printed = run_cli(cgl, "predict", "--checkpoint", job.checkpoint, "--history", patient)
    out.append(("predict.stdout", sha(printed.encode())))
    run_cli(cgl, "export", "--checkpoint", job.checkpoint, "--what", "code-embeddings",
            "--out", work / "export")
    run_cli(cgl, "export", "--checkpoint", job.checkpoint, "--what", "attention",
            "--history", patient, "--out", work / "export")
    out += file_digests("export", work / "export", {
        "code_embeddings": "code_embeddings.csv", "attention": "attention.csv"})

    (work / "train.cfg").write_text(config_text(
        {**spec["model"], "split_counts": spec["split"], "epochs": 1}), encoding="utf-8")
    run_cli(cgl, "train", "--config", work / "train.cfg", "--seed", SEED,
            "--ontology", job.corpus / "ontology.tsv", "--dataset", dataset,
            "--out", work / "train")
    out += file_digests("train", work / "train", {
        "history": "history.csv", "manifest": "checkpoint/manifest.json",
        "arrays": "checkpoint/arrays.bin"})
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
