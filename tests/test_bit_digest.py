"""``tools/bit_digest.py``: two runs of one revision print the same digests.

A bit-for-bit change is shown by diffing the tool's output on two revisions,
so its own output must not move between runs: no allocation address, time or
temporary path may leak into what it hashes.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train-small", "train-wide", "serve-5k")


def digests() -> list[str]:
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "bit_digest.py"), "--tiny"],
                         env={**os.environ, "CGL_THREADS": "1"}, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    return run.stdout.splitlines()


def test_two_runs_print_equal_digests():
    first, second = digests(), digests()
    assert first == second
    items = {}
    for line in first:
        workload, item, digest = line.split()
        assert len(digest) == 64
        items.setdefault(workload, []).append(item)
    assert list(items) == list(WORKLOADS)
    for names in items.values():
        grads = names[4:-11]
        assert names[:4] == ["generate.ontology", "generate.dataset", "generate.manifest",
                             "step.loss"]
        assert {"step.grad.head_weight", "step.grad.word_embed"} <= set(grads)
        assert all(n.startswith("step.grad.") for n in grads) and grads == sorted(grads)
        assert names[-11:] == ["fit.history", "fit.params", "predict_scores",
                               "evaluate.report", "evaluate.per_patient", "predict.stdout",
                               "export.code_embeddings", "export.attention",
                               "train.history", "train.manifest", "train.arrays"]
