"""The glibc heap thresholds that importing ``cgl`` sets.

A training step at the wide shapes frees megabyte-sized temporaries. With
glibc's dynamic thresholds they are unmapped or trimmed after every step, so
the next step faults the same pages in again. ``cgl`` fixes both thresholds at
import, unless the environment sets them. Minor page faults are counted with
``getrusage`` in a fresh process, so nothing that this suite ran before shapes
the heap.
"""

import ctypes
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from cgl.data import GeneratorConfig, generate_synthetic

pytestmark = pytest.mark.skipif(
    os.name != "posix" or not hasattr(ctypes.CDLL(None), "mallopt"),
    reason="the C library has no mallopt (not glibc)")

SRC = Path(__file__).resolve().parents[1] / "src"
PATIENTS = 300

# Six reps of a 2-step fit from a fresh model, the benchmark's train-wide
# phase on fewer patients; prints the minor page faults of each rep.
FIT_FAULTS = f"""
import json, resource, sys
from pathlib import Path
from cgl.data import load_dataset
from cgl.experiment import TrainSettings, assemble
from cgl.model import CollaborativeGraphModel, ModelConfig, fit
from cgl.ontology import load_ontology

corpus = Path(sys.argv[1])
config = ModelConfig()
problem = assemble(load_dataset(corpus / "dataset.jsonl"), load_ontology(corpus / "ontology.tsv"),
                   TrainSettings(seed=1, split_counts=({PATIENTS - 100}, 50, 50), config=config))
faults = []
for _ in range(6):
    model = CollaborativeGraphModel(config, problem.tree, problem.observation,
                                    problem.adjacency, len(problem.vocab), seed=1)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fit(model, problem.examples["train"][:64], None, epochs=1, seed=1)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    del model
print(json.dumps(faults))
"""


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    """train-wide's 1,536 codes: a step's graph-side temporaries are (1,536,
    128) and (1,536, 160) floats, 1.5 to 2 MB each, and the head's gradient
    is (400, 1,536), 4.9 MB."""
    path = tmp_path_factory.mktemp("wide")
    generate_synthetic(GeneratorConfig(roots=6, branching=4, levels=5, patients=PATIENTS),
                       seed=1, out_dir=path)
    return path


def fit_faults(corpus: Path, **env) -> list[int]:
    clean = {k: v for k, v in os.environ.items()
             if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    run = subprocess.run([sys.executable, "-c", FIT_FAULTS, str(corpus)],
                         env={**clean, "CGL_THREADS": "1", "PYTHONPATH": str(SRC), **env},
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    return json.loads(run.stdout.splitlines()[-1])


def test_steps_after_the_first_fault_in_no_fresh_heap(wide_corpus):
    """The first rep grows the heap; later reps reuse it. A rep at glibc's
    dynamic thresholds faults in 11,000 to 15,000 pages; with the ones
    ``cgl`` sets, single digits to a few hundred. The median is compared, so
    one rep that maps something new does not decide it."""
    faults = fit_faults(wide_corpus)
    assert statistics.median(faults[1:]) <= 300, faults


@pytest.mark.parametrize("env", [
    {"MALLOC_TRIM_THRESHOLD_": "131072"},
    {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
], ids=["MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"])
def test_the_environment_trim_threshold_wins(wide_corpus, env):
    """The trim threshold at glibc's default of 128 KiB, set either way glibc
    reads it: ``cgl`` leaves it alone, the top of the heap is handed back
    after each step, and the faults come back."""
    faults = fit_faults(wide_corpus, **env)
    assert statistics.median(faults[1:]) >= 3000, faults
