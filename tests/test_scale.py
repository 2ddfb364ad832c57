"""Memory guards for the graph side and the examples at a code set the size of
MIMIC-III's."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from cgl.data import GeneratorConfig, generate_synthetic, load_dataset
from cgl.experiment import TrainSettings, assemble
from cgl.model import CollaborativeGraphModel, ModelConfig
from cgl.ontology import load_ontology

N_CODES = 5000
DENSE_CODE_MATRIX_BYTES = N_CODES * N_CODES * 8  # one dense n x n float64 array: 200 MB
# Narrow layers keep the per-patient path small, so the graph side dominates.
CONFIG = ModelConfig(code_dim=8, patient_dim=8, word_dim=8, patient_layer_dims=(16,),
                     code_layer_dims=(16, 16), gru_hidden=16)
SETTINGS = TrainSettings(split_counts=(80, 10, 10), config=CONFIG)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus-5000")
    generate_synthetic(GeneratorConfig(levels=5, roots=8, branching=5, patients=100),
                       seed=3, out_dir=out)
    return out


def load(corpus):
    return load_dataset(corpus / "dataset.jsonl"), load_ontology(corpus / "ontology.tsv")


def test_5000_code_training_step_allocates_less_than_one_dense_code_matrix(corpus):
    """assemble, the model and one loss plus backward stay O(nnz): their peak
    traced allocation (about 50 MB) is below a single n x n float64 array."""
    dataset, tree = load(corpus)
    tracemalloc.start()
    try:
        problem = assemble(dataset, tree, SETTINGS)
        net = CollaborativeGraphModel(SETTINGS.config, problem.tree, problem.observation,
                                      problem.adjacency, len(problem.vocab), seed=0)
        loss, _ = net.loss_program(problem.examples["train"][:SETTINGS.config.batch_size])()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problem.tree.n_leaves == N_CODES
    assert peak < DENSE_CODE_MATRIX_BYTES, f"peak {peak / 1e6:.0f} MB"


def arrays_held(example):
    """Every array an example holds, directly or in a list field."""
    for f in fields(example):
        value = getattr(example, f.name)
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, np.ndarray):
                yield item


def test_5000_code_examples_hold_indices_not_code_wide_rows(corpus):
    """Labels and visits are stored as indices: no array an example holds has
    n_codes entries, and all of them together take 8 bytes per visit code,
    label code and note token (word index plus TF-IDF target) of the data,
    whatever n_codes is."""
    dataset, tree = load(corpus)
    problem = assemble(dataset, tree, SETTINGS)
    examples = [ex for split in problem.examples.values() for ex in split]
    assert problem.tree.n_leaves == N_CODES and len(examples) == len(dataset.patients)
    arrays = [a for ex in examples for a in arrays_held(ex)]
    assert max(a.size for a in arrays) < N_CODES
    entries = sum(sum(len(v.codes) for v in p.visits) + 2 * len(p.feature_visits[-1].note)
                  for p in dataset.patients)
    assert sum(a.nbytes for a in arrays) <= 8 * entries
