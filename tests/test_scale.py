"""Memory guard for the graph side at a code set the size of MIMIC-III's."""

import tracemalloc

from cgl.data import GeneratorConfig, generate_synthetic, load_dataset
from cgl.experiment import TrainSettings, assemble
from cgl.model import CollaborativeGraphModel, ModelConfig
from cgl.ontology import load_ontology

N_CODES = 5000
DENSE_CODE_MATRIX_BYTES = N_CODES * N_CODES * 8  # one dense n x n float64 array: 200 MB


def test_5000_code_training_step_allocates_less_than_one_dense_code_matrix(tmp_path):
    """assemble, the model and one loss plus backward stay O(nnz): their peak
    traced allocation (about 50 MB) is below a single n x n float64 array."""
    generate_synthetic(GeneratorConfig(levels=5, roots=8, branching=5, patients=100),
                       seed=3, out_dir=tmp_path)
    tree = load_ontology(tmp_path / "ontology.tsv")
    dataset = load_dataset(tmp_path / "dataset.jsonl")
    # Narrow layers keep the per-patient path small, so the graph side dominates.
    config = ModelConfig(code_dim=8, patient_dim=8, word_dim=8, patient_layer_dims=(16,),
                         code_layer_dims=(16, 16), gru_hidden=16)
    settings = TrainSettings(split_counts=(80, 10, 10), config=config)
    tracemalloc.start()
    try:
        problem = assemble(dataset, tree, settings)
        net = CollaborativeGraphModel(settings.config, problem.tree, problem.observation,
                                      problem.adjacency, len(problem.vocab), seed=0)
        loss, _ = net.loss_program(problem.examples["train"][:settings.config.batch_size])()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert problem.tree.n_leaves == N_CODES
    assert peak < DENSE_CODE_MATRIX_BYTES, f"peak {peak / 1e6:.0f} MB"
