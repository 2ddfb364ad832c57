"""Test-suite settings and fixtures shared by every module."""

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, keep no example
# database, and have no per-example deadline, so tier-1 neither flakes nor
# slows down on a small runner.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def problems(tmp_path_factory):
    """Per problem: a model, a training batch and examples to score. The
    problems are the desk-size fixture for both tasks and corpora of the
    train-small and train-wide benchmark workloads' shapes."""
    from cgl.data import GeneratorConfig, generate_synthetic, load_dataset
    from cgl.experiment import TrainSettings, assemble
    from cgl.model import CollaborativeGraphModel, ModelConfig
    from cgl.ontology import load_ontology
    from problem_fixtures import build_problem
    from test_acceptance import CLUSTER_CORPUS, cluster_model_config

    workloads = {
        "train-small": (CLUSTER_CORPUS, (210, 30, 60), cluster_model_config()),
        "train-wide": (GeneratorConfig(roots=6, branching=4, levels=5, patients=1500),
                       (1050, 150, 300), ModelConfig()),
    }
    out = {}
    for task in ("diagnosis", "heart_failure"):
        prob = build_problem(task=task, seed=1)
        out[f"fixture-{task}"] = (prob.model, prob.examples, prob.examples)
    for name, (corpus, split, config) in workloads.items():
        path = tmp_path_factory.mktemp(name)
        generate_synthetic(corpus, seed=1, out_dir=path)
        settings_ = TrainSettings(seed=1, split_counts=split, config=config)
        prob = assemble(load_dataset(path / "dataset.jsonl"),
                        load_ontology(path / "ontology.tsv"), settings_)
        net = CollaborativeGraphModel(config, prob.tree, prob.observation, prob.adjacency,
                                      len(prob.vocab), seed=prob.seeds.init)
        out[name] = (net, prob.examples["train"][:32], prob.examples["test"])
    return out
