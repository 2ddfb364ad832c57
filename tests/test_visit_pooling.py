"""Visit pooling as one op, and what one training step leaves on the tape.

A batch pools all its visits with one ``group_mean`` over the code features
and reads each visit back with one row gather; the scorer does the same for
one patient. Per visit, that replaces a gather, a mean and a reshape. The
pooled rows and the gradient into the code features must equal the per-visit
ops' bit for bit on the desk-size fixture and on corpora of both training
workloads' shapes.
"""

import gc

import numpy as np
import pytest

from cgl import autodiff as ad
from cgl.data import GeneratorConfig, generate_synthetic, load_dataset
from cgl.experiment import TrainSettings, assemble
from cgl.model import CollaborativeGraphModel, ModelConfig, predict_scores
from cgl.ontology import load_ontology
from problem_fixtures import build_problem
from test_acceptance import CLUSTER_CORPUS, cluster_model_config
from test_ops_oracle import assert_group_mean_matches, per_group_oracle

# The train-small and train-wide workloads: corpus, split and model config.
WORKLOADS = {
    "train-small": (CLUSTER_CORPUS, (210, 30, 60), cluster_model_config()),
    "train-wide": (GeneratorConfig(roots=6, branching=4, levels=5, patients=1500),
                   (1050, 150, 300), ModelConfig()),
}


@pytest.fixture(scope="module")
def problems(tmp_path_factory):
    """Per problem: the model, a training batch and examples to score."""
    out = {}
    for task in ("diagnosis", "heart_failure"):
        prob = build_problem(task=task, seed=1)
        out[f"fixture-{task}"] = (prob.model, prob.examples, prob.examples)
    for name, (corpus, split, config) in WORKLOADS.items():
        path = tmp_path_factory.mktemp(name)
        generate_synthetic(corpus, seed=1, out_dir=path)
        settings = TrainSettings(seed=1, split_counts=split, config=config)
        prob = assemble(load_dataset(path / "dataset.jsonl"),
                        load_ontology(path / "ontology.tsv"), settings)
        net = CollaborativeGraphModel(config, prob.tree, prob.observation, prob.adjacency,
                                      len(prob.vocab), seed=prob.seeds.init)
        out[name] = (net, prob.examples["train"][:32], prob.examples["test"])
    return out


@pytest.mark.parametrize("name", ["fixture-diagnosis", "fixture-heart_failure",
                                  "train-small", "train-wide"])
def test_pooling_matches_per_visit_gather_and_mean(problems, name):
    net, batch, scored = problems[name]
    # a train-mode pass that updates the batch-norm statistics, so that the
    # features can be frozen below
    h_c = net.graph_forward(net._constants(), mode="train", update_stats=True).values
    groups = [idx for ex in batch for idx in ex.visit_codes]
    w = np.random.default_rng(3).normal(size=(len(groups), 1, h_c.shape[1]))
    assert_group_mean_matches(h_c, groups, w)

    # the predict path pools on the frozen features, one patient or a batch
    # at a time, with the same bits
    net.freeze_code_embeddings()
    frozen = ad.constant(net.frozen_code_repr)
    for ex in scored:
        rows = per_group_oracle(frozen, ex.visit_codes)
        assert np.array_equal(net.pool_visits(frozen, [ex]).values,
                              np.concatenate([r.values for r in rows]))
    one_by_one = np.stack([net.predict_example(ex)[0] for ex in scored])
    assert predict_scores(net, scored).tobytes() == one_by_one.tobytes()


def test_train_small_step_records_fewer_and_lighter_entries(problems):
    """A 32-patient train-small step: the exact entry count, and the objects the
    cyclic collector tracks that the forward pass leaves alive, per entry."""
    net, batch, _ = problems["train-small"]
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        loss, _ = net.loss_program(batch)()
        kept = len(gc.get_objects()) - before
    finally:
        gc.enable()
    entries = len(loss.tape._entries)
    visits = sum(len(ex.visit_codes) for ex in batch)
    assert visits == 81
    # 2,876 with a gather, a mean and a reshape per visit; now one pooling op
    # per batch and one row gather per visit
    assert entries == 2876 - 3 * visits + 1 + visits == 2715
    assert kept <= 5 * entries, f"{kept / entries:.2f} tracked objects per entry"
