"""End-to-end assembly: dataset and hierarchy files to a trained model.

The split, parameter initialization, and batch shuffling each draw their seed
from one root seed, so a whole run is reproducible from (files, settings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .data import EhrDataset, _parse_patient, make_labels, patient_document, split_dataset
from .graphs import build_cooccurrence, build_observation, build_ontology_adjacency
from .model import (METRIC_KS, CollaborativeGraphModel, ModelConfig, PatientExample,
                    build_example, fit, prepare_examples)
from .ontology import CodeIndex, OntologyTree, pad_virtual_leaves
from .text import Vocabulary, fit_vocabulary

__all__ = ["TrainSettings", "derive_seeds", "assemble", "train", "history_to_example"]


@dataclass
class TrainSettings:
    """The run keys of ``cgl train``; ``metric_ks`` is config key ``k``, and
    ``export_graphs`` is read by the command, not by :func:`assemble`."""
    seed: int = 0
    split_counts: tuple[int, int, int] = (210, 30, 60)
    metric_ks: tuple[int, ...] = METRIC_KS
    cooccurrence_scope: str = "visit"
    hf_prefix: str | None = None
    export_graphs: bool = False
    config: ModelConfig = field(default_factory=ModelConfig)


def derive_seeds(seed: int) -> SimpleNamespace:
    split, init, shuffle = (int(s) for s in np.random.SeedSequence(seed).generate_state(3))
    return SimpleNamespace(split=split, init=init, shuffle=shuffle)


def assemble(dataset: EhrDataset, base_tree: OntologyTree,
             settings: TrainSettings) -> SimpleNamespace:
    """Split, pad the hierarchy, and build graphs, vocabulary, and examples."""
    seeds = derive_seeds(settings.seed)
    split_dataset(dataset, settings.split_counts, seeds.split)
    tree = pad_virtual_leaves(base_tree, set(dataset.all_codes()))
    labels = make_labels(dataset, settings.config.task, tree, hf_prefix=settings.hf_prefix)
    observation = build_observation(dataset, tree)
    cooccurrence = build_cooccurrence(dataset, tree, scope=settings.cooccurrence_scope)
    adjacency = build_ontology_adjacency(tree, cooccurrence)
    vocab = fit_vocabulary(
        [patient_document(p) for p in dataset.split_patients("train")])
    examples = {
        tag: prepare_examples(dataset, tag, tree, vocab, labels)
        for tag in ("train", "valid", "test")
    }
    return SimpleNamespace(
        dataset=dataset, tree=tree, labels=labels, observation=observation,
        adjacency=adjacency, vocab=vocab, examples=examples, seeds=seeds,
        settings=settings)


def train(problem: SimpleNamespace, epochs: int | None = None,
          on_epoch=None) -> tuple[CollaborativeGraphModel, list[dict]]:
    settings = problem.settings
    model = CollaborativeGraphModel(
        settings.config, problem.tree, problem.observation, problem.adjacency,
        vocab_size=len(problem.vocab), seed=problem.seeds.init)
    history = fit(
        model, problem.examples["train"], problem.examples["valid"] or None,
        epochs=epochs, seed=problem.seeds.shuffle, metric_ks=settings.metric_ks,
        on_epoch=on_epoch)
    return model, history


def history_to_example(visits: list[dict], tree: CodeIndex,
                       vocab: Vocabulary) -> PatientExample:
    """Turn a raw visit history (codes + notes) into a model input.

    The history holds feature visits only and is parsed as a dataset record
    is, dropping visits without codes; the last visit supplies the note.
    """
    patient = _parse_patient({"patient": "history", "visits": visits}, "patient history")
    return build_example(patient.pid, [v for v in patient.visits if v.codes], [], tree, vocab)
