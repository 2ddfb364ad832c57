#!/usr/bin/env python3
"""End-to-end library use: generate, train, and score both tasks.

Run:  python3 demos/03_train_and_evaluate.py   (about a minute on a laptop)
"""
import tempfile
from pathlib import Path

from cgl.data import GeneratorConfig, generate_synthetic, load_dataset
from cgl.experiment import TrainSettings, assemble, train
from cgl.model import ModelConfig, compute_metrics, predict_scores
from cgl.ontology import load_ontology

gen = GeneratorConfig(
    levels=4, roots=3, branching=3, patients=150,
    visits=(2, 5), codes_per_visit=(2, 4),
    clusters=12, cluster_level=3,
    background_words=6, words_per_cluster=2, words_per_note=(1, 1),
    cluster_word_rate=1.0, partner_note_rate=0.5,
)

config = ModelConfig(
    task="diagnosis", code_dim=8, patient_dim=16, word_dim=8,
    patient_layer_dims=(16,), code_layer_dims=(32, 32), gru_hidden=32,
    learning_rate=3e-3, epochs=25, batch_size=32,
)

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    manifest = generate_synthetic(gen, seed=5, out_dir=out)
    tree = load_ontology(out / "ontology.tsv")
    dataset = load_dataset(out / "dataset.jsonl")

    settings = TrainSettings(seed=1, split_counts=(105, 15, 30), metric_ks=(10,),
                             hf_prefix=manifest["hf_prefix"], config=config)
    problem = assemble(dataset, tree, settings)
    model, history = train(
        problem,
        on_epoch=lambda row: row["epoch"] % 5 == 0 and print(
            f"epoch {row['epoch']:3d}  loss {row['train_loss']:.4f}  "
            f"valid R@10 {row['r10']:.3f}"))

    scores = predict_scores(model, problem.examples["test"])
    report = compute_metrics(scores, problem.examples["test"], "diagnosis",
                             ks=(10,), include_onset=True)
    print("\ntest metrics (diagnosis):")
    for name, value in report.items():
        print(f"  {name:>16s}  {value:.4f}")
    print("\nthe onset split separates codes the patient already had from"
          "\nnew-onset codes that only similar patients reveal.")
