#!/usr/bin/env python3
"""Generate a synthetic visit-record corpus and look at what got planted.

Run:  python3 demos/02_synthetic_data.py
"""
import json
import tempfile
from pathlib import Path

import numpy as np

from cgl.data import GeneratorConfig, generate_synthetic, load_dataset
from cgl.graphs import build_cooccurrence, build_observation, build_ontology_adjacency
from cgl.ontology import load_ontology, pad_virtual_leaves
from cgl.data import split_dataset

cfg = GeneratorConfig(
    levels=4, roots=3, branching=3, patients=120,
    visits=(2, 5), codes_per_visit=(2, 4),
    clusters=12, cluster_level=3,
    partner_weight=0.25, p_persist=0.6,
)

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    manifest = generate_synthetic(cfg, seed=7, out_dir=out)
    print(json.dumps(manifest["stats"], indent=2))
    print("heart-failure stand-in subtree:", manifest["hf_prefix"])

    tree = load_ontology(out / "ontology.tsv")
    dataset = load_dataset(out / "dataset.jsonl")
    split_dataset(dataset, (84, 12, 24), seed=0)
    tree = pad_virtual_leaves(tree, set(dataset.all_codes()))

    # The two graphs the model trains on: patient-code observations and the
    # co-occurrence-masked hierarchy adjacency.
    obs = build_observation(dataset, tree)
    cooc = build_cooccurrence(dataset, tree)
    adj = build_ontology_adjacency(tree, cooc)
    n = tree.n_leaves
    print(f"codes: {n}, training patients: {obs.n_patients}")
    print(f"observation edges: {obs.matrix.nnz}")
    # Two leaves share an ancestor exactly when they share a root.
    per_root = np.bincount(tree.ancestors[:, 0])
    print(f"hierarchy pairs with a common ancestor: "
          f"{int((per_root * (per_root - 1) // 2).sum())}")
    print(f"kept after co-occurrence masking: {adj.adjacency.nnz // 2} "
          f"(of {n * (n - 1) // 2} possible pairs)")
