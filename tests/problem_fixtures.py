"""Hand-built desk-size problem used across the model and acceptance tests.

Four training patients, a 3-level tree with 12 leaves, two graph layers,
hidden width 8, and 3-token notes. Everything is deterministic.
"""

from types import SimpleNamespace

from cgl import data, graphs, model, ontology, text

TINY_EDGES = [
    ("d0", None), ("d1", None),
    ("d0.a", "d0"), ("d0.b", "d0"), ("d1.a", "d1"), ("d1.b", "d1"),
] + [(f"{mid}.{i}", mid) for mid in ("d0.a", "d0.b", "d1.a", "d1.b") for i in range(3)]

HF_PREFIX = "d0.a"


def tiny_dataset():
    v = data.Visit
    patients = [
        data.Patient("p0", [
            v(["d0.a.0", "d0.a.1"], ["fever", "cough", "fever"]),
            v(["d0.a.1", "d0.b.0"], ["cough", "chills", "ache"]),
            v(["d0.a.2"], ["fever"]),
        ], split="train"),
        data.Patient("p1", [
            v(["d0.b.0", "d0.b.1"], ["ache", "chills", "ache"]),
            v(["d0.b.2", "d0.a.0"], ["chills"]),
        ], split="train"),
        data.Patient("p2", [
            v(["d1.a.0", "d1.a.1"], ["rash", "fever", "rash"]),
            v(["d1.a.2"], ["rash"]),
        ], split="train"),
        data.Patient("p3", [
            v(["d1.b.0", "d1.a.0"], ["rash", "itch", "itch"]),
            v(["d1.b.1"], ["itch"]),
        ], split="train"),
    ]
    return data.EhrDataset(patients)


def tiny_config(task="diagnosis", **overrides):
    base = dict(
        task=task,
        code_dim=4,
        patient_dim=4,
        word_dim=3,
        patient_layer_dims=(6,),
        code_layer_dims=(8, 8),
        gru_hidden=8,
        note_loss_weight=model.default_note_loss_weight(task),
        learning_rate=1e-3,
        epochs=3,
        batch_size=4,
    )
    base.update(overrides)
    return model.ModelConfig(**base)


def build_problem(task="diagnosis", seed=0, dataset=None, edges=None,
                  hf_prefix=HF_PREFIX, **config_overrides):
    dataset = dataset if dataset is not None else tiny_dataset()
    tree = ontology.load_ontology(edges if edges is not None else TINY_EDGES)
    tree = ontology.pad_virtual_leaves(tree, set(dataset.all_codes()))
    labels = data.make_labels(dataset, task, tree, hf_prefix=hf_prefix)
    obs = graphs.build_observation(dataset, tree)
    cooc = graphs.build_cooccurrence(dataset, tree, "visit")
    adj = graphs.build_ontology_adjacency(tree, cooc)
    vocab = text.fit_vocabulary(
        [data.patient_document(p) for p in dataset.split_patients("train")])
    config = tiny_config(task, **config_overrides)
    net = model.CollaborativeGraphModel(config, tree, obs, adj, len(vocab), seed=seed)
    examples = model.prepare_examples(dataset, "train", tree, vocab, labels)
    return SimpleNamespace(
        dataset=dataset, tree=tree, labels=labels, obs=obs, adj=adj,
        vocab=vocab, config=config, model=net, examples=examples)
