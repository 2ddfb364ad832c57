"""Workload definitions for the cgl benchmark.

Each workload fixes a synthetic corpus shape (passed to
``cgl.data.generate_synthetic`` with the workload seed), a model config, a
split, how set-up is done and how the timed phase loops. ``TINY`` shrinks the
same workloads for the benchmark's own tests. This module is plain data: it
imports neither numpy nor cgl, so the orchestrator can read it before any
thread limit is set.
"""

# The acceptance corpus and model config of tests/test_acceptance.py.
CLUSTER_CORPUS = dict(
    levels=4, roots=3, branching=3, patients=300,
    visits=[2, 5], codes_per_visit=[2, 4],
    clusters=24, cluster_level=3,
    partner_weight=0.25, noise_rate=0.1, p_persist=0.5,
    background_words=6, words_per_cluster=2, words_per_note=[3, 6],
    cluster_word_rate=1.0, partner_note_rate=0.2,
)
CLUSTER_MODEL = dict(
    task="diagnosis", code_dim=8, patient_dim=16, word_dim=8,
    patient_layer_dims=[16], code_layer_dims=[32, 32], gru_hidden=32,
    note_loss_weight=0.3, learning_rate=3e-3, batch_size=32,
)

# Keys:
#   corpus        GeneratorConfig fields; the seed comes from --seed
#   model         ModelConfig fields ({} is the default config)
#   split         train/valid/test patient counts
#   loops         for each timed loop, (fewest iterations, share of --seconds
#                 it runs for at least). Machine speed drifts over seconds, so
#                 every loop is given a window of seconds, not only a count.
#                 setup: repeated set-ups, setup_s is their median;
#                 train: training reps from one initial state;
#                 predict: `cgl predict` calls, at least 100 so that ten
#                 samples lie beyond p90; evaluate: `cgl evaluate` calls
#   train         "epochs": each rep runs experiment.train for that many epochs
#                 (validation every epoch, as fit does); "steps": each rep
#                 runs fit over that many 32-patient steps on the full graph
#   build_steps   serve workloads only: fit steps in the checkpoint build
WORKLOADS = {
    "train-small": dict(
        why="81-code acceptance corpus: per-op Python overhead of the per-patient "
            "loop dominates a training step",
        moves=["train_patients_per_s by the batched patient path (ROADMAP item 2)"],
        unchanged=["train_patients_per_s by the sparse graph side (item 3): the "
                   "graph forward is 1-2 ms of a ~60 ms step"],
        corpus=CLUSTER_CORPUS, model=CLUSTER_MODEL, split=[210, 30, 60],
        train=dict(epochs=1),
        loops=dict(setup=(15, 0.2), train=(5, 1.0), predict=(100, 0.5), evaluate=(10, 0.5)),
    ),
    "train-wide": dict(
        why="1,536 codes, default config: dense n x n ontology weights, P x n "
            "observation products and the 400 x 1,536 head; matmul backward dominates",
        moves=["train_patients_per_s and peak_rss_mb by the sparse graph side (item 3)",
               "train_patients_per_s by the batched head (item 2)"],
        unchanged=["per-op overhead is a small share of a step"],
        corpus=dict(roots=6, branching=4, levels=5, patients=1500), model={},
        split=[1050, 150, 300],
        train=dict(steps=2),
        loops=dict(setup=(7, 0.3), train=(3, 1.0), predict=(100, 0.0), evaluate=(3, 0.3)),
    ),
    "serve-5k": dict(
        why="5,000 codes: frozen-feature inference only; checkpoint load builds a "
            "training model on n x n placeholders",
        moves=["predict_ms_p50/p90 and evaluate_patients_per_s by the frozen "
               "scorer (item 4)", "setup_s and setup_peak_rss_mb by item 3"],
        unchanged=["the training layers sit idle in the timed phase"],
        corpus=dict(roots=8, branching=5, levels=5, patients=2000), model={},
        split=[1400, 200, 400],
        train=None, build_steps=1,
        loops=dict(setup=(3, 0.0), predict=(100, 1.0), evaluate=(3, 0.0)),
    ),
}

TINY_LOOPS = dict(setup=(2, 0.0), train=(2, 0.0), predict=(8, 0.0), evaluate=(2, 0.0))
TINY = {
    "train-small": dict(loops=TINY_LOOPS),
    "train-wide": dict(corpus=dict(roots=2, branching=3, levels=4, patients=200),
                       split=[140, 20, 40], loops=TINY_LOOPS),
    "serve-5k": dict(corpus=dict(roots=2, branching=4, levels=4, patients=200),
                     split=[140, 20, 40], loops=TINY_LOOPS),
}

def workload(name: str, tiny: bool = False) -> dict:
    spec = dict(WORKLOADS[name])
    if tiny:
        spec.update(TINY[name])
    spec["name"] = name
    return spec
