"""Acceptance gates, one test per criterion.

Heavy trainings (criteria 4 and 5) share one module-scoped matrix of runs:
five model variants on one planted-cluster corpus, repeated over three
seeds. Each test prints its own pass line with the measured values.
"""

import json
import math
import time

import numpy as np
import pytest

from cgl import autodiff as ad
from cgl import metrics
from cgl.cli import main
from cgl.data import GeneratorConfig, generate_synthetic, load_dataset
from cgl.experiment import TrainSettings, assemble, train
from cgl.model import (CollaborativeGraphModel, ModelConfig, compute_metrics,
                       default_note_loss_weight, predict_scores, rectified_penalty)
from cgl.graphs import build_ontology_adjacency
from cgl.ontology import load_ontology, ancestor_path
from cgl.text import fit_vocabulary, tfidf_beta

from oracles import lca_level
from problem_fixtures import build_problem
from test_metrics import (brute_auc, brute_onset_split, brute_recall_at_k,
                          brute_weighted_f1, random_instance)

SEEDS = (101, 202, 303)

CLUSTER_CORPUS = GeneratorConfig(
    levels=4, roots=3, branching=3, patients=300,
    visits=(2, 5), codes_per_visit=(2, 4),
    clusters=24, cluster_level=3,
    partner_weight=0.25, noise_rate=0.1, p_persist=0.5,
    background_words=6, words_per_cluster=2, words_per_note=(3, 6),
    cluster_word_rate=1.0, partner_note_rate=0.2,
)

VARIANTS = {
    "full": {},
    "zeroed_observation": {"use_observation_graph": False},
    "no_hierarchy": {"use_hierarchical_embedding": False},
    "no_notes": {"use_notes": False},
    "no_ontology_weights": {"use_ontology_weights": False},
}


def cluster_model_config(**overrides) -> ModelConfig:
    base = dict(task="diagnosis", code_dim=8, patient_dim=16, word_dim=8,
                patient_layer_dims=(16,), code_layer_dims=(32, 32),
                gru_hidden=32, note_loss_weight=default_note_loss_weight("diagnosis"),
                learning_rate=3e-3, epochs=40, batch_size=32)
    base.update(overrides)
    return ModelConfig(**base)


def train_cluster_variant(data_dir, seed, **config_overrides) -> dict:
    tree = load_ontology(data_dir / "ontology.tsv")
    dataset = load_dataset(data_dir / "dataset.jsonl")
    settings = TrainSettings(
        seed=seed, split_counts=(210, 30, 60), metric_ks=(10,),
        config=cluster_model_config(**config_overrides))
    problem = assemble(dataset, tree, settings)
    model, history = train(problem)
    scores = predict_scores(model, problem.examples["test"])
    out = compute_metrics(scores, problem.examples["test"], "diagnosis",
                          ks=(10,), include_onset=True)
    out["best_valid_r10"] = max(row["r10"] for row in history)
    _, out["train_ce"], out["train_penalty"] = model.training_loss(
        problem.examples["train"])
    return out


@pytest.fixture(scope="module")
def cluster_runs(tmp_path_factory):
    results: dict[int, dict[str, dict]] = {}
    for seed in SEEDS:
        data_dir = tmp_path_factory.mktemp(f"corpus_{seed}")
        generate_synthetic(CLUSTER_CORPUS, seed, data_dir)
        results[seed] = {
            name: train_cluster_variant(data_dir, seed, **overrides)
            for name, overrides in VARIANTS.items()
        }
    return results


def test_criterion_1_real_data_out_of_reach():
    # Published results require an access-restricted clinical corpus, so the
    # gates below substitute property-based checks on synthetic data; the
    # cluster-run tables printed by criteria 4 and 5 are the inspection
    # analogues of the reported comparisons.
    print("criterion 1: PASS (synthetic-substitute policy in force)")


def test_criterion_2_gradient_fidelity():
    started = time.monotonic()
    prob = build_problem(seed=1)  # 4 patients, 12 codes, 3 levels, 2 layers, h=8
    report = ad.check_gradients(prob.model.loss_program(prob.examples),
                                prob.model.params.arrays,
                                step=1e-6, sample=100, seed=3)
    elapsed = time.monotonic() - started
    assert set(report.arrays) == set(prob.model.params.arrays)
    assert report.max_rel_err < 1e-4, report.summary()
    assert elapsed < 60.0
    print(f"criterion 2: PASS (max rel err {report.max_rel_err:.2e} over "
          f"{len(report.arrays)} arrays, {elapsed:.1f}s)")


def test_criterion_3_overfit_capability(tmp_path):
    started = time.monotonic()
    corpus = GeneratorConfig(
        levels=2, roots=6, branching=5, patients=50,
        visits=(2, 4), codes_per_visit=(2, 4),
        clusters=6, cluster_level=1,
        partner_weight=0.2, noise_rate=0.1, p_persist=0.7,
        background_words=4, words_per_cluster=2, words_per_note=(1, 1),
        cluster_word_rate=1.0, partner_note_rate=0.0)
    generate_synthetic(corpus, 42, tmp_path)
    settings = TrainSettings(
        seed=7, split_counts=(50, 0, 0), metric_ks=(5,),
        config=cluster_model_config(code_dim=8, patient_dim=8, word_dim=8,
                                    epochs=300, batch_size=16))
    problem = assemble(load_dataset(tmp_path / "dataset.jsonl"),
                       load_ontology(tmp_path / "ontology.tsv"), settings)
    assert problem.tree.n_leaves == 30
    fresh = CollaborativeGraphModel(settings.config, problem.tree,
                                    problem.observation, problem.adjacency,
                                    vocab_size=len(problem.vocab),
                                    seed=problem.seeds.init)
    initial_loss, _, _ = fresh.training_loss(problem.examples["train"])
    model, _ = train(problem)
    final_loss, _, _ = model.training_loss(problem.examples["train"])
    scores = predict_scores(model, problem.examples["train"])
    r5 = compute_metrics(scores, problem.examples["train"], "diagnosis", (5,))["r5"]
    elapsed = time.monotonic() - started
    assert r5 >= 0.9, f"training R@5 {r5:.4f}"
    assert final_loss < 0.1 * initial_loss, (
        f"loss {final_loss:.4f} vs 0.1 x initial {initial_loss:.4f}")
    assert elapsed < 300.0
    print(f"criterion 3: PASS (R@5 {r5:.3f}, loss {initial_loss:.3f} -> "
          f"{final_loss:.3f}, {elapsed:.0f}s)")


def test_criterion_4_collaborative_signal(cluster_runs):
    margins = []
    for seed in SEEDS:
        full = cluster_runs[seed]["full"]["new_onset_r10"]
        zeroed = cluster_runs[seed]["zeroed_observation"]["new_onset_r10"]
        margins.append(full - zeroed)
        print(f"  seed {seed}: new-onset R@10 full {full:.4f} vs "
              f"zeroed observation graph {zeroed:.4f} (margin {full - zeroed:+.4f})")
    mean_margin = float(np.mean(margins))
    assert mean_margin >= 0.02, f"mean new-onset margin {mean_margin:+.4f}"
    print(f"criterion 4: PASS (mean new-onset R@10 margin {mean_margin:+.4f}, "
          f"std {float(np.std(margins)):.4f})")


def test_criterion_5_ablation_ordering(cluster_runs):
    # the final training cross-entropy and note penalty show how much of the
    # loss the penalty holds when the ordering fails
    print("  best valid R@10 (final train CE / unweighted note penalty) per seed:")
    for seed in SEEDS:
        row = {name: f"{run['best_valid_r10']:.4f} ({run['train_ce']:.4f} / "
                     f"{run['train_penalty']:.4f})"
               for name, run in cluster_runs[seed].items()}
        print("   ", seed, row)
    for ablation in ("no_hierarchy", "no_notes", "no_ontology_weights"):
        wins = sum(cluster_runs[seed]["full"]["best_valid_r10"]
                   >= cluster_runs[seed][ablation]["best_valid_r10"]
                   for seed in SEEDS)
        assert wins >= 2, f"full beat {ablation} on only {wins}/3 seeds"
        print(f"  full >= {ablation} on {wins}/3 seeds")
    print("criterion 5: PASS")


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        scores, labels = random_instance(rng)
        occurred = (rng.random(scores.shape) < 0.5).astype(int)
        k = int(rng.integers(1, scores.shape[1] + 1))
        assert abs(metrics.weighted_f1(scores, labels)
                   - brute_weighted_f1(scores, labels)) < 1e-12
        assert abs(metrics.recall_at_k(scores, labels, k)
                   - brute_recall_at_k(scores, labels, k)) < 1e-12
        got = metrics.onset_split_recall(scores, labels, occurred, k)
        want = brute_onset_split(scores, labels, occurred, k)
        for g, w in zip(got, want):
            assert (math.isnan(g) and math.isnan(w)) or abs(g - w) < 1e-12
        flat_scores = rng.random(25)
        flat_labels = (rng.random(25) < 0.5).astype(int)
        flat_labels[:2] = [0, 1]
        assert abs(metrics.auc(flat_scores, flat_labels)
                   - brute_auc(flat_scores, flat_labels)) < 1e-12
    print("criterion 6: PASS (w-F1, R@k, AUC, onset split vs brute force, "
          "50 instances each, 1e-12)")


def test_criterion_7_structure_oracles():
    # random tree with exactly 100 leaves; all-pairs LCA against
    # ancestor-set intersection
    rng = np.random.default_rng(77)
    edges = [("r0", None), ("r1", None)]
    frontier = ["r0", "r1"]
    for _ in range(3):
        nxt = []
        for parent in frontier:
            for i in range(int(rng.integers(1, 5))):
                child = f"{parent}.{i}"
                edges.append((child, parent))
                nxt.append(child)
        frontier = nxt
    for i, parent in enumerate(frontier):  # force the leaf level to 100 wide
        extra = 100 - (len(frontier) - 1) if i == 0 else 1
        for j in range(max(extra, 1)):
            edges.append((f"{parent}.x{j}", parent))
    tree = load_ontology(edges)
    assert tree.n_leaves >= 100
    keep = tree.leaf_ids[:100]
    pairs = 0
    for a in range(100):
        for b in range(a + 1, 100):
            i, j = tree.leaf_index[keep[a]], tree.leaf_index[keep[b]]
            ancestors_i = set(enumerate(ancestor_path(tree, i), start=1))
            ancestors_j = set(enumerate(ancestor_path(tree, j), start=1))
            want = max((lvl for lvl, _ in ancestors_i & ancestors_j), default=0)
            assert lca_level(tree, i, j) == want
            pairs += 1

    # 20-code co-occurrence and masked adjacency against pair enumeration
    edges20 = [("ra", None), ("rb", None)]
    for root in ("ra", "rb"):
        for m in range(2):
            mid = f"{root}.{m}"
            edges20.append((mid, root))
            for l in range(5):
                edges20.append((f"{mid}.{l}", mid))
    tree20 = load_ontology(edges20)
    assert tree20.n_leaves == 20
    cooc = np.zeros((20, 20))
    for _ in range(25):
        i, j = rng.choice(20, size=2, replace=False)
        cooc[i, j] = cooc[j, i] = 1.0
    adj = build_ontology_adjacency(tree20, cooc)
    brute = np.zeros((20, 20))
    for i in range(20):
        for j in range(20):
            if i != j and cooc[i, j]:
                brute[i, j] = lca_level(tree20, i, j)
    assert np.array_equal(adj.adjacency.toarray(), brute)

    # TF-IDF targets against hand computation on a three-document corpus
    docs = [["apple", "apple", "cat"], ["cat", "dog"], ["dog", "egg", "apple"]]
    vocab = fit_vocabulary(docs)
    beta = tfidf_beta(["apple", "apple", "cat"], vocab)
    assert abs(beta[0] - (1 - 1e-6)) < 1e-12
    assert abs(beta[2] - 0.5) < 1e-12  # (1/3 ln 1.5) / (2/3 ln 1.5)
    raw = np.array([math.log(3 / 1) / 3, math.log(3 / 2) / 3, math.log(3 / 2) / 3])
    expected = np.clip(raw / raw.max(), 1e-6, 1 - 1e-6)
    got = tfidf_beta(["egg", "apple", "dog"], vocab)
    assert np.max(np.abs(got - expected)) < 1e-12
    print(f"criterion 7: PASS (LCA on {pairs} pairs, 20-code adjacency, "
          "3-document TF-IDF)")


def test_criterion_8_analytic_spot_checks():
    # rectified penalty at uniform targets
    alpha = ad.constant(np.array([0.25, 0.5, 0.15, 0.1]))
    value = rectified_penalty(alpha, np.full(4, 0.5)).item()
    assert abs(value - 4 * math.log(2)) < 1e-12

    # neutral hierarchy-link weight
    prob = build_problem()
    phi = prob.model.ontology_weights(prob.model._constants()).values
    assert phi.shape == (prob.model.links.nnz,)  # one weight per link
    assert np.all(phi == 0.5)

    # softmax shift invariance
    rng = np.random.default_rng(8)
    x = rng.normal(scale=5.0, size=64)
    delta = ad.softmax(x).values - ad.softmax(x + 41.5).values
    assert np.max(np.abs(delta)) < 1e-12
    print("criterion 8: PASS (penalty at half targets, neutral link weight, "
          "softmax shift invariance)")


CLI_CONFIG = """
gen_levels = 4
gen_roots = 2
gen_branching = 3
gen_patients = 24
gen_visits = 2,4
gen_codes_per_visit = 2,4
gen_clusters = 4
gen_cluster_level = 3
gen_background_words = 6
gen_words_per_cluster = 2
gen_words_per_note = 2,4

split_counts = 16,4,4
epochs = 2
batch_size = 8
code_dim = 4
patient_dim = 4
word_dim = 4
patient_layer_dims = 8
code_layer_dims = 8,8
gru_hidden = 8
k = 3,5
"""


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_cli")
    cfg = root / "run.cfg"
    cfg.write_text(CLI_CONFIG, encoding="utf-8")
    data_dir = root / "data"
    assert main(["generate", "--config", str(cfg), "--seed", "5",
                 "--out", str(data_dir)]) == 0
    runs = []
    for name in ("run_a", "run_b"):
        out = root / name
        assert main(["train", "--config", str(cfg), "--seed", "9",
                     "--ontology", str(data_dir / "ontology.tsv"),
                     "--dataset", str(data_dir / "dataset.jsonl"),
                     "--out", str(out)]) == 0
        runs.append(out)
    return {"root": root, "cfg": cfg, "data": data_dir, "runs": runs}


def test_criterion_9_training_determinism(cli_run):
    run_a, run_b = cli_run["runs"]
    assert ((run_a / "history.csv").read_bytes()
            == (run_b / "history.csv").read_bytes())
    for name in ("manifest.json", "arrays.bin"):
        assert ((run_a / "checkpoint" / name).read_bytes()
                == (run_b / "checkpoint" / name).read_bytes())
    print("criterion 9: PASS (history and checkpoint byte-identical across reruns)")


def test_criterion_10_inference_path_equivalence(cli_run, tmp_path):
    from cgl.checkpoint import load_checkpoint
    from cgl.cli import _split_examples
    from cgl.data import split_dataset
    from cgl.experiment import derive_seeds

    run = cli_run["runs"][0]
    bundle = load_checkpoint(run / "checkpoint")
    dataset = load_dataset(cli_run["data"] / "dataset.jsonl")
    split_dataset(dataset, tuple(bundle.split["counts"]),
                  derive_seeds(bundle.split["seed"]).split)
    patient = dataset.split_patients("train")[0]

    history_file = tmp_path / "history.json"
    history_file.write_text(json.dumps(
        {"visits": [{"codes": v.codes, "note": v.note}
                    for v in patient.feature_visits]}), encoding="utf-8")
    out = tmp_path / "pred"
    n_codes = bundle.tree.n_leaves
    assert main(["predict", "--checkpoint", str(run / "checkpoint"),
                 "--history", str(history_file), "--top", str(n_codes),
                 "--out", str(out)]) == 0
    predicted = {}
    for line in (out / "predictions.csv").read_text(encoding="utf-8").splitlines()[1:]:
        code, score = line.split(",")
        predicted[code] = float(score)

    examples = _split_examples(bundle, str(cli_run["data"] / "dataset.jsonl"), "train")
    ex = next(e for e in examples if e.pid == patient.pid)
    reference = predict_scores(bundle.model, [ex])[0]
    worst = max(abs(predicted[code] - reference[i])
                for i, code in enumerate(bundle.tree.leaf_ids))
    assert worst < 1e-9
    print(f"criterion 10: PASS (max score gap {worst:.2e} across {n_codes} codes)")
