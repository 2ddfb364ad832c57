import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from cgl import checkpoint, model
from cgl.cli import main
from cgl.data import load_dataset, split_dataset
from cgl.experiment import derive_seeds
from problem_fixtures import build_problem

TINY_CONFIG = """
# generator
gen_levels = 4
gen_roots = 2
gen_branching = 3
gen_patients = 24
gen_visits = 2,4
gen_codes_per_visit = 2,4
gen_clusters = 4
gen_cluster_level = 3
gen_background_words = 10
gen_words_per_cluster = 5
gen_words_per_note = 4,8

# training
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
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(TINY_CONFIG, encoding="utf-8")
    gen_dir = root / "data"
    rc = main(["generate", "--config", str(cfg), "--seed", "11", "--out", str(gen_dir)])
    assert rc == 0
    run_dir = root / "run"
    rc = main(["train", "--config", str(cfg), "--seed", "3",
               "--ontology", str(gen_dir / "ontology.tsv"),
               "--dataset", str(gen_dir / "dataset.jsonl"),
               "--out", str(run_dir)])
    assert rc == 0
    return {"root": root, "cfg": cfg, "gen": gen_dir, "run": run_dir}


def read_history(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_generate_outputs_load(workspace):
    gen = workspace["gen"]
    assert (gen / "ontology.tsv").exists()
    assert (gen / "dataset.jsonl").exists()
    manifest = json.loads((gen / "dataset.manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 11
    ds = load_dataset(gen / "dataset.jsonl")
    assert len(ds.patients) == 24


def test_generate_deterministic(workspace, tmp_path):
    out2 = tmp_path / "again"
    rc = main(["generate", "--config", str(workspace["cfg"]), "--seed", "11",
               "--out", str(out2)])
    assert rc == 0
    for name in ("ontology.tsv", "dataset.jsonl", "dataset.manifest.json"):
        assert (out2 / name).read_bytes() == (workspace["gen"] / name).read_bytes()


def test_generate_infeasible_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gen_codes_per_visit = 2,10000\n", encoding="utf-8")
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2


def test_train_history_rows_and_outputs(workspace):
    run = workspace["run"]
    history = read_history(run / "history.csv")
    assert len(history) == 2  # one row per epoch
    assert {"epoch", "train_loss", "wf1", "r3", "r5"} <= set(history[0])
    assert (run / "checkpoint" / "manifest.json").exists()
    assert (run / "checkpoint" / "arrays.bin").exists()
    assert (run / "vocabulary.tsv").exists()


def test_train_rerun_is_byte_identical(workspace, tmp_path):
    out2 = tmp_path / "rerun"
    rc = main(["train", "--config", str(workspace["cfg"]), "--seed", "3",
               "--ontology", str(workspace["gen"] / "ontology.tsv"),
               "--dataset", str(workspace["gen"] / "dataset.jsonl"),
               "--out", str(out2)])
    assert rc == 0
    run = workspace["run"]
    assert (out2 / "history.csv").read_bytes() == (run / "history.csv").read_bytes()
    for name in ("manifest.json", "arrays.bin"):
        assert ((out2 / "checkpoint" / name).read_bytes()
                == (run / "checkpoint" / name).read_bytes())


def test_ablation_recorded_in_checkpoint(workspace, tmp_path):
    out2 = tmp_path / "nonotes"
    rc = main(["train", "--config", str(workspace["cfg"]), "--seed", "3",
               "--ablation", "no-notes",
               "--ontology", str(workspace["gen"] / "ontology.tsv"),
               "--dataset", str(workspace["gen"] / "dataset.jsonl"),
               "--out", str(out2)])
    assert rc == 0
    manifest = json.loads(
        (out2 / "checkpoint" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"]["use_notes"] is False


def test_evaluate_matches_last_history_row(workspace, tmp_path):
    run = workspace["run"]
    out = tmp_path / "eval_valid"
    rc = main(["evaluate", "--checkpoint", str(run / "checkpoint"),
               "--dataset", str(workspace["gen"] / "dataset.jsonl"),
               "--split", "valid", "--k", "3,5", "--out", str(out)])
    assert rc == 0
    report = {}
    for line in (out / "report.txt").read_text(encoding="utf-8").splitlines():
        name, value = line.split("\t")
        report[name] = float(value)
    last = read_history(run / "history.csv")[-1]
    for key in ("wf1", "r3", "r5"):
        assert abs(report[key] - float(last[key])) < 1e-9


def test_evaluate_full_coverage_recall(workspace, tmp_path):
    manifest = json.loads((workspace["run"] / "checkpoint" / "manifest.json")
                          .read_text(encoding="utf-8"))
    n_codes = len(manifest["code_map"])
    out = tmp_path / "eval_full"
    rc = main(["evaluate", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--dataset", str(workspace["gen"] / "dataset.jsonl"),
               "--k", str(n_codes), "--out", str(out)])
    assert rc == 0
    report = dict(line.split("\t") for line in
                  (out / "report.txt").read_text(encoding="utf-8").splitlines())
    assert float(report[f"r{n_codes}"]) == 1.0
    assert set(report) == {f"r{n_codes}", "wf1",
                           f"occurred_r{n_codes}", f"new_onset_r{n_codes}"}
    assert (out / "per_patient.csv").exists()


def test_evaluate_task_mismatch_exits_2(workspace, tmp_path):
    rc = main(["evaluate", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--dataset", str(workspace["gen"] / "dataset.jsonl"),
               "--task", "hf", "--out", str(tmp_path / "x")])
    assert rc == 2


def first_split_patient(workspace, tag):
    ds = load_dataset(workspace["gen"] / "dataset.jsonl")
    bundle = checkpoint.load_checkpoint(workspace["run"] / "checkpoint")
    split_dataset(ds, tuple(bundle.split["counts"]),
                  derive_seeds(bundle.split["seed"]).split)
    return bundle, ds.split_patients(tag)[0]


def test_predict_matches_evaluation_path(workspace, tmp_path):
    bundle, patient = first_split_patient(workspace, "test")
    history = {"visits": [{"codes": v.codes, "note": v.note}
                          for v in patient.feature_visits]}
    hist_path = tmp_path / "history.json"
    hist_path.write_text(json.dumps(history), encoding="utf-8")
    n_codes = bundle.tree.n_leaves
    out = tmp_path / "pred"
    rc = main(["predict", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--history", str(hist_path), "--top", str(n_codes), "--out", str(out)])
    assert rc == 0
    got = {}
    lines = (out / "predictions.csv").read_text(encoding="utf-8").splitlines()[1:]
    for line in lines:
        code, score = line.split(",")
        got[code] = float(score)
    assert len(got) == n_codes
    assert all(0.0 < s < 1.0 for s in got.values())

    # evaluation path: same patient scored through the split machinery
    from cgl.cli import _split_examples
    examples = _split_examples(bundle, str(workspace["gen"] / "dataset.jsonl"), "test")
    ex = next(e for e in examples if e.pid == patient.pid)
    want = model.predict_scores(bundle.model, [ex])[0]
    for i, code in enumerate(bundle.tree.leaf_ids):
        assert abs(got[code] - want[i]) < 1e-9


def test_predict_empty_history_exits_2(workspace, tmp_path):
    hist_path = tmp_path / "empty.json"
    hist_path.write_text('{"visits": []}', encoding="utf-8")
    rc = main(["predict", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--history", str(hist_path)])
    assert rc == 2


def test_predict_unknown_code_exits_2(workspace, tmp_path):
    hist_path = tmp_path / "unknown.json"
    hist_path.write_text('{"visits": [{"codes": ["who-is-this"]}]}', encoding="utf-8")
    rc = main(["predict", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--history", str(hist_path)])
    assert rc == 2


def test_export_code_embeddings(workspace, tmp_path):
    out = tmp_path / "emb"
    rc = main(["export", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--what", "code-embeddings", "--out", str(out)])
    assert rc == 0
    lines = (out / "code_embeddings.csv").read_text(encoding="utf-8").splitlines()
    manifest = json.loads((workspace["run"] / "checkpoint" / "manifest.json")
                          .read_text(encoding="utf-8"))
    n_codes = len(manifest["code_map"])
    dim = manifest["config"]["code_layer_dims"][-1]
    assert len(lines) == n_codes + 1
    assert lines[0].split(",")[:4] == ["code", "level1", "level2", "level3"]
    assert len(lines[1].split(",")) == 1 + 3 + dim


def test_export_attention(workspace, tmp_path):
    bundle, patient = first_split_patient(workspace, "test")
    hist_path = tmp_path / "history.json"
    hist_path.write_text(json.dumps(
        {"visits": [{"codes": v.codes, "note": v.note} for v in patient.feature_visits]}),
        encoding="utf-8")
    out = tmp_path / "att"
    rc = main(["export", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--what", "attention", "--history", str(hist_path), "--out", str(out)])
    assert rc == 0
    lines = (out / "attention.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "token,attention,tfidf_target"
    rows = [line.split(",") for line in lines[1:]]
    attn = np.array([float(r[1]) for r in rows])
    beta = np.array([float(r[2]) for r in rows])
    assert abs(attn.sum() - 1.0) < 1e-9
    assert np.all((beta >= 1e-6) & (beta <= 1 - 1e-6))


def test_export_unknown_kind_exits_2(workspace, tmp_path):
    cfg = tmp_path / "what.cfg"
    cfg.write_text("what = everything\n", encoding="utf-8")
    rc = main(["export", "--config", str(cfg),
               "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_checkpoint_roundtrip_preserves_predictions(tmp_path):
    prob = build_problem()
    model.fit(prob.model, prob.examples, seed=0, epochs=2)
    before = model.predict_scores(prob.model, prob.examples)
    checkpoint.save_checkpoint(tmp_path / "ck", prob.model, prob.vocab,
                               hf_prefix="d0.a", metric_ks=(3,),
                               split={"counts": [4, 0, 0], "seed": 0})
    bundle = checkpoint.load_checkpoint(tmp_path / "ck")
    after = model.predict_scores(bundle.model, prob.examples)
    assert np.array_equal(before, after)
    assert bundle.task == "diagnosis"
    assert bundle.tree.leaf_ids == prob.tree.leaf_ids
    assert bundle.vocab == prob.vocab


@pytest.mark.parametrize("task", ["diagnosis", "heart_failure"])
def test_checkpoint_loads_as_frozen_scorer(tmp_path, monkeypatch, task):
    prob = build_problem(task=task)
    model.fit(prob.model, prob.examples, seed=0, epochs=2)
    before = model.predict_scores(prob.model, prob.examples)
    checkpoint.save_checkpoint(tmp_path / "ck", prob.model, prob.vocab,
                               split={"counts": [4, 0, 0], "seed": 0})

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint built a training model")

    monkeypatch.setattr(model.CollaborativeGraphModel, "__init__", refuse)
    bundle = checkpoint.load_checkpoint(tmp_path / "ck")
    assert type(bundle.model) is model.FrozenScorer
    shapes = model.FrozenScorer.array_shapes(prob.config, prob.tree.n_leaves, len(prob.vocab))
    assert set(bundle.model.params.arrays) == set(shapes) - {"frozen_code_repr"}
    assert np.array_equal(model.predict_scores(bundle.model, prob.examples), before)


def broken_checkpoint(workspace, tmp_path, edit):
    """A copy of the workspace checkpoint whose manifest ``edit`` changes."""
    ck = tmp_path / "broken"
    shutil.copytree(workspace["run"] / "checkpoint", ck)
    manifest = json.loads((ck / "manifest.json").read_text(encoding="utf-8"))
    edit(manifest)
    (ck / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return ck


def drop_array(name):
    def edit(manifest):
        manifest["arrays"] = [e for e in manifest["arrays"] if e["name"] != name]
    return edit


def reshape_array(name):
    def edit(manifest):
        entry = next(e for e in manifest["arrays"] if e["name"] == name)
        entry["shape"] = [entry["shape"][0] + 1] + entry["shape"][1:]
    return edit


def move_past_end(name):
    def edit(manifest):
        entry = next(e for e in manifest["arrays"] if e["name"] == name)
        entry["offset"] = sum(8 * int(np.prod(e["shape"])) for e in manifest["arrays"]) - 8
    return edit


@pytest.mark.parametrize("edit,name", [
    (drop_array("head_bias"), "head_bias"),
    (drop_array("frozen_code_repr"), "frozen_code_repr"),
    (reshape_array("gru_state_cand"), "gru_state_cand"),
    (reshape_array("word_embed"), "word_embed"),
    (move_past_end("head_weight"), "head_weight"),
])
def test_predict_bad_checkpoint_array_exits_2(workspace, tmp_path, capsys, edit, name):
    _, patient = first_split_patient(workspace, "test")
    hist_path = tmp_path / "history.json"
    hist_path.write_text(json.dumps(
        {"visits": [{"codes": v.codes, "note": v.note} for v in patient.feature_visits]}),
        encoding="utf-8")
    ck = broken_checkpoint(workspace, tmp_path, edit)
    capsys.readouterr()
    rc = main(["predict", "--checkpoint", str(ck), "--history", str(hist_path)])
    assert rc == 2
    assert repr(name) in capsys.readouterr().err
