import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cgl import checkpoint, cli, model, ontology
from cgl.cli import _split_examples, main
from cgl.data import GeneratorConfig, load_dataset, split_dataset
from cgl.experiment import TrainSettings, derive_seeds, history_to_example
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


# sha256 of the workspace corpus (TINY_CONFIG, seed 11), pinned when the
# generator's cluster leaves were still found by a walk over a children map
GENERATED_SHA256 = {
    "ontology.tsv": "862fb863f33590080719ff1fcdc4720a908e888875d922a55d7b2555f0aac45c",
    "dataset.jsonl": "2ede2228c1df4ff2feed20f00cf3ac28d633c575224fc7f6641b638e43bfd17f",
    "dataset.manifest.json": "4841bfa7151644ad855f9fd238991ebf97f63ebdd58400a9e09bfc7233f1f19f",
}


def test_generate_output_is_pinned(workspace):
    for name, digest in GENERATED_SHA256.items():
        assert hashlib.sha256((workspace["gen"] / name).read_bytes()).hexdigest() == digest, name


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


def test_predict_unknown_code_exits_2(workspace, tmp_path, capsys):
    hist_path = tmp_path / "unknown.json"
    hist_path.write_text('{"visits": [{"codes": ["who-is-this"]}]}', encoding="utf-8")
    rc = main(["predict", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--history", str(hist_path)])
    assert rc == 2
    assert "unknown code 'who-is-this' (patient history)" in capsys.readouterr().err


@pytest.mark.parametrize("record,field", [
    ('{"visits": 5}', "visits"),
    ('{"visits": [1]}', "visits"),
    ('{"visits": [{"note": ["w"]}]}', "codes"),
    ('{"visits": [{"codes": "c00.0.0.0"}]}', "codes"),
    ('{"visits": [{"codes": ["c00.0.0.0"], "note": 5}]}', "note"),
    ('[{"codes": ["c00.0.0.0"], "note": null}]', "note"),
    ('{"visit": [{"codes": ["c00.0.0.0"]}]}', "visits"),
], ids=["visits-number", "visit-number", "no-codes", "codes-string", "note-number",
        "note-null", "no-visits"])
def test_predict_malformed_history_exits_2(workspace, tmp_path, capsys, record, field):
    hist_path = tmp_path / "bad.json"
    hist_path.write_text(record, encoding="utf-8")
    capsys.readouterr()
    rc = main(["predict", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--history", str(hist_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err and "patient history" in err and "Traceback" not in err


def test_predict_pretty_printed_history_matches_one_line(workspace, tmp_path, capsys):
    _, patient = first_split_patient(workspace, "test")
    record = {"visits": [{"codes": v.codes, "note": v.note} for v in patient.feature_visits]}
    outputs = []
    for indent in (None, 2):
        hist_path = tmp_path / f"history-{indent}.json"
        hist_path.write_text(json.dumps(record, indent=indent), encoding="utf-8")
        capsys.readouterr()
        rc = main(["predict", "--checkpoint", str(workspace["run"] / "checkpoint"),
                   "--history", str(hist_path), "--top", "10"])
        assert rc == 0
        outputs.append(capsys.readouterr().out)
    assert len(hist_path.read_text(encoding="utf-8").splitlines()) > 1
    assert outputs[1] == outputs[0] and outputs[0].startswith("code,score\n")


def test_predict_truncated_history_exits_2(workspace, tmp_path, capsys):
    _, patient = first_split_patient(workspace, "test")
    record = {"visits": [{"codes": v.codes, "note": v.note} for v in patient.feature_visits]}
    hist_path = tmp_path / "truncated.json"
    hist_path.write_text(json.dumps(record, indent=2)[:-4], encoding="utf-8")
    capsys.readouterr()
    rc = main(["predict", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--history", str(hist_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(hist_path) in err and "not valid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("args,config", [
    (["--top", "-3"], None), (["--top", "0"], None), ([], "top = 0"),
], ids=["flag-negative", "flag-zero", "config-zero"])
def test_predict_top_below_one_exits_2(workspace, tmp_path, capsys, args, config):
    _, patient = first_split_patient(workspace, "test")
    hist_path = tmp_path / "history.json"
    hist_path.write_text(json.dumps({"visits": [{"codes": v.codes, "note": v.note}
                                                for v in patient.feature_visits]}),
                         encoding="utf-8")
    if config is not None:
        (tmp_path / "top.cfg").write_text(config + "\n", encoding="utf-8")
        args = ["--config", str(tmp_path / "top.cfg")]
    capsys.readouterr()
    rc = main(["predict", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--history", str(hist_path), *args])
    assert rc == 2
    out, err = capsys.readouterr()
    assert "'top'" in err and "at least 1" in err
    assert out == ""


def test_history_to_example_matches_prepare_examples(workspace):
    bundle, _ = first_split_patient(workspace, "test")
    dataset_path = workspace["gen"] / "dataset.jsonl"
    examples = _split_examples(bundle, str(dataset_path), "test")
    ds = load_dataset(dataset_path)
    split_dataset(ds, tuple(bundle.split["counts"]), derive_seeds(bundle.split["seed"]).split)
    patients = {p.pid: p for p in ds.split_patients("test")}
    inputs = [f.name for f in fields(model.PatientExample)
              if f.name not in ("pid", "positives")]
    for want in examples:
        visits = [{"codes": v.codes, "note": v.note} for v in patients[want.pid].feature_visits]
        got = history_to_example(visits, bundle.tree, bundle.vocab)
        assert got.positives.dtype == np.intp and got.positives.size == 0
        for name in inputs:
            a, b = getattr(got, name), getattr(want, name)
            pairs = zip(a, b) if isinstance(a, list) else [(a, b)]
            assert len(a) == len(b), name
            for x, y in pairs:
                assert x.dtype == y.dtype and np.array_equal(x, y), name


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
    assert bundle.tree.code_leaf == prob.tree.code_leaf
    assert bundle.vocab == prob.vocab


@pytest.mark.parametrize("split", [None, {"counts": [4, 0], "seed": 0},
                                   {"counts": [4, 0, 0], "seed": -1}])
def test_save_checkpoint_refuses_a_split_that_would_not_load(tmp_path, split):
    prob = build_problem()
    model.fit(prob.model, prob.examples, seed=0, epochs=1)
    with pytest.raises(ValueError, match="'split'"):
        checkpoint.save_checkpoint(tmp_path / "ck", prob.model, prob.vocab, split=split,
                                   metric_ks=(3,))
    assert not (tmp_path / "ck").exists()


@pytest.mark.parametrize("task", ["diagnosis", "heart_failure"])
def test_checkpoint_loads_as_frozen_scorer(tmp_path, monkeypatch, task):
    prob = build_problem(task=task)
    model.fit(prob.model, prob.examples, seed=0, epochs=2)
    before = model.predict_scores(prob.model, prob.examples)
    checkpoint.save_checkpoint(tmp_path / "ck", prob.model, prob.vocab, metric_ks=(3,),
                               split={"counts": [4, 0, 0], "seed": 0})

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint built a training model")

    monkeypatch.setattr(model.CollaborativeGraphModel, "__init__", refuse)
    bundle = checkpoint.load_checkpoint(tmp_path / "ck")
    assert type(bundle.model) is model.FrozenScorer
    shapes = model.FrozenScorer.array_shapes(prob.config, prob.tree.n_leaves, len(prob.vocab))
    assert set(bundle.model.params.arrays) == set(shapes) - {"frozen_code_repr"}
    assert np.array_equal(model.predict_scores(bundle.model, prob.examples), before)


def test_predict_heart_failure_prints_a_plain_number(tmp_path, capsys):
    prob = build_problem(task="heart_failure")
    model.fit(prob.model, prob.examples, seed=0, epochs=2)
    checkpoint.save_checkpoint(tmp_path / "ck", prob.model, prob.vocab, metric_ks=(3,),
                               split={"counts": [4, 0, 0], "seed": 0})
    patient = prob.dataset.patients[0]
    hist_path = tmp_path / "history.json"
    hist_path.write_text(json.dumps(
        {"visits": [{"codes": v.codes, "note": v.note} for v in patient.feature_visits]}),
        encoding="utf-8")
    capsys.readouterr()
    assert main(["predict", "--checkpoint", str(tmp_path / "ck"),
                 "--history", str(hist_path)]) == 0
    label, value = capsys.readouterr().out.strip().split("\t")
    assert label == "probability"
    assert float(value) == model.predict_scores(prob.model, prob.examples[:1])[0, 0]


def broken_checkpoint(workspace, tmp_path, edit):
    """A copy of the workspace checkpoint whose manifest ``edit`` changes, or
    replaces with what it returns."""
    ck = tmp_path / "broken"
    shutil.copytree(workspace["run"] / "checkpoint", ck)
    manifest = json.loads((ck / "manifest.json").read_text(encoding="utf-8"))
    replaced = edit(manifest)
    (ck / "manifest.json").write_text(json.dumps(manifest if replaced is None else replaced),
                                      encoding="utf-8")
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


def add_config_key(name, value):
    def edit(manifest):
        manifest["config"][name] = value
    return edit


def drop_config_key(name):
    def edit(manifest):
        del manifest["config"][name]
    return edit


def set_manifest_key(name, value):
    def edit(manifest):
        manifest[name] = value
    return edit


def set_vocab_key(name, value):
    def edit(manifest):
        manifest["vocab"][name] = value
    return edit


def set_first_vocab_entry(entry):
    def edit(manifest):
        manifest["vocab"]["entries"][0] = entry
    return edit


def set_code_map_value(value):
    def edit(manifest):
        code = sorted(manifest["code_map"])[0]
        manifest["code_map"][code] = value
    return edit


def leaves_of(manifest):
    """The checkpoint's leaf ids: its mapped codes that are no edge's parent."""
    parents = {parent for _, parent in manifest["ontology_edges"]}
    return sorted(code for code in manifest["code_map"] if code not in parents)


def map_leaf_to_next_rank(manifest):
    first, second = leaves_of(manifest)[:2]
    manifest["code_map"][first] = manifest["code_map"][second]


def map_a_stranger(manifest):
    manifest["code_map"]["not-in-the-hierarchy"] = 0


def drop_first_leaf(manifest):
    del manifest["code_map"][leaves_of(manifest)[0]]


def add_unmapped_leaf(manifest):
    parent = dict(manifest["ontology_edges"])[leaves_of(manifest)[0]]
    manifest["ontology_edges"].append(["zz-unmapped-leaf", parent])


def set_first_edge(edge):
    def edit(manifest):
        manifest["ontology_edges"][0] = edge
    return edit


@pytest.mark.parametrize("edit,name", [
    (drop_array("head_bias"), "head_bias"),
    (drop_array("frozen_code_repr"), "frozen_code_repr"),
    (reshape_array("gru_state_cand"), "gru_state_cand"),
    (reshape_array("word_embed"), "word_embed"),
    (move_past_end("head_weight"), "head_weight"),
    (add_config_key("gru_hiden", 8), "gru_hiden"),
    (drop_config_key("use_notes"), "use_notes"),
] + [pytest.param(add_config_key(key, value), key, id=f"type-{key}") for key, value in [
    ("gru_hidden", "16"), ("use_notes", "yes"), ("epochs", 2.5), ("batch_size", True),
    ("learning_rate", "0.1"), ("code_layer_dims", [8, 8.0]),
]] + [pytest.param(edit, name, id=ident) for edit, name, ident in [
    (set_code_map_value(99999), "code_map", "code_map-past-end"),
    (set_code_map_value(-1), "code_map", "code_map-negative"),
    (set_code_map_value(1.0), "code_map", "code_map-float"),
    (map_leaf_to_next_rank, "code_map", "code_map-leaf-to-other-rank"),
    (map_a_stranger, "code_map", "code_map-key-not-in-edges"),
    (drop_first_leaf, "code_map", "code_map-missing-leaf"),
    (set_first_edge(["a", "b", "c"]), "ontology_edges", "edge-triple"),
    (set_first_edge("a"), "ontology_edges", "edge-string"),
]] + [pytest.param(set_manifest_key(key, value), key, id=f"manifest-{key}")
      for key, value in [("config", 5), ("vocab", []), ("metric_ks", 3), ("code_map", []),
                         ("ontology_edges", {}), ("arrays", 5)]]
  + [pytest.param(edit, name, id=ident) for edit, name, ident in [
    (lambda manifest: [manifest], "manifest.json", "manifest-is-an-array"),
    (set_manifest_key("task", 7), "task", "task-not-a-task"),
    (set_manifest_key("task", "heart_failure"), "task", "task-not-the-config-task"),
    (set_vocab_key("entries", 5), "vocab.entries", "vocab-entries-int"),
    (set_first_vocab_entry(["w", 0]), "vocab.entries", "vocab-entry-pair"),
    (set_first_vocab_entry(["w", 10**6, 1]), "vocab.entries", "vocab-index-past-end"),
    (set_vocab_key("doc_count", [1]), "vocab.doc_count", "vocab-doc_count-list"),
    (set_vocab_key("doc_count", 0), "vocab.doc_count", "vocab-doc_count-zero"),
    (set_manifest_key("arrays", [5]), "arrays", "arrays-item-int"),
    (set_manifest_key("metric_ks", ["a"]), "metric_ks", "metric_ks-item-string"),
]])
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


@pytest.mark.parametrize("use_notes,note,cause", [
    (False, None, "trained without the note path"),
    (True, ["zz-not-a-word"], "note has no word of the checkpoint's vocabulary"),
], ids=["no-note-path", "no-word-in-vocabulary"])
def test_export_attention_without_a_note_names_the_cause(workspace, tmp_path, capsys,
                                                          use_notes, note, cause):
    """No note attention to export: either the checkpoint has no note path or
    the history's last note has no word of the vocabulary."""
    _, patient = first_split_patient(workspace, "test")
    visits = [{"codes": v.codes, "note": v.note} for v in patient.feature_visits]
    if note is not None:
        visits[-1]["note"] = note
    hist_path = tmp_path / "history.json"
    hist_path.write_text(json.dumps({"visits": visits}), encoding="utf-8")
    ck = broken_checkpoint(workspace, tmp_path, add_config_key("use_notes", use_notes))
    capsys.readouterr()
    rc = main(["export", "--checkpoint", str(ck), "--what", "attention",
               "--history", str(hist_path), "--out", str(tmp_path / "att")])
    assert rc == 2
    assert cause in capsys.readouterr().err


def test_serving_never_builds_the_hierarchy(workspace, tmp_path, monkeypatch):
    _, patient = first_split_patient(workspace, "test")
    hist_path = tmp_path / "history.json"
    hist_path.write_text(json.dumps(
        {"visits": [{"codes": v.codes, "note": v.note} for v in patient.feature_visits]}),
        encoding="utf-8")
    ck = str(workspace["run"] / "checkpoint")

    def refuse(*args, **kwargs):
        raise AssertionError("the hierarchy was built")

    for module in (ontology, cli):
        monkeypatch.setattr(module, "load_ontology", refuse)
    monkeypatch.setattr(ontology.OntologyTree, "__init__", refuse)
    assert main(["predict", "--checkpoint", ck, "--history", str(hist_path)]) == 0
    assert main(["evaluate", "--checkpoint", ck, "--out", str(tmp_path / "eval"),
                 "--dataset", str(workspace["gen"] / "dataset.jsonl")]) == 0
    assert main(["export", "--checkpoint", ck, "--what", "attention",
                 "--history", str(hist_path), "--out", str(tmp_path / "att")]) == 0
    with pytest.raises(AssertionError, match="hierarchy was built"):
        main(["export", "--checkpoint", ck, "--what", "code-embeddings",
              "--out", str(tmp_path / "emb")])


def test_export_code_embeddings_leaves_differ_exits_2(workspace, tmp_path, capsys):
    ck = broken_checkpoint(workspace, tmp_path, add_unmapped_leaf)
    capsys.readouterr()
    rc = main(["export", "--checkpoint", str(ck), "--what", "code-embeddings",
               "--out", str(tmp_path / "emb")])
    assert rc == 2
    assert "'ontology_edges'" in capsys.readouterr().err
    assert not (tmp_path / "emb" / "code_embeddings.csv").exists()


# ---------------------------------------------------------------------------
# config schema


# The run keys of `cgl train` and the TrainSettings field each one sets.
RUN_FIELDS = {"seed": "seed", "split_counts": "split_counts", "k": "metric_ks",
              "cooccurrence_scope": "cooccurrence_scope", "hf_prefix": "hf_prefix",
              "export_graphs": "export_graphs"}
# Values for the keys whose default's type does not give one that validates.
OTHER_VALUES = {"task": "heart_failure", "cooccurrence_scope": "patient", "hf_prefix": "c00"}


def other_value(default):
    """A valid value of the default's type that differs from it."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, tuple):
        return tuple(v + 1 for v in default)
    if isinstance(default, float):
        return default / 2
    return default + 1


def config_text(value):
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


class Captured(Exception):
    """Raised in place of the call a command makes with its parsed settings."""


def capture(*args):
    raise Captured(*args)


@pytest.mark.parametrize("key", [f.name for f in fields(model.ModelConfig)]
                         + ["gen_" + f.name for f in fields(GeneratorConfig)] + list(RUN_FIELDS))
def test_every_config_field_is_settable(workspace, tmp_path, monkeypatch, key):
    """Each key set in a config file reaches the settings the command passes
    on: `cgl generate` to the generator, `cgl train` to `assemble`."""
    if key.startswith("gen_"):
        cls, name, command = GeneratorConfig, key.removeprefix("gen_"), "generate"
        monkeypatch.setattr(cli, "generate_synthetic", capture)
        args = []
    else:
        cls = TrainSettings if key in RUN_FIELDS else model.ModelConfig
        name, command = RUN_FIELDS.get(key, key), "train"
        monkeypatch.setattr(cli, "assemble", capture)
        args = ["--ontology", str(workspace["gen"] / "ontology.tsv"),
                "--dataset", str(workspace["gen"] / "dataset.jsonl")]
    want = OTHER_VALUES.get(key) or other_value(
        next(f.default for f in fields(cls) if f.name == name))
    cfg = tmp_path / "one.cfg"
    cfg.write_text(f"{key} = {config_text(want)}\n", encoding="utf-8")
    with pytest.raises(Captured) as called:
        main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *args])
    settings = called.value.args[0 if command == "generate" else 2]
    config = settings if cls is not model.ModelConfig else settings.config
    assert getattr(config, name) == want


@pytest.mark.parametrize("line,name", [
    ("gru_hiden = 8", "gru_hiden"),
    ("epochs = many", "epochs"),
    ("use_notes = maybe", "use_notes"),
    ("code_layer_dims = 8,x", "code_layer_dims"),
])
def test_bad_config_key_or_value_exits_2(workspace, tmp_path, capsys, line, name):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg),
               "--ontology", str(workspace["gen"] / "ontology.tsv"),
               "--dataset", str(workspace["gen"] / "dataset.jsonl"),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert repr(name) in capsys.readouterr().err


def test_evaluate_negative_code_map_value_exits_2(workspace, tmp_path, capsys):
    ck = broken_checkpoint(workspace, tmp_path, set_code_map_value(-1))
    capsys.readouterr()
    rc = main(["evaluate", "--checkpoint", str(ck),
               "--dataset", str(workspace["gen"] / "dataset.jsonl"),
               "--out", str(tmp_path / "eval")])
    assert rc == 2
    assert "'code_map'" in capsys.readouterr().err


def set_split(**changes):
    def edit(manifest):
        manifest["split"].update(changes)
    return edit


def drop_split_key(name):
    def edit(manifest):
        del manifest["split"][name]
    return edit


@pytest.mark.parametrize("edit,name", [pytest.param(edit, name, id=ident)
                                       for edit, name, ident in [
    (set_manifest_key("split", None), "split", "split-null"),
    (set_manifest_key("split", "16,4,4"), "split", "split-string"),
    (set_split(seed="3"), "split", "seed-string"),
    (set_split(seed=True), "split", "seed-bool"),
    (set_split(seed=-1), "split", "seed-negative"),
    (drop_split_key("seed"), "split", "seed-missing"),
    (drop_split_key("counts"), "split", "counts-missing"),
    (set_split(counts=[16, 4]), "split", "counts-two"),
    (set_split(counts=[16, -4, 4]), "split", "counts-negative"),
    (set_split(counts=[16.0, 4, 4]), "split", "counts-float"),
    (set_split(counts="16,4,4"), "split", "counts-string"),
    (set_manifest_key("hf_prefix", 5), "hf_prefix", "hf_prefix-int"),
    (set_manifest_key("hf_prefix", ["d0"]), "hf_prefix", "hf_prefix-list"),
]])
def test_evaluate_bad_checkpoint_split_exits_2(workspace, tmp_path, capsys, edit, name):
    """``cgl evaluate`` re-splits the dataset by the manifest's ``split``; a
    malformed one, or a malformed ``hf_prefix``, exits 2 and names the key."""
    ck = broken_checkpoint(workspace, tmp_path, edit)
    capsys.readouterr()
    rc = main(["evaluate", "--checkpoint", str(ck),
               "--dataset", str(workspace["gen"] / "dataset.jsonl"),
               "--out", str(tmp_path / "eval")])
    assert rc == 2
    assert repr(name) in capsys.readouterr().err
    assert not (tmp_path / "eval" / "report.txt").exists()


def train_refused(workspace, tmp_path, capsys, line: str, *args) -> str:
    """Run `cgl train` on the workspace's run, which trains, with ``line``
    added to its config and ``args`` to the flags; assert that it exits 2
    before training, and return what it printed to stderr."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(workspace["cfg"].read_text(encoding="utf-8") + line + "\n",
                   encoding="utf-8")
    capsys.readouterr()
    rc = main(["train", "--config", str(cfg), *args,
               "--ontology", str(workspace["gen"] / "ontology.tsv"),
               "--dataset", str(workspace["gen"] / "dataset.jsonl"),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert "train/valid/test:" not in out
    assert not (tmp_path / "run" / "history.csv").exists()
    return err


@pytest.mark.parametrize("counts", ["200,50", "16,4,4,4", "16,-4,4", "-5,4,4"])
def test_split_counts_needs_three_values(workspace, tmp_path, capsys, counts):
    assert "split_counts" in train_refused(workspace, tmp_path, capsys,
                                           f"split_counts = {counts}")


@pytest.mark.parametrize("args,line", [(["--k", "0"], ""), (["--k", "5,-1"], ""), ([], "k = 0")],
                         ids=["flag-zero", "flag-negative", "config-zero"])
def test_train_k_below_one_exits_2_before_training(workspace, tmp_path, capsys, args, line):
    assert "'k'" in train_refused(workspace, tmp_path, capsys, line, *args)


@pytest.mark.parametrize("k", ["0", "5,-1"])
def test_evaluate_k_below_one_exits_2_before_scoring(workspace, tmp_path, capsys,
                                                     monkeypatch, k):
    def refuse(*args):
        raise AssertionError("scored the split before checking 'k'")

    monkeypatch.setattr(cli, "predict_scores", refuse)
    capsys.readouterr()
    rc = main(["evaluate", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--dataset", str(workspace["gen"] / "dataset.jsonl"),
               "--k", k, "--out", str(tmp_path / "eval")])
    assert rc == 2
    assert "'k'" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["gen_visits = 2,3,4", "gen_codes_per_visit = 3",
                                  "gen_words_per_note = 1,2,3"])
def test_generator_pair_needs_two_values(tmp_path, capsys, line):
    cfg = tmp_path / "pair.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["generate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert line.split()[0].removeprefix("gen_") in capsys.readouterr().err


def test_evaluate_labels_only_the_scored_split(workspace, tmp_path, monkeypatch):
    bundle, _ = first_split_patient(workspace, "test")
    ds = load_dataset(workspace["gen"] / "dataset.jsonl")
    split_dataset(ds, tuple(bundle.split["counts"]), derive_seeds(bundle.split["seed"]).split)
    labelled = []
    make_labels = cli.make_labels

    def spy(dataset, *args, **kwargs):
        labelled.extend(p.pid for p in dataset.patients)
        return make_labels(dataset, *args, **kwargs)

    monkeypatch.setattr(cli, "make_labels", spy)
    rc = main(["evaluate", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--dataset", str(workspace["gen"] / "dataset.jsonl"), "--split", "valid",
               "--out", str(tmp_path / "eval")])
    assert rc == 0
    assert labelled == [p.pid for p in ds.split_patients("valid")]


def test_evaluate_bad_code_in_train_split_exits_2(workspace, tmp_path, capsys):
    """Only the scored split is labelled, but loading checks every patient's codes."""
    _, patient = first_split_patient(workspace, "train")
    lines = []
    for line in (workspace["gen"] / "dataset.jsonl").read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["patient"] == patient.pid:
            record["visits"][0]["codes"].append("no-such-code")
            line = json.dumps(record)
        lines.append(line)
    dataset = tmp_path / "dataset.jsonl"
    dataset.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    rc = main(["evaluate", "--checkpoint", str(workspace["run"] / "checkpoint"),
               "--dataset", str(dataset), "--out", str(tmp_path / "eval")])
    assert rc == 2
    assert f"unknown code 'no-such-code' (patient {patient.pid})" in capsys.readouterr().err


def test_one_process_matches_fresh_processes(workspace, tmp_path, capsys, monkeypatch):
    """The parser is built once per process; predict, a call that fails to
    parse and evaluate then print what fresh processes print."""
    _, patient = first_split_patient(workspace, "test")
    history = tmp_path / "history.json"
    history.write_text(json.dumps({"visits": [{"codes": v.codes, "note": v.note}
                                              for v in patient.feature_visits]}),
                       encoding="utf-8")
    ckpt, out = str(workspace["run"] / "checkpoint"), tmp_path / "eval"
    calls = [["predict", "--checkpoint", ckpt, "--history", str(history)],
             ["predict", "--checkpoint", ckpt, "--history", str(history), "--top", "many"],
             ["evaluate", "--checkpoint", ckpt, "--dataset",
              str(workspace["gen"] / "dataset.jsonl"), "--out", str(out)]]
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    in_process = []
    capsys.readouterr()
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        in_process.append((rc, *capsys.readouterr()))
    outputs = [(out / name).read_bytes() for name in ("report.txt", "per_patient.csv")]
    cli._parser.cache_clear()
    assert len(builds) == 1
    assert [rc for rc, _, _ in in_process] == [0, 2, 0]

    env = {**os.environ, "CGL_THREADS": "1",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    for argv, got in zip(calls, in_process):
        fresh = subprocess.run([sys.executable, "-m", "cgl.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == got, argv
    assert [(out / name).read_bytes() for name in ("report.txt", "per_patient.csv")] == outputs
