import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cgl import data, graphs, model, text
from cgl import ontology as onto
from cgl.experiment import TrainSettings, assemble
from oracles import label_vectors, leaf_for
from problem_fixtures import HF_PREFIX, TINY_EDGES, tiny_config, tiny_dataset


def flat_tree(codes):
    return onto.load_ontology([("root", None)] + [(c, "root") for c in codes])


def write_lines(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def test_load_single_patient(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [{"patient": "p1", "visits": [
        {"codes": ["a"], "note": ["hi"]}, {"codes": ["b"], "note": []}]}])
    ds = data.load_dataset(path)
    assert len(ds.patients) == 1
    assert len(ds.patients[0].feature_visits) == 1
    assert ds.report.patients == 1


def test_single_visit_patient_rejected_and_counted(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [
        {"patient": "p1", "visits": [{"codes": ["a"]}]},
        {"patient": "p2", "visits": [{"codes": ["a"]}, {"codes": ["b"]}]},
    ])
    ds = data.load_dataset(path)
    assert [p.pid for p in ds.patients] == ["p2"]
    assert ds.report.rejected_short == 1


def test_empty_visits_dropped(tmp_path):
    path = tmp_path / "d.jsonl"
    write_lines(path, [{"patient": "p1", "visits": [
        {"codes": ["a"]}, {"codes": []}, {"codes": ["b"]}]}])
    ds = data.load_dataset(path)
    assert len(ds.patients[0].visits) == 2
    assert ds.report.dropped_empty_visits == 1


def test_parse_error_names_line(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"patient": "p1", "visits": []}\nnot json\n', encoding="utf-8")
    with pytest.raises(data.DataError, match="line 2"):
        data.load_dataset(path)


@pytest.mark.parametrize("visits,field", [
    (5, "visits"),
    ([1, {"codes": ["a"]}], "visits"),
    ([{"note": ["w"]}, {"codes": ["a"]}], "codes"),
    ([{"codes": "ab"}, {"codes": ["a"]}], "codes"),
    ([{"codes": ["a"], "note": 5}, {"codes": ["b"]}], "note"),
    ([{"codes": ["a"], "note": "w"}, {"codes": ["b"]}], "note"),
], ids=["visits-number", "visit-number", "no-codes", "codes-string", "note-number",
        "note-string"])
def test_malformed_record_names_field(tmp_path, visits, field):
    path = tmp_path / "d.jsonl"
    write_lines(path, [{"patient": "p1", "visits": visits}])
    with pytest.raises(data.DataError, match=f"line 1: .*'{field}'"):
        data.load_dataset(path)


def test_unknown_code_rejected(tmp_path):
    tree = flat_tree(["a"])
    path = tmp_path / "d.jsonl"
    write_lines(path, [{"patient": "p1", "visits": [{"codes": ["a"]}, {"codes": ["zz"]}]}])
    with pytest.raises(data.DataError, match="zz"):
        data.load_dataset(path, tree=tree)


def test_unknown_code_message_comes_from_the_one_resolver(tmp_path):
    # every path that resolves a record's codes raises the index's message;
    # the dataset loader only prefixes the line
    tree = flat_tree(["a"])
    path = tmp_path / "d.jsonl"
    write_lines(path, [{"patient": "p1", "visits": [{"codes": ["a"]}, {"codes": ["zz"]}]}])
    with pytest.raises(data.DataError) as err:
        data.load_dataset(path, tree=tree)
    assert str(err.value) == "line 1: unknown code 'zz' (patient p1)"

    ds = data.EhrDataset([data.Patient("p1", [data.Visit(["zz"]), data.Visit(["zz"])],
                                       split="train")])
    vocab = text.fit_vocabulary([[]])
    for call in (lambda: data.make_labels(ds, "diagnosis", tree),
                 lambda: graphs.build_observation(ds, tree),
                 lambda: graphs.build_cooccurrence(ds, tree, "visit"),
                 lambda: model.build_example("p1", ds.patients[0].visits, [], tree, vocab)):
        with pytest.raises(data.DataError) as err:
            call()
        assert str(err.value) == "unknown code 'zz' (patient p1)"


def test_save_load_roundtrip_bit_identical(tmp_path):
    ds = data.EhrDataset([
        data.Patient("p1", [data.Visit(["a", "b"], ["x"]), data.Visit(["c"], [])]),
        data.Patient("p2", [data.Visit(["b"], ["y", "z"]), data.Visit(["a"], [])]),
    ])
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    data.save_dataset(ds, p1)
    data.save_dataset(data.load_dataset(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_make_labels_diagnosis_one_hot():
    tree = flat_tree(["c0", "c1", "c2", "c3"])
    ds = data.EhrDataset([data.Patient("p1", [data.Visit(["c0"]), data.Visit(["c3"])])])
    labels = data.make_labels(ds, "diagnosis", tree)
    assert labels == {"p1": [3]}
    y = label_vectors([labels["p1"]], tree.n_leaves)[0]
    assert np.array_equal(y, [0.0, 0.0, 0.0, 1.0])


def test_make_labels_heart_failure_prefix():
    tree = flat_tree(["hf.1", "hf.2", "other"])
    ds = data.EhrDataset([
        data.Patient("p1", [data.Visit(["other"]), data.Visit(["hf.2"])]),
        data.Patient("p2", [data.Visit(["hf.1"]), data.Visit(["other"])]),
    ])
    labels = data.make_labels(ds, "heart_failure", tree, hf_prefix="hf")
    assert labels == {"p1": [0], "p2": []}  # last visit only
    y = label_vectors([labels["p1"], labels["p2"]], 1)
    assert np.array_equal(y, [[1.0], [0.0]])
    with pytest.raises(ValueError):
        data.make_labels(ds, "heart_failure", tree)


@pytest.mark.parametrize("task", ["diagnosis", "heart_failure"])
def test_assemble_labels_by_the_config_task(task):
    """The model config holds the one task field: a heart-failure config
    gets binary labels, [0] or [], to match its one-wide head."""
    settings = TrainSettings(split_counts=(4, 0, 0), hf_prefix=HF_PREFIX,
                             config=tiny_config(task))
    problem = assemble(tiny_dataset(), onto.load_ontology(TINY_EDGES), settings)
    positives = [ex.positives.tolist() for ex in problem.examples["train"]]
    head = model.FrozenScorer.array_shapes(settings.config, problem.tree.n_leaves,
                                           len(problem.vocab))["head_bias"]
    if task == "heart_failure":
        assert sorted(positives) == [[], [], [0], [0]]
        assert head == (1,)
    else:
        assert max(map(len, positives)) > 1
        assert head == (problem.tree.n_leaves,)


# Index lists as examples hold them: diagnosis labels are sorted leaf
# indices, binary labels [0] or [] at width 1, and occurred codes are the
# visits' indices concatenated, so they repeat.
DIAGNOSIS_ROWS = st.integers(1, 30).flatmap(lambda width: st.tuples(
    st.just(width), st.lists(st.lists(st.integers(0, width - 1), max_size=10),
                             min_size=1, max_size=6)))
BINARY_ROWS = st.tuples(st.just(1), st.lists(st.sampled_from([[0], []]), min_size=1,
                                             max_size=6))


@given(DIAGNOSIS_ROWS | BINARY_ROWS, st.booleans())
@example((1, [[0], [], [0]]), False)
@example((1, [[]]), True)
@example((6, [[5, 1, 1, 5], [], [0]]), True)
def test_dense_rows_match_the_stacked_label_vectors(case, as_arrays):
    """``dense_rows`` builds, bit for bit, the stacked per-patient vectors
    that examples once held: diagnosis labels, binary flags, occurred codes."""
    width, index_lists = case
    if as_arrays:
        index_lists = [np.array(ix, dtype=np.intp) for ix in index_lists]
    got, want = data.dense_rows(index_lists, width), label_vectors(index_lists, width)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_labels_from_manual_fixture():
    tree = flat_tree(["a", "b", "c"])
    visits = {
        "p1": [["a"], ["b", "c"]],
        "p2": [["b"], ["a"]],
        "p3": [["c"], ["c"]],
        "p4": [["a", "b"], ["a"]],
        "p5": [["c"], ["a", "b", "c"]],
    }
    ds = data.EhrDataset([
        data.Patient(pid, [data.Visit(list(v)) for v in vs]) for pid, vs in visits.items()
    ])
    labels = data.make_labels(ds, "diagnosis", tree)
    for pid, vs in visits.items():
        expected = sorted(leaf_for(tree, c) for c in set(vs[-1]))
        assert labels[pid] == expected


def make_n_patients(n):
    return data.EhrDataset([
        data.Patient(f"p{i}", [data.Visit(["a"]), data.Visit(["a"])]) for i in range(n)
    ])


def test_split_sizes_and_disjoint():
    ds = data.split_dataset(make_n_patients(10), (6, 1, 3), seed=0)
    tags = [p.split for p in ds.patients]
    assert tags.count("train") == 6 and tags.count("valid") == 1 and tags.count("test") == 3


def test_split_deterministic_and_seed_sensitive():
    a = data.split_dataset(make_n_patients(10), (6, 1, 3), seed=5)
    b = data.split_dataset(make_n_patients(10), (6, 1, 3), seed=5)
    assert [p.split for p in a.patients] == [p.split for p in b.patients]
    base = [p.split for p in a.patients]
    differed = 0
    for seed in range(20):
        other = data.split_dataset(make_n_patients(10), (6, 1, 3), seed=100 + seed)
        differed += [p.split for p in other.patients] != base
    assert differed >= 15  # near-certain under random permutations


def test_split_counts_exceeding_population():
    with pytest.raises(ValueError):
        data.split_dataset(make_n_patients(3), (3, 1, 1), seed=0)


# ---------------------------------------------------------------------------
# synthetic generator


def small_cfg(**kw):
    base = dict(levels=4, roots=2, branching=3, patients=30, visits=(2, 4),
                codes_per_visit=(2, 4), clusters=4, cluster_level=3,
                partner_weight=0.3, noise_rate=0.05, p_persist=0.6,
                background_words=12, words_per_cluster=6, words_per_note=(5, 12),
                cluster_word_rate=0.4)
    base.update(kw)
    return data.GeneratorConfig(**base)


def test_generator_defaults_within_ranges(tmp_path):
    cfg = small_cfg()
    manifest = data.generate_synthetic(cfg, seed=1, out_dir=tmp_path)
    tree = onto.load_ontology(tmp_path / "ontology.tsv")
    ds = data.load_dataset(tmp_path / "dataset.jsonl", tree=onto.pad_virtual_leaves(
        tree, set(data.load_dataset(tmp_path / "dataset.jsonl").all_codes())))
    assert len(ds.patients) == cfg.patients
    for p in ds.patients:
        assert cfg.visits[0] <= len(p.visits) <= cfg.visits[1]
        for v in p.visits:
            assert len(v.codes) >= 1
            assert cfg.words_per_note[0] <= len(v.note) <= cfg.words_per_note[1]
            for code in v.codes:
                assert code in tree.leaf_index  # generated codes are real leaves
    stats = manifest["stats"]
    assert stats["avg_codes_per_visit"] <= cfg.codes_per_visit[1]
    assert stats["mimic3_reference_avg_codes_per_visit"] == 13.27


def test_generator_persistence_identity(tmp_path):
    cfg = small_cfg(p_persist=1.0, partner_weight=0.0, noise_rate=0.0)
    data.generate_synthetic(cfg, seed=3, out_dir=tmp_path)
    ds = data.load_dataset(tmp_path / "dataset.jsonl")
    for p in ds.patients:
        first = set(p.visits[0].codes)
        for v in p.visits[1:]:
            assert set(v.codes) <= first


def test_generator_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    data.generate_synthetic(small_cfg(), seed=7, out_dir=d1)
    data.generate_synthetic(small_cfg(), seed=7, out_dir=d2)
    for name in ["ontology.tsv", "dataset.jsonl", "dataset.manifest.json"]:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


@pytest.mark.parametrize("counts", [(3, 1), (2, 1, 1, 0), (), (3, -1, 0), (-1, 2, 2)])
def test_split_dataset_needs_three_counts(counts):
    """Three non-negative counts, or an error that names ``split_counts``."""
    ds = data.EhrDataset([data.Patient(f"p{i}", [data.Visit(["a"]), data.Visit(["a"])])
                          for i in range(4)])
    with pytest.raises(ValueError, match="split_counts"):
        data.split_dataset(ds, counts, seed=0)


def test_generator_infeasible_spec(tmp_path):
    with pytest.raises(ValueError):
        data.generate_synthetic(small_cfg(codes_per_visit=(2, 100)), seed=0, out_dir=tmp_path)
    with pytest.raises(ValueError):
        data.generate_synthetic(small_cfg(clusters=100), seed=0, out_dir=tmp_path)


def test_generator_cluster_signal_reported(tmp_path):
    manifest = data.generate_synthetic(small_cfg(patients=60), seed=11, out_dir=tmp_path)
    # planted structure: cluster identity carries information about labels
    assert manifest["stats"]["cluster_label_mi_mean_nats"] > 0.0
    assert 0.0 < manifest["stats"]["hf_label_rate"] < 1.0


def test_document_helpers():
    p = data.Patient("p", [
        data.Visit(["a"], ["w1", "w2"]),
        data.Visit(["b"], ["w3"]),
        data.Visit(["c"], ["w4"]),
    ])
    assert data.patient_document(p) == ["w1", "w2", "w3"]
