"""Batch command line: generate, train, evaluate, predict, export.

Configuration comes from a plain-text ``key = value`` file (see README for
the key list) overridable by flags. Every command is deterministic given its
configuration and seed. Exit codes: 0 success, 2 usage or data error,
3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (DataError, GeneratorConfig, generate_synthetic, load_dataset,
                   make_labels, split_dataset)
from .experiment import TrainSettings, assemble, derive_seeds, history_to_example
from .experiment import train as run_training
from .graphs import export_adjacency
from .metrics import rank_codes, top_k_hits, top_k_indices
from .model import (ModelConfig, TrainingDivergenceError, compute_metrics,
                    default_note_loss_weight, predict_scores, prepare_examples)
from .ontology import OntologyError, ancestor_path, load_ontology
from .text import save_vocabulary

TASK_NAMES = {"diagnosis": "diagnosis", "hf": "heart_failure"}
ABLATIONS = {
    "no-hier": "use_hierarchical_embedding",
    "no-notes": "use_notes",
    "no-ontology-weights": "use_ontology_weights",
}


# ---------------------------------------------------------------------------
# configuration plumbing


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


class Options:
    """String key-value store with typed accessors; flags override the file."""

    def __init__(self, values: dict[str, str]):
        self.values = values

    def has(self, key: str) -> bool:
        return key in self.values and self.values[key] != ""

    def get(self, key: str, default: str | None = None) -> str | None:
        return self.values.get(key, default)

    def get_int(self, key: str, default: int) -> int:
        return int(self.values[key]) if self.has(key) else default

    def get_float(self, key: str, default: float) -> float:
        return float(self.values[key]) if self.has(key) else default

    def get_bool(self, key: str, default: bool) -> bool:
        if not self.has(key):
            return default
        value = self.values[key].lower()
        if value in ("true", "1", "yes", "on"):
            return True
        if value in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"config key {key!r} needs a boolean, got {value!r}")

    def get_ints(self, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
        if not self.has(key):
            return tuple(default)
        return tuple(int(part) for part in self.values[key].split(",") if part.strip())

    def require(self, key: str) -> str:
        if not self.has(key):
            raise ValueError(f"missing required option {key!r} (flag or config key)")
        return self.values[key]


def gather_options(args: argparse.Namespace) -> Options:
    values: dict[str, str] = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for flag in ("seed", "task", "k", "out", "ontology", "dataset", "checkpoint",
                 "history", "what", "split", "top", "ablation"):
        v = getattr(args, flag, None)
        if v is not None:
            values[flag] = str(v)
    return Options(values)


def resolve_task(opts: Options) -> str:
    raw = opts.get("task", "diagnosis")
    if raw in TASK_NAMES:
        return TASK_NAMES[raw]
    if raw in TASK_NAMES.values():
        return raw
    raise ValueError(f"unknown task {raw!r} (expected diagnosis or hf)")


def model_config_from(opts: Options, task: str) -> ModelConfig:
    base = ModelConfig(task=task, note_loss_weight=default_note_loss_weight(task))
    config = ModelConfig(
        task=task,
        code_dim=opts.get_int("code_dim", base.code_dim),
        patient_dim=opts.get_int("patient_dim", base.patient_dim),
        word_dim=opts.get_int("word_dim", base.word_dim),
        patient_layer_dims=opts.get_ints("patient_layer_dims", base.patient_layer_dims),
        code_layer_dims=opts.get_ints("code_layer_dims", base.code_layer_dims),
        gru_hidden=opts.get_int("gru_hidden", base.gru_hidden),
        note_loss_weight=opts.get_float("note_loss_weight", base.note_loss_weight),
        learning_rate=opts.get_float("learning_rate", base.learning_rate),
        epochs=opts.get_int("epochs", base.epochs),
        batch_size=opts.get_int("batch_size", base.batch_size),
        use_hierarchical_embedding=opts.get_bool("use_hierarchical_embedding", True),
        use_notes=opts.get_bool("use_notes", True),
        use_ontology_weights=opts.get_bool("use_ontology_weights", True),
        use_observation_graph=opts.get_bool("use_observation_graph", True),
    )
    ablation = opts.get("ablation")
    if ablation:
        if ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {ablation!r}")
        setattr(config, ABLATIONS[ablation], False)
    return config


def generator_config_from(opts: Options) -> GeneratorConfig:
    base = GeneratorConfig()
    pair = lambda key, dflt: tuple(opts.get_ints(key, dflt))[:2]
    return GeneratorConfig(
        levels=opts.get_int("gen_levels", base.levels),
        roots=opts.get_int("gen_roots", base.roots),
        branching=opts.get_int("gen_branching", base.branching),
        patients=opts.get_int("gen_patients", base.patients),
        visits=pair("gen_visits", base.visits),
        codes_per_visit=pair("gen_codes_per_visit", base.codes_per_visit),
        clusters=opts.get_int("gen_clusters", base.clusters),
        cluster_level=opts.get_int("gen_cluster_level", base.cluster_level),
        partner_weight=opts.get_float("gen_partner_weight", base.partner_weight),
        noise_rate=opts.get_float("gen_noise_rate", base.noise_rate),
        p_persist=opts.get_float("gen_p_persist", base.p_persist),
        background_words=opts.get_int("gen_background_words", base.background_words),
        words_per_cluster=opts.get_int("gen_words_per_cluster", base.words_per_cluster),
        words_per_note=pair("gen_words_per_note", base.words_per_note),
        cluster_word_rate=opts.get_float("gen_cluster_word_rate", base.cluster_word_rate),
        hf_cluster=opts.get_int("gen_hf_cluster", base.hf_cluster),
    )


def format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    opts = gather_options(args)
    out_dir = Path(opts.require("out"))
    seed = opts.get_int("seed", 0)
    manifest = generate_synthetic(generator_config_from(opts), seed, out_dir)
    stats = manifest["stats"]
    print(f"wrote {out_dir / manifest['files']['ontology']}")
    print(f"wrote {out_dir / manifest['files']['dataset']}")
    print(f"wrote {out_dir / 'dataset.manifest.json'}")
    print(f"patients\t{stats['patients']}")
    print(f"avg_codes_per_visit\t{stats['avg_codes_per_visit']:.2f}"
          f" (reference real-world average: {stats['mimic3_reference_avg_codes_per_visit']})")
    return 0


def _resolve_hf_prefix(opts: Options, dataset_path: str, task: str) -> str | None:
    if opts.has("hf_prefix"):
        return opts.get("hf_prefix")
    sidecar = Path(str(dataset_path)).parent / "dataset.manifest.json"
    if sidecar.exists():
        with open(sidecar, "r", encoding="utf-8") as fh:
            prefix = json.load(fh).get("hf_prefix")
        if prefix:
            return prefix
    if task == "heart_failure":
        raise ValueError("heart-failure task needs hf_prefix (config key) or a "
                         "dataset manifest that records one")
    return None


def cmd_train(args) -> int:
    opts = gather_options(args)
    out_dir = Path(opts.require("out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    task = resolve_task(opts)
    seed = opts.get_int("seed", 0)
    dataset_path = opts.require("dataset")
    tree = load_ontology(opts.require("ontology"))
    dataset = load_dataset(dataset_path)
    settings = TrainSettings(
        task=task,
        seed=seed,
        split_counts=opts.get_ints("split_counts", (210, 30, 60)),
        metric_ks=opts.get_ints("k", (20, 40)),
        cooccurrence_scope=opts.get("cooccurrence_scope", "visit"),
        hf_prefix=_resolve_hf_prefix(opts, dataset_path, task),
        config=model_config_from(opts, task),
    )
    problem = assemble(dataset, tree, settings)
    print(f"train/valid/test: "
          f"{len(problem.examples['train'])}/{len(problem.examples['valid'])}"
          f"/{len(problem.examples['test'])}, codes: {problem.tree.n_leaves}, "
          f"vocabulary: {len(problem.vocab)}")

    header: list[str] = []
    rows: list[list] = []

    def on_epoch(row: dict) -> None:
        nonlocal header
        if not header:
            header = list(row)
        rows.append([row[k] for k in header])
        print("  ".join(f"{k}={format_value(v)}" for k, v in row.items()))

    model, _ = run_training(problem, on_epoch=on_epoch)
    write_csv(out_dir / "history.csv", header, rows)
    save_vocabulary(problem.vocab, out_dir / "vocabulary.tsv")
    if opts.get_bool("export_graphs", False):
        export_adjacency(problem.observation.matrix, out_dir / "observation_graph.txt")
        export_adjacency(problem.adjacency.adjacency, out_dir / "ontology_graph.txt")
    save_checkpoint(
        out_dir / "checkpoint", model, problem.vocab,
        hf_prefix=settings.hf_prefix, metric_ks=settings.metric_ks,
        split={"counts": list(settings.split_counts), "seed": seed})
    print(f"wrote {out_dir / 'history.csv'}")
    print(f"wrote {out_dir / 'checkpoint'}")
    return 0


def _split_examples(bundle, dataset_path: str, tag: str):
    dataset = load_dataset(dataset_path, tree=bundle.tree)
    counts = tuple(bundle.split["counts"])
    split_dataset(dataset, counts, derive_seeds(bundle.split["seed"]).split)
    labels = make_labels(dataset, bundle.task, bundle.tree, hf_prefix=bundle.hf_prefix)
    examples = prepare_examples(dataset, tag, bundle.tree, bundle.vocab, labels)
    if not examples:
        raise ValueError(f"the {tag!r} split is empty")
    return examples


def cmd_evaluate(args) -> int:
    opts = gather_options(args)
    out_dir = Path(opts.require("out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = load_checkpoint(opts.require("checkpoint"))
    if opts.has("task") and resolve_task(opts) != bundle.task:
        raise ValueError(f"task {opts.get('task')!r} does not match the checkpoint's "
                         f"{bundle.task!r}")
    tag = opts.get("split", "test")
    if tag not in ("test", "valid"):
        raise ValueError(f"unknown split {tag!r} (expected test or valid)")
    examples = _split_examples(bundle, opts.require("dataset"), tag)
    ks = opts.get_ints("k", bundle.metric_ks)
    scores = predict_scores(bundle.model, examples)
    ranks = rank_codes(scores) if bundle.task == "diagnosis" else None
    report = compute_metrics(scores, examples, bundle.task, ks,
                             include_onset=bundle.task == "diagnosis", ranks=ranks)
    lines = [f"{name}\t{format_value(value)}" for name, value in report.items()]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)

    if bundle.task == "diagnosis":
        labels = np.stack([ex.label_vec for ex in examples])
        n_pos = (labels != 0).sum(axis=1).tolist()
        hits = [top_k_hits(ranks, labels, k).tolist() for k in ks]
        rows = [[ex.pid, n_pos[i]] + [h[i] / n_pos[i] if n_pos[i] else 0.0 for h in hits]
                for i, ex in enumerate(examples)]
        write_csv(out_dir / "per_patient.csv",
                  ["patient", "positives"] + [f"r{k}" for k in ks], rows)
    else:
        rows = [[ex.pid, float(scores[i][0]), float(ex.label_vec[0])]
                for i, ex in enumerate(examples)]
        write_csv(out_dir / "per_patient.csv", ["patient", "score", "label"], rows)
    print(f"wrote {out_dir / 'report.txt'}")
    return 0


def _load_history_file(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        content = fh.read().strip()
    if not content:
        raise ValueError(f"patient history file {path} is empty")
    obj = json.loads(content.splitlines()[0])
    visits = obj["visits"] if isinstance(obj, dict) else obj
    if not isinstance(visits, list):
        raise ValueError("patient history must be a record with a 'visits' list")
    return visits


def cmd_predict(args) -> int:
    opts = gather_options(args)
    bundle = load_checkpoint(opts.require("checkpoint"))
    visits = _load_history_file(opts.require("history"))
    n_out = bundle.model.params.arrays["head_bias"].shape[0]
    example = history_to_example(visits, bundle.tree, bundle.vocab, n_out)
    scores, _ = bundle.model.predict_example(example)
    if bundle.task == "heart_failure":
        print(f"probability\t{scores[0]!r}")
        return 0
    top = opts.get_int("top", 20)
    order = top_k_indices(scores, top)
    rows = [[bundle.tree.leaf_ids[i], float(scores[i])] for i in order]
    print("code,score")
    for code, score in rows:
        print(f"{code},{score!r}")
    if opts.has("out"):
        out_dir = Path(opts.require("out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "predictions.csv", ["code", "score"], rows)
        print(f"wrote {out_dir / 'predictions.csv'}")
    return 0


def cmd_export(args) -> int:
    opts = gather_options(args)
    out_dir = Path(opts.require("out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = load_checkpoint(opts.require("checkpoint"))
    what = opts.require("what")
    if what == "code-embeddings":
        h = bundle.model.frozen_code_repr
        levels = min(3, bundle.tree.levels)
        header = (["code"] + [f"level{k}" for k in range(1, levels + 1)]
                  + [f"e{j}" for j in range(h.shape[1])])
        rows = []
        for i, code in enumerate(bundle.tree.leaf_ids):
            path = ancestor_path(bundle.tree, i)
            rows.append([code, *path[:levels], *(float(v) for v in h[i])])
        write_csv(out_dir / "code_embeddings.csv", header, rows)
        print(f"wrote {out_dir / 'code_embeddings.csv'} ({len(rows)} codes)")
        return 0
    if what == "attention":
        visits = _load_history_file(opts.require("history"))
        n_out = bundle.model.params.arrays["head_bias"].shape[0]
        example = history_to_example(visits, bundle.tree, bundle.vocab, n_out)
        _, alpha = bundle.model.predict_example(example)
        if alpha is None:
            raise ValueError("this checkpoint was trained without the note path")
        index_to_word = {ix: w for w, ix in bundle.vocab.word_index.items()}
        rows = [[index_to_word[int(t)], float(a), float(b)]
                for t, a, b in zip(example.note_tokens, alpha, example.beta)]
        write_csv(out_dir / "attention.csv", ["token", "attention", "tfidf_target"], rows)
        print(f"wrote {out_dir / 'attention.csv'} ({len(rows)} tokens)")
        return 0
    raise ValueError(f"unknown export kind {what!r}")


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgl",
        description="Collaborative graph learning over visit records: "
                    "generate, train, evaluate, predict, export.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--seed", type=int, help="root random seed")
    common.add_argument("--task", choices=["diagnosis", "hf"], help="prediction task")
    common.add_argument("--ablation", choices=sorted(ABLATIONS),
                        help="disable one model component")
    common.add_argument("--k", help="comma-separated recall cutoffs, e.g. 20,40")
    common.add_argument("--out", help="output directory")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common],
                       help="write a synthetic hierarchy and dataset")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", parents=[common], help="train a model")
    p.add_argument("--ontology", help="hierarchy edge file")
    p.add_argument("--dataset", help="JSON-lines visit records")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[common], help="score a trained model")
    p.add_argument("--checkpoint", help="checkpoint directory")
    p.add_argument("--dataset", help="JSON-lines visit records")
    p.add_argument("--split", choices=["test", "valid"], help="split to score")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", parents=[common],
                       help="score a raw patient history with frozen features")
    p.add_argument("--checkpoint", help="checkpoint directory")
    p.add_argument("--history", help="JSON patient history file")
    p.add_argument("--top", type=int, help="number of codes to report")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("export", parents=[common],
                       help="dump code embeddings or note attention as CSV")
    p.add_argument("--checkpoint", help="checkpoint directory")
    p.add_argument("--what", choices=["code-embeddings", "attention"])
    p.add_argument("--history", help="JSON patient history file (attention export)")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TrainingDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OntologyError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
