"""Batch command line: generate, train, evaluate, predict, export.

Configuration comes from a plain-text ``key = value`` file (see README for
the key list) overridable by flags. Every command is deterministic given its
configuration and seed. Exit codes: 0 success, 2 usage or data error,
3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .data import (DataError, EhrDataset, GeneratorConfig, dense_rows, generate_synthetic,
                   load_dataset, make_labels, split_dataset)
from .experiment import TrainSettings, assemble, derive_seeds, history_to_example
from .experiment import train as run_training
from .graphs import export_adjacency
from .metrics import top_codes, top_k_hits, top_k_indices
from .model import (ModelConfig, TrainingDivergenceError, compute_metrics,
                    default_note_loss_weight, predict_scores, prepare_examples)
from .ontology import OntologyError, ancestor_path, load_ontology
from .text import save_vocabulary

TASK_NAMES = {"diagnosis": "diagnosis", "hf": "heart_failure"}
# Keys of the run itself; the other config keys are the ModelConfig fields and
# the GeneratorConfig fields prefixed with "gen_". One file serves every
# command, so each command accepts the union.
RUN_KEYS = ("seed", "task", "k", "out", "ontology", "dataset", "checkpoint", "history",
            "what", "split", "top", "ablation", "split_counts", "cooccurrence_scope",
            "hf_prefix", "export_graphs")
CONFIG_KEYS = frozenset(RUN_KEYS).union(
    [f.name for f in fields(ModelConfig)], ["gen_" + f.name for f in fields(GeneratorConfig)])
BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
            "false": False, "0": False, "no": False, "off": False}
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
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}: line {lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def gather_options(args: argparse.Namespace) -> dict[str, str]:
    """The non-empty keys of the config file and the flags; flags win."""
    values: dict[str, str] = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key in RUN_KEYS:
        v = getattr(args, key, None)
        if v is not None:
            values[key] = str(v)
    return {key: v for key, v in values.items() if v != ""}


def value(opts: dict[str, str], key: str, default):
    """The key's value parsed by the type of ``default`` (bool, int, float,
    str or a comma-separated tuple of ints; a ``None`` default takes the
    string); ``default`` when unset."""
    if key not in opts:
        return default
    raw = opts[key]
    try:
        if isinstance(default, bool):
            return BOOLEANS[raw.lower()]
        if isinstance(default, tuple):
            return tuple(int(part) for part in raw.split(",") if part.strip())
        return raw if default is None else type(default)(raw)
    except (KeyError, ValueError):
        raise ValueError(f"config key {key!r} needs a {type(default).__name__}, "
                         f"got {raw!r}") from None


def require(opts: dict[str, str], key: str) -> str:
    if key not in opts:
        raise ValueError(f"missing required option {key!r} (flag or config key)")
    return opts[key]


def metric_ks(opts: dict[str, str], default: tuple[int, ...]) -> tuple[int, ...]:
    ks = value(opts, "k", default)
    if min(ks, default=1) < 1:
        raise ValueError(f"option 'k' must be at least 1, got {opts['k']!r}")
    return ks


def resolve_task(opts: dict[str, str]) -> str:
    raw = opts.get("task", ModelConfig.task)
    if raw in TASK_NAMES:
        return TASK_NAMES[raw]
    if raw in TASK_NAMES.values():
        return raw
    raise ValueError(f"unknown task {raw!r} (expected diagnosis or hf)")


def config_fields(cls, opts: dict[str, str], prefix: str = "") -> dict:
    """The config values set for the fields of dataclass ``cls``, each parsed by
    the type of the field's default."""
    return {f.name: value(opts, prefix + f.name, f.default)
            for f in fields(cls) if prefix + f.name in opts}


def _manifest_hf_prefix(dataset_path: str, task: str) -> str | None:
    """The prefix recorded by the dataset's generator manifest, if any."""
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


def train_settings_from(opts: dict[str, str], dataset_path: str) -> TrainSettings:
    """The run and model keys; an unset ``hf_prefix`` is the dataset manifest's."""
    task = resolve_task(opts)
    config = ModelConfig(**{"note_loss_weight": default_note_loss_weight(task),
                            **config_fields(ModelConfig, opts), "task": task})
    ablation = opts.get("ablation")
    if ablation:
        if ablation not in ABLATIONS:
            raise ValueError(f"unknown ablation {ablation!r}")
        setattr(config, ABLATIONS[ablation], False)
    run = config_fields(TrainSettings, opts)
    return TrainSettings(**{
        **run, "metric_ks": metric_ks(opts, TrainSettings.metric_ks), "config": config,
        "hf_prefix": run.get("hf_prefix") or _manifest_hf_prefix(dataset_path, task)})


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
    out_dir = Path(require(opts, "out"))
    seed = value(opts, "seed", TrainSettings.seed)
    config = GeneratorConfig(**config_fields(GeneratorConfig, opts, "gen_"))
    manifest = generate_synthetic(config, seed, out_dir)
    stats = manifest["stats"]
    print(f"wrote {out_dir / manifest['files']['ontology']}")
    print(f"wrote {out_dir / manifest['files']['dataset']}")
    print(f"wrote {out_dir / 'dataset.manifest.json'}")
    print(f"patients\t{stats['patients']}")
    print(f"avg_codes_per_visit\t{stats['avg_codes_per_visit']:.2f}"
          f" (reference real-world average: {stats['mimic3_reference_avg_codes_per_visit']})")
    return 0


def cmd_train(args) -> int:
    opts = gather_options(args)
    out_dir = Path(require(opts, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_path = require(opts, "dataset")
    settings = train_settings_from(opts, dataset_path)
    tree = load_ontology(require(opts, "ontology"))
    problem = assemble(load_dataset(dataset_path), tree, settings)
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
    if settings.export_graphs:
        export_adjacency(problem.observation.matrix, out_dir / "observation_graph.txt")
        export_adjacency(problem.adjacency.adjacency, out_dir / "ontology_graph.txt")
    save_checkpoint(
        out_dir / "checkpoint", model, problem.vocab,
        hf_prefix=settings.hf_prefix, metric_ks=settings.metric_ks,
        split={"counts": list(settings.split_counts), "seed": settings.seed})
    print(f"wrote {out_dir / 'history.csv'}")
    print(f"wrote {out_dir / 'checkpoint'}")
    return 0


def _split_examples(bundle, dataset_path: str, tag: str):
    """The examples of split ``tag``; only they are labelled. Loading still
    checks every patient's codes against the index."""
    dataset = load_dataset(dataset_path, tree=bundle.tree)
    counts = tuple(bundle.split["counts"])
    split_dataset(dataset, counts, derive_seeds(bundle.split["seed"]).split)
    scored = EhrDataset(dataset.split_patients(tag))
    labels = make_labels(scored, bundle.task, bundle.tree, hf_prefix=bundle.hf_prefix)
    examples = prepare_examples(scored, None, bundle.tree, bundle.vocab, labels)
    if not examples:
        raise ValueError(f"the {tag!r} split is empty")
    return examples


def cmd_evaluate(args) -> int:
    opts = gather_options(args)
    out_dir = Path(require(opts, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = load_checkpoint(require(opts, "checkpoint"))
    ks = metric_ks(opts, bundle.metric_ks)
    if "task" in opts and resolve_task(opts) != bundle.task:
        raise ValueError(f"task {opts['task']!r} does not match the checkpoint's "
                         f"{bundle.task!r}")
    tag = opts.get("split", "test")
    if tag not in ("test", "valid"):
        raise ValueError(f"unknown split {tag!r} (expected test or valid)")
    examples = _split_examples(bundle, require(opts, "dataset"), tag)
    scores = predict_scores(bundle.model, examples)
    top = top_codes(scores, max(ks, default=1)) if bundle.task == "diagnosis" else None
    report = compute_metrics(scores, examples, bundle.task, ks,
                             include_onset=bundle.task == "diagnosis", top=top)
    lines = [f"{name}\t{format_value(value)}" for name, value in report.items()]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        print(line)

    labels = dense_rows([ex.positives for ex in examples], scores.shape[-1])
    if bundle.task == "diagnosis":
        n_pos = (labels != 0).sum(axis=1).tolist()
        hits = [top_k_hits(top, labels, k).tolist() for k in ks]
        rows = [[ex.pid, n_pos[i]] + [h[i] / n_pos[i] if n_pos[i] else 0.0 for h in hits]
                for i, ex in enumerate(examples)]
        write_csv(out_dir / "per_patient.csv",
                  ["patient", "positives"] + [f"r{k}" for k in ks], rows)
    else:
        rows = [[ex.pid, float(scores[i][0]), float(labels[i][0])]
                for i, ex in enumerate(examples)]
        write_csv(out_dir / "per_patient.csv", ["patient", "score", "label"], rows)
    print(f"wrote {out_dir / 'report.txt'}")
    return 0


def _load_history_file(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"patient history file {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        return obj
    if "visits" not in obj:
        raise ValueError(f"patient history {path} has no 'visits' field")
    return obj["visits"]


def _score_history(bundle, opts: dict[str, str]):
    """The example built from the ``history`` file, its scores and note attention."""
    visits = _load_history_file(require(opts, "history"))
    example = history_to_example(visits, bundle.tree, bundle.vocab)
    [(scores, alpha)] = bundle.model.predict_examples([example])
    return example, scores, alpha


def cmd_predict(args) -> int:
    opts = gather_options(args)
    top = value(opts, "top", 20)
    if top < 1:
        raise ValueError(f"option 'top' must be at least 1, got {top}")
    bundle = load_checkpoint(require(opts, "checkpoint"))
    _, scores, _ = _score_history(bundle, opts)
    if bundle.task == "heart_failure":
        print(f"probability\t{float(scores[0])!r}")
        return 0
    order = top_k_indices(scores, top)
    rows = [[bundle.tree.leaf_ids[i], float(scores[i])] for i in order]
    print("code,score")
    for code, score in rows:
        print(f"{code},{score!r}")
    if "out" in opts:
        out_dir = Path(opts["out"])
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "predictions.csv", ["code", "score"], rows)
        print(f"wrote {out_dir / 'predictions.csv'}")
    return 0


def cmd_export(args) -> int:
    opts = gather_options(args)
    out_dir = Path(require(opts, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = load_checkpoint(require(opts, "checkpoint"))
    what = require(opts, "what")
    if what == "code-embeddings":
        h = bundle.model.frozen_code_repr
        tree = load_ontology([tuple(edge) for edge in bundle.edges])
        if tree.leaf_ids != bundle.tree.leaf_ids:
            raise ValueError("checkpoint key 'ontology_edges' has other leaves than 'code_map'")
        levels = min(3, tree.levels)
        header = (["code"] + [f"level{k}" for k in range(1, levels + 1)]
                  + [f"e{j}" for j in range(h.shape[1])])
        rows = []
        for i, code in enumerate(tree.leaf_ids):
            path = ancestor_path(tree, i)
            rows.append([code, *path[:levels], *(float(v) for v in h[i])])
        write_csv(out_dir / "code_embeddings.csv", header, rows)
        print(f"wrote {out_dir / 'code_embeddings.csv'} ({len(rows)} codes)")
        return 0
    if what == "attention":
        example, _, alpha = _score_history(bundle, opts)
        if alpha is None:
            raise ValueError("the last visit's note has no word of the checkpoint's vocabulary"
                             if bundle.model.config.use_notes
                             else "this checkpoint was trained without the note path")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of the process: building it takes
    about a millisecond, a few percent of a ``cgl predict``."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
