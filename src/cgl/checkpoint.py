"""Self-contained model checkpoints: a JSON manifest plus one float64 blob.

The manifest lists every array's name, shape, and byte offset into
``arrays.bin`` (little-endian float64, C order) and carries everything
inference needs without the original training files: the model config, the
padded hierarchy edges, the code-to-leaf map, the note vocabulary with
document frequencies, batch-norm step counts, and the split settings used
in training.

``load_checkpoint`` returns a :class:`~cgl.model.FrozenScorer`: it reads only
the arrays the scorer uses, each at its manifest offset, and checks each
shape against the config. The graph-side weights, the patient embeddings and
the batch-norm state stay in the blob, and no graph or hierarchy is rebuilt.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .model import CollaborativeGraphModel, FrozenScorer, ModelConfig, ModelParams
from .ontology import CodeIndex
from .text import Vocabulary

__all__ = ["save_checkpoint", "load_checkpoint"]

FORMAT = "cgl-checkpoint-v1"
MANIFEST_NAME = "manifest.json"
BLOB_NAME = "arrays.bin"


def _collect_arrays(model: CollaborativeGraphModel) -> dict[str, np.ndarray]:
    arrays = dict(model.params.arrays)
    for name, state in model.params.bn.items():
        arrays[f"{name}_running_mean"] = state.running_mean
        arrays[f"{name}_running_var"] = state.running_var
    if model.frozen_code_repr is None:
        raise ValueError("freeze code embeddings before saving a checkpoint")
    arrays["frozen_code_repr"] = model.frozen_code_repr
    return arrays


def save_checkpoint(out_dir, model: CollaborativeGraphModel, vocab: Vocabulary, *,
                    split: dict, hf_prefix: str | None = None, metric_ks=(20, 40)) -> Path:
    """``split`` is ``{"counts": [train, valid, test], "seed": seed}``, as
    ``cgl evaluate`` re-splits the dataset by it."""
    _check_split(split)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    arrays = _collect_arrays(model)

    entries = []
    offset = 0
    blob_parts = []
    for name, arr in arrays.items():
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blob_parts.append(raw)
        offset += len(raw)

    tree = model.tree
    edges = [[name, tree.parent[name]] for name in sorted(tree.parent)]
    manifest = {
        "format": FORMAT,
        "task": model.config.task,
        "config": asdict(model.config),
        "hf_prefix": hf_prefix,
        "metric_ks": list(metric_ks),
        "split": split,
        "n_patients": model.n_patients,
        "ontology_edges": edges,
        "code_map": dict(tree.code_leaf),
        "vocab": {
            "doc_count": vocab.doc_count,
            "entries": [[w, vocab.word_index[w], vocab.doc_freq[w]]
                        for w in sorted(vocab.word_index)],
        },
        "bn": {name: {"steps": state.steps} for name, state in model.params.bn.items()},
        "arrays": entries,
    }
    with open(out_dir / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / BLOB_NAME, "wb") as fh:
        fh.write(b"".join(blob_parts))
    return out_dir


def _check_split(split):
    if not (isinstance(split, dict) and isinstance(split.get("counts"), list)
            and len(split["counts"]) == 3 and all(map(_count, split["counts"]))
            and _count(split.get("seed"))):
        raise ValueError(f"checkpoint key 'split' is {split!r}, not three non-negative "
                         f"integer counts and a non-negative integer seed")
    return split


def _count(value, least: int = 0) -> bool:
    """Whether ``value`` is a JSON integer of at least ``least``; a bool is not one."""
    return type(value) is int and value >= least


def _array_of(key: str, items, ok, what: str) -> list:
    """The manifest's ``key``, a JSON array whose every item passes ``ok``."""
    if not isinstance(items, list):
        raise ValueError(f"checkpoint key {key!r} is not a JSON array")
    for item in items:
        if not ok(item):
            raise ValueError(f"checkpoint key {key!r} holds {item!r}, not {what}")
    return items


def _read_arrays(path: Path, entries, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Read the named arrays from the blob, checking each against its shape."""
    by_name = {entry["name"]: entry for entry in _array_of(
        "arrays", entries, lambda e: isinstance(e, dict) and isinstance(e.get("name"), str)
        and _count(e.get("offset")) and isinstance(e.get("shape"), list)
        and all(map(_count, e["shape"])), "a {name, shape, offset} entry")}
    out = {}
    with open(path, "rb") as fh:
        for name, shape in shapes.items():
            entry = by_name.get(name)
            if entry is None:
                raise ValueError(f"checkpoint has no array {name!r}")
            stored = tuple(entry["shape"])
            if stored != shape:
                raise ValueError(f"array {name!r} shape {stored} != expected {shape}")
            count = math.prod(shape)
            fh.seek(entry["offset"])
            arr = np.fromfile(fh, dtype="<f8", count=count)
            if arr.size != count:
                raise ValueError(f"array {name!r} runs past the end of {path.name}")
            out[name] = arr.astype(np.float64, copy=False).reshape(shape)
    return out


def _config_from(stored: dict) -> ModelConfig:
    """The manifest's config, which must hold exactly the ``ModelConfig`` fields."""
    names = [f.name for f in fields(ModelConfig)]
    for key in names:
        if key not in stored:
            raise ValueError(f"checkpoint config lacks the key {key!r}")
    for key in stored:
        if key not in names:
            raise ValueError(f"checkpoint config has an unknown key {key!r}")
    return ModelConfig(**stored)


def _code_index(edges: list, code_map: dict) -> CodeIndex:
    """The code map's index: its leaves are the mapped codes that are no edge's
    parent, sorted, and each maps to its own rank."""
    for edge in edges:  # inline, not through _array_of: a predicate call per edge slows a load
        if not (isinstance(edge, list) and len(edge) == 2 and isinstance(edge[0], str)
                and (edge[1] is None or isinstance(edge[1], str))):
            raise ValueError(f"checkpoint key 'ontology_edges' holds {edge!r}, "
                             f"not a [child, parent] pair")
    parent_of = dict(edges)
    strangers = code_map.keys() - parent_of.keys()
    if strangers:
        raise ValueError(f"checkpoint key 'code_map' maps {min(strangers)!r}, "
                         f"which is no node of 'ontology_edges'")
    parents = set(parent_of.values())
    leaf_ids = sorted(code for code in code_map if code not in parents)
    for code, ix in code_map.items():
        if type(ix) is not int or not 0 <= ix < len(leaf_ids):
            raise ValueError(f"checkpoint key 'code_map' maps {code!r} to {ix!r}, "
                             f"not a leaf index in [0, {len(leaf_ids)})")
        if code not in parents and leaf_ids[ix] != code:
            raise ValueError(f"checkpoint key 'code_map' maps the leaf {code!r} to {ix}, "
                             f"not to its rank {leaf_ids.index(code)}")
    return CodeIndex(leaf_ids, code_map)


def load_checkpoint(in_dir) -> SimpleNamespace:
    """Load the frozen scorer with the code index and vocabulary it needs."""
    in_dir = Path(in_dir)
    with open(in_dir / MANIFEST_NAME, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise ValueError(f"checkpoint {MANIFEST_NAME!r} is not a JSON object")
    if manifest.get("format") != FORMAT:
        raise ValueError(f"unrecognized checkpoint format {manifest.get('format')!r}")
    for key, kind in (("config", dict), ("ontology_edges", list), ("code_map", dict),
                      ("vocab", dict)):
        if not isinstance(manifest[key], kind):
            raise ValueError(f"checkpoint key {key!r} is not a JSON "
                             f"{'object' if kind is dict else 'array'}")
    config = _config_from(manifest["config"])
    if manifest["task"] != config.task:
        raise ValueError(f"checkpoint key 'task' is {manifest['task']!r}, not its config's "
                         f"task {config.task!r}")
    split = _check_split(manifest["split"])
    if not isinstance(manifest["hf_prefix"], (str, type(None))):
        raise ValueError(f"checkpoint key 'hf_prefix' is {manifest['hf_prefix']!r}, "
                         f"not null or a string")
    tree = _code_index(manifest["ontology_edges"], manifest["code_map"])
    stored = manifest["vocab"]
    entries = _array_of("vocab.entries", stored["entries"], lambda e: isinstance(e, list)
                        and len(e) == 3 and isinstance(e[0], str) and _count(e[2], 1)
                        and _count(e[1]) and e[1] < len(stored["entries"]),
                        "a [word, index, document frequency] triple with an index in range")
    if not _count(stored["doc_count"], 1):
        raise ValueError(f"checkpoint key 'vocab.doc_count' is {stored['doc_count']!r}, "
                         f"not a positive integer")
    vocab = Vocabulary({w: ix for w, ix, _ in entries}, {w: df for w, _, df in entries},
                       stored["doc_count"])
    arrays = _read_arrays(in_dir / BLOB_NAME, manifest["arrays"],
                          FrozenScorer.array_shapes(config, tree.n_leaves, len(vocab)))
    frozen = arrays.pop("frozen_code_repr")
    model = FrozenScorer(config, ModelParams(arrays), frozen)

    return SimpleNamespace(
        model=model, tree=tree, edges=manifest["ontology_edges"], vocab=vocab,
        task=manifest["task"], hf_prefix=manifest["hf_prefix"],
        metric_ks=tuple(_array_of("metric_ks", manifest["metric_ks"], lambda k: _count(k, 1),
                                  "a positive integer")), split=split)
