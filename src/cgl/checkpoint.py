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
the batch-norm state stay in the blob, and no graph is rebuilt.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .model import CollaborativeGraphModel, FrozenScorer, ModelConfig, ModelParams
from .ontology import OntologyTree, load_ontology
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


def save_checkpoint(out_dir, model: CollaborativeGraphModel, vocab: Vocabulary,
                    hf_prefix: str | None = None, metric_ks=(20, 40),
                    split: dict | None = None) -> Path:
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
    edges = [[name, tree.nodes[name].parent] for name in sorted(tree.nodes)]
    manifest = {
        "format": FORMAT,
        "task": model.config.task,
        "config": model.config.to_dict(),
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


def _read_arrays(path: Path, entries: list[dict],
                 shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Read the named arrays from the blob, checking each against its shape."""
    by_name = {entry["name"]: entry for entry in entries}
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


def _rebuild_tree(manifest: dict) -> OntologyTree:
    edges = [(child, parent) for child, parent in manifest["ontology_edges"]]
    tree = load_ontology(edges)
    tree.code_leaf.update({code: int(ix) for code, ix in manifest["code_map"].items()})
    return tree


def load_checkpoint(in_dir) -> SimpleNamespace:
    """Load the frozen scorer with the hierarchy and vocabulary it needs."""
    in_dir = Path(in_dir)
    with open(in_dir / MANIFEST_NAME, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != FORMAT:
        raise ValueError(f"unrecognized checkpoint format {manifest.get('format')!r}")
    config = ModelConfig.from_dict(manifest["config"])
    tree = _rebuild_tree(manifest)
    vocab_entries = manifest["vocab"]["entries"]
    vocab = Vocabulary(
        word_index={w: int(ix) for w, ix, _ in vocab_entries},
        doc_freq={w: int(df) for w, _, df in vocab_entries},
        doc_count=int(manifest["vocab"]["doc_count"]),
    )
    arrays = _read_arrays(in_dir / BLOB_NAME, manifest["arrays"],
                          FrozenScorer.array_shapes(config, tree.n_leaves, len(vocab)))
    frozen = arrays.pop("frozen_code_repr")
    model = FrozenScorer(config, ModelParams(arrays), frozen)

    return SimpleNamespace(
        model=model, tree=tree, vocab=vocab, config=config,
        task=manifest["task"], hf_prefix=manifest["hf_prefix"],
        metric_ks=tuple(manifest["metric_ks"]), split=manifest["split"],
        manifest=manifest)
