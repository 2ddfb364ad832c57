"""Dataset schema, labels, splits, and a synthetic visit-record generator.

Dataset files are JSON lines, one patient per line:

    {"patient": "p0001", "visits": [{"codes": [...], "note": [...]}, ...]}

A patient's last visit supplies labels; all earlier visits are features.
The generator plants structure worth learning: comorbidity clusters are
blocks of sibling/cousin leaves under one subtree, each cluster is paired
with a partner cluster elsewhere in the tree, patients mix their own cluster
with the partner, codes persist across visits, and notes mix cluster-specific
words with ubiquitous background words so TF-IDF separates them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .ontology import CodeIndex, DataError, load_ontology, save_ontology

__all__ = [
    "DataError",
    "Visit",
    "Patient",
    "EhrDataset",
    "LoadReport",
    "dense_rows",
    "load_dataset",
    "save_dataset",
    "make_labels",
    "split_dataset",
    "patient_document",
    "GeneratorConfig",
    "generate_synthetic",
]

MIN_VISITS = 2  # a feature visit and a label visit


@dataclass
class Visit:
    codes: list[str]
    note: list[str] = field(default_factory=list)


@dataclass
class Patient:
    pid: str
    visits: list[Visit]
    split: str | None = None

    @property
    def feature_visits(self) -> list[Visit]:
        return self.visits[:-1]

    @property
    def label_visit(self) -> Visit:
        return self.visits[-1]


@dataclass
class LoadReport:
    patients: int = 0
    rejected_short: int = 0
    dropped_empty_visits: int = 0


@dataclass
class EhrDataset:
    patients: list[Patient]
    report: LoadReport | None = None

    def split_patients(self, tag: str) -> list[Patient]:
        return [p for p in self.patients if p.split == tag]

    def all_codes(self) -> list[str]:
        codes = {c for p in self.patients for v in p.visits for c in v.codes}
        return sorted(codes)


def patient_document(patient: Patient) -> list[str]:
    """All feature-visit note tokens, concatenated: one document per patient."""
    doc: list[str] = []
    for visit in patient.feature_visits:
        doc.extend(visit.note)
    return doc


def _parse_patient(obj, where: str) -> Patient:
    """One raw record as a :class:`Patient`; every error starts with ``where``."""
    if not isinstance(obj, dict) or "patient" not in obj or "visits" not in obj:
        raise DataError(f"{where}: record needs 'patient' and 'visits' fields")
    if not isinstance(obj["visits"], list) or not all(isinstance(v, dict)
                                                      for v in obj["visits"]):
        raise DataError(f"{where}: 'visits' must be a list of objects")
    visits = []
    for v in obj["visits"]:
        if "codes" not in v:
            raise DataError(f"{where}: visit needs a 'codes' field")
        codes, note = v["codes"], v.get("note", [])
        for name, value in (("codes", codes), ("note", note)):
            if not isinstance(value, list):
                raise DataError(f"{where}: visit field {name!r} must be a list")
        visits.append(Visit([str(c) for c in codes], [str(w) for w in note]))
    return Patient(str(obj["patient"]), visits)


def load_dataset(path, tree: CodeIndex | None = None) -> EhrDataset:
    """Load and validate a JSON-lines dataset.

    Visits without codes are dropped; patients left with fewer than
    ``MIN_VISITS`` visits are rejected and counted in the report. With a
    code index supplied, every code must resolve to a leaf.
    """
    report = LoadReport()
    patients: list[Patient] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"line {lineno}: invalid record: {exc}") from None
            patient = _parse_patient(obj, f"line {lineno}")
            kept = [v for v in patient.visits if v.codes]
            report.dropped_empty_visits += len(patient.visits) - len(kept)
            patient.visits = kept
            if len(patient.visits) < MIN_VISITS:
                report.rejected_short += 1
                continue
            if tree is not None:
                for visit in patient.visits:
                    tree.resolve(visit.codes, patient.pid, f"line {lineno}: ")
            patients.append(patient)
    report.patients = len(patients)
    return EhrDataset(patients, report)


def save_dataset(dataset: EhrDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in dataset.patients:
            record = {
                "patient": p.pid,
                "visits": [{"codes": v.codes, "note": v.note} for v in p.visits],
            }
            fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# labels and splits


def dense_rows(index_lists, width: int) -> np.ndarray:
    """One float64 0/1 row of ``width`` per index list, ones at its indices.

    Labels and occurred codes are stored as indices; this builds their dense
    rows only where a loss or a metric needs them, per batch or per split.
    """
    rows = np.zeros((len(index_lists), width), dtype=np.float64)
    for row, indices in zip(rows, index_lists):
        row[indices] = 1.0
    return rows


def make_labels(dataset: EhrDataset, task: str, tree: CodeIndex,
                hf_prefix: str | None = None) -> dict[str, list[int]]:
    """Labels from each patient's last visit only, as each pid's sorted
    positive output indices: the label visit's leaves for diagnosis, [0] or
    [] for the binary task."""
    if task not in ("diagnosis", "heart_failure"):
        raise ValueError(f"unknown task {task!r}")
    if task == "heart_failure" and not hf_prefix:
        raise ValueError("heart_failure labels need a code prefix")
    positives: dict[str, list[int]] = {}
    for p in dataset.patients:
        last = p.label_visit
        positives[p.pid] = sorted(set(tree.resolve(last.codes, p.pid)))  # checks each code
        if task == "heart_failure":
            positives[p.pid] = [0] if any(c.startswith(hf_prefix) for c in last.codes) else []
    return positives


def split_dataset(dataset: EhrDataset, counts: tuple[int, int, int], seed: int) -> EhrDataset:
    """Tag patients train/valid/test by a seeded permutation, in place.

    Patients beyond the requested counts stay untagged and are ignored
    downstream.
    """
    if len(counts) != 3 or min(counts) < 0:
        raise ValueError(f"split_counts needs three non-negative values (train, valid, "
                         f"test), got {tuple(counts)}")
    n_train, n_valid, n_test = counts
    total = n_train + n_valid + n_test
    if total > len(dataset.patients):
        raise ValueError(f"split counts {counts} exceed {len(dataset.patients)} patients")
    order = np.random.default_rng(seed).permutation(len(dataset.patients))
    for p in dataset.patients:
        p.split = None
    for pos, ix in enumerate(order):
        if pos < n_train:
            dataset.patients[ix].split = "train"
        elif pos < n_train + n_valid:
            dataset.patients[ix].split = "valid"
        elif pos < total:
            dataset.patients[ix].split = "test"
    return dataset


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass
class GeneratorConfig:
    levels: int = 5
    roots: int = 3
    branching: int = 3
    patients: int = 300
    visits: tuple[int, int] = (2, 5)
    codes_per_visit: tuple[int, int] = (3, 8)
    clusters: int = 12
    cluster_level: int = 3
    partner_weight: float = 0.3
    noise_rate: float = 0.05
    p_persist: float = 0.6
    background_words: int = 30
    words_per_cluster: int = 12
    words_per_note: tuple[int, int] = (15, 40)
    cluster_word_rate: float = 0.35
    partner_note_rate: float = 0.3
    hf_cluster: int = 0

    def __post_init__(self):
        for name in ("visits", "codes_per_visit", "words_per_note"):
            if len(getattr(self, name)) != 2:
                raise ValueError(f"{name} needs two values (low, high), "
                                 f"got {getattr(self, name)}")
        if self.levels < 2 or self.roots < 1 or not 1 <= self.branching <= 9:
            raise ValueError("need levels >= 2, roots >= 1, 1 <= branching <= 9")
        if self.roots > 99:
            raise ValueError("at most 99 roots")
        if self.visits[0] < 2 or self.visits[0] > self.visits[1]:
            raise ValueError("visit range must start at 2 or more")
        if self.codes_per_visit[0] < 1 or self.codes_per_visit[0] > self.codes_per_visit[1]:
            raise ValueError("bad codes-per-visit range")
        if not 1 <= self.cluster_level <= self.levels:
            raise ValueError("cluster_level must lie in [1, levels]")
        n_cluster_nodes = self.roots * self.branching ** (self.cluster_level - 1)
        if self.clusters < 2 or self.clusters > n_cluster_nodes:
            raise ValueError(
                f"need 2..{n_cluster_nodes} clusters at level {self.cluster_level}")
        n_leaves = self.roots * self.branching ** (self.levels - 1)
        if self.codes_per_visit[1] > n_leaves:
            raise ValueError(
                f"codes per visit up to {self.codes_per_visit[1]} but only {n_leaves} leaves")
        if not 0.0 <= self.p_persist <= 1.0:
            raise ValueError("p_persist must lie in [0, 1]")
        if not 0.0 <= self.partner_note_rate <= 1.0:
            raise ValueError("partner_note_rate must lie in [0, 1]")
        if self.partner_weight + self.noise_rate >= 1.0:
            raise ValueError("partner_weight + noise_rate must stay below 1")


def _build_tree_edges(cfg: GeneratorConfig) -> list[tuple[str, str | None]]:
    edges: list[tuple[str, str | None]] = []
    frontier = []
    for r in range(cfg.roots):
        name = f"c{r:02d}"
        edges.append((name, None))
        frontier.append(name)
    for _ in range(cfg.levels - 1):
        nxt = []
        for parent in frontier:
            for b in range(cfg.branching):
                name = f"{parent}.{b}"
                edges.append((name, parent))
                nxt.append(name)
        frontier = nxt
    return edges


def _plugin_mi(x: np.ndarray, y: np.ndarray) -> float:
    """Plug-in mutual information between two discrete samples, in nats."""
    n = x.size
    mi = 0.0
    for xv in np.unique(x):
        px = np.mean(x == xv)
        for yv in np.unique(y):
            pxy = np.mean((x == xv) & (y == yv))
            if pxy > 0:
                py = np.mean(y == yv)
                mi += pxy * math.log(pxy / (px * py))
    return mi


def generate_synthetic(cfg: GeneratorConfig, seed: int, out_dir) -> dict:
    """Write an ontology file, a dataset file, and a manifest; return the manifest.

    Deterministic in (cfg, seed): identical inputs give byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    edges = _build_tree_edges(cfg)
    tree = load_ontology(edges)
    leaves = tree.leaf_ids
    n_leaves = len(leaves)

    cluster_nodes_all = tree.level_nodes[cfg.cluster_level]
    picks = np.sort(rng.choice(len(cluster_nodes_all), size=cfg.clusters, replace=False))
    cluster_nodes = [cluster_nodes_all[i] for i in picks]
    cluster_ranks = tree.ancestors[:, cfg.cluster_level - 1]
    cluster_leaves = [np.flatnonzero(cluster_ranks == rank) for rank in picks]
    partner = [(i + cfg.clusters // 2) % cfg.clusters for i in range(cfg.clusters)]

    pool_probs = []
    for c in range(cfg.clusters):
        p = np.full(n_leaves, cfg.noise_rate / n_leaves)
        own, other = cluster_leaves[c], cluster_leaves[partner[c]]
        p[own] += (1.0 - cfg.partner_weight - cfg.noise_rate) / own.size
        p[other] += cfg.partner_weight / other.size
        pool_probs.append(p / p.sum())

    cluster_words = [
        [f"sym{c:02d}w{j:02d}" for j in range(cfg.words_per_cluster)]
        for c in range(cfg.clusters)
    ]
    background = [f"bg{j:03d}" for j in range(cfg.background_words)]

    def draw_codes(probs, count, exclude):
        taken = set(exclude)
        # cap at the pool's support so degenerate mixtures cannot stall
        available = np.count_nonzero(probs) - sum(1 for c in taken if probs[c] > 0)
        count = min(count, available)
        chosen = []
        while len(chosen) < count:
            c = int(rng.choice(n_leaves, p=probs))
            if c not in taken:
                taken.add(c)
                chosen.append(c)
        return chosen

    patients = []
    primary = np.empty(cfg.patients, dtype=np.int64)
    for u in range(cfg.patients):
        cluster = int(rng.integers(cfg.clusters))
        primary[u] = cluster
        n_visits = int(rng.integers(cfg.visits[0], cfg.visits[1] + 1))
        visits = []
        prev: list[int] = []
        for t in range(n_visits):
            target = int(rng.integers(cfg.codes_per_visit[0], cfg.codes_per_visit[1] + 1))
            if t == 0:
                codes = draw_codes(pool_probs[cluster], target, ())
            else:
                kept = [c for c in prev if rng.random() < cfg.p_persist]
                n_new = int(rng.binomial(target, 1.0 - cfg.p_persist))
                if not kept and n_new == 0:
                    n_new = 1
                codes = kept + draw_codes(pool_probs[cluster], n_new, kept)
            prev = codes
            n_words = int(rng.integers(cfg.words_per_note[0], cfg.words_per_note[1] + 1))
            note = []
            if n_words and rng.random() < cfg.cluster_word_rate:
                # at most one cluster-indicative token per note keeps its
                # TF-IDF target uniquely at the ceiling; it hints at the
                # partner cluster with probability partner_note_rate
                src = partner[cluster] if rng.random() < cfg.partner_note_rate else cluster
                note.append(cluster_words[src][int(rng.integers(cfg.words_per_cluster))])
            while len(note) < n_words:
                note.append(background[int(rng.integers(cfg.background_words))])
            note = [str(w) for w in rng.permutation(note)] if n_words else []
            visits.append(Visit([leaves[c] for c in codes], note))
        patients.append(Patient(f"p{u:05d}", visits))

    dataset = EhrDataset(patients)
    ontology_path = out_dir / "ontology.tsv"
    dataset_path = out_dir / "dataset.jsonl"
    save_ontology(tree, ontology_path)
    save_dataset(dataset, dataset_path)

    # signal and shape statistics, reported for inspection
    visit_counts = [len(p.visits) for p in patients]
    code_counts = [len(v.codes) for p in patients for v in p.visits]
    hf_prefix = cluster_nodes[cfg.hf_cluster % cfg.clusters]
    hf_rate = float(np.mean([
        any(c.startswith(hf_prefix) for c in p.label_visit.codes) for p in patients
    ]))
    mi_values = []
    label_sets = [set(tree.resolve(p.label_visit.codes, p.pid)) for p in patients]
    for c in rng.choice(n_leaves, size=min(40, n_leaves), replace=False):
        present = np.array([int(c in s) for s in label_sets])
        mi_values.append(_plugin_mi(primary, present))

    manifest = {
        "generator": asdict(cfg),
        "seed": seed,
        "files": {"ontology": ontology_path.name, "dataset": dataset_path.name},
        "hf_prefix": hf_prefix,
        "cluster_nodes": cluster_nodes,
        "stats": {
            "patients": cfg.patients,
            "leaves": n_leaves,
            "avg_visits_per_patient": float(np.mean(visit_counts)),
            "avg_codes_per_visit": float(np.mean(code_counts)),
            "mimic3_reference_avg_codes_per_visit": 13.27,
            "hf_label_rate": hf_rate,
            "cluster_label_mi_mean_nats": float(np.mean(mi_values)),
        },
    }
    manifest_path = out_dir / "dataset.manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest["files"]["manifest"] = manifest_path.name
    return manifest
