"""Note tokenization and per-note TF-IDF attention targets.

Each training patient's feature-visit notes, concatenated, form one document;
document frequencies come from that corpus. Per-note weights are raw tf*idf
scores normalized by the note's maximum and clamped into [eps, 1-eps] so they
can sit inside logarithms downstream.

The clamp also sets the scale of the note penalty: each note's top token has
beta = 1 - BETA_EPS, so its penalty term is -ln(BETA_EPS) * (1 - alpha), about
13.8 * (1 - alpha).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BETA_EPS",
    "MAX_NOTE_TOKENS",
    "Vocabulary",
    "tokenize",
    "fit_vocabulary",
    "tfidf_beta",
    "save_vocabulary",
]

BETA_EPS = 1e-6
MAX_NOTE_TOKENS = 50_000

_TOKEN = re.compile(r"[a-z0-9]+")


@dataclass
class Vocabulary:
    word_index: dict[str, int]
    doc_freq: dict[str, int]
    doc_count: int

    def __len__(self) -> int:
        return len(self.word_index)

    def __contains__(self, word: str) -> bool:
        return word in self.word_index


def tokenize(raw: str) -> list[str]:
    """Lowercase, split on non-alphanumeric runs, keep the first 50,000 tokens."""
    return _TOKEN.findall(raw.lower())[:MAX_NOTE_TOKENS]


def fit_vocabulary(documents) -> Vocabulary:
    """Fit word indices and document frequencies over token-list documents.

    A word counts once per document regardless of its frequency inside it.
    Indices are assigned in sorted word order, so refitting the same corpus
    reproduces the same vocabulary.
    """
    documents = list(documents)
    if not documents:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    doc_freq: dict[str, int] = {}
    for doc in documents:
        for word in set(doc):
            doc_freq[word] = doc_freq.get(word, 0) + 1
    word_index = {w: i for i, w in enumerate(sorted(doc_freq))}
    return Vocabulary(word_index, doc_freq, len(documents))


def tfidf_beta(note: list[str], vocab: Vocabulary) -> np.ndarray:
    """Per-token attention targets in [eps, 1-eps], aligned with ``note``.

    tf is the in-note count over the note length; idf is ln(D/df), with
    unseen words treated as df = D (idf 0). The raw scores are divided by the
    note's maximum (all-zero stays all-zero) and clamped.
    """
    if not note:
        return np.zeros(0, dtype=np.float64)
    counts: dict[str, int] = {}
    for w in note:
        counts[w] = counts.get(w, 0) + 1
    n = len(note)
    d = vocab.doc_count
    idf = {w: math.log(d / vocab.doc_freq.get(w, d)) for w in counts}
    raw = np.array([counts[w] / n * idf[w] for w in note], dtype=np.float64)
    peak = raw.max()
    if peak > 0:
        raw = raw / peak
    else:
        raw = np.zeros_like(raw)
    return np.clip(raw, BETA_EPS, 1.0 - BETA_EPS)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Write ``word<TAB>index<TAB>df`` lines in index order."""
    by_index = sorted(vocab.word_index.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8") as fh:
        for word, ix in by_index:
            fh.write(f"{word}\t{ix}\t{vocab.doc_freq[word]}\n")

