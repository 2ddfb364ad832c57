import math

import numpy as np
import pytest

from cgl import text


def test_tokenize_basic():
    assert text.tokenize("Acute CHF.") == ["acute", "chf"]
    assert text.tokenize("") == []
    assert text.tokenize("BP 120/80, afebrile!") == ["bp", "120", "80", "afebrile"]


def test_tokenize_truncates_to_limit():
    raw = " ".join(f"w{i}" for i in range(60_000))
    assert len(text.tokenize(raw)) == 50_000


def test_fit_vocabulary_document_frequencies():
    vocab = text.fit_vocabulary([["a", "b", "a"], ["b", "c"]])
    assert vocab.doc_count == 2
    assert vocab.doc_freq == {"a": 1, "b": 2, "c": 1}
    vocab3 = text.fit_vocabulary([["x"], ["y"], ["y", "z"]])
    assert vocab3.doc_freq["x"] == 1


def test_fit_vocabulary_sorted_indices_and_refit_identity():
    docs = [["beta", "alpha"], ["gamma", "alpha"]]
    v1 = text.fit_vocabulary(docs)
    v2 = text.fit_vocabulary(docs)
    assert v1.word_index == {"alpha": 0, "beta": 1, "gamma": 2}
    assert v1 == v2


def test_fit_vocabulary_empty_corpus():
    with pytest.raises(ValueError):
        text.fit_vocabulary([])


def test_beta_ubiquitous_word_hits_floor():
    vocab = text.fit_vocabulary([["common", "x"], ["common", "y"]])
    beta = text.tfidf_beta(["common"], vocab)
    assert beta.shape == (1,)
    assert beta[0] == text.BETA_EPS  # idf = ln(D/D) = 0, clamped up


def test_beta_unique_word_hits_ceiling():
    vocab = text.fit_vocabulary([["zeta", "zeta"], ["other"]])
    beta = text.tfidf_beta(["zeta", "zeta"], vocab)
    assert np.all(beta == 1.0 - text.BETA_EPS)


def test_beta_three_document_fixture_hand_computed():
    # corpus: d1 = [apple apple cat], d2 = [cat dog], d3 = [dog egg apple]
    # df: apple 2, cat 2, dog 2, egg 1; D = 3
    docs = [["apple", "apple", "cat"], ["cat", "dog"], ["dog", "egg", "apple"]]
    vocab = text.fit_vocabulary(docs)
    note = ["apple", "apple", "cat"]
    # raw tf*idf: apple = (2/3) ln(3/2) twice, cat = (1/3) ln(3/2)
    # max = (2/3) ln(3/2), so beta = [1, 1, 0.5] before clamping
    beta = text.tfidf_beta(note, vocab)
    eps = text.BETA_EPS
    assert abs(beta[0] - (1.0 - eps)) < 1e-12
    assert abs(beta[1] - (1.0 - eps)) < 1e-12
    assert abs(beta[2] - 0.5) < 1e-12

    note2 = ["egg", "apple", "dog"]
    raw = np.array([
        (1 / 3) * math.log(3 / 1),
        (1 / 3) * math.log(3 / 2),
        (1 / 3) * math.log(3 / 2),
    ])
    expected = np.clip(raw / raw.max(), eps, 1 - eps)
    assert np.max(np.abs(text.tfidf_beta(note2, vocab) - expected)) < 1e-12


def test_beta_unseen_word_treated_as_everywhere():
    vocab = text.fit_vocabulary([["a"], ["b"]])
    beta = text.tfidf_beta(["martian", "a"], vocab)
    assert beta[0] == text.BETA_EPS  # unseen: df treated as D, idf 0
    assert beta[1] == 1.0 - text.BETA_EPS


def test_beta_empty_note():
    vocab = text.fit_vocabulary([["a"]])
    assert text.tfidf_beta([], vocab).shape == (0,)


def test_beta_bounds_and_equal_words_equal_weights():
    rng = np.random.default_rng(2)
    words = [f"w{i}" for i in range(12)]
    docs = [list(rng.choice(words, size=6)) for _ in range(5)]
    vocab = text.fit_vocabulary(docs)
    for doc in docs:
        beta = text.tfidf_beta(doc, vocab)
        assert np.all(beta >= text.BETA_EPS) and np.all(beta <= 1 - text.BETA_EPS)
        for i, wi in enumerate(doc):
            for j, wj in enumerate(doc):
                if wi == wj:
                    assert beta[i] == beta[j]
    # equal count and equal df imply equal weight even across words
    vocab2 = text.fit_vocabulary([["p", "q"], ["r"]])
    b = text.tfidf_beta(["p", "q"], vocab2)
    assert b[0] == b[1]


def test_beta_scale_invariance_via_note_repetition():
    # doubling every count doubles every raw score and leaves beta unchanged
    vocab = text.fit_vocabulary([["a", "b"], ["b", "c"], ["c", "d"]])
    note = ["a", "b", "c"]
    doubled = note + note
    b1 = text.tfidf_beta(note, vocab)
    b2 = text.tfidf_beta(doubled, vocab)
    assert np.max(np.abs(b2 - np.concatenate([b1, b1]))) < 1e-15


def read_vocabulary(path, doc_count: int) -> text.Vocabulary:
    """Reader of the ``word<TAB>index<TAB>df`` file that ``save_vocabulary``
    writes: the oracle for the round trip."""
    word_index: dict[str, int] = {}
    doc_freq: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            word, ix, df = line.rstrip("\n").split("\t")
            word_index[word] = int(ix)
            doc_freq[word] = int(df)
    return text.Vocabulary(word_index, doc_freq, doc_count)


def test_vocabulary_roundtrip(tmp_path):
    vocab = text.fit_vocabulary([["a", "b"], ["b"]])
    path = tmp_path / "vocab.tsv"
    text.save_vocabulary(vocab, path)
    assert path.read_text(encoding="utf-8") == "a\t0\t1\nb\t1\t2\n"
    back = read_vocabulary(path, vocab.doc_count)
    assert back == vocab
