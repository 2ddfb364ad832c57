"""Collaborative graph network over patients, diagnosis codes, and notes.

One forward pass:

1. Code base embeddings: each code concatenates the embeddings of its K
   hierarchy ancestors (or reads a free per-code table when the hierarchical
   embedding is ablated).
2. Graph layers: patients aggregate their observed codes, codes aggregate
   their observing patients plus hierarchy-linked codes weighted by a learned
   per-source-code sigmoid of the link level; each side then passes through a
   linear map, batch normalization, and ReLU. The last layer produces code
   features only. The graphs are sparse (CSR), and the link weights exist
   only on the links, so this step costs O(nnz), not O(codes^2).
3. Per patient: each feature visit embeds as the mean of its codes' final
   features (one pooling op for every visit of a batch), a GRU consumes the
   visit sequence (one op per visit count), and a location attention over
   the GRU states yields the visit summary o_v.
4. The latest note's word embeddings are projected and attended with o_v as
   the context; the attention weights are pulled toward per-note TF-IDF
   targets by a rectification penalty added to the loss.
   Steps 3-4 run a batch by length (``by_length``): the patients with T visits
   form one :class:`Stack`, as do the notes with L tokens, and one concat and
   one gather (``in_batch_order``) put the stacks' o_v, o_n and penalty terms
   back in batch order. Each item keeps every bit of running alone: numpy
   multiplies a stacked (B, 1, d) @ (d, h) item by item with the kernel of a
   lone (1, d) product, where the row-batched (B, d) @ (d, h) would not.
5. A sigmoid head on [o_v, o_n] scores all codes (or the binary event) as one
   (N, 1, 2h) stack in batch order; at thousands of codes the stack runs one
   cache-sized column block of the head weight at a time (``autodiff.matmul``).
   The loss is mean cross-entropy plus the weighted penalty, each summed over
   the patients in batch order, left to right. Evaluation ranks the scores
   with one top-k selection, ``metrics.top_codes``, shared by every k.

Inference freezes the trained code features and re-runs only steps 3-5, so
patients outside the training graph need no patient embedding. Those steps
live in :class:`FrozenScorer`; :class:`CollaborativeGraphModel` extends it
with steps 1-2 and training, so training and inference share one patient
encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import sparse

from . import autodiff as ad
from .data import EhrDataset, Visit, dense_rows
from .graphs import ObservationGraph, OntologyAdjacency
from .ontology import CodeIndex, OntologyTree
from .text import MAX_NOTE_TOKENS, Vocabulary, tfidf_beta
from . import metrics as metrics_mod

__all__ = [
    "ModelConfig",
    "ModelParams",
    "FrozenScorer",
    "CollaborativeGraphModel",
    "PatientExample",
    "Stack",
    "AdamOptimizer",
    "TrainingDivergenceError",
    "default_note_loss_weight",
    "aggregate",
    "attend",
    "by_length",
    "in_batch_order",
    "rectified_penalty",
    "build_example",
    "prepare_examples",
    "fit",
    "predict_scores",
    "compute_metrics",
]

CLAMP_EPS = 1e-6


class TrainingDivergenceError(RuntimeError):
    """Loss became non-finite during training."""


def default_note_loss_weight(task: str) -> float:
    return 0.3 if task == "diagnosis" else 0.1


def _fits_default(value, default) -> bool:
    """Whether ``value`` has the type of a config field's ``default``: a bool
    is not an int, an int serves for a float, a tuple is a sequence of ints."""
    if isinstance(default, tuple):
        return isinstance(value, (tuple, list)) and all(_fits_default(v, 0) for v in value)
    if isinstance(default, (bool, str)):
        return isinstance(value, type(default))
    allowed = (int, float) if isinstance(default, float) else int
    return isinstance(value, allowed) and not isinstance(value, bool)


@dataclass
class ModelConfig:
    task: str = "diagnosis"
    code_dim: int = 32
    patient_dim: int = 16
    word_dim: int = 16
    patient_layer_dims: tuple[int, ...] = (32,)
    code_layer_dims: tuple[int, ...] = (64, 128)
    gru_hidden: int = 200
    note_loss_weight: float = 0.3
    learning_rate: float = 1e-3
    epochs: int = 200
    batch_size: int = 32
    use_hierarchical_embedding: bool = True
    use_notes: bool = True
    use_ontology_weights: bool = True
    use_observation_graph: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _fits_default(value, f.default):
                raise ValueError(f"config key {f.name!r} needs a {type(f.default).__name__}, "
                                 f"got {value!r}")
        self.patient_layer_dims = tuple(self.patient_layer_dims)
        self.code_layer_dims = tuple(self.code_layer_dims)
        if self.task not in ("diagnosis", "heart_failure"):
            raise ValueError(f"unknown task {self.task!r}")
        if not self.code_layer_dims:
            raise ValueError("need at least one graph layer")
        if len(self.patient_layer_dims) != len(self.code_layer_dims) - 1:
            raise ValueError("patient side has one layer fewer than the code side")
        dims = (self.code_dim, self.patient_dim, self.word_dim, self.gru_hidden,
                *self.patient_layer_dims, *self.code_layer_dims)
        if any(d < 1 for d in dims):
            raise ValueError("all dimensions must be positive")
        if self.note_loss_weight < 0:
            raise ValueError("note_loss_weight must be non-negative")

    @property
    def num_layers(self) -> int:
        return len(self.code_layer_dims)


@dataclass
class ModelParams:
    """All trainable arrays plus per-layer batch-norm running state."""

    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    bn: dict[str, ad.BatchNormState] = field(default_factory=dict)

    def add(self, name: str, values: np.ndarray) -> None:
        self.arrays[name] = np.asarray(values, dtype=np.float64)


def _glorot(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    a = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-a, a, size=(rows, cols))


@dataclass
class PatientExample:
    """One patient's model inputs, resolved to dense indices."""

    pid: str
    visit_codes: list[np.ndarray]  # sorted unique leaf indices per feature visit
    note_tokens: np.ndarray  # word indices of the latest feature visit's note
    beta: np.ndarray  # TF-IDF attention targets aligned with note_tokens
    positives: np.ndarray  # sorted output indices labelled 1 (see ``make_labels``)


@dataclass
class Stack:
    """The items of a batch that share a length, run as one stack: the
    patients of a visit count T or the notes of a token count L. ``members``
    are their batch positions, in batch order; ``alpha`` is their (B, 1, T)
    location or (B, 1, L) note attention."""

    members: np.ndarray
    alpha: ad.Tensor


def build_example(pid: str, visits: list[Visit], positives: list[int],
                  tree: CodeIndex, vocab: Vocabulary) -> PatientExample:
    """Resolve one patient's feature visits to dense indices.

    The last visit supplies the note. Tokens outside the vocabulary are
    dropped (they have no embedding row); the TF-IDF targets are computed on
    the same filtered sequence so the penalty stays aligned with the
    attention weights. A code outside the index is a ``DataError`` naming
    the code and the patient.
    """
    if not visits:
        raise ValueError(f"patient {pid} has no feature visits")
    visit_codes = []
    for v in visits:
        idx = np.array(sorted(set(tree.resolve(v.codes, pid))), dtype=np.intp)
        if idx.size == 0:
            raise ValueError(f"patient {pid} has an empty visit")
        visit_codes.append(idx)
    note = [w for w in visits[-1].note[:MAX_NOTE_TOKENS] if w in vocab]
    return PatientExample(
        pid=pid,
        visit_codes=visit_codes,
        note_tokens=np.array([vocab.word_index[w] for w in note], dtype=np.intp),
        beta=tfidf_beta(note, vocab),
        positives=np.array(positives, dtype=np.intp),
    )


def prepare_examples(dataset: EhrDataset, split: str | None, tree: CodeIndex,
                     vocab: Vocabulary, labels: dict[str, list[int]]) -> list[PatientExample]:
    """One example per patient of a split (every patient for ``split=None``)."""
    patients = dataset.patients if split is None else dataset.split_patients(split)
    return [build_example(p.pid, p.feature_visits, labels[p.pid], tree, vocab)
            for p in patients]


# ---------------------------------------------------------------------------
# network pieces


def aggregate(h_p, h_c, obs, obs_t, links, phi, w_code_to_patient, w_patient_to_code):
    """One round of collaborative aggregation before the layer maps.

    z_c = h_c + obs^T @ h_p @ W' + phi @ h_c,  z_p = h_p + obs @ h_c @ W.
    ``obs`` and ``obs_t`` are the binary CSR observation graph and its
    transpose; the phi matrix is the CSR ``links`` pattern with the per-link
    weights ``phi`` as its values. With an empty observation graph and zero
    phi both reduce to the inputs.
    The last layer passes ``w_code_to_patient=None`` and gets ``z_p = None``.
    z_c is recorded first: the tape order fixes the order in which backward
    sums gradients, and so their last bits.
    """
    z_c = ad.add(ad.add(h_c, ad.matmul(ad.spmm(obs_t, obs_t.data, h_p), w_patient_to_code)),
                 ad.spmm(links, phi, h_c))
    if w_code_to_patient is None:
        return None, z_c
    z_p = ad.add(h_p, ad.matmul(ad.spmm(obs, obs.data, h_c), w_code_to_patient))
    return z_p, z_c


def rectified_penalty(alpha: ad.Tensor, beta: np.ndarray) -> ad.Tensor:
    """Cross-entropy-style pull of attention weights toward TF-IDF targets,
    one term per note: the last axis holds a note's tokens, so a (B, 1, L)
    stack gives (B, 1) terms and a lone (L,) note a scalar.

    The summed form -sum(alpha ln beta + (1 - alpha) ln(1 - beta)) is linear in
    alpha, so over the softmax simplex it is smallest with all the weight on
    the highest-beta token; it does not pull alpha toward beta itself.

    beta must already be clamped inside (0, 1). An empty note contributes 0.
    Each stack row sums like a lone note, so a term has the bits of that note's.
    """
    if alpha.values.shape != beta.shape:
        raise ValueError(
            f"attention shape {alpha.values.shape} != target shape {beta.shape}")
    ln_b = ad.constant(np.log(beta))
    ln_1b = ad.constant(np.log1p(-beta))
    inner = ad.add(ad.mul(alpha, ln_b), ad.mul(ad.sub(1.0, alpha), ln_1b))
    return ad.mul(ad.reduce_sum(inner, axis=-1), -1.0)


def attend(scores: ad.Tensor, values: ad.Tensor) -> tuple[ad.Tensor, ad.Tensor]:
    """Attention of a stack of B items over n positions: the (B, n, ...)
    ``scores`` reshaped to (B, 1, n), their softmax over the last axis, and the
    (B, 1, n) @ (B, n, h) summaries of ``values``. Returns the weights and the
    summaries. numpy runs each item of a stacked product with the kernel of a
    lone one, and sums each row of the softmax as it sums a lone row, so every
    item keeps the bits of its sequence run alone."""
    b, n = scores.shape[:2]
    alpha = ad.softmax(ad.reshape(scores, (b, 1, n)), axis=-1)
    return alpha, ad.matmul(alpha, values)


def by_length(lengths: np.ndarray, run) -> tuple[list[Stack], list[ad.Tensor]]:
    """Each nonzero length n of ``lengths`` as one stack, in increasing n:
    ``run(members, n)`` gets the batch positions of that length and returns
    the stack's (B, 1, n) attention and its (B, ...) rows. Returns the stacks
    and their rows."""
    stacks, rows = [], []
    for n in np.unique(lengths[lengths > 0]):
        members = np.flatnonzero(lengths == n)
        alpha, out = run(members, n)
        stacks.append(Stack(members, alpha))
        rows.append(out)
    return stacks, rows


def in_batch_order(stacks: list[Stack], rows: list[ad.Tensor], shape) -> ad.Tensor:
    """The stacks' ``rows`` as one tensor of ``shape`` in batch order: one
    concat and one gather. An item in no stack gets a zero row."""
    if not stacks:
        return ad.constant(np.zeros(shape))
    members = np.concatenate([s.members for s in stacks])
    slot = np.full(shape[0], members.size, dtype=np.intp)
    slot[members] = np.arange(members.size)
    if members.size < shape[0]:
        rows = [*rows, ad.constant(np.zeros((1, *shape[1:])))]
    return ad.gather_rows(ad.concat(rows), slot)


class FrozenScorer:
    """Steps 3-5 on frozen code features: the inference path.

    Holds the config, the frozen code features and the temporal, note and
    head arrays named by :meth:`array_shapes`. ``load_checkpoint`` builds one
    straight from a checkpoint, without the graphs.
    """

    def __init__(self, config: ModelConfig, params: ModelParams,
                 frozen_code_repr: np.ndarray | None = None):
        self.config = config
        self.params = params
        self.frozen_code_repr = frozen_code_repr

    @staticmethod
    def array_shapes(config: ModelConfig, n_codes: int,
                     vocab_size: int) -> dict[str, tuple[int, ...]]:
        """The shape the config implies for every array a scorer reads."""
        d_in, h = config.code_layer_dims[-1], config.gru_hidden
        out_dim = n_codes if config.task == "diagnosis" else 1
        shapes = {"frozen_code_repr": (n_codes, d_in)}
        for gate in ("update", "reset", "cand"):
            shapes[f"gru_in_{gate}"] = (d_in, h)
            shapes[f"gru_state_{gate}"] = (h, h)
            shapes[f"gru_bias_{gate}"] = (h,)
        shapes.update(visit_context=(h,), word_embed=(vocab_size, config.word_dim),
                      word_proj=(config.word_dim, h), head_weight=(2 * h, out_dim),
                      head_bias=(out_dim,))
        return shapes

    def _constants(self) -> dict[str, ad.Tensor]:
        return {name: ad.constant(arr) for name, arr in self.params.arrays.items()}

    @staticmethod
    def pool_visits(h_c: ad.Tensor, examples: list[PatientExample]) -> ad.Tensor:
        """Every feature visit of ``examples``, in order, as the mean of its
        codes' rows of ``h_c``: one (visits, d) op for the whole batch."""
        return ad.group_mean(h_c, [idx for ex in examples for idx in ex.visit_codes])

    def encode_visits(self, leaves, visits: ad.Tensor, positions: np.ndarray):
        """GRU (one ``autodiff.gru_sequence``) over B patients' visit
        sequences of one length T, plus location attention. Row b of the
        (B, T) ``positions`` lists the rows of ``visits`` that hold patient
        b's visits, in order. Returns the (B, T, h) states, the (B, 1, T)
        attention and the (B, 1, h) summaries o_v."""
        rows = ad.gru_sequence(visits, positions, [leaves[f"gru_{part}_{gate}"]
                                                   for gate in ("update", "reset", "cand")
                                                   for part in ("in", "state", "bias")])
        return rows, *attend(ad.matmul(rows, leaves["visit_context"]), rows)

    def note_attention(self, leaves, notes: list[np.ndarray], o_v: ad.Tensor):
        """Attention over each note's projected word embeddings, with row i of
        the (N, h, 1) ``o_v`` as the context of ``notes[i]``.

        The notes of one token count L run as one stack: the (B, L, w) words,
        their (B, L, w) @ (w, h) projection, the (B, L, h) @ (B, h, 1) scores
        and ``attend``. Returns the note :class:`Stack` s in increasing L and
        the (N, 1, h) summaries o_n, zero for an empty note.
        """
        def run(members, _):
            words = ad.gather_rows(leaves["word_embed"], np.stack([notes[i] for i in members]))
            proj = ad.matmul(words, leaves["word_proj"])
            return attend(ad.matmul(proj, ad.gather_rows(o_v, members)), proj)

        stacks, o_n = by_length(np.array([len(tokens) for tokens in notes]), run)
        return stacks, in_batch_order(stacks, o_n, (len(notes), 1, self.config.gru_hidden))

    def patient_forward(self, leaves, visits: ad.Tensor, examples: list[PatientExample]
                        ) -> tuple[ad.Tensor, list[Stack], list[Stack]]:
        """Scores and attention for a batch whose pooled visits are the rows
        of ``visits``, in ``pool_visits`` order: the GRU and the location
        attention run once per visit count (a bucket), ``note_attention`` and
        the head once on the batch. Returns the (N, 1, out) scores in batch
        order, the buckets and the note stacks."""
        lengths = np.array([len(ex.visit_codes) for ex in examples])
        firsts = np.cumsum(lengths) - lengths
        buckets, o_v = by_length(lengths, lambda members, steps: self.encode_visits(
            leaves, visits, firsts[members, None] + np.arange(steps))[1:])
        n, h = len(examples), self.config.gru_hidden
        o_v = in_batch_order(buckets, o_v, (n, 1, h))
        stacks, o_n = [], ad.constant(np.zeros((n, 1, h)))
        if self.config.use_notes:
            stacks, o_n = self.note_attention(leaves, [ex.note_tokens for ex in examples],
                                              ad.reshape(o_v, (n, h, 1)))
        logits = ad.add(ad.matmul(ad.concat([o_v, o_n], axis=2), leaves["head_weight"]),
                        leaves["head_bias"])
        return ad.sigmoid(logits), buckets, stacks

    def predict_examples(self, examples: list[PatientExample]):
        """Frozen-feature scores and note attention for each patient, run in
        chunks of ``config.batch_size`` patients: each chunk's visits are
        pooled in one op and encoded as one batch."""
        if self.frozen_code_repr is None:
            raise RuntimeError("freeze_code_embeddings() must run before inference")
        leaves = self._constants()
        frozen = ad.constant(self.frozen_code_repr)
        scores, alphas = [], [None] * len(examples)
        for start in range(0, len(examples), self.config.batch_size):
            chunk = examples[start:start + self.config.batch_size]
            y_hat, _, stacks = self.patient_forward(leaves, self.pool_visits(frozen, chunk), chunk)
            scores.extend(y_hat.values[:, 0])
            for stack in stacks:
                for b, i in enumerate(stack.members):
                    alphas[start + i] = stack.alpha.values[b, 0].copy()
        return list(zip(scores, alphas))


class CollaborativeGraphModel(FrozenScorer):
    """The trainable model: the graph layers (steps 1-2) on top of the scorer.

    ``freeze_code_embeddings`` sets the scorer's code features from an
    inference-mode graph pass over the current arrays.
    """

    def __init__(self, config: ModelConfig, tree: OntologyTree,
                 observation: ObservationGraph, adjacency: OntologyAdjacency,
                 vocab_size: int, seed: int = 0):
        self.config = config
        self.tree = tree
        self.n_codes = tree.n_leaves
        self.n_patients = observation.matrix.shape[0]
        self.vocab_size = vocab_size
        self.obs = (observation.matrix if config.use_observation_graph
                    else sparse.csr_matrix(observation.matrix.shape))
        self.obs_t = self.obs.T.tocsr()
        self.links = adjacency.adjacency  # CSR; each stored value is the link's LCA level

        super().__init__(config, self._init_params(np.random.default_rng(seed)))

    # -- parameters --------------------------------------------------------

    def _init_params(self, rng: np.random.Generator) -> ModelParams:
        cfg = self.config
        p = ModelParams()
        k = self.tree.levels
        if cfg.use_hierarchical_embedding:
            for lvl in range(1, k + 1):
                n_lvl = self.tree.level_sizes.get(lvl, 0)
                p.add(f"level_embed_{lvl}", _glorot(rng, n_lvl, cfg.code_dim))
        else:
            p.add("code_embed", _glorot(rng, self.n_codes, k * cfg.code_dim))
        p.add("patient_embed", _glorot(rng, self.n_patients, cfg.patient_dim))
        p.add("onto_slope", np.zeros(self.n_codes))
        p.add("onto_shift", np.zeros(self.n_codes))

        code_dims = (k * cfg.code_dim, *cfg.code_layer_dims)
        patient_dims = (cfg.patient_dim, *cfg.patient_layer_dims)
        for l in range(cfg.num_layers):
            last = l == cfg.num_layers - 1
            if not last:
                p.add(f"graph_{l}_code_to_patient", _glorot(rng, code_dims[l], patient_dims[l]))
                p.add(f"graph_{l}_patient_out", _glorot(rng, patient_dims[l], patient_dims[l + 1]))
                p.add(f"graph_{l}_bn_patient_scale", np.ones(patient_dims[l + 1]))
                p.add(f"graph_{l}_bn_patient_shift", np.zeros(patient_dims[l + 1]))
                p.bn[f"graph_{l}_bn_patient"] = ad.BatchNormState(patient_dims[l + 1])
            p.add(f"graph_{l}_patient_to_code", _glorot(rng, patient_dims[l], code_dims[l]))
            p.add(f"graph_{l}_code_out", _glorot(rng, code_dims[l], code_dims[l + 1]))
            p.add(f"graph_{l}_bn_code_scale", np.ones(code_dims[l + 1]))
            p.add(f"graph_{l}_bn_code_shift", np.zeros(code_dims[l + 1]))
            p.bn[f"graph_{l}_bn_code"] = ad.BatchNormState(code_dims[l + 1])

        shapes = self.array_shapes(cfg, self.n_codes, self.vocab_size)
        del shapes["frozen_code_repr"]
        for name, shape in shapes.items():  # this order fixes the draws; biases start at 0
            p.add(name, np.zeros(shape) if "bias" in name
                  else _glorot(rng, shape[0], math.prod(shape[1:])).reshape(shape))
        return p

    def _leaves(self, tape: ad.Tape) -> dict[str, ad.Tensor]:
        return {name: tape.leaf(arr) for name, arr in self.params.arrays.items()}

    # -- graph side ---------------------------------------------------------

    def code_base_embedding(self, leaves) -> ad.Tensor:
        if not self.config.use_hierarchical_embedding:
            return leaves["code_embed"]
        return ad.concat([
            ad.gather_rows(leaves[f"level_embed_{lvl + 1}"], self.tree.ancestors[:, lvl])
            for lvl in range(self.tree.levels)
        ], axis=1)

    def ontology_weights(self, leaves) -> ad.Tensor:
        """sigmoid(slope_j * level + shift_j) for each link (i, j) of ``links``,
        in its storage order; 1 per link when the weights are ablated.

        The slope/shift of the *source* code j (the link's column) apply,
        matching "assign a weight to c_j when aggregating c_j into c_i".
        """
        if not self.config.use_ontology_weights:
            return ad.constant(np.ones(self.links.nnz))
        slope = ad.gather_rows(leaves["onto_slope"], self.links.indices)
        shift = ad.gather_rows(leaves["onto_shift"], self.links.indices)
        return ad.sigmoid(ad.add(ad.mul(ad.constant(self.links.data), slope), shift))

    def graph_forward(self, leaves, mode: str, update_stats: bool) -> ad.Tensor:
        """Run all graph layers; returns the final code features."""
        h_p = leaves["patient_embed"]
        h_c = self.code_base_embedding(leaves)
        phi = self.ontology_weights(leaves)
        for l in range(self.config.num_layers):
            z_p, z_c = aggregate(h_p, h_c, self.obs, self.obs_t, self.links, phi,
                                 leaves.get(f"graph_{l}_code_to_patient"),
                                 leaves[f"graph_{l}_patient_to_code"])
            if z_p is not None:
                h_p = ad.relu(ad.batchnorm(
                    ad.matmul(z_p, leaves[f"graph_{l}_patient_out"]),
                    leaves[f"graph_{l}_bn_patient_scale"],
                    leaves[f"graph_{l}_bn_patient_shift"],
                    self.params.bn[f"graph_{l}_bn_patient"], mode, update_stats))
            h_c = ad.relu(ad.batchnorm(
                ad.matmul(z_c, leaves[f"graph_{l}_code_out"]),
                leaves[f"graph_{l}_bn_code_scale"],
                leaves[f"graph_{l}_bn_code_shift"],
                self.params.bn[f"graph_{l}_bn_code"], mode, update_stats))
        return h_c

    def freeze_code_embeddings(self) -> np.ndarray:
        """Cache inference-mode code features for graph-free prediction."""
        h_c = self.graph_forward(self._constants(), mode="infer", update_stats=False)
        self.frozen_code_repr = h_c.values.copy()
        return self.frozen_code_repr

    @staticmethod
    def _cross_entropy(y_hat: ad.Tensor, y: np.ndarray) -> ad.Tensor:
        """Mean cross-entropy over the last axis: one value per patient of a stack."""
        if y_hat.values.shape != y.shape:
            raise ValueError(f"prediction shape {y_hat.values.shape} != label shape {y.shape}")
        clamped = ad.clamp(y_hat, CLAMP_EPS, 1.0 - CLAMP_EPS)
        term = ad.add(ad.mul(ad.constant(y), ad.log(clamped)),
                      ad.mul(ad.constant(1.0 - y), ad.log(ad.sub(1.0, clamped))))
        return ad.mul(ad.reduce_mean(term, axis=-1), -1.0)

    def batch_loss(self, leaves, h_c: ad.Tensor, examples: list[PatientExample]):
        """Mean cross-entropy plus weighted mean note penalty over a batch.

        The per-patient terms are summed in batch order, left to right, as a
        running sum over the patients would; a patient without a note stack
        adds a penalty of +0.0, which changes no bit of the sum.
        """
        if not examples:
            raise ValueError("empty batch")
        y_hat, _, stacks = self.patient_forward(leaves, self.pool_visits(h_c, examples),
                                                examples)
        y = dense_rows([ex.positives for ex in examples], y_hat.values.shape[-1])
        ce = self._cross_entropy(y_hat, y[:, None])
        pen = [rectified_penalty(s.alpha, np.stack([examples[i].beta for i in s.members])[:, None])
               for s in stacks]
        n = len(examples)
        ce_mean = ad.mul(ad.fold_sum([ce]), 1.0 / n)
        pen_mean = ad.mul(ad.fold_sum([in_batch_order(stacks, pen, (n, 1))]), 1.0 / n)
        loss = ad.add(ce_mean, ad.mul(pen_mean, self.config.note_loss_weight))
        return loss, ce_mean, pen_mean

    # -- whole-pass entry points ---------------------------------------------

    def _train_pass(self, examples: list[PatientExample], update_stats: bool):
        """One train-mode pass on a fresh tape: leaves, loss, cross-entropy, penalty."""
        leaves = self._leaves(ad.Tape())
        h_c = self.graph_forward(leaves, mode="train", update_stats=update_stats)
        return leaves, *self.batch_loss(leaves, h_c, examples)

    def training_loss(self, examples: list[PatientExample]) -> tuple[float, float, float]:
        """Train-mode loss without updating anything (probe only)."""
        _, loss, ce, pen = self._train_pass(examples, update_stats=False)
        return loss.item(), ce.item(), pen.item()

    def loss_program(self, examples: list[PatientExample]):
        """A closure for gradient checking: rebuilds the train-mode loss."""
        def f():
            leaves, loss, _, _ = self._train_pass(examples, update_stats=False)
            return loss, leaves
        return f


# ---------------------------------------------------------------------------
# optimization and evaluation


class AdamOptimizer:
    def __init__(self, arrays: dict[str, np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.arrays = arrays
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, arr in self.arrays.items():
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            arr -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


def predict_scores(model: FrozenScorer, examples: list[PatientExample]) -> np.ndarray:
    """Frozen-feature scores, one row per example, from a scorer or a trained model."""
    return np.stack([scores for scores, _ in model.predict_examples(examples)])


def compute_metrics(scores: np.ndarray, examples: list[PatientExample], task: str,
                    ks=(20, 40), include_onset: bool = False,
                    top: np.ndarray | None = None) -> dict[str, float]:
    """The task's metrics; every top-k recall reads one top-k selection.

    ``top`` is ``metrics.top_codes(scores, max(ks))`` when the caller already has it.
    """
    labels = dense_rows([ex.positives for ex in examples], scores.shape[-1])
    out: dict[str, float] = {}
    if task == "diagnosis":
        if top is None:
            top = metrics_mod.top_codes(scores, max(ks, default=1))
        out["wf1"] = metrics_mod.weighted_f1(scores, labels)
        for k in ks:
            out[f"r{k}"] = metrics_mod.recall_at_k(scores, labels, k, top)
        if include_onset:
            occurred = dense_rows([np.concatenate(ex.visit_codes) for ex in examples],
                                  scores.shape[-1])
            for k in ks:
                occ, new = metrics_mod.onset_split_recall(scores, labels, occurred, k, top)
                out[f"occurred_r{k}"] = occ
                out[f"new_onset_r{k}"] = new
    else:
        try:
            out["auc"] = metrics_mod.auc(scores.ravel(), labels.ravel())
        except ValueError:
            out["auc"] = float("nan")
        out["f1"] = metrics_mod.binary_f1(scores.ravel(), labels.ravel())
    return out


def fit(model: CollaborativeGraphModel, train_examples: list[PatientExample],
        valid_examples: list[PatientExample] | None = None, *,
        epochs: int | None = None, batch_size: int | None = None, seed: int = 0,
        metric_ks=(20, 40), on_epoch=None) -> list[dict]:
    """Adam training over patient mini-batches.

    Every step runs the graph layers over the full graph, then the temporal
    and note path for the batch patients. After each epoch the code features
    are frozen and the validation split is scored with them through the
    scorer path on the model's own arrays, so the last history row matches a
    post-training evaluation exactly.
    """
    if not train_examples:
        raise ValueError("empty training split")
    cfg = model.config
    epochs = cfg.epochs if epochs is None else epochs
    batch_size = cfg.batch_size if batch_size is None else batch_size
    optimizer = AdamOptimizer(model.params.arrays, lr=cfg.learning_rate)
    rng = np.random.default_rng(seed)
    history: list[dict] = []
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(train_examples))
        losses = []
        for start in range(0, len(order), batch_size):
            batch = [train_examples[i] for i in order[start:start + batch_size]]
            leaves, loss, _, _ = model._train_pass(batch, update_stats=True)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDivergenceError(
                    f"non-finite loss {value} at epoch {epoch}")
            loss.backward()
            optimizer.step({name: leaves[name].grad for name in leaves})
            del leaves  # frees this step's gradients before the next forward pass
            losses.append(value)
        model.freeze_code_embeddings()
        row = {"epoch": epoch, "train_loss": float(np.mean(losses))}
        if valid_examples:
            scores = predict_scores(model, valid_examples)
            row.update(compute_metrics(scores, valid_examples, cfg.task, metric_ks))
        history.append(row)
        if on_epoch is not None:
            on_epoch(row)
    return history
