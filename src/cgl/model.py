"""Collaborative graph network over patients, diagnosis codes, and notes.

One forward pass:

1. Code base embeddings: each code concatenates the embeddings of its K
   hierarchy ancestors (or reads a free per-code table when the hierarchical
   embedding is ablated).
2. Graph layers: patients aggregate their observed codes, codes aggregate
   their observing patients plus hierarchy-linked codes weighted by a learned
   per-source-code sigmoid of the link level; each side then passes through a
   linear map, batch normalization, and ReLU. The last layer produces code
   features only.
3. Per patient: each feature visit embeds as the mean of its codes' final
   features, a GRU consumes the visit sequence, and a location attention over
   the GRU states yields the visit summary o_v.
4. The latest note's word embeddings are projected and attended with o_v as
   the context; the attention weights are pulled toward per-note TF-IDF
   targets by a rectification penalty added to the loss.
5. A sigmoid head on [o_v, o_n] scores all codes (or the binary event), and
   the loss is mean cross-entropy plus the weighted penalty.

Inference freezes the trained code features and re-runs only steps 3-5, so
patients outside the training graph need no patient embedding. Those steps
live in :class:`FrozenScorer`; :class:`CollaborativeGraphModel` extends it
with steps 1-2 and training, so training and inference share one patient
encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .data import EhrDataset, LabelSet, model_note
from .graphs import ObservationGraph, OntologyAdjacency
from .ontology import OntologyTree, ancestor_path
from .text import MAX_NOTE_TOKENS, Vocabulary, tfidf_beta
from . import metrics as metrics_mod

__all__ = [
    "ModelConfig",
    "ModelParams",
    "FrozenScorer",
    "CollaborativeGraphModel",
    "PatientExample",
    "AdamOptimizer",
    "TrainingDivergenceError",
    "default_note_loss_weight",
    "aggregate",
    "rectified_penalty",
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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["patient_layer_dims"] = list(self.patient_layer_dims)
        d["code_layer_dims"] = list(self.code_layer_dims)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["patient_layer_dims"] = tuple(d["patient_layer_dims"])
        d["code_layer_dims"] = tuple(d["code_layer_dims"])
        return cls(**d)


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
    label_vec: np.ndarray  # (n_codes,) for diagnosis, (1,) for the binary task
    positives: np.ndarray  # positive leaf indices (diagnosis task)
    occurred: np.ndarray  # codes seen in any feature visit, (n_codes,)


def prepare_examples(dataset: EhrDataset, split: str | None, tree: OntologyTree,
                     vocab: Vocabulary, labels: LabelSet) -> list[PatientExample]:
    """Resolve codes and note tokens to dense indices for one split.

    Tokens outside the vocabulary are dropped (they have no embedding row);
    the TF-IDF targets are computed on the same filtered sequence so the
    penalty stays aligned with the attention weights.
    """
    out = []
    patients = dataset.patients if split is None else dataset.split_patients(split)
    for p in patients:
        if not p.feature_visits:
            raise ValueError(f"patient {p.pid} has no feature visits")
        visit_codes = []
        occurred = np.zeros(tree.n_leaves, dtype=np.float64)
        for v in p.feature_visits:
            idx = np.array(sorted({tree.leaf_for(c) for c in v.codes}), dtype=np.intp)
            if idx.size == 0:
                raise ValueError(f"patient {p.pid} has an empty visit")
            occurred[idx] = 1.0
            visit_codes.append(idx)
        note = [w for w in model_note(p)[:MAX_NOTE_TOKENS] if w in vocab]
        tokens = np.array([vocab.word_index[w] for w in note], dtype=np.intp)
        beta = tfidf_beta(note, vocab)
        out.append(PatientExample(
            pid=p.pid,
            visit_codes=visit_codes,
            note_tokens=tokens,
            beta=beta,
            label_vec=labels.label_vector(p.pid),
            positives=np.array(labels.positives[p.pid], dtype=np.intp),
            occurred=occurred,
        ))
    return out


# ---------------------------------------------------------------------------
# network pieces


def aggregate(h_p, h_c, obs, obs_t, phi, w_code_to_patient, w_patient_to_code):
    """One round of collaborative aggregation before the layer maps.

    z_p = h_p + obs @ h_c @ W,  z_c = h_c + obs^T @ h_p @ W' + phi @ h_c.
    With a zeroed observation graph and zero phi both reduce to the inputs.
    """
    z_p = ad.add(h_p, ad.matmul(ad.matmul(obs, h_c), w_code_to_patient))
    z_c = ad.add(ad.add(h_c, ad.matmul(ad.matmul(obs_t, h_p), w_patient_to_code)),
                 ad.matmul(phi, h_c))
    return z_p, z_c


def rectified_penalty(alpha: ad.Tensor | None, beta: np.ndarray) -> ad.Tensor:
    """Cross-entropy-style pull of attention weights toward TF-IDF targets.

    The summed form -sum(alpha ln beta + (1 - alpha) ln(1 - beta)) is linear in
    alpha, so over the softmax simplex it is smallest with all the weight on
    the highest-beta token; it does not pull alpha toward beta itself.

    beta must already be clamped inside (0, 1). An empty note contributes 0.
    """
    if alpha is None or beta.size == 0:
        if alpha is not None and alpha.values.size != beta.size:
            raise ValueError("attention and target lengths differ")
        return ad.constant(0.0)
    if alpha.values.shape != beta.shape:
        raise ValueError(
            f"attention length {alpha.values.shape} != target length {beta.shape}")
    ln_b = ad.constant(np.log(beta))
    ln_1b = ad.constant(np.log1p(-beta))
    inner = ad.add(ad.mul(alpha, ln_b), ad.mul(ad.sub(1.0, alpha), ln_1b))
    return ad.mul(ad.reduce_sum(inner), -1.0)


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

    def visit_embedding(self, h_c: ad.Tensor, code_idx: np.ndarray) -> ad.Tensor:
        if code_idx.size == 0:
            raise ValueError("a visit must carry at least one code")
        return ad.reduce_mean(ad.gather_rows(h_c, code_idx), axis=0)

    def encode_visits(self, leaves, visit_vecs: list[ad.Tensor]):
        """GRU over the visit sequence plus location attention.

        Gates: z = sig(xW+hU+b), r = sig(xW'+hU'+b'), n = tanh(xW''+(r*h)U''+b''),
        h' = z*h + (1-z)*n, from a zero initial state.
        """
        if not visit_vecs:
            raise ValueError("need at least one visit")
        cfg = self.config
        d_in = cfg.code_layer_dims[-1]
        h = ad.constant(np.zeros((1, cfg.gru_hidden)))
        rows = None
        for v in visit_vecs:
            x = ad.reshape(v, (1, d_in))
            z = ad.sigmoid(ad.add(ad.add(ad.matmul(x, leaves["gru_in_update"]),
                                         ad.matmul(h, leaves["gru_state_update"])),
                                  leaves["gru_bias_update"]))
            r = ad.sigmoid(ad.add(ad.add(ad.matmul(x, leaves["gru_in_reset"]),
                                         ad.matmul(h, leaves["gru_state_reset"])),
                                  leaves["gru_bias_reset"]))
            cand = ad.tanh(ad.add(ad.add(ad.matmul(x, leaves["gru_in_cand"]),
                                         ad.matmul(ad.mul(r, h), leaves["gru_state_cand"])),
                                  leaves["gru_bias_cand"]))
            h = ad.add(ad.mul(z, h), ad.mul(ad.sub(1.0, z), cand))
            rows = h if rows is None else ad.concat(rows, h, axis=0)
        alpha = ad.softmax(ad.matmul(rows, leaves["visit_context"]), axis=0)
        o_v = ad.matmul(alpha, rows)
        return rows, alpha, o_v

    def note_attention(self, leaves, token_idx: np.ndarray, o_v: ad.Tensor):
        """Attention over projected word embeddings with o_v as context."""
        if token_idx.size == 0:
            return None, ad.constant(np.zeros(self.config.gru_hidden))
        words = ad.gather_rows(leaves["word_embed"], token_idx)
        projected = ad.matmul(words, leaves["word_proj"])
        alpha = ad.softmax(ad.matmul(projected, o_v), axis=0)
        o_n = ad.matmul(alpha, projected)
        return alpha, o_n

    def patient_forward(self, leaves, h_c: ad.Tensor, example: PatientExample):
        """Scores and note attention for one patient given code features."""
        visit_vecs = [self.visit_embedding(h_c, idx) for idx in example.visit_codes]
        _, _, o_v = self.encode_visits(leaves, visit_vecs)
        if self.config.use_notes:
            note_alpha, o_n = self.note_attention(leaves, example.note_tokens, o_v)
        else:
            note_alpha, o_n = None, ad.constant(np.zeros(self.config.gru_hidden))
        out = ad.concat(o_v, o_n, axis=0)
        logits = ad.add(ad.matmul(out, leaves["head_weight"]), leaves["head_bias"])
        return ad.sigmoid(logits), note_alpha

    def predict_example(self, example: PatientExample):
        """Frozen-feature scores and note attention for one patient."""
        if self.frozen_code_repr is None:
            raise RuntimeError("freeze_code_embeddings() must run before inference")
        leaves = self._constants()
        h_c = ad.constant(self.frozen_code_repr)
        y_hat, note_alpha = self.patient_forward(leaves, h_c, example)
        alpha = None if note_alpha is None else note_alpha.values.copy()
        return y_hat.values.copy(), alpha


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
        if config.use_observation_graph:
            self.obs_matrix = observation.matrix.astype(np.float64)
        else:
            self.obs_matrix = np.zeros_like(observation.matrix, dtype=np.float64)
        self.obs_matrix_t = np.ascontiguousarray(self.obs_matrix.T)
        self.link_levels = adjacency.dense_adjacency()
        self.link_support = (self.link_levels != 0).astype(np.float64)

        # per-level ancestor index of every leaf, for the hierarchical lookup
        k = tree.levels
        self.level_indices = [np.empty(self.n_codes, dtype=np.intp) for _ in range(k)]
        for i in range(self.n_codes):
            for lvl, name in enumerate(ancestor_path(tree, i)):
                self.level_indices[lvl][i] = tree.level_rank[name]

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
        parts = [
            ad.gather_rows(leaves[f"level_embed_{lvl + 1}"], self.level_indices[lvl])
            for lvl in range(self.tree.levels)
        ]
        out = parts[0]
        for part in parts[1:]:
            out = ad.concat(out, part, axis=1)
        return out

    def ontology_weights(self, leaves) -> ad.Tensor:
        """Per-edge sigmoid(slope_j * level + shift_j), zero off the support.

        The slope/shift of the *source* code j apply column-wise, matching
        "assign a weight to c_j when aggregating c_j into c_i".
        """
        if not self.config.use_ontology_weights:
            return ad.constant(self.link_support)
        pre = ad.add(ad.mul(ad.constant(self.link_levels), leaves["onto_slope"]),
                     leaves["onto_shift"])
        return ad.mul(ad.sigmoid(pre), ad.constant(self.link_support))

    def graph_forward(self, leaves, mode: str, update_stats: bool | None = None) -> ad.Tensor:
        """Run all graph layers; returns the final code features."""
        cfg = self.config
        if update_stats is None:
            update_stats = mode == "train"
        h_p = leaves["patient_embed"]
        h_c = self.code_base_embedding(leaves)
        phi = self.ontology_weights(leaves)
        obs = ad.constant(self.obs_matrix)
        obs_t = ad.constant(self.obs_matrix_t)
        for l in range(cfg.num_layers):
            last = l == cfg.num_layers - 1
            z_c = ad.add(ad.add(h_c, ad.matmul(ad.matmul(obs_t, h_p),
                                               leaves[f"graph_{l}_patient_to_code"])),
                         ad.matmul(phi, h_c))
            if not last:
                z_p = ad.add(h_p, ad.matmul(ad.matmul(obs, h_c),
                                            leaves[f"graph_{l}_code_to_patient"]))
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
        if y_hat.values.shape != y.shape:
            raise ValueError(f"prediction shape {y_hat.values.shape} != label shape {y.shape}")
        clamped = ad.clamp(y_hat, CLAMP_EPS, 1.0 - CLAMP_EPS)
        term = ad.add(ad.mul(ad.constant(y), ad.log(clamped)),
                      ad.mul(ad.constant(1.0 - y), ad.log(ad.sub(1.0, clamped))))
        return ad.mul(ad.reduce_mean(term), -1.0)

    def batch_loss(self, leaves, h_c: ad.Tensor, examples: list[PatientExample]):
        """Mean cross-entropy plus weighted mean note penalty over a batch."""
        if not examples:
            raise ValueError("empty batch")
        ce_sum = None
        pen_sum = None
        for ex in examples:
            y_hat, note_alpha = self.patient_forward(leaves, h_c, ex)
            ce = self._cross_entropy(y_hat, ex.label_vec)
            pen = rectified_penalty(note_alpha, ex.beta) if self.config.use_notes \
                else ad.constant(0.0)
            ce_sum = ce if ce_sum is None else ad.add(ce_sum, ce)
            pen_sum = pen if pen_sum is None else ad.add(pen_sum, pen)
        n = float(len(examples))
        ce_mean = ad.mul(ce_sum, 1.0 / n)
        pen_mean = ad.mul(pen_sum, 1.0 / n)
        loss = ad.add(ce_mean, ad.mul(pen_mean, self.config.note_loss_weight))
        return loss, ce_mean, pen_mean

    # -- whole-pass entry points ---------------------------------------------

    def training_loss(self, examples: list[PatientExample]) -> tuple[float, float, float]:
        """Train-mode loss without updating anything (probe only)."""
        tape = ad.Tape()
        leaves = self._leaves(tape)
        h_c = self.graph_forward(leaves, mode="train", update_stats=False)
        loss, ce, pen = self.batch_loss(leaves, h_c, examples)
        return loss.item(), ce.item(), pen.item()

    def loss_program(self, examples: list[PatientExample]):
        """A closure for gradient checking: rebuilds the train-mode loss."""
        def f():
            tape = ad.Tape()
            leaves = self._leaves(tape)
            h_c = self.graph_forward(leaves, mode="train", update_stats=False)
            loss, _, _ = self.batch_loss(leaves, h_c, examples)
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
    return np.stack([model.predict_example(ex)[0] for ex in examples])


def compute_metrics(scores: np.ndarray, examples: list[PatientExample], task: str,
                    ks=(20, 40), include_onset: bool = False,
                    ranks: np.ndarray | None = None) -> dict[str, float]:
    """The task's metrics; every top-k recall reuses one ranking of the scores.

    ``ranks`` is ``metrics.rank_codes(scores)`` when the caller already has it.
    """
    labels = np.stack([ex.label_vec for ex in examples])
    out: dict[str, float] = {}
    if task == "diagnosis":
        if ranks is None:
            ranks = metrics_mod.rank_codes(scores)
        out["wf1"] = metrics_mod.weighted_f1(scores, labels)
        for k in ks:
            out[f"r{k}"] = metrics_mod.recall_at_k(scores, labels, k, ranks)
        if include_onset:
            occurred = np.stack([ex.occurred for ex in examples])
            for k in ks:
                occ, new = metrics_mod.onset_split_recall(scores, labels, occurred, k, ranks)
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
            tape = ad.Tape()
            leaves = model._leaves(tape)
            h_c = model.graph_forward(leaves, mode="train", update_stats=True)
            loss, _, _ = model.batch_loss(leaves, h_c, batch)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingDivergenceError(
                    f"non-finite loss {value} at epoch {epoch}")
            loss.backward()
            optimizer.step({name: leaves[name].grad for name in leaves})
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
