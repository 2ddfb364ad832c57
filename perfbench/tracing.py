"""Span tracing around the public functions of the cgl package.

Only the benchmark installs this; the package itself is never edited. A
:class:`Tracer` replaces each wrapped function in every ``cgl`` module that
holds a reference to it, so a name is traced where it is looked up (for
example ``cgl.cli.load_checkpoint`` as well as ``cgl.checkpoint``). A name
that no longer exists is reported as absent instead of failing the run.

Spans (name, start, end, parent, context, epoch) and per-context counters are
kept in memory and dumped at the end. A context is one set-up rep, one
training step, one predict or evaluate call, or one training rep outside its
steps. ``layer_metrics`` turns the dumps of all processes of a run into the
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import statistics
import sys
import time
import weakref
from collections import defaultdict

# (module, function) pairs traced as spans named "<module>.<function>".
FUNCTIONS = [
    ("cgl.experiment", "assemble"),
    ("cgl.experiment", "train"),
    ("cgl.experiment", "history_to_example"),
    ("cgl.graphs", "build_observation"),
    ("cgl.graphs", "build_cooccurrence"),
    ("cgl.graphs", "build_ontology_adjacency"),
    ("cgl.model", "fit"),
    ("cgl.model", "predict_scores"),
    ("cgl.model", "compute_metrics"),
    ("cgl.model", "prepare_examples"),
    ("cgl.model", "rectified_penalty"),
    ("cgl.metrics", "weighted_f1"),
    ("cgl.metrics", "recall_at_k"),
    ("cgl.metrics", "onset_split_recall"),
    ("cgl.metrics", "top_k_indices"),
    ("cgl.data", "load_dataset"),
    ("cgl.ontology", "load_ontology"),
    ("cgl.checkpoint", "save_checkpoint"),
    ("cgl.checkpoint", "load_checkpoint"),
]

# (module, class, method, span name).
METHODS = [
    ("cgl.model", "CollaborativeGraphModel", "__init__", "model.init"),
    ("cgl.model", "CollaborativeGraphModel", "graph_forward", "model.graph_forward"),
    ("cgl.model", "CollaborativeGraphModel", "ontology_weights", "model.ontology_weights"),
    ("cgl.model", "CollaborativeGraphModel", "freeze_code_embeddings", "model.freeze"),
    ("cgl.model", "CollaborativeGraphModel", "visit_embedding", "model.visit_embedding"),
    ("cgl.model", "CollaborativeGraphModel", "encode_visits", "model.encode_visits"),
    ("cgl.model", "CollaborativeGraphModel", "note_attention", "model.note_attention"),
    ("cgl.model", "CollaborativeGraphModel", "patient_forward", "model.patient_forward"),
    ("cgl.model", "CollaborativeGraphModel", "batch_loss", "model.batch_loss"),
    ("cgl.model", "CollaborativeGraphModel", "predict_example", "model.predict_example"),
    ("cgl.model", "AdamOptimizer", "step", "model.adam_step"),
    ("cgl.autodiff", "Tape", "backward", "autodiff.backward"),
]

# Backward closures are timed per bucket of the public op that recorded them.
OP_BUCKETS = {
    "matmul": "matmul",
    "gather_rows": "gather_rows",
    **{op: "elementwise" for op in
       ("add", "sub", "mul", "sigmoid", "tanh", "relu", "log", "clamp")},
}
BUCKETS = ("matmul", "gather_rows", "elementwise", "other")
NOT_OPS = {"constant", "check_gradients"}


def _matmul_dims(a_shape, b_shape):
    m = a_shape[0] if len(a_shape) == 2 else 1
    k = a_shape[-1]
    n = b_shape[1] if len(b_shape) == 2 else 1
    return m, k, n


class Tracer:
    def __init__(self, process: str):
        self.process = process
        self.spans: list[list] = []
        self.counters: dict[tuple[str, int], defaultdict] = {}
        self.absent: list[str] = []
        self.ctx = ("none", 0)
        self.epoch = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._op: str | None = None
        self._fit_depth = 0
        self._step: tuple[int, tuple[str, int]] | None = None
        self._steps = 0
        self._tapes = weakref.WeakSet()
        self._tapes_alive_max = 0
        self._gc_start = 0.0
        self.installed = False

    # -- spans and counters -------------------------------------------------

    def set_ctx(self, kind: str, ident: int) -> None:
        self.ctx = (kind, ident)

    def count(self) -> defaultdict:
        c = self.counters.get(self.ctx)
        if c is None:
            c = self.counters[self.ctx] = defaultdict(float)
        return c

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.ctx[0], self.ctx[1], self.epoch])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            if self.spans[top][2] is None:
                self.spans[top][2] = end
            if top == idx:
                break

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around harness code; records nothing while uninstalled."""
        idx = self.open(name) if self.installed else None
        try:
            yield
        finally:
            if idx is not None:
                self.close(idx)

    # -- training steps: a step runs from tape creation inside fit to the end
    # of the optimizer update.

    def _begin_step(self) -> None:
        self._end_step()
        saved = self.ctx
        self._steps += 1
        self.ctx = ("step", self._steps)
        self._step = (self.open("fit.step"), saved)

    def _end_step(self) -> None:
        if self._step is not None:
            idx, saved = self._step
            self._step = None
            self.close(idx)
            self.ctx = saved

    # -- wrapping -------------------------------------------------------------

    def _spanned(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if after is not None:
                    after(args)
        return wrapper

    def _op_tagged(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            prev = tracer._op
            tracer._op = name
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._op = prev
        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "cgl" or modname.startswith("cgl.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _set_method(self, cls, attr, replacement) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self) -> None:
        if self.installed:
            return
        self.absent = []
        for modname, fname in FUNCTIONS:
            module = sys.modules.get(modname)
            fn = getattr(module, fname, None) if module else None
            if fn is None:
                self.absent.append(f"{modname}.{fname}")
                continue
            short = modname.split(".", 1)[1]
            before = after = None
            if fname == "fit":
                before, after = self._fit_enter, self._fit_exit
            self._replace_everywhere(fn, self._spanned(fn, f"{short}.{fname}", before, after))
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            if cls is None or attr not in cls.__dict__:
                self.absent.append(f"{modname}.{clsname}.{attr}")
                continue
            after = None
            if attr == "freeze_code_embeddings":
                after = self._freeze_exit
            if attr == "step" and clsname == "AdamOptimizer":
                after = lambda args: self._end_step()
            before = self._batch_patients if attr == "batch_loss" else None
            self._set_method(cls, attr, self._spanned(cls.__dict__[attr], name, before, after))
        self._install_autodiff()
        gc.callbacks.append(self._gc_callback)
        self.installed = True

    def uninstall(self) -> None:
        if not self.installed:
            return
        self._end_step()
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []
        gc.callbacks.remove(self._gc_callback)
        self.installed = False

    def _fit_enter(self, args) -> None:
        self._fit_depth += 1

    def _fit_exit(self, args) -> None:
        self._end_step()
        self._fit_depth -= 1

    def _freeze_exit(self, args) -> None:
        if self._fit_depth:
            self.epoch += 1

    def _batch_patients(self, args) -> None:
        if args and isinstance(args[-1], list):
            self.count()["patients"] += len(args[-1])

    def _gc_callback(self, phase, info) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        c = self.count()
        c["gc_s"] += time.perf_counter() - self._gc_start
        c[f"gc{info.get('generation', 0)}"] += 1

    def _install_autodiff(self) -> None:
        ad = sys.modules.get("cgl.autodiff")
        if ad is None:
            self.absent.append("cgl.autodiff")
            return
        for name in getattr(ad, "__all__", []):
            fn = getattr(ad, name, None)
            if name in NOT_OPS or isinstance(fn, type) or not callable(fn):
                continue
            self._replace_everywhere(fn, self._op_tagged(fn, name))
        tape_cls = getattr(ad, "Tape", None)
        if tape_cls is None or "record" not in tape_cls.__dict__:
            self.absent.append("cgl.autodiff.Tape.record")
            return
        tracer = self
        orig_init = tape_cls.__dict__["__init__"]
        orig_record = tape_cls.__dict__["record"]

        @functools.wraps(orig_init)
        def init(tape, *args, **kwargs):
            orig_init(tape, *args, **kwargs)
            tracer._tapes.add(tape)
            tracer._tapes_alive_max = max(tracer._tapes_alive_max, len(tracer._tapes))
            if tracer._fit_depth:
                tracer._begin_step()

        @functools.wraps(orig_record)
        def record(tape, values, inputs, backward):
            op = tracer._op or "other"
            bucket = OP_BUCKETS.get(op, "other")
            tracked = tuple(getattr(t, "node_id", None) is not None for t in inputs)
            dims = None
            c = tracer.count()
            if op == "matmul" and len(inputs) == 2:
                dims = _matmul_dims(inputs[0].values.shape, inputs[1].values.shape)
                m, k, n = dims
                c["matmul_flop"] += 2.0 * m * k * n
                c["matmul_bytes"] += 8.0 * (m * k + k * n + m * n)

            def timed_backward(g):
                t0 = time.perf_counter()
                grads = tuple(backward(g))
                cc = tracer.count()
                cc[f"bw_{bucket}_s"] += time.perf_counter() - t0
                for is_tracked, gi in zip(tracked, grads):
                    if gi is None:
                        continue
                    key = "grad_tracked_bytes" if is_tracked else "grad_untracked_bytes"
                    cc[key] += getattr(gi, "nbytes", 8)
                if dims is not None:
                    m, k, n = dims
                    cc["matmul_flop"] += 4.0 * m * k * n
                    cc["matmul_bytes"] += 8.0 * (m * n + 2 * m * k + 2 * k * n)
                return grads

            out = orig_record(tape, values, inputs, timed_backward)
            c["ops"] += 1
            c["tape_bytes"] += getattr(getattr(out, "values", None), "nbytes", 0)
            return out

        self._set_method(tape_cls, "__init__", init)
        self._set_method(tape_cls, "record", record)

    def dump(self) -> dict:
        return {
            "process": self.process,
            "spans": self.spans,
            "counters": [[kind, ident, dict(c)] for (kind, ident), c in self.counters.items()],
            "absent": sorted(set(self.absent)),
            "tapes_alive_max": self._tapes_alive_max,
        }


# ---------------------------------------------------------------------------
# per-layer metrics from the dumps of every process in a run

# name -> (unit, better)
LAYER_METRICS = {
    "autodiff.ops_per_step": ("count", "lower"),
    "autodiff.ops_per_patient": ("count", "lower"),
    "model.batch_loss_ms": ("ms", "lower"),
    "model.visit_pool_ms": ("ms", "lower"),
    "model.gru_attention_ms": ("ms", "lower"),
    "model.note_attention_ms": ("ms", "lower"),
    "model.head_loss_ms": ("ms", "lower"),
    "model.graph_forward_ms": ("ms", "lower"),
    "model.ontology_weights_ms": ("ms", "lower"),
    "autodiff.backward_ms": ("ms", "lower"),
    "autodiff.backward.matmul_ms": ("ms", "lower"),
    "autodiff.backward.gather_rows_ms": ("ms", "lower"),
    "autodiff.backward.elementwise_ms": ("ms", "lower"),
    "autodiff.backward.other_ms": ("ms", "lower"),
    "autodiff.backward.accumulate_ms": ("ms", "lower"),
    "autodiff.matmul_gflop_per_step": ("GFLOP", "lower"),
    "autodiff.matmul_mb_per_step": ("MB", "lower"),
    "autodiff.untracked_grad_mb_per_step": ("MB", "lower"),
    "autodiff.useful_grad_share": ("ratio", "higher"),
    "autodiff.tape_mb_per_step": ("MB", "lower"),
    "autodiff.tapes_alive_max": ("count", "lower"),
    "runtime.gc_ms_per_step": ("ms", "lower"),
    "runtime.gc_collections_gen0": ("count/step", "lower"),
    "runtime.gc_collections_gen1": ("count/step", "lower"),
    "runtime.gc_collections_gen2": ("count/step", "lower"),
    "model.adam_ms": ("ms", "lower"),
    "model.freeze_ms": ("ms", "lower"),
    "model.predict_scores_ms": ("ms", "lower"),
    "metrics.compute_ms": ("ms", "lower"),
    "graphs.build_ms": ("ms", "lower"),
    "graphs.link_nnz": ("count", "lower"),
    "graphs.link_density": ("ratio", "higher"),
    "model.init_ms": ("ms", "lower"),
    "model.prepare_examples_ms": ("ms", "lower"),
    "checkpoint.load_ms": ("ms", "lower"),
    "checkpoint.load.tree_ms": ("ms", "lower"),
    "checkpoint.load.model_init_ms": ("ms", "lower"),
    "checkpoint.save_ms": ("ms", "lower"),
    "experiment.history_to_example_ms": ("ms", "lower"),
    "model.predict_example_ms": ("ms", "lower"),
    "cli.predict_self_ms": ("ms", "lower"),
    "data.load_dataset_ms": ("ms", "lower"),
    "cli.evaluate_self_ms": ("ms", "lower"),
    "runtime.cpu_per_wall": ("ratio", "lower"),
    "trace.overhead.setup_s": ("ratio", "lower"),
    "trace.overhead.train_patients_per_s": ("ratio", "higher"),
    "trace.overhead.predict_ms_p50": ("ratio", "lower"),
    "trace.overhead.evaluate_patients_per_s": ("ratio", "higher"),
}

# metric -> (span terms, group). A term is (span name, "total" | "self").
# A group is a context kind: the metric is the median over contexts of that
# kind of the summed term times; group "span" takes each span on its own.
SPAN_METRICS = {
    "model.batch_loss_ms": ([("model.batch_loss", "total")], "step"),
    "model.visit_pool_ms": ([("model.visit_embedding", "total")], "step"),
    "model.gru_attention_ms": ([("model.encode_visits", "total")], "step"),
    "model.note_attention_ms": ([("model.note_attention", "total")], "step"),
    "model.head_loss_ms": ([("model.patient_forward", "self"), ("model.batch_loss", "self"),
                            ("model.rectified_penalty", "total")], "step"),
    "model.graph_forward_ms": ([("model.graph_forward", "total")], "step"),
    "model.ontology_weights_ms": ([("model.ontology_weights", "total")], "step"),
    "autodiff.backward_ms": ([("autodiff.backward", "total")], "step"),
    "model.adam_ms": ([("model.adam_step", "total")], "step"),
    "model.freeze_ms": ([("model.freeze", "total")], "span"),
    "model.predict_scores_ms": ([("model.predict_scores", "total")], "span"),
    "metrics.compute_ms": ([("model.compute_metrics", "total")], "span"),
    "graphs.build_ms": ([("graphs.build_observation", "total"),
                         ("graphs.build_cooccurrence", "total"),
                         ("graphs.build_ontology_adjacency", "total")], "setup"),
    "model.init_ms": ([("model.init", "total")], "setup"),
    "model.prepare_examples_ms": ([("model.prepare_examples", "total")], "setup"),
    "checkpoint.load_ms": ([("checkpoint.load_checkpoint", "total")], "predict"),
    "checkpoint.load.tree_ms": ([("ontology.load_ontology", "total")], "predict"),
    "checkpoint.load.model_init_ms": ([("model.init", "total")], "predict"),
    "checkpoint.save_ms": ([("checkpoint.save_checkpoint", "total")], "span"),
    "experiment.history_to_example_ms": ([("experiment.history_to_example", "total")],
                                         "predict"),
    "model.predict_example_ms": ([("model.predict_example", "total")], "predict"),
    "cli.predict_self_ms": ([("cli.main", "self")], "predict"),
    "data.load_dataset_ms": ([("data.load_dataset", "total")], "evaluate"),
    "cli.evaluate_self_ms": ([("cli.main", "self")], "evaluate"),
}

# counter metrics: median over training steps of counter * scale
STEP_COUNTERS = {
    "autodiff.ops_per_step": ("ops", 1.0),
    "autodiff.matmul_gflop_per_step": ("matmul_flop", 1e-9),
    "autodiff.matmul_mb_per_step": ("matmul_bytes", 1e-6),
    "autodiff.untracked_grad_mb_per_step": ("grad_untracked_bytes", 1e-6),
    "autodiff.tape_mb_per_step": ("tape_bytes", 1e-6),
    "runtime.gc_ms_per_step": ("gc_s", 1e3),
    **{f"autodiff.backward.{b}_ms": (f"bw_{b}_s", 1e3) for b in BUCKETS},
}


def _self_and_total(spans):
    total = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += total[i]
    return total, [t - c for t, c in zip(total, child)]


def layer_metrics(dumps: list[dict]) -> tuple[dict[str, float | None], list[str]]:
    """Per-layer metrics over the dumps of one run; None marks an absent layer."""
    out: dict[str, float | None] = {}
    absent = sorted({name for d in dumps for name in d["absent"]})
    groups: dict[str, dict[tuple, dict[str, float]]] = defaultdict(lambda: defaultdict(
        lambda: defaultdict(float)))
    single: dict[str, list[float]] = defaultdict(list)
    for d in dumps:
        spans = d["spans"]
        total, self_t = _self_and_total(spans)
        for i, s in enumerate(spans):
            name, kind = s[0], s[4]
            groups[kind][(d["process"], s[5])][name + "|total"] += total[i]
            groups[kind][(d["process"], s[5])][name + "|self"] += self_t[i]
            single[name].append(total[i])
    for metric, (terms, group) in SPAN_METRICS.items():
        names = {t[0] for t in terms}
        if group == "span":
            values = [v for n in names for v in single.get(n, [])]
        else:
            values = [sum(g[f"{n}|{mode}"] for n, mode in terms)
                      for g in groups.get(group, {}).values()
                      if any(f"{n}|total" in g for n in names)]
        out[metric] = 1e3 * statistics.median(values) if values else None

    step_counters = {(d["process"], ident): c for d in dumps
                     for kind, ident, c in d["counters"] if kind == "step"}
    steps = list(step_counters.values())
    for metric, (key, scale) in STEP_COUNTERS.items():
        out[metric] = statistics.median(c.get(key, 0.0) for c in steps) * scale if steps else None
    accumulate = [
        1e3 * (g["autodiff.backward|total"]
               - sum(step_counters.get(key, {}).get(f"bw_{b}_s", 0.0) for b in BUCKETS))
        for key, g in groups.get("step", {}).items() if "autodiff.backward|total" in g]
    out["autodiff.backward.accumulate_ms"] = statistics.median(accumulate) if accumulate else None
    per_patient = [c["ops"] / c["patients"] for c in steps if c.get("patients")]
    out["autodiff.ops_per_patient"] = statistics.median(per_patient) if per_patient else None
    tracked = sum(c.get("grad_tracked_bytes", 0.0) for c in steps)
    untracked = sum(c.get("grad_untracked_bytes", 0.0) for c in steps)
    out["autodiff.useful_grad_share"] = tracked / (tracked + untracked) if steps and tracked else None
    out["autodiff.tapes_alive_max"] = (max(d["tapes_alive_max"] for d in dumps)
                                       if steps else None)
    for gen in (0, 1, 2):
        out[f"runtime.gc_collections_gen{gen}"] = (
            sum(c.get(f"gc{gen}", 0.0) for c in steps) / len(steps) if steps else None)
    return out, absent

