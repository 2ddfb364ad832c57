"""One phase of a benchmark run, in its own process.

    python3 perfbench/worker.py <gen|setup|train|serve> <job.json>

The orchestrator (run.py) starts each phase with the thread limits already in
the environment and ``src`` on PYTHONPATH, so cgl and numpy load under them.
A phase writes its result to the ``out`` path named in the job file. In a
traced run the loops alternate untraced and traced iterations, so the same
process measures the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import cgl
import cgl.autodiff
import cgl.checkpoint
import cgl.cli
import cgl.data
import cgl.experiment
import cgl.graphs
import cgl.metrics
import cgl.model
import cgl.ontology

from tracing import Tracer

THREAD_VARS = ("CGL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Counts operations and failed correctness checks of one phase."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
            print(f"CHECK FAILED: {what}", flush=True)


class Job:
    def __init__(self, spec: dict):
        self.wl = spec["workload"]
        self.seed = int(spec["seed"])
        self.seconds = float(spec["seconds"])
        self.trace = bool(spec["trace"])
        self.work = Path(spec["work"])
        self.corpus = self.work / "corpus"
        self.checkpoint = self.work / "checkpoint"
        self.histories = self.work / "histories"
        self.tracer = Tracer(spec["phase"])
        self.checks = Checks()
        self.result: dict = {}

    # -- cgl calls, looked up at call time so the tracer sees them ----------

    def settings(self):
        cfg = cgl.model.ModelConfig(**self.wl["model"])
        return cgl.experiment.TrainSettings(
            seed=self.seed, split_counts=tuple(self.wl["split"]), config=cfg)

    def load_problem(self):
        tree = cgl.ontology.load_ontology(self.corpus / "ontology.tsv")
        dataset = cgl.data.load_dataset(self.corpus / "dataset.jsonl")
        return cgl.experiment.assemble(dataset, tree, self.settings())

    def new_model(self, problem):
        return cgl.model.CollaborativeGraphModel(
            problem.settings.config, problem.tree, problem.observation, problem.adjacency,
            vocab_size=len(problem.vocab), seed=problem.seeds.init)

    def save(self, model, problem) -> None:
        cgl.checkpoint.save_checkpoint(
            self.checkpoint, model, problem.vocab, metric_ks=problem.settings.metric_ks,
            split={"counts": list(self.wl["split"]), "seed": self.seed})

    # -- helpers ---------------------------------------------------------------

    def more(self, loop: str, done: int, started: float) -> bool:
        """Whether a timed loop runs another iteration. A traced run
        alternates, so it needs two iterations; set-up gets one more, so that
        serve-5k's three builds still give two traced ones."""
        least, share = self.wl["loops"][loop]
        if self.trace:
            least = max(least + (loop == "setup"), 2)
        return done < least or time.perf_counter() - started < share * self.seconds

    def traced(self, i: int) -> bool:
        """In a traced run, odd iterations are traced and even ones are not."""
        on = self.trace and i % 2 == 1
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()
        return on

    def check_history(self, history: list[dict], where: str) -> None:
        for row in history:
            self.checks.check(math.isfinite(row["train_loss"]),
                              f"{where}: epoch {row['epoch']} loss {row['train_loss']!r}")

    def check_round_trip(self, model, examples) -> None:
        before = cgl.model.predict_scores(model, examples)
        bundle = cgl.checkpoint.load_checkpoint(self.checkpoint)
        after = cgl.model.predict_scores(bundle.model, examples)
        self.checks.check(before.tobytes() == after.tobytes(),
                          "predict_scores differ after a checkpoint round trip")

    def write_histories(self, problem) -> None:
        self.histories.mkdir(parents=True, exist_ok=True)
        for i, p in enumerate(problem.dataset.split_patients("test")):
            record = {"patient": p.pid,
                      "visits": [{"codes": v.codes, "note": v.note} for v in p.feature_visits]}
            (self.histories / f"{i:05d}.json").write_text(json.dumps(record), encoding="utf-8")

    def fingerprint(self, problem) -> dict:
        train = problem.dataset.split_patients("train")
        adjacency = getattr(problem.adjacency, "adjacency", None)
        return {
            "codes": problem.tree.n_leaves,
            "train_patients": len(train),
            "feature_visits": sum(len(p.feature_visits) for p in train),
            "code_occurrences": sum(len(set(v.codes)) for p in train for v in p.feature_visits),
            "adjacency_nnz": int(getattr(adjacency, "nnz", -1)),
            "vocabulary": len(problem.vocab),
        }


# ---------------------------------------------------------------------------
# phases


def phase_gen(job: Job) -> None:
    gen = dict(job.wl["corpus"])
    for key in ("visits", "codes_per_visit", "words_per_note"):
        if key in gen:
            gen[key] = tuple(gen[key])
    cgl.data.generate_synthetic(cgl.data.GeneratorConfig(**gen), job.seed, job.corpus)
    digest = hashlib.sha256()
    for name in ("ontology.tsv", "dataset.jsonl"):
        digest.update((job.corpus / name).read_bytes())
    job.result["sha256"] = digest.hexdigest()


def phase_setup(job: Job) -> None:
    """Set up repeatedly; serve workloads also build the served checkpoint."""
    wl = job.wl
    times = {False: [], True: []}
    fit_rates = {False: [], True: []}
    build_patients = wl.get("build_steps", 0) * cgl.model.ModelConfig(**wl["model"]).batch_size
    cpu0, wall0 = time.process_time(), time.perf_counter()
    rep = 0
    while job.more("setup", rep, wall0):
        problem = model = history = None  # free the previous rep before the next
        gc.collect()
        on = job.traced(rep)
        job.tracer.set_ctx("setup", rep)
        t0 = time.perf_counter()
        problem = job.load_problem()
        model = job.new_model(problem)
        if build_patients:
            t_fit = time.perf_counter()
            history = cgl.model.fit(model, problem.examples["train"][:build_patients], None,
                                    epochs=1, seed=problem.seeds.shuffle)
            fit_rates[on].append(build_patients / (time.perf_counter() - t_fit))
            job.save(model, problem)
        times[on].append(time.perf_counter() - t0)
        job.tracer.set_ctx("none", 0)
        if build_patients:
            job.check_history(history, f"checkpoint build rep {rep}")
            if rep == 0:
                job.result["digest"] = {"build_train_loss": history[-1]["train_loss"]}
        rep += 1
    job.tracer.uninstall()
    job.result["cpu_per_wall"] = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    job.result["setup_s"] = times[False]
    job.result["fingerprint"] = job.fingerprint(problem)
    job.result["peak_rss_mb"] = peak_rss_mb()
    if build_patients:
        job.result["train_patients_per_s"] = fit_rates[False]
        job.check_round_trip(model, problem.examples["valid"][:32])
        job.write_histories(problem)
    if job.trace:
        job.result["overhead"] = {
            "setup_s": statistics.median(times[True]) / statistics.median(times[False])}
        if build_patients:
            job.result["overhead"]["train_patients_per_s"] = (
                statistics.median(fit_rates[True]) / statistics.median(fit_rates[False]))


def phase_train(job: Job) -> None:
    """Timed training reps, each from the same initial state."""
    wl = job.wl
    job.tracer.set_ctx("prep", 0)
    problem = job.load_problem()
    train_examples = problem.examples["train"]
    plan = wl["train"]
    rates = {False: [], True: []}
    first = None
    rep = 0
    cpu0, wall0 = time.process_time(), time.perf_counter()
    while job.more("train", rep, wall0):
        on = job.traced(rep)
        job.tracer.set_ctx("train", rep)
        if "epochs" in plan:
            t0 = time.perf_counter()
            model, history = cgl.experiment.train(problem, epochs=plan["epochs"])
            dt = time.perf_counter() - t0
            patients = plan["epochs"] * len(train_examples)
        else:
            batch = problem.settings.config.batch_size
            subset = train_examples[:plan["steps"] * batch]
            model = job.new_model(problem)
            t0 = time.perf_counter()
            history = cgl.model.fit(model, subset, None, epochs=1, seed=problem.seeds.shuffle)
            dt = time.perf_counter() - t0
            patients = len(subset)
        job.tracer.set_ctx("none", 0)
        rates[on].append(patients / dt)
        job.check_history(history, f"training rep {rep}")
        if first is None:
            first = (model, history)
        else:
            job.checks.check(history == first[1], f"training rep {rep} differs from rep 0")
        del model
        rep += 1
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    job.tracer.uninstall()
    job.result["cpu_per_wall"] = cpu / wall
    job.result["train_patients_per_s"] = rates[False]
    job.result["peak_rss_mb"] = peak_rss_mb()
    model, history = first
    job.result["digest"] = history[-1]
    if job.trace:
        job.tracer.install()
    job.tracer.set_ctx("check", 0)
    job.save(model, problem)
    job.tracer.uninstall()
    job.check_round_trip(model, problem.examples["valid"] or problem.examples["test"])
    job.write_histories(problem)
    if job.trace:
        job.result["overhead"] = {"train_patients_per_s":
                                  statistics.median(rates[True]) / statistics.median(rates[False])}


def _quiet_cli(argv: list[str]) -> tuple[int, str, float]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        rc = cgl.cli.main(argv)
    return rc, buf.getvalue(), time.perf_counter() - t0


def phase_serve(job: Job) -> None:
    """Closed-loop `cgl predict` calls, then `cgl evaluate`, in a fresh process."""
    wl = job.wl
    histories = sorted(job.histories.iterdir())
    ckpt, dataset = str(job.checkpoint), str(job.corpus / "dataset.jsonl")
    latency = {False: [], True: []}
    calls = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    while job.more("predict", len(calls), wall0):
        i = len(calls)
        on = job.traced(i)
        job.tracer.set_ctx("predict", i)
        path = histories[i % len(histories)]
        with job.tracer.span("cli.main"):
            rc, out, dt = _quiet_cli(["predict", "--checkpoint", ckpt, "--history", str(path)])
        job.tracer.set_ctx("none", 0)
        latency[on].append(dt)
        calls.append((path, rc, out))
    evaluate = {False: [], True: []}
    reports = []
    n_test = wl["split"][2]
    j, started = 0, time.perf_counter()
    while job.more("evaluate", j, started):
        on = job.traced(j)
        job.tracer.set_ctx("evaluate", j)
        out_dir = job.work / f"evaluate-{j}"
        with job.tracer.span("cli.main"):
            rc, _, dt = _quiet_cli(["evaluate", "--checkpoint", ckpt, "--dataset", dataset,
                                    "--out", str(out_dir)])
        job.tracer.set_ctx("none", 0)
        evaluate[on].append(n_test / dt)
        reports.append((rc, out_dir / "report.txt"))
        j += 1
    cpu, wall = time.process_time() - cpu0, time.perf_counter() - wall0
    job.tracer.uninstall()
    job.result["peak_rss_mb"] = peak_rss_mb()
    job.result["cpu_per_wall"] = cpu / wall
    job.result["predict_s"] = latency[False]
    job.result["evaluate_patients_per_s"] = evaluate[False]
    if job.trace:
        job.result["overhead"] = {
            "predict_ms_p50": statistics.median(latency[True]) / statistics.median(latency[False]),
            "evaluate_patients_per_s":
                statistics.median(evaluate[True]) / statistics.median(evaluate[False]),
        }
    check_serving(job, calls, reports)


def check_serving(job: Job, calls, reports) -> None:
    """Compare predict and evaluate output with scores recomputed in-process."""
    bundle = cgl.checkpoint.load_checkpoint(job.checkpoint)
    dataset = cgl.data.load_dataset(job.corpus / "dataset.jsonl", tree=bundle.tree)
    cgl.data.split_dataset(dataset, tuple(bundle.split["counts"]),
                           cgl.experiment.derive_seeds(bundle.split["seed"]).split)
    labels = cgl.data.make_labels(dataset, bundle.task, bundle.tree, hf_prefix=bundle.hf_prefix)
    examples = cgl.model.prepare_examples(dataset, "test", bundle.tree, bundle.vocab, labels)
    scores = cgl.model.predict_scores(bundle.model, examples)
    row_of = {ex.pid: i for i, ex in enumerate(examples)}
    leaf = bundle.tree.leaf_index
    for path, rc, out in calls:
        pid = json.loads(path.read_text(encoding="utf-8"))["patient"]
        ref = scores[row_of[pid]]
        lines = out.splitlines()
        try:
            pairs = [line.split(",") for line in lines[1:] if "," in line]
            got = [(leaf[code], float(score)) for code, score in pairs]
        except (KeyError, ValueError):
            got = []
        top = cgl.metrics.top_k_indices(ref, len(got)) if got else []
        ok = (rc == 0 and lines[:1] == ["code,score"] and len(got) == 20
              and sorted(i for i, _ in got) == sorted(int(i) for i in top)
              and all(abs(s - ref[i]) <= 1e-12 for i, s in got))
        job.checks.check(ok, f"cgl predict on {path.name} disagrees with predict_scores")
    expected = cgl.model.compute_metrics(scores, examples, bundle.task, bundle.metric_ks,
                                         include_onset=bundle.task == "diagnosis")
    for rc, report_path in reports:
        report = {}
        if rc == 0 and report_path.exists():
            for line in report_path.read_text(encoding="utf-8").splitlines():
                name, value = line.split("\t")
                report[name] = float(value)
        same = rc == 0 and report.keys() == expected.keys() and all(
            report[k] == expected[k] or (math.isnan(report[k]) and math.isnan(expected[k]))
            for k in expected)
        job.checks.check(same, f"cgl evaluate report {report} != recomputed {expected}")
    job.result["digest"] = {"evaluate": expected}


PHASES = {"gen": phase_gen, "setup": phase_setup, "train": phase_train, "serve": phase_serve}


def main(argv: list[str]) -> int:
    phase, job_path = argv
    spec = json.loads(Path(job_path).read_text(encoding="utf-8"))
    spec["phase"] = phase
    pinned = {var: os.environ.get(var) for var in THREAD_VARS}
    if any(v != "1" for v in pinned.values()):
        print(f"thread variables not pinned to 1: {pinned}", file=sys.stderr)
        return 2
    src = Path(spec["root"]) / "src"
    if Path(cgl.__file__).resolve().parent.parent != src.resolve():
        print(f"cgl imported from {cgl.__file__}, not from {src}", file=sys.stderr)
        return 2
    job = Job(spec)
    PHASES[phase](job)
    job.result["attempted"] = job.checks.attempted
    job.result["failed"] = job.checks.failed
    job.result["failures"] = job.checks.messages
    if job.trace:
        job.result["trace"] = job.tracer.dump()
    Path(spec["out"]).write_text(json.dumps(job.result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
