"""The two workloads and the stages they share.

Every workload runs the same user-facing stages (train, predict, explain,
archive save/load, online update, evaluate, policy search), so every
end-to-end metric has a value on every workload; what differs is the
input and which stage gets most of the run:

* ``text-online``: newsgroup-shaped corpus (20 classes).  Each epoch fits
  a 3,000-document base; each round then updates with 200 fresh documents
  and predicts 200 fresh queries (~56k features, ~97k nonzeros after four
  rounds).  Every
  update invalidates the level tables, so rebuilds dominate a round; a
  change that makes reads faster by doing more work per table build shows
  its cost here.
* ``zoo-tabular``: the bundled 101-row zoo table.  Hundreds of tiny models
  (tens to hundreds of nonzeros), so time goes to per-call overhead,
  per-level table builds during policy search and the fallback walk.  A
  change that is fast on a text corpus but slow on tiny inputs shows here.

All calls are made from one thread with ``workers=1``: a closed loop with
a single caller.
"""
from __future__ import annotations

import contextlib
import gc
import io
import math
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Callable, List

import numpy as np

import sparseborn as sb
from gen import PARTS, derive_seed
from hostspeed import HostSpeed, probe, probe_python
from stats import median, min_samples

ROOT = Path(__file__).resolve().parent.parent
ZOO = ROOT / "data" / "zoo.csv"

SETUP_REPEATS = 5
WARMUP_S = 6.0
EXPLAIN_K = 10
TEST_FRACTION = 0.3
# Each text-online round also runs a one-split repeated-split evaluation,
# with a split seed of its own, on a sample of the base.
EVAL_RECORDS = 500
BATCH = 200
ONLINE_ROUNDS = 4
ONLINE_EXPLAINED = 30
ZOO_RUNS = 100
# fold-mode experiment size between tensor splits
ZOO_FOLD_RUNS = 5
ZOO_SEED = 7
# README reproduction: fold mode, seed 7, 100 runs, test fraction 0.3.
ZOO_WEIGHTED_F1 = {"quantum": 0.939, "classic": 0.797}
ZOO_ONLINE_BATCH = 5
# A load takes a third of a save, so each archive is loaded twice: one
# more sample for the shorter, noisier timing.
LOADS_PER_SAVE = 2
# explain_ms_p90 is reported only from at least this many samples.
MIN_EXPLAINED = min_samples(90)


class Session:
    """What one workload run measured and checked."""

    def __init__(self, workload: str, seed: int, seconds: float, inputs: Path, tracer, started: float):
        self.seed = seed
        self.seconds = seconds
        self.inputs = inputs
        self.tracer = tracer
        self.started = started
        self.import_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.samples = defaultdict(list)
        self.slowdowns = defaultdict(list)
        self.values = {}
        self.measured = {}
        self.info = {}
        self.correct_labels = 0
        self.scored_labels = 0
        self.reference: Callable | None = None
        # Host speed during set-up and during the measured work.
        self.setup_speed = HostSpeed(PROBES[workload])
        self.speed = HostSpeed(PROBES[workload])

    def tick(self) -> None:
        """Called before each timed call of the measured work."""
        self.speed.tick()

    def sample(self, name: str, value: float) -> None:
        """Keep one sample of a metric with the host's slowdown just before it."""
        self.samples[name].append(value)
        self.slowdowns[name].append(self.speed.recent_slowdown())

    def op(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def rng(self, purpose: str) -> np.random.Generator:
        return np.random.default_rng(derive_seed(self.seed, purpose))

    def unmeasured(self):
        """Checks run here: their calls into the package are not traced."""
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def tally(self, labels, records) -> None:
        self.correct_labels += sum(lab == truth(rec) for lab, rec in zip(labels, records))
        self.scored_labels += len(records)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def truth(record) -> tuple:
    return tuple(value for _, value in record.labels)


def repeat_until(deadline: float, body: Callable[[], None], min_runs: int = 1) -> int:
    """Run ``body`` ``min_runs`` times, then again while one more run ends before ``deadline``."""
    runs = 0
    while True:
        t0 = time.perf_counter()
        body()
        runs += 1
        now = time.perf_counter()
        if runs >= min_runs and now + (now - t0) > deadline:
            return runs


# -- stages --------------------------------------------------------------


def set_up(session: Session, load: Callable):
    """Load the inputs ``SETUP_REPEATS`` times and keep the last copy.

    ``setup_s`` is the median import time of the package in a fresh
    interpreter plus the median load time, before it is scaled by the
    set-up slowdown (see ``hostspeed.py``).  The traced run loads once,
    since it does not report ``setup_s``.
    """
    repeats = 1 if session.tracer else SETUP_REPEATS
    times = []
    result = None
    for _ in range(repeats):
        result = None  # hold one copy of the inputs at a time
        session.setup_speed.probe_now()
        result, dt = timed(load)
        times.append(dt)
    session.values["setup_s"] = session.import_s + median(times)
    session.info["setup_load_s"] = times
    warm_up(session.started + WARMUP_S)
    return result


def warm_up(until: float) -> None:
    """Keep the CPU busy until ``until`` (a ``perf_counter`` time).

    The 2-core host this benchmark was tuned on runs the first seconds of
    sustained load 20-35% faster than the rest and recovers after some
    idle seconds.  Measuring only after ``WARMUP_S`` seconds of work since
    the run began keeps every run in the sustained state, whether or not
    the host rested before it.
    """
    while time.perf_counter() < until:
        sum(range(100_000))


def train(session: Session, records):
    """encode(grow=True) plus fit; one sample of ``train_records_per_s``."""
    session.tick()
    t0 = time.perf_counter()
    vocab = sb.Vocabulary()
    model = sb.fit(sb.encode(records, vocab, grow=True), vocab)
    session.sample("train_records_per_s", len(records) / (time.perf_counter() - t0))
    session.op()
    return model


def predict(session: Session, model, records):
    """encode(grow=False), predict_batch and decode; returns (queries, results, labels, seconds)."""
    session.tick()
    t0 = time.perf_counter()
    queries = sb.encode(records, model.vocab, grow=False)
    results = model.predict_batch(queries, k=1)
    labels = [model.vocab.decode_target(ranked[0]) for ranked, _, _ in results]
    seconds = time.perf_counter() - t0
    session.op()
    for _, dist, _ in results:
        values = list(dist.values())
        session.check(
            all(math.isfinite(v) for v in values) and abs(math.fsum(values) - 1.0) <= 1e-9,
            "a distribution is not finite or does not sum to 1",
        )
    return queries, results, labels, seconds


def explain(session: Session, model, queries) -> None:
    session.tick()
    for query in queries:
        t0 = time.perf_counter()
        sb.explain_local(model, query, k=EXPLAIN_K)
        session.sample("explain_ms", 1e3 * (time.perf_counter() - t0))
    session.op(len(queries))


def explain_global(session: Session, model, targets) -> None:
    for target in targets:
        sb.explain_global(model, target, k=EXPLAIN_K)
    session.op(len(targets))


def check_top1(session: Session, model, queries, results) -> None:
    with session.unmeasured():
        for query, (ranked, _, _) in zip(queries, results):
            top = model.predict(query, with_contributions=False).top(1)[0][0]
            session.check(top == ranked[0], "predict_batch top-1 differs from Model.predict")


def check_same_predictions(session: Session, a, b, probe, what: str) -> None:
    with session.unmeasured():
        for x, y in zip(a.predict_batch(probe), b.predict_batch(probe)):
            session.check(x[1] == y[1] and x[2] == y[2], f"{what}: distributions differ")


def archive_text(model) -> str:
    buf = io.StringIO()
    model.save(buf)
    return buf.getvalue()


def archive(session: Session, model):
    """Timed save to a file and loads from it; returns the archive text and the loaded model."""
    path = session.inputs / "model.json"
    session.tick()
    gc.collect()
    _, save_s = timed(model.save, path)
    session.sample("archive_save_s", save_s)
    for _ in range(LOADS_PER_SAVE):
        loaded = None  # hold one loaded copy at a time
        gc.collect()
        loaded, load_s = timed(sb.load, path)
        session.sample("archive_load_s", load_s)
    session.op(1 + LOADS_PER_SAVE)
    text = path.read_text(encoding="utf-8")
    session.measured["model.archive_bytes"] = len(text.encode("utf-8"))
    path.unlink()
    return text, loaded


def check_refit(session: Session, model, records, saved: str | None = None) -> None:
    """The updated model is bitwise the model refitted on everything it has seen."""
    with session.unmeasured():
        vocab = sb.Vocabulary()
        refit = sb.fit(sb.encode(records, vocab, grow=True), vocab, policy=model.policy)
        saved = archive_text(model) if saved is None else saved
        session.check(archive_text(refit) == saved, "updated model differs from a refit")


def policy_search(session: Session, model, queries):
    validation = [q for q in queries if q.has_labels()]
    session.tick()
    (policy, _), seconds = timed(sb.learn_policy, model, validation)
    session.sample("policy_search_s", seconds)
    session.op()
    return policy


def evaluate(session: Session, records, n_runs: int, seed: int):
    session.tick()
    result, seconds = timed(
        sb.repeated_split_experiment, records, n_runs, TEST_FRACTION, seed=seed
    )
    session.sample("splits_per_s", n_runs / seconds)
    session.op()
    return result


def record_f1(session: Session, results) -> None:
    """The weighted F1 metrics: means over the given experiments' runs."""
    for name in ("quantum", "classic"):
        session.values[f"weighted_f1_{name}"] = float(
            np.mean([result.means[name].weighted_f1 for result in results])
        )


def record_corpus(session: Session, model) -> None:
    vocab = model.vocab
    nnz = len(model.corpus)
    session.info["corpus"] = {
        "classes": vocab.target_space_size(),
        "features": sum(len(dim) for dim in vocab.feature_dims),
        "nonzeros": nnz,
    }
    session.measured["counts.nnz"] = nnz


def bytes_per_nnz(records) -> float:
    """Memory a fitted model retains beyond its vocabulary, per corpus nonzero."""
    vocab = sb.Vocabulary()
    observations = sb.encode(records, vocab, grow=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = sb.fit(observations, vocab)
        fitted = tracemalloc.get_traced_memory()[0]
        vocab_copy = vocab.copy()  # stands in for the copy fit keeps
        vocab_bytes = tracemalloc.get_traced_memory()[0] - fitted
    finally:
        tracemalloc.stop()
    return (fitted - before - vocab_bytes) / len(model.corpus)


def sample(rng: np.random.Generator, items, n: int):
    return [items[i] for i in sorted(rng.choice(len(items), size=n, replace=False))]


# -- workloads -----------------------------------------------------------


def text_online(session: Session) -> None:
    d = session.inputs

    def load():
        base, stream, queries = (
            sb.load_token_records(d / f"{part}.jsonl") for part in PARTS["text-online"]
        )
        vocab = sb.Vocabulary()
        return base, stream, queries, sb.fit(sb.encode(base, vocab, grow=True), vocab)

    base, stream, queries, _ = set_up(session, load)
    eval_records = sample(session.rng("evaluate"), base, EVAL_RECORDS)
    eval_seeds = [derive_seed(session.seed, f"splits{r}") for r in range(ONLINE_ROUNDS)]
    deadline = time.perf_counter() + session.seconds
    state = {}

    def epoch():
        # Every epoch starts from a fresh fit of the base and replays the
        # same rounds, so epochs do equal work however many fit the budget.
        # Each round gives its own online, predict, policy and split samples.
        gc.collect()
        model = train(session, base)
        state["evals"] = []
        for r in range(ONLINE_ROUNDS):
            batch = slice(r * BATCH, (r + 1) * BATCH)
            session.tick()
            t0 = time.perf_counter()
            model.update(sb.encode(stream[batch], model.vocab, grow=True))
            update_s = time.perf_counter() - t0
            session.op()
            obs, results, labels, query_s = predict(session, model, queries[batch])
            session.sample("online_records_per_s", 2 * BATCH / (update_s + query_s))
            session.sample("predict_records_per_s", BATCH / query_s)
            session.tally(labels, queries[batch])
            explain(session, model, obs[:ONLINE_EXPLAINED])
            policy_search(session, model, obs)
            state["evals"].append(evaluate(session, eval_records, 1, eval_seeds[r]))
        state["saved"], state["loaded"] = archive(session, model)
        state["model"], state["probe"], state["results"] = model, obs, results

    min_epochs = math.ceil(MIN_EXPLAINED / (ONLINE_ROUNDS * ONLINE_EXPLAINED))
    session.info["epochs"] = repeat_until(deadline, epoch, min_epochs)
    model, probe = state["model"], state["probe"]
    record_f1(session, state["evals"])
    record_corpus(session, model)
    check_top1(session, model, probe, state["results"])
    check_same_predictions(session, model, state["loaded"], probe, "reloaded archive")
    check_refit(session, model, base + stream[: ONLINE_ROUNDS * BATCH], state["saved"])
    explain_global(session, model, [model.vocab.decode_target(state["results"][0][0][0])])
    session.reference = lambda: model.predict_batch(probe)
    if session.tracer:
        with session.tracer.paused():
            session.measured["counts.bytes_per_nnz"] = bytes_per_nnz(base)


def zoo_tabular(session: Session) -> None:
    def load():
        return tuple(
            sb.load_tabular(ZOO, ["type"], mode=mode, drop_columns=["animal_name"])
            for mode in ("fold", "tensor")
        )

    fold, tensor = set_up(session, load)
    deadline = time.perf_counter() + session.seconds
    result = evaluate(session, fold, ZOO_RUNS, ZOO_SEED)
    record_f1(session, [result])
    for name, expected in ZOO_WEIGHTED_F1.items():
        got = result.means[name].weighted_f1
        session.check(round(got, 3) == expected, f"zoo {name} weighted F1 {got:.4f} != {expected}")
    rng = session.rng("splits")
    n_test = math.ceil(len(tensor) * TEST_FRACTION)
    state = {}

    def tensor_split():
        order = rng.permutation(len(tensor))
        held = [tensor[i] for i in order[:n_test]]
        kept = [tensor[i] for i in order[n_test:]]
        model = train(session, kept)
        validation = sb.encode(held, model.vocab)
        model.policy = policy_search(session, model, validation)
        queries, results, labels, seconds = predict(session, model, held)
        session.sample("predict_records_per_s", len(held) / seconds)
        session.tally(labels, held)
        explain(session, model, queries)
        explain_global(session, model, model.vocab.target_dims[0].values)
        check_top1(session, model, queries, results)
        check_same_predictions(session, model, archive(session, model)[1], queries, "reloaded archive")
        busy = 0.0
        for lo in range(0, len(held), ZOO_ONLINE_BATCH):
            batch = held[lo : lo + ZOO_ONLINE_BATCH]
            query_s = predict(session, model, batch)[3]
            t0 = time.perf_counter()
            model.update(sb.encode(batch, model.vocab, grow=True))
            busy += query_s + time.perf_counter() - t0
            session.op()
        session.sample("online_records_per_s", 2 * len(held) / busy)
        check_refit(session, model, kept + held)
        evaluate(session, fold, ZOO_FOLD_RUNS, int(rng.integers(2**32)))
        state["model"], state["validation"] = model, validation

    min_splits = math.ceil(MIN_EXPLAINED / n_test)
    session.info["tensor_splits"] = repeat_until(deadline, tensor_split, min_splits)
    model, validation = state["model"], state["validation"]
    record_corpus(session, model)
    session.reference = lambda: sb.learn_policy(model, validation)
    if session.tracer:
        with session.tracer.paused():
            session.measured["counts.bytes_per_nnz"] = bytes_per_nnz(fold)


WORKLOADS = {
    "text-online": text_online,
    "zoo-tabular": zoo_tabular,
}
# The host-speed probe each workload's timings are scaled by (see hostspeed.py).
PROBES = {
    "text-online": probe,
    "zoo-tabular": probe_python,
}
