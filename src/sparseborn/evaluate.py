"""Metrics and experiment protocols: repeated random splits and holdouts.

The split generator is deliberately simple and documented so results are
portable: a seeded ``numpy.random.default_rng`` permutes the record order
once per run and the first ``ceil(N * test_fraction)`` records form the
test set.  Runs are drawn sequentially from the one generator, so a fixed
seed fixes every split.
"""
from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from .data import EncodedObservation, RawRecord, Vocabulary, encode
from .errors import InvalidRecordError
from .model import Hyperparams, Model, fit

DEFAULT_CONFIGS: Tuple[Tuple[str, Hyperparams], ...] = (
    ("quantum", Hyperparams(h=1.0, b=1.0, p=0.5)),
    ("classic", Hyperparams(h=1.0, b=0.0, p=1.0)),
)


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricReport:
    """Per-class precision/recall/F1/support plus the usual aggregates.

    Weighted averages are support-weighted means; macro averages are
    unweighted means over the enumerated classes (those appearing in the
    truths or the predictions).
    """

    per_class: Dict[Hashable, ClassMetrics]
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    n: int

    def to_table(self, delimiter: str = "\t") -> str:
        rows = [["class", "precision", "recall", "f1", "support"]]
        for label in sorted(self.per_class, key=str):
            m = self.per_class[label]
            rows.append([_label_str(label), *_fixed6(m.precision, m.recall, m.f1), str(m.support)])
        averages = (
            ("weighted avg", self.weighted_precision, self.weighted_recall, self.weighted_f1),
            ("macro avg", self.macro_precision, self.macro_recall, self.macro_f1),
        )
        for name, *values in averages:
            rows.append([name, *_fixed6(*values), str(self.n)])
        rows.append(["accuracy", *_fixed6(self.accuracy), "", "", str(self.n)])
        return "\n".join(delimiter.join(row) for row in rows)


def _fixed6(*values: float) -> List[str]:
    return [f"{v:.6f}" for v in values]


def _label_str(label: Hashable) -> str:
    if isinstance(label, tuple):
        return "|".join(map(str, label))
    return str(label)


def score(predictions: Sequence[Hashable], truths: Sequence[Hashable]) -> MetricReport:
    """Standard multiclass metrics over aligned prediction/truth lists.

    Undefined ratios (no predicted or no true instances of a class) count
    as 0; classes never predicted and never true are not enumerated.
    """
    if len(predictions) != len(truths):
        raise InvalidRecordError(
            f"got {len(predictions)} predictions for {len(truths)} truths"
        )
    if not truths:
        raise InvalidRecordError("nothing to score")
    labels = sorted(set(truths) | set(predictions), key=lambda x: (str(type(x)), str(x)))
    per_class: Dict[Hashable, ClassMetrics] = {}
    predicted, true = Counter(predictions), Counter(truths)
    hits = Counter(t for p, t in zip(predictions, truths) if p == t)
    correct = sum(hits.values())
    for label in labels:
        tp, fp, fn = hits[label], predicted[label] - hits[label], true[label] - hits[label]
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[label] = ClassMetrics(precision, recall, f1, tp + fn)
    n = len(truths)
    supports = {label: m.support for label, m in per_class.items()}
    total_support = sum(supports.values())

    def weighted(attr):
        return math.fsum(
            getattr(per_class[label], attr) * supports[label] for label in labels
        ) / total_support

    def macro(attr):
        return math.fsum(getattr(per_class[label], attr) for label in labels) / len(labels)

    return MetricReport(
        per_class=per_class,
        accuracy=correct / n,
        weighted_precision=weighted("precision"),
        weighted_recall=weighted("recall"),
        weighted_f1=weighted("f1"),
        macro_precision=macro("precision"),
        macro_recall=macro("recall"),
        macro_f1=macro("f1"),
        n=n,
    )


# the MetricReport fields that MeanReport averages, in its field order
_MEANS = ("weighted_precision", "weighted_recall", "weighted_f1", "macro_f1", "accuracy")


@dataclass
class MeanReport:
    """Across-run means of the headline metrics."""

    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    macro_f1: float
    accuracy: float
    n_runs: int


@dataclass
class PairwiseTable:
    """entry[a][b] = fraction of runs where a's weighted F1 strictly beat b's."""

    names: List[str]
    matrix: List[List[float]]

    def to_table(self, delimiter: str = "\t") -> str:
        lines = [delimiter.join([""] + self.names)]
        for name, row in zip(self.names, self.matrix):
            lines.append(delimiter.join([name] + [f"{v:.2f}" for v in row]))
        return "\n".join(lines)


@dataclass
class ExperimentResult:
    configs: List[str]
    means: Dict[str, MeanReport]
    pairwise: PairwiseTable
    per_run_f1: Dict[str, List[float]] = field(default_factory=dict)

    def to_table(self, delimiter: str = "\t") -> str:
        lines = [delimiter.join(["config", "precision", "recall", "f1", "f1-macro", "accuracy"])]
        for name in self.configs:
            m = self.means[name]
            values = (
                m.weighted_precision, m.weighted_recall, m.weighted_f1, m.macro_f1, m.accuracy
            )
            lines.append(delimiter.join([name] + [f"{v:.3f}" for v in values]))
        lines.append("")
        lines.append("pairwise wins (row beats column, fraction of runs):")
        lines.append(self.pairwise.to_table(delimiter))
        return "\n".join(lines)


def split_indices(n: int, test_fraction: float, rng: np.random.Generator):
    """One train/test split: permute 0..n-1, first ceil(n*fraction) go to test."""
    n_test = math.ceil(n * test_fraction)
    perm = rng.permutation(n)
    return perm[n_test:].tolist(), perm[:n_test].tolist()


def _fit_counts(records: Sequence[RawRecord], normalize: bool) -> Model:
    """Encode and fit the training records once; every config is a view over these counts."""
    vocab = Vocabulary()
    return fit(encode(records, vocab, grow=True, normalize=normalize), vocab)


def _predict_labels(
    counts: Model, config: Hyperparams, queries: Sequence[EncodedObservation]
) -> List[Tuple[str, ...]]:
    """Top label per query under ``config``, read from the fitted counts unchanged."""
    model = Model(counts.corpus, counts.vocab, hyper=config)
    results = model.predict_batch(queries, k=1)
    return [model.vocab.decode_target(ranked[0]) for ranked, _, _ in results]


def _truth_labels(records: Sequence[RawRecord], vocab: Vocabulary) -> List[Tuple[str, ...]]:
    """Each record's first value per target dimension of ``vocab``, in the order predictions decode."""
    dims, labels = [dim.name for dim in vocab.target_dims], []
    for rec in records:
        by_dim = {}
        for dim, value in rec.labels:
            by_dim.setdefault(dim, value)
        labels.append(tuple(by_dim.get(d, "") for d in dims))
    return labels


def repeated_split_experiment(
    records: Sequence[RawRecord],
    n_runs: int,
    test_fraction: float,
    configs: Sequence[Tuple[str, Hyperparams]] = DEFAULT_CONFIGS,
    seed: int = 0,
    normalize: bool = False,
) -> ExperimentResult:
    """Score every config on each of ``n_runs`` seeded random splits and average.

    Each split is encoded and fitted once; the configs only reweigh those
    counts at prediction time.  Splits are not stratified; a run whose
    training split lacks some class is kept.  Fixed seeds give
    bit-reproducible results.
    """
    if n_runs < 1:
        raise InvalidRecordError("n_runs must be >= 1")
    if not 0 < test_fraction < 1:
        raise InvalidRecordError("test_fraction must be in (0, 1)")
    records = list(records)
    n = len(records)
    rng = np.random.default_rng(seed)
    splits = [split_indices(n, test_fraction, rng) for _ in range(n_runs)]
    for train_idx, test_idx in splits:
        if not train_idx or not test_idx:
            raise InvalidRecordError("degenerate split: empty train or test part")
    names = [name for name, _ in configs]
    per_run_f1: Dict[str, List[float]] = {name: [] for name in names}
    sums: Dict[str, List[float]] = {name: [0.0] * len(_MEANS) for name in names}
    for train_idx, test_idx in splits:
        counts = _fit_counts([records[i] for i in train_idx], normalize)
        test = [records[i] for i in test_idx]
        queries = encode(test, counts.vocab, grow=False)
        truths = _truth_labels(test, counts.vocab)
        for name, config in configs:
            report = score(_predict_labels(counts, config, queries), truths)
            per_run_f1[name].append(report.weighted_f1)
            sums[name] = [s + getattr(report, attr) for s, attr in zip(sums[name], _MEANS)]
    means = {
        name: MeanReport(*(s / n_runs for s in sums[name]), n_runs=n_runs) for name in names
    }
    matrix = [  # a config never beats itself, so the diagonal is 0
        [sum(fa > fb for fa, fb in zip(per_run_f1[a], per_run_f1[b])) / n_runs for b in names]
        for a in names
    ]
    return ExperimentResult(
        configs=names,
        means=means,
        pairwise=PairwiseTable(names, matrix),
        per_run_f1=per_run_f1,
    )


def holdout_experiment(
    train: Sequence[RawRecord],
    test: Sequence[RawRecord],
    config: Hyperparams = Hyperparams(),
    normalize: bool = False,
) -> Tuple[MetricReport, Dict[str, float]]:
    """Single fit on ``train`` scored on ``test``; wall-clock times reported."""
    if not train or not test:
        raise InvalidRecordError("train and test sets must both be nonempty")
    t0 = time.perf_counter()
    counts = _fit_counts(train, normalize)
    t1 = time.perf_counter()
    queries = encode(test, counts.vocab, grow=False)
    predictions = _predict_labels(counts, config, queries)
    t2 = time.perf_counter()
    truths = _truth_labels(test, counts.vocab)
    report = score(predictions, truths)
    return report, {"train_seconds": t1 - t0, "predict_seconds": t2 - t1}
