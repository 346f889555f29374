"""Metrics and experiment protocols."""
import numpy as np
import pytest

from oracle import brute_metrics
import sparseborn.evaluate
from sparseborn.data import RawRecord, Vocabulary, encode
from sparseborn.errors import InvalidRecordError
from sparseborn.evaluate import (
    DEFAULT_CONFIGS,
    ExperimentResult,
    MeanReport,
    PairwiseTable,
    holdout_experiment,
    repeated_split_experiment,
    score,
    split_indices,
)
from sparseborn.model import Hyperparams, fit


def test_score_perfect():
    report = score(["a", "b", "a"], ["a", "b", "a"])
    assert report.accuracy == 1.0
    assert report.weighted_f1 == 1.0
    assert report.macro_f1 == 1.0
    for m in report.per_class.values():
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)


def test_score_hand_example():
    report = score(["A", "B", "B"], ["A", "A", "B"])
    assert report.accuracy == pytest.approx(2 / 3)
    a = report.per_class["A"]
    b = report.per_class["B"]
    assert (a.precision, a.recall) == (1.0, 0.5)
    assert a.f1 == pytest.approx(2 / 3)
    assert (b.precision, b.recall) == (0.5, 1.0)
    assert b.f1 == pytest.approx(2 / 3)
    assert report.macro_f1 == pytest.approx(2 / 3)
    assert a.support == 2 and b.support == 1


def test_score_enumerates_only_seen_classes():
    report = score(["a", "a"], ["a", "b"])
    assert set(report.per_class) == {"a", "b"}


def test_score_length_mismatch():
    with pytest.raises(InvalidRecordError):
        score(["a"], ["a", "b"])


def test_score_matches_brute_force_exactly():
    rng = np.random.default_rng(51)
    for _ in range(100):
        n = int(rng.integers(1, 101))
        n_classes = int(rng.integers(1, 8))
        truths = [f"k{int(c)}" for c in rng.integers(0, n_classes, size=n)]
        predictions = [f"k{int(c)}" for c in rng.integers(0, n_classes, size=n)]
        report = score(predictions, truths)
        per_class, accuracy, weighted, macro = brute_metrics(predictions, truths)
        assert report.accuracy == accuracy
        assert (report.weighted_precision, report.weighted_recall, report.weighted_f1) == weighted
        assert (report.macro_precision, report.macro_recall, report.macro_f1) == macro
        for label, (precision, recall, f1, support) in per_class.items():
            m = report.per_class[label]
            assert (m.precision, m.recall, m.f1, m.support) == (precision, recall, f1, support)


def synthetic_records(rng, n=60, n_classes=3, n_tokens=20, noise=0.2):
    records = []
    for _ in range(n):
        c = int(rng.integers(0, n_classes))
        tokens = [("f", f"sig{c}", 1.0)]
        if rng.random() < noise:
            tokens.append(("f", f"noise{int(rng.integers(0, n_tokens))}", 1.0))
        records.append(RawRecord(labels=[("class", f"c{c}")], features=tokens))
    return records


def test_split_indices_shape():
    rng = np.random.default_rng(0)
    train, test = split_indices(101, 0.3, rng)
    assert len(test) == 31 and len(train) == 70
    assert sorted(train + test) == list(range(101))


def test_repeated_split_reproducible_and_worker_invariant():
    rng = np.random.default_rng(52)
    records = synthetic_records(rng)
    r1 = repeated_split_experiment(records, 5, 0.3, seed=9)
    r2 = repeated_split_experiment(records, 5, 0.3, seed=9)
    assert r1.per_run_f1 == r2.per_run_f1
    assert r1.means == r2.means


def test_identical_configs_tie_pairwise():
    rng = np.random.default_rng(53)
    records = synthetic_records(rng)
    configs = [("one", Hyperparams()), ("two", Hyperparams())]
    result = repeated_split_experiment(records, 5, 0.3, configs=configs, seed=1)
    assert result.pairwise.matrix[0][1] == 0.0
    assert result.pairwise.matrix[1][0] == 0.0


def test_pairwise_rows_bounded():
    rng = np.random.default_rng(54)
    records = synthetic_records(rng, noise=0.6)
    result = repeated_split_experiment(records, 8, 0.3, seed=2)
    m = result.pairwise.matrix
    for i in range(len(m)):
        assert m[i][i] == 0.0
        for j in range(len(m)):
            assert 0.0 <= m[i][j] <= 1.0
            if i != j:
                assert m[i][j] + m[j][i] <= 1.0


def test_repeated_split_argument_errors():
    rng = np.random.default_rng(55)
    records = synthetic_records(rng)
    with pytest.raises(InvalidRecordError):
        repeated_split_experiment(records, 0, 0.3)
    with pytest.raises(InvalidRecordError):
        repeated_split_experiment(records, 1, 0.0)
    with pytest.raises(InvalidRecordError):
        repeated_split_experiment(records, 1, 1.5)


def test_holdout_resubstitution_dominates():
    rng = np.random.default_rng(56)
    train = synthetic_records(rng, n=80)
    test = synthetic_records(rng, n=40)
    held, _ = holdout_experiment(train, test)
    resub, timing = holdout_experiment(test, test)
    assert resub.accuracy >= held.accuracy
    assert timing["train_seconds"] >= 0 and timing["predict_seconds"] >= 0


def test_holdout_empty_errors():
    rng = np.random.default_rng(57)
    records = synthetic_records(rng, n=10)
    with pytest.raises(InvalidRecordError):
        holdout_experiment([], records)


def test_default_configs_are_standard():
    names = dict(DEFAULT_CONFIGS)
    assert names["quantum"] == Hyperparams(1.0, 1.0, 0.5)
    assert names["classic"] == Hyperparams(1.0, 0.0, 1.0)


def refit_per_config(records, n_runs, test_fraction, configs, seed):
    """The experiment as one fit per config and split, for reference."""
    rng = np.random.default_rng(seed)
    splits = [split_indices(len(records), test_fraction, rng) for _ in range(n_runs)]
    names = [name for name, _ in configs]
    reports = {name: [] for name in names}
    for train_idx, test_idx in splits:
        test = [records[i] for i in test_idx]
        truths = [(rec.labels[0][1],) for rec in test]
        for name, config in configs:
            vocab = Vocabulary()
            train = encode([records[i] for i in train_idx], vocab, grow=True)
            model = fit(train, vocab, hyper=config)
            ranked = model.predict_batch(encode(test, model.vocab, grow=False))
            predictions = [model.vocab.decode_target(top[0]) for top, _, _ in ranked]
            reports[name].append(score(predictions, truths))
    means, f1 = {}, {}
    for name in names:
        runs = reports[name]
        averages = []
        for attr in ("weighted_precision", "weighted_recall", "weighted_f1", "macro_f1", "accuracy"):
            total = 0.0
            for report in runs:
                total += getattr(report, attr)
            averages.append(total / n_runs)
        means[name] = MeanReport(*averages, n_runs=n_runs)
        f1[name] = [report.weighted_f1 for report in runs]
    matrix = [
        [sum(fa > fb for fa, fb in zip(f1[a], f1[b])) / n_runs for b in names] for a in names
    ]
    return ExperimentResult(names, means, PairwiseTable(names, matrix), f1)


def test_repeated_split_fits_each_split_once(monkeypatch):
    rng = np.random.default_rng(58)
    # overlapping classes, so the configs disagree on some runs
    records = []
    for _ in range(80):
        c = int(rng.integers(0, 3))
        tokens = [("f", f"t{int(t)}", 1.0) for t in rng.integers(c, c + 4, size=2)]
        records.append(RawRecord(labels=[("class", f"c{c}")], features=tokens))
    configs = [*DEFAULT_CONFIGS, ("born", Hyperparams(h=0.0, b=1.0, p=0.5))]
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(sparseborn.evaluate, "fit", counting_fit)
    for n_configs in (1, 3):
        calls.clear()
        result = repeated_split_experiment(records, 6, 0.3, configs=configs[:n_configs], seed=4)
        assert len(calls) == 6
        expected = refit_per_config(records, 6, 0.3, configs[:n_configs], seed=4)
        assert result.per_run_f1 == expected.per_run_f1
        assert result.to_table() == expected.to_table()
    assert result.per_run_f1["quantum"] != result.per_run_f1["classic"]


def test_truths_follow_each_splits_own_target_dimensions():
    # a label map may list the dimensions in any order; the last record lists lang first, and a
    # training split that meets it first decodes its predictions as (lang, topic)
    def rec(topic, lang, lang_first=False):
        labels = [("topic", topic), ("lang", lang)]
        features = [("token", f"{topic}-word", 1.0), ("token", f"{lang}-word", 1.0)]
        return RawRecord(labels[::-1] if lang_first else labels, features)

    records = [rec("sport", "en"), rec("tech", "en"), rec("sport", "de"), rec("tech", "de", True)] * 5
    result = repeated_split_experiment(records, 5, 0.3)
    assert result.means["quantum"].accuracy == 1.0
    assert holdout_experiment(records, records)[0].accuracy == 1.0
