"""Local and global feature attributions."""

import ast
from pathlib import Path

import numpy as np
import pytest

from helpers import make_model, query_obs, random_matrix_corpus, random_query
from oracle import DenseOracle
from sparseborn.data import EncodedObservation, RawRecord, Vocabulary, encode
from sparseborn.errors import SchemaError, UnknownTargetError
from sparseborn.explain import (
    aggregate_local,
    discriminative_features,
    explain_global,
    explain_local,
)
from sparseborn.model import fit


def test_local_single_feature_gets_all():
    model = make_model({((0,), (0,)): 2.0, ((1,), (1,)): 1.0}, 2, [2])
    rows = explain_local(model, query_obs({(0,): 3.0}))
    assert len(rows) == 1
    assert rows[0].feature == ("d0v0",)
    assert rows[0].share == 1.0
    assert rows[0].score > 0


def test_local_entropy_annihilates_noise():
    # two features with identical balanced weight and query mass; one is
    # perfect signal, the other exactly uniform across both targets
    entries = {
        ((0,), (0,)): 2.0,
        ((0,), (1,)): 1.0,
        ((1,), (1,)): 1.0,
        ((1,), (2,)): 2.0,
    }
    model = make_model(entries, 2, [3], h=1, b=1, p=1)
    rows = explain_local(model, query_obs({(0,): 1.0, (1,): 1.0}), target=(0,))
    by_feature = {r.feature_index: r.score for r in rows}
    assert by_feature[(0,)] > 0
    assert by_feature[(1,)] == 0.0


def test_local_matches_dense_addends():
    rng = np.random.default_rng(41)
    for _ in range(20):
        entries, n_targets, n_feats = random_matrix_corpus(rng, max_targets=4, max_feats=12)
        h, b, p = 1.0, 1.0, 0.5
        model = make_model(entries, n_targets, [n_feats], h=h, b=b, p=p)
        q = random_query(rng, n_feats)
        pred = model.predict(query_obs(q))
        if pred.fallback_depth:
            continue
        target = pred.top(1)[0][0]
        rows = explain_local(model, query_obs(q))
        oracle = DenseOracle(entries, target_space=n_targets)
        expected = oracle.addend_moduli(q, target, h=h, b=b, p=p)
        got = {r.feature_index: r.score for r in rows}
        for f, score in got.items():
            assert abs(score - expected.get(f, 0.0)) < 1e-12
        # descending with index tie-break
        keys = [(-r.score, r.feature_index) for r in rows]
        assert keys == sorted(keys)


def test_local_head_agrees_with_contributions():
    rng = np.random.default_rng(42)
    entries, n_targets, n_feats = random_matrix_corpus(rng)
    model = make_model(entries, n_targets, [n_feats])
    q = random_query(rng, n_feats)
    pred = model.predict(query_obs(q))
    if pred.fallback_depth:
        pytest.skip("degenerate draw")
    target = pred.top(1)[0][0]
    rows = explain_local(model, query_obs(q))
    best = max(
        (mod for (t, _), (mod, _) in pred.contributions.items() if t == target),
        default=0.0,
    )
    assert rows[0].score == pytest.approx(best, abs=1e-15)


def test_local_empty_on_terminal_fallback():
    model = make_model({((0,), (0,)): 1.0}, 1, [1])
    rows = explain_local(model, EncodedObservation(label_weights=(), feature_weights=({},)))
    assert rows == []


def test_global_exclusive_feature_dominates():
    entries = {
        ((0,), (0,)): 2.0,  # only with t0
        ((0,), (1,)): 2.0,
        ((1,), (1,)): 2.0,  # spread across targets
        ((1,), (2,)): 2.0,
    }
    model = make_model(entries, 2, [3], h=1, b=1, p=0.5)
    rows = explain_global(model, (0,))
    assert rows[0].feature_index == (0,)


def test_global_classical_is_conditional_probability():
    rng = np.random.default_rng(43)
    entries, n_targets, n_feats = random_matrix_corpus(rng)
    model = make_model(entries, n_targets, [n_feats], h=0, b=0, p=1)
    col_sums = {}
    for (t, f), w in entries.items():
        col_sums[f] = col_sums.get(f, 0.0) + w
    per_feature_total = {}
    for t in range(n_targets):
        for r in explain_global(model, (t,)):
            if r.score:
                expected = entries.get(((t,), r.feature_index), 0.0) / col_sums[r.feature_index]
                assert r.score == pytest.approx(expected, rel=1e-12)
            per_feature_total[r.feature_index] = (
                per_feature_total.get(r.feature_index, 0.0) + r.score
            )
    # column-stochastic: scores sum to 1 over targets for every feature
    for f, total in per_feature_total.items():
        assert total == pytest.approx(1.0, abs=1e-12)


def test_global_accepts_strings_and_rejects_unknown():
    model = make_model({((0,), (0,)): 1.0}, 1, [1])
    assert explain_global(model, "c0")[0].feature == ("d0v0",)
    with pytest.raises(UnknownTargetError) as err:
        explain_global(model, "nope")
    assert "c0" in str(err.value)


@pytest.mark.parametrize("features", [{0: 1.0}, {}])  # the second query reaches the prior
def test_local_rejects_an_unknown_target_whichever_level_decides(features):
    model = make_model({((0,), (0,)): 1.0, ((1,), (1,)): 1.0}, 2, [2])
    q = EncodedObservation(label_weights=(), feature_weights=(features,))
    assert model.predict(q).fallback_depth == (0 if features else 1)
    with pytest.raises(UnknownTargetError):
        explain_local(model, q, target="Dragon")


def test_discriminative_recovers_planted_signal():
    rng = np.random.default_rng(44)
    n_targets, n_noise, n_signal = 4, 12, 4
    entries = {}
    for j in range(n_signal):  # signal feature j occurs only with target j
        entries[((j,), (j,))] = 20.0
    for j in range(n_signal, n_signal + n_noise):  # uniform noise
        for t in range(n_targets):
            entries[((t,), (j,))] = 5.0
    model = make_model(entries, n_targets, [n_signal + n_noise], h=1, b=1, p=0.5)
    top = discriminative_features(model, k=n_signal)
    assert {r.feature_index for r in top} == {(j,) for j in range(n_signal)}


def test_discriminative_requires_h():
    model = make_model({((0,), (0,)): 1.0}, 1, [1], h=0)
    with pytest.raises(ValueError):
        discriminative_features(model, k=1)


def test_discriminative_all_equal_falls_to_index_order():
    entries = {((t,), (j,)): 1.0 for t in range(2) for j in range(3)}
    model = make_model(entries, 2, [3], h=1)
    rows = discriminative_features(model, k=3)
    assert [r.feature_index for r in rows] == [(0,), (1,), (2,)]


def test_aggregate_singleton_equals_local():
    rng = np.random.default_rng(45)
    entries, n_targets, n_feats = random_matrix_corpus(rng)
    model = make_model(entries, n_targets, [n_feats])
    q = query_obs(random_query(rng, n_feats))
    pred = model.predict(q)
    if pred.fallback_depth:
        pytest.skip("degenerate draw")
    target = model.vocab.decode_target(pred.top(1)[0][0])
    local_rows = explain_local(model, q)
    agg = aggregate_local(model, [q])
    got = {r.feature_index: r.score for r in agg[target]}
    expected = {r.feature_index: r.score for r in local_rows if r.score > 0}
    assert got == expected


def test_aggregate_additive_over_disjoint_sets():
    rng = np.random.default_rng(46)
    entries, n_targets, n_feats = random_matrix_corpus(rng)
    model = make_model(entries, n_targets, [n_feats])
    qs1 = [query_obs(random_query(rng, n_feats)) for _ in range(6)]
    qs2 = [query_obs(random_query(rng, n_feats)) for _ in range(6)]
    merged = aggregate_local(model, qs1 + qs2)
    part1 = aggregate_local(model, qs1)
    part2 = aggregate_local(model, qs2)
    summed = {}
    for part in (part1, part2):
        for target, rows in part.items():
            bucket = summed.setdefault(target, {})
            for r in rows:
                bucket[r.feature_index] = bucket.get(r.feature_index, 0.0) + r.score
    for target, rows in merged.items():
        for r in rows:
            assert r.score == pytest.approx(summed[target][r.feature_index], rel=1e-12)


def test_local_explanations_walk_the_policy_once():
    rng = np.random.default_rng(44)
    entries, n_targets, n_feats = random_matrix_corpus(rng)
    model = make_model(entries, n_targets, [n_feats])
    q = random_query(rng, n_feats)
    if model.predict(query_obs(q)).fallback_depth:
        pytest.skip("degenerate draw")
    calls = []
    query_arrays = model._query_arrays
    model._query_arrays = lambda *args: calls.append(args) or query_arrays(*args)
    explain_local(model, query_obs(q))
    assert len(calls) == 1
    # the two queries of an aggregate are one batch: one walk for both
    aggregate_local(model, [query_obs(q), query_obs(q)])
    assert len(calls) == 2 and len(calls[1][0]) == 2


@pytest.mark.parametrize("k", [0, -1])
def test_rankings_reject_k_below_one(k):
    # k=-1 used to slice off the last row and k=0 to return nothing
    model = make_model({((0,), (0,)): 2.0, ((1,), (1,)): 1.0, ((1,), (0,)): 1.0}, 2, [2])
    query = query_obs({(0,): 3.0, (1,): 1.0})
    for call in (
        lambda: explain_local(model, query, k=k),
        lambda: explain_global(model, (0,), k=k),
        lambda: aggregate_local(model, [query], k=k),
        lambda: discriminative_features(model, k),
    ):
        with pytest.raises(ValueError, match="k must be >= 1"):
            call()
    assert len(explain_local(model, query, k=1)) == 1
    assert len(explain_global(model, (0,), k=1)) == 1
    assert [len(rows) for rows in aggregate_local(model, [query], k=1).values()] == [1]


def test_every_ranking_breaks_ties_by_feature_index():
    # target 0 holds feature 4 three times and features 0-3 once each, target 1
    # feature 5: every feature is exclusive, so 0-3 tie for target 0 and all six
    # tie on entropy
    entries = {((0,), (j,)): 1.0 for j in range(4)}
    entries.update({((0,), (4,)): 3.0, ((1,), (5,)): 1.0})
    model = make_model(entries, 2, [6])
    query = query_obs({(j,): 1.0 for j in (3, 1, 4, 0, 2)})
    rankings = {
        "local": (lambda k: explain_local(model, query, k=k), [4, 0, 1, 2, 3]),
        "global": (lambda k: explain_global(model, (0,), k=k), [4, 0, 1, 2, 3, 5]),
        "aggregate": (lambda k: aggregate_local(model, [query, query], k=k)[("c0",)], [4, 0, 1, 2, 3]),
        "discriminative": (lambda k: discriminative_features(model, k or 6), [0, 1, 2, 3, 4, 5]),
    }
    for name, (rank, expected) in rankings.items():
        rows = rank(None)
        assert [r.feature_index for r in rows] == [(j,) for j in expected], name
        assert abs(sum(r.share for r in rows) - 1.0) < 1e-12, name
        # k cuts the ranking after shares are taken over every candidate
        for k in range(1, len(rows) + 1):
            assert rank(k) == rows[:k], (name, k)


EXPLAIN_PY = Path(__file__).resolve().parents[1] / "src" / "sparseborn" / "explain.py"
LAYOUT = {
    "span", "qcols", "qtheta", "col_ptr", "rows", "amp", "phi", "lengths", "entry", "_index",
    "magnitudes", "totals", "modulus", "angle",
}


def test_explanations_read_no_level_layout():
    # explanations read a level only through _Level.probabilities and _Level.attribution,
    # and a table through _LevelTable.target_weights, so a new query or table layout
    # leaves them as they are
    tree = ast.parse(EXPLAIN_PY.read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert read & LAYOUT == set()


def _two_dimension_model():
    vocab = Vocabulary()
    records = [
        RawRecord([("topic", t), ("lang", lang)], [("token", f"{t}-{lang}", 1.0)])
        for t in ("sport", "tech") for lang in ("en", "de")
    ]
    return fit(encode(records, vocab, grow=True), vocab)


@pytest.mark.parametrize(
    "target", [("sport", "fr"), ("golf", "en"), (0, 2), (2, 0), (-1, 0), (0,), (0, 0, 0)]
)
def test_an_unknown_target_lists_every_dimensions_values(target):
    model = _two_dimension_model()
    with pytest.raises(UnknownTargetError) as err:
        explain_global(model, target)
    assert err.value.valid == [["sport", "tech"], ["en", "de"]]
    assert str(err.value) == f"unknown target {target!r}; valid targets: ['sport', 'tech'], ['en', 'de']"


def test_a_known_target_resolves_by_values_or_by_index():
    model = _two_dimension_model()
    assert explain_global(model, ("tech", "de")) == explain_global(model, (1, 1))
    assert explain_global(model, (1, 1))[0].target == ("tech", "de")
    with pytest.raises(SchemaError):
        explain_global(model, ("tech",))


def test_an_integer_target_out_of_range_lists_the_one_dimensions_values():
    model = make_model({((0,), (0,)): 1.0, ((1,), (1,)): 1.0}, 2, [2])
    for target in ((2,), (-1,), (0, 0)):
        with pytest.raises(UnknownTargetError) as err:
            explain_global(model, target)
        assert str(err.value) == f"unknown target {target!r}; valid targets: c0, c1"
