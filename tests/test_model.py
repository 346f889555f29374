"""Training, weighting, prediction, fallback, and persistence."""
import gc
import io
import json
import math
import sys
import threading

import numpy as np
import pytest

from helpers import build_vocab, labeled_obs, make_model, query_obs, random_matrix_corpus, random_query
from oracle import DenseOracle, bayes_rule, born_rule, contract_entries
from sparseborn.counts import SparseCounts
from sparseborn.data import EncodedObservation, Vocabulary, encode, RawRecord
from sparseborn.errors import ArchiveError, InvalidRecordError, SchemaError, ShapeError
from sparseborn.model import (
    Hyperparams,
    Model,
    PhaseTable,
    entropy_weights,
    fit,
    load,
    weight_tensor,
)
from sparseborn.policy import Policy


def dist_close(a, b, tol=1e-12):
    keys = set(a) | set(b)
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= tol for k in keys)


# -- hyperparameters and phases ------------------------------------------


def test_hyperparams_validation():
    Hyperparams(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Hyperparams(h=-1)
    with pytest.raises(ValueError):
        Hyperparams(b=-0.1)
    with pytest.raises(ValueError):
        Hyperparams(p=0.0)


def test_hyperparams_reject_non_finite():
    for name in ("h", "b", "p"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError):
                Hyperparams(**{name: value})


def test_phase_table_drops_zeros_and_checks_finite():
    table = PhaseTable({((0,), (1,)): 0.0, ((1,), (1,)): 0.5})
    assert ((0,), (1,)) not in table.entries
    assert table.get((1,), (1,)) == 0.5
    with pytest.raises(ValueError):
        PhaseTable({((0,), (0,)): float("nan")})


# -- fit and update --------------------------------------------------------


def test_fit_sums_observations():
    vocab = build_vocab(2, [3])
    obs = [
        labeled_obs(0, {(1,): 1.0}),
        EncodedObservation(
            label_weights=({0: 1.0},),
            feature_weights=({1: 1.0, 2: 1.0},),
        ),
    ]
    model = fit(obs, vocab)
    assert model.corpus.entries == {
        ((0,), (1,)): 2.0,
        ((0,), (2,)): 1.0,
    }


def test_fit_errors():
    vocab = build_vocab(2, [3])
    with pytest.raises(InvalidRecordError):
        fit([], vocab)
    bad = EncodedObservation(label_weights=({0: 1.0},), feature_weights=({0: 1.0}, {0: 1.0}))
    with pytest.raises(ShapeError):
        fit([bad], vocab)


def test_update_empty_is_identity():
    model = make_model({((0,), (0,)): 1.0}, 1, [2])
    before = dict(model.corpus.entries)
    model.update([])
    assert model.corpus.entries == before


def test_fit_union_equals_update_exactly():
    rng = np.random.default_rng(11)
    vocab = build_vocab(3, [6])
    d1 = [labeled_obs(int(rng.integers(0, 3)), random_query(rng, 6)) for _ in range(8)]
    d2 = [labeled_obs(int(rng.integers(0, 3)), random_query(rng, 6)) for _ in range(5)]
    merged = fit(d1 + d2, vocab)
    incremental = fit(d1, vocab).update(d2)
    assert merged.corpus.entries == incremental.corpus.entries
    for _ in range(10):
        q = query_obs(random_query(rng, 6))
        assert merged.predict(q).distribution == incremental.predict(q).distribution


def test_online_chunks_equal_single_shot():
    rng = np.random.default_rng(12)
    vocab = build_vocab(4, [30])
    data = [labeled_obs(int(rng.integers(0, 4)), random_query(rng, 30)) for _ in range(100)]
    single = fit(data, vocab)
    chunked = fit(data[:10], vocab)
    for start in range(10, 100, 10):
        chunked.update(data[start : start + 10])
    assert single.corpus.entries == chunked.corpus.entries


def test_update_sums_cells_like_a_refit_bitwise():
    """A cell that several new observations hit is summed in arrival order."""
    vocab = build_vocab(2, [3])
    obs = [
        EncodedObservation(label_weights=({0: 1.0},), feature_weights=({0: w, 1: 0.1 * w},))
        for w in (0.7, 0.7, 0.7, 0.7, 0.7, 1 / 3)
    ]
    updated = fit(obs[:2], vocab).update(obs[2:])
    refit = fit(obs, vocab)
    bits = lambda model: [(key, w.hex()) for key, w in model.corpus.entries.items()]
    assert bits(updated) == bits(refit)


def test_update_invalidates_caches():
    model = make_model({((0,), (0,)): 1.0, ((1,), (1,)): 1.0}, 2, [3])
    q = query_obs({(0,): 1.0})
    assert model.predict(q).distribution[(0,)] == 1.0
    model.update([labeled_obs(1, {(0,): 3.0})])
    after = model.predict(q).distribution
    assert after[(1,)] > 0
    fresh = make_model(dict(model.corpus.entries), 2, [3])
    assert fresh.predict(q).distribution == after


# -- entropy weights -------------------------------------------------------


def test_entropy_single_target_feature_is_one():
    entries = {((0,), (0,)): 5.0, ((1,), (1,)): 2.0}
    weights = entropy_weights(SparseCounts(1, 1, entries))
    assert weights[(0,)] == 1.0
    assert weights[(1,)] == 1.0


def test_entropy_uniform_feature_is_zero():
    # balanced rows and an equally spread feature: exact maximum entropy
    entries = {
        ((0,), (0,)): 2.0,
        ((1,), (0,)): 2.0,
        ((0,), (1,)): 2.0,
        ((1,), (2,)): 2.0,
    }
    weights = entropy_weights(SparseCounts(1, 1, entries))
    assert abs(weights[(0,)]) < 1e-12


def test_entropy_hand_example():
    # {(t0,a):2,(t0,b):2,(t1,b):4}: balanced P(.|b) = (1/3, 2/3)
    entries = {((0,), (0,)): 2.0, ((0,), (1,)): 2.0, ((1,), (1,)): 4.0}
    weights = entropy_weights(SparseCounts(1, 1, entries), n_targets=2)
    h_b = -(1 / 3 * math.log(1 / 3) + 2 / 3 * math.log(2 / 3))
    expected = 1 - h_b / math.log(2)
    assert weights[(1,)] == pytest.approx(expected, abs=1e-15)
    assert weights[(1,)] == pytest.approx(0.0817, abs=5e-5)
    assert weights[(0,)] == 1.0


def test_entropy_matches_dense_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        entries, n_targets, _ = random_matrix_corpus(rng)
        weights = entropy_weights(SparseCounts(1, 1, entries), n_targets=n_targets)
        oracle = DenseOracle(entries, target_space=n_targets)
        expected = oracle.entropy_weights()
        for f, j in oracle.fpos.items():
            assert abs(weights[f] - expected[j]) < 1e-12


def test_entropy_is_one_iff_single_target():
    rng = np.random.default_rng(28)
    for _ in range(20):
        entries, n_targets, _ = random_matrix_corpus(rng)
        owners = {}
        for (t, f), _w in entries.items():
            owners.setdefault(f, set()).add(t)
        weights = entropy_weights(SparseCounts(1, 1, entries), n_targets=n_targets)
        for f, w in weights.items():
            assert (w == 1.0) == (len(owners[f]) == 1)


def test_update_grows_vocabulary():
    from sparseborn.data import RawRecord, encode

    vocab = Vocabulary()
    train = [RawRecord(labels=[("class", "a")], features=[("f", "x", 1.0)])]
    model = fit(encode(train, vocab, grow=True), vocab)
    more = [RawRecord(labels=[("class", "b")], features=[("f", "y", 2.0)])]
    model.update(encode(more, model.vocab, grow=True))
    assert model.corpus.entries == {((0,), (0,)): 1.0, ((1,), (1,)): 2.0}
    query = encode([RawRecord(features=[("f", "y", 1.0)])], model.vocab)[0]
    assert model.predict_labels(query) == [("b",)]


def test_entropy_single_target_space():
    entries = {((0,), (0,)): 1.0, ((0,), (1,)): 4.0}
    weights = entropy_weights(SparseCounts(1, 1, entries), n_targets=1)
    assert set(weights.values()) == {1.0}


# -- balanced weights ------------------------------------------------------


def test_weight_tensor_b0_column_stochastic():
    rng = np.random.default_rng(14)
    entries, _, _ = random_matrix_corpus(rng)
    ct = weight_tensor(SparseCounts(1, 1, entries), b=0.0)
    by_col = {}
    for (t, f), v in ct.items():
        by_col.setdefault(f, []).append(v)
    for f, vals in by_col.items():
        assert math.fsum(vals) == pytest.approx(1.0, abs=1e-12)


def test_weight_tensor_b1_row_stochastic():
    rng = np.random.default_rng(15)
    entries, _, _ = random_matrix_corpus(rng)
    ct = weight_tensor(SparseCounts(1, 1, entries), b=1.0)
    by_row = {}
    for (t, f), v in ct.items():
        by_row.setdefault(t, []).append(v)
    for t, vals in by_row.items():
        assert math.fsum(vals) == pytest.approx(1.0, abs=1e-12)


def test_weight_tensor_half_example():
    entries = {((0,), (0,)): 4.0, ((1,), (0,)): 1.0}
    ct = weight_tensor(SparseCounts(1, 1, entries), b=0.5)
    assert ct[((0,), (0,))] == pytest.approx(4.0 / (5**0.5 * 4**0.5), abs=1e-15)
    assert ct[((1,), (0,))] == pytest.approx(1.0 / (5**0.5 * 1**0.5), abs=1e-15)


@pytest.mark.parametrize(
    "weigh",
    [
        lambda c: weight_tensor(c, b=math.inf),
        lambda c: weight_tensor(c, b=math.nan),
        lambda c: weight_tensor(c, b=-1.0),
        lambda c: entropy_weights(c, n_targets=0),
        lambda c: entropy_weights(c, n_targets=-3),
        lambda c: entropy_weights(c, n_targets=math.inf),
        lambda c: entropy_weights(c, n_targets=2.5),
        lambda c: entropy_weights(c, n_targets=2),
    ],
    ids=["b=inf", "b=nan", "b=-1", "n=0", "n=-3", "n=inf", "n=2.5", "n=2<3 observed"],
)
def test_weights_reject_a_bad_balance_or_target_space(weigh):
    corpus = SparseCounts(1, 1, {((0,), (0,)): 1.0, ((1,), (0,)): 2.0, ((2,), (1,)): 1.0})
    with pytest.raises(ValueError):
        weigh(corpus)
    assert entropy_weights(corpus, n_targets=3) == entropy_weights(corpus)
    assert entropy_weights(corpus, n_targets=np.int64(4)) == entropy_weights(corpus, n_targets=4)


# -- prediction ------------------------------------------------------------


def test_single_owner_feature_predicts_that_target():
    entries = {((0,), (0,)): 3.0, ((1,), (1,)): 5.0}
    for h, b, p in [(0, 0, 1), (1, 1, 0.5), (2, 0.3, 1.5)]:
        model = make_model(entries, 2, [2], h=h, b=b, p=p)
        pred = model.predict(query_obs({(0,): 1.0}))
        assert pred.distribution[(0,)] == 1.0
        assert pred.fallback_depth == 0


def test_classical_reduction():
    rng = np.random.default_rng(16)
    for _ in range(30):
        entries, n_targets, n_feats = random_matrix_corpus(rng)
        model = make_model(entries, n_targets, [n_feats], h=0, b=0, p=1)
        q = random_query(rng, n_feats)
        expected = bayes_rule(entries, q)
        if expected is None:
            continue
        got = model.predict(query_obs(q)).distribution
        assert dist_close(got, expected)


def test_quantum_reduction():
    rng = np.random.default_rng(17)
    for _ in range(30):
        entries, n_targets, n_feats = random_matrix_corpus(rng)
        model = make_model(entries, n_targets, [n_feats], h=0, b=1, p=0.5)
        q = random_query(rng, n_feats)
        expected = born_rule(entries, q)
        if expected is None:
            continue
        got = model.predict(query_obs(q)).distribution
        assert dist_close(got, expected)


def test_predict_matches_dense_oracle_with_phases():
    rng = np.random.default_rng(18)
    for _ in range(30):
        entries, n_targets, n_feats = random_matrix_corpus(rng, max_targets=4, max_feats=12)
        phases = {
            key: rng.uniform(0, 2 * math.pi)
            for key in entries
            if rng.random() < 0.5
        }
        model = make_model(entries, n_targets, [n_feats], h=1, b=1, p=0.5, phases=phases)
        q = random_query(rng, n_feats)
        theta = {f: rng.uniform(0, 2 * math.pi) for f in q if rng.random() < 0.7}
        oracle = DenseOracle(entries, target_space=n_targets)
        expected = oracle.predict(q, h=1, b=1, p=0.5, theta=theta, phi=phases)
        obs = query_obs(q, phases=theta)
        if expected is None:
            assert model.predict(obs).fallback_depth > 0
            continue
        got = model.predict(obs).distribution
        assert dist_close(got, expected)


def test_contribution_invariant():
    rng = np.random.default_rng(19)
    entries, n_targets, n_feats = random_matrix_corpus(rng, max_targets=4, max_feats=10)
    h, b, p = 1.3, 0.7, 0.8
    model = make_model(entries, n_targets, [n_feats], h=h, b=b, p=p)
    q = random_query(rng, n_feats)
    pred = model.predict(query_obs(q))
    ht = entropy_weights(model.corpus, n_targets=n_targets)
    ct = weight_tensor(model.corpus, b=b)
    for (t, f), (modulus, angle) in pred.contributions.items():
        expected = ht[f] ** h * ct[(t, f)] ** p * q[f] ** p
        assert abs(modulus - expected) < 1e-9
        assert angle == 0.0


def test_contribution_angles_with_phases():
    entries = {((0,), (0,)): 2.0, ((1,), (0,)): 1.0, ((1,), (1,)): 1.0}
    phi = {((0,), (0,)): 0.3, ((1,), (1,)): -0.2}
    model = make_model(entries, 2, [2], phases=phi)
    theta = {(0,): 0.7}
    pred = model.predict(query_obs({(0,): 1.0, (1,): 2.0}, phases=theta))
    angles = {key: angle for key, (_, angle) in pred.contributions.items()}
    assert angles[((0,), (0,))] == 0.7 - 0.3
    assert angles[((1,), (0,))] == 0.7
    assert angles[((1,), (1,))] == 0.0 - (-0.2)


def test_scale_invariance():
    rng = np.random.default_rng(20)
    entries, n_targets, n_feats = random_matrix_corpus(rng)
    model = make_model(entries, n_targets, [n_feats], h=1, b=1, p=0.5)
    q = random_query(rng, n_feats)
    base = model.predict(query_obs(q))
    base_labels = model.predict_labels(query_obs(q), k=n_targets)
    for lam in (1e-6, 1e6):
        scaled = {f: w * lam for f, w in q.items()}
        pred = model.predict(query_obs(scaled))
        assert dist_close(pred.distribution, base.distribution, tol=1e-9)
        assert model.predict_labels(query_obs(scaled), k=n_targets) == base_labels


def test_distributions_normalized():
    rng = np.random.default_rng(21)
    for _ in range(20):
        entries, n_targets, n_feats = random_matrix_corpus(rng)
        h, b, p = rng.uniform(0, 3), rng.uniform(0, 2), rng.uniform(0.2, 2)
        model = make_model(entries, n_targets, [n_feats], h=h, b=b, p=p)
        pred = model.predict(query_obs(random_query(rng, n_feats)))
        assert abs(math.fsum(pred.distribution.values()) - 1.0) < 1e-9
        assert all(v >= 0 for v in pred.distribution.values())


def test_zero_phase_real_path_matches_forced_complex_path():
    rng = np.random.default_rng(22)
    entries, n_targets, n_feats = random_matrix_corpus(rng)
    q = random_query(rng, n_feats)
    real = make_model(entries, n_targets, [n_feats])
    fast = real.predict(query_obs(q)).distribution
    forced = make_model(entries, n_targets, [n_feats])
    keep = frozenset(range(1))
    table = forced._table(keep)
    forced._state.tables[keep] = table._replace(phi=np.zeros_like(table.amp))  # forces the complex kernel
    slow = forced.predict(query_obs(q)).distribution
    assert fast == slow  # bitwise


def test_high_h_concentrates_on_best_entropy_feature():
    # two features with identical balanced weights, different entropy
    entries = {
        ((0,), (0,)): 4.0,  # exclusive to t0: perfect signal
        ((0,), (1,)): 4.0,
        ((1,), (1,)): 1.0,  # shared: noisier
        ((1,), (2,)): 3.0,
    }
    q = {(0,): 1.0, (1,): 1.0}
    heads = []
    for h in (1.0, 10.0, 50.0):
        model = make_model(entries, 2, [3], h=h, b=1, p=0.5)
        pred = model.predict(query_obs(q))
        ranked = sorted(
            ((mod, key) for key, (mod, _) in pred.contributions.items()
             if key[0] == (0,)),
            reverse=True,
        )
        heads.append(ranked[0][1][1])
    assert heads[-1] == (0,)
    assert heads[-2] == heads[-1]


# -- fallback --------------------------------------------------------------


def test_unseen_query_returns_exact_prior():
    entries = {((0,), (0,)): 3.0, ((0,), (1,)): 1.0, ((1,), (1,)): 2.0}
    model = make_model(entries, 2, [2])
    obs = EncodedObservation(label_weights=(), feature_weights=({},))
    pred = model.predict(obs)
    marginal = {
        t: math.fsum(w for (tt, _), w in entries.items() if tt == t)
        for t in [(0,), (1,)]
    }
    total = math.fsum(marginal.values())
    assert pred.distribution == {t: m / total for t, m in marginal.items()}
    assert pred.fallback_depth == len(model.policy.steps) - 1
    assert pred.contributions == {}


def test_balanced_corpus_unseen_query_is_uniform():
    entries = {((0,), (0,)): 3.0, ((1,), (1,)): 3.0, ((2,), (2,)): 3.0}
    model = make_model(entries, 3, [3])
    pred = model.predict(EncodedObservation(label_weights=(), feature_weights=({},)))
    assert pred.distribution == {(0,): 1 / 3, (1,): 1 / 3, (2,): 1 / 3}


def test_two_dim_partial_match_uses_contracted_corpus():
    rng = np.random.default_rng(23)
    entries = {}
    for t in range(3):
        for _ in range(6):
            j0 = int(rng.integers(0, 4))
            j1 = int(rng.integers(0, 4))
            entries[((t,), (j0, j1))] = float(rng.integers(1, 9))
    model = make_model(entries, 3, [4, 4], h=1, b=1, p=0.5)
    # dimension-1 value 9 never occurs in the corpus: full level is degenerate
    obs = EncodedObservation(
        label_weights=(),
        feature_weights=({0: 2.0, 1: 1.0}, {}),
    )
    pred = model.predict(obs)
    assert pred.fallback_depth == 1
    assert pred.kept_dims == (0,)
    contracted = contract_entries(entries, keep=[0])
    oracle = DenseOracle(contracted, target_space=3)
    expected = oracle.predict({(0,): 2.0, (1,): 1.0}, h=1, b=1, p=0.5)
    assert dist_close(pred.distribution, expected)


def test_fallback_depth_zero_when_any_feature_hits():
    entries = {((0,), (0,)): 1.0, ((1,), (1,)): 1.0}
    model = make_model(entries, 2, [2])
    pred = model.predict(query_obs({(0,): 1.0, (1,): 5.0}))
    assert pred.fallback_depth == 0


def test_query_out_of_bounds_raises():
    model = make_model({((0,), (0,)): 1.0}, 1, [2])
    with pytest.raises(ShapeError):
        model.predict(query_obs({(7,): 1.0}))
    with pytest.raises(ShapeError):
        model.predict(
            EncodedObservation(label_weights=(), feature_weights=({0: 1.0}, {0: 1.0}))
        )


# -- label ranking ---------------------------------------------------------


def test_predict_labels_top1():
    entries = {((0,), (0,)): 7.0, ((1,), (0,)): 3.0}
    model = make_model(entries, 2, [1], h=0, b=0, p=1)
    assert model.predict_labels(query_obs({(0,): 1.0}), k=1) == [("c0",)]


@pytest.mark.parametrize("k", [0, -1])
def test_prediction_top_rejects_k_below_one(k):
    # top(0) used to return nothing and top(-1) to drop the last target
    model = make_model({((0,), (0,)): 2.0, ((1,), (0,)): 1.0}, 2, [1])
    prediction = model.predict(query_obs({(0,): 1.0}))
    with pytest.raises(ValueError, match="k must be >= 1"):
        prediction.top(k)


def test_predict_labels_tie_breaks_lexicographic():
    entries = {((0,), (0,)): 2.0, ((1,), (0,)): 2.0}
    model = make_model(entries, 2, [1], h=0, b=0, p=1)
    assert model.predict_labels(query_obs({(0,): 1.0}), k=2) == [("c0",), ("c1",)]


def test_multidim_target_argmax_is_joint():
    vocab = Vocabulary()
    records = [
        RawRecord(labels=[("a", "x"), ("b", "u")], features=[("f", "one", 1.0)]),
        RawRecord(labels=[("a", "y"), ("b", "v")], features=[("f", "two", 1.0)]),
        RawRecord(labels=[("a", "y"), ("b", "v")], features=[("f", "two", 1.0)]),
    ]
    obs = encode(records, vocab, grow=True)
    model = fit(obs, vocab)
    query = encode([RawRecord(features=[("f", "two", 1.0)])], model.vocab)[0]
    assert model.predict_labels(query, k=1) == [("y", "v")]


# -- persistence -----------------------------------------------------------


def test_save_load_round_trip_predictions():
    rng = np.random.default_rng(24)
    entries, n_targets, n_feats = random_matrix_corpus(rng)
    # non-representable decimals exercise the exact float round trip
    entries = {k: w / 3.0 for k, w in entries.items()}
    model = make_model(entries, n_targets, [n_feats], h=1.25, b=0.4, p=0.75)
    buffer = io.StringIO()
    model.save(buffer)
    buffer.seek(0)
    loaded = load(buffer)
    assert loaded.corpus.entries == model.corpus.entries
    assert loaded.hyper == model.hyper
    assert loaded.policy == model.policy
    for _ in range(10):
        q = query_obs(random_query(rng, n_feats))
        assert loaded.predict(q).distribution == model.predict(q).distribution


def test_save_omits_empty_phases_and_round_trips_them():
    model = make_model({((0,), (0,)): 1.0}, 1, [1])
    buffer = io.StringIO()
    model.save(buffer)
    payload = json.loads(buffer.getvalue())
    assert "phases" not in payload
    phased = make_model({((0,), (0,)): 1.0}, 1, [1], phases={((0,), (0,)): 0.25})
    buffer = io.StringIO()
    phased.save(buffer)
    buffer.seek(0)
    assert load(buffer).phases == phased.phases


def test_save_is_deterministic():
    rng = np.random.default_rng(25)
    entries, n_targets, n_feats = random_matrix_corpus(rng)
    a, b = io.StringIO(), io.StringIO()
    make_model(entries, n_targets, [n_feats]).save(a)
    make_model(entries, n_targets, [n_feats]).save(b)
    assert a.getvalue() == b.getvalue()


def test_load_rejects_bad_archives():
    with pytest.raises(ArchiveError):
        load(io.StringIO("not json"))
    with pytest.raises(ArchiveError):
        load(io.StringIO(json.dumps({"format": "other"})))
    good = io.StringIO()
    make_model({((0,), (0,)): 1.0}, 1, [1]).save(good)
    payload = json.loads(good.getvalue())
    payload["version"] = 99
    with pytest.raises(ArchiveError):
        load(io.StringIO(json.dumps(payload)))
    del payload["version"]
    with pytest.raises(ArchiveError):
        load(io.StringIO(json.dumps(payload)))


def test_load_rejects_deeply_nested_json():
    with pytest.raises(ArchiveError):
        load(io.StringIO("[" * 100_000 + "]" * 100_000))


def test_load_rejects_non_finite_corpus_weight():
    good = io.StringIO()
    make_model({((0,), (0,)): 1.0, ((1,), (1,)): 2.0}, 2, [2]).save(good)
    for bad in (math.nan, math.inf):
        payload = json.loads(good.getvalue())
        payload["corpus"][1][2] = bad
        with pytest.raises(ArchiveError):
            load(io.StringIO(json.dumps(payload)))


def test_load_sums_unsorted_and_repeated_cells():
    # cells out of order and split in two are summed in file order, as adds would be, and kept in key order
    archive = io.StringIO()
    make_model({((0,), (0,)): 1.0, ((1,), (1,)): 2.0}, 2, [2]).save(archive)
    payload = json.loads(archive.getvalue())
    payload["corpus"] = [[[1], [1], 0.1], [[0], [0], 1.0], [[1], [1], 0.2], [[1], [0], 3.0]]
    corpus = load(io.StringIO(json.dumps(payload))).corpus
    assert list(corpus.entries.items()) == [
        (((0,), (0,)), 1.0),
        (((1,), (0,)), 3.0),
        (((1,), (1,)), 0.1 + 0.2),
    ]
    payload["corpus"][0][1] = [0, 1]
    with pytest.raises(ArchiveError):
        load(io.StringIO(json.dumps(payload)))
    payload["corpus"][0][1] = [0.5]
    with pytest.raises(ArchiveError):
        load(io.StringIO(json.dumps(payload)))


def test_load_rejects_non_string_or_repeated_dimension_names_and_values():
    good = io.StringIO()
    make_model({((0,), (0, 1)): 1.0, ((1,), (1, 0)): 2.0}, 2, [2, 2]).save(good)
    edits = [
        lambda p: p["target_dims"][0].update(values=[0, 1]),
        lambda p: p["target_dims"][0].update(values=["c0", "c0"]),
        lambda p: p["target_dims"][0].update(values="c0"),
        lambda p: p["feature_dims"][0].update(name=5),
        lambda p: p["feature_dims"][1].update(name="dim0"),
        lambda p: p["feature_dims"][1]["values"].__setitem__(1, None),
    ]
    for edit in edits:
        payload = json.loads(good.getvalue())
        edit(payload)
        with pytest.raises(ArchiveError):
            load(io.StringIO(json.dumps(payload)))


def test_load_rejects_non_integer_policy_ordinals():
    # a float ordinal equals its integer in a set, so the policy would pass its
    # checks and fail only when a fallback indexes the corpus with it
    good = io.StringIO()
    make_model({((0,), (0, 1)): 1.0, ((1,), (1, 0)): 2.0}, 2, [2, 2]).save(good)
    for bad in (1.0, "1", None):
        payload = json.loads(good.getvalue())
        payload["policy"][0][1] = bad
        with pytest.raises(ArchiveError):
            load(io.StringIO(json.dumps(payload)))


def test_phase_cells_are_checked_like_corpus_cells():
    vocab = build_vocab(2, [2])
    corpus = SparseCounts(1, 1, {((0,), (0,)): 1.0, ((1,), (1,)): 2.0})
    bad = [
        {(("x",), ("a", "b")): 0.5},  # not integers, too wide
        {((0,), (999999,)): 0.5},  # outside the vocabulary
        {((0,), (-1,)): 0.5},
        {((0,), (0, 1)): 0.5},  # too wide
        {((), (0, 1)): 0.5},  # right total width, wrong split
        {((0.0,), (1,)): 0.5},  # not integers
    ]
    for phases in bad:
        with pytest.raises(ShapeError):
            Model(corpus, vocab, phases=PhaseTable(phases))
    good = io.StringIO()
    Model(corpus, vocab, phases=PhaseTable({((1,), (1,)): 0.5})).save(good)
    for cell in (["x"], "ab", 0.5), ([0], [999999], 0.5):
        payload = json.loads(good.getvalue())
        payload["phases"] = [list(cell)]
        with pytest.raises(ArchiveError):
            load(io.StringIO(json.dumps(payload)))


def test_corpus_indices_outside_vocabulary_rejected():
    good = io.StringIO()
    make_model({((0,), (0,)): 1.0, ((1,), (1,)): 2.0}, 2, [2]).save(good)
    payload = json.loads(good.getvalue())
    payload["corpus"].append([[5], [9], 1.0])
    with pytest.raises(ArchiveError):
        load(io.StringIO(json.dumps(payload)))
    payload["corpus"][-1] = [[0], [-1], 1.0]
    with pytest.raises(ArchiveError):
        load(io.StringIO(json.dumps(payload)))
    vocab = build_vocab(2, [2])
    for key in (((2,), (0,)), ((0,), (2,))):
        with pytest.raises(ShapeError):
            Model(SparseCounts(1, 1, {key: 1.0}), vocab)
    model = make_model({((0,), (0,)): 1.0, ((1,), (1,)): 2.0}, 2, [2])
    cells = list(model.corpus.entries.items())
    with pytest.raises(ShapeError):
        model.update([labeled_obs(0, {(1,): 1.0}), labeled_obs(1, {(2,): 1.0})])
    assert list(model.corpus.entries.items()) == cells


# An archive written before the corpus was stored as arrays; the same inputs
# must still produce exactly these bytes.
GOLDEN_ARCHIVE = (
    '{"format":"sparseborn-model","version":1,"hyper":{"h":0.5,"b":0.25,"p":0.6666666666666666}'
    ',"target_dims":[{"name":"class","values":["c0","c1","c2"]}],"feature_dims":[{"name":"dim0",'
    '"values":["d0v0","d0v1","d0v2"]},{"name":"dim1","values":["d1v0","d1v1"]'
    '}],"policy":[[0,1],[1],[]],"corpus":[[[0],[0,1],0.256],[[0],[1,1],0.09]'
    ',[[0],[2,1],0.8333333333333333],[[1],[0,0],0.35],[[1],[0,1],0.06999999999999999]'
    ',[[2],[0,0],0.7],[[2],[0,1],0.13999999999999999]],"phases":[[[0],[0,1]'
    ',0.25],[[1],[0,0],-1.5]]}\n'
)


def test_archive_bytes_match_golden(tmp_path):
    """Two feature dimensions, fractional sums, phases and a non-default policy."""
    vocab = build_vocab(3, [3, 2])
    obs = [
        EncodedObservation(label_weights=({0: 1.0},), feature_weights=({0: 0.1, 2: 1 / 3}, {1: 2.5})),
        EncodedObservation(label_weights=({2: 1.0, 1: 0.5},), feature_weights=({0: 0.7}, {0: 1.0, 1: 0.2})),
        EncodedObservation(
            label_weights=({0: 1.0},), feature_weights=({0: 0.2, 1: 3.0}, {1: 0.1}), scale=0.3
        ),
    ]
    model = fit(
        obs,
        vocab,
        hyper=Hyperparams(h=0.5, b=0.25, p=2 / 3),
        phases=PhaseTable({((0,), (0, 1)): 0.25, ((1,), (0, 0)): -1.5}),
        policy=Policy.from_lists([[0, 1], [1], []]),
    )
    buffer = io.StringIO()
    model.save(buffer)
    assert buffer.getvalue() == GOLDEN_ARCHIVE
    model.save(tmp_path / "model.json")
    assert (tmp_path / "model.json").read_text(encoding="utf-8") == GOLDEN_ARCHIVE


def test_failed_update_leaves_model_unchanged():
    rng = np.random.default_rng(31)
    entries, n_targets, n_feats = random_matrix_corpus(rng)
    model = make_model(entries, n_targets, [n_feats])
    queries = [query_obs(random_query(rng, n_feats)) for _ in range(10)]
    predictions = [model.predict(q).distribution for q in queries]
    cells = list(model.corpus.entries.items())
    archive = io.StringIO()
    model.save(archive)
    good = labeled_obs(0, {(0,): 5.0})
    bad = EncodedObservation(label_weights=({0: 1.0},), feature_weights=({0: 1.0}, {0: 1.0}))
    with pytest.raises(SchemaError):
        model.update([good, bad])
    assert list(model.corpus.entries.items()) == cells
    assert [model.predict(q).distribution for q in queries] == predictions
    after = io.StringIO()
    model.save(after)
    assert after.getvalue() == archive.getvalue()


# -- caches and concurrency -----------------------------------------------


def test_cache_equals_fresh_recomputation():
    rng = np.random.default_rng(26)
    entries, n_targets, n_feats = random_matrix_corpus(rng)
    model = make_model(entries, n_targets, [n_feats])
    q = query_obs(random_query(rng, n_feats))
    warm = model.predict(q).distribution  # warms the full-level table
    model.update([labeled_obs(0, {(0,): 2.0})])
    fresh = make_model(dict(model.corpus.entries), n_targets, [n_feats])
    assert model.predict(q).distribution == fresh.predict(q).distribution
    assert model.predict(q).distribution != warm  # cache was rebuilt


def test_views_over_shared_counts_keep_their_state_when_one_updates():
    model = make_model({((0,), (0,)): 1.0, ((1,), (0,)): 1.0, ((1,), (1,)): 1.0}, 2, [2])
    view = Model(model.corpus, model.vocab, hyper=Hyperparams(0, 0, 1))
    q = query_obs({(0,): 1.0})
    before = view.predict(q).distribution  # warms the view's level table
    entries = dict(view.corpus.entries)
    model.update([labeled_obs(0, {(0,): 1.0})])
    assert model.corpus.entries != entries
    assert view.corpus.entries == entries
    fresh = Model(view.corpus, view.vocab, hyper=Hyperparams(0, 0, 1))
    assert view.predict(q).distribution == fresh.predict(q).distribution == before


def two_label_records():
    return [
        RawRecord(labels=[("label", "a")], features=[("token", "x", 1.0), ("token", "y", 2.0)]),
        RawRecord(labels=[("label", "b")], features=[("token", "y", 1.0), ("token", "z", 3.0)]),
    ]


@pytest.mark.parametrize("path", ["returned", "given"])
def test_changing_the_corpus_it_returns_or_was_given_changes_no_model(path):
    vocab = Vocabulary()
    observations = encode(two_label_records(), vocab, grow=True)
    queries = encode(two_label_records(), vocab)
    untouched, archive = fit(observations, vocab), io.StringIO()
    untouched.save(archive)
    given = fit(observations, vocab).corpus
    model = fit(observations, vocab) if path == "returned" else Model(given, vocab.copy())
    model.predict(queries[0])  # warms the level table
    (model.corpus if path == "returned" else given).add_rows([(1, 0)], [5.0])
    for q in queries:
        assert model.predict(q).distribution == untouched.predict(q).distribution
    assert model.target_prior() == untouched.target_prior()
    after = io.StringIO()
    model.save(after)
    assert after.getvalue() == archive.getvalue()


def test_vocabulary_growth_without_update_changes_no_prediction():
    vocab = Vocabulary()
    observations = encode(two_label_records(), vocab, grow=True)
    warm, cold = fit(observations, vocab), fit(observations, vocab)
    queries = encode(two_label_records(), vocab)
    before = [warm.predict(q).distribution for q in queries]  # warms one model's tables
    for model in (warm, cold):
        new_label = RawRecord(labels=[("label", "c")], features=[("token", "x", 1.0)])
        encode([new_label], model.vocab, grow=True)
        assert model.vocab.shape() == ((3,), (3,))
    assert [cold.predict(q).distribution for q in queries] == before
    assert [warm.predict(q).distribution for q in queries] == before


def test_save_after_vocabulary_grows_a_dimension_writes_a_loadable_archive():
    vocab = Vocabulary()
    model = fit(encode(two_label_records(), vocab, grow=True), vocab)
    archive = io.StringIO()
    model.save(archive)
    grown = RawRecord(
        labels=[("label", "c"), ("topic", "t")], features=[("token", "w", 1.0), ("color", "red", 1.0)]
    )
    encode([grown], model.vocab, grow=True)
    assert (model.vocab.n_target_dims, model.vocab.n_feature_dims) == (2, 2)
    after = io.StringIO()
    model.save(after)
    assert after.getvalue() == archive.getvalue()
    loaded = load(io.StringIO(after.getvalue()))
    grown_queries = encode(two_label_records(), model.vocab)
    loaded_queries = encode(two_label_records(), loaded.vocab)
    assert [model.predict(q).distribution for q in grown_queries] == [
        loaded.predict(q).distribution for q in loaded_queries
    ]
    # the counts cannot take a new dimension: an update drops it again
    with pytest.raises(ShapeError):
        model.update([])
    assert model.vocab.shape() == ((2,), (3,))


def walk_steps(steps):
    """What a walk yields, as plain values: depth, rows, queries, and per row the
    targets, magnitudes and totals, plus every addend's modulus."""
    return [
        (depth, rows, decided) if level is None else (
            depth, rows, decided, level.table.target_ids,
            level.magnitudes[rows].tolist(), level.totals[rows].tolist(), level.modulus.tolist(),
        )
        for depth, level, rows, decided in steps
    ]


def test_paused_walk_finishes_on_the_state_it_started_on():
    entries = {
        ((0,), (0, 0)): 2.0, ((1,), (0, 1)): 1.0, ((1,), (1, 0)): 3.0,
        ((2,), (2, 2)): 1.0, ((0,), (1, 2)): 1.0,
    }
    model = make_model(entries, 3, [4, 3])
    old = make_model(entries, 3, [4, 3])
    queries = [
        EncodedObservation((), ({0: 1.0}, {0: 2.0})),  # decided at the full level
        EncodedObservation((), ({1: 1.0}, {1: 1.0})),  # (1, 1) unseen: dimension 0 decides
        EncodedObservation((), ({3: 1.0}, {0: 1.0})),  # value 3 unseen: the prior decides
    ]
    walk = model.walk(queries)
    first = next(walk)
    model.update([
        EncodedObservation(({0: 1.0},), ({1: 5.0}, {1: 1.0})),
        EncodedObservation(({2: 1.0},), ({3: 1.0}, {0: 1.0})),
    ])
    assert [step[0] for step in walk_steps(old.walk(queries))] == [0, 1, 2]
    assert walk_steps([first, *walk]) == walk_steps(old.walk(queries))


def test_predictions_during_updates_each_come_from_one_published_state():
    rng = np.random.default_rng(32)
    entries, n_targets, n_feats = random_matrix_corpus(rng)
    rounds = [
        [labeled_obs(int(rng.integers(n_targets)), random_query(rng, n_feats)) for _ in range(5)]
        for _ in range(20)
    ]
    # the last query knows no feature: the prior of the state decides it
    queries = [query_obs(random_query(rng, n_feats)) for _ in range(6)] + [query_obs({})]
    replay = make_model(entries, n_targets, [n_feats])
    published = [replay.predict_batch(queries, k=2)]
    for batch in rounds:
        published.append(replay.update(batch).predict_batch(queries, k=2))
    model = make_model(entries, n_targets, [n_feats])
    seen, done = [], threading.Event()

    def read():
        while not done.is_set():
            seen.append(model.predict_batch(queries, k=2))

    def write():
        for batch in rounds:
            model.update(batch)
        done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)] + [threading.Thread(target=write)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen and all(results in published for results in seen)
    assert model.predict_batch(queries, k=2) == published[-1]


def test_failed_update_forgets_grown_vocabulary_and_saves_loadable_archive():
    records = [
        RawRecord(labels=[("label", "a")], features=[("token", "x", 1.0), ("token", "y", 2.0)]),
        RawRecord(labels=[("label", "b")], features=[("token", "y", 1.0), ("token", "z", 3.0)]),
    ]
    vocab = Vocabulary()
    model = fit(encode(records, vocab, grow=True), vocab)
    queries = encode(records, model.vocab)
    before_shape = model.vocab.shape()
    before_vocab = [d.values[:] for d in model.vocab.target_dims + model.vocab.feature_dims]
    cells = list(model.corpus.entries.items())
    predictions = [model.predict(q).distribution for q in queries]
    archive = io.StringIO()
    model.save(archive)
    # a second label dimension and a new token and label value
    grown = RawRecord(
        labels=[("label", "c"), ("topic", "t")], features=[("token", "w", 1.0)]
    )
    observations = encode([grown], model.vocab, grow=True)
    assert model.vocab.n_target_dims == 2
    with pytest.raises(SchemaError):
        model.update(observations)
    assert model.vocab.shape() == before_shape
    assert [d.values for d in model.vocab.target_dims + model.vocab.feature_dims] == before_vocab
    assert model.vocab.target_dim("topic") is None
    assert model.vocab.feature_dims[0].encode("w") is None
    assert model.vocab.target_dims[0].encode("c") is None
    assert list(model.corpus.entries.items()) == cells
    assert [model.predict(q).distribution for q in queries] == predictions
    after = io.StringIO()
    model.save(after)
    assert after.getvalue() == archive.getvalue()
    reloaded = load(io.StringIO(after.getvalue()))
    assert [reloaded.predict(q).distribution for q in queries] == predictions
    # the vocabulary still grows normally afterwards
    more = RawRecord(labels=[("label", "c")], features=[("token", "w", 1.0)])
    model.update(encode([more], model.vocab, grow=True))
    assert model.vocab.shape() == ((3,), (4,))


def test_hyper_and_phases_are_fixed_per_model():
    model = make_model({((0,), (0,)): 3.0, ((1,), (1,)): 1.0}, 2, [2], phases={((0,), (0,)): 0.5})
    q = query_obs({(0,): 1.0, (1,): 1.0})
    before = model.predict(q).distribution  # warms the full-level table
    with pytest.raises(AttributeError):
        model.hyper = Hyperparams(0, 0, 1)
    with pytest.raises(AttributeError):
        model.phases = PhaseTable()
    with pytest.raises(TypeError):
        model.phases.entries[((1,), (1,))] = 1.0
    assert model.predict(q).distribution == before
    # another setting is another model over the same counts
    view = Model(model.corpus, model.vocab, hyper=Hyperparams(0, 0, 1), phases=model.phases)
    fresh = make_model(dict(model.corpus.entries), 2, [2], 0, 0, 1, phases={((0,), (0,)): 0.5})
    assert view.predict(q).distribution == fresh.predict(q).distribution


def test_policy_assignment_checks_the_dimension_count():
    model = make_model({((0,), (0,)): 1.0, ((1,), (1,)): 1.0}, 2, [2])
    with pytest.raises(ShapeError):
        model.policy = Policy.default(2)
    assert model.policy == Policy.default(1)
    archive = io.StringIO()
    model.save(archive)
    q = query_obs({(1,): 1.0})
    assert load(io.StringIO(archive.getvalue())).predict(q).distribution == model.predict(q).distribution


def test_failed_update_of_a_view_keeps_what_another_model_published():
    vocab = Vocabulary()
    model = fit(encode(two_label_records(), vocab, grow=True), vocab)
    view = Model(model.corpus, model.vocab, hyper=Hyperparams(0, 0, 1))
    new_label = RawRecord(labels=[("label", "c")], features=[("token", "x", 1.0)])
    model.update(encode([new_label], model.vocab, grow=True))
    new_dim = RawRecord(labels=[("label", "a"), ("topic", "t")], features=[("token", "x", 1.0)])
    with pytest.raises(SchemaError):
        view.update(encode([new_dim], view.vocab, grow=True))
    assert model.vocab.shape() == ((3,), (3,))
    archive = io.StringIO()
    model.save(archive)
    loaded = load(io.StringIO(archive.getvalue()))
    records = two_label_records() + [new_label]
    assert [loaded.predict(q).distribution for q in encode(records, loaded.vocab)] == [
        model.predict(q).distribution for q in encode(records, model.vocab)
    ]


def test_view_ignores_values_published_after_it_as_its_reload_does():
    records = [
        RawRecord(labels=[("label", "a")], features=[("token", "x", 1.0), ("color", "red", 1.0)]),
        RawRecord(labels=[("label", "b")], features=[("token", "y", 3.0), ("color", "blue", 1.0)]),
        RawRecord(labels=[("label", "a")], features=[("token", "z", 0.5), ("color", "blue", 1.0)]),
        RawRecord(labels=[("label", "b")], features=[("token", "w", 2.0), ("color", "red", 1.0)]),
    ]
    vocab = Vocabulary()
    model = fit(encode(records, vocab, grow=True), vocab)
    # the fallback step drops the token dimension, folding its total into the scale
    policy = Policy.from_lists([[0, 1], [1], []])
    view = Model(model.corpus, model.vocab, hyper=Hyperparams(0.5, 2, 0.25), policy=policy)
    archive = io.StringIO()
    view.save(archive)
    reloaded = load(io.StringIO(archive.getvalue()))
    new_token = RawRecord(labels=[("label", "b")], features=[("token", "q", 1.0), ("color", "red", 1.0)])
    model.update(encode([new_token], model.vocab, grow=True))
    query = [RawRecord(labels=[], features=[("token", "y", 1.0), ("token", "q", 0.5), ("color", "red", 1.0)])]
    [(_, dist, depth)] = view.predict_batch(encode(query, view.vocab))
    assert depth == 1
    assert reloaded.predict_batch(encode(query, reloaded.vocab)) == [(_, dist, depth)]


def test_normalized_queries_read_as_their_reload_reads_them():
    records = [
        RawRecord(labels=[("label", "a")], features=[("token", "x", 1.0), ("color", "red", 1.0)]),
        RawRecord(labels=[("label", "b")], features=[("token", "y", 3.0), ("color", "blue", 1.0)]),
        RawRecord(labels=[("label", "a")], features=[("token", "z", 0.5), ("color", "blue", 1.0)]),
        RawRecord(labels=[("label", "b")], features=[("token", "w", 2.0), ("color", "red", 1.0)]),
    ]
    vocab = Vocabulary()
    model = fit(encode(records, vocab, grow=True), vocab)
    policy = Policy.from_lists([[0, 1], [1], []])
    view = Model(model.corpus, model.vocab, hyper=Hyperparams(0.5, 2, 0.25), policy=policy)
    archive = io.StringIO()
    view.save(archive)
    reloaded = load(io.StringIO(archive.getvalue()))
    # published after the view: a token, and a label whose queries the view's vocabulary encodes
    new = RawRecord(labels=[("label", "c")], features=[("token", "q", 1.0), ("color", "red", 1.0)])
    model.update(encode([new], model.vocab, grow=True))
    features = [("token", "y", 1.0), ("token", "q", 0.5), ("color", "red", 1.0)]
    queries = [
        RawRecord(labels=[], features=features),
        RawRecord(labels=[("label", "c")], features=features),
        RawRecord(labels=[("label", "c")], features=[("token", "y", 3.0), ("color", "blue", 2.0)]),
        RawRecord(labels=[("label", "a")], features=features),
        RawRecord(labels=[], features=[("token", "q", 2.0), ("color", "red", 1.0)]),
    ]
    got = view.predict_batch(encode(queries, view.vocab, normalize=True))
    assert [depth for _, _, depth in got] == [1, 1, 0, 1, 1]
    assert reloaded.predict_batch(encode(queries, reloaded.vocab, normalize=True)) == got
    assert [view.predict(q).distribution for q in encode(queries, view.vocab, normalize=True)] == [
        reloaded.predict(q).distribution for q in encode(queries, reloaded.vocab, normalize=True)
    ]


@pytest.mark.parametrize("enabled", [True, False])
def test_save_and_load_pause_the_collector_and_restore_it(monkeypatch, enabled):
    model = make_model({((0,), (0,)): 1.0, ((1,), (1,)): 2.0}, 2, [2])
    seen = []
    dumps, loads = json.dumps, json.loads
    monkeypatch.setattr(json, "dumps", lambda *a, **k: seen.append(gc.isenabled()) or dumps(*a, **k))
    monkeypatch.setattr(json, "loads", lambda *a, **k: seen.append(gc.isenabled()) or loads(*a, **k))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        archive = io.StringIO()
        model.save(archive)
        assert gc.isenabled() is enabled
        load(io.StringIO(archive.getvalue()))
        assert gc.isenabled() is enabled
        with pytest.raises(ArchiveError):
            load(io.StringIO(archive.getvalue().replace("sparseborn-model", "other")))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False, False]  # paused while the archive is built or parsed
