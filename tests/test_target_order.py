"""The published state's target order, and distributions read as rows over it.

Every level table lists the corpus targets in lexicographic order, the order of
``target_prior()``; batched ``predict_at_dims`` returns rows over it, and no
distribution a public call returns is the state's own.
"""
from __future__ import annotations

import math
import warnings
from collections import Counter
from pathlib import Path

import pytest

from helpers import make_model, query_obs
from sparseborn.data import RawRecord, Vocabulary, encode, load_tabular
from sparseborn.model import Hyperparams, Model, fit
from sparseborn.policy import learn_policy

ZOO_CSV = Path(__file__).resolve().parent.parent / "data" / "zoo.csv"


def _zoo(mode="fold", targets=("type",), hyper=None):
    records = load_tabular(ZOO_CSV, list(targets), mode=mode, drop_columns=["animal_name"])
    vocab = Vocabulary()
    model = fit(encode(records, vocab, grow=True), vocab, hyper=hyper)
    return model, records


def _unknown(record):
    return RawRecord(record.labels, [(d, "unseen", w) for d, _, w in record.features])


def _bits(rows):
    return [None if row is None else [x.hex() for x in row] for row in rows]


def _walk_every_level(model, records):
    """Predict every record, then each record with each dimension left out or alone."""
    queries = encode(records, model.vocab, grow=False)
    model.predict_batch(queries)
    n = model.n_feature_dims
    for d in range(n):
        model.predict_at_dims(queries, set(range(n)) - {d})
        model.predict_at_dims(queries, {d})
    return queries


def _models():
    fold, records = _zoo("fold")
    yield "fold", fold, records
    tensor, records = _zoo("tensor")
    yield "tensor", tensor, records
    learned, records = _zoo("tensor")
    learned.policy, _ = learn_policy(learned, encode(records[::3], learned.vocab, grow=False))
    yield "learned", learned, records
    two, records = _zoo("tensor", ("type", "legs"))
    yield "two targets", two, records
    updated, records = _zoo("tensor")
    grown = [RawRecord([("type", "Dragon")], records[0].features), records[1]]
    updated.update(encode(grown, updated.vocab, grow=True))
    yield "updated", updated, records
    view = Model(tensor.corpus, tensor.vocab, hyper=Hyperparams(0, 0, 1))
    yield "view", view, records


@pytest.mark.parametrize("name", ["fold", "tensor", "learned", "two targets", "updated", "view"])
def test_every_level_table_lists_the_targets_in_the_prior_order(name):
    [(_, model, records)] = [m for m in _models() if m[0] == name]
    _walk_every_level(model, records)
    tables = model._state.tables.values()
    assert len(tables) >= min(2, model.n_feature_dims)
    for table in tables:
        assert table.target_ids == list(model.target_prior())


def test_batch_rows_equal_the_single_query_dicts_bitwise():
    model, records = _zoo("tensor")
    held = records[::9] + [_unknown(records[0])]
    held += [RawRecord(r.labels, [(d, v if n % 2 else "unseen", w) for n, (d, v, w) in enumerate(r.features)])
             for r in records[1::20]]
    queries = encode(held, model.vocab, grow=False)
    targets = list(model.target_prior())
    n_none = 0
    for dims in [(), (0,), (0, 3, 12), (5,), (7, 8), tuple(range(model.n_feature_dims))]:
        rows = model.predict_at_dims(queries, dims)
        singles = [model.predict_at_dims(q, dims) for q in queries]
        for single in singles:
            assert single is None or list(single) == targets
        assert _bits(rows) == _bits([None if s is None else list(s.values()) for s in singles])
        n_none += rows.count(None)
    assert n_none > 0


def test_changing_a_returned_distribution_changes_no_later_prediction():
    model, records = _zoo("fold")
    [q] = encode([_unknown(records[0])], model.vocab, grow=False)
    prior = model.target_prior()
    batch, single = model.predict_batch([q], k=3), model.predict(q)
    assert batch[0][2] == single.fallback_depth == len(model.policy.steps) - 1
    expected = (batch[0][0][0], dict(prior))

    changed = model.target_prior()
    changed[(0,)], changed[(6,)] = 0.0, 5.0
    model.predict(q).distribution[(6,)] = 7.0
    model.predict(q).magnitudes[(6,)] = 7.0
    ranked, dist, _ = model.predict_batch([q], k=3)[0]
    ranked.reverse()
    dist[(6,)] = 9.0
    [row] = model.predict_at_dims([q], ())
    row[6] = 11.0

    assert model.target_prior() == prior
    ranked, dist, _ = model.predict_batch([q], k=3)[0]
    assert (ranked[0], dist) == expected
    assert model.predict(q).distribution == prior
    assert model.predict(q).top(1)[0] == (expected[0], prior[expected[0]])
    assert model.predict_at_dims([q], ()) == [list(prior.values())]


def test_predictions_decided_before_the_terminal_step_leave_the_marginal_uncomputed():
    model, records = _zoo("fold")
    queries = encode(records, model.vocab, grow=False)
    terminal = len(model.policy.steps) - 1
    assert all(depth < terminal for _, _, depth in model.predict_batch(queries))
    assert "marginal" not in vars(model._state) and "prior" not in vars(model._state)
    model.predict_at_dims(queries[:5], {0})
    assert "marginal" not in vars(model._state)


# -- X_i past the largest float, for small p -----------------------------------


def _reference(model, q):
    """The distribution from each target's modulus in log space: X_i / max X, normalized."""
    moduli = Counter()
    for (t, _), (m, _) in model.predict(q).contributions.items():
        moduli[t] += m  # real addends: the moduli add
    top = max(math.log(m) for m in moduli.values())
    scaled = {t: math.exp((math.log(m) - top) / model.hyper.p) for t, m in moduli.items()}
    total = math.fsum(scaled.values())
    return {t: scaled.get(t, 0.0) / total for t in model.target_prior()}


def test_distributions_stay_finite_when_x_would_overflow():
    entries = {((0,), (j,)): 1.0 for j in range(4)} | {((1,), (j,)): 2.0 for j in range(2, 6)}
    model = make_model(entries, 2, [6], h=0, b=0, p=0.001)
    big = query_obs({(0,): 1.0, (1,): 1.0, (2,): 1.0, (3,): 1.0})  # X_0 ~ 4^1000, X_1 ~ 2^1000
    small = query_obs({(4,): 1.0})  # X_1 ~ 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (_, dist, _), (_, alone, _) = model.predict_batch([big, small])
        assert model.predict_batch([small])[0][1] == alone  # a row in range is unchanged
        prediction = model.predict(big)
    assert all(math.isfinite(v) for v in prediction.magnitudes.values())
    assert max(prediction.magnitudes.values()) == 1.0
    want = _reference(model, big)
    assert dist == prediction.distribution
    assert all(math.isclose(dist[t], want[t], rel_tol=1e-9, abs_tol=1e-300) for t in want)


def test_zoo_with_small_p_labels_every_class_as_often_as_the_file():
    model, records = _zoo("fold", hyper=Hyperparams(1, 1, 0.001))
    queries = encode(records, model.vocab, grow=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = model.predict_batch(queries)
    for _, dist, _ in results:
        assert all(math.isfinite(v) for v in dist.values())
        assert math.isclose(math.fsum(dist.values()), 1.0)
    predicted = Counter(model.vocab.decode_target(ranked[0]) for ranked, _, _ in results)
    assert predicted == Counter((r.labels[0][1],) for r in records)
    assert sorted(predicted.values()) == [4, 5, 8, 10, 13, 20, 41]
