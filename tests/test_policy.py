"""Fallback policies: p-norm loss, query contraction, greedy search."""
import io
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import labeled_obs, make_model
from sparseborn import model as model_module
from sparseborn.data import EncodedObservation, RawRecord, Vocabulary, encode, load_tabular
from sparseborn.errors import InvalidRecordError, ShapeError
from sparseborn.model import Hyperparams, Model, PhaseTable, fit, load
from sparseborn.policy import Policy, learn_policy, p_norm_loss


def test_policy_validation():
    Policy((frozenset({0, 1}), frozenset({0}), frozenset()))
    with pytest.raises(ValueError):
        Policy((frozenset({1}), frozenset()))  # not the full set
    with pytest.raises(ValueError):
        Policy((frozenset({0, 1}), frozenset({0, 1})))  # not strictly nested
    with pytest.raises(ValueError):
        Policy((frozenset({0, 1}), frozenset({0})))  # missing terminal


def test_default_policy_drops_highest_first():
    policy = Policy.default(3)
    assert policy.to_lists() == [[0, 1, 2], [0, 1], [0], []]


def test_p_norm_loss_examples():
    assert p_norm_loss({(0,): 0.5, (1,): 0.5}, {(0,): 0.5, (1,): 0.5}, 2.0) == 0.0
    assert p_norm_loss({(0,): 1.0, (1,): 0.0}, {(0,): 0.0, (1,): 1.0}, 1.0) == 1.0
    got = p_norm_loss({(0,): 0.6, (1,): 0.4}, {(0,): 1.0, (1,): 0.0}, 2.0)
    assert got == pytest.approx(0.5 * math.sqrt(0.32), abs=1e-15)
    assert got == pytest.approx(0.2828, abs=5e-5)
    # an infinite p used to value every state at -1/2 and learn a meaningless policy
    with pytest.raises(ValueError):
        p_norm_loss({(0,): 1.0}, {(1,): 1.0}, math.inf)


def test_features_at_matches_dense_marginalization():
    obs = EncodedObservation(
        label_weights=(),
        feature_weights=({0: 2.0, 1: 1.0}, {0: 4.0, 2: 0.5}),
        scale=1.0,
    )
    dense = np.zeros((2, 3))
    for j0, w0 in obs.feature_weights[0].items():
        for j1, w1 in obs.feature_weights[1].items():
            dense[j0, j1] = w0 * w1
    got = obs.features_at([0])
    expect = dense.sum(axis=1)
    for j0 in range(2):
        assert got.get((j0,), 0.0) == pytest.approx(expect[j0], rel=1e-12)


def make_two_dim_dataset(rng, n=120, noise_card=4, signal_card=3):
    """Dimension 0 is uniform noise; dimension 1 determines the label."""
    records = []
    for _ in range(n):
        target = int(rng.integers(0, signal_card))
        records.append(
            RawRecord(
                labels=[("class", f"c{target}")],
                features=[
                    ("noise", f"n{int(rng.integers(0, noise_card))}", 1.0),
                    ("signal", f"s{target}", 1.0),
                ],
            )
        )
    return records


def test_learn_policy_matrix_case():
    model = make_model({((0,), (0,)): 2.0, ((1,), (1,)): 2.0}, 2, [1])
    validation = [labeled_obs(0, {(0,): 1.0}), labeled_obs(1, {(1,): 1.0})]
    policy, report = learn_policy(model, validation)
    assert policy.to_lists() == [[0], []]
    # exactly one extension round: the empty state plus one explored state
    assert [dims for dims, _ in report.explored] == [(), (0,)]
    assert len(report.path) == 2


def test_learn_policy_prefers_signal_dimension():
    rng = np.random.default_rng(31)
    records = make_two_dim_dataset(rng)
    vocab = Vocabulary()
    observations = encode(records, vocab, grow=True)
    model = fit(observations, vocab, hyper=Hyperparams(1, 1, 0.5))
    validation = encode(make_two_dim_dataset(rng, n=60), model.vocab, grow=False)
    policy, report = learn_policy(model, validation)
    # noise is ordinal 0, signal ordinal 1: the policy drops noise first
    assert policy.steps[0] == frozenset({0, 1})
    assert policy.steps[1] == frozenset({1})
    values = dict(report.explored)
    assert values[(1,)] > values[(0,)]
    assert values[(1,)] > values[()]


def test_learn_policy_tie_breaks_lowest_ordinal():
    # two identical feature dimensions: every extension value ties exactly
    records = []
    for target, token in [(0, "a"), (1, "b"), (0, "a"), (1, "b")]:
        records.append(
            RawRecord(
                labels=[("class", f"c{target}")],
                features=[("d0", token, 1.0), ("d1", token, 1.0)],
            )
        )
    vocab = Vocabulary()
    observations = encode(records, vocab, grow=True)
    model = fit(observations, vocab)
    policy, report = learn_policy(model, observations)
    path_states = [dims for dims, _ in report.path]
    assert path_states[1] == (0,)


def test_learn_policy_validation_requirements():
    model = make_model({((0,), (0,)): 1.0}, 1, [1])
    with pytest.raises(InvalidRecordError):
        learn_policy(model, [])
    unlabeled = EncodedObservation(label_weights=({},), feature_weights=({0: 1.0},))
    with pytest.raises(InvalidRecordError):
        learn_policy(model, [unlabeled])


def test_learn_policy_deterministic_and_monotone():
    rng = np.random.default_rng(32)
    records = make_two_dim_dataset(rng, n=80)
    vocab = Vocabulary()
    observations = encode(records, vocab, grow=True)
    model = fit(observations, vocab)
    p1, r1 = learn_policy(model, observations, loss_p=2.0)
    p2, r2 = learn_policy(model, observations, loss_p=2.0)
    assert p1 == p2
    assert r1.path == r2.path and r1.explored == r2.explored
    values = [v for _, v in r1.path]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_learn_policy_rejects_validation_with_wrong_dimension_count():
    model = make_model({((0,), (0,)): 1.0, ((1,), (1,)): 1.0}, 2, [2])
    two_dims = EncodedObservation(label_weights=({0: 1.0},), feature_weights=({0: 1.0}, {0: 1.0}))
    with pytest.raises(ShapeError):
        learn_policy(model, [labeled_obs(0, {(0,): 1.0}), two_dims])
    with pytest.raises(ShapeError):
        model.predict_at_dims(two_dims, {0})
    with pytest.raises(ShapeError):
        model.predict_at_dims([labeled_obs(0, {(0,): 1.0})], {1})
    assert model.predict_at_dims([], {0}) == []


def test_learn_policy_rejects_out_of_range_feature_index():
    model = make_model({((0,), (0,)): 1.0, ((1,), (1,)): 1.0}, 2, [2])
    with pytest.raises(ShapeError):
        learn_policy(model, [labeled_obs(0, {(0,): 1.0}), labeled_obs(1, {(7,): 1.0})])


@pytest.mark.parametrize("index", [7, -1])
def test_single_query_predict_at_dims_rejects_what_predict_rejects(index):
    model = make_model({((0,), (0,)): 1.0, ((1,), (1,)): 1.0}, 2, [2])
    q = EncodedObservation(label_weights=(), feature_weights=({index: 1.0},))
    with pytest.raises(ShapeError):
        model.predict(q)
    with pytest.raises(ShapeError):
        model.predict_at_dims(q, {0})
    with pytest.raises(ShapeError):
        model.predict_at_dims([q], {0})


def _two_record_model():
    """y: a/b; x: u, v, w."""
    records = [RawRecord([("y", "a")], [("x", "u", 1.0), ("x", "v", 1.0)]),
               RawRecord([("y", "b")], [("x", "v", 1.0), ("x", "w", 1.0)])]
    vocab = Vocabulary()
    validation = encode(records, vocab, grow=True)
    return fit(validation, vocab), validation


@pytest.mark.parametrize("labels", [({7: 1.0},), ({-1: 1.0},), ({0: 1.0}, {0: 1.0})])
def test_learn_policy_rejects_a_label_the_vocabulary_cannot_hold(labels):
    model, validation = _two_record_model()
    q = EncodedObservation(label_weights=labels, feature_weights=({0: 1.0},))
    with pytest.raises(ShapeError):
        learn_policy(model, validation + [q])


def test_a_label_without_counts_is_a_zero_padded_truth():
    model, validation = _two_record_model()
    _, report = learn_policy(model, validation)
    assert report.path == [((), -0.5 ** 1.5), ((0,), -0.0)]
    model.vocab.target_dims[0].encode("c", grow=True)
    q = EncodedObservation(label_weights=({2: 1.0},), feature_weights=({0: 1.0},))
    _, report = learn_policy(model, validation + [q])
    # predictions give c probability 0: the truth's row is (0, 0, 1)
    prior_loss, u_loss = 0.5 * math.sqrt(0.5), 0.5 * math.sqrt(2.0)
    assert report.path == [((), -math.fsum([prior_loss] * 2 + [0.5 * math.sqrt(1.5)]) / 3),
                           ((0,), -u_loss / 3)]


def test_learn_policy_reads_queries_as_the_views_reload_does(monkeypatch):
    def record(label, x, y, wx=1.0):
        return RawRecord(labels=[("label", label)], features=[("x", x, wx), ("y", y, 1.0)])

    vocab = Vocabulary()
    model = fit(encode([record("a", "p", "u"), record("b", "q", "v", 2.0),
                        record("a", "q", "u", 3.0)], vocab, grow=True), vocab)
    view = Model(model.corpus, model.vocab)
    archive = io.StringIO()
    view.save(archive)
    reloaded = load(io.StringIO(archive.getvalue()))
    model.update(encode([record("b", "r", "w")], model.vocab, grow=True))
    validation = [
        RawRecord(labels=[("label", "a")], features=[("x", "p", 1.0), ("x", "r", 1.0),
                                                     ("y", "u", 1.0), ("y", "w", 2.0)]),
        record("b", "q", "v"),
    ]
    expected = encode(validation, reloaded.vocab)
    reload_policy, reload_report = learn_policy(reloaded, expected)
    seen, calls = [], []
    predict_at_dims = Model.predict_at_dims

    def spy(self, queries, dims, state=None):
        seen.append(list(queries))
        calls.append(tuple(sorted(dims)))
        return predict_at_dims(self, queries, dims, state)

    monkeypatch.setattr(Model, "predict_at_dims", spy)
    policy, report = learn_policy(view, encode(validation, view.vocab))
    assert seen and all(batch == expected for batch in seen)
    # one batched call per explored state but the empty one, whose value is the prior's
    assert calls == [dims for dims, _ in report.explored if dims]
    assert (policy, report) == (reload_policy, reload_report)


def test_learn_policy_reads_the_state_published_when_it_starts(monkeypatch):
    rng = np.random.default_rng(33)
    vocab = Vocabulary()
    model = fit(encode(make_two_dim_dataset(rng, n=40), vocab, grow=True), vocab)
    archive = io.StringIO()
    model.save(archive)
    reloaded = load(io.StringIO(archive.getvalue()))
    raw = make_two_dim_dataset(rng, n=20)
    expected = learn_policy(reloaded, encode(raw, reloaded.vocab))
    # labels no longer follow the signal dimension, and a new noise value appears
    flipped = [
        RawRecord(labels=[("class", "c0")], features=[("noise", f"n{i % 5}", 1.0), ("signal", f"s{i % 3}", 1.0)])
        for i in range(60)
    ]
    build, updates = Model._build_table, []

    def racing(self, keep, state):
        if not updates:
            updates.append(self.update(encode(flipped, self.vocab, grow=True)))
        return build(self, keep, state)

    monkeypatch.setattr(Model, "_build_table", racing)
    assert learn_policy(model, encode(raw, model.vocab)) == expected
    assert updates and learn_policy(model, encode(raw, model.vocab)) != expected


# -- the batched search against the per-query search it replaced --------------

ZOO = load_tabular(
    Path(__file__).resolve().parent.parent / "data" / "zoo.csv",
    ["type"],
    mode="tensor",
    drop_columns=["animal_name"],
)


def reference_search(model, validation, loss_p):
    """One single-query predict_at_dims call per (state, query), scored with p_norm_loss."""
    queries = list(model._prepare(validation, model._state))
    truths = [obs.target_distribution() for obs in validation]

    def mean_value(preds):
        return -math.fsum(p_norm_loss(pred, truth, loss_p) for pred, truth in zip(preds, truths)) / len(truths)

    all_dims = frozenset(range(model.n_feature_dims))
    current, preds = frozenset(), [model.target_prior()] * len(queries)
    value = mean_value(preds)
    path, explored, chain = [((), value)], [((), value)], [current]
    while current != all_dims:
        best = None
        for d in sorted(all_dims - current):
            state = current | {d}
            candidate = []
            for obs, held in zip(queries, preds):
                dist = model.predict_at_dims(obs, state)
                candidate.append(held if dist is None else dist)
            explored.append((tuple(sorted(state)), mean_value(candidate)))
            if best is None or explored[-1][1] > best[0]:
                best = explored[-1][1], d, candidate
        if best[0] <= value:
            break
        value, current, preds = best[0], current | {best[1]}, best[2]
        chain.append(current)
        path.append((tuple(sorted(current)), value))
    return Policy.from_chain(chain, model.n_feature_dims), path, explored


def _zoo_split(rng, n_test):
    order = rng.permutation(len(ZOO))
    held = [ZOO[i] for i in order[:n_test]]
    # unknown values leave some dimensions of a query empty, or all of them
    for rec in held[: n_test // 3]:
        rec = RawRecord(rec.labels, [(d, v if rng.random() < 0.6 else "unseen", w) for d, v, w in rec.features])
        held.append(rec)
    held.append(RawRecord(held[0].labels, [(d, "unseen", w) for d, _, w in held[0].features]))
    return [ZOO[i] for i in order[n_test:]], held


def _phased(model, rng):
    cells = sorted(model.corpus.entries)
    phases = PhaseTable({cell: float(rng.uniform(-1, 1)) for cell in cells if rng.random() < 0.5})
    return Model(model.corpus, model.vocab, hyper=model.hyper, phases=phases)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["split", "phased", "view"]),
    loss_p=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
    hyper=st.sampled_from([Hyperparams(), Hyperparams(0, 0, 1), Hyperparams(0.5, 2, 0.25)]),
    batch_addends=st.sampled_from([1, 200, model_module.BATCH_ADDENDS]),
)
def test_batched_search_equals_the_per_query_search(seed, kind, loss_p, hyper, batch_addends):
    rng = np.random.default_rng(seed)
    train, held = _zoo_split(rng, int(rng.integers(3, 35)))
    vocab = Vocabulary()
    if kind == "view":  # the view's vocabulary is shared, and grows past what it published
        model = fit(encode(train[: len(train) // 2], vocab, grow=True), vocab, hyper=hyper)
        searched = Model(model.corpus, model.vocab, hyper=hyper)
        model.update(encode(train[len(train) // 2 :] + held[:3], model.vocab, grow=True))
    else:
        searched = fit(encode(train, vocab, grow=True), vocab, hyper=hyper)
    validation = [obs for obs in encode(held, searched.vocab) if obs.has_labels()]
    if kind == "phased":
        searched = _phased(searched, rng)
        for obs in validation[::2]:
            full = tuple(next(iter(m), 0) for m in obs.feature_weights)
            obs.phases = {full: float(rng.uniform(-1, 1))}
    with mock.patch.object(model_module, "BATCH_ADDENDS", batch_addends):
        policy, report = learn_policy(searched, validation, loss_p)
    assert (policy, report.path, report.explored) == reference_search(searched, validation, loss_p)
