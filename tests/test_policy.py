"""Fallback policies: p-norm loss, query contraction, greedy search."""
import math

import numpy as np
import pytest

from helpers import labeled_obs, make_model
from sparseborn.data import EncodedObservation, RawRecord, Vocabulary, encode
from sparseborn.errors import InvalidRecordError, ShapeError
from sparseborn.model import Hyperparams, fit
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


def test_learn_policy_rejects_out_of_range_feature_index():
    model = make_model({((0,), (0,)): 1.0, ((1,), (1,)): 1.0}, 2, [2])
    with pytest.raises(ShapeError):
        learn_policy(model, [labeled_obs(0, {(0,): 1.0}), labeled_obs(1, {(7,): 1.0})])
