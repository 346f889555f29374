"""Property: a model's lifecycle never leaves its counts, vocabulary and policy disagreeing.

A state machine grows a primary model by updates, makes views over its
counts with other hyperparameters, runs updates that fail because a record
brings a new dimension, assigns policies of the right and the wrong size,
and reloads models from their archives.  Views only ever fail to update:
a view that published would put its records into the primary's vocabulary.
A model's ``predict_batch`` and ``predict`` agree.  After every step, for
every live model:

* its corpus, vocabulary and policy agree in shape;
* its archive loads, saves to the same bytes, and the loaded model predicts
  bitwise what it predicts, queries encoded against each one's vocabulary.

And the primary's archive is the one ``fit`` writes for every record the
primary has published, with its hyperparameters and policy.
"""
import io

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from sparseborn.data import RawRecord, Vocabulary, encode
from sparseborn.errors import SchemaError, ShapeError
from sparseborn.model import Hyperparams, Model, fit, load
from sparseborn.policy import Policy

LABELS = ("a", "b", "c", "d")
TOKENS = ("x", "y", "z", "w", "v")
COLORS = ("red", "blue", "green")
HYPERS = (Hyperparams(), Hyperparams(0, 0, 1), Hyperparams(1, 0, 1), Hyperparams(0.5, 2, 0.25))
# every policy over the two feature dimensions, token (0) and color (1)
POLICIES = (
    Policy.default(2),
    Policy.from_lists([[0, 1], [1], []]),
    Policy.from_lists([[0, 1], []]),
)
MISMATCHED = (Policy.default(1), Policy.default(3))


def record(label, tokens, color, labels=(), features=()) -> RawRecord:
    return RawRecord(
        labels=[("label", label), *labels],
        features=[*(("token", t, w) for t, w in tokens), ("color", color, 1.0), *features],
    )


# every record holds a token, so the models always have both feature dimensions
tokens = st.lists(
    st.tuples(st.sampled_from(TOKENS), st.sampled_from([1.0, 2.0, 0.5, 3.0])), min_size=1, max_size=3
)
records = st.builds(record, st.sampled_from(LABELS), tokens, st.sampled_from(COLORS))
# a second label or feature dimension, which the counts cannot take
new_dimension = st.sampled_from(
    [{"labels": [("topic", "t")]}, {"features": [("shape", "round", 1.0)]}]
)
QUERIES = [
    record(label, [(t, 2.0), ("unseen", 1.0), (u, 0.5)], color)
    for label, t, u, color in zip(LABELS, TOKENS, TOKENS[1:] + TOKENS[:1], COLORS * 2)
] + [record("a", [("unseen", 1.0)], "purple")]


def archive(model) -> str:
    buffer = io.StringIO()
    model.save(buffer)
    return buffer.getvalue()


def predictions(model):
    return model.predict_batch(encode(QUERIES, model.vocab), k=2)


class ModelLifecycle(RuleBasedStateMachine):
    @initialize(batch=st.lists(records, min_size=1, max_size=4), hyper=st.sampled_from(HYPERS))
    def start(self, batch, hyper):
        vocab = Vocabulary()
        self.primary = fit(encode(batch, vocab, grow=True), vocab, hyper=hyper)
        self.published = list(batch)
        self.views = []

    def models(self):
        return [self.primary, *self.views]

    @rule(batch=st.lists(records, max_size=3))
    def update(self, batch):
        self.primary.update(encode(batch, self.primary.vocab, grow=True))
        self.published += batch

    @precondition(lambda self: len(self.views) < 2)
    @rule(hyper=st.sampled_from(HYPERS))
    def view(self, hyper):
        self.views.append(Model(self.primary.corpus, self.primary.vocab, hyper=hyper))

    @rule(data=st.data(), batch=st.lists(records, max_size=2), bad=new_dimension)
    def failed_update(self, data, batch, bad):
        model = data.draw(st.sampled_from(self.models()))
        records_in = batch + [record("c", [("new", 1.0)], "grey", **bad)]
        with pytest.raises(SchemaError):
            model.update(encode(records_in, model.vocab, grow=True))

    @rule(data=st.data(), policy=st.sampled_from(POLICIES + MISMATCHED))
    def assign_policy(self, data, policy):
        model = data.draw(st.sampled_from(self.models()))
        if policy in MISMATCHED:
            with pytest.raises(ShapeError):
                model.policy = policy
        else:
            model.policy = policy

    @rule(data=st.data())
    def reload(self, data):
        """A reloaded model has a vocabulary of its own, shared with no other model."""
        i = data.draw(st.integers(0, len(self.views)))
        loaded = load(io.StringIO(archive(self.models()[i])))
        if i == 0:
            self.primary = loaded
        else:
            self.views[i - 1] = loaded

    @rule(data=st.data())
    def predict_batch(self, data):
        model = data.draw(st.sampled_from(self.models()))
        singles = [model.predict(q) for q in encode(QUERIES, model.vocab)]
        assert [(dist, depth) for _, dist, depth in predictions(model)] == [
            (p.distribution, p.fallback_depth) for p in singles
        ]

    @invariant()
    def shapes_agree(self):
        for model in self.models():
            sizes = model.vocab.shape()
            assert (model.corpus.target_dims, model.corpus.feature_dims) == tuple(map(len, sizes))
            assert model.policy.n_dims == model.vocab.n_feature_dims
            assert (model.corpus.keys < sizes[0] + sizes[1]).all()

    @invariant()
    def archives_round_trip(self):
        for model in self.models():
            text = archive(model)
            loaded = load(io.StringIO(text))
            assert archive(loaded) == text
            assert predictions(loaded) == predictions(model)

    @invariant()
    def primary_equals_refit(self):
        vocab = Vocabulary()
        refit = fit(
            encode(self.published, vocab, grow=True),
            vocab,
            hyper=self.primary.hyper,
            policy=self.primary.policy,
        )
        assert archive(refit) == archive(self.primary)


ModelLifecycle.TestCase.settings = settings(max_examples=50, stateful_step_count=20, deadline=None)
test_model_lifecycle = ModelLifecycle.TestCase
