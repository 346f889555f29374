"""``encode`` returns read-only views over one flat batch, and every reader takes the batch's arrays.

A view's maps are built from the batch on first read, so the arrays and the maps cannot disagree; fit,
update, predict and policy search read the arrays themselves.  Each must give what it gives for plain
dict-backed copies of the same observations: byte-identical archives and bitwise distributions.
"""
from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_model
from oracle import reference_phi
from sparseborn import data as data_module
from sparseborn import model as model_module
from sparseborn.data import EncodedObservation, RawRecord, Vocabulary, encode
from sparseborn.errors import InvalidRecordError, SchemaError
from sparseborn.model import PhaseTable, fit, load
from sparseborn.policy import learn_policy


def _copy(obs):
    """A hand-built, dict-backed copy of an observation."""
    return EncodedObservation(tuple(map(dict, obs.label_weights)), tuple(map(dict, obs.feature_weights)),
                              obs.scale, obs.phases, obs.normalized)


def _archive(model):
    out = io.StringIO()
    model.save(out)
    return out.getvalue()


def _bits(results):
    return [(top, {t: w.hex() for t, w in dist.items()}, depth) for top, dist, depth in results]


_WEIGHTS = st.one_of(st.integers(1, 3), st.floats(0.01, 100.0), st.just(True))


def _records(names, values, min_labels, max_size):
    labels = st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from("ab")), min_size=min_labels, max_size=3)
    features = st.lists(st.tuples(st.sampled_from(names), st.sampled_from(values), _WEIGHTS), max_size=7)
    return st.lists(st.tuples(labels, features).map(lambda r: RawRecord(*map(list, r))), min_size=1,
                    max_size=max_size)


def _outcome(call, *args):
    """What a call returns, its distributions as bits, or the error it raises."""
    try:
        result = call(*args)
    except (InvalidRecordError, SchemaError) as exc:
        return type(exc), str(exc)
    return _bits(result) if call.__name__ == "predict_batch" else result


@settings(deadline=None, max_examples=40)
@given(
    train=_records("fgh", "abcd", 1, 6),
    more=_records("fghk", "abcde", 1, 4),  # k: a new dimension, which an update rejects
    queries=_records("fghkz", "abcdez", 0, 5),
    normalize=st.booleans(),
)
def test_readers_of_views_are_the_readers_of_dict_copies_bitwise(train, more, queries, normalize):
    """Several dimensions, repeated values, dimensions created part-way through a batch, unknown names
    and values without ``grow`` (``z``), and queries prepared after the vocabulary grew."""
    vocab = Vocabulary()
    views = encode(train, vocab, grow=True, normalize=normalize)
    model, plain = fit(views, vocab), fit([_copy(obs) for obs in views], vocab)
    assert _archive(model) == _archive(plain)
    early = encode(queries, model.vocab, normalize=normalize)  # before the vocabulary grows
    grown = encode(more, model.vocab, grow=True, normalize=normalize)
    encode(more, plain.vocab, grow=True, normalize=normalize)  # the same growth, its views unused
    if model.vocab.n_feature_dims == model.n_feature_dims:  # no new dimension: both read values they do not know
        assert _outcome(model.predict_batch, early) == _outcome(plain.predict_batch, [_copy(q) for q in early])
    # an update that would add a dimension raises, and publishes nothing
    updated = _outcome(model.update, grown[::-1]), _outcome(plain.update, [_copy(obs) for obs in grown[::-1]])
    assert updated == (model, plain) or updated[0] == updated[1]
    assert _archive(model) == _archive(plain)
    late = encode(queries, model.vocab, normalize=normalize)
    assert _outcome(model.predict_batch, late) == _outcome(plain.predict_batch, [_copy(q) for q in late])
    labelled = [q for q in late if q.has_labels()]
    if labelled and len(model.corpus):
        assert learn_policy(model, labelled) == learn_policy(plain, [_copy(q) for q in labelled])


def _records_of(*rows):
    return [RawRecord([("label", label)], [("a", a, 1.0), ("b", b, 2.0)]) for label, a, b in rows]


def test_a_batch_prepared_after_growth_reads_as_its_known_copies():
    vocab = Vocabulary()
    model = fit(encode(_records_of(("x", "p", "u"), ("y", "q", "v"), ("x", "q", "u")), vocab, grow=True), vocab)
    state = model._state
    for normalize in (False, True):
        # new values, then a new dimension, since the model published
        encode(_records_of(("z", "r", "w")), model.vocab, grow=True)
        batch = encode(_records_of(("x", "r", "u"), ("y", "p", "w"), ("z", "q", "v")), model.vocab, normalize=normalize)
        known = [_copy(obs.known(state.shape)) for obs in batch]
        assert any(obs.scale != kn.scale for obs, kn in zip(batch, known)) == normalize
        prepared = model._prepare(batch, state)
        assert [np.asarray(a).tobytes() for a in prepared.flat if a is not None] == [
            np.asarray(a).tobytes() for a in model_module._flat(known, 2) if a is not None]
        assert _bits(model.predict_batch(batch)) == _bits(model.predict_batch(known))
        grown = [RawRecord([("label", "x")], [("a", "p", 1.0), ("b", "u", 1.0), ("c", "s", 1.0)])]
        encode(grown, model.vocab, grow=True)
        wide = encode(_records_of(("x", "r", "u"), ("y", "p", "w")), model.vocab, normalize=normalize)
        reloaded = load(io.StringIO(_archive(model)))
        known = [_copy(obs.known(state.shape)) for obs in wide]
        assert _bits(model.predict_batch(wide)) == _bits(reloaded.predict_batch(known))
        model.vocab.truncate(state.shape)


def test_a_known_copy_is_the_encoding_against_the_smaller_vocabulary():
    vocab = Vocabulary()
    encode(_records_of(("x", "p", "u"), ("y", "q", "v")), vocab, grow=True)
    shape, published = vocab.shape(), vocab.copy()
    # a new label, a new value and a new dimension since
    encode([RawRecord([("label", "z")], [("a", "r", 1.0), ("c", "s", 1.0)])], vocab, grow=True)
    records = [*_records_of(("x", "r", "u"), ("z", "p", "w")),
               RawRecord([], [("a", "p", 3.0), ("a", "r", 1.0), ("b", "u", 2.0), ("c", "s", 5.0)]),
               RawRecord([("label", "y")], [("a", "q", 0.5), ("b", "v", 4.0), ("c", "s", 1.0)])]
    for normalize in (False, True):
        grown, fresh = encode(records, vocab, normalize=normalize), encode(records, published, normalize=normalize)
        assert [obs.known(shape) for obs in grown] == fresh
        assert [obs.known(shape).scale for obs in grown][2:] == ([1 / 6, 1 / 2] if normalize else [1.0, 1.0])


def test_phases_find_their_cells_as_the_per_cell_decode_does():
    entries = {((0,), (0, 1)): 2.0, ((1,), (0, 1)): 1.0, ((1,), (2, 0)): 3.0, ((0,), (1, 1)): 1.0, ((2,), (2, 2)): 4.0}
    phases = {((0,), (0, 1)): 0.5, ((1,), (2, 0)): -1.25, ((2,), (2, 2)): 2.0,
              ((2,), (0, 1)): 0.75, ((0,), (2, 1)): 1.5}  # the last two are no corpus cell
    for chosen in (phases, {key: phases[key] for key in list(phases)[3:]}):
        model = make_model(entries, 3, [3, 3], phases=chosen)
        table = model._table(frozenset({0, 1}))
        want = reference_phi(table, model.phases)
        assert (None if table.phi is None else table.phi.tolist()) == want
        assert (want is None) == (chosen is not phases)


def test_a_views_maps_are_read_only_and_built_only_when_read(monkeypatch):
    built = []  # the first map of each side of a row that a view built its maps of
    entries = data_module._Batch.entries
    spy = lambda self, r, lo, hi=None: built.append(lo) or entries(self, r, lo, hi)
    monkeypatch.setattr(data_module._Batch, "entries", spy)
    records = _records_of(("x", "p", "u"), ("y", "q", "v"), ("x", "q", "u"))
    vocab = Vocabulary()
    model = fit(encode(records, vocab, grow=True), vocab)
    model.update(encode(records[:1], model.vocab, grow=True))
    model.predict_batch(encode(records, model.vocab))
    assert built == []
    learn_policy(model, [q for q in encode(records, model.vocab) if q.has_labels()])
    assert built == [0, 0, 0]  # each query's labels, never its features
    built.clear()
    [obs] = encode(records[:1], model.vocab)
    assert obs.has_labels() and obs.target_distribution() == {(0,): 1.0}
    assert built == [0]  # the labels alone, once
    with pytest.raises(TypeError):
        obs.feature_weights[0][5] = 1.0
    with pytest.raises(AttributeError):
        obs.label_weights = ({},)
    assert obs.feature_weights == ({0: 1.0}, {0: 2.0}) and obs.label_weights == ({0: 1.0},)
    assert built == [0, 1]
    assert obs == _copy(obs) and _copy(obs) == obs and obs != _copy(encode(records[1:2], model.vocab)[0])


@pytest.mark.parametrize("grow", [True, False])
def test_the_first_bad_record_is_named_and_the_vocabulary_kept(grow):
    vocab = Vocabulary()
    encode(_records_of(("x", "p", "u")), vocab, grow=True)
    shape = vocab.shape()
    records = [
        RawRecord([("label", "y")], [("a", "new", 1.0)]),
        RawRecord([("label", "x")], [("a", "p", 1.0)]),
        RawRecord([("label", "x")], [("a", "p", -1.0), ("b", "u", 1.0)]),  # a bad multiplicity at record 2
        RawRecord([("label", "x")], [("a", ["unhashable"], 1.0)]),
        RawRecord([], [("a", "p", "1")]),
    ]
    with pytest.raises(InvalidRecordError, match="^record 2: feature multiplicity"):
        encode(records, vocab, grow=grow)
    assert vocab.shape() == shape


def test_a_boolean_multiplicity_reads_as_one():
    [obs] = encode([RawRecord([("c", "x")], [("f", "a", True), ("f", "b", 2)])], Vocabulary(), grow=True)
    assert [(w, type(w)) for w in obs.feature_weights[0].values()] == [(1.0, float), (2.0, float)]
