"""Ingestion, tokenization, vocabulary, and encoding."""
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import reference_encode
from sparseborn.data import (
    EncodedObservation,
    RawRecord,
    Vocabulary,
    encode,
    load_tabular,
    load_text_tree,
    load_token_records,
    tokenize,
)
from sparseborn.errors import InvalidRecordError, ParseError, SchemaError
from sparseborn.model import fit

ZOO_LIKE = "class,hair,legs\nMammal,1,4\nBird,0,2\nMammal,1,\n"


# Hand-worked expectations for the fixed tokenizer rule set: whitespace
# split, leading/trailing punctuation runs split off, apostrophe+letters is
# one token, interior hyphens stay inside words.
TOKEN_CASES = [
    ("Don't stop.", ["Don", "'t", "stop", "."]),
    ("", []),
    ("A a", ["A", "a"]),
    ("Hello, world!", ["Hello", ",", "world", "!"]),
    ("state-of-the-art", ["state-of-the-art"]),
    ("wait... what?", ["wait", "...", "what", "?"]),
    ("(parens)", ["(", "parens", ")"]),
    ("it's", ["it", "'s"]),
    ("I'm 2nd", ["I", "'m", "2nd"]),
    ("e.g. this", ["e", ".", "g", ".", "this"]),
    ("co-op's", ["co-op", "'s"]),
    ("--", ["--"]),
    ("a--b", ["a", "--", "b"]),
    ("3.14", ["3", ".", "14"]),
    ("$5", ["$", "5"]),
    ("x=1", ["x", "=", "1"]),
    ("tabs\tand\nnewlines", ["tabs", "and", "newlines"]),
    ("don''t", ["don", "''", "t"]),
    ("CamelCase stays", ["CamelCase", "stays"]),
    ("naïve café", ["naïve", "café"]),
]


@pytest.mark.parametrize("text,expected", TOKEN_CASES)
def test_tokenize_cases(text, expected):
    assert tokenize(text) == expected


def test_vocabulary_bijection_and_determinism():
    vocab = Vocabulary()
    d = vocab.feature_dim("f", create=True)
    dim = vocab.feature_dims[d]
    for value in ["b", "a", "c", "a"]:
        dim.encode(value, grow=True)
    assert dim.values == ["b", "a", "c"]
    for i, value in enumerate(dim.values):
        assert dim.encode(value) == i
        assert dim.decode(i) == value
    assert dim.encode("missing") is None


def test_load_tabular_fold_mode():
    records = load_tabular(io.StringIO(ZOO_LIKE), ["class"])
    assert len(records) == 3
    assert records[0].labels == [("class", "Mammal")]
    assert records[0].features == [("f", "hair=1", 1.0), ("f", "legs=4", 1.0)]
    # missing value becomes the explicit NA token
    assert ("f", "legs=NA", 1.0) in records[2].features


def test_load_tabular_missing_drop():
    records = load_tabular(io.StringIO(ZOO_LIKE), ["class"], missing="drop")
    assert records[2].features == [("f", "hair=1", 1.0)]


def test_load_tabular_tensor_mode():
    records = load_tabular(io.StringIO(ZOO_LIKE), ["class"], mode="tensor")
    assert records[0].features == [("hair", "1", 1.0), ("legs", "4", 1.0)]
    vocab = Vocabulary()
    encode(records, vocab, grow=True)
    assert vocab.n_feature_dims == 2


def test_load_tabular_errors():
    with pytest.raises(SchemaError):
        load_tabular(io.StringIO(ZOO_LIKE), ["absent"])
    with pytest.raises(ParseError) as err:
        load_tabular(io.StringIO("a,b\n1,2,3\n"), ["a"])
    assert "line 2" in str(err.value)
    for delimiter in ("", ";;"):  # csv.reader would raise a bare TypeError
        with pytest.raises(SchemaError, match="delimiter"):
            load_tabular(io.StringIO(ZOO_LIKE), ["class"], delimiter=delimiter)


def test_load_tabular_drop_columns():
    records = load_tabular(io.StringIO("id,class,x\n7,A,1\n"), ["class"], drop_columns=["id"])
    assert records[0].features == [("f", "x=1", 1.0)]


def test_load_token_records():
    lines = "\n".join(
        [
            json.dumps({"labels": ["rec.sport.baseball"], "tokens": ["game", "game", "team"]}),
            json.dumps({"labels": ["x"], "tokens": []}),
            json.dumps({"tokens": {"a": 2.5}}),
        ]
    )
    records = load_token_records(io.StringIO(lines))
    assert records[0].labels == [("label", "rec.sport.baseball")]
    assert sorted(records[0].features) == [("token", "game", 2.0), ("token", "team", 1.0)]
    assert records[1].features == []
    assert records[2].labels == [] and records[2].features == [("token", "a", 2.5)]


def test_load_token_records_errors():
    with pytest.raises(ParseError) as err:
        load_token_records(io.StringIO('{"ok": 1}\nnot json\n'))
    assert "line 2" in str(err.value)
    with pytest.raises(ParseError):
        load_token_records(io.StringIO(json.dumps({"tokens": {"a": 0}})))


def test_load_token_records_rejects_deeply_nested_json():
    nested = "[" * 100_000 + '"a"' + "]" * 100_000
    lines = '{"tokens": ["a"]}\n{"tokens": ' + nested + "}\n"
    with pytest.raises(ParseError) as err:
        load_token_records(io.StringIO(lines))
    assert err.value.line == 2


def test_load_text_tree(tmp_path):
    (tmp_path / "sport").mkdir()
    (tmp_path / "sport" / "001").write_text("game game team", encoding="latin-1")
    (tmp_path / "tech").mkdir()
    (tmp_path / "tech" / "002").write_text("cpu", encoding="latin-1")
    records = load_text_tree(tmp_path)
    assert [r.labels for r in records] == [[("label", "sport")], [("label", "tech")]]
    assert sorted(records[0].features) == [("token", "game", 2.0), ("token", "team", 1.0)]


def test_encode_normalization():
    vocab = Vocabulary()
    rec = RawRecord(labels=[("class", "t")], features=[("f", "a", 2.0), ("f", "b", 1.0)])
    obs = encode([rec], vocab, grow=True, normalize=True)[0]
    counts = obs.counts(1, 1)
    expected = {((0,), (0,)): 2 / 3, ((0,), (1,)): 1 / 3}
    for key, value in expected.items():
        assert counts.entries[key] == pytest.approx(value, abs=1e-15)
    assert math.fsum(counts.entries.values()) == pytest.approx(1.0, abs=1e-12)


def test_encode_multilabel_two_entries():
    vocab = Vocabulary()
    rec = RawRecord(
        labels=[("class", "x"), ("class", "y")], features=[("f", "a", 1.0)]
    )
    obs = encode([rec], vocab, grow=True)[0]
    counts = obs.counts(1, 1)
    assert counts.entries == {((0,), (0,)): 1.0, ((1,), (0,)): 1.0}


def test_encode_prediction_drops_unknown():
    vocab = Vocabulary()
    train = RawRecord(labels=[("class", "t")], features=[("f", "seen", 1.0)])
    encode([train], vocab, grow=True)
    query = RawRecord(features=[("f", "seen", 1.0), ("f", "unseen", 3.0)])
    obs = encode([query], vocab, grow=False)[0]
    assert obs.feature_weights[0] == {0: 1.0}


def test_encode_training_requires_label():
    vocab = Vocabulary()
    with pytest.raises(InvalidRecordError):
        encode([RawRecord(features=[("f", "a", 1.0)])], vocab, grow=True)


def test_encode_rejects_nonpositive_multiplicity():
    vocab = Vocabulary()
    rec = RawRecord(labels=[("class", "t")], features=[("f", "a", 0.0)])
    with pytest.raises(InvalidRecordError):
        encode([rec], vocab, grow=True)


def test_encode_rejects_non_finite_multiplicity():
    for mult in (math.inf, math.nan):
        rec = RawRecord(labels=[("class", "t")], features=[("f", "a", mult)])
        with pytest.raises(InvalidRecordError):
            encode([rec], Vocabulary(), grow=True)


@pytest.mark.parametrize("grow", [True, False])
@pytest.mark.parametrize(
    "feature",
    [("f", "a", "1"), ("f", "a", None), ("f", ["x"], 1.0)],
    ids=["string-multiplicity", "no-multiplicity", "unhashable-token"],
)
def test_encode_rejects_malformed_fields_naming_the_record(feature, grow):
    good = RawRecord(labels=[("class", "t")], features=[("f", "a", 1.0)])
    vocab = Vocabulary()
    encode([good], vocab, grow=True)  # without grow, only a known dimension looks its tokens up
    with pytest.raises(InvalidRecordError, match="^record 1: "):
        encode([good, RawRecord(labels=[("class", "t")], features=[feature])], vocab, grow=grow)


@pytest.mark.parametrize(
    "rec",
    [
        RawRecord(labels=[("class", 1)], features=[("f", "a", 1.0)]),
        RawRecord(labels=[("class", "t")], features=[("f", 1, 1.0)]),
        RawRecord(labels=[(("class",), "t")], features=[("f", "a", 1.0)]),
        RawRecord(labels=[("class", "t")], features=[(None, "a", 1.0)]),
    ],
    ids=["label-value", "token", "label-dimension", "feature-dimension"],
)
def test_encode_rejects_names_and_values_that_are_not_strings(rec):
    # a model trained on them would save an archive that load rejects
    vocab = Vocabulary()
    with pytest.raises(InvalidRecordError, match="^record 0: "):
        encode([rec], vocab, grow=True)


def test_failed_encode_adds_nothing_to_the_vocabulary():
    records = [
        RawRecord(labels=[("label", "a")], features=[("token", "x", 1.0)]),
        RawRecord(labels=[("label", "b")], features=[("token", "y", 1.0)]),
    ]
    vocab = Vocabulary()
    model = fit(encode(records, vocab, grow=True), vocab)
    # the new target dimension and the first record's values come before the bad token
    bad = RawRecord(labels=[("topic", "t")], features=[("token", 1, 1.0)])
    new = RawRecord(labels=[("label", "c")], features=[("token", "z", 1.0)])
    with pytest.raises(InvalidRecordError, match="^record 1: "):
        encode([new, bad], model.vocab, grow=True)
    assert model.vocab.shape() == ((2,), (2,))
    assert model.vocab.target_dim("topic") is None and model.vocab.target_dims[0].encode("c") is None
    model.update(encode([records[0]], model.vocab, grow=True))
    assert model.corpus.entries[((0,), (0,))] == 2.0


_NAMES = st.sampled_from(["x", "y", "z"])
_VALUES = st.sampled_from(["a", "b", "c", "d"])
_WEIGHTS = st.one_of(st.integers(1, 3), st.floats(0.01, 100.0))


def _records(names, min_labels, max_size):
    labels = st.lists(st.tuples(names, _VALUES), min_size=min_labels, max_size=4)
    features = st.lists(st.tuples(names, _VALUES, _WEIGHTS), max_size=6)
    return st.lists(st.tuples(labels, features), max_size=max_size)


def _bits(maps):
    return [[(i, w.hex()) for i, w in m.items()] for m in maps]


@settings(deadline=None, max_examples=100)
@given(
    train=_records(_NAMES, 1, 6),
    queries=_records(st.sampled_from(["x", "y", "z", "w"]), 0, 4),
    more=_records(_NAMES, 1, 3),
    normalize=st.booleans(),
)
# the scale is 1 / (3 * 0.1 * 0.7): another order of the factors rounds differently
@example(train=[([("x", "a")] * 3, [("x", "a", 0.1), ("y", "a", 0.7)])], queries=[], more=[], normalize=True)
def test_encode_matches_reference_encoder_bitwise(train, queries, more, normalize):
    """Dimensions created part-way through a batch, repeated values and unknown
    names and values without ``grow``: maps, their order, scales and vocabulary shape."""
    vocab, reference = Vocabulary(), ({}, {})
    for batch, grow in ((train, True), (queries, False), (more, True)):
        records = [RawRecord(labels=list(labels), features=list(feats)) for labels, feats in batch]
        got = encode(records, vocab, grow=grow, normalize=normalize)
        want = reference_encode(batch, reference, grow, normalize)
        assert [(_bits(o.label_weights), _bits(o.feature_weights), o.scale.hex()) for o in got] == [
            (_bits(labels), _bits(feats), scale.hex()) for labels, feats, scale in want
        ]
        shape = tuple(tuple(len(values) for values in dims.values()) for dims in reference)
        assert vocab.shape() == shape


@pytest.mark.parametrize("count", ['"inf"', '"nan"', "Infinity", "NaN", '"-inf"'])
def test_load_token_records_rejects_non_finite_counts(count):
    lines = '{"labels": ["y"], "tokens": {"a": 1}}\n{"labels": ["y"], "tokens": {"x": %s}}\n' % count
    with pytest.raises(ParseError) as err:
        load_token_records(io.StringIO(lines))
    assert "line 2" in str(err.value)


def test_ingest_twice_is_deterministic():
    records1 = load_tabular(io.StringIO(ZOO_LIKE), ["class"])
    records2 = load_tabular(io.StringIO(ZOO_LIKE), ["class"])
    v1, v2 = Vocabulary(), Vocabulary()
    o1 = encode(records1, v1, grow=True)
    o2 = encode(records2, v2, grow=True)
    assert [d.values for d in v1.feature_dims] == [d.values for d in v2.feature_dims]
    assert [d.values for d in v1.target_dims] == [d.values for d in v2.target_dims]
    assert [(
        o.label_weights, o.feature_weights, o.scale
    ) for o in o1] == [(o.label_weights, o.feature_weights, o.scale) for o in o2]


def test_normalized_training_observations_sum_to_one():
    records = load_tabular(io.StringIO(ZOO_LIKE), ["class"])
    vocab = Vocabulary()
    for obs in encode(records, vocab, grow=True, normalize=True):
        total = math.fsum(obs.counts(1, 1).entries.values())
        assert abs(total - 1.0) < 1e-12


def test_features_at_contraction():
    obs = EncodedObservation(
        label_weights=(),
        feature_weights=({0: 2.0, 1: 1.0}, {3: 4.0}),
    )
    full = obs.features_at([0, 1])
    assert full == {(0, 3): 8.0, (1, 3): 4.0}
    # dropping dimension 1 folds its mass into the scale factor
    assert obs.features_at([0]) == {(0,): 8.0, (1,): 4.0}
    # a dropped dimension with no encodable values contributes factor 1
    empty_dim = EncodedObservation(
        label_weights=(), feature_weights=({0: 2.0}, {})
    )
    assert empty_dim.features_at([0]) == {(0,): 2.0}
    assert empty_dim.features_at([0, 1]) == {}
