"""``joint_rows`` expands a batch with numpy, and must give exactly the per-cell loop's rows.

The oracle is ``reference_joint_rows`` in ``tests/oracle.py``: every target cell with every
feature cell, each weight multiplied left to right.  Key order, dtype, shape and every weight's
bits must agree, because ``add_rows`` sums cells in row order and archives, goldens and the
update-equals-refit invariant all read those sums.
"""
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sparseborn as sb
from sparseborn.data import EncodedObservation, RawRecord, encode, joint_rows
from sparseborn.model import Policy
from oracle import reference_joint_rows

ZOO = Path(__file__).resolve().parents[1] / "data" / "zoo.csv"
_WEIGHTS = st.one_of(st.integers(1, 3).map(float), st.floats(0.01, 100.0))


def _assert_bitwise(observations, target_dims, feature_dims):
    keys, weights = joint_rows(observations, target_dims, feature_dims)
    rows, want = reference_joint_rows(observations, target_dims, feature_dims)
    assert keys.dtype == np.int64 and keys.shape == (len(want), target_dims + feature_dims)
    assert list(map(tuple, keys.tolist())) == rows
    assert [w.hex() for w in np.asarray(weights).tolist()] == [float(w).hex() for w in want]


@st.composite
def _observations(draw):
    """A batch of observations over 1-2 target and 1-3 feature dimensions: either every map
    holds one value, or maps of 0-3 values; fractional weights and scales."""
    target_dims, feature_dims = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    sizes = st.just(1) if draw(st.booleans()) else st.integers(0, 3)

    def maps(n):
        indices = [draw(st.permutations(range(4)))[: draw(sizes)] for _ in range(n)]
        return tuple({i: draw(_WEIGHTS) for i in chosen} for chosen in indices)

    scales = st.just(1.0) | _WEIGHTS
    n = draw(st.integers(0, 5))
    batch = [EncodedObservation(maps(target_dims), maps(feature_dims), draw(scales)) for _ in range(n)]
    return batch, target_dims, feature_dims


@settings(deadline=None, max_examples=200)
@given(_observations())
@example(([], 1, 1))
@example(([EncodedObservation(({0: 0.1, 1: 0.3}, {2: 0.7}), ({1: 1 / 3, 0: 0.2}, {3: 3.0}), 0.9)], 2, 2))
@example(([EncodedObservation(({0: 0.1},), ({1: 1 / 3}, {}, {3: 3.0}))] * 2, 1, 3))
def test_joint_rows_is_the_per_cell_reference_bitwise(case):
    _assert_bitwise(*case)


_RECORDS = st.lists(
    st.tuples(
        st.lists(st.tuples(st.sampled_from("xy"), st.sampled_from("abc")), min_size=1, max_size=3),
        st.lists(st.tuples(st.sampled_from("fgh"), st.sampled_from("abcd"), _WEIGHTS), max_size=6),
    ),
    max_size=6,
)


@settings(deadline=None, max_examples=100)
@given(records=_RECORDS, normalize=st.booleans())
# the second record creates dimensions "y" and "g": the first is padded with empty maps
@example(
    records=[([("x", "a")], [("f", "a", 0.1)]), ([("x", "b"), ("y", "a")], [("g", "a", 0.7)])], normalize=True
)
def test_joint_rows_of_an_encoded_batch_is_the_reference(records, normalize):
    """Dimensions created part-way through a batch leave earlier records padded with empty
    maps; ``normalize`` sets fractional scales."""
    vocab = sb.Vocabulary()
    raw = [RawRecord(list(labels), list(feats)) for labels, feats in records]
    observations = encode(raw, vocab, grow=True, normalize=normalize)
    _assert_bitwise(observations, vocab.n_target_dims, vocab.n_feature_dims)


def test_every_zoo_batch_is_the_reference():
    """The benchmark's shapes: fold mode (one dimension of 16 values) and tensor mode (16
    dimensions of one value each), in batches of 5 and 70, with and without ``normalize``."""
    for mode in ("fold", "tensor"):
        records = sb.load_tabular(ZOO, ["type"], mode=mode, drop_columns=["animal_name"])
        for normalize in (False, True):
            vocab = sb.Vocabulary()
            observations = encode(records, vocab, grow=True, normalize=normalize)
            for batch in (observations[:5], observations[:70], observations):
                _assert_bitwise(batch, vocab.n_target_dims, vocab.n_feature_dims)


def test_an_empty_update_changes_no_prediction():
    records = sb.load_tabular(ZOO, ["type"], mode="tensor", drop_columns=["animal_name"])
    vocab = sb.Vocabulary()
    model = sb.fit(encode(records[:70], vocab, grow=True), vocab)
    queries = encode(records[70:], model.vocab)
    steps = Policy.default(model.n_feature_dims).steps

    def predictions():
        return model.predict_batch(queries, k=7), [model.predict_at_dims(queries, keep) for keep in steps]

    before = predictions()
    model.update([])
    assert predictions() == before
