"""Sparse count tensor operations against dense brute-force checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import DictCounts
from sparseborn.counts import SparseCounts
from sparseborn.errors import ShapeError


def tensor(entries, target_dims=1, feature_dims=1):
    return SparseCounts(target_dims, feature_dims, entries)


def accumulate(acc, obs):
    """Entrywise sum of two tensors of one shape, leaving both unchanged."""
    return acc.copy().iadd(obs)


def test_accumulate_empty_identity():
    acc = tensor({})
    obs = tensor({((0,), (1,)): 2.0})
    assert accumulate(acc, obs).entries == {((0,), (1,)): 2.0}


def test_accumulate_entrywise():
    acc = tensor({((0,), (1,)): 2.0})
    obs = tensor({((0,), (1,)): 3.0, ((1,), (0,)): 1.0})
    out = accumulate(acc, obs)
    assert out.entries == {((0,), (1,)): 5.0, ((1,), (0,)): 1.0}
    # inputs untouched
    assert acc.entries == {((0,), (1,)): 2.0}


def test_accumulate_shape_mismatch():
    with pytest.raises(ShapeError):
        accumulate(tensor({}), SparseCounts(1, 2))


def test_no_zero_entries_stored():
    t = tensor({})
    t.add_rows([(0, 0)], [0.0])
    assert len(t) == 0
    with pytest.raises(ValueError):
        t.add_rows([(0, 0)], [-1.0])


def test_contract_feature_dim():
    t = SparseCounts(1, 2, {((0,), (1, 2)): 3.0, ((0,), (1, 5)): 4.0})
    out = t.keep_feature_dims([0])
    assert out.feature_dims == 1
    assert out.entries == {((0,), (1,)): 7.0}


def test_contract_to_marginal():
    t = tensor({((0,), (1,)): 3.0, ((1,), (2,)): 4.0})
    out = t.keep_feature_dims([])
    assert out.feature_dims == 0
    assert out.entries == {((0,), ()): 3.0, ((1,), ()): 4.0}


def test_contract_out_of_range():
    with pytest.raises(ShapeError):
        tensor({}).keep_feature_dims([1])


def target_marginal(t):
    """Per target multi-index, the weight summed over all features."""
    return {tgt: w for (tgt, _), w in t.keep_feature_dims(()).entries.items()}


def test_marginals_trivial():
    t2 = tensor({((0,), (1,)): 2.0, ((0,), (3,)): 6.0})
    assert target_marginal(t2) == {(0,): 8.0}
    assert target_marginal(tensor({})) == {}


def test_marginals_match_dense_sums():
    rng = np.random.default_rng(5)
    dense = rng.integers(0, 4, size=(4, 6)).astype(float)
    t = tensor(
        {
            ((i,), (j,)): dense[i, j]
            for i in range(4)
            for j in range(6)
            if dense[i, j] > 0
        }
    )
    rows = target_marginal(t)
    for i in range(4):
        assert rows.get((i,), 0.0) == pytest.approx(dense[i, :].sum())


def keys_2d(n_targets=3, n_feats=4):
    idx = st.integers(0, n_feats - 1)
    return st.tuples(
        st.tuples(st.integers(0, n_targets - 1)), st.tuples(idx, idx)
    )


entries_2d = st.dictionaries(keys_2d(), st.integers(1, 20), max_size=16)


@settings(deadline=None, max_examples=60)
@given(entries_2d, entries_2d, entries_2d)
def test_accumulate_associative_commutative(e1, e2, e3):
    a = SparseCounts(1, 2, {k: float(v) for k, v in e1.items()})
    b = SparseCounts(1, 2, {k: float(v) for k, v in e2.items()})
    c = SparseCounts(1, 2, {k: float(v) for k, v in e3.items()})
    assert accumulate(a, b).entries == accumulate(b, a).entries
    left = accumulate(accumulate(a, b), c)
    right = accumulate(a, accumulate(b, c))
    assert left.entries == right.entries


@settings(deadline=None, max_examples=60)
@given(entries_2d, st.integers(0, 1))
def test_contract_preserves_total_weight(e, k):
    t = SparseCounts(1, 2, {key: float(v) for key, v in e.items()})
    total = sum(t.weights.tolist())
    assert sum(t.keep_feature_dims([1 - k]).weights.tolist()) == total


@settings(deadline=None, max_examples=60)
@given(entries_2d)
def test_marginal_totals_agree(e):
    t = SparseCounts(1, 2, {key: float(v) for key, v in e.items()})
    assert sum(target_marginal(t).values()) == sum(t.weights.tolist())


@settings(deadline=None, max_examples=40)
@given(entries_2d)
def test_sparse_ops_match_dense_oracle(e):
    """Contraction and marginals equal dense summation on small shapes."""
    t = SparseCounts(1, 2, {key: float(v) for key, v in e.items()})
    dense = np.zeros((3, 4, 4))
    for ((i,), (j0, j1)), w in t.entries.items():
        dense[i, j0, j1] = w
    contracted = t.keep_feature_dims([0])
    expect = dense.sum(axis=2)
    for i in range(3):
        for j in range(4):
            assert contracted.entries.get(((i,), (j,)), 0.0) == pytest.approx(
                expect[i, j]
            )
    rows = target_marginal(t)
    for i in range(3):
        assert rows.get((i,), 0.0) == pytest.approx(dense[i].sum())


def test_non_finite_weights_rejected():
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            tensor({((0,), (0,)): bad})
        with pytest.raises(ValueError):
            SparseCounts(1, 1).add_rows([(0, 0)], [bad])


def test_entries_view_is_read_only():
    t = tensor({((0,), (1,)): 2.0})
    with pytest.raises(TypeError):
        t.entries[((0,), (1,))] = 3.0


def bits(counts):
    """Entries in iteration order with each weight's exact bit pattern."""
    return [(key, float.hex(w)) for key, w in counts.entries.items()]


@st.composite
def count_programs(draw):
    """Tensor shape plus a random sequence of add, iadd and read operations."""
    t_dims = draw(st.integers(1, 3))
    f_dims = draw(st.integers(1, 3))
    coord = st.integers(0, 2)
    key = st.tuples(st.tuples(*[coord] * t_dims), st.tuples(*[coord] * f_dims))
    weight = st.one_of(
        st.just(0.0),
        st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 1e-300, 5e-324]),
        st.floats(0, 10, allow_nan=False, allow_infinity=False),
    )
    cell = st.tuples(key, weight)
    op = st.one_of(
        st.tuples(st.just("add"), cell),
        st.tuples(st.just("iadd"), st.lists(cell, max_size=8)),
        st.just(("read",)),
    )
    return t_dims, f_dims, draw(st.lists(op, max_size=30))


@settings(deadline=None, max_examples=150)
@given(count_programs(), st.data())
def test_columnar_counts_match_dict_accumulator_bitwise(program, data):
    """Same cells, same iteration order, same bits as a dict, contractions included."""
    t_dims, f_dims, ops = program
    counts, ref = SparseCounts(t_dims, f_dims), DictCounts()
    for op in ops:
        if op[0] == "add":
            (tgt, feat), weight = op[1]
            counts.add_rows([tgt + feat], [weight])
            ref.add(tgt, feat, weight)
        elif op[0] == "iadd":
            counts.iadd(SparseCounts(t_dims, f_dims, op[1]))
            ref.iadd(DictCounts(op[1]))
        else:  # folds the pending adds in mid-sequence
            assert len(counts) == len(ref.entries)
    assert bits(counts) == bits(ref)
    keep = data.draw(st.sets(st.integers(0, f_dims - 1)))
    assert bits(counts.keep_feature_dims(keep)) == bits(ref.keep_feature_dims(keep))
