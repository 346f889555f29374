"""Sparse count tensor operations against dense brute-force checks."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import DictCounts, reference_add_rows
from sparseborn.counts import SparseCounts, row_tuples, sort_groups
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
    """Same cells and bits as a dict, listed in key order, contractions included."""
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
    assert bits(counts) == sorted(bits(ref))
    keep = data.draw(st.sets(st.integers(0, f_dims - 1)))
    assert bits(counts.keep_feature_dims(keep)) == sorted(bits(ref.keep_feature_dims(keep)))


def _lexsort_groups(keys):
    """``sort_groups`` restated: ``np.lexsort``'s order (rows of width 0 are all equal) and the run starts."""
    order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
    rows = keys[order].tolist()
    return order.tolist(), [i == 0 or rows[i] != rows[i - 1] for i in range(len(rows))]


def _spy_lexsort(monkeypatch):
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(len(keys)) or lexsort(keys))
    return calls


_RNG = np.random.default_rng(24)
_SORTED = np.unique(_RNG.integers(0, 50, size=(300, 2)), axis=0)


@pytest.mark.parametrize("keys, by_code", [
    (_RNG.integers(-5, 6, size=(200, 3)), True),  # negative coordinates
    (np.concatenate([_SORTED, _RNG.integers(0, 60, size=(40, 2))]), True),  # a sorted run, then a batch
    (_RNG.integers(0, 7, size=(60, 17)), True),  # zoo-shaped: 17 narrow columns
    (_RNG.integers(0, 2**40, size=(200, 3)).repeat(2, axis=0), False),  # radix product >= 2**63
    (np.array([[np.iinfo(np.int64).min, 1], [np.iinfo(np.int64).max, 0], [0, 2], [0, 2]]), False),
    (np.empty((0, 3), dtype=np.int64), True),
    (np.empty((5, 0), dtype=np.int64), True),
    (np.empty((0, 0), dtype=np.int64), True),
], ids=["negative", "run-then-batch", "zoo-shaped", "past-int64", "int64-extremes", "no-rows", "width-0", "empty"])
def test_sort_groups_orders_rows_as_lexsort_does(monkeypatch, keys, by_code):
    expected = _lexsort_groups(keys)
    calls = _spy_lexsort(monkeypatch)
    order, starts = sort_groups(keys)
    assert (order.tolist(), starts.tolist()) == expected
    assert calls == ([] if by_code else [keys.shape[1]])  # only codes past int64 fall back to lexsort


# small coordinates repeat and go negative; coordinates up to 2**40 make codes past int64
coordinates = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40))
weights = st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 3, 1.0, 2.5, 1e-300])


def key_matrix(rows, width):
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_sort_groups_matches_lexsort_on_any_rows(data):
    width = data.draw(st.integers(0, 4))
    keys = key_matrix(data.draw(st.lists(st.tuples(*[coordinates] * width), max_size=40)), width)
    order, starts = sort_groups(keys)
    assert (order.tolist(), starts.tolist()) == _lexsort_groups(keys)


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_add_rows_into_a_stored_run_is_bitwise_the_sorted_first_insertion_sums(data):
    """The stored run first, then the batch: each cell's stored sum, then its new rows in arrival order."""
    width = data.draw(st.integers(1, 4))
    stored, batch = (data.draw(st.lists(st.tuples(st.tuples(*[coordinates] * width), weights), max_size=30))
                     for _ in range(2))
    counts = SparseCounts(1, width - 1).add_rows(key_matrix([k for k, _ in stored], width), [w for _, w in stored])
    want_keys, want_weights = reference_add_rows(counts.keys.tolist(), counts.weights.tolist(),
                                                 [k for k, _ in batch], [w for _, w in batch])
    counts.add_rows(key_matrix([k for k, _ in batch], width), [w for _, w in batch])
    assert row_tuples(counts.keys) == want_keys
    assert [w.hex() for w in counts.weights.tolist()] == [w.hex() for w in want_weights]


def test_cells_without_coordinates_are_summed_as_add_rows_sums_them():
    assert SparseCounts.from_cells(0, 0, [[[], [], 1.0]]).weights.tolist() == [1.0]
    assert SparseCounts.from_cells(0, 0, [[[], [], 1.0], [[], [], 2.0]]).weights.tolist() == [3.0]
