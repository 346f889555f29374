"""Level tables read the published state's target order.

The key order groups the targets, so the state reads its target order off
the keys and sorts nothing; every level table, full or contracted, is one
stable sort of the corpus by (kept features, target rank), and must equal
bitwise the two-step derivation it replaces: contract the counts with
``SparseCounts.keep_feature_dims``, rank the targets again, then sort.  A
published table is immutable.
"""
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import build_vocab
from sparseborn import counts as counts_module
from sparseborn import model as model_module
from sparseborn.counts import SparseCounts, rank_rows, row_tuples, run_starts
from sparseborn.data import EncodedObservation, Vocabulary, encode, load_tabular
from sparseborn.errors import ShapeError
from sparseborn.explain import aggregate_local, explain_global, explain_local
from sparseborn.model import Hyperparams, Model, fit
from sparseborn.policy import learn_policy

ZOO_CSV = Path(__file__).resolve().parent.parent / "data" / "zoo.csv"


def _two_step(corpus, keep, hyper, n_targets):
    """Contract, rank the targets, sort by (feature, rank) and weigh: the table's arrays."""
    counts = corpus if len(keep) == corpus.feature_dims else corpus.keep_feature_dims(keep)
    first_target, rows = rank_rows(counts.targets)
    order = np.lexsort((rows, *counts.features.T[::-1]))
    feats = counts.features[order]
    new_col = run_starts(feats)
    col_ptr = np.append(np.flatnonzero(new_col), (len(feats), len(feats)))
    target_ids, feat_ids = row_tuples(counts.targets[first_target]), row_tuples(feats[new_col])
    rows, cols = rows[order].astype(np.int32), np.cumsum(new_col) - 1
    weights = counts.weights[order]
    row_sums = np.bincount(rows, weights, len(target_ids))
    col_sums = np.bincount(cols, weights, len(feat_ids))
    if n_targets <= 1:
        entropy = np.ones(len(feat_ids))
    else:
        balanced = weights / row_sums[rows]
        conditional = balanced / np.bincount(cols, balanced, len(feat_ids))[cols]
        h_sum = np.bincount(cols, conditional * np.log(conditional), len(feat_ids))
        entropy = 1.0 + h_sum / math.log(n_targets)
        np.clip(entropy, 0.0, 1.0, out=entropy)
    ct = weights / (col_sums[cols] ** (1.0 - hyper.b) * row_sums[rows] ** hyper.b)
    amp = entropy[cols] ** hyper.h * ct ** hyper.p
    return target_ids, feat_ids, rows, col_ptr, entropy, amp


def _bits(array):
    return array.dtype.str, array.tobytes()


@st.composite
def corpora(draw):
    """A corpus (one or two target dimensions, one to three feature dimensions, few values
    per dimension so contracted cells repeat, non-integer weights) and a vocabulary over it,
    sometimes with a target value the corpus lacks; and observations that a model over them
    then updates with.  The corpus is added as rows, loaded from the rows as archive cells
    (in drawn order, so often unsorted or with a cell repeated, which ``from_cells`` passes
    to ``add_rows``), or the rows' first half, the rest then coming by ``Model.update``."""
    n_t, n_f = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    keys = draw(st.lists(st.lists(st.integers(0, 2), min_size=n_t + n_f, max_size=n_t + n_f),
                         min_size=1, max_size=40))
    weights = draw(st.lists(st.floats(0.01, 50.0), min_size=len(keys), max_size=len(keys)))
    how, later = draw(st.sampled_from(["add_rows", "from_cells", "update"])), []
    if how == "from_cells":
        corpus = SparseCounts.from_cells(n_t, n_f, [[k[:n_t], k[n_t:], w] for k, w in zip(keys, weights)])
    else:  # a repeated key sums in arrival order
        cut = (len(keys) + 1) // 2 if how == "update" else len(keys)
        corpus = SparseCounts(n_t, n_f).add_rows(keys[:cut], weights[:cut])
        later = [EncodedObservation(tuple({i: 1.0} for i in k[:n_t]), ({k[n_t]: w}, *({i: 1.0} for i in k[n_t + 1:])))
                 for k, w in zip(keys[cut:], weights[cut:])]
    vocab = Vocabulary()
    sizes = np.max(keys, axis=0) + 1 + np.array(draw(st.lists(st.integers(0, 1), min_size=n_t + n_f,
                                                               max_size=n_t + n_f)))
    for d, size in enumerate(sizes.tolist()):
        target = d < n_t
        add = vocab.target_dim if target else vocab.feature_dim
        dim = (vocab.target_dims if target else vocab.feature_dims)[add(f"d{d}", create=True)]
        for v in range(size):
            dim.encode(f"v{v}", grow=True)
    return corpus, vocab, later


@settings(max_examples=150, deadline=None)
@given(
    corpora(),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.0, 1.0, 1.5]),
    st.sampled_from([0.5, 1.0, 2.0]),
)
def test_every_table_equals_the_two_step_derivation_bitwise(drawn, b, h, p):
    corpus, vocab, later = drawn
    model = Model(corpus, vocab, hyper=Hyperparams(h=h, b=b, p=p))
    if later:
        corpus = model.update(later)._state.corpus
    n_targets = math.prod(len(dim) for dim in vocab.target_dims)
    for k in range(corpus.feature_dims + 1):
        for keep in itertools.combinations(range(corpus.feature_dims), k):
            table = model._table(frozenset(keep))
            want = _two_step(corpus, keep, model.hyper, n_targets)
            target_ids, feat_ids, rows, col_ptr, entropy, amp = want
            assert table.target_ids == target_ids and row_tuples(table.feat_rows) == feat_ids
            assert _bits(table.rows) == _bits(rows) and _bits(table.col_ptr) == _bits(col_ptr)
            assert _bits(table.entropy) == _bits(entropy) and _bits(table.amp) == _bits(amp)
            for name in (*table._fields, "extra"):  # a published table is immutable
                with pytest.raises(AttributeError):
                    setattr(table, name, None)
    # each target's summed weight, exactly rounded
    by_target = {}
    for (target, _), weight in corpus.entries.items():
        by_target.setdefault(target, []).append(weight)
    targets, marginal = model._state.marginal
    assert targets == sorted(by_target) and marginal == [math.fsum(by_target[t]) for t in targets]


def test_the_target_order_sorts_nothing(monkeypatch):
    records = load_tabular(ZOO_CSV, ["type"], mode="tensor", drop_columns=["animal_name"])
    vocab = Vocabulary()
    model = fit(encode(records, vocab, grow=True), vocab)
    queries = encode(records[::4], model.vocab, grow=False)
    sorted_keys = []
    sort_groups = counts_module.sort_groups  # every row sort of the package: the store's and rank_rows'
    monkeypatch.setattr(counts_module, "sort_groups",
                        lambda keys: sorted_keys.append(keys) or sort_groups(keys))
    monkeypatch.setattr(model_module, "rank_rows", None, raising=False)
    monkeypatch.setattr(SparseCounts, "keep_feature_dims", None)

    def read_every_way(model):
        model.predict(queries[0])
        model.predict_batch(queries, k=3)
        explain_local(model, queries[1])
        aggregate_local(model, queries)
        explain_global(model, "Mammal")
        learn_policy(model, queries)
        model.predict_at_dims(queries[2], {3, 5})
        assert model.target_prior()

    read_every_way(model)
    first = model._state
    model.update(encode(records[:3], model.vocab, grow=False))
    read_every_way(model)
    # the update's sort of the stored rows and a key row per record: no state sorts its targets
    assert [keys.shape for keys in sorted_keys] == [(len(first.corpus) + 3, 17)]
    for state in (first, model._state):
        assert len(state.tables) > 5
        for table in state.tables.values():
            assert table.target_ids is state.target_order[0] is state.marginal[0]


@pytest.mark.parametrize("dims", [{-1}, {2}, {0, 2}])
def test_predict_at_dims_rejects_a_dimension_outside_the_model(dims):
    model = fit([EncodedObservation(({0: 1.0},), ({0: 1.0}, {1: 2.0})),
                 EncodedObservation(({1: 1.0},), ({1: 1.0}, {0: 1.0}))], build_vocab(2, [2, 2]))
    q = EncodedObservation(label_weights=(), feature_weights=({0: 1.0}, {0: 1.0}))
    with pytest.raises(ShapeError):
        model.predict_at_dims(q, dims)
    with pytest.raises(ShapeError):
        model.predict_at_dims([q], dims)
    with pytest.raises(ShapeError):
        model.predict_at_dims([], dims)

