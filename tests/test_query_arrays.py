"""A level's query arrays are one array pass over a prepared batch.

``Model._prepare`` lays a batch's feature maps out as flat arrays once, and
``Model._query_arrays`` finds every cell's column with one ``np.searchsorted``
on the level's integer column codes.  The arrays must be bitwise those that
the list building they replace made from ``EncodedObservation.features_at``
and a dict of the level's feature tuples (``reference_query_arrays``).
"""
from __future__ import annotations

import hashlib
import itertools
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_model
from oracle import reference_query_arrays
from sparseborn import model as model_module
from sparseborn.counts import row_tuples
from sparseborn.data import EncodedObservation, RawRecord, Vocabulary, encode, load_tabular
from sparseborn.errors import ShapeError
from sparseborn.explain import aggregate_local, discriminative_features, explain_global, explain_local
from sparseborn.model import PhaseTable, fit

DIMS = "abc"


def _records(rng, n, n_dims, pool, labelled=True):
    """Records over ``n_dims`` feature dimensions, 0-3 values each from a pool of ``pool`` names."""
    records = []
    for _ in range(n):
        features = [
            (DIMS[d], f"v{int(v)}", float(rng.choice([0.5, 1.0, 1.5, 2.0, 3.0])))
            for d in range(n_dims)
            for v in rng.choice(pool, int(rng.integers(0, 4)), replace=False)
        ]
        labels = [("y", f"c{int(rng.integers(3))}")] if labelled else []
        records.append(RawRecord(labels, features))
    return records


def _bits(arrays):
    if arrays is None:
        return None
    cols, vals, thetas = arrays
    as_list = lambda a: a if a is None or isinstance(a, list) else a.tolist()
    floats = lambda a: None if a is None else [float(x).hex() for x in as_list(a)]
    return [int(c) for c in as_list(cols)], floats(vals), floats(thetas)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_dims=st.integers(1, 3),
    normalize=st.booleans(),
    phased=st.booleans(),
    cut=st.sampled_from([None, 40, 120]),
)
def test_query_arrays_are_the_list_reference_bitwise(seed, n_dims, normalize, phased, cut):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary()
    model = fit(encode(_records(rng, 25, n_dims, 5), vocab, grow=True, normalize=normalize), vocab)
    if phased:
        cells = list(model.corpus.entries)[::3]
        model = model_module.Model(model.corpus, model.vocab, phases=PhaseTable(
            {cell: float(rng.uniform(-2, 2)) for cell in cells}))
    # queries encoded before the vocabulary grows, some holding values only the grown vocabulary has
    queries = encode(_records(rng, 15, n_dims, 8, labelled=False), model.vocab, normalize=normalize)
    encode(_records(rng, 5, n_dims, 9), model.vocab, grow=True)
    queries += encode(_records(rng, 15, n_dims, 9, labelled=False), model.vocab, normalize=normalize)
    queries += [EncodedObservation((), tuple({} for _ in range(model.n_feature_dims)))]
    for obs in queries[::4]:
        full = tuple(next(iter(m), 0) for m in obs.feature_weights)
        obs.phases = {full: float(rng.uniform(-1, 1))} if phased else None
    state = model._state
    prepared = model._prepare(queries, state)
    assert prepared.state is state and model._prepare(prepared, state) is prepared
    with mock.patch.object(model_module, "BATCH_ADDENDS", cut or model_module.BATCH_ADDENDS):
        for r in range(1, model.n_feature_dims + 1):
            for keep in map(frozenset, itertools.combinations(range(model.n_feature_dims), r)):
                table = model._table(keep, state)
                pending = list(range(0, len(queries), 1 + (r % 2)))
                batches = list(model_module._sub_batches(prepared, pending, table))
                assert [i for batch, _ in batches for i in batch] == pending
                max_cells, cells = model_module.BATCH_ADDENDS // len(table.target_ids), 0
                for batch, sub in batches:  # each run is as long as the old count of cells allows
                    assert list(sub) == [prepared[i] for i in batch]
                    sizes = [len(prepared[i].features_at(keep)) + 1 for i in batch]
                    assert len(batch) == 1 or sum(sizes) <= max_cells
                    if cells:
                        assert cells + sizes[0] > max_cells
                    cells = sum(sizes)
                    want = reference_query_arrays(list(sub), keep, row_tuples(table.feat_rows), model.n_feature_dims)
                    got = model._query_arrays(sub, table)
                    assert _bits(got) == _bits(want)
                    if got is not None:
                        assert got[0].dtype == np.int64 and got[1].dtype == np.float64
                for obs in prepared[:12]:  # a query alone
                    want = reference_query_arrays([obs], keep, row_tuples(table.feat_rows), model.n_feature_dims)
                    assert _bits(model._query_arrays(model._prepare([obs], state), table)) == _bits(want)


def test_codes_past_int64_rank_the_rows_instead():
    # four dimensions of 2^16 values: the radices' product is 2^64
    top = (1 << 16) - 1
    entries = {
        ((0,), (top, top, top, top)): 2.0, ((1,), (top, 0, top, 5)): 1.0,
        ((0,), (3, top, 0, 0)): 1.0, ((1,), (0, 0, 0, 0)): 3.0,
    }
    model = make_model(entries, 2, [top + 1] * 4)
    rank_rows = model_module.rank_rows
    with mock.patch.object(model_module, "rank_rows", side_effect=rank_rows) as spy:
        for keep in (frozenset(range(4)), frozenset({0, 1, 3})):
            table = model._table(keep)
            assert (table.codes is None) == (len(keep) == 4)  # 2^16 * 2^16 * 6 values fit
            queries = [
                EncodedObservation((), ({top: 1.0}, {top: 2.0}, {top: 1.0}, {top: 1.0, 5: 0.5})),
                EncodedObservation((), ({0: 1.0, 3: 1.0}, {0: 1.0, top: 1.0}, {0: 2.0}, {0: 1.0})),
                EncodedObservation((), ({7: 1.0}, {7: 1.0}, {7: 1.0}, {7: 1.0})),
            ]
            prepared = model._prepare(queries, model._state)
            [(_, batch)] = model_module._sub_batches(prepared, [0, 1, 2], table)
            want = reference_query_arrays(queries, keep, row_tuples(table.feat_rows), 4)
            assert _bits(model._query_arrays(batch, table)) == _bits(want) != None
            for query in queries[2:] + [EncodedObservation((), ({top: 0.5}, {top: 2.0}, {top: 1.0}, {top: 3.0}))]:
                want = reference_query_arrays([query], keep, row_tuples(table.feat_rows), 4)
                assert _bits(model._query_arrays(model._prepare([query], model._state), table)) == _bits(want)
        assert spy.call_count == 3


def test_prepare_names_the_first_bad_index_in_query_order():
    model = make_model({((0,), (0, 0)): 1.0, ((1,), (1, 2)): 1.0}, 2, [2, 3])
    ok = EncodedObservation((), ({0: 1.0}, {2: 1.0}))
    queries = [ok, EncodedObservation((), ({1: 1.0, 0: 1.0}, {0: 1.0, 7: 1.0})),
               EncodedObservation((), ({-1: 1.0}, {}))]
    with pytest.raises(ShapeError, match=r"^feature index 7 out of bounds for dimension 'dim1' \(size 3\)$"):
        model.predict_batch(queries)
    with pytest.raises(ShapeError, match=r"^feature index -1 out of bounds for dimension 'dim0' \(size 2\)$"):
        model.predict_at_dims([ok, queries[2]], {0})
    with pytest.raises(ShapeError, match=r"^feature index 2 out of bounds for dimension 'dim0' \(size 2\)$"):
        model.predict(EncodedObservation((), ({2: 1.0}, {0: 1.0})))
    with pytest.raises(ShapeError, match="query has 1 feature dimensions, model has 2"):
        model.predict_batch([ok, EncodedObservation((), ({0: 1.0},))])


ZOO = Path(__file__).resolve().parent.parent / "data" / "zoo.csv"
# sha256 of every attribution below, each float spelled exactly, as the feature-tuple tables gave them
EXPLANATIONS = {
    "fold": "d7c8fc03ff16ead157ccb1921241abf92b12643748051e79bc1b02234abb501e",
    "tensor": "a3304a7080a935637eb15e3e4159bb180eae9e05de2db516ccf84c44aecbca9c",
}


@pytest.mark.parametrize("mode", sorted(EXPLANATIONS))
def test_explanations_are_unchanged(mode):
    records = load_tabular(ZOO, ["type"], mode=mode, drop_columns=["animal_name"])
    vocab = Vocabulary()
    model = fit(encode(records[::2], vocab, grow=True), vocab)
    queries = encode(records[1::2], model.vocab)
    lines = []
    for query in queries:
        lines += [repr(a) + a.score.hex() + a.share.hex() for a in explain_local(model, query, k=5)]
    for target in model.vocab.target_dims[0].values:
        lines += [repr(a) + a.score.hex() for a in explain_global(model, target, k=8)]
    for target, rows in aggregate_local(model, queries, k=6).items():
        lines += [repr(target)] + [repr(a) + a.score.hex() for a in rows]
    lines += [repr(a) for a in discriminative_features(model, 10)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EXPLANATIONS[mode]
