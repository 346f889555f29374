"""Models over the same counts share what is derived from the counts alone.

A set of counts derives its target order once and, per keep-set and
target-space size, each level's layout once; every copy of the counts shares
them, so a hyperparameter view ``Model(model.corpus, model.vocab, hyper=...)``
and every config of ``repeated_split_experiment`` add only what their own h,
b, p and phases decide.  Their tables must equal, bitwise, those of a model
built from fresh arrays.
"""
from __future__ import annotations

import io
import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sparseborn import counts as counts_module
from sparseborn import model as model_module
from sparseborn.counts import SparseCounts
from sparseborn.data import RawRecord, Vocabulary, encode, load_tabular
from sparseborn.errors import ShapeError
from sparseborn.evaluate import DEFAULT_CONFIGS, repeated_split_experiment
from sparseborn.model import Hyperparams, Model, PhaseTable, fit

ZOO = load_tabular(
    Path(__file__).resolve().parent.parent / "data" / "zoo.csv",
    ["type"],
    mode="tensor",
    drop_columns=["animal_name"],
)


def _text_records(n=60, n_classes=4, n_words=40, seed=5):
    """Short token documents: a shared noise vocabulary plus words that lean to their class."""
    rng = np.random.default_rng(seed)
    records = []
    for _ in range(n):
        c = int(rng.integers(n_classes))
        words = np.concatenate([rng.integers(n_words, size=6), c * 5 + rng.integers(8, size=3)])
        values, counts = np.unique(words, return_counts=True)
        features = [("token", f"w{v}", float(k)) for v, k in zip(values, counts)]
        records.append(RawRecord([("topic", f"c{c}")], features))
    return records


def _fit(records):
    vocab = Vocabulary()
    return fit(encode(records, vocab, grow=True), vocab)


def _keeps(model):
    """Every level of the default policy, each single dimension and a few pairs."""
    n = model.n_feature_dims
    singles = [frozenset({d}) for d in range(n)]
    prefixes = [frozenset(range(k)) for k in range(n, 0, -1)]
    pairs = [a | b for a, b in itertools.combinations(singles[:4], 2)]
    return list(dict.fromkeys([*prefixes, *singles, *pairs]))


def _read(model, records):
    """Predict the records, then read every table of :func:`_keeps` through ``predict_at_dims``."""
    queries = encode(records, model.vocab, grow=False)
    model.predict_batch(queries)
    for keep in _keeps(model):
        model.predict_at_dims(queries, keep)


def _fresh(model, **settings):
    """A model over a copy of ``model``'s counts made from new arrays, cells in key order."""
    corpus = model.corpus
    cells = [[list(t), list(f), w] for (t, f), w in corpus.entries.items()]
    counts = SparseCounts.from_cells(corpus.target_dims, corpus.feature_dims, cells)
    assert counts.keys is not corpus.keys and np.array_equal(counts.keys, corpus.keys)
    return Model(counts, model.vocab, **settings)


def _bits(array):
    return None if array is None else (array.dtype.str, array.shape, array.tobytes())


def _assert_same_tables(model, other):
    for keep in _keeps(model):
        a, b = model._table(keep), other._table(keep)
        assert a.target_ids == b.target_ids
        for name in ("feat_rows", "strides", "codes", "col_ptr", "rows", "amp", "phi", "entropy"):
            assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name


def _spy(monkeypatch):
    """Count the row sorts (``counts.sort_groups``: a fit's or a target sort) by the width of the rows, and
    the layout sorts (``np.lexsort``)."""
    calls = Counter()
    sort_groups, lexsort = counts_module.sort_groups, np.lexsort
    monkeypatch.setattr(counts_module, "sort_groups",
                        lambda keys: calls.update([("sort_groups", keys.shape[1])]) or sort_groups(keys))
    monkeypatch.setattr(np, "lexsort", lambda keys, *args: calls.update(["lexsort"]) or lexsort(keys, *args))
    return calls


def _phases(model):
    """Angles on every seventh corpus cell."""
    cells = itertools.islice(model.corpus.entries, 0, None, 7)
    return PhaseTable({cell: 0.25 * (n + 1) for n, cell in enumerate(cells)})


SETTINGS = {
    **{name: {"hyper": hyper} for name, hyper in DEFAULT_CONFIGS},
    "classical": {"hyper": Hyperparams(0, 0, 1)},
    "p=0.001": {"hyper": Hyperparams(p=0.001)},
    "phases": {},  # the default hyperparameters, with _phases
}


def test_a_view_sorts_nothing_its_counts_already_derived(monkeypatch):
    model = _fit(ZOO)
    _read(model, ZOO[::5])
    calls = _spy(monkeypatch)
    for hyper in (Hyperparams(0, 0, 1), Hyperparams(1, 0, 1), Hyperparams(p=0.001)):
        view = Model(model.corpus, model.vocab, hyper=hyper)
        _read(view, ZOO[::5])
        assert view._state.tables.keys() == model._state.tables.keys()
    assert calls == {}


def test_each_split_derives_each_layout_once_for_every_config(monkeypatch):
    builds = []
    build = Model._build_table

    def counting_build(self, keep, state):
        before = calls["lexsort"]
        table = build(self, keep, state)
        builds.append((state.corpus.keys, keep, calls["lexsort"] - before))  # the keys stay alive
        return table

    calls = _spy(monkeypatch)
    monkeypatch.setattr(Model, "_build_table", counting_build)
    configs = [*DEFAULT_CONFIGS, ("classical", Hyperparams(0, 0, 1))]
    repeated_split_experiment(ZOO, n_runs=3, test_fraction=0.3, configs=configs, seed=4)
    # each split's fit sorts its key rows once, and no target order sorts its targets
    assert {call: n for call, n in calls.items() if call != "lexsort"} == {("sort_groups", 17): 3}
    reads, sorts = Counter(), Counter()
    for keys, keep, n_sorts in builds:
        reads[id(keys), keep] += 1
        sorts[id(keys), keep] += n_sorts
    full = [layout for layout in reads if len(layout[1]) == 16]
    assert len(full) == 3 and all(reads[layout] == 3 for layout in full)  # each config reads each split's
    assert set(sorts.values()) == {1}


@pytest.mark.parametrize("setting", list(SETTINGS))
@pytest.mark.parametrize("data", ["zoo", "text"])
def test_a_views_tables_equal_a_fresh_models_bitwise(data, setting):
    records = ZOO if data == "zoo" else _text_records()
    model = _fit(records)
    _read(model, records[::3])
    settings = dict(SETTINGS[setting])
    if setting == "phases":
        settings["phases"] = _phases(model)
    view, fresh = Model(model.corpus, model.vocab, **settings), _fresh(model, **settings)
    _read(view, records[::3])
    _assert_same_tables(view, fresh)
    assert (view._table(_keeps(view)[0]).phi is None) == ("phases" not in settings)


def test_a_model_made_after_a_target_was_added_reads_the_larger_space():
    model = _fit(ZOO)
    _read(model, ZOO[::5])
    tables = dict(model._state.tables)
    encode([RawRecord([("type", "Dragon")], ZOO[0].features)], model.vocab, grow=True)
    view = Model(model.corpus, model.vocab)
    _assert_same_tables(view, _fresh(model))
    # H_max = ln 8, not ln 7: a column spread over several targets weighs more
    for keep, table in tables.items():
        if len(keep) == 1:
            assert (view._table(keep).entropy > table.entropy).any()
    assert all(model._table(keep) is table for keep, table in tables.items())


def _same_memo(memo, derived):
    return memo.keys() == derived.keys() and all(memo[key] is value for key, value in derived.items())


def test_changing_one_holder_of_the_counts_leaves_the_others_derivations_alone():
    model = _fit(ZOO)
    _read(model, ZOO[::5])
    memo = model._state.corpus._memo
    derived = dict(memo)
    assert len(derived) > 5
    view = Model(model.corpus, model.vocab, hyper=Hyperparams(0, 0, 1))
    copy = model.corpus
    assert view._state.corpus._memo is memo and copy._memo is memo

    copy.add_rows([[0] * copy.keys.shape[1]], [1.0])
    assert copy._memo == {} and model._state.corpus._memo is memo and _same_memo(memo, derived)

    model.update(encode(ZOO[:3], model.vocab))
    _read(model, ZOO[::5])
    assert model._state.corpus._memo is not memo and model._state.corpus._memo
    assert view._state.corpus._memo is memo and _same_memo(memo, derived)
    _read(view, ZOO[::5])
    assert _same_memo(memo, derived)


def test_the_memo_is_not_part_of_the_counts_or_the_archive():
    warm, cold = _fit(ZOO), _fit(ZOO)
    _read(warm, ZOO[::5])
    assert warm._state.corpus._memo and not cold._state.corpus._memo
    assert warm.corpus == cold.corpus and warm.corpus.entries == cold.corpus.entries
    archives = io.StringIO(), io.StringIO()
    warm.save(archives[0])
    cold.save(archives[1])
    assert archives[0].getvalue() == archives[1].getvalue()


def test_a_second_view_over_the_same_counts_and_shape_checks_no_key(monkeypatch):
    model, checked = _fit(ZOO), []
    real = model_module._check_indices

    def spy(keys, shape):
        checked.append(shape)
        real(keys, shape)

    monkeypatch.setattr(model_module, "_check_indices", spy)
    Model(model.corpus, model.vocab, hyper=Hyperparams(0, 0, 1))
    Model(model.corpus, model.vocab)
    assert checked == []
    encode([RawRecord([("type", "Dragon")], [("hair", "scales", 1.0)])], model.vocab, grow=True)
    larger = model.vocab.shape()
    Model(model.corpus, model.vocab)  # a larger shape: its keys are checked again, once
    Model(model.corpus, model.vocab, hyper=Hyperparams(0, 0, 1))
    assert checked == [larger]


def test_a_failed_key_check_is_not_remembered():
    model = _fit(ZOO)
    n_types = len(model.vocab.target_dims[0])
    beyond = model.corpus.add_rows([[n_types] + [0] * model.n_feature_dims], [1.0])  # one type too many
    for _ in range(2):
        with pytest.raises(ShapeError, match="outside the vocabulary"):
            Model(beyond, model.vocab)
    assert not beyond._checked
