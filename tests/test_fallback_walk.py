"""One fallback walk: every read of a level goes through ``Model.walk``.

``walk`` follows the policy's keep-sets, or the ones it is given, and is the
only code that cuts queries into sub-batches and evaluates a level.
``predict_at_dims`` is a walk of one step: a query the step decides gets its
row, an empty keep-set gives each query its own copy of the prior, and a
query the step leaves degenerate gets None.
"""
from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from helpers import make_model
from sparseborn import model as model_module
from sparseborn.data import EncodedObservation

SRC = Path(model_module.__file__).resolve().parent

ENTRIES = {
    ((0,), (0, 0)): 2.0, ((0,), (1, 2)): 1.0, ((1,), (0, 1)): 1.0,
    ((1,), (1, 0)): 3.0, ((2,), (2, 2)): 1.0, ((2,), (3, 1)): 2.0,
}
SIZES = [4, 3]


def _queries(rng, n=40):
    """Queries over both dimensions, some with values or pairs the corpus never holds."""
    def values(size):
        picked = rng.choice(size, int(rng.integers(0, 3)), replace=False)
        return {int(v): float(rng.integers(1, 4)) for v in picked}

    return [EncodedObservation((), tuple(values(size) for size in SIZES)) for _ in range(n)]


def _callers(name: str):
    """(module, enclosing function) of every call of ``name`` or ``<obj>.name`` in the package."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call):
                    callee = node.func
                    called = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                    if called == name:
                        found.append((path.stem, func.name))
    return found


def test_only_the_walk_cuts_sub_batches_and_evaluates_levels():
    assert not hasattr(model_module.Model, "_levels")
    assert _callers("_sub_batches") == [("model", "walk")]
    assert _callers("_level") == [("model", "walk")]


def test_predict_at_dims_reads_the_rows_of_a_one_step_walk():
    model = make_model(ENTRIES, 3, SIZES)
    queries = _queries(np.random.default_rng(3))
    for dims in ({0, 1}, {0}, {1}):
        expected = [None] * len(queries)
        for _, level, rows, decided in model.walk(queries, steps=(frozenset(dims),)):
            for i, row in zip(decided, level.probabilities(rows).tolist()):
                expected[i] = row
        assert model.predict_at_dims(queries, dims) == expected
        assert None in expected and any(row is not None for row in expected)


def test_an_empty_keep_set_gives_each_query_its_own_copy_of_the_prior():
    model = make_model(ENTRIES, 3, SIZES)
    queries = _queries(np.random.default_rng(4), n=5)
    [(depth, level, rows, decided)] = model.walk(queries, steps=(frozenset(),))
    assert (depth, level, rows, decided) == (0, None, [0, 1, 2, 3, 4], [0, 1, 2, 3, 4])
    rows = model.predict_at_dims(queries, ())
    prior = list(model.target_prior().values())
    assert rows == [prior] * 5
    assert len({id(row) for row in rows}) == 5 and all(row is not model._state.prior for row in rows)
    rows[0][0] = -1.0
    assert model.predict_at_dims(queries, ())[0] == prior
    assert model.predict_at_dims([], ()) == [] and model.predict_at_dims([], {0}) == []


def test_a_walk_over_given_steps_never_yields_a_query_no_step_decides():
    model = make_model(ENTRIES, 3, SIZES)
    unseen_pair = EncodedObservation((), ({0: 1.0}, {2: 1.0}))  # both values known, the pair is not
    known = EncodedObservation((), ({0: 1.0}, {0: 1.0}))
    full, first = frozenset({0, 1}), frozenset({0})

    def decided(steps=None):
        return [(depth, queries) for depth, _, _, queries in model.walk([unseen_pair, known], steps=steps)]

    assert decided((full,)) == [(0, [1])]
    assert decided((full, first)) == [(0, [1]), (1, [0])] == decided()


@pytest.mark.parametrize("dims", [{0}, (), {0, 1}])
def test_a_single_query_reads_the_same_one_step_walk(dims):
    model = make_model(ENTRIES, 3, SIZES)
    for q in _queries(np.random.default_rng(6), n=15):
        [row] = model.predict_at_dims([q], dims)
        single = model.predict_at_dims(q, dims)
        assert single == (None if row is None else dict(zip(model.target_prior(), row)))
