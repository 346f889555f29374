"""Boundary checks: every malformed input at a public entry point raises its typed error.

Each case names the input and the check that must reject it, with the error
type and a fragment of its message.
"""
from __future__ import annotations

import io
import json

import pytest

from helpers import build_vocab
from sparseborn.counts import SparseCounts, _index_matrix
from sparseborn.data import load_tabular, load_text_tree, load_token_records
from sparseborn.errors import ParseError, SchemaError, ShapeError
from sparseborn.model import Model
from sparseborn.policy import Policy


@pytest.mark.parametrize(
    "record, message",
    [
        ([1, 2], "must be a JSON object"),
        ('"text"', "must be a JSON object"),
        ({"labels": {"topic": "sport"}}, "label values must be a list"),
        ({"labels": "sport"}, "label values must be a list"),
        ({"tokens": "game"}, "tokens must be a list or a map"),
        ({"tokens": 3}, "tokens must be a list or a map"),
        ({"tokens": {"game": "many"}}, "bad count for token 'game'"),
        ({"tokens": {"game": None}}, "bad count for token 'game'"),
        ({"tokens": {"game": [1]}}, "bad count for token 'game'"),
    ],
    ids=["array", "string", "label-map-string", "label-string", "tokens-string", "tokens-number",
         "count-word", "count-null", "count-list"],
)
def test_load_token_records_rejects_a_malformed_line(record, message):
    line = record if isinstance(record, str) else json.dumps(record)
    with pytest.raises(ParseError, match=message) as err:
        load_token_records(io.StringIO('{"labels": ["y"], "tokens": ["a"]}\n' + line + "\n"))
    assert err.value.line == 2


def test_load_token_records_reads_a_label_map_as_one_dimension_per_key():
    lines = [
        {"labels": {"topic": ["sport"], "lang": ["en", "de"]}, "tokens": {"goal": 2}},
        {"labels": {"lang": ["fr"]}, "tokens": ["but"]},
        {"labels": {"topic": []}, "tokens": []},
    ]
    records = load_token_records(io.StringIO("\n".join(map(json.dumps, lines))))
    assert records[0].labels == [("topic", "sport"), ("lang", "en"), ("lang", "de")]
    assert records[0].features == [("token", "goal", 2.0)]
    assert records[1].labels == [("lang", "fr")] and records[1].features == [("token", "but", 1.0)]
    assert records[2].labels == [] and records[2].features == []


@pytest.mark.parametrize(
    "rows, width, message",
    [
        ([[0, 1], [0]], 2, "unequal length"),
        ([[0, 1], [0, 1]], 3, "do not have width 3"),
        ([0, 1], 2, "do not have width 2"),
    ],
    ids=["ragged", "too-narrow", "flat"],
)
def test_index_rows_of_the_wrong_shape_are_rejected(rows, width, message):
    with pytest.raises(ShapeError, match=message):
        _index_matrix(rows, width)
    with pytest.raises(ShapeError, match=message):
        SparseCounts(1, width - 1).add_rows(rows, [1.0] * len(rows))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SparseCounts(-1, 1), "nonnegative"),
        (lambda: SparseCounts(1, -2), "nonnegative"),
        (lambda: SparseCounts(1, 1, {((0, 0), (0,)): 1.0}), r"index shape \(2,1\)"),
        (lambda: SparseCounts(1, 1, {((0,), ()): 1.0}), r"index shape \(1,0\)"),
        (lambda: SparseCounts(1, 1).add_rows([[0, 0]], [1.0, 2.0]), "1 index rows but weights of shape"),
        (lambda: SparseCounts(1, 1).add_rows([[0, 0], [1, 1]], [1.0]), "2 index rows but weights of shape"),
    ],
    ids=["negative-targets", "negative-features", "wide-key", "short-key", "more-weights", "fewer-weights"],
)
def test_sparse_counts_reject_a_malformed_shape(build, message):
    with pytest.raises(ShapeError, match=message):
        build()


@pytest.mark.parametrize(
    "option, message", [({"mode": "columns"}, "unknown mode"), ({"missing": "zero"}, "unknown missing-value")]
)
def test_load_tabular_rejects_an_unknown_option(option, message):
    with pytest.raises(ValueError, match=message):
        load_tabular(io.StringIO("class,x\nA,1\n"), ["class"], **option)


def test_load_text_tree_rejects_a_path_that_is_not_a_directory(tmp_path):
    document = tmp_path / "doc.txt"
    document.write_text("words")
    for path in (document, tmp_path / "missing"):
        with pytest.raises(SchemaError, match="is not a directory"):
            load_text_tree(path)


@pytest.mark.parametrize("dims", [(2, 1), (1, 2), (0, 1)])
def test_a_model_rejects_counts_with_other_dimension_counts_than_its_vocabulary(dims):
    with pytest.raises(ShapeError, match="corpus shape does not match vocabulary"):
        Model(SparseCounts(*dims), build_vocab(2, [3]))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Policy(()), ValueError, "at least one step"),
        (lambda: Policy((frozenset({0, 1}), frozenset({0, 1}), frozenset())), ValueError, "strictly nested"),
        (lambda: Policy((frozenset({0, 1}), frozenset({0}), frozenset({1}), frozenset())), ValueError,
         "strictly nested"),
        (lambda: Policy.from_lists([[0, 1], [0], [0, 1], []]), ValueError, "strictly nested"),
        (lambda: Policy.default(-1), ShapeError, "nonnegative"),
    ],
    ids=["no-steps", "repeated-step", "sibling-step", "growing-step", "negative-default"],
)
def test_a_policy_rejects_steps_that_are_not_a_contraction_chain(build, error, message):
    with pytest.raises(error, match=message):
        build()
