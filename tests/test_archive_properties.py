"""Property: an archive with one JSON leaf replaced loads cleanly or not at all.

The archive is a valid tensor-mode zoo model.  One leaf (a string, number,
boolean or null anywhere in it) is replaced by an arbitrary JSON value.
``load`` must then either raise ``ArchiveError`` or return a model that saves
to an archive which reloads to the same bytes and whose names and values all
decode to strings.  The leaf is drawn section by section (format, version,
hyper, target_dims, ...), so the small sections are hit as often as the corpus.
"""
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparseborn as sb
from sparseborn.errors import ArchiveError

ZOO = Path(__file__).resolve().parents[1] / "data" / "zoo.csv"


def zoo_tensor_archive() -> str:
    records = sb.load_tabular(ZOO, ["type"], mode="tensor", drop_columns=["animal_name"])
    vocab = sb.Vocabulary()
    model = sb.fit(sb.encode(records[:70], vocab, grow=True), vocab)
    model.policy = sb.learn_policy(model, sb.encode(records[70:], model.vocab))[0]
    return saved(model)


def saved(model) -> str:
    buffer = io.StringIO()
    model.save(buffer)
    return buffer.getvalue()


def leaf_paths(node, path=()):
    """The key path of every leaf under ``node``."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in leaf_paths(child, path + (key,))]


ARCHIVE = zoo_tensor_archive()
SECTIONS = {}
for leaf in leaf_paths(json.loads(ARCHIVE)):
    SECTIONS.setdefault(leaf[0], []).append(leaf)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4,
)


@settings(deadline=None)
@given(data=st.data())
def test_one_replaced_leaf_is_rejected_or_round_trips(data):
    section = data.draw(st.sampled_from(sorted(SECTIONS)))
    path = data.draw(st.sampled_from(SECTIONS[section]))
    payload = json.loads(ARCHIVE)
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(json_values)
    try:
        model = sb.load(io.StringIO(json.dumps(payload)))
    except ArchiveError:
        return
    text = saved(model)
    assert saved(sb.load(io.StringIO(text))) == text
    for dim in model.vocab.target_dims + model.vocab.feature_dims:
        assert isinstance(dim.name, str)
        assert all(isinstance(value, str) for value in dim.values)


@pytest.mark.parametrize(
    "path, number",
    [
        (("corpus", 0, 0, 0), 0),  # a target coordinate
        (("corpus", 1, 1, 13), 1),  # a feature coordinate
        (("corpus", 0, 2), 2.0),  # a weight
        (("hyper", "h"), 1.0),
        (("hyper", "b"), 1.0),
        (("hyper", "p"), 0.5),
        (("policy", 0, 1), 1),  # a dimension ordinal
        (("phases", 0, 0, 0), 0),  # a phase's target coordinate
        (("phases", 0, 1, 15), 0),  # a phase's feature coordinate
        (("phases", 0, 2), 0.5),  # an angle
    ],
    ids=lambda part: ".".join(map(str, part)) if isinstance(part, tuple) else None,
)
@pytest.mark.parametrize("boolean", [True, False])
def test_a_json_boolean_is_not_a_number(path, number, boolean):
    """JSON ``true`` and ``false`` are ints to Python: where the archive holds a number,
    ``load`` must reject them rather than read 1 or 0."""
    payload = json.loads(ARCHIVE)
    payload["phases"] = [[[0], [0] * 16, 0.5]]
    node = payload
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = number
    sb.load(io.StringIO(json.dumps(payload)))  # the number itself loads
    node[path[-1]] = boolean
    with pytest.raises(ArchiveError, match="boolean"):
        sb.load(io.StringIO(json.dumps(payload)))


def test_an_archive_whose_strings_say_true_and_false_loads():
    """``load`` looks for booleans among the numbers only when the text holds the words; a
    name or value spelling them is not a boolean."""
    payload = json.loads(ARCHIVE)
    payload["feature_dims"][0]["values"][:2] = ["true", "false"]
    text = json.dumps(payload, separators=(",", ":")) + "\n"
    assert saved(sb.load(io.StringIO(text))) == text
    assert saved(sb.load(io.BytesIO(text.encode()))) == text
