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
