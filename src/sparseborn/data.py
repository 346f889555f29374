"""Data ingestion: vocabularies, tokenization, and record encoding.

Raw records pair named target dimensions (labels) with named feature dimensions (tokens with
multiplicities).  Encoding maps strings to dense per-dimension integer indices and represents each
observation in product form: one count map per dimension plus a global scale.  A batch's joint counts,
the outer products of its maps, are one numpy expansion, each weight multiplied left to right.
"""
from __future__ import annotations

import csv
import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import chain
from typing import Collection, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .counts import Index, SparseCounts
from .errors import InvalidRecordError, ParseError, SchemaError

FOLD_DIM = "f"
TOKEN_DIM = "token"
LABEL_DIM = "label"
NA_VALUE = "NA"

# Words may contain interior hyphens; a leading apostrophe glues to the
# following letters (contraction suffixes such as 't or 's); any other run
# of punctuation is a single token.
_TOKEN_RE = re.compile(r"'[^\W_]+|[^\W_]+(?:-[^\W_]+)*|[^\w\s]+|_+")


def tokenize(text: str) -> List[str]:
    """Split text into word and punctuation tokens, preserving case.

    No stemming, no stopword removal, no lowercasing: morphological variety
    is kept on purpose.
    """
    return _TOKEN_RE.findall(text)


class Dimension:
    """One named axis with a dense string<->index bijection; it creates only strings."""

    __slots__ = ("name", "values", "_index")

    def __init__(self, name: str):
        self.name = name
        self.values: List[str] = []
        self._index: Dict[str, int] = {}

    def encode(self, value: str, grow: bool = False) -> int | None:
        idx = self._index.get(value)
        if idx is None and grow:
            if not isinstance(value, str):
                raise InvalidRecordError(f"names and values must be strings, got {value!r}")
            idx = len(self.values)
            self.values.append(value)
            self._index[value] = idx
        return idx

    def decode(self, idx: int) -> str:
        return self.values[idx]

    def __len__(self) -> int:
        return len(self.values)

    def copy(self) -> "Dimension":
        out = Dimension(self.name)
        out.values = list(self.values)
        out._index = dict(self._index)
        return out


class Vocabulary:
    """Per-dimension bidirectional string<->index maps for targets and features.

    Dimensions are created in first-seen order, which makes ingestion
    deterministic: the same source always yields the same vocabulary.  Names
    are the values of one more :class:`Dimension` per side, created and checked
    as values are; a lookup reads its index directly, a call less per name.
    """

    def __init__(self):
        self.target_dims: List[Dimension] = []
        self.feature_dims: List[Dimension] = []
        self._target_names, self._feature_names = Dimension("targets"), Dimension("features")
        # the shape a model last published over this vocabulary; a failed update truncates to it
        self.published: Tuple[Tuple[int, ...], Tuple[int, ...]] | None = None

    def target_dim(self, name: str, create: bool = False) -> int | None:
        idx = self._target_names._index.get(name)
        if idx is None and create:
            idx = self._target_names.encode(name, grow=True)
            self.target_dims.append(Dimension(name))
        return idx

    def feature_dim(self, name: str, create: bool = False) -> int | None:
        idx = self._feature_names._index.get(name)
        if idx is None and create:
            idx = self._feature_names.encode(name, grow=True)
            self.feature_dims.append(Dimension(name))
        return idx

    @property
    def n_target_dims(self) -> int:
        return len(self.target_dims)

    @property
    def n_feature_dims(self) -> int:
        return len(self.feature_dims)

    def target_space_size(self) -> int:
        """Number of distinct target multi-indices spanned by the vocabulary."""
        size = 1
        for dim in self.target_dims:
            size *= len(dim)
        return size if self.target_dims else 0

    def decode_target(self, index: Index) -> Tuple[str, ...]:
        return tuple(dim.decode(i) for dim, i in zip(self.target_dims, index))

    def decode_feature(self, index: Index, dims: Sequence[int] | None = None) -> Tuple[str, ...]:
        """Decode a feature multi-index; ``dims`` selects the kept ordinals."""
        if dims is None:
            dims = range(len(self.feature_dims))
        return tuple(self.feature_dims[d].decode(i) for d, i in zip(dims, index))

    def encode_target(self, values: Sequence[str]) -> Index | None:
        """Encode one value per target dimension; None when any is unknown."""
        if len(values) != len(self.target_dims):
            raise SchemaError(
                f"expected {len(self.target_dims)} target values, got {len(values)}"
            )
        out = []
        for dim, value in zip(self.target_dims, values):
            idx = dim.encode(value)
            if idx is None:
                return None
            out.append(idx)
        return tuple(out)

    def shape(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The number of values in each target and each feature dimension."""
        return tuple(map(len, self.target_dims)), tuple(map(len, self.feature_dims))

    def truncate(self, shape: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> None:
        """Forget every dimension and value added since ``shape()`` returned ``shape``."""
        for dims, names, sizes in (
            (self.target_dims, self._target_names, shape[0]),
            (self.feature_dims, self._feature_names, shape[1]),
        ):
            del dims[len(sizes):]
            for dim, size in zip([names, *dims], [len(sizes), *sizes]):
                for value in dim.values[size:]:
                    del dim._index[value]
                del dim.values[size:]

    def copy(self) -> "Vocabulary":
        out = Vocabulary()
        out.target_dims = [d.copy() for d in self.target_dims]
        out.feature_dims = [d.copy() for d in self.feature_dims]
        out._target_names = self._target_names.copy()
        out._feature_names = self._feature_names.copy()
        return out


@dataclass
class RawRecord:
    """One data item before encoding.

    ``labels`` holds (target-dimension-name, value) pairs, possibly several
    per dimension (multilabel).  ``features`` holds (feature-dimension-name,
    token, multiplicity) triples with multiplicity > 0.
    """

    labels: List[Tuple[str, str]] = field(default_factory=list)
    features: List[Tuple[str, str, float]] = field(default_factory=list)


def _outer(maps: Iterable[Dict[int, float]], factor: float) -> Dict[Index, float]:
    """``factor`` times the outer product of ``maps``; {} when one of them is empty.  While
    the maps so far hold one value each there is one cell, and no dict is built."""
    prefix, out = [], None
    for dim_map in maps:
        if out is None and len(dim_map) == 1:
            [(i, wi)] = dim_map.items()
            prefix.append(i)
            factor *= wi
            continue
        if not dim_map:
            return {}
        cells = out if out is not None else {tuple(prefix): factor}
        out = {p + (i,): w * wi for p, w in cells.items() for i, wi in dim_map.items()}
    return out if out is not None else {tuple(prefix): factor}


@dataclass
class EncodedObservation:
    """An observation in product form.

    One index->weight map per target dimension and per feature dimension;
    the joint counts are ``scale`` times the outer product of the maps, set
    by ``encode`` to sum to 1 where ``normalized``.  ``phases`` optionally
    assigns an angle (radians) to full feature multi-indices; absent means zero.
    """

    label_weights: Tuple[Dict[int, float], ...]
    feature_weights: Tuple[Dict[int, float], ...]
    scale: float = 1.0
    phases: Dict[Index, float] | None = None
    normalized: bool = False

    @property
    def n_feature_dims(self) -> int:
        return len(self.feature_weights)

    def has_labels(self) -> bool:
        return bool(self.label_weights) and all(m for m in self.label_weights)

    def target_distribution(self) -> Dict[Index, float]:
        """Normalized label distribution (one-hot for single-label records)."""
        product = _outer(self.label_weights, 1.0)
        total = math.fsum(product.values())
        if total <= 0:
            return {}
        return {idx: w / total for idx, w in product.items()}

    def features_at(self, keep: Collection[int]) -> Dict[Index, float]:
        """Feature counts contracted to the kept dimension ordinals.

        Dropped dimensions contribute their total mass as a scalar factor;
        a dropped dimension whose map is empty (every raw value was unknown)
        contributes factor 1 so the surviving dimensions still carry weight.
        Returns {} when a kept dimension has no encodable values.
        """
        factor, kept = self.scale, []
        for d, dim_map in enumerate(self.feature_weights):
            if d in keep:
                kept.append(dim_map)
            elif dim_map:
                factor *= sum(dim_map.values())
        return _outer(kept, factor)

    def known(self, shape) -> "EncodedObservation":
        """A copy without the values at or past ``shape``'s (target, feature) sizes, as encoding
        drops unknown ones, and normalized again if encoding normalized it."""
        labels, feats = (tuple({i: w for i, w in m.items() if i < n} for m, n in zip(maps, sizes))
                         for maps, sizes in zip((self.label_weights, self.feature_weights), shape))
        if not self.normalized:
            return replace(self, label_weights=labels, feature_weights=feats)
        # a normalized record's label maps were all populated, or all empty as it had no labels
        normalized = not any(self.label_weights) or all(labels)
        scale = _normal_scale(labels, feats) if normalized else 1.0
        return replace(self, label_weights=labels, feature_weights=feats, scale=scale, normalized=normalized)

    def counts(self, target_dims: int, feature_dims: int) -> SparseCounts:
        """Materialize the joint counts X as a sparse tensor."""
        rows = joint_rows([self], target_dims, feature_dims)
        return SparseCounts(target_dims, feature_dims).add_rows(*rows)


def joint_rows(
    observations: Iterable[EncodedObservation], target_dims: int, feature_dims: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Joint counts of many observations, in order: int64 key rows (target then feature coordinates)
    by one array expansion (:func:`_expand`), weighted ``(1.0·l0·l1·…) * (scale·w0·w1·…)`` left to right."""
    maps, scales = [], []  # the maps observation after observation, each in dimension order
    for obs in observations:
        if len(obs.label_weights) != target_dims or obs.n_feature_dims != feature_dims:
            raise SchemaError("observation shape does not match requested tensor shape")
        maps += (*obs.label_weights, *obs.feature_weights)
        scales.append(obs.scale)
    keys, factors, cells = _expand(maps, len(scales), target_dims + feature_dims)
    feature_weights = reduce(np.multiply, factors[target_dims:], np.repeat(scales, cells))
    return keys, reduce(np.multiply, factors[:target_dims], 1.0) * feature_weights


def _expand(maps: List[Dict[int, float]], n: int, width: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Key rows of the outer products of ``maps``, ``width`` per observation, cells in mixed radix order;
    each cell's weight in every map, a row per dimension; and each observation's number of cells."""
    sizes = np.fromiter(map(len, maps), np.int64, len(maps)).reshape(n, width)
    cells = sizes.prod(axis=1)
    index = np.fromiter(chain.from_iterable(maps), np.int64, int(sizes.sum()))
    value = np.fromiter(chain.from_iterable(map(dict.values, maps)), np.float64, len(index))
    if (sizes == 1).all():  # one cell per observation: its maps' values are a row
        return index.reshape(n, width), value.reshape(n, width).T, cells
    local, at = np.arange(cells.sum()), np.empty(cells.sum(), np.int64)
    local -= np.repeat(np.cumsum(cells) - cells, cells)  # each cell's number in its observation
    firsts = np.cumsum(sizes).reshape(n, width) - sizes  # where each map starts in index and value
    keys, factors = np.empty((len(local), width), np.int64), np.empty((width, len(local)))
    for d in range(width - 1, -1, -1):  # digits last to first, in place: the peak stays near the outputs
        np.divmod(local, np.repeat(sizes[:, d], cells), out=(local, at))
        at += np.repeat(firsts[:, d], cells)
        keys[:, d] = index[at]
        factors[d] = value[at]
    return keys, factors, cells


def _open_maybe(source, mode="r", **kw):
    if isinstance(source, (str, os.PathLike)):
        return open(source, mode, **kw), True
    return source, False


def load_tabular(
    source,
    target_columns: Sequence[str],
    mode: str = "fold",
    delimiter: str = ",",
    missing: str = "token",
    drop_columns: Sequence[str] = (),
) -> List[RawRecord]:
    """Read delimited text with a header row into raw records.

    In ``fold`` mode every non-target cell becomes one token
    ``"column=value"`` in the single feature dimension; in ``tensor`` mode
    each column is its own feature dimension.  Empty cells are encoded as
    the explicit value ``NA`` (``missing="token"``) or dropped
    (``missing="drop"``).
    """
    if mode not in ("fold", "tensor"):
        raise ValueError(f"unknown mode {mode!r}")
    if missing not in ("token", "drop"):
        raise ValueError(f"unknown missing-value policy {missing!r}")
    if len(delimiter) != 1:
        raise SchemaError(f"delimiter must be one character, got {delimiter!r}")
    stream, owned = _open_maybe(source, newline="")
    try:
        reader = csv.reader(stream, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty input: no header row")
        for col in list(target_columns) + list(drop_columns):
            if col not in header:
                raise SchemaError(f"column {col!r} not found in header")
        target_set = set(target_columns)
        dropped = set(drop_columns)
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, got {len(row)}", line=lineno
                )
            rec = RawRecord()
            for col, cell in zip(header, row):
                if col in dropped:
                    continue
                if col in target_set:
                    rec.labels.append((col, cell))
                    continue
                if cell == "":
                    if missing == "drop":
                        continue
                    cell = NA_VALUE
                if mode == "fold":
                    rec.features.append((FOLD_DIM, f"{col}={cell}", 1.0))
                else:
                    rec.features.append((col, cell, 1.0))
            records.append(rec)
        return records
    finally:
        if owned:
            stream.close()


def load_token_records(source) -> List[RawRecord]:
    """Read line-delimited JSON records.

    Each line is an object with optional field ``labels`` (list of strings,
    or map dimension-name -> list of strings) and field ``tokens`` (list of
    strings, counted within the record, or map token -> count).
    """
    stream, owned = _open_maybe(source)
    try:
        records = []
        for lineno, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON ({exc.msg})", line=lineno) from exc
            except RecursionError as exc:
                raise ParseError("invalid JSON (nested too deeply)", line=lineno) from exc
            if not isinstance(obj, dict):
                raise ParseError("record must be a JSON object", line=lineno)
            rec = RawRecord()
            labels = obj.get("labels", [])
            if isinstance(labels, dict):
                label_items = [(str(dim), vs) for dim, vs in labels.items()]
            else:
                label_items = [(LABEL_DIM, labels)]
            for dim, values in label_items:
                if not isinstance(values, list):
                    raise ParseError("label values must be a list", line=lineno)
                for value in values:
                    rec.labels.append((dim, str(value)))
            tokens = obj.get("tokens", [])
            if isinstance(tokens, dict):
                counted = tokens.items()
            elif isinstance(tokens, list):
                counted = Counter(str(t) for t in tokens).items()
            else:
                raise ParseError("tokens must be a list or a map", line=lineno)
            for token, count in counted:
                try:
                    count = float(count)
                except (TypeError, ValueError):
                    raise ParseError(f"bad count for token {token!r}", line=lineno)
                if not math.isfinite(count):
                    raise ParseError(
                        f"token {token!r} has non-finite count", line=lineno
                    )
                if count <= 0:
                    raise ParseError(
                        f"token {token!r} has nonpositive count", line=lineno
                    )
                rec.features.append((TOKEN_DIM, str(token), count))
            records.append(rec)
        return records
    finally:
        if owned:
            stream.close()


def load_text_tree(root) -> List[RawRecord]:
    """Read a directory tree of text files: one subdirectory per label,
    one file per document, tokenized with :func:`tokenize`.

    Files are read as latin-1 so arbitrary bytes never fail to decode.
    Traversal order is sorted, hence deterministic.
    """
    root = os.fspath(root)
    if not os.path.isdir(root):
        raise SchemaError(f"{root!r} is not a directory")
    records = []
    for label in sorted(os.listdir(root)):
        subdir = os.path.join(root, label)
        if not os.path.isdir(subdir):
            continue
        for name in sorted(os.listdir(subdir)):
            path = os.path.join(subdir, name)
            if not os.path.isfile(path):
                continue
            with open(path, encoding="latin-1") as fh:
                text = fh.read()
            rec = RawRecord(labels=[(LABEL_DIM, label)])
            for token, count in Counter(tokenize(text)).items():
                rec.features.append((TOKEN_DIM, token, float(count)))
            records.append(rec)
    return records


def encode(
    records: Iterable[RawRecord],
    vocab: Vocabulary,
    grow: bool = False,
    normalize: bool = False,
) -> List[EncodedObservation]:
    """Encode raw records against (and optionally growing) a vocabulary.

    With ``grow`` (training) unknown strings extend the vocabulary and every record
    must carry at least one label; without it (prediction) unknown strings are
    silently dropped.  With ``normalize`` each observation's joint counts are scaled
    to sum to 1.  A record with a malformed field raises :class:`InvalidRecordError`
    naming the record, and a call that raises adds nothing to the vocabulary.
    """
    start, out = vocab.shape(), []
    try:
        for n, rec in enumerate(records):
            try:  # one handler for the whole record: no field is type-checked on its own
                if grow and not rec.labels:
                    raise InvalidRecordError("training record has no label")
                labels = [(name, value, 1.0) for name, value in rec.labels]
                label_maps = _count(labels, vocab.target_dims, vocab.target_dim, grow)
                feature_maps = _count(rec.features, vocab.feature_dims, vocab.feature_dim, grow)
            except (TypeError, ValueError) as exc:
                raise InvalidRecordError(f"record {n}: {exc}") from exc
            obs = EncodedObservation(
                label_weights=tuple(label_maps),
                feature_weights=tuple(feature_maps),
            )
            if normalize and (not rec.labels or all(label_maps)):
                obs.scale, obs.normalized = _normal_scale(label_maps, feature_maps), True
            out.append(obs)
    except BaseException:  # all or nothing: a failed call leaves the vocabulary as it found it
        vocab.truncate(start)
        raise
    # Late-created dimensions leave earlier observations short; pad so every
    # observation spans the full vocabulary.
    for obs in out:
        if len(obs.label_weights) < vocab.n_target_dims:
            obs.label_weights += tuple({} for _ in range(vocab.n_target_dims - len(obs.label_weights)))
        if len(obs.feature_weights) < vocab.n_feature_dims:
            obs.feature_weights += tuple({} for _ in range(vocab.n_feature_dims - len(obs.feature_weights)))
    return out


def _normal_scale(label_maps, feature_maps) -> float:
    """1 over the product of the populated maps' totals, labels first; 1 when a feature dimension is empty."""
    populated = [m for m in (*label_maps, *feature_maps) if m]
    total = math.prod(sum(m.values()) for m in populated) if populated and all(feature_maps) else 1.0
    return 1.0 / total if total > 0 else 1.0


def _count(items, dims: List[Dimension], dim_of, grow: bool) -> List[Dict[int, float]]:
    """Sum the weights, each checked, of (dimension name, value, weight) items into one {index: weight}
    map per dimension of ``dims``; ``dim_of`` resolves each name once, in first-seen order."""
    resolved: Dict[str, int | None] = {}
    for name, _, _ in items:
        if name not in resolved:
            resolved[name] = dim_of(name, create=grow)
    maps: List[Dict[int, float]] = [{} for _ in dims]
    for name, value, weight in items:
        if not (weight > 0 and math.isfinite(weight)):
            raise InvalidRecordError("feature multiplicity must be positive and finite")
        d = resolved[name]
        if d is None:
            continue
        idx = dims[d]._index.get(value)
        if idx is None and grow:
            idx = dims[d].encode(value, grow=True)
        if idx is not None:
            maps[d][idx] = maps[d].get(idx, 0.0) + float(weight)
    return maps
