"""Data ingestion: vocabularies, tokenization, and record encoding.

Raw records pair named target dimensions (labels) with named feature
dimensions (tokens with multiplicities).  Encoding maps strings to dense
per-dimension integer indices and represents each observation in product
form: one count map per dimension plus a global scale, from which the
joint counts are an outer product.
"""
from __future__ import annotations

import csv
import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Dict, Iterable, List, Sequence, Tuple

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
    """One named axis with a dense string<->index bijection."""

    __slots__ = ("name", "values", "_index")

    def __init__(self, name: str, values: Iterable[str] = ()):
        self.name = name
        self.values: List[str] = []
        self._index: Dict[str, int] = {}
        for v in values:
            self.encode(v, grow=True)

    def encode(self, value: str, grow: bool = False) -> int | None:
        idx = self._index.get(value)
        if idx is None and grow:
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
    deterministic: the same source always yields the same vocabulary.
    """

    def __init__(self):
        self.target_dims: List[Dimension] = []
        self.feature_dims: List[Dimension] = []
        self._target_by_name: Dict[str, int] = {}
        self._feature_by_name: Dict[str, int] = {}
        # the shape a model last published over this vocabulary; a failed update truncates to it
        self.published: Tuple[Tuple[int, ...], Tuple[int, ...]] | None = None

    def target_dim(self, name: str, create: bool = False) -> int | None:
        idx = self._target_by_name.get(name)
        if idx is None and create:
            idx = len(self.target_dims)
            self.target_dims.append(Dimension(name))
            self._target_by_name[name] = idx
        return idx

    def feature_dim(self, name: str, create: bool = False) -> int | None:
        idx = self._feature_by_name.get(name)
        if idx is None and create:
            idx = len(self.feature_dims)
            self.feature_dims.append(Dimension(name))
            self._feature_by_name[name] = idx
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
        for dims, by_name, sizes in (
            (self.target_dims, self._target_by_name, shape[0]),
            (self.feature_dims, self._feature_by_name, shape[1]),
        ):
            for dim in dims[len(sizes):]:
                del by_name[dim.name]
            del dims[len(sizes):]
            for dim, size in zip(dims, sizes):
                for value in dim.values[size:]:
                    del dim._index[value]
                del dim.values[size:]

    def copy(self) -> "Vocabulary":
        out = Vocabulary()
        out.target_dims = [d.copy() for d in self.target_dims]
        out.feature_dims = [d.copy() for d in self.feature_dims]
        out._target_by_name = dict(self._target_by_name)
        out._feature_by_name = dict(self._feature_by_name)
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


@dataclass
class EncodedObservation:
    """An observation in product form.

    One index->weight map per target dimension and per feature dimension;
    the joint counts are ``scale`` times the outer product of the maps.
    ``phases`` optionally assigns an angle (radians) to full feature
    multi-indices; absent means zero.
    """

    label_weights: Tuple[Dict[int, float], ...]
    feature_weights: Tuple[Dict[int, float], ...]
    scale: float = 1.0
    phases: Dict[Index, float] | None = None

    @property
    def n_feature_dims(self) -> int:
        return len(self.feature_weights)

    def has_labels(self) -> bool:
        return bool(self.label_weights) and all(m for m in self.label_weights)

    def target_product(self) -> Dict[Index, float]:
        """Outer product of the per-dimension label maps (no scale)."""
        out: Dict[Index, float] = {(): 1.0}
        for dim_map in self.label_weights:
            if not dim_map:
                return {}
            out = {
                prefix + (i,): w * wi
                for prefix, w in out.items()
                for i, wi in dim_map.items()
            }
        return out

    def target_distribution(self) -> Dict[Index, float]:
        """Normalized label distribution (one-hot for single-label records)."""
        product = self.target_product()
        total = math.fsum(product.values())
        if total <= 0:
            return {}
        return {idx: w / total for idx, w in product.items()}

    def features_at(self, keep: Iterable[int]) -> Dict[Index, float]:
        """Feature counts contracted to the kept dimension ordinals.

        Dropped dimensions contribute their total mass as a scalar factor;
        a dropped dimension whose map is empty (every raw value was unknown)
        contributes factor 1 so the surviving dimensions still carry weight.
        Returns {} when a kept dimension has no encodable values.
        """
        keep = set(keep)
        factor = self.scale
        for d, dim_map in enumerate(self.feature_weights):
            if d not in keep and dim_map:
                factor *= sum(dim_map.values())
        # while the kept dimensions hold one value each there is one cell: no dicts yet
        prefix, out = (), None
        for d in sorted(keep):
            dim_map = self.feature_weights[d]
            if not dim_map:
                return {}
            if out is None and len(dim_map) == 1:
                [(i, wi)] = dim_map.items()
                prefix, factor = prefix + (i,), factor * wi
                continue
            cells = out if out is not None else {prefix: factor}
            out = {p + (i,): w * wi for p, w in cells.items() for i, wi in dim_map.items()}
        return out if out is not None else {prefix: factor}

    def known(self, sizes: Sequence[int]) -> "EncodedObservation":
        """A copy without the feature values at or past ``sizes``, as encoding drops unknown ones."""
        maps = tuple({i: w for i, w in m.items() if i < n} for m, n in zip(self.feature_weights, sizes))
        return replace(self, feature_weights=maps)

    def counts(self, target_dims: int, feature_dims: int) -> SparseCounts:
        """Materialize the joint counts X as a sparse tensor."""
        rows = joint_rows([self], target_dims, feature_dims)
        return SparseCounts(target_dims, feature_dims).add_rows(*rows)


def joint_rows(
    observations: Iterable[EncodedObservation], target_dims: int, feature_dims: int
) -> Tuple[np.ndarray, List[float]]:
    """The joint counts of many observations, in order, as int64 key rows
    (target then feature coordinates) and their weights."""
    coords: List[int] = []  # flat, row after row; shaped once at the end
    weights: List[float] = []
    all_dims = range(feature_dims)
    for obs in observations:
        if len(obs.label_weights) != target_dims or obs.n_feature_dims != feature_dims:
            raise SchemaError("observation shape does not match requested tensor shape")
        feats = obs.features_at(all_dims)
        for tgt, tw in obs.target_product().items():
            coords.extend(chain.from_iterable(tgt + feat for feat in feats))
            weights.extend([tw * fw for fw in feats.values()])
    keys = np.array(coords, dtype=np.int64).reshape(len(weights), target_dims + feature_dims)
    return keys, weights


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

    With ``grow`` (training) unknown strings extend the vocabulary and every
    record must carry at least one label; without it (prediction) unknown
    strings are silently dropped.  With ``normalize`` each observation's
    joint counts are scaled to sum to 1.
    """
    out = []
    for n, rec in enumerate(records):
        for _, _, mult in rec.features:
            if not (mult > 0 and math.isfinite(mult)):
                raise InvalidRecordError(
                    f"record {n}: feature multiplicity must be positive and finite"
                )
        if grow and not rec.labels:
            raise InvalidRecordError(f"record {n}: training record has no label")
        # each dimension name is resolved once per record, in first-seen order
        target_of: Dict[str, int | None] = {}
        for name, _ in rec.labels:
            if name not in target_of:
                target_of[name] = vocab.target_dim(name, create=grow)
        feature_of: Dict[str, int | None] = {}
        for name, _, _ in rec.features:
            if name not in feature_of:
                feature_of[name] = vocab.feature_dim(name, create=grow)
        label_maps: List[Dict[int, float]] = [{} for _ in vocab.target_dims]
        for dim_name, value in rec.labels:
            d = target_of[dim_name]
            if d is None:
                continue
            idx = vocab.target_dims[d].encode(value, grow=grow)
            if idx is None:
                continue
            label_maps[d][idx] = label_maps[d].get(idx, 0.0) + 1.0
        if grow and not any(label_maps):
            raise InvalidRecordError(f"record {n}: no encodable label")
        feature_maps: List[Dict[int, float]] = [{} for _ in vocab.feature_dims]
        for dim_name, token, mult in rec.features:
            d = feature_of[dim_name]
            if d is None:
                continue
            idx = vocab.feature_dims[d].encode(token, grow=grow)
            if idx is None:
                continue
            feature_maps[d][idx] = feature_maps[d].get(idx, 0.0) + float(mult)
        obs = EncodedObservation(
            label_weights=tuple(label_maps),
            feature_weights=tuple(feature_maps),
        )
        if normalize:
            total = 1.0
            populated = [m for m in list(obs.label_weights) + list(obs.feature_weights) if m]
            if populated and all(
                m for m in obs.feature_weights
            ) and (not rec.labels or all(m for m in obs.label_weights)):
                for m in populated:
                    total *= sum(m.values())
                if total > 0:
                    obs.scale = 1.0 / total
        out.append(obs)
    # Late-created dimensions leave earlier observations short; pad so every
    # observation spans the full vocabulary.
    for obs in out:
        if len(obs.label_weights) < vocab.n_target_dims:
            obs.label_weights = obs.label_weights + tuple(
                {} for _ in range(vocab.n_target_dims - len(obs.label_weights))
            )
        if len(obs.feature_weights) < vocab.n_feature_dims:
            obs.feature_weights = obs.feature_weights + tuple(
                {} for _ in range(vocab.n_feature_dims - len(obs.feature_weights))
            )
    return out
