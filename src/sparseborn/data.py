"""Data ingestion: vocabularies, tokenization, and record encoding.

Raw records pair named target dimensions (labels) with named feature dimensions (tokens with
multiplicities).  Encoding maps strings to dense per-dimension integer indices and represents each
observation in product form: one count map per dimension plus a global scale.  A batch is encoded once
into flat arrays, every record's label then feature maps, and each observation returned is a view of its
row with read-only maps; fitting, updating and prediction read the arrays, and a view's maps are built only
when read.  A batch's joint counts, the outer products of its maps, are one numpy expansion, each weight
multiplied left to right.
"""
from __future__ import annotations

import csv
import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate, chain
from types import MappingProxyType
from typing import Collection, Dict, Iterable, List, Mapping, Sequence, Tuple

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
    Built by hand, the maps are dicts; :func:`encode` returns views of rows of
    its one flat batch instead, whose maps are read-only and built on first read.
    """

    label_weights: Tuple[Dict[int, float], ...]
    feature_weights: Tuple[Dict[int, float], ...]
    scale: float = 1.0
    phases: Dict[Index, float] | None = None
    normalized: bool = False
    _batch = None  # a view's batch, see _View

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
        obs = EncodedObservation(labels, feats, self.scale, self.phases, self.normalized)
        if obs.normalized:  # as encode scales a record whose dimensions are these and had labels if these had
            seen = [(any(self.label_weights), len(labels), len(feats))]
            (scale,), (obs.normalized,) = _normal_scales(_gather([obs], len(feats), len(labels)), seen)
            obs.scale = float(scale)
        return obs

    def counts(self, target_dims: int, feature_dims: int) -> SparseCounts:
        """Materialize the joint counts X as a sparse tensor."""
        rows = joint_rows([self], target_dims, feature_dims)
        return SparseCounts(target_dims, feature_dims).add_rows(*rows)

    def _entries(self) -> Tuple[List[int], List[int], List[float]]:
        """Each feature map's size, then every index and every value, map after map."""
        maps = self.feature_weights
        return [*map(len, maps)], [i for m in maps for i in m], [w for m in maps for w in m.values()]


class _Batch:
    """Maps of many observations, flat: ``sizes`` a row per observation of its maps' sizes, its ``n_targets`` label
    maps then its feature maps; ``index`` and ``value`` every entry, map after map, each map's in order; and each
    observation's scale and whether it is ``normalized``."""

    def __init__(self, sizes: np.ndarray, index: np.ndarray, value: np.ndarray, scales, n_targets=0, normalized=()):
        self.sizes, self.index, self.value, self.scales = sizes, index, value, np.asarray(scales, np.float64)
        self.n_targets, self.normalized = n_targets, normalized

    @cached_property
    def firsts(self) -> np.ndarray:  # where each map starts in index
        return np.cumsum(self.sizes).reshape(self.sizes.shape) - self.sizes

    @cached_property
    def ends(self) -> np.ndarray:  # where each row's last map ends in index
        return np.cumsum(self.sizes.sum(1))

    @cached_property
    def totals(self) -> np.ndarray:
        """Each map's values summed left to right from 0.0, as ``sum(map.values())``; 1.0 where it is empty."""
        sums = np.bincount(np.repeat(np.arange(self.sizes.size), self.sizes.ravel()), self.value, self.sizes.size)
        return np.where(self.sizes > 0, sums.reshape(self.sizes.shape), 1.0)

    def entries(self, r: int, lo: int, hi: int | None = None) -> Tuple[List[int], List[int], List[float]]:
        """Row ``r``'s maps ``lo`` to ``hi`` as :meth:`EncodedObservation._entries` lists them."""
        sizes = self.sizes[r].tolist()
        start = int(self.ends[r]) - sum(sizes[lo:])
        end = start + sum(sizes[lo:hi])
        return sizes[lo:hi], self.index[start:end].tolist(), self.value[start:end].tolist()

    def take(self, rows: List[int], lo: int) -> "_Batch":
        """The maps from the ``lo``-th on of the rows ``rows``, as a batch of their own."""
        if lo == 0 and rows == [*range(len(self.sizes))]:
            return self
        sizes = self.sizes[rows, lo:]
        lengths = sizes.sum(1)  # the maps from lo on end each row
        at = _spans(self.ends[rows] - lengths, lengths)
        return _Batch(sizes, self.index[at], self.value[at], self.scales[rows])


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Every position of the runs of ``lengths`` from ``starts``, run after run."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)


class _View(EncodedObservation):
    """Row ``row`` of a batch that :func:`encode` returned: its label maps and its feature maps are each built
    from the batch's arrays when first read, as read-only dicts.  The maps, ``scale`` and ``normalized`` are
    read-only; other fields, such as ``phases``, may be set."""

    def __init__(self, batch: _Batch, row: int):
        self._batch, self._row, self._read = batch, row, {}

    def _maps(self, lo: int, hi: int | None) -> Tuple[Mapping[int, float], ...]:
        if hi not in self._read:  # the labels end at n_targets, the features at None
            sizes, index, value = self._batch.entries(self._row, lo, hi)
            bounds = [0, *accumulate(sizes)]
            spans = zip(bounds, bounds[1:])
            self._read[hi] = tuple(MappingProxyType(dict(zip(index[a:b], value[a:b]))) for a, b in spans)
        return self._read[hi]

    def __eq__(self, other):  # as a dict-backed observation with the same maps and scale compares
        fields = lambda obs: (obs.label_weights, obs.feature_weights, obs.scale, obs.phases, obs.normalized)
        return fields(self) == fields(other) if isinstance(other, EncodedObservation) else NotImplemented

    label_weights = property(lambda self: self._maps(0, self._batch.n_targets))
    feature_weights = property(lambda self: self._maps(self._batch.n_targets, None))
    scale = property(lambda self: float(self._batch.scales[self._row]))
    normalized = property(lambda self: self._batch.normalized[self._row])
    n_feature_dims = property(lambda self: self._batch.sizes.shape[1] - self._batch.n_targets)
    _entries = lambda self: self._batch.entries(self._row, self._batch.n_targets)


def _gather(observations: Sequence[EncodedObservation], feature_dims: int, target_dims: int | None = None) -> _Batch:
    """The observations' feature maps, labels first with ``target_dims``, as a batch of their own: views of one
    :func:`encode` batch gather their rows from it, other observations are flattened from their maps."""
    batch, labels = observations[0]._batch if len(observations) else None, target_dims is not None
    if batch is not None and all(obs._batch is batch for obs in observations):
        if batch.sizes.shape[1] - batch.n_targets != feature_dims or target_dims not in (None, batch.n_targets):
            raise SchemaError("observation shape does not match requested tensor shape")
        return batch.take([obs._row for obs in observations], 0 if labels else batch.n_targets)
    if any(obs.n_feature_dims != feature_dims or labels and len(obs.label_weights) != target_dims
           for obs in observations):
        raise SchemaError("observation shape does not match requested tensor shape")
    maps = [m for obs in observations for m in (*(obs.label_weights if labels else ()), *obs.feature_weights)]
    sizes = np.fromiter(map(len, maps), np.int64, len(maps))
    sizes = sizes.reshape(len(observations), (target_dims or 0) + feature_dims)
    index = np.fromiter(chain.from_iterable(maps), np.int64, int(sizes.sum()))
    value = np.fromiter(chain.from_iterable(m.values() for m in maps), np.float64, len(index))
    return _Batch(sizes, index, value, [obs.scale for obs in observations], target_dims or 0)


def joint_rows(
    observations: Sequence[EncodedObservation], target_dims: int, feature_dims: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Joint counts of many observations, in order: int64 key rows (target then feature coordinates)
    by one array expansion (:func:`_expand`), weighted ``(1.0·l0·l1·…) * (scale·w0·w1·…)`` left to right."""
    maps = _gather(observations, feature_dims, target_dims)
    keys, factors, cells = _expand(maps.sizes, maps.firsts, maps.index, maps.value)
    feature_weights = reduce(np.multiply, factors[target_dims:], np.repeat(maps.scales, cells))
    return keys, reduce(np.multiply, factors[:target_dims], 1.0) * feature_weights


def _expand(sizes: np.ndarray, firsts: np.ndarray, index: np.ndarray, value: np.ndarray):
    """Key rows of the outer products of the maps that ``sizes`` and ``firsts`` (where each starts) pick from
    ``index`` and ``value`` (see :class:`_Batch`; a row of maps per observation), cells in mixed radix order;
    each cell's weight in every map, a row per map; and each observation's number of cells."""
    cells = sizes.prod(axis=1)
    if sizes.shape[1] == 1 and cells.sum() == len(index):  # one map each, all of the arrays: their cells in order
        return index[:, None], value[None], cells
    if (sizes <= 1).all():  # at most one cell per observation: its maps' values are a row
        one = firsts if cells.all() else firsts[cells > 0]
        return index[one], value[one].T, cells
    local, at = np.arange(cells.sum()), np.empty(cells.sum(), np.int64)
    local -= np.repeat(np.cumsum(cells) - cells, cells)  # each cell's number in its observation
    keys, factors = np.empty((len(local), sizes.shape[1]), np.int64), np.empty((sizes.shape[1], len(local)))
    for d in range(sizes.shape[1] - 1, -1, -1):  # digits last to first, in place: the peak stays near the outputs
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

    One pass over the records lists every kept item's index and weight; a few array
    calls then make them the batch's flat maps, and each observation returned is a
    read-only view of its row.
    """
    start, n, inf, listed = grow and vocab.shape(), 0, math.inf, ([], [], [], [])  # without grow nothing is added
    indices, weights, codes, counts = listed  # each kept item's, labels then features; their number per side
    sides = [(dims, dim_of, code, {}) for dims, dim_of, code in (
        (vocab.target_dims, vocab.target_dim, 0), (vocab.feature_dims, vocab.feature_dim, _FEATURE))]
    seen = []  # with normalize, per record: whether it has labels, and the dimension counts once it is read
    try:
        for n, rec in enumerate(records, 1):
            try:  # one handler for the whole record: no field is type-checked on its own
                if grow and not rec.labels:
                    raise InvalidRecordError("training record has no label")
                labels = [(name, value, 1.0) for name, value in rec.labels]
                for items, (dims, dim_of, code, names) in zip((labels, rec.features), sides):
                    name_at, before = names, len(indices)  # no name is names
                    for name, value, weight in items:
                        if not 0 < weight < inf:  # positive and finite; NaN compares false
                            raise InvalidRecordError("feature multiplicity must be positive and finite")
                        if name is not name_at:  # a name is resolved once a batch, looked up once while it repeats
                            name_at, entry = name, names.get(name)
                            if entry is None:
                                d = dim_of(name, create=grow)
                                entry = (None,) * 3 if d is None else (d + code, dims[d], dims[d]._index.get)
                                names[name] = entry
                            d, dim, get = entry
                        if d is None:
                            continue
                        i = get(value)
                        if i is None:
                            if not grow:
                                continue
                            i = dim.encode(value, grow=True)
                        indices.append(i)
                        weights.append(weight)
                        codes.append(d)
                    counts.append(len(indices) - before)
            except (TypeError, ValueError) as exc:
                raise InvalidRecordError(f"record {n - 1}: {exc}") from exc
            if normalize:
                seen.append((bool(rec.labels), vocab.n_target_dims, vocab.n_feature_dims))
        # dimensions created part-way through leave earlier records with empty maps in them
        batch = _columns(*listed, n, vocab.n_target_dims, vocab.n_feature_dims)
    except BaseException:  # all or nothing: a failed call leaves the vocabulary as it found it
        if grow:
            vocab.truncate(start)
        raise
    batch.scales, batch.normalized = _normal_scales(batch, seen) if normalize else (batch.scales, [False] * n)
    return [_View(batch, r) for r in range(n)]


_FEATURE = 1 << 32  # added to a feature dimension's number in what encode lists: a target's has none


def _columns(indices: list, weights: list, codes: list, counts: list, n: int, n_targets: int, n_features: int):
    """The batch of the ``n`` records :func:`encode` listed: each map's indices in first-seen order, a repeated
    index's weights summed left to right from 0.0 at its first.  A weight converts as ``float`` converts it."""
    index, value = np.fromiter(indices, np.int64, len(indices)), np.fromiter(weights, np.float64, len(weights))
    # each entry's map: its record's first, then its dimension, a feature's after the targets'
    width = n_targets + n_features
    group = (np.arange(n)[:, None] * width + np.array((0, n_targets - _FEATURE))).repeat(counts)
    group += np.fromiter(codes, np.int64, len(codes))
    low = (group[1:] - group[:-1]).min() if len(group) > 1 else 1
    if low < 0:  # a record's dimensions out of order: its entries map by map, each map's in order
        order = np.argsort(group, kind="stable")
        group, index, value = group[order], index[order], value[order]
    if low <= 0:  # a map of several entries may repeat an index
        key = group * (int(index.max()) + 1) + index
        ranked = np.sort(key)
        if (ranked[1:] == ranked[:-1]).any():  # each (map, index) once, at its first entry, summed in entry order
            _, first, cell = np.unique(key, return_index=True, return_inverse=True)
            order = np.argsort(first)  # the cells in first-seen order
            first, value = first[order], np.bincount(np.argsort(order)[cell], value)
            index, group = index[first], group[first]
    return _Batch(np.bincount(group, minlength=n * width).reshape(n, width), index, value, np.ones(n), n_targets)


def _normal_scales(batch: _Batch, seen: list) -> Tuple[np.ndarray, List[bool]]:
    """Each record's scale and whether it is normalized, from whether it had labels and the dimensions there were
    once it was read (``seen``): a record is normalized where it had no labels or each label map of those
    dimensions is populated, and scaled by 1 over the product of its populated maps' totals, labels first, where
    each feature map of those dimensions is populated and the product is positive; by 1 elsewhere."""
    labelled, targets, features = np.array(seen, np.int64).reshape(-1, 3).T
    dims, t = np.arange(batch.sizes.shape[1]), batch.n_targets
    full = (batch.sizes > 0) | (dims >= np.where(dims < t, targets[:, None], t + features[:, None]))
    normalized = (labelled == 0) | full[:, :t].all(1)
    with np.errstate(over="ignore"):  # math.prod overflows to inf without a word
        total = reduce(np.multiply, batch.totals.T, np.ones(len(labelled)))
    scaled = normalized & (batch.sizes > 0).any(1) & full[:, t:].all(1) & (total > 0)
    return np.where(scaled, 1.0 / np.where(scaled, total, 1.0), 1.0), normalized.tolist()

