"""Sparse multi-index count tensors.

The corpus and per-observation joint counts are maps from a pair of
multi-indices (one tuple of target coordinates, one tuple of feature
coordinates) to a positive weight.  Zeros are never stored, so every
operation runs in time proportional to the number of nonzeros.

The n nonzeros are coalesced arrays: an int64 key matrix of shape
(n, target_dims + feature_dims), whose column blocks are ``targets`` and
``features``, and float64 ``weights`` of shape (n,).  Rows are in first-
insertion order and each weight is the left-to-right sum, in arrival order,
of everything added to its cell: bitwise what a dict keyed by
``(target, feature)`` holds, in its iteration order.  The arrays are
read-only and replaced on every change, which :meth:`SparseCounts.add_rows`
alone makes; reads never change them.
"""
from __future__ import annotations

import math
from types import MappingProxyType
from typing import Iterable, Mapping, Tuple

import numpy as np

from .errors import ShapeError

Index = Tuple[int, ...]
Key = Tuple[Index, Index]


def sort_groups(keys: np.ndarray):
    """Stable lexicographic row order, and a mask marking where each run of equal rows starts."""
    n, width = keys.shape
    if width == 1:
        order = np.argsort(keys[:, 0], kind="stable")
    else:
        order = np.lexsort(keys.T[::-1]) if width else np.arange(n)
    return order, run_starts(keys[order])


def run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the rows of a sorted matrix that differ from the row before them."""
    starts = np.ones(len(ordered), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return starts


def rank_rows(keys: np.ndarray):
    """The first occurrence of each distinct row, in lexicographic order of
    the rows, and every row's rank among the distinct rows."""
    order, starts = sort_groups(keys)
    ranks = np.empty(len(keys), dtype=np.intp)
    ranks[order] = np.cumsum(starts) - 1
    return order[starts], ranks


def _coalesce(keys: np.ndarray, weights: np.ndarray):
    """Sum the weights of equal key rows; cells come out in first-insertion order.

    ``np.bincount`` adds in row order, so every total is the left-to-right sum
    a dict accumulator would produce, bitwise.
    """
    first, group = rank_rows(keys)  # the stable sort finds each group's earliest row
    if len(first) == len(keys):
        return keys, weights
    totals = np.bincount(group, weights, len(first))
    by_arrival = np.argsort(first)
    return keys[first[by_arrival]], totals[by_arrival]


def row_tuples(rows: np.ndarray) -> list:
    """The rows of an integer matrix as tuples of Python ints."""
    return list(zip(*rows.T.tolist())) if rows.shape[1] else [()] * len(rows)


def _index_matrix(rows, width: int) -> np.ndarray:
    """Integer index rows as an int64 matrix of shape (n, width), not copied if already one."""
    try:
        arr = np.asarray(rows) if len(rows) else np.empty((0, width), dtype=np.int64)
    except ValueError as exc:
        raise ShapeError(f"index rows of unequal length: {exc}") from exc
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ShapeError(f"index rows of shape {arr.shape} do not have width {width}")
    if arr.size and arr.dtype.kind not in "iu":
        raise TypeError("indices must be integers")
    return arr.astype(np.int64, copy=False)


class SparseCounts:
    """Nonnegative co-occurrence weights keyed by (target, feature) multi-indices.

    ``target_dims`` and ``feature_dims`` fix the lengths of the two index
    tuples.  ``feature_dims == 0`` is the fully contracted target marginal;
    ``target_dims == 0`` is allowed for feature-only observations used at
    prediction time.
    """

    __slots__ = ("target_dims", "feature_dims", "_keys", "_weights")

    def __init__(
        self,
        target_dims: int,
        feature_dims: int,
        entries: Mapping[Key, float] | Iterable[tuple[Key, float]] | None = None,
    ):
        if target_dims < 0 or feature_dims < 0:
            raise ShapeError("dimension counts must be nonnegative")
        self.target_dims = int(target_dims)
        self.feature_dims = int(feature_dims)
        self._set(np.empty((0, self.target_dims + self.feature_dims), dtype=np.int64), np.empty(0))
        if entries is not None:
            items = list(entries.items() if isinstance(entries, Mapping) else entries)
            for (tgt, feat), _ in items:
                self._check_key(tgt, feat)
            self.add_rows([tuple(t) + tuple(f) for (t, f), _ in items], [w for _, w in items])

    @classmethod
    def from_cells(cls, target_dims: int, feature_dims: int, cells) -> "SparseCounts":
        """Counts from ``[target, feature, weight]`` cells with list coordinates.

        Cells in strictly increasing key order with positive finite weights,
        as :meth:`Model.save` writes them, are taken as they are: on small
        archives the sort and the checks in :meth:`add_rows` would add about
        a third to the time of a load.  Any other cells go through
        :meth:`add_rows`.
        """
        width = target_dims + feature_dims
        # one flat list of coordinates, so no per-cell container outlives its step
        flat = [
            i for t, f, _ in cells if len(t) == target_dims and len(f) == feature_dims for i in t + f
        ]
        if len(flat) != len(cells) * width:
            raise ShapeError("cell coordinates do not match the tensor shape")
        keys = _index_matrix(np.array(flat).reshape(len(cells), width), width)
        weights = [w for _, _, w in cells]
        if all(0 < w < math.inf for w in weights) and all(
            a[0] < b[0] or a[0] == b[0] and a[1] < b[1] for a, b in zip(cells, cells[1:])
        ):
            return cls._of(target_dims, feature_dims, keys, np.array(weights, dtype=np.float64))
        return cls(target_dims, feature_dims).add_rows(keys, weights)

    @classmethod
    def _of(cls, target_dims: int, feature_dims: int, keys, weights) -> "SparseCounts":
        out = cls.__new__(cls)  # wraps arrays that are already coalesced
        out.target_dims, out.feature_dims = int(target_dims), int(feature_dims)
        out._set(keys, weights)
        return out

    def _set(self, keys: np.ndarray, weights: np.ndarray) -> None:
        keys.setflags(write=False)
        weights.setflags(write=False)
        self._keys, self._weights = keys, weights

    @property
    def keys(self) -> np.ndarray:
        """The (n, target_dims + feature_dims) key matrix: target, then feature coordinates."""
        return self._keys

    @property
    def targets(self) -> np.ndarray:
        return self._keys[:, : self.target_dims]

    @property
    def features(self) -> np.ndarray:
        return self._keys[:, self.target_dims :]

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def entries(self) -> Mapping[Key, float]:
        """Read-only ``{(target, feature): weight}`` view, built on each access."""
        cells = zip(row_tuples(self.targets), row_tuples(self.features))
        return MappingProxyType(dict(zip(cells, self.weights.tolist())))

    def _check_key(self, tgt: Index, feat: Index) -> None:
        if len(tgt) != self.target_dims or len(feat) != self.feature_dims:
            raise ShapeError(
                f"index shape ({len(tgt)},{len(feat)}) does not match tensor "
                f"shape ({self.target_dims},{self.feature_dims})"
            )

    def add_rows(self, keys, weights) -> "SparseCounts":
        """Accumulate each row's weight at its cell, in row order; all-or-nothing.

        A key row is the target then the feature coordinates.  The rows are
        checked in full before the arrays are replaced by new ones.
        """
        keys = _index_matrix(keys, self.target_dims + self.feature_dims)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(keys),):
            raise ShapeError(f"{len(keys)} index rows but weights of shape {weights.shape}")
        if len(weights):
            low = weights.min()
            if not (low >= 0 and weights.max() < math.inf):
                raise ValueError("weights must be finite and nonnegative")
            if low == 0:
                keys, weights = keys[weights != 0], weights[weights != 0]
            keys = np.concatenate([self._keys, keys])
            weights = np.concatenate([self._weights, weights])
            self._set(*_coalesce(keys, weights))
        return self

    def same_shape(self, other: "SparseCounts") -> bool:
        return (
            self.target_dims == other.target_dims
            and self.feature_dims == other.feature_dims
        )

    def __len__(self) -> int:
        return len(self.weights)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseCounts)
            and self.same_shape(other)
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return (
            f"SparseCounts(target_dims={self.target_dims}, "
            f"feature_dims={self.feature_dims}, nnz={len(self)})"
        )

    def copy(self) -> "SparseCounts":
        return SparseCounts._of(self.target_dims, self.feature_dims, self._keys, self._weights)

    def iadd(self, other: "SparseCounts") -> "SparseCounts":
        """In-place entrywise sum.  No code in the package calls it, but perfbench's
        tracer wraps it by name, as it does :meth:`keep_feature_dims`."""
        if not self.same_shape(other):
            raise ShapeError(
                f"cannot accumulate ({other.target_dims},{other.feature_dims}) "
                f"into ({self.target_dims},{self.feature_dims})"
            )
        return self.add_rows(other._keys, other._weights)

    def keep_feature_dims(self, keep: Iterable[int]) -> "SparseCounts":
        """Contract every feature dimension not listed in ``keep``."""
        kept = sorted(set(keep))
        for d in kept:
            if not 0 <= d < self.feature_dims:
                raise ShapeError(f"feature dimension {d} out of range")
        columns = list(range(self.target_dims)) + [self.target_dims + d for d in kept]
        cells = _coalesce(self._keys[:, columns], self._weights)
        return SparseCounts._of(self.target_dims, len(kept), *cells)
