"""Training, weighting, prediction, and persistence.

The trained model owns the corpus counts plus hyperparameters.  Per
contraction level it lazily derives a column-grouped table holding the
entropy weights and the balanced corpus weights, against which queries are
evaluated with the accumulation kernels.  The prediction rule is

    X_i = | sum_j exp(i(theta_j - phi_ij)) * Ht_j^h * Ct_ij^p * X_j^p |^(1/p)

normalized over targets, with the policy's contraction chain applied
whenever every X_i is zero.  :meth:`Model.walk` is the one loop over levels: it takes a batch down the
policy, or the keep-sets given, each level summing the undecided queries with one kernel call; a single
query is a batch of one, and :meth:`Model.predict_at_dims` a walk of one step.  A batch is prepared once,
its feature maps as flat arrays; each layout column has an integer code, so a level finds every query cell's
column with one ``np.searchsorted``, and feature tuples are decoded only for the columns an explanation
returns.  A level's two readers serve the rest: ``probabilities`` every distribution and top target,
``attribution`` every local explanation.
The counts do not depend on h, b or p: models that differ only in them share one corpus, held in
an immutable published state that :meth:`Model.update` replaces and never changes, and what is derived
from it alone: the target order, which the key order groups, and each level's layout.  An immutable level
table is that layout plus what h, b, p and the phases decide; its rows are ranks in the target order, each
distribution is a row over it, and a public call that returns one as a dict builds a new dict.
"""
from __future__ import annotations

import gc
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, reduce, wraps
from itertools import accumulate, chain, repeat
from operator import mul
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from . import _kernels
from .counts import Index, SparseCounts, _index_matrix, rank_rows, row_tuples, run_starts
from .data import EncodedObservation, Vocabulary, _expand, _gather, _spans, joint_rows
from .errors import ArchiveError, InvalidRecordError, SchemaError, ShapeError
from .policy import Policy

ARCHIVE_FORMAT = "sparseborn-model"
ARCHIVE_VERSION = 1

# All X_i below this total are treated as the degenerate all-zero estimate.
DEGENERATE_EPS = 1e-300

# Addends one kernel call gathers at most, unless one query alone has more.
BATCH_ADDENDS = 1 << 14


def _collector_paused(func):
    """``func`` with the cyclic collector paused, then as it was: collections would rescan an archive's lists."""
    @wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            (gc.enable if enabled else gc.disable)()
    return paused


def _sub_batches(queries: "_Prepared", pending: List[int], table: "_LevelTable"):
    """The pending queries in runs of at most ``BATCH_ADDENDS // n_targets`` cells (a column has one entry
    per target at most), a cell per feature at ``table``'s level and one per query (its row of the
    accumulators); a wider query goes alone.  Yields each run's positions and the run, prepared."""
    index, value, *rows = queries.flat
    if len(pending) < len(queries):
        at = np.array(pending)
        rows = [None if a is None else a[at] for a in rows]
    bounds, total, max_cells = [0], 0, BATCH_ADDENDS // len(table.target_ids)
    if len(pending) > 1:  # one query is one run
        cells = [1] * len(pending) if rows[0] is None else rows[0][:, table.kept].prod(1).tolist()
        for i, n in enumerate(cells):
            if i > bounds[-1] and total + n + 1 > max_cells:
                bounds.append(i)
                total = 0
            total += n + 1
    for lo, hi in zip(bounds, bounds[1:] + [len(pending)]):
        if hi - lo == len(queries):  # all of them
            yield pending, queries
            return
        batch = _Prepared(map(queries.__getitem__, pending[lo:hi]))
        batch.flat = index, value, *(None if a is None else a[lo:hi] for a in rows)
        yield pending[lo:hi], batch


@dataclass(frozen=True)
class Hyperparams:
    """Entropy exponent h >= 0, balance exponent b >= 0, amplitude power p > 0.

    The defaults are the standard quantum configuration; h=0, b=0, p=1 is
    the classical rule and h=0, b=1, p=1/2 the pure Born rule.
    """

    h: float = 1.0
    b: float = 1.0
    p: float = 0.5

    def __post_init__(self):
        if bool in {type(self.h), type(self.b), type(self.p)}:
            raise TypeError("h, b and p must be numbers, not booleans")
        if not (self.h >= 0 and math.isfinite(self.h)):
            raise ValueError("h must be finite and >= 0")
        if not (self.b >= 0 and math.isfinite(self.b)):
            raise ValueError("b must be finite and >= 0")
        if not (self.p > 0 and math.isfinite(self.p)):
            raise ValueError("p must be finite and > 0")


class PhaseTable:
    """Sparse phase angles per (target, feature) multi-index pair; absent = 0."""

    def __init__(self, phi: Mapping[Tuple[Index, Index], float] | None = None):
        entries: Dict[Tuple[Index, Index], float] = {}
        if phi:
            for key, angle in phi.items():
                if bool in set(map(type, (angle, *key[0], *key[1]))):
                    raise TypeError("phase angles and coordinates must be numbers, not booleans")
                angle = float(angle)
                if not math.isfinite(angle):
                    raise ValueError("phase angles must be finite")
                if angle != 0.0:
                    entries[(tuple(key[0]), tuple(key[1]))] = angle
        self.entries: Mapping[Tuple[Index, Index], float] = MappingProxyType(entries)

    def get(self, tgt: Index, feat: Index) -> float:
        return self.entries.get((tgt, feat), 0.0)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, PhaseTable) and self.entries == other.entries


def _target_order(counts: SparseCounts) -> Tuple[List[Index], np.ndarray, List[int]]:
    """The targets in lexicographic order (every level table's ``target_ids``, as contraction keeps every
    target), each entry's rank among them, and each target's bounds.  Rows are in key order, target
    coordinates first, so every target's entries are one run: the order is read off the keys, not sorted."""
    starts = run_starts(counts.targets)
    bounds = np.flatnonzero(starts)
    ranks = np.cumsum(starts, dtype=np.int32) - 1  # a level table's rows
    return row_tuples(counts.targets[bounds]), ranks, bounds.tolist() + [len(starts)]


# What a level derives from the counts alone, per keep-set and target-space size: the keep-set, its dimensions
# ascending (``kept``), and a query's factors in weighting order, its scale, dropped then kept maps (``weigh``,
# see _flat); the target order's ``target_ids``; each column's kept feature values (``feat_rows``, ascending),
# and its code in mixed radix (each kept dimension's largest value plus 1, the first most significant; None past
# int64) by ``strides``; per cell its target rank (``rows``), column and contracted weight; ``col_ptr`` delimits
# each column's cells, then an empty column that separates batched queries; the row and column sums, and each
# column's 1 - H/H_max.
_Layout = namedtuple("_Layout", "keep kept weigh target_ids feat_rows strides codes rows cols col_ptr weights "
                                "row_sums col_sums entropy")


def _balanced(layout: _Layout, b: float) -> np.ndarray:
    """Each cell's C / (colsum^(1-b) * rowsum^b)."""
    return layout.weights / (layout.col_sums[layout.cols] ** (1.0 - b) * layout.row_sums[layout.rows] ** b)


def _derive_weights(counts: SparseCounts, keep: FrozenSet[int], n_targets: int) -> _Layout:
    """The counts contracted to the ``keep`` feature dimensions and grouped by column.  One stable sort by
    (kept features, target rank) orders the cells, each cell's entries in the store's key order, so its weight is
    their left-to-right sum, bitwise what :meth:`SparseCounts.keep_feature_dims` stores.  ``entropy`` is each
    column's 1 - H/H_max on the artificially balanced corpus: the balanced joint divides each cell by its
    target's total, the conditional renormalizes per column, and H_max = ln(n_targets) (at most one target
    makes every feature perfect signal)."""
    if not len(counts):
        raise InvalidRecordError("cannot derive weights from an empty corpus")
    target_ids, ranks, _ = counts._derived(_target_order)
    kept = sorted(keep)
    weigh = np.array([0, *(d + 1 for d in range(counts.feature_dims) if d not in keep), *(d + 1 for d in kept)])
    feats = counts.features[:, kept]
    order = np.lexsort((ranks, *feats.T[::-1]))
    feats, rows, weights = feats[order], ranks[order], counts.weights[order]
    new_col = run_starts(feats)
    new_cell = new_col | run_starts(rows[:, None])
    # np.bincount adds in entry order: every sum is the left-to-right one, bitwise
    if not new_cell.all():
        weights = np.bincount(np.cumsum(new_cell) - 1, weights)
        feats, rows, new_col = feats[new_cell], rows[new_cell], new_col[new_cell]
    col_ptr = np.append(np.flatnonzero(new_col), (len(feats), len(feats)))
    feat_rows, cols = feats[new_col], np.cumsum(new_col) - 1
    *strides, size = accumulate((feat_rows.max(0) + 1).tolist()[::-1], mul, initial=1)
    strides = np.array(strides[::-1], dtype=np.int64)
    row_sums = np.bincount(rows, weights)
    col_sums = np.bincount(cols, weights, len(feat_rows))
    if n_targets <= 1:
        entropy = np.ones(len(feat_rows))
    else:
        balanced = weights / row_sums[rows]
        conditional = balanced / np.bincount(cols, balanced, len(feat_rows))[cols]
        h_sum = np.bincount(cols, conditional * np.log(conditional), len(feat_rows))
        entropy = 1.0 + h_sum / math.log(n_targets)
        np.clip(entropy, 0.0, 1.0, out=entropy)
    codes = feat_rows @ strides if size < 1 << 63 else None
    return _Layout(keep, np.array(kept, dtype=np.intp), weigh, target_ids, feat_rows, strides, codes, rows, cols,
                   col_ptr, weights, row_sums, col_sums, entropy)


def entropy_weights(corpus: SparseCounts, n_targets: int | None = None) -> Dict[Index, float]:
    """Entropy weight per feature multi-index, in [0, 1].

    ``n_targets`` is the size of the target index space (H_max = ln of it): an integer
    at least the number of distinct observed target multi-indices, the default.
    """
    observed = len(corpus._derived(_target_order)[0])
    n_targets = observed if n_targets is None else n_targets
    if not (isinstance(n_targets, (int, np.integer)) and n_targets >= observed):
        raise ValueError(f"n_targets must be an integer >= the {observed} observed targets")
    layout = corpus._derived(_derive_weights, frozenset(range(corpus.feature_dims)), n_targets)
    return dict(zip(row_tuples(layout.feat_rows), layout.entropy.tolist()))


def weight_tensor(corpus: SparseCounts, b: float) -> Dict[Tuple[Index, Index], float]:
    """Balanced corpus weights on the nonzero support.

    b=0 gives the column-conditional (targets given feature), b=1 the
    row-conditional (features given target).
    """
    if not (b >= 0 and math.isfinite(b)):
        raise ValueError("b must be finite and >= 0")
    if not len(corpus):
        return {}
    target_ids = corpus._derived(_target_order)[0]
    layout = corpus._derived(_derive_weights, frozenset(range(corpus.feature_dims)), len(target_ids))
    feat_ids = row_tuples(layout.feat_rows)
    return {
        (target_ids[r], feat_ids[c]): w
        for r, c, w in zip(layout.rows.tolist(), layout.cols.tolist(), _balanced(layout, b).tolist())
    }


class _LevelTable(namedtuple("_LevelTable", _Layout._fields + ("amp", "phi"))):
    """One contraction level of a model, immutable: the counts' :data:`_Layout` plus each cell's amplitude
    and phase (None where every phase is zero), which h, b, p and the phases decide."""

    __slots__ = ()

    def target_weights(self, target: Index) -> Tuple[np.ndarray, np.ndarray]:
        """Each column's amplitude and phase for ``target``; 0 and 0 where it has no entry."""
        amp, phi = np.zeros(len(self.feat_rows)), np.zeros(len(self.feat_rows))
        if target in self.target_ids:
            entries = np.flatnonzero(self.rows == self.target_ids.index(target))
            cols = self.cols[entries]
            amp[cols] = self.amp[entries]
            if self.phi is not None:
                phi[cols] = self.phi[entries]
        return amp, phi


class _State:
    """A published copy of a model's counts, and what is derived from them on first read.  ``shape`` is the
    vocabulary's when published; no attribute is ever reassigned.  ``target_order``, read off the key order,
    and the level layouts are the counts' own, shared by every model over them, and ``tables`` this model's,
    each a layout plus its amplitudes and phases.  ``marginal`` is the targets and the row of their runs'
    summed weights; ``prior`` normalizes it."""

    def __init__(self, corpus: SparseCounts, shape: Tuple[Tuple[int, ...], Tuple[int, ...]]):
        self.corpus, self.shape = corpus.copy(), shape
        self.tables: Dict[FrozenSet[int], _LevelTable] = {}

    @property
    def target_order(self) -> Tuple[List[Index], np.ndarray, List[int]]:
        return self.corpus._derived(_target_order)

    @cached_property
    def marginal(self) -> Tuple[List[Index], List[float]]:
        targets, _, bounds = self.target_order
        weights = self.corpus.weights.tolist()
        return targets, [math.fsum(weights[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    @cached_property
    def prior(self) -> List[float]:
        total = math.fsum(self.marginal[1])
        return [w / total for w in self.marginal[1]]


class _Prepared(list):
    """Queries as :meth:`Model._prepare` prepared them for the published ``state``, and their feature maps once,
    flat: index and value as :class:`data._Batch` lays them out, a row per query of its maps' sizes and starts, and
    of its scale and each map's total (1 where empty).  Where every map holds one value, only the totals and a
    row of indices (``singles``), lists for one query: a numpy call would cost more than its work."""

    __slots__ = ("state", "flat")


def _flat(queries: Sequence[EncodedObservation], width: int) -> tuple:
    """The flat form of :class:`_Prepared`; each total is ``sum(map.values())``, as ``features_at`` takes it.
    Views of one ``encode`` batch gather their rows from its arrays (see :func:`data._gather`)."""
    if len(queries) == 1:  # in Python: a one-query batch's arrays are short
        sizes, index, value = queries[0]._entries()
        if {*sizes} == {1}:  # a value per map: its total
            return None, None, None, None, [[queries[0].scale, *value]], index
        bounds = [0, *accumulate(sizes)]
        factors = [queries[0].scale, *(sum(value[lo:hi]) if hi > lo else 1.0 for lo, hi in zip(bounds, bounds[1:]))]
        return (np.array(index, np.int64), np.array(value), np.array([sizes], np.int64),
                np.array([bounds[:-1]], np.int64), np.array([factors]), None)
    maps = _gather(queries, width)
    factors = np.concatenate((maps.scales[:, None], maps.totals), 1)
    if maps.sizes.size and (maps.sizes == 1).all():  # a value per map: its total
        return None, None, None, None, factors, maps.index.reshape(maps.sizes.shape)
    return maps.index, maps.value, maps.sizes, maps.firsts, factors, None


@dataclass(eq=False)
class _Level:
    """A batch of queries evaluated against one level table, one row per query.

    ``qcols`` (and ``qtheta``) hold the batch's known columns in the kernels'
    flat layout (see :mod:`._kernels`); row q of ``magnitudes`` holds X_i
    for each of the table's targets (X_i / max X where they would overflow) and ``totals[q]`` their sum.
    ``lengths``, ``entry``, ``modulus`` and ``angle`` are the addends the kernel summed.
    :meth:`probabilities` serves every distribution and top target, :meth:`attribution`
    every local explanation, one call for a batch; :meth:`contributions` serves ``predict``.
    """

    table: _LevelTable
    qcols: np.ndarray
    qtheta: np.ndarray | None
    magnitudes: np.ndarray
    totals: np.ndarray
    lengths: np.ndarray
    entry: np.ndarray
    modulus: np.ndarray
    angle: np.ndarray | None

    @property
    def kept(self) -> Tuple[int, ...]:
        return tuple(sorted(self.table.keep))

    def probabilities(self, rows) -> np.ndarray:
        """Each row's distribution over the table's targets; its argmax, the first
        maximum, is the most probable target with ties to the smaller multi-index."""
        return self.magnitudes[rows] / self.totals[rows][:, None]

    def attribution(self, rows, targets):
        """Each query of ``rows`` with the target row at its position in ``targets`` (-1: none):
        for every cell of the batch its position in ``rows`` (``len(rows)``: a separator or a query
        not in ``rows``), its column, ascending within a query, and the modulus and angle of its
        addend for the target (0 and the query's phase where none); then the cells that have one."""
        n, wanted = len(self.qcols), targets[0] if len(rows) else -1
        cell, rows_at = np.arange(n).repeat(self.lengths), np.zeros(n, dtype=np.intp)
        if len(self.totals) > 1:  # a cell's query is the number of separators before it
            at = np.full(len(self.totals) + 1, len(rows))
            at[rows] = np.arange(len(rows))
            is_sep = self.qcols == len(self.table.feat_rows)
            rows_at = at[np.where(is_sep, len(self.totals), is_sep.cumsum())]
            wanted = np.append(targets, -1)[rows_at[cell]]
        hit = (self.table.rows[self.entry] == wanted).nonzero()[0]  # a column has one entry per row
        cells, moduli = cell[hit], np.zeros(n)
        moduli[cells] = self.modulus[hit]
        angles = self.qtheta.copy() if self.qtheta is not None else np.zeros(n)
        if self.angle is not None:
            angles[cells] = self.angle[hit]
        return rows_at, self.qcols, moduli, angles, cells

    def contributions(self) -> Dict[Tuple[Index, Index], Tuple[float, float]]:
        """(target, feature) -> (modulus, angle) of every addend of a one-query level."""
        rows, feats = self.table.rows[self.entry], row_tuples(self.table.feat_rows[self.qcols.repeat(self.lengths)])
        angles = self.angle.tolist() if self.angle is not None else repeat(0.0)
        target_ids = self.table.target_ids
        return {(target_ids[r], f): (m, a) for r, f, m, a in zip(rows.tolist(), feats, self.modulus.tolist(), angles)}


@dataclass
class Prediction:
    """Normalized target distribution plus the per-feature evidence behind it.

    ``contributions`` maps (target, feature) multi-index pairs to the
    (modulus, angle) of that feature's addend in the prediction rule;
    ``fallback_depth`` counts applied policy steps (0 = none).
    """

    distribution: Dict[Index, float]
    magnitudes: Dict[Index, float]
    contributions: Dict[Tuple[Index, Index], Tuple[float, float]]
    fallback_depth: int
    kept_dims: Tuple[int, ...]

    def top(self, k: int = 1) -> List[Tuple[Index, float]]:
        """Top-k targets by probability; ties go to the smaller multi-index."""
        if k < 1:
            raise ValueError("k must be >= 1")
        ranked = sorted(self.distribution.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


def _find_columns(layout: _Layout, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each row of kept feature values ``keys`` sorts among ``layout``'s columns, by one ``np.searchsorted``
    over their codes, and the rows that are a column there; a value past its dimension's radix codes as another
    column, or as none."""
    if layout.codes is None:  # codes past int64: rank the columns' and the keys' rows together
        ranks = rank_rows(np.concatenate((layout.feat_rows, keys)))[1]
        codes, code = ranks[: len(layout.feat_rows)], ranks[len(layout.feat_rows) :]
    else:
        codes, code = layout.codes, keys @ layout.strides
    pos = codes.searchsorted(code)
    return pos, (layout.feat_rows.take(pos, 0, mode="clip") == keys).all(1).nonzero()[0]


def _check_indices(keys: np.ndarray, shape: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> None:
    """Reject count key rows with a coordinate outside a vocabulary of this shape."""
    sizes = np.array(shape[0] + shape[1], dtype=np.int64)
    if keys.shape[1] != len(sizes) or not ((keys >= 0) & (keys < sizes)).all():
        raise ShapeError("corpus index outside the vocabulary")


def _check_phases(phases: PhaseTable, shape: Tuple[Tuple[int, ...], Tuple[int, ...]]) -> None:
    """Reject phase cells as corpus cells are rejected: coordinates must be
    integers, as many as the dimensions, inside a vocabulary of this shape."""
    widths = tuple(map(len, shape))
    if any((len(t), len(f)) != widths for t, f in phases.entries):
        raise ShapeError("phase coordinates do not match the tensor shape")
    try:
        keys = _index_matrix([t + f for t, f in phases.entries], sum(widths))
    except TypeError as exc:
        raise ShapeError(f"phase {exc}") from exc
    _check_indices(keys, shape)


class Model:
    """A trained classifier: corpus, vocabulary, hyperparameters, phases, policy.

    Every prediction, single, batched or at chosen dimensions, and every local
    explanation reads the one batch walk, :meth:`walk`, which reads the published
    :class:`_State` once: a prediction that starts before an :meth:`update`
    finishes on the old state.  Concurrent prediction is safe; two updates at once are not.
    """

    def __init__(
        self,
        corpus: SparseCounts,
        vocab: Vocabulary,
        hyper: Hyperparams | None = None,
        phases: PhaseTable | None = None,
        policy: Policy | None = None,
    ):
        if corpus.target_dims != vocab.n_target_dims or corpus.feature_dims != vocab.n_feature_dims:
            raise ShapeError("corpus shape does not match vocabulary")
        state = self._state = _State(corpus, vocab.shape())
        if state.shape not in state.corpus._checked:  # once per set of counts and shape
            _check_indices(corpus.keys, state.shape)
            state.corpus._checked.add(state.shape)
        self._hyper = hyper or Hyperparams()
        self._phases = phases or PhaseTable()
        if self._phases:
            _check_phases(self._phases, self._state.shape)
        self.policy = policy or Policy.default(vocab.n_feature_dims)
        self.vocab = vocab
        vocab.published = self._state.shape

    # -- bookkeeping ---------------------------------------------------

    @property
    def hyper(self) -> Hyperparams:
        """Fixed per model: its level tables are built with it."""
        return self._hyper

    @property
    def phases(self) -> PhaseTable:
        """Fixed per model, like :attr:`hyper`."""
        return self._phases

    @property
    def policy(self) -> Policy:
        return self._policy

    @policy.setter
    def policy(self, policy: Policy) -> None:
        if policy.n_dims != self.n_feature_dims:
            raise ShapeError("policy dimension count does not match vocabulary")
        self._policy = policy

    @property
    def corpus(self) -> SparseCounts:
        """A copy of the published counts: changing it changes no model."""
        return self._state.corpus.copy()

    @property
    def n_feature_dims(self) -> int:
        return self._state.corpus.feature_dims

    def _prepare(self, queries: Sequence[EncodedObservation], state: _State) -> "_Prepared":
        """Each query as a reload of ``state`` reads it, and a batch prepared for ``state`` as it is.  A query
        of the wrong shape or with an index outside the vocabulary is rejected; values the vocabulary gained
        since ``state`` was published are dropped, and a normalized query rescaled, as encoding would."""
        if isinstance(queries, _Prepared) and queries.state is state:
            return queries
        shape = self.vocab.shape()
        sizes = shape[1]
        for obs in queries:
            if obs.n_feature_dims != len(sizes):
                raise ShapeError(f"query has {obs.n_feature_dims} feature dimensions, model has {len(sizes)}")
        flat = _flat(queries, len(sizes))
        index, counts = (flat[-1], None) if flat[0] is None else (flat[0], flat[2].ravel())
        if isinstance(index, list):  # one query of one-value maps, in Python
            at = next((at for at, (i, size) in enumerate(zip(index, sizes)) if not 0 <= i < size), None)
        else:  # one comparison: a negative index reads as unsigned, past every size
            limits = np.array(sizes * len(queries), np.uint64)
            bad = np.ravel(index).view(np.uint64) >= (limits if counts is None else limits.repeat(counts))
            at = int(bad.argmax()) if bad.any() else None
        if at is not None:  # the first in query order
            d = (at if counts is None else int(np.searchsorted(counts.cumsum(), at, side="right"))) % len(sizes)
            raise ShapeError(f"feature index {np.ravel(index)[at]} out of bounds for dimension "
                             f"{self.vocab.feature_dims[d].name!r} (size {sizes[d]})")
        prepared = _Prepared(queries if shape == state.shape else [obs.known(state.shape) for obs in queries])
        prepared.state, prepared.flat = state, flat if shape == state.shape else _flat(prepared, len(state.shape[1]))
        return prepared

    def target_prior(self) -> Dict[Index, float]:
        """Normalized target marginal: the terminal fallback distribution, a new dict."""
        return dict(zip(self._state.marginal[0], self._state.prior))

    # -- derived tables ------------------------------------------------

    def _table(self, keep: FrozenSet[int], state: _State | None = None) -> _LevelTable:
        state = state or self._state
        table = state.tables.get(keep)
        if table is None:  # racing builders all return the first table stored
            table = state.tables.setdefault(keep, self._build_table(keep, state))
        return table

    def _build_table(self, keep: FrozenSet[int], state: _State) -> _LevelTable:
        layout = state.corpus._derived(_derive_weights, keep, math.prod(state.shape[0]))
        amp = layout.entropy[layout.cols] ** self.hyper.h * _balanced(layout, self.hyper.b) ** self.hyper.p
        phi = None
        if self.phases and len(keep) == self.n_feature_dims:  # each phase's column, then its target's cell there
            ranks = {target: r for r, target in enumerate(layout.target_ids)}
            (targets, feats), angles = zip(*self.phases.entries), np.array([*self.phases.entries.values()])
            pos, found = _find_columns(layout, np.array(feats, np.int64).reshape(len(feats), len(keep)))
            lo, hi = layout.col_ptr[pos[found]], layout.col_ptr[pos[found] + 1]
            cells, entry = _spans(lo, hi - lo), found.repeat(hi - lo)
            hit = layout.rows[cells] == np.array([ranks.get(t, -1) for t in targets])[entry]
            phi = np.zeros(len(layout.rows))
            phi[cells[hit]] = angles[entry[hit]]
            if not phi.any():
                phi = None
        return _LevelTable(*layout, amp, phi)

    # -- prediction ----------------------------------------------------

    def _query_arrays(self, queries: _Prepared, table: _LevelTable):
        """``qcols``, ``qvals`` and ``qtheta`` of a batch at one level (see :mod:`._kernels`), unknown features
        dropped.  Each cell of the kept maps is weighted as :meth:`EncodedObservation.features_at` weights it:
        the scale, times the dropped maps' totals in dimension order, times its kept values left to right.
        One ``np.searchsorted`` finds its column; a cell whose row is no column's (a value past its dimension's
        radix codes as another column, or as none) is unknown.  ``qtheta`` is None when every phase is zero,
        the result None when no query knows a feature.
        """
        index, value, sizes, firsts, factors, singles = queries.flat
        if isinstance(singles, list):  # one query of one-value maps: its one cell in scalars
            row = [singles[d] for d in sorted(table.keep)]
            if table.codes is not None:
                at = int(table.codes.searchsorted(sum(map(mul, row, table.strides.tolist()))))
                if at == len(table.feat_rows) or table.feat_rows[at].tolist() != row:
                    return None
                theta = len(row) == self.n_feature_dims and (queries[0].phases or {}).get(tuple(row), 0.0)
                weight = reduce(mul, map(factors[0].__getitem__, table.weigh.tolist()))
                return np.array([at]), np.array([weight]), np.array([theta]) if theta else None
            factors, singles = np.array(factors), np.array([singles], np.int64)
        n, width, kept, sep = len(factors), factors.shape[1] - 1, table.kept, len(table.feat_rows)
        if singles is None:
            picked = (sizes, firsts) if len(kept) == width else (sizes[:, kept], firsts[:, kept])
            keys, kept_values, cells = _expand(*picked, index, value)
        else:  # a cell per query
            keys, cells = singles if len(kept) == width else singles[:, kept], None
        pos, cell = _find_columns(table, keys)
        if not len(cell):
            return None
        if cells is None:  # a one-value map's total is its value
            weights = np.multiply.reduce(factors if len(kept) == width else factors[:, table.weigh], 1)
        else:
            weights = np.multiply.reduce(factors[:, table.weigh[: width + 1 - len(kept)]], 1).repeat(cells)
            for kept_value in kept_values:
                weights *= kept_value
        query = np.arange(n) if cells is None else np.arange(n).repeat(cells)
        if cells is not None and cells.max() > 1:  # each query's columns ascending
            cell = cell[(pos[cell] if n == 1 else query[cell] * (sep + 1) + pos[cell]).argsort()]
        qtheta = None
        if len(kept) == self.n_feature_dims and any(obs.phases for obs in queries):
            lookups = [(obs.phases or {}).get for obs in queries]
            qtheta = np.array([lookups[q](f, 0.0) for q, f in zip(query.tolist(), row_tuples(keys))], dtype=np.float64)
        every = cells is None and len(cell) == n  # each query's one cell, in order
        out = [values if values is None or every else values[cell] for values in (pos, weights, qtheta)]
        if n > 1:  # each query's cells, then its separator
            slots = query[cell] + np.arange(len(cell))
            for i, fill in enumerate((sep, 0.0, 0.0)):
                if out[i] is not None:
                    out[i], out[i][slots] = np.full(len(cell) + n - 1, fill, out[i].dtype), out[i]
        qcols, qvals, qtheta = out
        return qcols, qvals, qtheta if qtheta is not None and qtheta.any() else None

    def _level(self, queries: _Prepared, table: _LevelTable):
        """The prediction rule for a batch of prepared queries at one contraction level:
        a :class:`_Level`, or None when no query knows a feature."""
        arrays = self._query_arrays(queries, table)
        if arrays is None:
            return None
        qcols, qvals, qtheta = arrays
        qpow = qvals ** self.hyper.p
        shape = len(queries), len(table.target_ids)
        if table.phi is None and qtheta is None:
            acc = np.zeros(shape)
            addends = _kernels.accum_real(table.col_ptr, table.rows, table.amp, qcols, qpow, acc)
            modulus = np.abs(acc)
        else:
            phi = table.phi if table.phi is not None else np.zeros_like(table.amp)
            theta = qtheta if qtheta is not None else np.zeros_like(qpow)
            acc_re, acc_im = np.zeros(shape), np.zeros(shape)
            addends = _kernels.accum_complex(
                table.col_ptr, table.rows, table.amp, phi, qcols, qpow, theta, acc_re, acc_im
            )
            modulus = np.hypot(acc_re, acc_im)
        # rows whose X_i or their sum overflow (p < 1 only) hold X_i / max X: one distribution
        if self.hyper.p < 1 and math.log(modulus.max() or 1.0) / self.hyper.p + math.log(shape[1]) > 709:
            with np.errstate(over="ignore"):  # exp(709) is within a factor 3 of the largest float
                big = ~np.isfinite(np.add.reduce(modulus ** (1.0 / self.hyper.p), 1))
            modulus[big] /= modulus[big].max(1, keepdims=True)
        magnitudes = modulus ** (1.0 / self.hyper.p)
        return _Level(table, qcols, qtheta, magnitudes, np.add.reduce(magnitudes, 1), *addends)

    def walk(
        self,
        queries: Sequence[EncodedObservation],
        state: _State | None = None,
        steps: Sequence[FrozenSet[int]] | None = None,
    ) -> Iterator[Tuple[int, _Level | None, List[int], List[int]]]:
        """Follow ``steps`` (the policy's keep-sets unless given) for a batch, each query to its first
        nondegenerate level.

        Yields (depth, level, rows, decided) for each sub-batch of a step that decides some queries: those
        at positions ``decided`` are predicted by rows ``rows`` of ``level``, whose addends are the evidence;
        the others go on, in sub-batches that bound the kernels' arrays, and a query that no step decides
        is never yielded.  An empty keep-set is terminal and has no level: the prior of ``state`` (the
        published one unless given) decides.  :meth:`predict_at_dims` is a walk of one step.
        """
        state = state or self._state
        queries = self._prepare(queries, state)
        pending = list(range(len(queries)))
        for depth, keep in enumerate(self.policy.steps if steps is None else steps):
            if not pending:
                return
            if not keep:
                yield depth, None, pending, pending
                return
            table = self._table(keep, state)
            degenerate: List[int] = []
            for batch, prepared in _sub_batches(queries, pending, table):
                level = self._level(prepared, table)
                totals = level.totals.tolist() if level is not None else [0.0] * len(batch)
                rows = [r for r, total in enumerate(totals) if not total < DEGENERATE_EPS]
                if rows:
                    yield depth, level, rows, [batch[r] for r in rows]
                degenerate += [i for i, total in zip(batch, totals) if total < DEGENERATE_EPS]
            pending = degenerate

    def predict(self, obs: EncodedObservation, with_contributions: bool = True) -> Prediction:
        """Evaluate the prediction rule with fallback for one query."""
        state = self._state
        [(depth, level, [q], _)] = self.walk([obs], state)
        if level is None:
            targets, marginal = state.marginal
            return Prediction(dict(zip(targets, state.prior)), dict(zip(targets, marginal)), {}, depth, ())
        target_ids = level.table.target_ids
        distribution = dict(zip(target_ids, level.probabilities([q])[0].tolist()))
        magnitudes = dict(zip(target_ids, level.magnitudes[q].tolist()))
        contributions = level.contributions() if with_contributions else {}
        return Prediction(distribution, magnitudes, contributions, depth, level.kept)

    def predict_labels(self, obs: EncodedObservation, k: int = 1) -> List[Tuple[str, ...]]:
        """Top-k decoded target tuples (multilabel when targets are multi-dimensional)."""
        return [self.vocab.decode_target(t) for t in self.predict_batch([obs], k)[0][0]]

    def predict_at_dims(self, queries, dims: Iterable[int], state: _State | None = None):
        """Each query's distribution using only the given feature dimensions, from ``state`` (the
        published one unless given): a new row over :meth:`target_prior`'s targets, None where degenerate;
        a single query gets a dict.  A :meth:`walk` of the one step ``dims``, which prepares the queries
        as :meth:`predict` does, a batch that :meth:`_prepare` returned for ``state`` only once."""
        state, dims = state or self._state, frozenset(dims)
        if dims - frozenset(range(self.n_feature_dims)):
            raise ShapeError(f"feature dimensions {sorted(dims)} outside 0..{self.n_feature_dims - 1}")
        if isinstance(queries, EncodedObservation):
            [row] = self.predict_at_dims([queries], dims, state)
            return None if row is None else dict(zip(state.target_order[0], row))
        dists: list = [None] * len(queries)
        for _, level, rows, decided in self.walk(queries, state, (dims,)):
            found = level.probabilities(rows).tolist() if level else [list(state.prior) for _ in rows]
            for i, dist in zip(decided, found):
                dists[i] = dist
        return dists

    def predict_batch(
        self, queries: Sequence[EncodedObservation], k: int = 1
    ) -> List[Tuple[List[Index], Dict[Index, float], int]]:
        """(top-k targets, distribution, fallback depth) for each query."""
        if k < 1:
            raise ValueError("k must be >= 1")
        results: list = [None] * len(queries)
        state = self._state
        target_ids = state.target_order[0]
        for depth, level, rows, decided in self.walk(queries, state):
            probs = level.probabilities(rows) if level else np.repeat([state.prior], len(rows), 0)
            # a stable sort keeps ties in row order, the prior's too: the smaller multi-index first
            tops = np.argsort(-probs, axis=1, kind="stable")[:, :k].tolist()
            for i, dist, top in zip(decided, probs.tolist(), tops):
                results[i] = ([target_ids[j] for j in top], dict(zip(target_ids, dist)), depth)
        return results

    # -- training ------------------------------------------------------

    def update(self, observations: Sequence[EncodedObservation]) -> "Model":
        """Publish the counts plus new observations, with the vocabulary's shape.

        The published counts are copied, not changed, so predictions already
        started finish on them.  All-or-nothing: a call that raises publishes
        nothing, and the vocabulary loses whatever was added to it (by
        ``encode(grow=True)``) since a model last published over it.
        """
        state = self._state
        try:
            keys, weights = joint_rows(observations, state.corpus.target_dims, state.corpus.feature_dims)
            _check_indices(keys, self.vocab.shape())
            published = _State(state.corpus.copy().add_rows(keys, weights), self.vocab.shape())
        except BaseException:
            self.vocab.truncate(self.vocab.published)
            raise
        self._state, self.vocab.published = published, published.shape
        return self

    # -- persistence ---------------------------------------------------

    @_collector_paused
    def save(self, sink) -> None:
        """Write the published state as a JSON archive; deterministic byte-for-byte."""
        state = self._state
        dims = lambda ds, sizes: [{"name": d.name, "values": d.values[:n]} for d, n in zip(ds, sizes)]
        payload = {
            "format": ARCHIVE_FORMAT,
            "version": ARCHIVE_VERSION,
            "hyper": {"h": self.hyper.h, "b": self.hyper.b, "p": self.hyper.p},
            "target_dims": dims(self.vocab.target_dims, state.shape[0]),
            "feature_dims": dims(self.vocab.feature_dims, state.shape[1]),
            "policy": self.policy.to_lists(),
            "corpus": list(zip(state.corpus.targets.tolist(), state.corpus.features.tolist(),
                               state.corpus.weights.tolist())),
        }
        if self.phases:
            payload["phases"] = [
                [list(t), list(f), angle]
                for (t, f), angle in sorted(self.phases.entries.items())
            ]
        # json.dumps takes the C encoder; json.dump always runs the Python one
        text = json.dumps(payload, separators=(",", ":")) + "\n"
        if isinstance(sink, (str, bytes)) or hasattr(sink, "__fspath__"):
            with open(sink, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sink.write(text)


def fit(
    observations: Sequence[EncodedObservation],
    vocab: Vocabulary,
    hyper: Hyperparams | None = None,
    phases: PhaseTable | None = None,
    policy: Policy | None = None,
) -> Model:
    """Accumulate observations into a corpus and wrap it as a model.

    The vocabulary is copied, so growing the caller's copy later does not
    alias the model.
    """
    if not observations:
        raise InvalidRecordError("empty training set")
    shape = vocab.n_target_dims, vocab.n_feature_dims
    try:
        rows = joint_rows(observations, *shape)
    except SchemaError:
        raise ShapeError("observation shape does not match vocabulary") from None
    corpus = SparseCounts(*shape).add_rows(*rows)
    return Model(corpus, vocab.copy(), hyper=hyper, phases=phases, policy=policy)


@_collector_paused
def load(source) -> Model:
    """Read a model archive written by :meth:`Model.save`."""
    try:
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            with open(source, "rb") as fh:  # json decodes the UTF-8 bytes itself
                text = fh.read()
        else:
            text = source.read()
        payload = json.loads(text)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ArchiveError(f"cannot read model archive: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != ARCHIVE_FORMAT:
        raise ArchiveError("not a sparseborn model archive")
    if payload.get("version") != ARCHIVE_VERSION:
        raise ArchiveError(
            f"unsupported archive version {payload.get('version')!r}"
        )
    try:
        vocab, archived = Vocabulary(), []
        for specs, dims, add_dim in (
            (payload["target_dims"], vocab.target_dims, vocab.target_dim),
            (payload["feature_dims"], vocab.feature_dims, vocab.feature_dim),
        ):
            for spec in specs:  # each dimension in one step
                dim, values = dims[add_dim(spec["name"], create=True)], spec["values"]
                dim.values, dim._index = list(values), dict(zip(values, range(len(values))))
                if {*map(type, dim.values)} - {str}:
                    raise InvalidRecordError(f"names and values must be strings, got "
                                             f"{next(v for v in dim.values if not isinstance(v, str))!r}")
                archived.append(values)
        # a repeated name leaves fewer dimensions than archived, a repeated value a shorter index
        dims = vocab.target_dims + vocab.feature_dims
        if [d.values for d in dims] != archived or any(len(d._index) < len(d.values) for d in dims):
            raise ValueError("dimension names and values must be distinct")
        hyper = Hyperparams(**payload["hyper"])
        # JSON true and false read as 1 and 0: where the text holds either word, no number may be one
        if any(w in text for w in (("true", "false") if isinstance(text, str) else (b"true", b"false"))):
            cells = chain.from_iterable(cell[0] + cell[1] + cell[2:] for cell in payload["corpus"])
            if bool in set(map(type, chain(cells, chain.from_iterable(payload["policy"])))):
                raise TypeError("corpus cells and policy dimensions must hold numbers, not booleans")
        corpus = SparseCounts.from_cells(vocab.n_target_dims, vocab.n_feature_dims, payload["corpus"])
        phases = PhaseTable({(tuple(t), tuple(f)): angle for t, f, angle in payload.get("phases", [])})
        policy = Policy.from_lists(payload["policy"])
        return Model(corpus, vocab, hyper=hyper, phases=phases, policy=policy)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArchiveError(f"malformed model archive: {exc}") from exc
