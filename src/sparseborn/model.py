"""Training, weighting, prediction, and persistence.

The trained model owns the corpus counts plus hyperparameters.  Per
contraction level it lazily derives a column-grouped table holding the
entropy weights and the balanced corpus weights, against which queries are
evaluated with the accumulation kernels.  The prediction rule is

    X_i = | sum_j exp(i(theta_j - phi_ij)) * Ht_j^h * Ct_ij^p * X_j^p |^(1/p)

normalized over targets, with the policy's contraction chain applied
whenever every X_i is zero.  :meth:`Model.walk` takes a batch of queries
down the policy, each level summing the undecided ones with one kernel call;
a single query is a batch of one.  A prediction, its contributions and its
local explanations all read the addends this walk gathered at one level.
The counts do not depend on h, b or p: models that differ only in them can share one corpus,
held in an immutable published state that :meth:`Model.update` replaces and never changes.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from . import _kernels
from .counts import Index, SparseCounts, _index_matrix, rank_rows, row_tuples, run_starts, sort_groups
from .data import EncodedObservation, Vocabulary, joint_rows
from .errors import ArchiveError, InvalidRecordError, ShapeError
from .policy import Policy

ARCHIVE_FORMAT = "sparseborn-model"
ARCHIVE_VERSION = 1

# All X_i below this total are treated as the degenerate all-zero estimate.
DEGENERATE_EPS = 1e-300

# Addends one kernel call gathers at most, unless one query alone has more.
BATCH_ADDENDS = 1 << 14


def _sub_batches(queries, pending: List[int], keep: FrozenSet[int], max_cells: int):
    """The pending queries and their features at a level, in runs of at most
    ``max_cells`` cells, a cell per feature and one per query (its row of the
    accumulators); a wider query goes alone."""
    batch, feats, cells = [], [], 0
    for i in pending:
        fmap = queries[i].features_at(keep)
        if batch and cells + len(fmap) + 1 > max_cells:
            yield batch, feats
            batch, feats, cells = [], [], 0
        batch.append(i)
        feats.append(fmap)
        cells += len(fmap) + 1
    yield batch, feats


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


class _Weights(NamedTuple):
    """The entries of one count tensor, grouped by column and weighed."""

    target_ids: List[Index]
    feat_ids: List[Index]
    rows: np.ndarray
    cols: np.ndarray
    col_ptr: np.ndarray
    entropy: np.ndarray
    ct: np.ndarray


def _derive_weights(counts: SparseCounts, b: float, n_targets: int | None = None) -> _Weights:
    """Sort the entries by (feature, target) and derive both weights from their marginals.

    Rows and columns are the ranks of the target and feature multi-indices
    in sorted order; ``col_ptr`` delimits each column's run of entries, and
    one more, empty column after the last that separates batched queries.
    ``entropy`` is each column's 1 - H/H_max on the artificially balanced
    corpus: the balanced joint divides each entry by its target's total,
    the conditional renormalizes per column, and H_max = ln(n_targets)
    (the number of observed targets when None; at most one target makes
    every feature perfect signal).  ``ct`` is each entry's
    C / (colsum^(1-b) * rowsum^b).
    """
    if not len(counts):
        raise InvalidRecordError("cannot derive weights from an empty corpus")
    first_target, rows = rank_rows(counts.targets)
    order = np.lexsort((rows, *counts.features.T[::-1]))
    feats = counts.features[order]
    new_col = run_starts(feats)
    col_ptr = np.append(np.flatnonzero(new_col), (len(feats), len(feats)))
    target_ids, feat_ids = row_tuples(counts.targets[first_target]), row_tuples(feats[new_col])
    rows, cols = rows[order].astype(np.int32), np.cumsum(new_col) - 1
    weights = counts.weights[order]
    # np.bincount adds in entry order: every sum is the left-to-right one, bitwise
    row_sums = np.bincount(rows, weights, len(target_ids))
    col_sums = np.bincount(cols, weights, len(feat_ids))
    if n_targets is None:
        n_targets = len(target_ids)
    if n_targets <= 1:
        entropy = np.ones(len(feat_ids))
    else:
        balanced = weights / row_sums[rows]
        conditional = balanced / np.bincount(cols, balanced, len(feat_ids))[cols]
        h_sum = np.bincount(cols, conditional * np.log(conditional), len(feat_ids))
        entropy = 1.0 + h_sum / math.log(n_targets)
        np.clip(entropy, 0.0, 1.0, out=entropy)
    ct = weights / (col_sums[cols] ** (1.0 - b) * row_sums[rows] ** b)
    return _Weights(target_ids, feat_ids, rows, cols, col_ptr, entropy, ct)


def entropy_weights(corpus: SparseCounts, n_targets: int | None = None) -> Dict[Index, float]:
    """Entropy weight per feature multi-index, in [0, 1].

    ``n_targets`` is the size of the target index space (H_max = ln of it);
    defaults to the number of distinct observed target multi-indices.
    """
    derived = _derive_weights(corpus, 1.0, n_targets)  # b shapes only ct, unread here
    return dict(zip(derived.feat_ids, derived.entropy.tolist()))


def weight_tensor(corpus: SparseCounts, b: float) -> Dict[Tuple[Index, Index], float]:
    """Balanced corpus weights on the nonzero support.

    b=0 gives the column-conditional (targets given feature), b=1 the
    row-conditional (features given target).
    """
    if not b >= 0:
        raise ValueError("b must be >= 0")
    if not len(corpus):
        return {}
    target_ids, feat_ids, rows, cols, _, _, ct = _derive_weights(corpus, b)
    return {
        (target_ids[r], feat_ids[c]): w
        for r, c, w in zip(rows.tolist(), cols.tolist(), ct.tolist())
    }


@dataclass(eq=False, slots=True)
class _LevelTable:
    """Column-grouped derived weights for one contraction level."""

    keep: FrozenSet[int]
    target_ids: List[Index]
    feat_ids: List[Index]
    feat_pos: Dict[Index, int]
    col_ptr: np.ndarray
    rows: np.ndarray
    amp: np.ndarray
    phi: np.ndarray | None
    entropy: np.ndarray


class _State:
    """A published version of a model's counts, and what is derived from them on first
    read.  ``shape`` is the vocabulary's when published; no attribute is ever reassigned."""

    def __init__(self, corpus: SparseCounts, shape: Tuple[Tuple[int, ...], Tuple[int, ...]]):
        self.corpus, self.shape = corpus, shape
        self.tables: Dict[FrozenSet[int], _LevelTable] = {}

    @cached_property
    def marginal(self) -> Dict[Index, float]:
        order, starts = sort_groups(self.corpus.targets)
        targets = row_tuples(self.corpus.targets[order[starts]])
        weights = self.corpus.weights[order].tolist()
        bounds = np.flatnonzero(starts).tolist() + [len(weights)]
        return {t: math.fsum(weights[lo:hi]) for t, lo, hi in zip(targets, bounds, bounds[1:])}

    @cached_property
    def prior(self) -> Dict[Index, float]:
        total = math.fsum(self.marginal.values())
        return {t: w / total for t, w in self.marginal.items()}


@dataclass(eq=False)
class _Level:
    """A batch of queries evaluated against one level table, one row per query.

    ``qcols`` (and ``qtheta``) hold the batch's known columns in the kernels'
    flat layout (see :mod:`._kernels`); row q of ``magnitudes`` holds X_i
    for each of the table's targets and ``totals[q]`` their sum.
    ``lengths``, ``entry``, ``modulus`` and ``angle`` are the addends the
    kernel summed.
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
    _index: Tuple[List[int], List[int]] | None = None

    @property
    def kept(self) -> Tuple[int, ...]:
        return tuple(sorted(self.table.keep))

    def decided(self) -> List[int]:
        """The rows whose total reaches ``DEGENERATE_EPS``; the rest are degenerate."""
        return [r for r, total in enumerate(self.totals.tolist()) if not total < DEGENERATE_EPS]

    def span(self, q: int) -> Tuple[int, int]:
        """Query q's cells in ``qcols``: start and stop."""
        if self._index is None:  # built once: an aggregate reads every query's span
            seps = np.flatnonzero(self.qcols == len(self.table.feat_ids)) + 1
            ends = np.add.accumulate(self.lengths)  # of each cell's addends
            self._index = [0, *seps.tolist(), len(self.qcols) + 1], [0, *ends.tolist()]
        starts = self._index[0]
        return starts[q], starts[q + 1] - 1

    def distribution(self, q: int) -> Dict[Index, float]:
        total = self.totals.item(q)  # a float divides as numpy does, with fewer calls
        return dict(zip(self.table.target_ids, [m / total for m in self.magnitudes[q].tolist()]))

    def top(self, q: int) -> Index:
        """Query q's most probable target; ties go to the smaller multi-index."""
        return self.table.target_ids[(self.magnitudes[q] / self.totals[q]).argmax()]

    def addends(self, q: int):
        """(cell, target row, modulus, angle) of query q's addends, one per
        stored cell of each of its columns, in (column, row) order.
        """
        start, stop = self.span(q)
        lo, hi = self._index[1][start], self._index[1][stop]
        cell = np.arange(start, stop).repeat(self.lengths[start:stop])
        angle = self.angle[lo:hi] if self.angle is not None else np.zeros(hi - lo)
        return cell, self.table.rows[self.entry[lo:hi]], self.modulus[lo:hi], angle

    def contributions(self, q: int) -> Dict[Tuple[Index, Index], Tuple[float, float]]:
        cell, rows, modulus, angle = self.addends(q)
        cols = self.qcols[cell]
        target_ids, feat_ids = self.table.target_ids, self.table.feat_ids
        return {
            (target_ids[r], feat_ids[c]): (m, a)
            for r, c, m, a in zip(rows.tolist(), cols.tolist(), modulus.tolist(), angle.tolist())
        }


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
        ranked = sorted(self.distribution.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


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

    Every prediction, single or batched, and every local explanation reads
    the one batch walk, :meth:`walk`, which reads the published :class:`_State`
    once: a prediction that starts before an :meth:`update` finishes on the old
    state.  Concurrent prediction is safe; two updates at once are not.
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
        self._state = _State(corpus, vocab.shape())
        _check_indices(corpus.keys, self._state.shape)
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
        """The published counts; :meth:`update` replaces them and never changes them."""
        return self._state.corpus

    @property
    def n_feature_dims(self) -> int:
        return self._state.corpus.feature_dims

    def _check_dim_count(self, obs: EncodedObservation) -> None:
        if len(obs.feature_weights) != len(self.vocab.feature_dims):
            raise ShapeError(
                f"query has {obs.n_feature_dims} feature dimensions, "
                f"model has {len(self.vocab.feature_dims)}"
            )

    def _check_query(self, obs: EncodedObservation) -> None:
        """Reject a query of the wrong shape or with an index outside the vocabulary."""
        self._check_dim_count(obs)
        for d, dim_map in enumerate(obs.feature_weights):
            size = len(self.vocab.feature_dims[d])
            for idx in dim_map:
                if not 0 <= idx < size:
                    raise ShapeError(
                        f"feature index {idx} out of bounds for dimension "
                        f"{self.vocab.feature_dims[d].name!r} (size {size})"
                    )

    def target_prior(self) -> Dict[Index, float]:
        """Normalized target marginal: the terminal fallback distribution."""
        return self._state.prior

    # -- derived tables ------------------------------------------------

    def _table(self, keep: FrozenSet[int], state: _State | None = None) -> _LevelTable:
        state = state or self._state
        table = state.tables.get(keep)
        if table is None:  # racing builders all return the first table stored
            table = state.tables.setdefault(keep, self._build_table(keep, state))
        return table

    def _build_table(self, keep: FrozenSet[int], state: _State) -> _LevelTable:
        full = keep == frozenset(range(self.n_feature_dims))
        corpus = state.corpus if full else state.corpus.keep_feature_dims(keep)
        target_ids, feat_ids, rows, cols, col_ptr, entropy, ct = _derive_weights(
            corpus, self.hyper.b, math.prod(state.shape[0])
        )
        amp = entropy[cols] ** self.hyper.h * ct ** self.hyper.p
        phi = None
        if self.phases and full:
            phi = np.array(
                [
                    self.phases.get(target_ids[r], feat_ids[c])
                    for r, c in zip(rows.tolist(), cols.tolist())
                ],
                dtype=np.float64,
            )
            if not phi.any():
                phi = None
        feat_pos = dict(zip(feat_ids, range(len(feat_ids))))
        return _LevelTable(
            keep, target_ids, feat_ids, feat_pos, col_ptr, rows, amp, phi, entropy
        )

    # -- prediction ----------------------------------------------------

    def _query_arrays(self, queries, feats: List[Dict[Index, float]], table: _LevelTable):
        """``qcols``, ``qvals`` and ``qtheta`` of a batch at one level (see :mod:`._kernels`)
        from each query's features there, unknown ones dropped.  ``qtheta`` is
        None when every phase is zero, the result None when no query knows a feature.
        """
        sep, pos = len(table.feat_ids), table.feat_pos
        cols: List[int] = []
        vals: List[float] = []
        for fmap in feats:
            cols += map(pos.get, fmap, repeat(-1))
            cols.append(sep)
            vals += fmap.values()
            vals.append(0.0)
        del cols[-1], vals[-1]
        if cols.count(-1) + len(feats) - 1 == len(cols):
            return None
        qcols, qvals = np.array(cols), np.array(vals)
        qtheta = None
        if len(table.keep) == self.n_feature_dims and any(obs.phases for obs in queries):
            qtheta = np.array([
                theta for obs, fmap in zip(queries, feats)
                for theta in (*map((obs.phases or {}).get, fmap, repeat(0.0)), 0.0)
            ][:-1])
        if -1 in cols:
            known = qcols >= 0
            qcols, qvals = qcols[known], qvals[known]
            qtheta = qtheta[known] if qtheta is not None else None
        if max(map(len, feats)) > 1:  # sort each query's columns, its separator last
            is_sep = qcols == sep
            order = ((is_sep.cumsum() - is_sep) * (sep + 1) + qcols).argsort()
            qcols, qvals = qcols[order], qvals[order]
            qtheta = qtheta[order] if qtheta is not None else None
        return qcols, qvals, qtheta if qtheta is not None and qtheta.any() else None

    def _level(self, queries, feats: List[Dict[Index, float]], table: _LevelTable):
        """The prediction rule for a batch of queries at one contraction level, from
        their features there: a :class:`_Level`, or None when no query knows a feature."""
        arrays = self._query_arrays(queries, feats, table)
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
        magnitudes = modulus ** (1.0 / self.hyper.p)
        return _Level(table, qcols, qtheta, magnitudes, np.add.reduce(magnitudes, 1), *addends)

    def walk(
        self, queries: Sequence[EncodedObservation], state: _State | None = None
    ) -> Iterator[Tuple[int, _Level | None, List[int], List[int]]]:
        """Follow the policy for a batch, each query to its first nondegenerate level.

        Yields (depth, level, rows, decided) for each sub-batch of a step that
        decides some queries: those at positions ``decided`` are predicted by
        rows ``rows`` of ``level``, whose addends are the evidence; the others
        go on.  The terminal (empty) step has no level: the prior of ``state``
        (the published one unless given) decides.  A column has at most
        one entry per target, so sub-batches of ``BATCH_ADDENDS / n_targets``
        cells (features plus queries; or one query) bound the kernels' arrays.
        """
        state = state or self._state
        for obs in queries:
            self._check_query(obs)
        if self.vocab.shape()[1] != state.shape[1]:  # drop values added since, as a reload would
            queries = [obs.known(state.shape[1]) for obs in queries]
        pending = list(range(len(queries)))
        for depth, keep in enumerate(self.policy.steps):
            if not pending:
                return
            if not keep:
                yield depth, None, pending, pending
                return
            table = self._table(keep, state)
            max_cells = BATCH_ADDENDS // len(table.target_ids)
            degenerate: List[int] = []
            for batch, feats in _sub_batches(queries, pending, keep, max_cells):
                level = self._level([queries[i] for i in batch], feats, table)
                rows = level.decided() if level is not None else []
                if rows:
                    yield depth, level, rows, [batch[r] for r in rows]
                done = set(rows)
                degenerate += [i for r, i in enumerate(batch) if r not in done]
            pending = degenerate

    def predict(self, obs: EncodedObservation, with_contributions: bool = True) -> Prediction:
        """Evaluate the prediction rule with fallback for one query."""
        state = self._state
        [(depth, level, [q], _)] = self.walk([obs], state)
        if level is None:
            return Prediction(dict(state.prior), dict(state.marginal), {}, depth, ())
        magnitudes = dict(zip(level.table.target_ids, level.magnitudes[q].tolist()))
        contributions = level.contributions(q) if with_contributions else {}
        return Prediction(level.distribution(q), magnitudes, contributions, depth, level.kept)

    def predict_labels(self, obs: EncodedObservation, k: int = 1) -> List[Tuple[str, ...]]:
        """Top-k decoded target tuples (multilabel when targets are multi-dimensional)."""
        return [self.vocab.decode_target(t) for t in self.predict_batch([obs], k)[0][0]]

    def predict_at_dims(self, obs: EncodedObservation, dims: Iterable[int]):
        """Distribution using only the given feature dimensions; None when degenerate.

        Only the query's dimension count is checked here; callers looping
        over many levels check the query once with :meth:`_check_query`.
        """
        self._check_dim_count(obs)
        dims = frozenset(dims)
        if not dims:
            return dict(self.target_prior())
        level = self._level([obs], [obs.features_at(dims)], self._table(dims))
        return level.distribution(0) if level is not None and level.decided() else None

    def predict_batch(
        self, queries: Sequence[EncodedObservation], k: int = 1
    ) -> List[Tuple[List[Index], Dict[Index, float], int]]:
        """(top-k targets, distribution, fallback depth) for each query."""
        if k < 1:
            raise ValueError("k must be >= 1")
        results: list = [None] * len(queries)
        state = self._state
        for depth, level, rows, decided in self.walk(queries, state):
            if level is None:
                prior = state.prior
                ranked = [t for t, _ in sorted(prior.items(), key=lambda kv: (-kv[1], kv[0]))[:k]]
                for i in decided:
                    results[i] = (list(ranked), dict(prior), depth)
                continue
            probs = level.magnitudes[rows] / level.totals[rows][:, None]
            # a stable sort keeps ties in row order: the smaller multi-index first
            tops = np.argsort(-probs, axis=1, kind="stable")[:, :k].tolist()
            target_ids = level.table.target_ids
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

    def save(self, sink) -> None:
        """Write the published state as a JSON archive; deterministic byte-for-byte."""
        state = self._state
        order, _ = sort_groups(state.corpus.keys)
        dims = lambda ds, sizes: [{"name": d.name, "values": d.values[:n]} for d, n in zip(ds, sizes)]
        payload = {
            "format": ARCHIVE_FORMAT,
            "version": ARCHIVE_VERSION,
            "hyper": {"h": self.hyper.h, "b": self.hyper.b, "p": self.hyper.p},
            "target_dims": dims(self.vocab.target_dims, state.shape[0]),
            "feature_dims": dims(self.vocab.feature_dims, state.shape[1]),
            "policy": self.policy.to_lists(),
            "corpus": list(
                zip(
                    state.corpus.targets[order].tolist(),
                    state.corpus.features[order].tolist(),
                    state.corpus.weights[order].tolist(),
                )
            ),
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
    for obs in observations:
        if len(obs.label_weights) != vocab.n_target_dims or obs.n_feature_dims != vocab.n_feature_dims:
            raise ShapeError("observation shape does not match vocabulary")
    shape = vocab.n_target_dims, vocab.n_feature_dims
    corpus = SparseCounts(*shape).add_rows(*joint_rows(observations, *shape))
    return Model(corpus, vocab.copy(), hyper=hyper, phases=phases, policy=policy)


def load(source) -> Model:
    """Read a model archive written by :meth:`Model.save`."""
    try:
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            with open(source, "rb") as fh:  # json decodes the UTF-8 bytes itself
                payload = json.loads(fh.read())
        else:
            payload = json.load(source)
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
            for spec in specs:
                dim = dims[add_dim(spec["name"], create=True)]
                for value in spec["values"]:
                    dim.encode(value, grow=True)
                archived.append(spec["values"])
        # a repeated name or value leaves fewer dimensions or values than archived
        dims = vocab.target_dims + vocab.feature_dims
        strings = chain([d.name for d in dims], *archived)
        if [d.values for d in dims] != archived or not {str}.issuperset(map(type, strings)):
            raise ValueError("dimension names and values must be distinct strings")
        hyper = Hyperparams(**payload["hyper"])
        corpus = SparseCounts.from_cells(vocab.n_target_dims, vocab.n_feature_dims, payload["corpus"])
        phases = PhaseTable(
            {
                (tuple(tgt), tuple(feat)): float(angle)
                for tgt, feat, angle in payload.get("phases", [])
            }
        )
        policy = Policy.from_lists(payload["policy"])
        return Model(corpus, vocab, hyper=hyper, phases=phases, policy=policy)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ArchiveError(f"malformed model archive: {exc}") from exc
