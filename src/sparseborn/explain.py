"""Native local and global feature attributions.

Local importance of a feature is the modulus of its addend in the
prediction rule for the chosen target; global importance drops the query
term.  Scores are reported raw plus as share-of-total, since shares are
what humans compare.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .counts import Index, row_tuples
from .data import EncodedObservation
from .errors import UnknownTargetError
from .model import Model

@dataclass
class FeatureAttribution:
    """One feature's importance for one target."""

    target: Tuple[str, ...] | None
    target_index: Index | None
    feature: Tuple[str, ...]
    feature_index: Index
    score: float
    share: float
    angle: float = 0.0


def _resolve_target(model: Model, target) -> Index:
    """Accept a multi-index, a decoded tuple, or a bare string (1-dim targets)."""
    if isinstance(target, str):
        target = (target,)
    values, dims = tuple(target), model.vocab.target_dims
    if all(isinstance(v, int) for v in values):
        known = len(values) == len(dims) and all(0 <= i < len(dim) for dim, i in zip(dims, values))
        index = values if known else None
    else:
        index = model.vocab.encode_target([str(v) for v in values])
    if index is None:
        valid = [dim.values for dim in dims]
        raise UnknownTargetError(target, valid[0] if len(valid) == 1 else valid)
    return index


def _check_k(k: int | None) -> None:
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")


def _ranked(model: Model, target_index, feats, scores, k, angles=None, kept=None):
    """Attributions of the k candidates of highest score; shares are over all of them.

    ``feats`` ascend, so the stable sort breaks score ties by feature index: a matrix of feature rows, of
    which only the k returned are decoded, or a list of multi-indices.
    ``kept`` gives each candidate's level (None: the full level), ``angles`` its angle (None: 0).
    """
    values = scores.tolist()
    total = math.fsum(values)
    order = (-scores).argsort(kind="stable")[:k]
    thetas = angles[order].tolist() if angles is not None else [0.0] * len(order)
    decoded = model.vocab.decode_target(target_index) if target_index is not None else None
    if isinstance(feats, np.ndarray):  # decode only the k rows returned
        feats = dict(zip(order.tolist(), map(tuple, feats[order].tolist())))
    return [
        FeatureAttribution(
            decoded, target_index, model.vocab.decode_feature(feats[j], kept[j] if kept else None),
            feats[j], values[j], values[j] / total if total > 0 else 0.0, theta,
        )
        for j, theta in zip(order.tolist(), thetas)
    ]


def explain_local(
    model: Model,
    query: EncodedObservation,
    target=None,
    k: int | None = None,
) -> List[FeatureAttribution]:
    """Rank the query's observed features by their addend modulus.

    The target defaults to the predicted one.  Empty when the prediction
    came from the terminal fallback: no feature carried evidence.
    """
    _check_k(k)
    target_index = None if target is None else _resolve_target(model, target)  # whichever level decides
    [(_, level, rows, _)] = model.walk([query])
    if level is None:
        return []
    ids = level.table.target_ids
    target_index = ids[level.probabilities(rows).argmax()] if target is None else target_index
    row = ids.index(target_index) if target_index in ids else -1
    _, cols, modulus, angle, _ = level.attribution(rows, [row])
    return _ranked(model, target_index, level.table.feat_rows[cols], modulus, k, angle, [level.kept] * len(cols))


def explain_global(model: Model, target, k: int | None = None) -> List[FeatureAttribution]:
    """Rank every corpus feature by entropy-weighted balanced strength for a target."""
    _check_k(k)
    target_index = _resolve_target(model, target)
    table = model._table(frozenset(range(model.n_feature_dims)))
    scores, angles = table.target_weights(target_index)
    return _ranked(model, target_index, table.feat_rows, scores, k, angles)


def discriminative_features(model: Model, k: int) -> List[FeatureAttribution]:
    """Top-k features by entropy weight raised to h: cross-target signal strength."""
    if model.hyper.h == 0:
        raise ValueError("discriminative ranking is undefined with h=0 (all weights are 1)")
    _check_k(k)
    table = model._table(frozenset(range(model.n_feature_dims)))
    return _ranked(model, None, table.feat_rows, table.entropy ** model.hyper.h, k)


def aggregate_local(
    model: Model, queries: Sequence[EncodedObservation], k: int | None = None
) -> Dict[Tuple[str, ...], List[FeatureAttribution]]:
    """Sum local scores over queries, grouped by each query's predicted target.

    Each target's features are ranked by summed score; ``k`` keeps the top k.
    Targets, and a feature's tied candidates from two policy levels, come in first-query order.
    """
    _check_k(k)
    # (predicted, kept) -> (first query, feature rows, addend columns and moduli per level); a
    # bucket's queries all stop at one policy step, whose sub-batches come in query order
    buckets: Dict[Tuple[Index, Tuple[int, ...]], tuple] = {}
    for _, level, rows, queries_at in model.walk(queries):
        if level is None:
            continue
        tops = level.probabilities(rows).argmax(1)
        rows_at, cols, modulus, _, cells = level.attribution(rows, tops)
        target_ids, ids = level.table.target_ids, level.table.feat_rows
        for t, first in zip(*np.unique(tops, return_index=True)):  # each target and its first query
            mine = cells[tops[rows_at[cells]] == t]
            bucket = buckets.setdefault((target_ids[t], level.kept), (queries_at[first], ids, []))
            bucket[2].append((cols[mine], modulus[mine]))
    by_target: Dict[Index, list] = {}  # (feature, summed score, kept) candidates
    for (t, kept), (_, ids, addends) in sorted(buckets.items(), key=lambda b: b[1][0]):
        cols, modulus = map(np.concatenate, zip(*addends))
        cols, inverse = np.unique(cols, return_inverse=True)
        sums = np.bincount(inverse, modulus).tolist()  # adds in query order, as a running sum would
        by_target.setdefault(t, []).extend(zip(row_tuples(ids[cols]), sums, repeat(kept)))
    out: Dict[Tuple[str, ...], List[FeatureAttribution]] = {}
    for t, candidates in by_target.items():
        candidates.sort(key=lambda c: c[0])  # stable: a feature's candidates keep their order
        feats, sums, kept = zip(*candidates)
        out[model.vocab.decode_target(t)] = _ranked(model, t, feats, np.array(sums), k, kept=kept)
    return out
