"""Native local and global feature attributions.

Local importance of a feature is the modulus of its addend in the
prediction rule for the chosen target; global importance drops the query
term.  Scores are reported raw plus as share-of-total, since shares are
what humans compare.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .counts import Index
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
    values = tuple(target)
    if all(isinstance(v, int) for v in values):
        index = values
        for dim, i in zip(model.vocab.target_dims, index):
            if not 0 <= i < len(dim):
                index = None
                break
        if index is not None and len(values) == len(model.vocab.target_dims):
            return index
        valid = [dim.values for dim in model.vocab.target_dims]
        raise UnknownTargetError(target, valid[0] if len(valid) == 1 else valid)
    encoded = model.vocab.encode_target([str(v) for v in values])
    if encoded is None:
        valid = model.vocab.target_dims[0].values if model.vocab.target_dims else []
        raise UnknownTargetError(target, valid)
    return encoded


def _check_k(k: int | None) -> None:
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")


def _target_addends(level, q: int, target_index: Index):
    """Cells, moduli and angles of query q's addends for one target.

    A query feature with no stored entry for the target has no addend.
    """
    cell, rows, modulus, angle = level.addends(q)
    target_ids = level.table.target_ids
    hit = rows == (target_ids.index(target_index) if target_index in target_ids else -1)
    return cell[hit], modulus[hit], angle[hit]


def _top_columns(model: Model, table, scores, k, target_index=None, angles=None):
    """Attributions of the k full-level columns of highest score.

    Columns are in feature index order, so the stable sort breaks ties by it.
    """
    total = math.fsum(scores.tolist())
    decoded = model.vocab.decode_target(target_index) if target_index is not None else None
    return [
        FeatureAttribution(
            decoded, target_index, model.vocab.decode_feature(table.feat_ids[j]), table.feat_ids[j],
            float(scores[j]), float(scores[j]) / total if total > 0 else 0.0,
            float(angles[j]) if angles is not None else 0.0,
        )
        for j in np.argsort(-scores, kind="stable")[:k].tolist()
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
    [(_, level, [q], _)] = model.walk([query])
    if level is None:
        return []
    target_index = level.top(q) if target is None else _resolve_target(model, target)
    start, stop = level.span(q)
    n = stop - start
    scores = [0.0] * n
    angles = level.qtheta[start:stop].tolist() if level.qtheta is not None else [0.0] * n
    cells, modulus, angle = _target_addends(level, q, target_index)
    for j, score, theta in zip((cells - start).tolist(), modulus.tolist(), angle.tolist()):
        scores[j], angles[j] = score, theta
    # qcols ascend and columns are ranked in feature index order, so the
    # stable sort breaks score ties by feature index
    order = sorted(range(n), key=scores.__getitem__, reverse=True)[:k]
    cols = level.qcols[start:stop].tolist()
    total = math.fsum(scores)
    decoded, kept = model.vocab.decode_target(target_index), level.kept
    rows = []
    for j in order:
        feat = level.table.feat_ids[cols[j]]
        feature = model.vocab.decode_feature(feat, kept)
        share = scores[j] / total if total > 0 else 0.0
        rows.append(
            FeatureAttribution(decoded, target_index, feature, feat, scores[j], share, angles[j])
        )
    return rows


def explain_global(model: Model, target, k: int | None = None) -> List[FeatureAttribution]:
    """Rank every corpus feature by entropy-weighted balanced strength for a target."""
    _check_k(k)
    target_index = _resolve_target(model, target)
    table = model._table(frozenset(range(model.n_feature_dims)))
    scores = np.zeros(len(table.feat_ids))
    angles = np.zeros(len(table.feat_ids))
    if target_index in table.target_ids:
        entries = np.flatnonzero(table.rows == table.target_ids.index(target_index))
        cols = np.searchsorted(table.col_ptr, entries, side="right") - 1
        scores[cols] = table.amp[entries]
        if table.phi is not None:
            angles[cols] = table.phi[entries]
    return _top_columns(model, table, scores, k, target_index, angles)


def discriminative_features(model: Model, k: int) -> List[FeatureAttribution]:
    """Top-k features by entropy weight raised to h: cross-target signal strength."""
    if model.hyper.h == 0:
        raise ValueError("discriminative ranking is undefined with h=0 (all weights are 1)")
    _check_k(k)
    table = model._table(frozenset(range(model.n_feature_dims)))
    return _top_columns(model, table, table.entropy ** model.hyper.h, k)


def aggregate_local(
    model: Model, queries: Sequence[EncodedObservation], k: int | None = None
) -> Dict[Tuple[str, ...], List[FeatureAttribution]]:
    """Sum local scores over queries, grouped by each query's predicted target.

    Each target's features are ranked by summed score; ``k`` keeps the top k.
    """
    _check_k(k)
    # (predicted, kept) -> (first query, feature sums); a bucket's queries all
    # stop at one policy step, whose sub-batches come in query order
    sums: Dict[Tuple[Index, Tuple[int, ...]], Tuple[int, Dict[Index, float]]] = {}
    for _, level, rows, queries_at in model.walk(queries):
        for q, i in zip(rows, queries_at) if level is not None else ():
            predicted = level.top(q)
            cells, modulus, _ = _target_addends(level, q, predicted)
            bucket = sums.setdefault((predicted, level.kept), (i, {}))[1]
            for col, score in zip(level.qcols[cells].tolist(), modulus.tolist()):
                feat = level.table.feat_ids[col]
                bucket[feat] = bucket.get(feat, 0.0) + score
    out: Dict[Tuple[str, ...], List[FeatureAttribution]] = {}
    for (predicted, kept), (_, bucket) in sorted(sums.items(), key=lambda item: item[1][0]):
        decoded_target = model.vocab.decode_target(predicted)
        out.setdefault(decoded_target, []).extend(
            FeatureAttribution(
                target=decoded_target,
                target_index=predicted,
                feature=model.vocab.decode_feature(feat, kept),
                feature_index=feat,
                score=score,
                share=0.0,
            )
            for feat, score in bucket.items()
        )
    for target, rows in out.items():
        rows.sort(key=lambda r: (-r.score, r.feature_index))
        total = math.fsum(r.score for r in rows)
        if total > 0:
            for r in rows:
                r.share = r.score / total
        out[target] = rows[:k]
    return out
