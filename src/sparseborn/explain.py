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


def _target_addends(level, target_index: Index):
    """Query positions, moduli and angles of the addends for one target.

    A query feature with no stored entry for the target has no addend.
    """
    query, rows, modulus, angle = level.addends()
    target_ids = level.table.target_ids
    hit = rows == (target_ids.index(target_index) if target_index in target_ids else -1)
    return query[hit], modulus[hit], angle[hit]


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
    _, level = model.walk(query)
    if level is None:
        return []
    target_index = level.top() if target is None else _resolve_target(model, target)
    n = len(level.qcols)
    scores = [0.0] * n
    angles = level.qtheta.tolist() if level.qtheta is not None else [0.0] * n
    positions, modulus, angle = _target_addends(level, target_index)
    for q, score, theta in zip(positions.tolist(), modulus.tolist(), angle.tolist()):
        scores[q], angles[q] = score, theta
    # qcols ascend and columns are ranked in feature index order, so the
    # stable sort breaks score ties by feature index
    order = sorted(range(n), key=scores.__getitem__, reverse=True)[:k]
    cols = level.qcols.tolist()
    total = math.fsum(scores)
    decoded, kept = model.vocab.decode_target(target_index), level.kept
    rows = []
    for q in order:
        feat = level.table.feat_ids[cols[q]]
        feature = model.vocab.decode_feature(feat, kept)
        share = scores[q] / total if total > 0 else 0.0
        rows.append(
            FeatureAttribution(decoded, target_index, feature, feat, scores[q], share, angles[q])
        )
    return rows


def explain_global(model: Model, target, k: int | None = None) -> List[FeatureAttribution]:
    """Rank every corpus feature by entropy-weighted balanced strength for a target."""
    target_index = _resolve_target(model, target)
    keep = frozenset(range(model.n_feature_dims))
    table = model._table(keep)
    scores = np.zeros(len(table.feat_ids))
    angles = np.zeros(len(table.feat_ids))
    for r, tgt in enumerate(table.target_ids):
        if tgt == target_index:
            mask = table.rows == r
            cols = np.searchsorted(table.col_ptr, np.nonzero(mask)[0], side="right") - 1
            scores[cols] = table.amp[mask]
            if table.phi is not None:
                angles[cols] = table.phi[mask]
            break
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], table.feat_ids[j]))
    if k is not None:
        order = order[:k]
    rows = [
        FeatureAttribution(
            target=model.vocab.decode_target(target_index),
            target_index=target_index,
            feature=model.vocab.decode_feature(table.feat_ids[j]),
            feature_index=table.feat_ids[j],
            score=float(scores[j]),
            share=0.0,
            angle=float(angles[j]),
        )
        for j in order
    ]
    total = math.fsum(float(s) for s in scores)
    if total > 0:
        for r in rows:
            r.share = r.score / total
    return rows


def discriminative_features(model: Model, k: int) -> List[FeatureAttribution]:
    """Top-k features by entropy weight raised to h: cross-target signal strength."""
    if model.hyper.h == 0:
        raise ValueError("discriminative ranking is undefined with h=0 (all weights are 1)")
    if k < 1:
        raise ValueError("k must be >= 1")
    keep = frozenset(range(model.n_feature_dims))
    table = model._table(keep)
    powered = table.entropy ** model.hyper.h
    order = sorted(
        range(len(table.feat_ids)), key=lambda j: (-powered[j], table.feat_ids[j])
    )[:k]
    total = math.fsum(float(v) for v in powered)
    return [
        FeatureAttribution(
            target=None,
            target_index=None,
            feature=model.vocab.decode_feature(table.feat_ids[j]),
            feature_index=table.feat_ids[j],
            score=float(powered[j]),
            share=float(powered[j]) / total if total > 0 else 0.0,
        )
        for j in order
    ]


def aggregate_local(
    model: Model, queries: Sequence[EncodedObservation]
) -> Dict[Tuple[str, ...], List[FeatureAttribution]]:
    """Sum local scores over queries, grouped by each query's predicted target."""
    sums: Dict[Tuple[Index, Tuple[int, ...]], Dict[Index, float]] = {}
    for query in queries:
        _, level = model.walk(query)
        if level is None:
            continue
        predicted = level.top()
        positions, modulus, _ = _target_addends(level, predicted)
        bucket = sums.setdefault((predicted, level.kept), {})
        feat_ids = level.table.feat_ids
        for col, score in zip(level.qcols[positions].tolist(), modulus.tolist()):
            feat = feat_ids[col]
            bucket[feat] = bucket.get(feat, 0.0) + score
    out: Dict[Tuple[str, ...], List[FeatureAttribution]] = {}
    for (predicted, kept), bucket in sums.items():
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
    for rows in out.values():
        rows.sort(key=lambda r: (-r.score, r.feature_index))
        total = math.fsum(r.score for r in rows)
        if total > 0:
            for r in rows:
                r.share = r.score / total
    return out
