"""Independent dense reference implementations.

Everything here recomputes the model's quantities from first principles on
dense numpy arrays (complex arithmetic included), deliberately sharing no
code with the sparse implementation it checks.
"""
from __future__ import annotations

import math
from collections import defaultdict

import numpy as np


class DenseOracle:
    """Dense evaluation of weighting and prediction from corpus entries."""

    def __init__(self, entries, target_space=None):
        self.targets = sorted({t for t, _ in entries})
        self.feats = sorted({f for _, f in entries})
        self.tpos = {t: i for i, t in enumerate(self.targets)}
        self.fpos = {f: j for j, f in enumerate(self.feats)}
        self.C = np.zeros((len(self.targets), len(self.feats)))
        for (t, f), w in entries.items():
            self.C[self.tpos[t], self.fpos[f]] += w
        self.target_space = (
            target_space if target_space is not None else len(self.targets)
        )

    def entropy_weights(self) -> np.ndarray:
        if self.target_space <= 1:
            return np.ones(self.C.shape[1])
        row = self.C.sum(axis=1, keepdims=True)
        P = np.divide(self.C, row, out=np.zeros_like(self.C), where=self.C > 0)
        z = P.sum(axis=0, keepdims=True)
        Pc = np.divide(P, z, out=np.zeros_like(P), where=P > 0)
        terms = np.zeros_like(Pc)
        mask = Pc > 0
        terms[mask] = Pc[mask] * np.log(Pc[mask])
        H = -terms.sum(axis=0)
        return np.clip(1.0 - H / math.log(self.target_space), 0.0, 1.0)

    def balanced(self, b: float) -> np.ndarray:
        col = self.C.sum(axis=0, keepdims=True)
        row = self.C.sum(axis=1, keepdims=True)
        denom = col ** (1.0 - b) * row**b
        return np.divide(self.C, denom, out=np.zeros_like(self.C), where=self.C > 0)

    def _query_vectors(self, query, theta=None):
        x = np.zeros(self.C.shape[1])
        th = np.zeros(self.C.shape[1])
        for f, w in query.items():
            j = self.fpos.get(f)
            if j is None:
                continue
            x[j] += w
            if theta:
                th[j] = theta.get(f, 0.0)
        return x, th

    def predict(self, query, h, b, p, theta=None, phi=None):
        """Full complex evaluation of the prediction rule; None when degenerate."""
        x, th = self._query_vectors(query, theta)
        if not x.any():
            return None
        ht = self.entropy_weights()
        ct = self.balanced(b)
        angles = np.tile(th, (self.C.shape[0], 1))
        if phi:
            for (t, f), angle in phi.items():
                i, j = self.tpos.get(t), self.fpos.get(f)
                if i is not None and j is not None:
                    angles[i, j] -= angle
        xp = np.where(x > 0, x, 0.0) ** p
        terms = np.exp(1j * angles) * ht[None, :] ** h * ct**p * xp[None, :]
        terms[:, x == 0] = 0.0
        terms[self.C == 0] = 0.0
        acc = terms.sum(axis=1)
        X = np.abs(acc) ** (1.0 / p)
        total = X.sum()
        if total < 1e-300:
            return None
        return {t: X[i] / total for i, t in enumerate(self.targets)}

    def addend_moduli(self, query, target, h, b, p):
        """Per observed feature, the modulus of its addend for one target."""
        x, _ = self._query_vectors(query)
        ht = self.entropy_weights()
        ct = self.balanced(b)
        i = self.tpos[target]
        out = {}
        for f, j in self.fpos.items():
            if x[j] > 0:
                out[f] = ht[j] ** h * ct[i, j] ** p * x[j] ** p
        return out


def bayes_rule(entries, query):
    """Direct dense transcription of the classical rule: X_i = sum_j C(i|j) x_j."""
    oracle = DenseOracle(entries)
    x, _ = oracle._query_vectors(query)
    col = oracle.C.sum(axis=0, keepdims=True)
    cond = np.divide(oracle.C, col, out=np.zeros_like(oracle.C), where=oracle.C > 0)
    X = cond @ x
    total = X.sum()
    if total < 1e-300:
        return None
    return {t: X[i] / total for i, t in enumerate(oracle.targets)}


def born_rule(entries, query):
    """Direct dense transcription of the quantum rule: X_i = |sum_j sqrt(x_j C(j|i))|^2."""
    oracle = DenseOracle(entries)
    x, _ = oracle._query_vectors(query)
    row = oracle.C.sum(axis=1, keepdims=True)
    cond = np.divide(oracle.C, row, out=np.zeros_like(oracle.C), where=oracle.C > 0)
    amp = np.sqrt(x[None, :] * cond).sum(axis=1)
    X = amp**2
    total = X.sum()
    if total < 1e-300:
        return None
    return {t: X[i] / total for i, t in enumerate(oracle.targets)}


def contract_entries(entries, keep):
    """Sum corpus entries over every feature coordinate not in ``keep``."""
    out = defaultdict(float)
    for (t, f), w in entries.items():
        out[(t, tuple(f[d] for d in sorted(keep)))] += w
    return dict(out)


def brute_metrics(predictions, truths):
    """Confusion-matrix-first metric computation.

    Returns (per_class dict label -> (precision, recall, f1, support),
    accuracy, weighted (p, r, f1), macro (p, r, f1)).
    """
    labels = sorted(set(predictions) | set(truths), key=lambda x: (str(type(x)), str(x)))
    confusion = defaultdict(int)
    for p, t in zip(predictions, truths):
        confusion[(t, p)] += 1
    per_class = {}
    for label in labels:
        tp = confusion[(label, label)]
        fp = sum(confusion[(t, label)] for t in labels if t != label)
        fn = sum(confusion[(label, p)] for p in labels if p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        per_class[label] = (precision, recall, f1, tp + fn)
    n = len(truths)
    accuracy = sum(confusion[(label, label)] for label in labels) / n
    total_support = sum(m[3] for m in per_class.values())
    weighted = tuple(
        math.fsum(per_class[label][k] * per_class[label][3] for label in labels)
        / total_support
        for k in range(3)
    )
    macro = tuple(
        math.fsum(per_class[label][k] for label in labels) / len(labels)
        for k in range(3)
    )
    return per_class, accuracy, weighted, macro


class DictCounts:
    """Plain-dict accumulator keyed by (target, feature): the reference for SparseCounts, which
    lists its cells in key order, ``sorted(entries)``, and contracts them in that order."""

    def __init__(self, cells=()):
        self.entries = {}
        for (tgt, feat), weight in cells:
            self.add(tgt, feat, weight)

    def add(self, tgt, feat, weight):
        if weight != 0:
            key = (tuple(tgt), tuple(feat))
            self.entries[key] = self.entries.get(key, 0.0) + weight

    def iadd(self, other):
        for (tgt, feat), weight in other.entries.items():
            self.add(tgt, feat, weight)

    def keep_feature_dims(self, keep):
        kept = sorted(set(keep))
        out = DictCounts()
        for (tgt, feat), weight in sorted(self.entries.items()):
            out.add(tgt, tuple(feat[d] for d in kept), weight)
        return out


def reference_add_rows(keys, weights, new_keys, new_weights):
    """Cells of a store after adding rows, as ``SparseCounts.add_rows`` built them when it kept cells in
    first-insertion order and ``Model.save`` sorted them: the stored rows, then the new ones, each nonzero
    weight summed left to right into its cell in a dict, then the cells in key order."""
    sums = {}
    for key, weight in zip([*map(tuple, keys), *map(tuple, new_keys)], [*weights, *new_weights]):
        if weight != 0:
            sums[key] = sums.get(key, 0.0) + weight
    cells = sorted(sums.items())
    return [key for key, _ in cells], [weight for _, weight in cells]


def reference_encode(records, vocab, grow, normalize):
    """Encode ``(labels, features)`` records with plain dicts, as ``encode`` is specified.

    ``vocab`` is a pair of dicts, target and feature dimension name -> {value: index},
    both in creation order; ``grow`` adds unknown names and values to it in place, and
    without it they are dropped.  Returns one ``(label maps, feature maps, scale)`` per
    record, every map list padded with empty maps to the final vocabulary.
    """
    out = []
    for labels, features in records:
        label_maps = _reference_maps(vocab[0], [(name, value, 1.0) for name, value in labels], grow)
        feature_maps = _reference_maps(vocab[1], features, grow)
        scale = 1.0
        populated = [m for m in label_maps + feature_maps if m]
        if normalize and populated and all(feature_maps) and (not labels or all(label_maps)):
            total = 1.0
            for m in populated:
                total *= sum(m.values())
            if total > 0:  # it underflows only
                scale = 1.0 / total
        out.append((label_maps, feature_maps, scale))
    n_targets, n_features = len(vocab[0]), len(vocab[1])
    return [
        (
            labels + [{} for _ in range(n_targets - len(labels))],
            features + [{} for _ in range(n_features - len(features))],
            scale,
        )
        for labels, features, scale in out
    ]


def _reference_maps(dims, items, grow):
    """One {index: summed weight} map per dimension of ``dims`` once ``items`` have grown it."""
    if grow:
        for name, value, _ in items:
            values = dims.setdefault(name, {})
            values.setdefault(value, len(values))
    maps = {name: {} for name in dims}
    for name, value, weight in items:
        if value in dims.get(name, {}):
            index = dims[name][value]
            maps[name][index] = maps[name].get(index, 0.0) + float(weight)
    return list(maps.values())


def reference_joint_rows(observations, target_dims, feature_dims):
    """Joint counts cell by cell, as ``joint_rows`` computed them before its array expansion:
    every target cell (first dimension outermost) with every feature cell.  A target weight is
    ``1.0`` times each label weight, a feature weight the scale times each feature weight, left
    to right, and a cell's weight the target's times the feature's."""
    rows, weights = [], []
    for obs in observations:
        assert len(obs.label_weights) == target_dims and len(obs.feature_weights) == feature_dims
        features = _reference_cells(obs.feature_weights, obs.scale)
        for tgt, tw in _reference_cells(obs.label_weights, 1.0):
            rows.extend(tgt + feat for feat, _ in features)
            weights.extend(tw * fw for _, fw in features)
    return rows, weights


def _reference_cells(maps, factor):
    """(multi-index, ``factor`` times its weights) for each cell of the outer product of ``maps``."""
    cells = [((), factor)]
    for dim_map in maps:
        cells = [(index + (i,), w * wi) for index, w in cells for i, wi in dim_map.items()]
    return cells


def reference_query_arrays(queries, keep, feat_ids, n_feature_dims):
    """``qcols``, ``qvals`` and ``qtheta`` of a batch at one level, as ``Model._query_arrays`` built them from
    lists: each query's ``features_at(keep)`` looked up in a dict of the level's ``feat_ids`` (unknown features
    dropped), its columns ascending, then the separator ``len(feat_ids)`` before the next query; phases only
    at the full level.  None when no query knows a feature, ``qtheta`` None when every phase is zero."""
    pos = {feat: col for col, feat in enumerate(feat_ids)}
    cols, vals, thetas = [], [], []
    for n, obs in enumerate(queries):
        if n:
            cols.append(len(feat_ids))
            vals.append(0.0)
            thetas.append(0.0)
        cells = [(pos[f], w, (obs.phases or {}).get(f, 0.0)) for f, w in obs.features_at(keep).items() if f in pos]
        for col, w, theta in sorted(cells, key=lambda cell: cell[0]):
            cols.append(col)
            vals.append(w)
            thetas.append(theta)
    if len(cols) == len(queries) - 1:
        return None
    phased = len(keep) == n_feature_dims and any(obs.phases for obs in queries) and any(thetas)
    return cols, vals, thetas if phased else None
