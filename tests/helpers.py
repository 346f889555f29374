"""Shared builders for randomized model tests."""
from __future__ import annotations

import numpy as np

from sparseborn.counts import SparseCounts
from sparseborn.data import EncodedObservation, Vocabulary
from sparseborn.model import Hyperparams, Model, PhaseTable


def build_vocab(n_targets: int, feat_sizes) -> Vocabulary:
    vocab = Vocabulary()
    vocab.target_dim("class", create=True)
    for i in range(n_targets):
        vocab.target_dims[0].encode(f"c{i}", grow=True)
    for d, size in enumerate(feat_sizes):
        vocab.feature_dim(f"dim{d}", create=True)
        for j in range(size):
            vocab.feature_dims[d].encode(f"d{d}v{j}", grow=True)
    return vocab


def make_model(
    entries,
    n_targets,
    feat_sizes,
    h=1.0,
    b=1.0,
    p=0.5,
    phases=None,
    policy=None,
) -> Model:
    corpus = SparseCounts(1, len(feat_sizes), entries)
    # a model's vocabulary covers its corpus, so size each feature dimension to both
    stored = corpus.features.max(axis=0, initial=-1) + 1
    vocab = build_vocab(n_targets, np.maximum(feat_sizes, stored).tolist())
    return Model(
        corpus,
        vocab,
        hyper=Hyperparams(h=h, b=b, p=p),
        phases=PhaseTable(phases),
        policy=policy,
    )


def random_matrix_corpus(rng: np.random.Generator, max_targets=5, max_feats=50, max_weight=20):
    """Random single-dimension corpus with integer weights; every target occupied."""
    n_targets = int(rng.integers(2, max_targets + 1))
    n_feats = int(rng.integers(2, max_feats + 1))
    entries = {}
    for t in range(n_targets):
        # guarantee each target has at least one feature
        j = int(rng.integers(0, n_feats))
        entries[((t,), (j,))] = float(rng.integers(1, max_weight + 1))
    n_extra = int(rng.integers(0, n_targets * n_feats))
    for _ in range(n_extra):
        t = int(rng.integers(0, n_targets))
        j = int(rng.integers(0, n_feats))
        entries[((t,), (j,))] = float(rng.integers(1, max_weight + 1))
    return entries, n_targets, n_feats


def random_query(rng: np.random.Generator, n_feats, max_weight=20, integer=True):
    """Random nonempty feature-count map over one dimension."""
    k = int(rng.integers(1, min(n_feats, 10) + 1))
    feats = rng.choice(n_feats, size=k, replace=False)
    out = {}
    for j in feats:
        if integer:
            out[(int(j),)] = float(rng.integers(1, max_weight + 1))
        else:
            out[(int(j),)] = float(rng.uniform(0.1, max_weight))
    return out


def query_obs(qdict, n_dims=1, phases=None, scale=1.0) -> EncodedObservation:
    """Wrap a flat feature map as a one-dimensional query observation."""
    assert n_dims == 1
    dim_map = {idx[0]: w for idx, w in qdict.items()}
    return EncodedObservation(
        label_weights=(),
        feature_weights=(dim_map,),
        scale=scale,
        phases=dict(phases) if phases else None,
    )


def labeled_obs(target: int, qdict, n_feature_dims=1) -> EncodedObservation:
    """Single-label training observation over one feature dimension."""
    dim_map = {idx[0]: w for idx, w in qdict.items()}
    maps = [dict() for _ in range(n_feature_dims)]
    maps[0] = dim_map
    return EncodedObservation(
        label_weights=({target: 1.0},),
        feature_weights=tuple(maps),
    )
