"""A batch is predicted exactly as each of its queries alone.

``Model.predict_batch`` walks the policy once for the whole batch: each
level sums every undecided query with one kernel call, and only the queries
still degenerate go on to the next step.  A query's result must not depend
on the rest of its batch, bit for bit.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import make_model, query_obs
from sparseborn import _kernels
from sparseborn import model as model_module
from sparseborn.data import EncodedObservation, Vocabulary
from sparseborn.errors import ShapeError
from sparseborn.explain import FeatureAttribution, aggregate_local
from sparseborn.policy import Policy

# Feature dimension sizes of the vocabulary.  The corpus never uses the last
# value of dimension 2, so a query holding it misses the full level and
# falls back at least one policy step.
SIZES = (4, 3, 3)
KINDS = ("known", "fallback", "unknown", "sparse")


def corpus(rng, n_targets=3):
    entries = {}
    for t in range(n_targets):
        for _ in range(12):
            feat = (int(rng.integers(4)), int(rng.integers(3)), int(rng.integers(2)))
            entries[((t,), feat)] = entries.get(((t,), feat), 0.0) + float(rng.integers(1, 9))
    return entries


def query(rng, kind, phased):
    """One query of the given kind.

    ``known`` holds values the corpus uses (usually decided at the full
    level), ``fallback`` a value only the vocabulary knows, ``unknown`` no
    value at all (the terminal prior) and ``sparse`` one empty dimension.
    """
    maps = []
    for size in SIZES:
        chosen = rng.choice(size, size=int(rng.integers(1, 3)), replace=False)
        maps.append({int(j): float(rng.integers(1, 5)) for j in chosen})
    if kind == "known":
        maps[2] = {int(rng.integers(2)): 1.0}
    elif kind == "fallback":
        maps[2] = {2: 1.0}
    elif kind == "unknown":
        maps = [{}, {}, {}]
    else:
        maps[int(rng.integers(3))] = {}
    phases = None
    if phased and kind == "known":
        full = tuple(next(iter(m)) for m in maps)
        phases = {full: float(rng.uniform(-1, 1))}
    return EncodedObservation(label_weights=(), feature_weights=tuple(maps), phases=phases)


def bits(result):
    """A predict_batch triple with every float spelled exactly."""
    ranked, dist, depth = result
    return ranked, [(t, p.hex()) for t, p in dist.items()], depth


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=10),
    phased=st.booleans(),
    k=st.integers(1, 4),
)
def test_batch_prediction_equals_per_query_prediction(seed, kinds, phased, k):
    rng = np.random.default_rng(seed)
    entries = corpus(rng)
    phases = None
    if phased:
        phases = {cell: float(rng.uniform(-2, 2)) for cell in list(entries)[::2]}
    h, b, p = rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0.25, 2)
    model = make_model(entries, 3, list(SIZES), h=h, b=b, p=p, phases=phases)
    queries = [query(rng, kind, phased) for kind in kinds]
    batch = model.predict_batch(queries, k=k)
    assert len(batch) == len(queries)
    terminal = len(model.policy.steps) - 1
    for kind, q, got in zip(kinds, queries, batch):
        assert bits(got) == bits(model.predict_batch([q], k=k)[0])
        if kind == "unknown":
            assert got[2] == terminal and got[1] == model.target_prior()
        if kind == "fallback":
            assert got[2] > 0


def test_batch_mix_reaches_every_kind_of_level():
    rng = np.random.default_rng(3)
    model = make_model(corpus(rng), 3, list(SIZES))
    queries = [query(rng, kind, False) for kind in KINDS for _ in range(5)]
    depths = {d for _, _, d in model.predict_batch(queries)}
    assert 0 in depths and len(model.policy.steps) - 1 in depths
    assert len(depths) >= 3


@pytest.mark.parametrize(
    "bad",
    [
        ({0: 1.0}, {7: 1.0}, {0: 1.0}),  # index outside dimension 1
        ({0: 1.0}, {0: 1.0}),  # one feature dimension short
    ],
)
def test_one_bad_query_fails_the_whole_batch(bad):
    rng = np.random.default_rng(4)
    model = make_model(corpus(rng), 3, list(SIZES))
    good = [query(rng, kind, False) for kind in KINDS]
    batch = good[:2] + [EncodedObservation(label_weights=(), feature_weights=bad)] + good[2:]
    with pytest.raises(ShapeError):
        model.predict_batch(batch)
    assert model.predict_batch(good) == [model.predict_batch([q])[0] for q in good]


def test_one_wide_query_among_narrow_ones_keeps_kernel_calls_bounded(monkeypatch):
    # a long document in a file of short ones: sub-batches keep every kernel
    # call within BATCH_ADDENDS addends unless the call holds that query alone
    rng = np.random.default_rng(5)
    n_feats = 400
    entries = {
        ((t,), (j,)): float(rng.integers(1, 9))
        for t in range(3) for j in range(n_feats) if rng.random() < 0.7
    }
    model = make_model(entries, 3, [n_feats])
    narrow = [
        {(int(j),): float(rng.integers(1, 5)) for j in rng.choice(n_feats, size=3, replace=False)}
        for _ in range(40)
    ]
    wide = {(j,): 1.0 for j in range(0, n_feats, 2)}
    empty = [{}] * 30  # no feature, but a row of the accumulators each
    queries = [query_obs(q) for q in narrow[:20] + empty + [wide] + narrow[20:] + empty]
    expected = [bits(model.predict_batch([q])[0]) for q in queries]
    aggregate = aggregate_local(model, queries)
    calls = []

    def counting(col_ptr, rows, amp, qcols, qvals, acc, _kernel=_kernels.accum_real):
        result = _kernel(col_ptr, rows, amp, qcols, qvals, acc)
        calls.append((len(acc), len(qcols), len(result[1])))
        return result

    monkeypatch.setattr(_kernels, "accum_real", counting)
    monkeypatch.setattr(model_module, "BATCH_ADDENDS", 60)
    assert [bits(r) for r in model.predict_batch(queries)] == expected
    assert len(calls) > 3
    for n_queries, n_cells, n_addends in calls:
        # n_cells counts the known features and a separator between queries
        assert n_queries == 1 or (n_addends <= 60 and (n_cells + 1) * 3 <= 60)
    # the wide query went alone
    assert any(n_queries == 1 and n_addends > 60 for n_queries, _, n_addends in calls)
    # an aggregate sums each target's features in query order across sub-batches
    assert repr(aggregate_local(model, queries)) == repr(aggregate)


def reference_aggregate(model, queries, k):
    """``aggregate_local`` from one ``predict`` per query: the moduli of each query's
    contributions for its top target, summed per (top target, kept dimensions, feature)
    in query order; each target's candidates ranked by score, ties to the smaller feature
    index (then the earlier first query), shares over all of them."""
    buckets = {}  # (top, kept) -> {feature: running sum}, in first-query order
    for q in queries:
        prediction = model.predict(q)
        if not prediction.kept_dims:  # the terminal prior: no feature carried evidence
            continue
        top = prediction.top(1)[0][0]
        sums = buckets.setdefault((top, prediction.kept_dims), {})
        for (t, f), (modulus, _) in prediction.contributions.items():
            if t == top:
                sums[f] = sums.get(f, 0.0) + modulus
    by_target = {}
    for (top, kept), sums in buckets.items():
        by_target.setdefault(top, []).extend((f, s, kept) for f, s in sorted(sums.items()))
    out = {}
    for top, candidates in by_target.items():
        candidates.sort(key=lambda c: c[0])
        candidates.sort(key=lambda c: -c[1])
        total = math.fsum(s for _, s, _ in candidates)
        decoded = model.vocab.decode_target(top)
        out[decoded] = [
            FeatureAttribution(
                decoded, top, model.vocab.decode_feature(f, kept), f, s, s / total if total > 0 else 0.0
            )
            for f, s, kept in candidates[:k]
        ]
    return list(out.items())


POLICIES = (Policy.default(3), Policy.from_lists([[0, 1, 2], [0, 1], [1], []]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(KINDS), max_size=40),
    phased=st.booleans(),
    policy=st.sampled_from(POLICIES),
    batch_addends=st.sampled_from([model_module.BATCH_ADDENDS, 60, 24]),
    k=st.sampled_from([None, 1, 3]),
)
def test_aggregate_equals_summed_single_predictions(seed, kinds, phased, policy, batch_addends, k):
    rng = np.random.default_rng(seed)
    entries = corpus(rng)
    phases = {cell: float(rng.uniform(-2, 2)) for cell in list(entries)[::2]} if phased else None
    model = make_model(entries, 3, list(SIZES), phases=phases, policy=policy)
    # the mix reaches depth 0, a middle depth and the prior
    queries = [query(rng, kind, phased) for kind in ["known", "fallback", "unknown", *kinds]]
    assume({0, len(policy.steps) - 1} < {depth for _, _, depth in model.predict_batch(queries)})
    with mock.patch.object(model_module, "BATCH_ADDENDS", batch_addends):
        assert list(aggregate_local(model, queries, k).items()) == reference_aggregate(model, queries, k)


def test_one_batch_reads_the_vocabulary_shape_once(monkeypatch):
    rng = np.random.default_rng(11)
    model = make_model(corpus(rng), 3, list(SIZES))
    queries = [query(rng, kind, False) for kind in KINDS * 3]
    reads = []
    shape = Vocabulary.shape
    monkeypatch.setattr(Vocabulary, "shape", lambda vocab: reads.append(vocab) or shape(vocab))
    model.predict_batch(queries)
    assert len(reads) == 1
