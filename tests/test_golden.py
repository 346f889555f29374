"""Golden outputs of two fixed models, pinned so that refactors change nothing.

* A reduced newsgroup-shaped text model (``make_records`` from
  ``benchmarks/bench_end_to_end.py``: 600 train / 200 test documents, 20
  classes).  It runs on the real path only, so every value must match
  bitwise.
* A zoo tensor-mode model with a ``PhaseTable``, query phases and a learned
  policy, so that predictions fall back to contracted levels.  Distributions
  evaluated at the full level run the phase kernel, whose cos/sin may differ
  by an ulp between the compiled and numpy backends; those match to 1e-12.
  Everything else (contributions, attributions, fallback levels) is exact.

The expected values live in ``golden_outputs.json``.  After a deliberate
change of behaviour, rewrite it with ``python tests/test_golden.py`` (with
``src`` on ``PYTHONPATH``) and review the diff.
"""
from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from sparseborn.data import Vocabulary, encode, load_tabular
from sparseborn.evaluate import score
from sparseborn.explain import aggregate_local, explain_global, explain_local
from sparseborn.model import Hyperparams, PhaseTable, fit
from sparseborn.policy import learn_policy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_outputs.json"
PHASE_TOL = 1e-12


def _make_records():
    spec = importlib.util.spec_from_file_location(
        "bench_end_to_end", ROOT / "benchmarks" / "bench_end_to_end.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_records


def _rows(rows):
    return [
        [list(r.target or ()), list(r.feature), list(r.feature_index), r.score, r.share, r.angle]
        for r in rows
    ]


def _batch(results):
    return [
        [[list(t) for t in ranked], [[list(t), p] for t, p in sorted(dist.items())], depth]
        for ranked, dist, depth in results
    ]


def _contributions(prediction):
    return [
        [list(t), list(f), modulus, angle]
        for (t, f), (modulus, angle) in sorted(prediction.contributions.items())
    ]


def _aggregate(model, queries):
    return [
        [list(target), _rows(rows)]
        for target, rows in sorted(aggregate_local(model, queries).items())
    ]


def _digest(value) -> str:
    """SHA-256 of the JSON text; floats are written with repr, so bitwise."""
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def text_outputs():
    make_records = _make_records()
    train = make_records(600, 20, 180_000, 140, 0)
    test = make_records(200, 20, 180_000, 140, 1)
    vocab = Vocabulary()
    model = fit(encode(train, vocab, grow=True), vocab, hyper=Hyperparams(1, 1, 0.5))
    queries = encode(test, model.vocab, grow=False)
    results = model.predict_batch(queries, k=3)
    predicted = [model.vocab.decode_target(ranked[0]) for ranked, _, _ in results]
    accuracy = score(predicted, [(rec.labels[0][1],) for rec in test]).accuracy
    other = model.vocab.decode_target(results[0][0][-1])
    bulky = {
        "predict_batch": _batch(results),
        "predict_labels": [model.predict_labels(q, k=2) for q in queries[:20]],
        "contributions": [_contributions(model.predict(q)) for q in queries[:3]],
        "explain_local": [_rows(explain_local(model, q)) for q in queries[:20]],
        "explain_local_other_target": _rows(explain_local(model, queries[0], target=other, k=10)),
        "aggregate_local": _aggregate(model, queries[:50]),
        "explain_global": [
            _rows(explain_global(model, t, k=25)) for t in model.vocab.target_dims[0].values[:3]
        ],
    }
    out = {
        "accuracy": accuracy,
        "depths": [depth for _, _, depth in results],
        "top1": [list(t) for t in predicted],
        "explain_local_head": _rows(explain_local(model, queries[0], k=5)),
    }
    out.update({f"sha256:{name}": _digest(value) for name, value in bulky.items()})
    return out


def _zoo_model():
    records = load_tabular(
        ROOT / "data" / "zoo.csv", ["type"], mode="tensor", drop_columns=["animal_name"]
    )
    order = np.random.default_rng(5).permutation(len(records))
    train = [records[i] for i in order[:70]]
    held = [records[i] for i in order[70:]]
    vocab = Vocabulary()
    observations = encode(train, vocab, grow=True)
    cells = sorted(fit(observations, vocab).corpus.entries)
    phases = PhaseTable({cell: 0.25 * (n % 7) - 0.5 for n, cell in enumerate(cells) if n % 3})
    model = fit(observations, vocab, hyper=Hyperparams(1, 1, 0.5), phases=phases)
    queries = encode(held, model.vocab, grow=False)
    for n, q in enumerate(queries[::2]):
        full = tuple(next(iter(sorted(m))) for m in q.feature_weights if m)
        if len(full) == model.n_feature_dims:
            q.phases = {full: 0.1 * (n % 5) - 0.15}
    policy, report = learn_policy(model, queries)
    model.policy = policy
    return model, queries, report


def zoo_outputs():
    model, queries, report = _zoo_model()
    predictions = [model.predict(q) for q in queries]
    return {
        "policy": model.policy.to_lists(),
        "report": report.to_text(),
        "predict_batch": _batch(model.predict_batch(queries, k=3)),
        "predict_at_dims": [
            sorted([list(t), p] for t, p in (model.predict_at_dims(q, dims) or {}).items())
            for q in queries[:8]
            for dims in ((0, 3, 12), (5,), (7, 8))
        ],
        "contributions": [_contributions(p) for p in predictions],
        "kept_dims": [list(p.kept_dims) for p in predictions],
        "explain_local": [_rows(explain_local(model, q)) for q in queries],
        "explain_local_target": [
            _rows(explain_local(model, q, target=("Bird",), k=4)) for q in queries
        ],
        "aggregate_local": _aggregate(model, queries),
        "explain_global": [
            _rows(explain_global(model, t, k=10)) for t in model.vocab.target_dims[0].values
        ],
    }


def _assert_close(got, want, tol, where="$"):
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert got == want or abs(got - want) <= tol, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for n, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, tol, f"{where}[{n}]")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _roundtrip(value):
    return json.loads(json.dumps(value))


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_text_model_outputs_are_bitwise_golden():
    got = _roundtrip(text_outputs())
    want = _golden()["text"]
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name


def test_zoo_phase_model_outputs_match_golden():
    got = _roundtrip(zoo_outputs())
    want = _golden()["zoo"]
    assert got.keys() == want.keys()
    assert any(depth > 0 for _, _, depth in want["predict_batch"])
    for name in want:
        if name == "predict_batch":
            continue
        _assert_close(got[name], want[name], 0.0, name)
    for n, (g, w) in enumerate(zip(got["predict_batch"], want["predict_batch"])):
        # the phase kernel runs only at the full level (depth 0)
        _assert_close(g, w, PHASE_TOL if w[2] == 0 else 0.0, f"predict_batch[{n}]")


if __name__ == "__main__":
    payload = {"text": text_outputs(), "zoo": zoo_outputs()}
    GOLDEN.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
