"""End-to-end timing at text-classification scale on synthetic data.

Generates a corpus with the shape of a large newsgroup-style problem
(defaults: 20 classes, 180k vocabulary, ~11k train / ~7.5k test documents,
zipf token frequencies with planted class-specific signal) and times the
full pipeline: encode, fit, batch predict.  Timings are reported, never
asserted.

Usage:
    python benchmarks/bench_end_to_end.py [--train N] [--test N] [--vocab N]
"""
from __future__ import annotations

import argparse
import time

import numpy as np

import sparseborn as sb


def make_records(n, n_classes, vocab_size, doc_len, seed):
    rng = np.random.default_rng(seed)
    slice_size = vocab_size // n_classes
    records = []
    for _ in range(n):
        c = int(rng.integers(0, n_classes))
        noise = (rng.zipf(1.3, size=doc_len) - 1) % vocab_size
        signal = c * slice_size + (rng.zipf(1.3, size=doc_len // 3) - 1) % slice_size
        tokens = np.concatenate([noise, signal])
        values, counts = np.unique(tokens, return_counts=True)
        records.append(
            sb.RawRecord(
                labels=[("label", f"class{c:02d}")],
                features=[("token", f"t{v}", float(k)) for v, k in zip(values, counts)],
            )
        )
    return records


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--classes", type=int, default=20)
    parser.add_argument("--vocab", type=int, default=180_000)
    parser.add_argument("--train", type=int, default=11_314)
    parser.add_argument("--test", type=int, default=7_532)
    parser.add_argument("--doc-len", type=int, default=140)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    t0 = time.perf_counter()
    train = make_records(args.train, args.classes, args.vocab, args.doc_len, args.seed)
    test = make_records(args.test, args.classes, args.vocab, args.doc_len, args.seed + 1)
    t1 = time.perf_counter()
    print(f"generated {len(train)} train / {len(test)} test records in {t1 - t0:.1f}s")

    t0 = time.perf_counter()
    vocab = sb.Vocabulary()
    observations = sb.encode(train, vocab, grow=True)
    model = sb.fit(observations, vocab, hyper=sb.Hyperparams(1, 1, 0.5))
    t1 = time.perf_counter()
    queries = sb.encode(test, model.vocab, grow=False)
    results = model.predict_batch(queries, k=1)
    t2 = time.perf_counter()
    predictions = [model.vocab.decode_target(ranked[0]) for ranked, _, _ in results]
    truths = [(rec.labels[0][1],) for rec in test]
    report = sb.score(predictions, truths)
    print(
        f"corpus: {vocab.target_space_size()} classes, "
        f"{sum(len(d) for d in vocab.feature_dims)} features, "
        f"{len(model.corpus)} nonzeros"
    )
    print(
        f"encode+fit {t1 - t0:.2f}s   "
        f"predict {t2 - t1:.2f}s   "
        f"accuracy {report.accuracy:.3f}   macro-F1 {report.macro_f1:.3f}"
    )


if __name__ == "__main__":
    main()
