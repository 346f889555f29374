"""The package still offers every name that the perfbench tracer wraps.

``perfbench/tracing.py`` swaps the functions and methods listed in its
``TARGETS`` for timing wrappers.  A target that has moved is only reported
as absent, and the traced run loses every metric that needs it.  The first
tests read ``TARGETS`` from that file (without importing it) and resolve
each entry the way ``Tracer._install_one`` does.  The last ones install the
tracer itself over a small text and a small tabular workload and check that
every per-layer metric comes out, with the kernel counters matching the
addends the kernels actually summed.
"""
import ast
import importlib
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

import sparseborn
from sparseborn import _kernels

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
ZOO = Path(__file__).resolve().parents[1] / "data" / "zoo.csv"


def trace_targets():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


def resolves(owner: str, attr: str) -> bool:
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if class_name:
        cls = getattr(module, class_name, None)
        return cls is not None and attr in vars(cls)
    return getattr(module, attr, None) is not None


def test_every_trace_target_resolves():
    targets = trace_targets()
    assert targets
    missing = [(owner, attr) for _, owner, attr in targets if not resolves(owner, attr)]
    assert missing == []


def test_kernel_arguments_keep_their_positions():
    # the tracer's kernel hook unpacks 6 (real) or 9 (phase) positional arguments
    assert len(inspect.signature(_kernels.accum_real).parameters) == 6
    assert len(inspect.signature(_kernels.accum_complex).parameters) == 9


def test_kernel_backend_is_reported():
    assert sparseborn.KERNEL_BACKEND == "python"


def text_records(tmp_path, n, seed):
    """``n`` labelled token records over four classes, read back from JSONL."""
    rng = np.random.default_rng(seed)
    path = tmp_path / f"text{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for _ in range(n):
            c = int(rng.integers(4))
            tokens = {f"w{int(j)}": int(rng.integers(1, 4)) for j in rng.integers(0, 60, size=12)}
            tokens[f"sig{c}"] = 3
            fh.write(json.dumps({"labels": [f"c{c}"], "tokens": tokens}) + "\n")
    return sparseborn.load_token_records(path)


def traced_workload(tmp_path):
    """Every traced layer once: text fit, update, predict, explain, policy, archive,
    then policy search and prediction on a tensor-mode zoo model with phases."""
    vocab = sparseborn.Vocabulary()
    base = sparseborn.encode(text_records(tmp_path, 60, 1), vocab, grow=True)
    model = sparseborn.fit(base, vocab)
    model.update(sparseborn.encode(text_records(tmp_path, 20, 2), model.vocab, grow=True))
    queries = sparseborn.encode(text_records(tmp_path, 15, 3), model.vocab)
    results = model.predict_batch(queries, k=2)
    assert [r[0][:1] for r in results] == [model.predict_batch([q])[0][0] for q in queries]
    for q in queries[:3]:
        sparseborn.explain_local(model, q, k=5)
    sparseborn.learn_policy(model, queries)
    archive = tmp_path / "model.json"
    model.save(archive)
    sparseborn.load(archive)
    records = sparseborn.load_tabular(ZOO, ["type"], mode="tensor", drop_columns=["animal_name"])
    zoo_vocab = sparseborn.Vocabulary()
    observations = sparseborn.encode(records[:70], zoo_vocab, grow=True)
    cells = sorted(sparseborn.fit(observations, zoo_vocab).corpus.entries)[::3]
    phases = sparseborn.PhaseTable({cell: 0.5 for cell in cells})
    zoo = sparseborn.fit(observations, zoo_vocab, phases=phases)
    zoo.policy = sparseborn.learn_policy(zoo, sparseborn.encode(records[70:], zoo.vocab))[0]
    zoo.predict_batch(sparseborn.encode(records[70:], zoo.vocab))
    corpus = model.corpus
    return {
        "counts.nnz": len(corpus),
        "counts.bytes_per_nnz": (corpus.keys.nbytes + corpus.weights.nbytes) / len(corpus),
        "model.archive_bytes": archive.stat().st_size,
    }


def test_traced_workload_reports_every_layer_metric(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    from tracing import Tracer, layer_metrics

    summed = []  # addends per kernel call, counted from what the kernel returns
    for name in ("accum_real", "accum_complex"):
        def counting(*args, _kernel=getattr(_kernels, name)):
            result = _kernel(*args)
            lengths, entry = result[:2]
            col_ptr, qcols = args[0], args[3] if len(args) == 6 else args[4]
            assert not lengths[qcols == len(col_ptr) - 2].any()  # separators gather nothing
            summed.append((_kernel.__name__, len(entry)))
            return result

        monkeypatch.setattr(_kernels, name, counting)
    tracer = Tracer()
    tracer.install()
    try:
        measured = traced_workload(tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
    metrics, _, absent = layer_metrics(tracer, measured)
    assert absent == []
    for name, value in metrics.items():  # a NaN or an infinity would not be a JSON result
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    json.dumps(metrics, allow_nan=False)
    for name in ("model.query_arrays_s", "kernels.s", "kernels.entries_touched"):
        assert metrics[name] > 0, name
    assert metrics["kernels.calls"] == len(summed)
    assert {name for name, _ in summed} == {"accum_real", "accum_complex"}
    assert tracer.counters["kernels.entries_touched"] == sum(n for _, n in summed)
