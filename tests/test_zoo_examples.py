"""Checks tied to the bundled zoo table (skipped if the file is absent)."""
import os
from pathlib import Path

import pytest

from sparseborn.cli import main
from sparseborn.data import Vocabulary, encode, load_tabular
from sparseborn.model import fit


def zoo_path() -> Path:
    base = os.environ.get("SPARSEBORN_DATA")
    path = (Path(base) if base else Path(__file__).resolve().parent.parent / "data") / "zoo.csv"
    if not path.exists():
        pytest.skip(f"zoo dataset not found at {path}")
    return path


def test_zoo_fold_ingestion_shape():
    records = load_tabular(zoo_path(), ["type"], drop_columns=["animal_name"])
    assert len(records) == 101
    tokens = {tok for rec in records for _, tok, _ in rec.features}
    # 16 attributes, none with more than 6 distinct values
    assert len(tokens) <= 16 * 6
    assert all(len(rec.features) == 16 for rec in records)


def test_zoo_corpus_total_weight_matches_cooccurrence_count():
    records = load_tabular(zoo_path(), ["type"], drop_columns=["animal_name"])
    vocab = Vocabulary()
    observations = encode(records, vocab, grow=True)
    model = fit(observations, vocab)
    # independent pass: one co-occurrence per (row, attribute) per label
    expected = sum(len(rec.features) * len(rec.labels) for rec in records)
    assert sum(model.corpus.weights.tolist()) == pytest.approx(expected, rel=1e-12)
    assert expected == 101 * 16


def test_zoo_has_seven_classes():
    records = load_tabular(zoo_path(), ["type"], drop_columns=["animal_name"])
    vocab = Vocabulary()
    encode(records, vocab, grow=True)
    assert vocab.target_space_size() == 7


def test_cli_train_reports_seven_classes(tmp_path, capsys):
    model = str(tmp_path / "zoo-model.json")
    code = main([
        "train", "--data", str(zoo_path()), "--targets", "type",
        "--drop-columns", "animal_name", "--model", model,
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "7 target classes" in out
