"""Byte-level golden digests of the command-line front end on ``data/zoo.csv``.

A fixed command matrix runs ``main()`` in-process, in fold and tensor mode:
``train``, ``predict --top-k 3``, ``explain`` in all four modes,
``learn-policy`` followed by ``predict`` with the learned policy,
``evaluate --runs 5 --seed 3``, holdout ``evaluate --train --test`` and a
few failing runs.  Each run's exit code, the SHA-256 of its stdout and
stderr, and the SHA-256 of every file it creates or changes are pinned.  The
temporary directory is replaced by a placeholder before hashing, so the
digests do not depend on where the test runs.  Holdout evaluation prints its
wall-clock ``train_seconds`` and ``predict_seconds``; those two values are
masked before hashing, and everything else it prints is pinned.

The expected digests live in ``golden_cli.json``.  After a deliberate change
of output, rewrite it with ``python tests/test_cli_golden.py`` (with ``src``
on ``PYTHONPATH``) and review the diff.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

from sparseborn.cli import main

ROOT = Path(__file__).resolve().parent.parent
ZOO = str(ROOT / "data" / "zoo.csv")
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
PLACEHOLDER = "<tmp>"
SECONDS = re.compile(rb"^((?:train|predict)_seconds\t)[0-9.]+$", re.MULTILINE)


def _commands(tmp: str, mode: str):
    def at(name):
        return f"{tmp}/{mode}-{name}"

    data = ["--targets", "type", "--drop-columns", "animal_name", "--mode", mode]
    model = ["--model", at("model.json")]
    policy = ["--model", at("policy.json")]
    return [
        ["train", "--data", ZOO, *model, *data],
        ["predict", "--data", ZOO, *model, "--top-k", "3", *data],
        ["predict", "--data", ZOO, *model, "--top-k", "3", "--out", at("predict.tsv"), *data],
        ["explain", *model, "--targets", "Mammal,Bird", "--top-k", "5"],
        ["explain", *model, "--explain-mode", "local", "--data", ZOO, "--top-k", "3", *data],
        ["explain", *model, "--explain-mode", "aggregate", "--data", ZOO,
         "--out", at("aggregate.tsv"), *data],
        ["explain", *model, "--explain-mode", "discriminative"],
        ["learn-policy", *model, "--data", ZOO, "--out", at("policy.json"),
         "--report", at("report.txt"), *data],
        ["predict", "--data", ZOO, *policy, "--top-k", "3", *data],
        ["learn-policy", *model, "--data", ZOO, *data],
        ["evaluate", "--data", ZOO, "--runs", "5", "--seed", "3", *data],
        ["evaluate", "--data", ZOO, "--runs", "5", "--seed", "3", "--custom-config",
         "--p", "1", "--out", at("evaluate.tsv"), *data],
        ["explain", *model, "--targets", "Nope"],
        ["explain", *model, "--explain-mode", "local"],
        ["evaluate", "--train", ZOO, *data],
        ["evaluate", "--train", ZOO, "--test", ZOO, *data],
    ]


def _digest(raw: bytes, tmp: str) -> str:
    return hashlib.sha256(raw.replace(tmp.encode(), PLACEHOLDER.encode())).hexdigest()


def run_matrix() -> list:
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for mode in ("fold", "tensor"):
            for argv in _commands(tmp, mode):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                now = {p.name: _digest(p.read_bytes(), tmp) for p in sorted(Path(tmp).iterdir())}
                runs.append({
                    "argv": " ".join(argv).replace(tmp, PLACEHOLDER).replace(ZOO, "<zoo>"),
                    "code": code,
                    "stdout": _digest(SECONDS.sub(rb"\1<seconds>", out.getvalue().encode()), tmp),
                    "stderr": _digest(err.getvalue().encode(), tmp),
                    "files": {k: v for k, v in now.items() if files.get(k) != v},
                })
                files = now
    return runs


def test_cli_bytes_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    actual = run_matrix()
    assert [r["argv"] for r in actual] == [r["argv"] for r in expected]
    for got, want in zip(actual, expected):
        assert got == want, got["argv"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_matrix(), indent=1) + "\n")
