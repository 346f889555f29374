"""Write the synthetic text corpora of one benchmark run as JSONL files.

Runs as its own process so that the generator's memory never counts
towards the measured process's peak RSS.  Records come from
``make_records`` in ``benchmarks/bench_end_to_end.py`` (the newsgroup-shaped
generator: 20 classes, 180k-token vocabulary, zipf noise plus planted
class signal), and every part of a run draws from its own seed derived
from the one ``--seed`` argument.

Usage:
    python3 perfbench/gen.py --workload text-online --seed N --out DIR

writes ``DIR/<part>.jsonl`` for every part of the workload listed in ``PARTS``.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import sys
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATOR = ROOT / "benchmarks" / "bench_end_to_end.py"

CLASSES = 20
VOCAB = 180_000
DOC_LEN = 140

# Record counts of the generated parts of the text workload.
PARTS = {
    "text-online": {"base": 3_000, "stream": 800, "queries": 800},
}


def derive_seed(seed: int, purpose: str) -> int:
    """A 32-bit seed for one purpose (train, test, stream, ...) of one run seed."""
    import numpy as np

    seed = int(seed)
    entropy = [abs(seed), zlib.crc32(purpose.encode("ascii"))] + ([1] if seed < 0 else [])
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def load_make_records():
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location("bench_end_to_end", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_records


def write_jsonl(records, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "labels": [value for _, value in rec.labels],
                "tokens": {token: count for _, token, count in rec.features},
            }
            fh.write(json.dumps(obj, separators=(",", ":")))
            fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(PARTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    make_records = load_make_records()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, count in PARTS[args.workload].items():
        records = make_records(count, CLASSES, VOCAB, DOC_LEN, derive_seed(args.seed, name))
        write_jsonl(records, out / f"{name}.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
