"""Layered benchmark of sparseborn: one workload per run, end to end or traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload text-online --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in the
package.  ``--trace 1`` wraps the calls into each layer with spans and
reports the per-layer metrics instead, plus its own overhead.  The metric
names and units come from ``BENCHMARK.json``.  The last line of standard
output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

and the line before it holds the run information (git commit, kernel
backend, versions, corpus shape, ``src/`` line count, sample counts).
Generated inputs, the archive and the spans of a traced run are written
under ``perfbench/out/``.  The benchmark exits non-zero without a result
when the package sources are not next to it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from gen import PARTS
from stats import median, percentile
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
OVERHEAD_REPEATS = 3
IMPORT_REPEATS = 15


def git_commit() -> str:
    """The checked-out commit read from ``.git``, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    files = sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.pyx"))
    return sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files)


def generate(workload: str, seed: int, out: Path) -> float:
    """Write the workload's text inputs in a child process; returns its wall time."""
    if workload not in PARTS:
        return 0.0
    cmd = [sys.executable, str(HERE / "gen.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True)
    return time.perf_counter() - t0


def import_seconds(speed) -> list:
    """Wall time of ``import sparseborn`` in fresh interpreters.

    numpy is imported before the clock starts: its import is several times
    the package's own, sparseborn cannot change it, and it swings with the
    host's file cache.  Bytecode is cached, as for an installed package,
    whatever ``PYTHONDONTWRITEBYTECODE`` says; the first interpreter writes
    the cache.  The host-speed probe runs before each interpreter starts.
    """
    code = (
        "import sys, time; sys.dont_write_bytecode = False; "
        f"sys.path.insert(0, {str(SRC)!r}); import numpy; "
        "t = time.perf_counter(); import sparseborn; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        speed.probe_now()
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return times


# End-to-end timings scaled by the host's slowdown when each sample was
# taken (see hostspeed.py): times are divided by it, rates multiplied.
RATES = ("train_records_per_s", "predict_records_per_s", "online_records_per_s", "splits_per_s")
TIMES = ("explain_ms", "archive_save_s", "archive_load_s", "policy_search_s")


def end_to_end(session) -> dict:
    s = session
    scaled = {}
    for name in RATES + TIMES:
        power = 1 if name in RATES else -1
        scaled[name] = [v * d**power for v, d in zip(s.samples[name], s.slowdowns[name])]
    metrics = {name: median(scaled[name]) for name in RATES + TIMES if name != "explain_ms"}
    metrics["explain_ms_p50"] = percentile(scaled["explain_ms"], 50)
    metrics["explain_ms_p90"] = percentile(scaled["explain_ms"], 90)
    setup_slowdown = s.setup_speed.slowdown()
    metrics["setup_s"] = s.values["setup_s"] / setup_slowdown
    s.info["raw"] = {name: median(s.samples[name]) for name in RATES + TIMES}
    s.info["raw"]["setup_s"] = s.values["setup_s"]
    s.info["slowdown"] = {"setup": setup_slowdown, "run": s.speed.slowdown()}
    s.info["probes"] = {"setup": len(s.setup_speed.probe_s), "run": len(s.speed.probe_s)}
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["accuracy"] = s.correct_labels / s.scored_labels
    metrics["weighted_f1_quantum"] = s.values["weighted_f1_quantum"]
    metrics["weighted_f1_classic"] = s.values["weighted_f1_classic"]
    s.info["samples"] = {name: len(values) for name, values in sorted(s.samples.items())}
    return metrics


def tracing_overhead(session, tracer) -> float:
    """Median time of the workload's reference call traced over untraced."""
    session.reference()  # warm the level tables
    traced, plain = [], []
    for _ in range(OVERHEAD_REPEATS):
        t0 = time.perf_counter()
        session.reference()
        traced.append(time.perf_counter() - t0)
        tracer.uninstall()
        t0 = time.perf_counter()
        session.reference()
        plain.append(time.perf_counter() - t0)
        tracer.install()
    session.info["trace_overhead"] = {"traced_s": traced, "untraced_s": plain}
    return median(traced) / median(plain)


def per_layer(session, tracer) -> dict:
    metrics, ratios, absent = layer_metrics(tracer, session.measured)
    metrics["trace.overhead_ratio"] = tracing_overhead(session, tracer)
    tracer.uninstall()
    session.info["ratio_bases"] = {name: list(r) for name, r in ratios.items()}
    session.info["absent"] = absent
    session.info["spans"] = len(tracer.spans)
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sparseborn" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    started = time.perf_counter()
    try:
        gen_s = generate(args.workload, args.seed, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        sys.path.insert(0, str(SRC))
        t0 = time.perf_counter()
        import sparseborn

        import_s = time.perf_counter() - t0
        if not Path(sparseborn.__file__).resolve().is_relative_to(SRC):
            print(f"error: imported sparseborn from {sparseborn.__file__}", file=sys.stderr)
            return 2
        import numpy

        from workloads import WORKLOADS, Session

        tracer = Tracer() if args.trace else None
        session = Session(args.workload, args.seed, args.seconds, workdir, tracer, started)
        if tracer:
            tracer.install()
        else:
            session.info["child_import_s"] = import_s_samples = import_seconds(session.setup_speed)
            session.import_s = median(import_s_samples)
        WORKLOADS[args.workload](session)
        metrics = per_layer(session, tracer) if tracer else end_to_end(session)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = set(units) - set(metrics)
    if args.trace:
        missing -= set(session.info["absent"])
    unexpected = set(metrics) - set(units)
    if missing or unexpected:
        raise RuntimeError(f"metrics missing {sorted(missing)}, unexpected {sorted(unexpected)}")

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "kernel_backend": sparseborn.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_loc": src_lines(),
        "generate_s": gen_s,
        "import_s": import_s,
        "failures": session.failures,
        **session.info,
    }
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
            if name in metrics
        },
    }
    OUT.mkdir(exist_ok=True)
    record = {"info": info, "result": result}
    if not tracer:
        record["samples"] = {
            name: {"values": values, "slowdowns": session.slowdowns[name]}
            for name, values in session.samples.items()
        }
    if tracer:
        record["spans"] = tracer.dump()
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
