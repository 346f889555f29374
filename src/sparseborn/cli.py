"""Command-line front end: train, predict, explain, learn-policy, evaluate.

Defaults reproduce the standard quantum configuration (h=1, b=1, p=1/2,
zero phases, matrix-mode policy).  Every command exits 0 on success and
nonzero with a one-line ``error: ...`` message on any failure.  All output
tables are plain delimiter-separated text.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import List, Sequence

from . import data as data_mod
from . import evaluate as eval_mod
from . import explain as explain_mod
from .errors import SparsebornError
from .model import Hyperparams, fit, load
from .policy import learn_policy


def _add_hyper_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--h", type=float, default=1.0, help="entropy exponent (default 1)")
    parser.add_argument("--b", type=float, default=1.0, help="balance exponent (default 1)")
    parser.add_argument("--p", type=float, default=0.5, help="amplitude power (default 1/2)")


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--targets", default="", help="comma-separated target column names (tabular data)")
    parser.add_argument("--mode", choices=("fold", "tensor"), default="fold",
                        help="tabular encoding: one folded feature dimension or one per column")
    parser.add_argument("--delimiter", default=",", help="tabular field delimiter")
    parser.add_argument("--missing", choices=("token", "drop"), default="token",
                        help="missing tabular values: explicit NA token or dropped")
    parser.add_argument("--drop-columns", default="", help="comma-separated columns to ignore")
    parser.add_argument("--normalize", action="store_true",
                        help="scale each observation's counts to sum to 1")
    parser.add_argument("--format", choices=("auto", "tabular", "tokens", "tree"),
                        default="auto", help="input data format (default: by extension)")


def _load_records(path: str, args) -> List[data_mod.RawRecord]:
    fmt = args.format
    if fmt == "auto":
        if os.path.isdir(path):
            fmt = "tree"
        elif path.endswith((".jsonl", ".json", ".ndjson")):
            fmt = "tokens"
        else:
            fmt = "tabular"
    if fmt == "tree":
        return data_mod.load_text_tree(path)
    if fmt == "tokens":
        return data_mod.load_token_records(path)
    targets = [c for c in args.targets.split(",") if c]
    drop = [c for c in args.drop_columns.split(",") if c]
    return data_mod.load_tabular(
        path,
        target_columns=targets,
        mode=args.mode,
        delimiter=args.delimiter,
        missing=args.missing,
        drop_columns=drop,
    )


def _out_stream(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def cmd_train(args) -> int:
    records = _load_records(args.data, args)
    vocab = data_mod.Vocabulary()
    observations = data_mod.encode(records, vocab, grow=True, normalize=args.normalize)
    model = fit(observations, vocab, hyper=Hyperparams(h=args.h, b=args.b, p=args.p))
    model.save(args.model)
    classes = vocab.target_space_size()
    features = sum(len(d) for d in vocab.feature_dims)
    print(
        f"trained on {len(records)} records: {classes} target classes, "
        f"{features} features, {len(model.corpus)} corpus nonzeros -> {args.model}"
    )
    return 0


def cmd_predict(args) -> int:
    model = load(args.model)
    records = _load_records(args.data, args)
    observations = data_mod.encode(records, model.vocab, grow=False)
    results = model.predict_batch(observations, k=args.top_k)
    stream, owned = _out_stream(args.out)
    try:
        header = ["record", "fallback_depth"]
        for i in range(1, args.top_k + 1):
            header += [f"label_{i}", f"prob_{i}"]
        stream.write("\t".join(header) + "\n")
        for idx, (ranked, dist, depth) in enumerate(results):
            row = [str(idx), str(depth)]
            for t in ranked:
                row += [eval_mod._label_str(model.vocab.decode_target(t)), f"{dist[t]:.12g}"]
            for _ in range(args.top_k - len(ranked)):
                row += ["", ""]
            stream.write("\t".join(row) + "\n")
    finally:
        if owned:
            stream.close()
    return 0


def _write_attributions(stream, rows: Sequence[explain_mod.FeatureAttribution]) -> None:
    stream.write("\t".join(["target", "feature", "score", "share", "angle"]) + "\n")
    for r in rows:
        target = eval_mod._label_str(r.target) if r.target is not None else ""
        values = [f"{v:.12g}" for v in (r.score, r.share, r.angle)]
        stream.write("\t".join([target, eval_mod._label_str(r.feature), *values]) + "\n")


def cmd_explain(args) -> int:
    model = load(args.model)
    stream, owned = _out_stream(args.out)
    try:
        if args.explain_mode == "global":
            targets = [t for t in args.targets.split(",") if t]
            if not targets:
                print("error: global explanation needs --targets", file=sys.stderr)
                return 1
            rows = [r for t in targets for r in explain_mod.explain_global(model, t, k=args.top_k)]
        elif args.explain_mode == "discriminative":
            rows = explain_mod.discriminative_features(model, args.top_k)
        else:
            records = _load_records(args.data, args)
            observations = data_mod.encode(records, model.vocab, grow=False)
            if args.explain_mode == "local":
                rows = [
                    r for obs in observations
                    for r in explain_mod.explain_local(model, obs, k=args.top_k)
                ]
            else:  # aggregate
                grouped = explain_mod.aggregate_local(model, observations, k=args.top_k)
                rows = [r for target in sorted(grouped) for r in grouped[target]]
        _write_attributions(stream, rows)
    finally:
        if owned:
            stream.close()
    return 0


def cmd_learn_policy(args) -> int:
    model = load(args.model)
    records = _load_records(args.data, args)
    observations = data_mod.encode(records, model.vocab, grow=False)
    policy, report = learn_policy(model, observations, loss_p=args.loss_p)
    model.policy = policy
    out = args.out or args.model
    model.save(out)
    text = report.to_text()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(f"policy: {policy.to_lists()} -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    stream, owned = _out_stream(args.out)
    try:
        if args.train or args.test:
            if not (args.train and args.test):
                print("error: holdout evaluation needs both --train and --test", file=sys.stderr)
                return 1
            train = _load_records(args.train, args)
            test = _load_records(args.test, args)
            config = Hyperparams(h=args.h, b=args.b, p=args.p)
            report, timing = eval_mod.holdout_experiment(
                train, test, config, normalize=args.normalize
            )
            stream.write(report.to_table() + "\n")
            stream.write(
                f"train_seconds\t{timing['train_seconds']:.3f}\n"
                f"predict_seconds\t{timing['predict_seconds']:.3f}\n"
            )
        else:
            if not args.data:
                print("error: repeated-split evaluation needs --data", file=sys.stderr)
                return 1
            records = _load_records(args.data, args)
            if args.custom_config:
                configs = [("custom", Hyperparams(h=args.h, b=args.b, p=args.p))]
            else:
                configs = list(eval_mod.DEFAULT_CONFIGS)
            result = eval_mod.repeated_split_experiment(
                records,
                n_runs=args.runs,
                test_fraction=args.test_fraction,
                configs=configs,
                seed=args.seed,
                normalize=args.normalize,
            )
            stream.write(result.to_table() + "\n")
    finally:
        if owned:
            stream.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseborn",
        description="Quantum-inspired sparse count-tensor classifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model and write the archive")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--model", required=True, help="output archive path")
    _add_data_flags(p_train)
    _add_hyper_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="rank targets for each record")
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--out", default=None, help="output path (default stdout)")
    p_pred.add_argument("--top-k", type=int, default=1)
    _add_data_flags(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_exp = sub.add_parser("explain", help="write feature attributions")
    p_exp.add_argument("--model", required=True)
    p_exp.add_argument("--explain-mode",
                       choices=("global", "local", "aggregate", "discriminative"),
                       default="global")
    p_exp.add_argument("--data", default=None, help="query records for local/aggregate mode")
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--top-k", type=int, default=10)
    _add_data_flags(p_exp)
    p_exp.set_defaults(func=cmd_explain)

    p_pol = sub.add_parser("learn-policy", help="learn the fallback contraction order")
    p_pol.add_argument("--model", required=True)
    p_pol.add_argument("--data", required=True, help="labeled validation records")
    p_pol.add_argument("--out", default=None, help="output archive (default: overwrite --model)")
    p_pol.add_argument("--report", default=None, help="write the search report here")
    p_pol.add_argument("--loss-p", type=float, default=2.0)
    _add_data_flags(p_pol)
    p_pol.set_defaults(func=cmd_learn_policy)

    p_eval = sub.add_parser("evaluate", help="repeated-split or holdout experiment")
    p_eval.add_argument("--data", default=None, help="records for repeated random splits")
    p_eval.add_argument("--train", default=None, help="holdout: training records")
    p_eval.add_argument("--test", default=None, help="holdout: test records")
    p_eval.add_argument("--runs", type=int, default=100)
    p_eval.add_argument("--test-fraction", type=float, default=0.3)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", default=None)
    p_eval.add_argument("--custom-config", action="store_true",
                        help="evaluate only the --h/--b/--p configuration")
    _add_data_flags(p_eval)
    _add_hyper_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SparsebornError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
