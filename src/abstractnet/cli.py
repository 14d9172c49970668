"""Command line front end: train, abstract, verify, lift, bench.

Every command prints a single JSON report to stdout, except ``verify`` which
prints one JSON line per query. Logs go to stderr; the level is set by the
ABSTRACTNET_LOG environment variable (error|warn|info|debug, default warn).
Exit codes: 0 success, 2 validation or input-format error (including a
network, record or vector file whose JSON holds malformed values, a network,
record or CSV file that is not UTF-8 text, named in the message, and a
non-finite delta, alpha or timeout), 3 internal error.
Identical invocations produce identical reports except for the timing fields
("time" and everything under "timings").
``verify`` and ``lift`` read only the csv or idx rows they verify: the first
``--count`` rows, or the first i + 1 for ``--input i``. A malformed row after
those is not reported. :func:`main` builds the argument parser once per
process, on first use, so in-process callers pay for it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .abstraction import AbstractionRecord, abstract, reduction_rate, search_abstraction
from .data import LabeledDataset, accuracy, load_csv, load_idx, split_dataset
from .errors import AbstractnetError, FormatError, TrainingError, ValidationError, check_int
from .lifting import EPSILON_SCOPE_NOTE, abstract_verify_lift, run_report, verify_and_lift
from .network import Network, RobustnessQuery, _as_delta
from .synthetic import make_synthetic_digits
from .trainer import TrainConfig, train
from .verifier import Verdict, _verdict_value, falsify, ibp_bounds, robust_mask

log = logging.getLogger("abstractnet.cli")

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class _StderrHandler(logging.StreamHandler):
    """Writes to ``sys.stderr`` as it is at each record, so a later redirect captures logs."""

    stream = property(lambda self: sys.stderr, lambda self, _: None)


def _setup_logging() -> None:
    name = os.environ.get("ABSTRACTNET_LOG", "warn").strip().lower()
    root = logging.getLogger("abstractnet")
    if not root.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        root.addHandler(handler)
    root.setLevel(_LOG_LEVELS.get(name, logging.WARNING))
    if name not in _LOG_LEVELS:
        root.warning("unknown ABSTRACTNET_LOG value %r, using warn", name)


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(report: dict) -> None:
    json.dump(report, sys.stdout, indent=2, default=_json_default)
    sys.stdout.write("\n")


def _parse_arch(text: str) -> tuple[int, ...]:
    """Hidden widths from '3x100' (3 layers of 100) or '100,50'."""
    s = text.strip().lower()
    try:
        if "x" in s:
            depth_s, width_s = s.split("x", 1)
            sizes = [int(width_s)] * int(depth_s)
        else:
            sizes = [int(tok) for tok in s.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse architecture {text!r}") from None
    if not sizes or any(w < 1 for w in sizes):
        raise ValidationError(f"architecture must list positive widths, got {text!r}")
    return tuple(sizes)


def _parse_kl(text: str) -> dict[int, int]:
    """Cluster counts from 'layer:k' pairs, e.g. '2:80,3:77'."""
    out: dict[int, int] = {}
    for part in text.split(","):
        if not part.strip():
            continue
        try:
            layer_s, k_s = part.split(":")
            layer, k = int(layer_s), int(k_s)
        except ValueError:
            raise ValidationError(f"cannot parse --kl entry {part!r}; expected layer:k") from None
        if layer in out:
            raise ValidationError(f"duplicate layer {layer} in --kl")
        out[layer] = k
    if not out:
        raise ValidationError("--kl is empty")
    return out


def _parse_vector_file(path: str) -> np.ndarray:
    """A flat vector: a JSON list of numbers, or floats separated by whitespace or commas."""
    try:
        text = Path(path).read_text().strip()
        if text.startswith("["):
            tokens = json.loads(text)
            if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in tokens):
                raise ValueError("a JSON vector must list numbers only")
        else:
            tokens = text.replace(",", " ").split()
        values = [float(v) for v in tokens]
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"cannot parse vector file {path}: {exc}") from None
    arr = np.array(values, dtype=np.float64)
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise FormatError(f"vector file {path} must hold one flat list of finite numbers")
    return arr


def _parse_delta(text: str, n_features: int):
    """A scalar radius, or a path to a per-feature vector (JSON or plain text)."""
    try:
        value = float(text)
    except ValueError:
        value = _parse_vector_file(text)
    _as_delta(value, (n_features,))
    return value


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="dataset path (.gz accepted); images file for idx")
    p.add_argument("--labels", help="labels path, required with --format idx")
    p.add_argument(
        "--format",
        choices=("csv", "idx", "synthetic"),
        default="csv",
        help="csv: label,v1..vn per row; idx: MNIST binary pair; synthetic: bundled 8x8 digits",
    )
    p.add_argument("--synthetic-count", type=int, default=2000, help="synthetic sample count")
    p.add_argument("--noise", type=float, default=0.15, help="synthetic pixel noise level")
    p.add_argument("--data-seed", type=int, default=0, help="synthetic generator seed")


def _load_dataset(args, max_rows: int | None = None) -> LabeledDataset:
    """The dataset the flags name; a csv or idx file is read up to its first ``max_rows`` rows."""
    if args.format == "synthetic":
        return make_synthetic_digits(args.synthetic_count, seed=args.data_seed, noise=args.noise)
    if not args.data:
        raise ValidationError(f"--data is required with --format {args.format}")
    if args.format == "idx":
        if not args.labels:
            raise ValidationError("--format idx needs --labels")
        return load_idx(args.data, args.labels, max_rows)
    return load_csv(args.data, max_rows=max_rows)


def _clamped_count(requested: int, available: int, what: str) -> int:
    if check_int(requested, "--count", 1) > available:
        log.warning("only %d %s available, requested %d", available, what, requested)
        return available
    return requested


def _epsilon_maxima(record: AbstractionRecord) -> list[float]:
    return [float(e.max()) if e.size else 0.0 for e in record.layer_epsilons()]


def cmd_train(args) -> int:
    ds = _load_dataset(args)
    hidden = _parse_arch(args.arch)
    cfg = TrainConfig(
        hidden=hidden,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        optimizer=args.optimizer,
        patience=args.patience,
        val_fraction=args.val_fraction,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    net = train(ds, cfg)
    train_s = time.perf_counter() - t0
    acc = accuracy(net, ds)
    if args.out:
        net.save(args.out)
        log.info("saved network to %s", args.out)
    _emit(
        {
            "schema": 1,
            "command": "train",
            "layer_sizes": list(net.layer_sizes),
            "optimizer": cfg.optimizer,
            "epochs": cfg.epochs,
            "seed": cfg.seed,
            "dataset_size": len(ds),
            "accuracy": acc,
            "out": args.out,
            "timings": {"train_s": train_s},
        }
    )
    return 0


def cmd_abstract(args) -> int:
    if (args.alpha is None) == (args.kl is None):
        raise ValidationError("exactly one of --alpha or --kl is required")
    net = Network.load(args.net)
    ds = _load_dataset(args)

    t0 = time.perf_counter()
    if args.kl is not None:
        k_l = _parse_kl(args.kl)
        record = abstract(net, ds.inputs, k_l, seed=args.seed)
    else:
        if args.holdout:
            train_part, val_part = split_dataset(ds, args.val_fraction, args.seed)
        else:
            train_part, val_part = ds, ds
        X = {"train": train_part.inputs, "val": val_part.inputs, "all": ds.inputs}[args.x_source]
        record = search_abstraction(net, train_part, args.alpha, seed=args.seed, val=val_part, X=X)
        k_l = record.k_l
    abstract_s = time.perf_counter() - t0

    acc_orig = accuracy(net, ds)
    acc_abs = accuracy(record.abstract_net, ds)
    if args.out:
        record.save(args.out)
        log.info("saved abstraction record to %s", args.out)
    _emit(
        {
            "schema": 1,
            "command": "abstract",
            "k_l": {str(layer): k for layer, k in sorted(k_l.items())},
            "reduction_rate": reduction_rate(record),
            "removed_neurons": record.removed_neurons,
            "accuracy_original": acc_orig,
            "accuracy_abstract": acc_abs,
            "accuracy_drop": acc_orig - acc_abs,
            "epsilon_max_per_layer": _epsilon_maxima(record),
            "alpha": args.alpha,
            "seed": args.seed,
            "x_source": args.x_source if args.alpha is not None else "all",
            "out": args.out,
            "notes": {"epsilon_scope": EPSILON_SCOPE_NOTE},
            "timings": {"abstract_s": abstract_s},
        }
    )
    return 0


def cmd_verify(args) -> int:
    vector = index = None
    if args.input is None:
        count = check_int(10 if args.count is None else args.count, "--count", 1)
    else:
        try:
            index = int(args.input)
        except ValueError:
            vector = args.input
        else:
            check_int(index, "--input index")
    if args.record:
        net = AbstractionRecord.load(args.record).abstract_net
    else:
        net = Network.load(args.net)
    delta = _parse_delta(args.delta, net.layer_sizes[0])

    if vector is not None:
        ids, X = [None], _parse_vector_file(vector)[None, :]
    elif index is not None:
        ds = _load_dataset(args, max_rows=index + 1)
        if index >= len(ds):
            raise ValidationError(f"--input index {index} out of range for {len(ds)} rows")
        ids, X = [index], ds.inputs[index : index + 1]
    else:
        ds = _load_dataset(args, max_rows=count)
        n = _clamped_count(count, len(ds), "inputs")
        ids, X = list(range(n)), ds.inputs[:n]

    targets = net.classify(X)
    bounds = ibp_bounds(net, X, delta)
    proven = robust_mask(bounds, targets)
    encode = json.JSONEncoder(separators=(",", ":")).encode
    rows = zip(
        ids,
        X,
        targets.tolist(),
        proven.tolist(),
        bounds.output_lower.tolist(),
        bounds.output_upper.tolist(),
    )
    for qid, x, target, ok, lower, upper in rows:
        line = {
            "schema": 1,
            "query": qid,
            "target": target,
            "verdict": _verdict_value(ok),
            "output_lower": lower,
            "output_upper": upper,
        }
        if args.falsify and not ok:
            witness = falsify(
                net,
                RobustnessQuery(x, delta),
                samples=args.samples,
                seed=args.seed + (qid or 0),
            )
            if witness is None:
                line["witness"] = None
            else:
                line["witness"] = witness.tolist()
                line["witness_label"] = int(net.classify(witness))
                line["verdict"] = Verdict.NOT_ROBUST.value
        sys.stdout.write(encode(line) + "\n")
    return 0


def cmd_lift(args) -> int:
    count = check_int(args.count, "--count", 1)
    record = AbstractionRecord.load(args.record)
    ds = _load_dataset(args, max_rows=count)
    delta = _parse_delta(args.delta, record.original_net.layer_sizes[0])
    n = _clamped_count(count, len(ds), "inputs")
    run = verify_and_lift(record, ds.inputs[:n], delta)
    results = [
        {"query": i, "target": int(t), "abstract": _verdict_value(a), "lifted": _verdict_value(b)}
        for i, (t, a, b) in enumerate(zip(run.labels, run.abstract_robust, run.lifted_robust))
    ]
    _emit(
        {
            "schema": 1,
            "command": "lift",
            "record": args.record,
            "delta": delta,
            "queries": n,
            "abstract_robust": int(run.abstract_robust.sum()),
            "lifted_robust": int(run.lifted_robust.sum()),
            "reduction_rate": reduction_rate(record),
            "removed_neurons": record.removed_neurons,
            "epsilon_max_per_layer": _epsilon_maxima(record),
            "results": results,
            "notes": {"epsilon_scope": EPSILON_SCOPE_NOTE},
            "timings": {"verify_s": run.verify_s, "lift_s": run.lift_s},
        }
    )
    return 0


def cmd_bench(args) -> int:
    net = Network.load(args.net)
    ds = _load_dataset(args)
    delta = _parse_delta(args.delta, net.layer_sizes[0])
    n = _clamped_count(args.count, len(ds), "inputs")
    run = abstract_verify_lift(
        net, ds, args.alpha, ds.inputs[:n], delta, seed=args.seed,
        val_fraction=args.val_fraction, timeout_s=args.timeout_s,
    )
    if args.record_out:
        run.record.save(args.record_out)
    _emit(run_report(run, command="bench", delta=delta))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abstractnet",
        description="Cluster-based neural network abstraction with interval robustness verification",
    )
    parser.add_argument("--version", action="version", version=f"abstractnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a ReLU classifier and save it as JSON")
    _add_data_flags(p)
    p.add_argument("--arch", required=True, help="hidden layers, e.g. 3x100 or 100,50")
    p.add_argument("--out", help="where to write the network JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--optimizer", choices=("sgd", "adam"), default="adam")
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--val-fraction", type=float, default=0.1)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("abstract", help="merge similar neurons and save the abstraction record")
    p.add_argument("--net", required=True, help="network JSON to abstract")
    _add_data_flags(p)
    p.add_argument("--alpha", type=float, help="accuracy floor; searches cluster counts per layer")
    p.add_argument("--kl", help="explicit cluster counts per hidden layer, e.g. 2:80,3:77")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epsilon-norm", choices=("linf",), help="accepted for older scripts")
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument(
        "--x-source",
        choices=("train", "val", "all"),
        default="train",
        help="which split provides the activation-collection inputs (with --alpha)",
    )
    p.add_argument(
        "--holdout",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="evaluate the accuracy floor on a held-out split (--no-holdout reuses all data)",
    )
    p.add_argument("--out", help="where to write the abstraction record JSON")
    p.set_defaults(func=cmd_abstract)

    p = sub.add_parser("verify", help="interval-verify robustness queries, one JSON line each")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--net", help="network JSON to verify")
    group.add_argument("--record", help="abstraction record; verifies its abstract network")
    _add_data_flags(p)
    sel = p.add_mutually_exclusive_group()
    sel.add_argument("--input", help="dataset row index, or a vector file (JSON or plain text)")
    sel.add_argument("--count", type=int, default=None, help="verify the first N inputs")
    p.add_argument("--delta", required=True, help="box radius: scalar or vector file")
    p.add_argument("--falsify", action="store_true", help="sample the box for counterexamples")
    p.add_argument("--samples", type=int, default=1000, help="falsifier sample count")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lift", help="verify on the abstraction and lift proofs to the original")
    p.add_argument("--record", required=True, help="abstraction record JSON")
    _add_data_flags(p)
    p.add_argument("--delta", required=True, help="box radius: scalar or vector file")
    p.add_argument("--count", type=int, default=10, help="lift the first N inputs")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("bench", help="abstract, verify original vs abstract, lift; one report")
    p.add_argument("--net", required=True, help="network JSON to benchmark")
    _add_data_flags(p)
    p.add_argument("--alpha", type=float, required=True, help="accuracy floor for the search")
    p.add_argument("--delta", default="0.02", help="box radius: scalar or vector file")
    p.add_argument("--count", type=int, default=100, help="number of query images")
    p.add_argument("--timeout-s", type=float, default=None, help="stop issuing queries after this")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--record-out", help="also save the abstraction record here")
    p.set_defaults(func=cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        check_int(getattr(args, "seed", 0), "--seed")
        return args.func(args)
    except (ValidationError, FormatError) as exc:
        log.error("%s", exc)
        return 2
    except OSError as exc:
        log.error("%s", exc)
        return 2
    except TrainingError as exc:
        log.error("training failed: %s", exc)
        return 3
    except AbstractnetError as exc:
        log.error("%s", exc)
        return 3
    except Exception:
        log.exception("internal error")
        return 3


if __name__ == "__main__":
    sys.exit(main())
