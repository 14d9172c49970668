"""Workload set-up and the jobs of one round.

Set-up builds every input through the public API and writes it to files:
the network JSON, an abstraction record JSON where the workload needs one,
and label-first CSV files for the training split and the queries. The jobs
then hand the program only those files, through the CLI.

The networks are fixed artifacts of each workload (the desk net is data and
training seed 42; the redundant net is seed 3). The workload seed draws the
500 query rows, fresh digits that lie outside the activation-collection set
X. Training a new net per seed would make the cluster-count search, and so
``reduction_rate`` and ``abstract_s``, swing by 4x between seeds (4.7% to
19.3% reduction on seeds 1-5), which would hide any change under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

import abstractnet as an

QUERY_SEED_BASE = 1_000_000
DESK_SEED = 42
REDUNDANT_SEED = 3
DUPLICATE_NOISE = 1e-3
ABSTRACT_VAL_FRACTION = 0.2  # the CLI's --val-fraction default


@dataclass(frozen=True)
class Sizes:
    digits: int
    desk_hidden: tuple[int, ...]
    redundant_hidden: tuple[int, ...]
    epochs: int
    queries: int
    desk_abstract_queries: int


FULL = Sizes(
    digits=3000,
    desk_hidden=(100, 100, 100),
    redundant_hidden=(64, 64),
    epochs=30,
    queries=500,
    desk_abstract_queries=100,
)
TINY = Sizes(
    digits=600,
    desk_hidden=(16, 16, 16),
    redundant_hidden=(8, 8),
    epochs=8,
    queries=20,
    desk_abstract_queries=10,
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation. ``kind`` is abstract, verify_original, verify_abstract or lift."""

    kind: str
    argv: tuple[str, ...]
    count: int = 0
    delta: float | None = None
    path: str = ""  # the net or record a verify/lift job reads; the record an abstract job writes
    alpha: float | None = None
    reproduces: str | None = None  # record file the abstract job must rewrite byte for byte


@dataclass
class Prepared:
    jobs: list[Job]
    queries: an.LabeledDataset
    train: an.LabeledDataset  # the rows the abstract job reads


def write_csv(path: Path, ds: an.LabeledDataset) -> None:
    """Label-first rows; repr keeps every digit, so the CLI reads the same floats."""
    lines = (
        f"{label}," + ",".join(repr(float(v)) for v in row)
        for label, row in zip(ds.labels.tolist(), ds.inputs)
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _queries(sizes: Sizes, seed: int) -> an.LabeledDataset:
    return an.make_synthetic_digits(sizes.queries, seed=QUERY_SEED_BASE + seed, noise=0.15)


def _train_split(seed: int, sizes: Sizes):
    full = an.make_synthetic_digits(sizes.digits, seed=seed, noise=0.15)
    return an.split_dataset(full, 1 / 6, seed=seed)


def _desk_net(sizes: Sizes):
    train_ds, test_ds = _train_split(DESK_SEED, sizes)
    cfg = an.TrainConfig(
        hidden=sizes.desk_hidden,
        epochs=sizes.epochs,
        batch_size=32,
        learning_rate=1e-3,
        optimizer="adam",
        seed=DESK_SEED,
    )
    net = an.train(train_ds, cfg)
    # alpha = test accuracy - 0.01, capped so the CLI's own validation split
    # (the same split as below) can always meet it
    train_part, val_part = an.split_dataset(train_ds, ABSTRACT_VAL_FRACTION, DESK_SEED)
    alpha = min(an.accuracy(net, test_ds), an.accuracy(net, val_part)) - 0.01
    return net, train_ds, train_part, val_part, alpha


def duplicate_hidden(net: an.Network, noise: float, seed: int) -> an.Network:
    """Twice as wide: every hidden neuron repeated, with noisy incoming weights.

    Incoming rows and biases are repeated and get Gaussian noise; outgoing
    columns of repeated neurons are repeated and halved, so the wide net
    computes nearly the same function.
    """
    rng = np.random.default_rng(seed)
    last = len(net.weights) - 1
    ws, bs = [], []
    for j, (w, b) in enumerate(zip(net.weights, net.biases)):
        if j > 0:
            w = np.repeat(w, 2, axis=1) / 2
        if j < last:
            w = np.repeat(w, 2, axis=0)
            w = w + noise * rng.normal(size=w.shape)
            b = np.repeat(b, 2)
        ws.append(w)
        bs.append(b)
    return an.Network(tuple(ws), tuple(bs), net.output_activation)


def _verify_jobs(kind, flag, path, csv, count, deltas) -> list[Job]:
    return [
        Job(
            kind,
            ("verify", flag, path, "--format", "csv", "--data", csv,
             "--count", str(count), "--delta", repr(d)),
            count=count,
            delta=d,
            path=path,
        )
        for d in deltas
    ]


def _lift_jobs(record, csv, count, deltas) -> list[Job]:
    return [
        Job(
            "lift",
            ("lift", "--record", record, "--format", "csv", "--data", csv,
             "--count", str(count), "--delta", repr(d)),
            count=count,
            delta=d,
            path=record,
        )
        for d in deltas
    ]


def _chain(net, record, csv, count, deltas) -> list[Job]:
    """verify --net, verify --record and lift --record over the delta grid."""
    return (
        _verify_jobs("verify_original", "--net", net, csv, count, deltas)
        + _verify_jobs("verify_abstract", "--record", record, csv, count, deltas)
        + _lift_jobs(record, csv, count, deltas)
    )


def _kl_arg(k_l: dict[int, int]) -> str:
    return ",".join(f"{layer}:{k}" for layer, k in sorted(k_l.items()))


def setup_desk_abstract(work: Path, seed: int, sizes: Sizes) -> Prepared:
    """Desk net; the round runs the alpha search, then verifies its record at delta 0."""
    net, train_ds, _, _, alpha = _desk_net(sizes)
    queries = _queries(sizes, seed)
    files = {
        "net": str(work / "desk_net.json"),
        "train": str(work / "desk_train.csv"),
        "queries": str(work / "queries.csv"),
        "record": str(work / "desk_search_record.json"),
    }
    net.save(files["net"])
    write_csv(Path(files["train"]), train_ds)
    write_csv(Path(files["queries"]), queries)
    abstract_job = Job(
        "abstract",
        ("abstract", "--net", files["net"], "--format", "csv", "--data", files["train"],
         "--alpha", repr(alpha), "--seed", str(DESK_SEED), "--out", files["record"]),
        path=files["record"],
        alpha=alpha,
    )
    chain = _chain(files["net"], files["record"], files["queries"],
                   sizes.desk_abstract_queries, (0.0,))
    return Prepared([abstract_job] + chain, queries, train_ds)


def setup_desk_verify(work: Path, seed: int, sizes: Sizes) -> Prepared:
    """Desk net and its l2 record from set-up; the round verifies over the grid."""
    net, train_ds, train_part, val_part, alpha = _desk_net(sizes)
    k_l = an.identify_clusters(net, train_part, alpha, seed=DESK_SEED, val=val_part,
                               X=train_part.inputs)
    record = an.abstract(net, train_part.inputs, k_l, seed=DESK_SEED)
    queries = _queries(sizes, seed)
    files = {
        "net": str(work / "desk_net.json"),
        "record": str(work / "desk_record.json"),
        "x": str(work / "desk_x.csv"),
        "queries": str(work / "queries.csv"),
        "kl_record": str(work / "desk_kl_record.json"),
    }
    net.save(files["net"])
    record.save(files["record"])
    write_csv(Path(files["x"]), train_part)
    write_csv(Path(files["queries"]), queries)
    # the record's k_l given explicitly on the record's X: the search is
    # bypassed, and the job must reproduce the set-up record
    abstract_job = Job(
        "abstract",
        ("abstract", "--net", files["net"], "--format", "csv", "--data", files["x"],
         "--kl", _kl_arg(k_l), "--seed", str(DESK_SEED), "--out", files["kl_record"]),
        path=files["kl_record"],
        reproduces=files["record"],
    )
    chain = _chain(files["net"], files["record"], files["queries"], sizes.queries,
                   (0.0, 0.001, 0.02))
    return Prepared([abstract_job] + chain, queries, train_part)


def setup_redundant_lift(work: Path, seed: int, sizes: Sizes) -> Prepared:
    """A trained net with every hidden neuron duplicated; the round merges the pairs back."""
    train_ds, _ = _train_split(REDUNDANT_SEED, sizes)
    cfg = an.TrainConfig(
        hidden=sizes.redundant_hidden,
        epochs=sizes.epochs,
        batch_size=32,
        learning_rate=1e-2,
        seed=REDUNDANT_SEED,
    )
    base = an.train(train_ds, cfg)
    wide = duplicate_hidden(base, DUPLICATE_NOISE, seed=0)
    queries = _queries(sizes, seed)
    files = {
        "net": str(work / "redundant_net.json"),
        "train": str(work / "redundant_train.csv"),
        "queries": str(work / "queries.csv"),
        "record": str(work / "redundant_record.json"),
    }
    wide.save(files["net"])
    write_csv(Path(files["train"]), train_ds)
    write_csv(Path(files["queries"]), queries)
    k_l = {layer: width for layer, width in zip(base.hidden_layers, sizes.redundant_hidden)}
    abstract_job = Job(
        "abstract",
        ("abstract", "--net", files["net"], "--format", "csv", "--data", files["train"],
         "--kl", _kl_arg(k_l), "--epsilon-norm", "linf", "--seed", str(REDUNDANT_SEED),
         "--out", files["record"]),
        path=files["record"],
    )
    chain = _chain(files["net"], files["record"], files["queries"], sizes.queries,
                   (0.001, 0.002, 0.005))
    return Prepared([abstract_job] + chain, queries, train_ds)


WORKLOADS = {
    "desk-abstract": setup_desk_abstract,
    "desk-verify": setup_desk_verify,
    "redundant-lift": setup_redundant_lift,
}
