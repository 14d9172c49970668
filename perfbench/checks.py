"""Output checks that pin no golden values.

Every check compares a report with something the benchmark recomputes from
the files and queries it handed to the program: labels, record widths,
validation accuracy, the consistency of a verdict with its own bounds, and a
sampling search (``falsify``) for a counterexample to every ``robust``
verdict on the network that verdict speaks for. Each method returns a list
of problems; an empty list means the job's output checked out.
"""

from __future__ import annotations

import json

import numpy as np

import abstractnet as an

from workloads import ABSTRACT_VAL_FRACTION, Job, Prepared

FALSIFY_SAMPLES = 200
VERDICTS = {"robust", "unknown"}


def parse_report(job: Job, stdout: str):
    """One JSON document, or one JSON line per query for verify."""
    if job.argv[0] == "verify":
        return [json.loads(line) for line in stdout.splitlines() if line.strip()]
    return json.loads(stdout)


def strip_timings(report):
    if isinstance(report, dict):
        return {k: v for k, v in report.items() if k not in ("time", "timings")}
    return report


class Checker:
    """Checks one workload's reports; caches networks, labels and falsify results."""

    def __init__(self, prepared: Prepared):
        self.prepared = prepared
        self.x = prepared.queries.inputs
        self._nets: dict[tuple[str, str], an.Network] = {}
        self._labels: dict[tuple[str, str], np.ndarray] = {}
        self._witness_free: dict[tuple, bool] = {}

    def _net(self, path: str, which: str) -> an.Network:
        key = (path, which)
        if key not in self._nets:
            if which == "net":
                self._nets[key] = an.Network.load(path)
            else:
                record = an.AbstractionRecord.load(path)
                self._nets[key] = getattr(record, which)
            self._labels[key] = np.asarray(self._nets[key].classify(self.x))
        return self._nets[key]

    def _labels_of(self, path: str, which: str) -> np.ndarray:
        self._net(path, which)
        return self._labels[(path, which)]

    def _no_witness(self, path: str, which: str, qid: int, delta: float) -> bool:
        key = (path, which, qid, delta)
        if key not in self._witness_free:
            query = an.RobustnessQuery(self.x[qid], delta)
            samples = FALSIFY_SAMPLES if delta > 0 else 1  # a zero-radius box is one point
            witness = an.falsify(self._net(path, which), query, samples=samples, seed=qid)
            self._witness_free[key] = witness is None
        return self._witness_free[key]

    def verify(self, job: Job, lines: list[dict]) -> list[str]:
        which = "net" if job.argv[1] == "--net" else "abstract_net"
        labels = self._labels_of(job.path, which)
        problems = []
        if [line.get("query") for line in lines] != list(range(job.count)):
            return [f"expected queries 0..{job.count - 1}, got {len(lines)} lines"]
        for qid, line in enumerate(lines):
            verdict, target = line["verdict"], line["target"]
            lo = np.asarray(line["output_lower"])
            up = np.asarray(line["output_upper"])
            if verdict not in VERDICTS:
                problems.append(f"query {qid}: verdict {verdict!r}")
            if target != labels[qid]:
                problems.append(f"query {qid}: target {target}, network says {labels[qid]}")
            if np.any(lo > up):
                problems.append(f"query {qid}: lower bound above upper bound")
            if verdict == "robust":
                if not lo[target] > np.delete(up, target).max(initial=-np.inf):
                    problems.append(f"query {qid}: robust verdict not implied by its bounds")
                if not self._no_witness(job.path, which, qid, job.delta):
                    problems.append(f"query {qid}: falsify found a witness against 'robust'")
        return problems

    def lift(self, job: Job, report: dict, abstract_verdicts: list[str] | None) -> list[str]:
        results = report["results"]
        problems = []
        if report["queries"] != job.count or [r["query"] for r in results] != list(range(job.count)):
            return [f"expected {job.count} results in query order"]
        labels = self._labels_of(job.path, "abstract_net")
        n_abstract = sum(r["abstract"] == "robust" for r in results)
        n_lifted = sum(r["lifted"] == "robust" for r in results)
        if (report["abstract_robust"], report["lifted_robust"]) != (n_abstract, n_lifted):
            problems.append("summary counts disagree with the per-query results")
        if abstract_verdicts is not None and [r["abstract"] for r in results] != abstract_verdicts:
            problems.append("abstract verdicts differ from verify --record at the same delta")
        for r in results:
            qid = r["query"]
            if r["target"] != labels[qid]:
                problems.append(f"query {qid}: target {r['target']}, abstract net says {labels[qid]}")
            if r["lifted"] == "robust":
                if r["abstract"] != "robust":
                    problems.append(f"query {qid}: lifted without an abstract proof")
                if not self._no_witness(job.path, "original_net", qid, job.delta):
                    problems.append(f"query {qid}: falsify found a witness against lifted 'robust'")
        return problems

    def abstract(self, job: Job, report: dict) -> list[str]:
        record = an.AbstractionRecord.load(job.path)
        problems = []
        k_l = {int(layer): k for layer, k in report["k_l"].items()}
        widths = list(record.abstract_net.layer_sizes[1:-1])
        if widths != [k_l.get(layer, w) for layer, w in zip(record.original_net.hidden_layers,
                                                               record.original_net.layer_sizes[1:-1])]:
            problems.append(f"abstract widths {widths} do not match k_l {k_l}")
        if report["reduction_rate"] != an.reduction_rate(record):
            problems.append("reduction_rate differs from the saved record")
        if report["accuracy_abstract"] != an.accuracy(record.abstract_net, self.prepared.train):
            problems.append("accuracy_abstract differs from the saved record")
        if job.reproduces is not None:
            with open(job.reproduces, encoding="utf-8") as fh, open(job.path, encoding="utf-8") as out:
                if fh.read() != out.read():
                    problems.append(f"record differs from {job.reproduces} built with the same k_l")
        if job.alpha is not None:
            seed = int(job.argv[job.argv.index("--seed") + 1])
            _, val = an.split_dataset(self.prepared.train, ABSTRACT_VAL_FRACTION, seed)
            val_acc = an.accuracy(record.abstract_net, val)
            if val_acc < job.alpha:
                problems.append(f"validation accuracy {val_acc} below alpha {job.alpha}")
        return problems
