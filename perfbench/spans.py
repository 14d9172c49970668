"""In-memory spans around the public functions of abstractnet.

The tracer replaces each traced function at every module-level binding in
the ``abstractnet`` package (modules import several of them by name), and
each traced method on its class, with a wrapper that records one span per
call: name, start, end, parent span and job id. Nothing inside ``src/`` is
edited; ``uninstall`` puts every original back.

A span's self time is its duration minus the durations of its direct
children. Calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from abstractnet.abstraction import AbstractionRecord
from abstractnet.network import Network

# span name -> (module, attribute) of a module-level public function
FUNCTIONS = {
    "clustering.kmeans": ("abstractnet.clustering", "kmeans"),
    "clustering.cluster_layer": ("abstractnet.clustering", "cluster_layer"),
    "clustering.epsilon_vector": ("abstractnet.clustering", "epsilon_vector"),
    "abstraction.identify_clusters": ("abstractnet.abstraction", "identify_clusters"),
    "abstraction.abstract": ("abstractnet.abstraction", "abstract"),
    "data.load_csv": ("abstractnet.data", "load_csv"),
    "data.accuracy": ("abstractnet.data", "accuracy"),
    "data.collect_activations": ("abstractnet.data", "collect_activations"),
    "data.split_dataset": ("abstractnet.data", "split_dataset"),
    "verifier.ibp_bounds": ("abstractnet.verifier", "ibp_bounds"),
    "verifier.check_robust": ("abstractnet.verifier", "check_robust"),
    "lifting.lift_proof": ("abstractnet.lifting", "lift_proof"),
    "lifting.lifted_bounds": ("abstractnet.lifting", "lifted_bounds"),
    "trainer.train": ("abstractnet.trainer", "train"),
    "synthetic.make_synthetic_digits": ("abstractnet.synthetic", "make_synthetic_digits"),
}

# span name -> (class, attribute) of a public method or classmethod
METHODS = {
    "network.load": (Network, "load"),
    "network.classify": (Network, "classify"),
    "abstraction.record_load": (AbstractionRecord, "load"),
    "abstraction.record_save": (AbstractionRecord, "save"),
    "abstraction.layer_epsilons": (AbstractionRecord, "layer_epsilons"),
}


def _ibp_rows(args, kwargs) -> int:
    """Queries in one ibp_bounds call: x is (d,) or (n, d)."""
    x = args[1] if len(args) > 1 else kwargs["x"]
    shape = getattr(x, "shape", None) or (len(x),)
    return 1 if len(shape) == 1 else shape[0]


class Tracer:
    """Records spans while installed; ``job`` tags every span opened."""

    def __init__(self):
        # (span id, name, start, end, parent id or None, job id, rows or None)
        self.spans: list[tuple] = []
        self.job = None
        self._next_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str, rows: int | None = None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.job, rows))

    def _wrap(self, name: str, fn):
        count_rows = _ibp_rows if name == "verifier.ibp_bounds" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rows = count_rows(args, kwargs) if count_rows else None
            with self.span(name, rows):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "abstractnet"]
        for name, (module_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, binding, original))
                        setattr(module, binding, wrapper)
        for name, (cls, attr) in METHODS.items():
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapper = self._wrap(name, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "job", "rows")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))))
                fh.write("\n")


def summarize(spans, keep) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds and rows, over spans whose job passes ``keep``."""
    child_s: dict[int, float] = defaultdict(float)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "rows": 0})
    for sid, name, start, end, _, job, rows in spans:
        if not keep(job):
            continue
        entry = out[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_s[sid]
        entry["rows"] += rows or 0
    return out
