"""One-call pipeline: abstract, verify a batch of queries, lift, report.

pipeline() bundles the full workflow behind a single JSON-ready report,
the one the ``bench`` command prints: cluster sizing under an accuracy
floor, merging, batched interval verification on the original and the
abstract net, and proof lifting.

Reduction pays off when the network actually contains redundant neurons,
so this demo manufactures some: it trains a compact digits net, then
widens it by duplicating every hidden neuron (splitting the outgoing
weights, plus a drop of noise). The pipeline rediscovers the pairing,
halves the layer at tiny epsilon, and most interval proofs on the half
net lift back to the wide one.

Run:  python3 demos/04_pipeline_report.py
"""

import json
import time

import numpy as np

from abstractnet import (
    Network,
    RobustnessQuery,
    TrainConfig,
    accuracy,
    ibp_bounds,
    make_synthetic_digits,
    pipeline,
    robust_mask,
    search_abstraction,
    split_dataset,
    train,
)

ds = make_synthetic_digits(2000, seed=3, noise=0.05)
base = train(ds, TrainConfig(hidden=(16,), epochs=30, batch_size=32,
                             learning_rate=1e-2, seed=3))

rng = np.random.default_rng(0)
w1, w2 = base.weights
b1, b2 = base.biases
wide = Network(
    weights=(np.repeat(w1, 2, axis=0) + 1e-3 * rng.normal(size=(32, w1.shape[1])),
             np.repeat(w2, 2, axis=1) / 2),
    biases=(np.repeat(b1, 2), b2),
    output_activation=base.output_activation,
)
acc = accuracy(wide, ds)
print(f"widened net {wide.layer_sizes}, accuracy {acc:.3f}")

queries = [RobustnessQuery(ds.inputs[i], 0.005) for i in range(30)]
report = pipeline(wide, ds, alpha=acc - 0.01, queries=queries, seed=3)

print(json.dumps({k: v for k, v in report.items() if k != "results"}, indent=2))
print(f"proofs on the wide net: {report['original_robust']}/{report['count']}, "
      f"abstract proofs: {report['abstract_robust']}, "
      f"lifted to the wide net: {report['lifted_robust']}")

# Wall-clock: the abstract net answers the same queries faster simply by
# being smaller. With the pipeline's seed and its 20% validation split, the
# search returns the record the pipeline verified on; time both nets, best of 5.
tune, val = split_dataset(ds, 0.2, seed=3)
record = search_abstraction(wide, tune, alpha=acc - 0.01, seed=3, val=val)
X = np.stack([q.x for q in queries])


def wall(network) -> float:
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        robust_mask(ibp_bounds(network, X, 0.005), network.classify(X))
        best = min(best, time.perf_counter() - t)
    return best


w_orig = wall(wide)
w_abs = wall(record.abstract_net)
print(f"verification wall-clock for {len(queries)} queries: "
      f"original {w_orig * 1000:.3f} ms, abstract {w_abs * 1000:.3f} ms")
