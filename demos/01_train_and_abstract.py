"""Train a classifier on the bundled synthetic digits, then shrink it.

Walks the whole reduction path: fit a dense ReLU net, search for the
smallest per-layer cluster counts that keep held-out accuracy above a
floor, merge each cluster into its representative neuron, and compare
the two networks side by side.

Run:  python3 demos/01_train_and_abstract.py
"""

import numpy as np

from abstractnet import (
    TrainConfig,
    accuracy,
    make_synthetic_digits,
    reduction_rate,
    search_abstraction,
    split_dataset,
    train,
)

full = make_synthetic_digits(3000, seed=42, noise=0.15)
train_ds, test_ds = split_dataset(full, 1 / 6, seed=42)
print(f"dataset: {len(train_ds)} train / {len(test_ds)} test, "
      f"{train_ds.num_features} features, {train_ds.num_classes} classes")

cfg = TrainConfig(hidden=(100, 100, 100), epochs=30, batch_size=32,
                  learning_rate=1e-3, optimizer="adam", seed=42)
net = train(train_ds, cfg)
test_acc = accuracy(net, test_ds)
print(f"trained {net.layer_sizes} net, test accuracy {test_acc:.3f}")

# Cluster sizing works against a held-out part of the training data. The
# floor is one point below test accuracy; every layer keeps the fewest
# neurons that stay above it, merged on the other part of the data.
alpha = test_acc - 0.01
tune_ds, val_ds = split_dataset(train_ds, 0.2, seed=42)
record = search_abstraction(net, tune_ds, alpha, seed=42, val=val_ds)
k_l = record.k_l
print(f"accuracy floor {alpha:.3f} -> cluster counts per hidden layer: {k_l}")

small = record.abstract_net
print(f"abstract net {small.layer_sizes}, reduction {reduction_rate(record) * 100:.1f}%")
print(f"abstract test accuracy {accuracy(small, test_ds):.3f} "
      f"(drop {(test_acc - accuracy(small, test_ds)) * 100:.2f} points)")

# Epsilon summarizes how far each merged-away neuron sat from its
# representative on the activation-collection inputs.
for layer in sorted(k_l):
    eps = record.clustering_for(layer).epsilons
    print(f"layer {layer}: {net.width(layer)} -> {small.width(layer)} neurons, "
          f"max epsilon {eps.max():.3f}, mean {eps.mean():.3f}")

# The two nets agree on most points; where they differ the error bound
# machinery of demo 02 quantifies the gap.
disagree = np.mean(net.classify(test_ds.inputs) != small.classify(test_ds.inputs))
print(f"label disagreement on test set: {disagree * 100:.1f}%")
