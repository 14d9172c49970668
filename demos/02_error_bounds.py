"""How far can the merged network drift from the original?

The abstraction records, for every merged-away neuron, its largest
activation gap to the representative over the collection inputs. Those epsilons
propagate layer by layer into a guaranteed output-gap bound, and a second
bound extends it from the collection points to a whole perturbation box.

Run:  python3 demos/02_error_bounds.py
"""

import numpy as np

from abstractnet import Network, abstract, clustering_error, total_error

rng = np.random.default_rng(7)

# A 4-16-16-3 net with mildly redundant hidden units: each layer is built
# from 8 base rows, each duplicated with small noise so neurons pair up.
def redundant_layer(base_rows, scale):
    return np.repeat(base_rows, 2, axis=0) + scale * rng.normal(size=(base_rows.shape[0] * 2, base_rows.shape[1]))

w1 = redundant_layer(rng.normal(size=(8, 4)), 0.02)
w2 = redundant_layer(rng.normal(size=(8, 16)) / 4, 0.02)
w3 = rng.normal(size=(3, 16)) / 4
net = Network(
    weights=(w1, w2, w3),
    biases=(rng.normal(size=16) * 0.1, rng.normal(size=16) * 0.1, np.zeros(3)),
)

X = rng.normal(size=(64, 4))
record = abstract(net, X, k_l={2: 8, 3: 8}, seed=0)
print(f"layers {net.layer_sizes} -> {record.abstract_net.layer_sizes}")

bounds = clustering_error(record)
print("guaranteed per-layer error radii (max over neurons):")
for layer, radii in enumerate(bounds.per_layer, start=1):
    print(f"  layer {layer}: {np.max(radii):.4f}")

# The output bound must dominate the observed gap on every collection input.
gap = np.abs(record.abstract_net.forward(X) - net.forward(X))
print(f"output bound {np.max(bounds.output):.4f} vs worst observed gap {np.max(gap):.4f}")
assert np.all(gap <= bounds.output + 1e-9)

# total_error adds the effect of perturbing the input within an l_inf box:
# the delta term grows linearly, the clustering term is constant.
print("box radius -> total output error bound (worst coordinate):")
for delta in (0.0, 0.01, 0.05, 0.1):
    print(f"  delta {delta:4.2f} -> {np.max(total_error(record, delta)):.4f}")

# Sampling the box never exceeds the bound. Samples move through the
# abstract net while the reference point stays fixed, which is exactly the
# quantity the bound controls.
x0 = X[0]
delta = 0.05
samples = rng.uniform(x0 - delta, x0 + delta, size=(2000, 4))
sample_gap = np.abs(record.abstract_net.forward(samples) - net.forward(x0))
bound = total_error(record, delta)
print(f"2000 box samples at delta={delta}: worst gap {np.max(sample_gap):.4f}, "
      f"bound {np.max(bound):.4f}")
assert np.all(sample_gap <= bound + 1e-9)
print("all samples inside the bound")
