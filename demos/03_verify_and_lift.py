"""Interval robustness proofs and lifting them back to the original net.

Uses a tiny hand-built pair of networks where every number can be checked
by hand. The abstract net is verified with interval bound propagation;
the lifted recurrence bounds every original neuron inside the box and gives
each merged cluster the hull of its members' intervals, so a proof on the
small net becomes a proof on the big one.

Run:  python3 demos/03_verify_and_lift.py
"""

import numpy as np

from abstractnet import (
    Network,
    RobustnessQuery,
    Verdict,
    abstract,
    falsify,
    ibp_bounds,
    lifted_bounds,
    robust_mask,
    verify_and_lift,
)


def verdict(proven) -> str:
    return (Verdict.ROBUST if proven else Verdict.UNKNOWN).value


# Original: two identical hidden neurons in layer 3. Abstracting that layer
# to one neuron is lossless, which makes the lifted bounds easy to follow.
original = Network(
    weights=(np.array([[1.0, 1.0], [1.0, -1.0]]),
             np.array([[1.0, 1.0], [1.0, 1.0]]) / 2,
             np.array([[2.0, 2.0], [1.0, 1.0]]) / 2),
    biases=(np.zeros(2), np.zeros(2), np.array([5.0, 0.0])),
)
x = np.zeros(2)
print(f"original {original.layer_sizes}, f(0,0) = {original.forward(x)}")

record = abstract(original, X=np.array([[0.0, 0.0], [1.0, 1.0]]), k_l={3: 1}, seed=0)
small = record.abstract_net
print(f"abstract {small.layer_sizes}, epsilons all zero: "
      f"{all(np.all(c.epsilons == 0) for c in record.clusterings)}")

# Interval bound propagation on the abstract net, then a margin check:
# label 0 is proven robust when its lower bound beats every other upper.
# Both run on a batch of queries, here a batch of one.
delta = 1.0
b = ibp_bounds(small, x[None, :], delta)
lo, up = b.output_lower[0], b.output_upper[0]
print(f"delta={delta}: abstract output intervals "
      f"[{lo[0]:.0f}, {up[0]:.0f}] vs [{lo[1]:.0f}, {up[1]:.0f}] "
      f"-> {verdict(robust_mask(b, [0])[0])}")

# The lifted bounds join each merged cluster's members into one hull; exact
# duplicates share one interval, so they reproduce the abstract intervals and
# the proof transfers for free.
lb = lifted_bounds(record, x, delta)
run = verify_and_lift(record, x[None, :], delta)
print(f"lifted intervals match: lower {lb.output_lower}, upper {lb.output_upper}")
print(f"verify_and_lift verdict on the original net: {verdict(run.lifted_robust[0])}")

# Larger boxes stop being provable: the intervals overlap and the verdict
# downgrades to unknown rather than claiming anything.
for d in (2.0, 4.0, 8.0):
    print(f"delta={d}: {verdict(verify_and_lift(record, x[None, :], d).lifted_robust[0])}")

# When a net is actually fragile, sampling finds a concrete counterexample.
fragile = Network(
    weights=(np.array([[1.0, 0.0]]), np.array([[1.0], [-1.0]])),
    biases=(np.zeros(1), np.array([0.0, 0.5])),
)
x0 = np.array([0.4, 0.0])
label = int(fragile.classify(x0))
witness = falsify(fragile, RobustnessQuery(x0, 0.5), samples=500, seed=1)
print(f"fragile net: label {label} at x0, "
      f"flips at x = {witness} (label {int(fragile.classify(witness))})")
