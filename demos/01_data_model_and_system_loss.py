"""The deferral data model: datasets, halfspace pairs, and the system loss.

A deferral system routes each input either to a linear classifier or to the
recorded human prediction, depending on which side of the rejector
halfspace the point falls. This script builds a tiny planted instance and
walks through the decision semantics.
"""

import numpy as np

from deferlab import (
    SyntheticConfig,
    generate_synthetic,
    system_loss_01,
)

# A planted instance: features from a Gaussian mixture, labels given by a
# hidden classifier halfspace on the kept side, uniform labels on the
# deferred side, and a human who errs 30% of the time on the kept side.
config = SyntheticConfig(d=2, n=12, std_scale=0.3, p_m=0.0, p_h0=0.3, p_h1=0.0, seed=4)
instance = generate_synthetic(config)
dataset = instance.dataset
pair = instance.planted_pair

print(f"dataset: n={dataset.n}, d={dataset.d}, classes={dataset.num_classes}")
print(f"human accuracy: {np.mean(dataset.human_correct):.2f}")

# Run the planted pair on every point. The rejector defers when its
# activation on the bias-augmented input is >= 0; the final label is then the
# human's, else the classifier's.
deferred, clf = pair.decide(dataset.features)
final = np.where(deferred, dataset.human_preds, clf)
print("\n  x0      x1      y  h  defer  clf  final")
for i in range(dataset.n):
    print(f"{dataset.features[i, 0]:+7.2f} {dataset.features[i, 1]:+7.2f}  "
          f"{dataset.labels[i]}  {dataset.human_preds[i]}  "
          f"{str(deferred[i]):5s}  {clf[i]}    {final[i]}")

# The 0-1 system loss charges a point when whoever decided it was wrong.
# The planted pair is consistent with how the labels were drawn, so its
# training loss is exactly zero.
loss = system_loss_01(dataset, deferred, clf)
print(f"\nplanted pair system loss: {loss}")
assert loss == 0.0

# The same loss can be computed for arbitrary decisions: defer everything.
all_defer = np.ones(dataset.n, dtype=bool)
any_labels = np.zeros(dataset.n, dtype=int)
print(f"defer-everything loss:    {system_loss_01(dataset, all_defer, any_labels):.4f} "
      f"(= human error rate {1 - np.mean(dataset.human_correct):.4f})")
