"""Training the surrogate methods and the two-stage baselines.

One planted instance, every method, side-by-side test errors. On
realizable data the realizable surrogate and the exact solver approach zero
while the baselines plateau; the alpha grid and the rejection-threshold
line search are both driven by validation system accuracy.
"""

import numpy as np

from deferlab import (
    MilpConfig,
    SyntheticConfig,
    TrainConfig,
    build_binary_milp,
    fit_tau,
    generate_synthetic,
    solve_milp,
    system_loss_01,
    train_method,
)
from deferlab.train import METHODS, system_accuracy

n_train, n_val, n_test = 1000, 500, 2000
total = n_train + n_val + n_test
instance = generate_synthetic(SyntheticConfig(
    d=30, n=total, std_scale=1.0, margin=0.3, p_m=0.0, p_h0=0.3, p_h1=0.0, seed=0,
))
ds = instance.dataset
train = ds.subset(np.arange(n_train))
val = ds.subset(np.arange(n_train, n_train + n_val))
test = ds.subset(np.arange(n_train + n_val, total))

config = TrainConfig(epochs=300, batch_size=64, learning_rate=0.1, seed=0)

print(f"{'method':12s} {'test error':>10s}  notes")
for method in METHODS:
    system = train_method(method, train, val, config)
    deferred, labels = system.decide(test.features)
    err = 1 - system_accuracy(deferred, labels, test)
    note = f"alpha={system.alpha}" if system.alpha is not None else ""
    print(f"{method:12s} {err:10.4f}  {note}")

# the solver's pair decides the way a trained system does
solution = solve_milp(build_binary_milp(train, MilpConfig()), MilpConfig(time_limit_s=120))
milp_err = system_loss_01(test, *solution.pair.decide(test.features))
print(f"{'milp':12s} {milp_err:10.4f}  "
      f"train loss {solution.train_loss:.4f}, {solution.status}")

# The rejection threshold can be re-tuned on validation after training;
# every score-based system defers exactly when its score reaches tau.
rs = train_method("rs", train, val, config)
tau = fit_tau(rs, val)
tuned = rs.with_tau(tau)
d0, l0 = rs.decide(test.features)
d1, l1 = tuned.decide(test.features)
print(f"\nthreshold line search: tau={tau:+.4f}, "
      f"test error {1 - system_accuracy(d0, l0, test):.4f} -> "
      f"{1 - system_accuracy(d1, l1, test):.4f}")
