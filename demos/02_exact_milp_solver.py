"""Exact 0-1 deferral optimization with the big-M MILP.

Branch-and-bound over the formulation's binary variables, with the LP
relaxations solved by the built-in bounded-variable simplex. On a
realizable instance the optimum is provably zero; adding a coverage budget
shrinks the feasible set and can only raise the optimum. Multiclass data
goes through the same builder, `build_milp`, and the same solver, with one
classifier weight vector per class.
"""

from deferlab import (
    GroupedExpertConfig,
    MilpConfig,
    SyntheticConfig,
    add_coverage_constraint,
    build_binary_milp,
    build_milp,
    generate_grouped_expert,
    generate_synthetic,
    solve_milp,
)

instance = generate_synthetic(
    SyntheticConfig(d=2, n=24, std_scale=0.3, margin=0.2, p_m=0.0, p_h0=0.3, p_h1=0.0, seed=7)
)
dataset = instance.dataset

problem = build_binary_milp(dataset, MilpConfig())
solution = solve_milp(problem, MilpConfig())
print(f"unconstrained: status={solution.status}  objective={solution.objective:.4f}  "
      f"train loss={solution.train_loss:.4f}  nodes={solution.nodes_explored}")
deferred, _ = solution.pair.decide(dataset.features)
print(f"deferral rate at the optimum: {deferred.mean():.2f}")

# A coverage budget caps how often the system may defer. Tightening it
# never improves the optimum.
print("\ncoverage sweep:")
last = solution.objective
for beta in (0.75, 0.5, 0.25, 0.0):
    constrained = add_coverage_constraint(problem, beta)
    sol = solve_milp(constrained, MilpConfig(time_limit_s=60))
    deferred, _ = sol.pair.decide(dataset.features)
    print(f"  beta={beta:4.2f}: objective={sol.objective:.4f}  "
          f"deferral={deferred.mean():.2f}  status={sol.status}")
    assert deferred.mean() <= beta + 1e-9
    assert sol.status == "proven_optimal"
    assert sol.objective >= last - 1e-9  # each budget is tighter than the one before
    last = sol.objective

# Three classes: the expert is perfect on class 0 and guesses on the others.
grouped = generate_grouped_expert(GroupedExpertConfig(d=2, n=10, C=3, K=1, seed=1,
                                                      blob_std=3.0))
multi = solve_milp(build_milp(grouped, MilpConfig()))
print(f"\n3 classes, 10 points: status={multi.status}  objective={multi.objective:.4f}  "
      f"nodes={multi.nodes_explored}")
assert multi.status == "proven_optimal"

# The weight box and margin defaults mirror the formulation's constants;
# gamma must stay strictly positive or the zero rejector becomes feasible.
print(f"\nformulation constants: gamma={problem.gamma}, box={problem.box}, "
      f"K_m={problem.k_m}, K_r={problem.k_r}")
