"""deferlab: learning classifier/rejector pairs for human-AI deferral.

The package has one module per concern:

* :mod:`deferlab.core` -- data model, prediction semantics, 0-1 system loss
* :mod:`deferlab.datagen` -- synthetic planted-halfspace and grouped-expert data
* :mod:`deferlab.lp` -- bounded dual simplex LP solver with warm starts
* :mod:`deferlab.milp` -- exact big-M deferral formulation and branch-and-bound
* :mod:`deferlab.surrogates` -- surrogate losses and analytic gradients,
  behind one checked door, ``surrogate_loss(method, scores, ...)``
* :mod:`deferlab.train` -- score models, Adam, training loops, two-stage
  baselines, behind one door, ``train_method(method, ...)``
* :mod:`deferlab.evaluation` -- metrics, coverage curves, benchmark harness
* :mod:`deferlab.cli` -- command-line front door
"""

from .core import (
    DeferDataset,
    HalfspacePair,
    augment,
    load_dataset_csv,
    save_dataset_csv,
    system_loss_01,
)
from .datagen import (
    GroupedExpertConfig,
    PlantedInstance,
    SyntheticConfig,
    generate_grouped_expert,
    generate_synthetic,
)
from .evaluation import (
    BenchmarkResult,
    CoverageCurve,
    EvalReport,
    coverage_curve,
    evaluate,
    generalization_bound,
    run_benchmark,
)
from .lp import LinearProgram, LpSolution, solve_lp
from .milp import (
    MilpConfig,
    MilpProblem,
    MilpSolution,
    add_coverage_constraint,
    add_fairness_constraint,
    build_binary_milp,
    build_milp,
    solve_milp,
)
from .surrogates import surrogate_loss
from .train import (
    ScoreModel,
    TrainConfig,
    TrainedSystem,
    fit_tau,
    train_method,
)

__version__ = "0.1.0"
