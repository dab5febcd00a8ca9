"""deferlab: learning classifier/rejector pairs for human-AI deferral.

The package has one module per concern:

* :mod:`deferlab.core` -- data model, prediction semantics, 0-1 system loss
* :mod:`deferlab.datagen` -- synthetic planted-halfspace and grouped-expert data
* :mod:`deferlab.lp` -- bounded-variable simplex solver with dual warm starts
* :mod:`deferlab.milp` -- exact big-M deferral formulation and branch-and-bound
* :mod:`deferlab.surrogates` -- surrogate losses and analytic gradients
* :mod:`deferlab.train` -- score models, Adam, training loops, two-stage baselines
* :mod:`deferlab.evaluation` -- metrics, coverage curves, benchmark harness
* :mod:`deferlab.cli` -- command-line front door
"""

from .core import (
    DeferDataset,
    HalfspacePair,
    Prediction,
    augment,
    halfspace_system_loss,
    load_dataset_csv,
    pair_decisions,
    predict_halfspace,
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
from .surrogates import (
    LossEval,
    loss_ce_alpha,
    loss_moe,
    loss_ova,
    loss_rs,
    loss_rs2,
    loss_rs_alpha,
)
from .train import (
    ScoreModel,
    TrainConfig,
    TrainedSystem,
    fit_tau,
    train_compare_confidence,
    train_differentiable_triage,
    train_method,
    train_selective_prediction,
)

__version__ = "0.1.0"
