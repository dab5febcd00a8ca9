"""Score models, Adam training loops, and the procedural baselines.

A joint score model maps features to C+1 scores: class scores then a
deferral score. Surrogate trainers optimize one of the losses in
:mod:`deferlab.surrogates`; after every epoch the validation system
accuracy at threshold 0 is computed, and the best epoch's snapshot is the
returned model (ties go to the earlier epoch). Two-stage baselines train a
classifier first and derive their deferral rule from auxiliary models or
confidence thresholds.

Every trainer runs one loop, which trains a stack of parameter rows that
share their initial weights, minibatch order and Adam settings. An alpha
grid trains as one stacked pass, one row per alpha, and each row follows
bit for bit the path a lone run with that alpha takes; a single model is
the one-row case.

Deferral semantics per method, all expressed as ``defer iff
rejection_score(x) >= tau``:

* ``rs``, ``ce``, ``ova``: score is the deferral head minus the class max;
* ``rs2``, ``moe``: score is the deferral head alone;
* ``confidence``: predicted human-correctness probability minus the
  classifier's max softmax probability;
* ``selective``: negated max softmax probability (tau = -threshold);
* ``triage``: an auxiliary model's logit for "human beats classifier".
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import DeferDataset
from .surrogates import LOSSES, _sigmoid, _softmax

__all__ = [
    "ScoreModel",
    "TrainConfig",
    "TrainedSystem",
    "TrainingDiverged",
    "train_surrogate",
    "search_alpha",
    "fit_tau",
    "train_compare_confidence",
    "train_selective_prediction",
    "train_differentiable_triage",
    "train_method",
    "METHODS",
]


class TrainingDiverged(RuntimeError):
    """Raised when a training loss stops being finite."""


def _t(a):
    """Transpose each matrix of a stack."""
    return a.swapaxes(1, 2)


@dataclass
class ScoreModel:
    """A linear or one-hidden-layer ReLU scoring function with flat params."""

    arch: str  # "linear" | "one_hidden"
    input_dim: int
    output_dim: int
    hidden_units: int = 0
    params: np.ndarray = field(default=None, repr=False)

    @classmethod
    def initialize(cls, arch, input_dim, output_dim, hidden_units, rng) -> "ScoreModel":
        """Symmetric-uniform init scaled by 1/sqrt(fan_in), layer by layer."""
        if arch == "linear":
            bound = 1.0 / np.sqrt(input_dim)
            params = rng.uniform(-bound, bound, size=(input_dim + 1) * output_dim)
        elif arch == "one_hidden":
            if hidden_units < 1:
                raise ValueError("one_hidden needs hidden_units >= 1")
            b1 = 1.0 / np.sqrt(input_dim)
            b2 = 1.0 / np.sqrt(hidden_units)
            params = np.concatenate([
                rng.uniform(-b1, b1, size=(input_dim + 1) * hidden_units),
                rng.uniform(-b2, b2, size=(hidden_units + 1) * output_dim),
            ])
        else:
            raise ValueError(f"unknown architecture {arch!r}")
        return cls(arch, input_dim, output_dim, hidden_units, params)

    def _unpack(self, stack):
        """Weights (K, fan_out, fan_in) and biases (K, 1, fan_out) of each row
        of a (K, p) parameter stack."""
        d, out, h = self.input_dim, self.output_dim, self.hidden_units
        k = stack.shape[0]
        if self.arch == "linear":
            w = stack[:, : d * out].reshape(k, out, d)
            b = stack[:, None, d * out :]
            return w, b
        n1 = d * h
        w1 = stack[:, :n1].reshape(k, h, d)
        b1 = stack[:, None, n1 : n1 + h]
        n2 = n1 + h
        w2 = stack[:, n2 : n2 + h * out].reshape(k, out, h)
        b2 = stack[:, None, n2 + h * out :]
        return w1, b1, w2, b2

    def _stack_forward(self, stack, x):
        """Scores (K, n, output_dim) of each row of a (K, p) parameter stack."""
        if self.arch == "linear":
            w, b = self._unpack(stack)
            return x @ _t(w) + b
        w1, b1, w2, b2 = self._unpack(stack)
        hidden = np.maximum(0.0, x @ _t(w1) + b1)
        return hidden @ _t(w2) + b2

    def _stack_backward(self, stack, x, dscores):
        """Gradients (K, p) of sum(dscores[k] * scores[k]) in each row of a
        (K, p) parameter stack; ``dscores`` is (K, n, output_dim)."""
        k = stack.shape[0]
        if self.arch == "linear":
            dw = _t(dscores) @ x
            db = dscores.sum(axis=1)
            return np.concatenate([dw.reshape(k, -1), db], axis=1)
        w1, b1, w2, _ = self._unpack(stack)
        z1 = x @ _t(w1) + b1
        a1 = np.maximum(0.0, z1)
        dw2 = _t(dscores) @ a1
        db2 = dscores.sum(axis=1)
        da1 = dscores @ w2
        dz1 = da1 * (z1 > 0)
        dw1 = _t(dz1) @ x
        db1 = dz1.sum(axis=1)
        return np.concatenate([dw1.reshape(k, -1), db1, dw2.reshape(k, -1), db2], axis=1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scores = self._stack_forward(self.params[None], np.atleast_2d(x))[0]
        return scores.reshape(x.shape[:-1] + (self.output_dim,))

    def backward(self, x: np.ndarray, dscores: np.ndarray) -> np.ndarray:
        """Gradient of sum(dscores * scores) in the flat parameters."""
        return self._stack_backward(self.params[None], x, np.asarray(dscores)[None])[0]

    def copy(self) -> "ScoreModel":
        return ScoreModel(self.arch, self.input_dim, self.output_dim,
                          self.hidden_units, self.params.copy())


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and search knobs shared by all trainers."""

    loss: str = "rs"
    epochs: int = 300
    batch_size: int = 0  # 0 means full batch
    learning_rate: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    alpha: Optional[float] = None
    alpha_grid: tuple = (0.0, 0.25, 0.5, 0.75, 1.0)
    val_fraction: float = 0.1
    hidden_units: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


@dataclass
class TrainedSystem:
    """A trained deferral system: model(s), threshold, and decision rule."""

    model: ScoreModel
    num_classes: int
    tau: float = 0.0
    aux_model: Optional[ScoreModel] = None
    method: str = "rs"
    score_kind: str = "gap"
    alpha: Optional[float] = None
    best_val_accuracy: Optional[float] = None
    best_epoch: Optional[int] = None
    min_train_error: Optional[float] = None  # lowest train system error seen

    def classifier_scores(self, x) -> np.ndarray:
        scores = self.model.forward(x)
        return scores[:, : self.num_classes]

    def classifier_labels(self, x) -> np.ndarray:
        return np.argmax(self.classifier_scores(x), axis=1).astype(np.int64)

    def rejection_scores(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.score_kind == "gap":
            scores = self.model.forward(x)
            return scores[:, -1] - scores[:, : self.num_classes].max(axis=1)
        if self.score_kind == "defer_head":
            return self.model.forward(x)[:, -1]
        if self.score_kind == "confidence":
            p_h = _sigmoid(self.aux_model.forward(x)[:, 0])
            return p_h - _softmax(self.classifier_scores(x)).max(axis=1)
        if self.score_kind == "selective":
            return -_softmax(self.classifier_scores(x)).max(axis=1)
        if self.score_kind == "triage":
            return self.aux_model.forward(x)[:, 0]
        raise ValueError(f"unknown score kind {self.score_kind!r}")

    def decide(self, x):
        """(deferred, classifier_labels) at this system's threshold."""
        return self.rejection_scores(x) >= self.tau, self.classifier_labels(x)

    def with_tau(self, tau: float) -> "TrainedSystem":
        return replace(self, tau=float(tau))


def system_accuracy(deferred, clf_labels, dataset: DeferDataset) -> float:
    """Empirical accuracy of the combined system decisions on a dataset."""
    correct = np.where(np.asarray(deferred), dataset.human_correct,
                       np.asarray(clf_labels) == dataset.labels)
    return float(np.mean(correct))


class _Adam:
    def __init__(self, shape, config: TrainConfig):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.cfg = config

    def step(self, params, grad):
        c = self.cfg
        self.t += 1
        self.m = c.beta1 * self.m + (1 - c.beta1) * grad
        self.v = c.beta2 * self.v + (1 - c.beta2) * grad * grad
        mh = self.m / (1 - c.beta1**self.t)
        vh = self.v / (1 - c.beta2**self.t)
        return params - c.learning_rate * mh / (np.sqrt(vh) + c.eps)


def _run_training(model: ScoreModel, dataset: DeferDataset, config: TrainConfig,
                  loss_fn, val_metric, rng, rows=1, train_metric=None):
    """Generic epoch loop: minibatch Adam plus best-epoch snapshotting, run on
    a stack of ``rows`` copies of ``model``'s parameters.

    The rows share the initial weights, the minibatch order and the Adam
    settings; only the loss tells them apart, so each row follows exactly
    the path a one-row run with its loss would. ``loss_fn(scores, idx) ->
    (values, score_grads)`` evaluates the training loss on a batch given
    row indices, with the rows' scores stacked row after row into one
    (rows * len(idx), output_dim) array. ``val_metric(stack) -> (rows,)``
    scores each row of a parameter stack after each epoch (higher is
    better), and each row keeps its best epoch's snapshot (ties go to the
    earlier epoch). ``train_metric`` is an optional per-epoch diagnostic of
    the same shape whose maximum is also returned. Any row that stops being
    finite raises TrainingDiverged at once.

    Returns the best snapshots as a (rows, p) stack, then each row's best
    metric, best epoch and best train metric.
    """
    n = dataset.n
    x = dataset.features
    params = np.repeat(model.params[None], rows, axis=0)
    adam = _Adam(params.shape, config)
    batch = n if config.batch_size in (0, None) else min(config.batch_size, n)
    best_metric = np.full(rows, -np.inf)
    best_train_metric = np.full(rows, -np.inf)
    best_params = params.copy()
    best_epoch = np.zeros(rows, dtype=np.int64)
    for epoch in range(1, config.epochs + 1):
        order = np.arange(n) if batch == n else rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            xb = x[idx]
            scores = model._stack_forward(params, xb)
            if not np.all(np.isfinite(scores)):
                raise TrainingDiverged(f"non-finite scores at epoch {epoch}")
            vals, grads = loss_fn(scores.reshape(-1, scores.shape[2]), idx)
            mean_loss = vals.reshape(rows, -1).mean(axis=1)
            if not np.all(np.isfinite(mean_loss)):
                raise TrainingDiverged(
                    f"non-finite loss {mean_loss!r} at epoch {epoch}"
                )
            pgrad = model._stack_backward(params, xb, grads.reshape(scores.shape) / len(idx))
            params = adam.step(params, pgrad)
            if not np.all(np.isfinite(params)):
                raise TrainingDiverged(f"non-finite parameters at epoch {epoch}")
        metric = val_metric(params)
        better = metric > best_metric
        best_metric[better] = metric[better]
        best_params[better] = params[better]
        best_epoch[better] = epoch
        if train_metric is not None:
            best_train_metric = np.maximum(best_train_metric, train_metric(params))
    return best_params, best_metric, best_epoch, best_train_metric


def _train_surrogates(dataset: DeferDataset, val_dataset: DeferDataset,
                      config: TrainConfig, alphas) -> list:
    """Train one joint C+1-head model per alpha as a single stacked pass.

    Every model starts from ``config.seed``'s initial weights and sees the
    same minibatch order, so each equals a lone run with its alpha. The loss
    gets one alpha per score row (None when ``alphas`` is ``[None]``).
    """
    if config.loss not in LOSSES:
        raise ValueError(f"unknown loss id {config.loss!r}")
    if dataset.d != val_dataset.d or dataset.num_classes != val_dataset.num_classes:
        raise ValueError("train and validation datasets must share d and C")
    c = dataset.num_classes
    k = len(alphas)
    rng = np.random.default_rng(config.seed)
    arch = "one_hidden" if config.hidden_units > 0 else "linear"
    model = ScoreModel.initialize(arch, dataset.d, c + 1, config.hidden_units, rng)
    batch_loss = LOSSES[config.loss]
    y = dataset.labels
    hc = dataset.human_correct
    row_alpha = None if alphas[0] is None else np.asarray(alphas, dtype=float)
    score_kind = "defer_head" if config.loss in ("rs2", "moe") else "gap"

    def loss_fn(scores, idx):
        stacked = np.concatenate([idx] * k)
        alpha = None if row_alpha is None else np.repeat(row_alpha, len(idx))
        return batch_loss(scores, y[stacked], hc[stacked], alpha)

    def _system_acc(stack, ds):
        scores = model._stack_forward(stack, ds.features)
        labels = np.argmax(scores[:, :, :c], axis=2)
        if score_kind == "gap":
            defer = scores[:, :, -1] - scores[:, :, :c].max(axis=2) >= 0.0
        else:
            defer = scores[:, :, -1] >= 0.0
        return np.mean(np.where(defer, ds.human_correct, labels == ds.labels), axis=1)

    params, best_acc, best_epoch, best_train = _run_training(
        model, dataset, config, loss_fn, lambda st: _system_acc(st, val_dataset), rng,
        rows=k, train_metric=lambda st: _system_acc(st, dataset),
    )
    return [
        TrainedSystem(
            model=replace(model, params=params[i].copy()), num_classes=c, tau=0.0,
            method=config.loss, score_kind=score_kind, alpha=alpha,
            best_val_accuracy=float(best_acc[i]), best_epoch=int(best_epoch[i]),
            min_train_error=1.0 - float(best_train[i]),
        )
        for i, alpha in enumerate(alphas)
    ]


def train_surrogate(dataset: DeferDataset, val_dataset: DeferDataset,
                    config: TrainConfig) -> TrainedSystem:
    """Train a joint C+1-head model on the configured surrogate loss.

    Tracks validation system accuracy at tau = 0 after every epoch and
    returns the best epoch's snapshot (ties resolve to the earliest epoch).
    """
    return _train_surrogates(dataset, val_dataset, config, [config.alpha])[0]


def search_alpha(dataset: DeferDataset, val_dataset: DeferDataset,
                 config: TrainConfig) -> TrainedSystem:
    """Train one system per alpha in the grid; keep the best validation
    system accuracy, ties resolving to the smaller alpha.

    The whole grid trains as one stacked pass, and each alpha's system is
    bit for bit the one ``train_surrogate`` returns for that alpha alone.
    """
    grid = sorted(config.alpha_grid)
    if not grid:
        raise ValueError("alpha_grid must be nonempty")
    if not all(0.0 <= a <= 1.0 for a in grid):
        raise ValueError("alpha must lie in [0, 1]")
    systems = _train_surrogates(dataset, val_dataset, config, grid)
    best = systems[0]
    for system in systems[1:]:
        if system.best_val_accuracy > best.best_val_accuracy:
            best = system
    # the search procedure's reached-train-error spans every alpha run
    return replace(best, min_train_error=min(s.min_train_error for s in systems))


def _threshold_candidates(scores: np.ndarray) -> np.ndarray:
    """Midpoints of sorted distinct scores plus -inf/+inf sentinels."""
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0 if distinct.size > 1 else np.empty(0)
    return np.concatenate([[-np.inf], mids, [np.inf]])


def _line_search_threshold(scores, human_correct, clf_correct) -> float:
    """Threshold on rejection scores maximizing system accuracy.

    Ties pick the candidate closest to zero, then the smaller one. One sort
    and cumulative counts give every candidate's number of correct points.
    """
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # correct points when the i lowest scores are kept and the rest deferred
    kept_ok = np.concatenate([[0], np.cumsum(np.asarray(clf_correct, dtype=bool)[order])])
    hum_ok = np.asarray(human_correct, dtype=bool)[order]
    deferred_ok = np.concatenate([np.cumsum(hum_ok[::-1])[::-1], [0]])
    candidates = _threshold_candidates(scores)
    # a midpoint can round onto a score, so split at each candidate's value
    kept = np.searchsorted(sorted_scores, candidates, side="left")
    correct = kept_ok[kept] + deferred_ok[kept]
    best = candidates[correct == correct.max()]
    best = best[np.abs(best) == np.abs(best).min()]
    return float(best.min())


def fit_tau(system: TrainedSystem, val_dataset: DeferDataset) -> float:
    """Line-search the rejection threshold on a validation set.

    Candidates are midpoints of the sorted distinct rejection scores plus
    -inf (defer everything) and +inf (never defer) sentinels.
    """
    if val_dataset.n < 1:
        raise ValueError("validation set must be nonempty")
    scores = system.rejection_scores(val_dataset.features)
    clf_ok = system.classifier_labels(val_dataset.features) == val_dataset.labels
    return _line_search_threshold(scores, val_dataset.human_correct, clf_ok)


# ---------------------------------------------------------------------------
# plain classifier / auxiliary heads used by the two-stage baselines
# ---------------------------------------------------------------------------


def _ce_batch(scores, y):
    z = scores - scores.max(axis=1, keepdims=True)
    logq = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    rows = np.arange(len(y))
    vals = -logq[rows, y]
    grads = np.exp(logq)
    grads[rows, y] -= 1.0
    return vals, grads


def _logistic_batch(logits, targets01):
    z = logits[:, 0]
    t = targets01.astype(float)
    vals = np.where(z > 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z))) - t * z
    grads = (_sigmoid(z) - t)[:, None]
    return vals, grads


def _class_accuracy(model, val_dataset):
    """Validation metric: class accuracy of each row of a parameter stack."""

    def metric(stack):
        pred = np.argmax(model._stack_forward(stack, val_dataset.features), axis=2)
        return np.mean(pred == val_dataset.labels, axis=1)

    return metric


def _train_classifier(dataset, val_dataset, config):
    """Cross-entropy classifier head; tracks validation class accuracy."""
    rng = np.random.default_rng(config.seed)
    arch = "one_hidden" if config.hidden_units > 0 else "linear"
    model = ScoreModel.initialize(arch, dataset.d, dataset.num_classes,
                                  config.hidden_units, rng)
    y = dataset.labels

    def loss_fn(scores, idx):
        return _ce_batch(scores, y[idx])

    model.params = _run_training(model, dataset, config, loss_fn,
                                 _class_accuracy(model, val_dataset), rng)[0][0]
    return model


def _train_binary_head(dataset, targets01, val_dataset, val_targets01, config, seed_shift=1):
    """Single-logit head with logistic loss; tracks validation accuracy."""
    rng = np.random.default_rng(config.seed + seed_shift)
    arch = "one_hidden" if config.hidden_units > 0 else "linear"
    model = ScoreModel.initialize(arch, dataset.d, 1, config.hidden_units, rng)

    def loss_fn(scores, idx):
        return _logistic_batch(scores, targets01[idx])

    def val_metric(stack):
        pred = model._stack_forward(stack, val_dataset.features)[:, :, 0] >= 0
        return np.mean(pred == val_targets01, axis=1)

    model.params = _run_training(model, dataset, config, loss_fn, val_metric, rng)[0][0]
    return model


def train_compare_confidence(dataset, val_dataset, config: TrainConfig) -> TrainedSystem:
    """Classifier on all data plus a human-correctness model; defer when the
    predicted human-correctness probability beats the classifier's max
    softmax probability."""
    clf = _train_classifier(dataset, val_dataset, config)
    hum = _train_binary_head(
        dataset, dataset.human_correct, val_dataset, val_dataset.human_correct, config
    )
    system = TrainedSystem(model=clf, num_classes=dataset.num_classes, tau=0.0,
                           aux_model=hum, method="confidence", score_kind="confidence")
    defer, labels = system.decide(val_dataset.features)
    return replace(system, best_val_accuracy=system_accuracy(defer, labels, val_dataset))


def train_selective_prediction(dataset, val_dataset, config: TrainConfig) -> TrainedSystem:
    """Classifier on all data; defer when its confidence falls below a
    threshold line-searched on the validation set."""
    clf = _train_classifier(dataset, val_dataset, config)
    system = TrainedSystem(model=clf, num_classes=dataset.num_classes, tau=0.0,
                           method="selective", score_kind="selective")
    tau = fit_tau(system, val_dataset)
    system = system.with_tau(tau)
    defer, labels = system.decide(val_dataset.features)
    return replace(system, best_val_accuracy=system_accuracy(defer, labels, val_dataset))


def train_differentiable_triage(dataset, val_dataset, config: TrainConfig) -> TrainedSystem:
    """Two-stage triage: each epoch updates the classifier only on points
    where its current 0-1 loss is no worse than the human's, then fits a
    rejector to predict which of the two errs less per point (ties keep the
    classifier)."""
    rng = np.random.default_rng(config.seed)
    arch = "one_hidden" if config.hidden_units > 0 else "linear"
    model = ScoreModel.initialize(arch, dataset.d, dataset.num_classes,
                                  config.hidden_units, rng)
    y = dataset.labels
    hum01 = (~dataset.human_correct).astype(float)

    def loss_fn(scores, idx):
        vals, grads = _ce_batch(scores, y[idx])
        clf01 = (np.argmax(scores, axis=1) != y[idx]).astype(float)
        keep = (clf01 <= hum01[idx]).astype(float)
        return vals * keep, grads * keep[:, None]

    model.params = _run_training(model, dataset, config, loss_fn,
                                 _class_accuracy(model, val_dataset), rng)[0][0]

    pred = np.argmax(model.forward(dataset.features), axis=1)
    clf01 = (pred != y).astype(float)
    defer_target = hum01 < clf01  # ties mean do not defer
    val_pred = np.argmax(model.forward(val_dataset.features), axis=1)
    val_target = (~val_dataset.human_correct).astype(float) < (val_pred != val_dataset.labels)
    rejector = _train_binary_head(dataset, defer_target, val_dataset, val_target, config)
    system = TrainedSystem(model=model, num_classes=dataset.num_classes, tau=0.0,
                           aux_model=rejector, method="triage", score_kind="triage")
    defer, labels = system.decide(val_dataset.features)
    return replace(system, best_val_accuracy=system_accuracy(defer, labels, val_dataset))


METHODS = ("rs", "rs2", "ce", "ova", "moe", "confidence", "selective", "triage")


def train_method(method: str, dataset, val_dataset, config: TrainConfig) -> TrainedSystem:
    """Dispatch a method id to its trainer, with alpha search where the
    method calls for it. Methods: rs, rs2, ce, ova, moe, confidence,
    selective, triage."""
    if method in ("rs", "ce"):
        if config.alpha is not None:
            grid = (config.alpha,)
        elif method == "ce" and tuple(config.alpha_grid) == TrainConfig().alpha_grid:
            grid = (0.0, 0.1, 0.5, 1.0)  # the usual tuning grid for this surrogate
        else:
            grid = tuple(config.alpha_grid)
        return search_alpha(dataset, val_dataset,
                            replace(config, loss=method, alpha_grid=grid))
    if method in ("rs2", "ova", "moe"):
        return train_surrogate(dataset, val_dataset, replace(config, loss=method))
    if method == "confidence":
        return train_compare_confidence(dataset, val_dataset, config)
    if method == "selective":
        return train_selective_prediction(dataset, val_dataset, config)
    if method == "triage":
        return train_differentiable_triage(dataset, val_dataset, config)
    raise ValueError(f"unknown method id {method!r}")
