"""Score models, Adam training loops, and the procedural baselines.

A joint score model maps features to C+1 scores: class scores then a
deferral score. Surrogate trainers optimize one of the losses in
:mod:`deferlab.surrogates`; after every epoch the validation system
accuracy at threshold 0 is computed, and the best epoch's snapshot is the
returned model (ties go to the earlier epoch). Two-stage baselines train a
classifier first and derive their deferral rule from auxiliary models or
confidence thresholds.

Every model, surrogate or two-stage, is built, trained and scored by one
function, ``_fit``, which trains a stack of parameter rows that share their
initial weights, minibatch order and Adam settings. An alpha grid trains as
one stacked pass, one row per alpha, and each row follows bit for bit the
path a lone run with that alpha takes; a single model is the one-row case.

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

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import DeferDataset, system_correct
from .surrogates import (LOSSES, _class_argmax, _class_max, _log_softmax, _sigmoid,
                         _softmax, _softplus)

__all__ = [
    "ScoreModel",
    "TrainConfig",
    "TrainedSystem",
    "TrainingDiverged",
    "fit_tau",
    "train_method",
    "METHODS",
]

# Adam's moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


# rejection-score kinds read off a joint C+1-head model, and those that
# need an auxiliary model
JOINT_KINDS = ("gap", "defer_head")
AUX_KINDS = ("confidence", "triage")
# method id -> the kind of rejection score its systems defer on
SCORE_KINDS = {"rs": "gap", "rs2": "defer_head", "ce": "gap", "ova": "gap",
               "moe": "defer_head", "confidence": "confidence", "selective": "selective",
               "triage": "triage"}
METHODS = tuple(SCORE_KINDS)


class TrainingDiverged(RuntimeError):
    """Raised when a training loss stops being finite."""


def _t(a):
    """Transpose each matrix of a stack."""
    return a.swapaxes(1, 2)


@dataclass
class ScoreModel:
    """A linear (``hidden_units`` 0) or one-hidden-layer ReLU scoring
    function with flat params: each layer's weights (fan_out, fan_in) then
    its biases, layer after layer."""

    input_dim: int
    output_dim: int
    hidden_units: int = 0
    params: np.ndarray = field(default=None, repr=False)
    # (fan_in, fan_out) of each layer; a linear model is the one-layer case
    fans: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d, out, h = self.input_dim, self.output_dim, self.hidden_units
        if h < 0:
            raise ValueError(f"hidden_units={h}: use 0 for a linear model or at least 1")
        self.fans = ((d, out),) if h == 0 else ((d, h), (h, out))
        size = sum((fan_in + 1) * fan_out for fan_in, fan_out in self.fans)
        if self.params is not None and self.params.size != size:
            raise ValueError(f"a model with d={d}, out={out}, hidden_units={h} "
                             f"has {size} parameters, got {self.params.size}")
        if self.params is not None and not np.isfinite(self.params).all():
            raise ValueError("params contain NaN or Inf")

    @classmethod
    def initialize(cls, input_dim, output_dim, hidden_units, rng) -> "ScoreModel":
        """Symmetric-uniform init scaled by 1/sqrt(fan_in), layer by layer."""
        model = cls(input_dim, output_dim, hidden_units)  # checks the shape
        model.params = np.concatenate([
            rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in),
                        size=(fan_in + 1) * fan_out)
            for fan_in, fan_out in model.fans
        ])
        return model

    def _unpack(self, stack):
        """One (weights (K, fan_out, fan_in), biases (K, 1, fan_out)) pair
        per layer of a (K, p) parameter stack: views, so they follow
        in-place updates of the stack."""
        k, start, layers = stack.shape[0], 0, []
        for fan_in, fan_out in self.fans:
            mid = start + fan_in * fan_out
            layers.append((stack[:, start:mid].reshape(k, fan_out, fan_in),
                           stack[:, None, mid : mid + fan_out]))
            start = mid + fan_out
        return tuple(layers)

    def _stack_forward(self, layers, x):
        """Scores (K, n, output_dim) of each row of a (K, p) parameter stack,
        given as its ``_unpack`` views."""
        for w, b in layers[:-1]:
            x = np.maximum(0.0, x @ _t(w) + b)
        w, b = layers[-1]
        return x @ _t(w) + b

    def _stack_backward(self, layers, x, dscores):
        """Gradients (K, p) of sum(dscores[k] * scores[k]) in each row of a
        parameter stack given as its ``_unpack`` views; ``dscores`` is (K, n,
        output_dim)."""
        k = dscores.shape[0]
        inputs = [x]  # each layer's input
        for w, b in layers[:-1]:
            inputs.append(np.maximum(0.0, inputs[-1] @ _t(w) + b))
        grads = []  # biases then weights of each layer, last layer first
        for i in range(len(layers) - 1, -1, -1):
            grads += [dscores.sum(axis=1), (_t(dscores) @ inputs[i]).reshape(k, -1)]
            if i:  # a ReLU passes the gradient where its input was positive
                dscores = (dscores @ layers[i][0]) * (inputs[i] > 0)
        return np.concatenate(grads[::-1], axis=1)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scores = self._stack_forward(self._unpack(self.params[None]), np.atleast_2d(x))[0]
        return scores.reshape(x.shape[:-1] + (self.output_dim,))


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and search knobs shared by all trainers."""

    epochs: int = 300
    batch_size: int = 0  # 0 means full batch
    learning_rate: float = 0.1
    seed: int = 0
    alpha_grid: Optional[tuple] = None  # None: the method's ALPHA_GRIDS entry
    hidden_units: int = 0

    def __post_init__(self):
        # every test is written so that NaN fails it; the int fields must be
        # ints, since a float count or seed fails only later, inside training
        for name, low in (("epochs", 1), ("batch_size", 0), ("seed", 0), ("hidden_units", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise ValueError(f"{name}={value!r}: must be an int >= {low}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.alpha_grid is not None:
            if len(self.alpha_grid) == 0:
                raise ValueError("alpha_grid must be nonempty")
            if not all(0.0 <= a <= 1.0 for a in self.alpha_grid):
                raise ValueError("alpha must lie in [0, 1]")


@dataclass
class TrainedSystem:
    """A trained deferral system: model(s), threshold, and decision rule.
    The method decides the kind of rejection score (``SCORE_KINDS``) and
    the models' shapes, which construction checks."""

    model: ScoreModel
    num_classes: int
    tau: float = 0.0
    aux_model: Optional[ScoreModel] = None
    method: str = "rs"
    alpha: Optional[float] = None
    best_val_accuracy: Optional[float] = None
    best_epoch: Optional[int] = None
    min_train_error: Optional[float] = None  # lowest train system error seen

    def __post_init__(self):
        if self.method not in SCORE_KINDS:
            raise ValueError(f"unknown method id {self.method!r}")
        if math.isnan(self.tau):  # fit_tau's sentinels are -inf and +inf
            raise ValueError("tau is NaN")
        m, aux, c = self.model, self.aux_model, self.num_classes
        out = model_outputs(self.method, c)
        if m.output_dim != out:
            raise ValueError(f"method={self.method} with C={c} needs a model with {out} "
                             f"outputs, got {m.output_dim}")
        if (aux is not None) != (self.score_kind in AUX_KINDS):
            raise ValueError(f"method={self.method} "
                             f"{'needs an' if aux is None else 'takes no'} auxiliary model")
        if aux is not None and (aux.input_dim, aux.hidden_units, aux.output_dim) != \
                (m.input_dim, m.hidden_units, 1):
            raise ValueError(
                f"the auxiliary model needs d={m.input_dim}, hidden_units={m.hidden_units} "
                f"and 1 output like the model's, got d={aux.input_dim}, hidden_units="
                f"{aux.hidden_units} and {aux.output_dim} outputs")

    @property
    def score_kind(self) -> str:
        return SCORE_KINDS[self.method]

    @property
    def dim(self) -> int:
        return self.model.input_dim

    def classifier_scores(self, x) -> np.ndarray:
        scores = self.model.forward(x)
        return scores[:, : self.num_classes]

    def classifier_labels(self, x) -> np.ndarray:
        return _class_argmax(self.classifier_scores(x)).astype(np.int64)

    def rejection_scores(self, x) -> np.ndarray:
        kind = self.score_kind
        if kind in JOINT_KINDS:
            return _joint_rejection(self.model.forward(x), self.num_classes, kind)
        if kind == "confidence":
            p_h = _sigmoid(self.aux_model.forward(x)[:, 0])
            return p_h - _class_max(_softmax(self.classifier_scores(x)))
        if kind == "selective":
            return -_class_max(_softmax(self.classifier_scores(x)))
        return self.aux_model.forward(x)[:, 0]  # triage

    def decide(self, x):
        """(deferred, classifier_labels) at this system's threshold."""
        return self.rejection_scores(x) >= self.tau, self.classifier_labels(x)

    def with_tau(self, tau: float) -> "TrainedSystem":
        return replace(self, tau=float(tau))


def model_outputs(method, num_classes) -> int:
    """The main model's output count under a method: C class scores, plus a
    deferral head for the joint methods."""
    return num_classes + 1 if SCORE_KINDS[method] in JOINT_KINDS else num_classes


def _joint_rejection(scores, num_classes, score_kind):
    """Rejection scores of joint C+1-head scores, along the last axis: the
    deferral head minus the class max ("gap") or the head alone
    ("defer_head")."""
    if score_kind == "gap":
        return scores[..., -1] - _class_max(scores[..., :num_classes])
    return scores[..., -1]


def system_accuracy(deferred, clf_labels, dataset: DeferDataset) -> float:
    """Empirical accuracy of the combined system decisions on a dataset."""
    return float(np.mean(system_correct(dataset, deferred, clf_labels)))


class _Adam:
    def __init__(self, shape, config: TrainConfig):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self._tmp = np.empty(shape)
        self.t = 0
        self.cfg = config

    def step(self, params, grad):
        """Update params in place. The moments update in place too, each
        operation in the order of m = b1*m + (1-b1)*grad, v = b2*v +
        (1-b2)*grad*grad and params - lr*mh / (sqrt(vh) + eps), so every value
        rounds as written."""
        self.t += 1
        tmp = self._tmp
        self.m *= ADAM_BETA1
        self.m += np.multiply(1 - ADAM_BETA1, grad, out=tmp)
        np.multiply(1 - ADAM_BETA2, grad, out=tmp)
        tmp *= grad
        self.v *= ADAM_BETA2
        self.v += tmp
        np.divide(self.v, 1 - ADAM_BETA2**self.t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step = self.m / (1 - ADAM_BETA1**self.t)
        step *= self.cfg.learning_rate
        step /= tmp
        params -= step


def _fit(dataset: DeferDataset, val_dataset: DeferDataset, config: TrainConfig,
         out_dim, seed, loss_fn, val_metric, rows=1, train_metric=None):
    """Build a model, train it with minibatch Adam and keep each row's
    best-epoch snapshot: the one training path of every trainer.

    The model has ``config.hidden_units`` hidden units (0: linear) and
    ``out_dim`` outputs; an rng seeded with ``seed`` draws its weights, then
    the minibatch orders. ``rows`` copies of the weights train as one stack,
    told apart only by the loss, so each row follows the path of a one-row
    run with its loss. ``loss_fn(scores, idx) -> (values, score_grads)``
    gets the rows' batch scores stacked row after row; the datasets checked
    their labels when they were built and ``_fit`` checks the scores, so the
    loss may skip its own checks. After each epoch ``val_metric`` rates the
    stack's (rows, n, out_dim) validation scores, higher better, and each
    row keeps its best epoch (ties go to the earlier one); ``train_metric``
    rates the training scores. Any row that stops being finite raises
    TrainingDiverged.

    Returns one model per row holding its best snapshot, then each row's
    best metric, best epoch and best train metric.
    """
    rng = np.random.default_rng(seed)
    model = ScoreModel.initialize(dataset.d, out_dim, config.hidden_units, rng)
    n = dataset.n
    x = dataset.features
    params = np.repeat(model.params[None], rows, axis=0)
    layers = model._unpack(params)  # views that follow Adam's in-place steps
    adam = _Adam(params.shape, config)
    batch = n if config.batch_size == 0 else min(config.batch_size, n)
    best_metric = np.full(rows, -np.inf)
    best_train_metric = np.full(rows, -np.inf)
    best_params = params.copy()
    best_epoch = np.zeros(rows, dtype=np.int64)
    for epoch in range(1, config.epochs + 1):
        order = np.arange(n) if batch == n else rng.permutation(n)
        x_epoch = x if batch == n else x[order]  # each batch is a slice of it
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            xb = x_epoch[start : start + batch]
            scores = model._stack_forward(layers, xb)
            if not np.isfinite(scores).all():
                raise TrainingDiverged(f"non-finite scores at epoch {epoch}")
            vals, grads = loss_fn(scores.reshape(-1, scores.shape[2]), idx)
            row_vals = vals.reshape(rows, -1)
            # a row's mean loss is finite exactly when its sum is
            if not np.isfinite(row_vals.sum(axis=1)).all():
                raise TrainingDiverged(
                    f"non-finite loss {row_vals.mean(axis=1)!r} at epoch {epoch}"
                )
            pgrad = model._stack_backward(layers, xb, grads.reshape(scores.shape) / len(idx))
            adam.step(params, pgrad)
            if not np.isfinite(params).all():
                raise TrainingDiverged(f"non-finite parameters at epoch {epoch}")
        metric = val_metric(model._stack_forward(layers, val_dataset.features))
        better = metric > best_metric
        best_metric[better] = metric[better]
        best_params[better] = params[better]
        best_epoch[better] = epoch
        if train_metric is not None:
            best_train_metric = np.maximum(best_train_metric,
                                           train_metric(model._stack_forward(layers, x)))
    models = [replace(model, params=row.copy()) for row in best_params]
    return models, best_metric, best_epoch, best_train_metric


def _fit_surrogates(dataset: DeferDataset, val_dataset: DeferDataset,
                    config: TrainConfig, method, alphas=(None,)) -> list:
    """Train one joint C+1-head model per alpha on the method's surrogate
    loss, as a single stacked pass.

    Every model starts from ``config.seed``'s initial weights and sees the
    same minibatch order, so each equals a lone run with its alpha. The loss
    gets one alpha per score row (None for a method without an alpha).
    """
    if dataset.d != val_dataset.d or dataset.num_classes != val_dataset.num_classes:
        raise ValueError("train and validation datasets must share d and C")
    c = dataset.num_classes
    k = len(alphas)
    batch_loss = LOSSES[method]
    y = dataset.labels
    hc = dataset.human_correct
    row_alpha = None if alphas[0] is None else np.asarray(alphas, dtype=float)
    score_kind = SCORE_KINDS[method]

    # batch length -> each stacked score row's position in the batch, and
    # its alpha; a fit sees at most two batch lengths
    stacking = {}

    def loss_fn(scores, idx):
        m = len(idx)
        if m not in stacking:
            stacking[m] = (np.tile(np.arange(m), k),
                           None if row_alpha is None else np.repeat(row_alpha, m))
        pos, alpha = stacking[m]
        stacked = idx[pos]
        return batch_loss(scores, y[stacked], hc[stacked], alpha)

    def system_acc(scores, ds):
        labels = _class_argmax(scores[:, :, :c])
        defer = _joint_rejection(scores, c, score_kind) >= 0.0
        return np.mean(system_correct(ds, defer, labels), axis=1)

    models, best_acc, best_epoch, best_train = _fit(
        dataset, val_dataset, config, c + 1, config.seed, loss_fn,
        lambda scores: system_acc(scores, val_dataset), rows=k,
        train_metric=lambda scores: system_acc(scores, dataset),
    )
    return [
        TrainedSystem(
            model=models[i], num_classes=c, tau=0.0, method=method, alpha=alpha,
            best_val_accuracy=float(best_acc[i]), best_epoch=int(best_epoch[i]),
            min_train_error=1.0 - float(best_train[i]),
        )
        for i, alpha in enumerate(alphas)
    ]


def _threshold_candidates(scores: np.ndarray) -> np.ndarray:
    """Midpoints of sorted distinct scores plus -inf/+inf sentinels."""
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0 if distinct.size > 1 else np.empty(0)
    return np.concatenate([[-np.inf], mids, [np.inf]])


def _threshold_counts(scores, human_correct, clf_correct, thresholds):
    """Points kept and points correct when every score >= tau is deferred.

    Returns two integer arrays, one entry per threshold. One stable sort and
    cumulative counts give every threshold at once.
    """
    scores = np.asarray(scores, dtype=float)
    order = np.argsort(scores, kind="stable")
    # correct points when the i lowest scores are kept and the rest deferred
    kept_ok = np.concatenate([[0], np.cumsum(np.asarray(clf_correct, dtype=bool)[order])])
    hum_ok = np.asarray(human_correct, dtype=bool)[order]
    deferred_ok = np.concatenate([np.cumsum(hum_ok[::-1])[::-1], [0]])
    # a midpoint can round onto a score, so split at each threshold's value
    kept = np.searchsorted(scores[order], thresholds, side="left")
    return kept, kept_ok[kept] + deferred_ok[kept]


def _line_search_threshold(scores, human_correct, clf_correct) -> float:
    """Threshold on rejection scores maximizing system accuracy.

    Ties pick the candidate closest to zero, then the smaller one.
    """
    candidates = _threshold_candidates(np.asarray(scores, dtype=float))
    _, correct = _threshold_counts(scores, human_correct, clf_correct, candidates)
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
    logq = _log_softmax(scores)
    rows = np.arange(len(y))
    vals = -logq[rows, y]
    grads = np.exp(logq)
    grads[rows, y] -= 1.0
    return vals, grads


def _logistic_batch(logits, targets01):
    z = logits[:, 0]
    ez = np.exp(-np.abs(z))
    t = targets01.astype(float)
    vals = _softplus(z, ez) - t * z
    grads = (_sigmoid(z, ez) - t)[:, None]
    return vals, grads


def _train_classifier(dataset, val_dataset, config, keep=None):
    """Cross-entropy classifier head; tracks validation class accuracy.

    ``keep(scores, idx)``, when given, weighs each point's loss in a batch.
    """
    y = dataset.labels

    def loss_fn(scores, idx):
        vals, grads = _ce_batch(scores, y[idx])
        if keep is None:
            return vals, grads
        weight = keep(scores, idx)
        return vals * weight, grads * weight[:, None]

    def class_accuracy(scores):
        return np.mean(_class_argmax(scores) == val_dataset.labels, axis=1)

    return _fit(dataset, val_dataset, config, dataset.num_classes, config.seed, loss_fn,
                class_accuracy)[0][0]


def _train_binary_head(dataset, targets01, val_dataset, val_targets01, config):
    """Single-logit head with logistic loss; tracks validation accuracy. Its
    rng is seeded one above the classifier's."""

    def loss_fn(scores, idx):
        return _logistic_batch(scores, targets01[idx])

    def accuracy(scores):
        return np.mean((scores[:, :, 0] >= 0) == val_targets01, axis=1)

    return _fit(dataset, val_dataset, config, 1, config.seed + 1, loss_fn, accuracy)[0][0]


def _with_val_accuracy(system, val_dataset):
    """A two-stage system with its validation system accuracy recorded."""
    defer, labels = system.decide(val_dataset.features)
    return replace(system, best_val_accuracy=system_accuracy(defer, labels, val_dataset))


def _train_compare_confidence(dataset, val_dataset, config: TrainConfig) -> TrainedSystem:
    """Classifier on all data plus a human-correctness model; defer when the
    predicted human-correctness probability beats the classifier's max
    softmax probability."""
    clf = _train_classifier(dataset, val_dataset, config)
    hum = _train_binary_head(
        dataset, dataset.human_correct, val_dataset, val_dataset.human_correct, config
    )
    system = TrainedSystem(model=clf, num_classes=dataset.num_classes, tau=0.0,
                           aux_model=hum, method="confidence")
    return _with_val_accuracy(system, val_dataset)


def _train_selective_prediction(dataset, val_dataset, config: TrainConfig) -> TrainedSystem:
    """Classifier on all data; defer when its confidence falls below a
    threshold line-searched on the validation set."""
    clf = _train_classifier(dataset, val_dataset, config)
    system = TrainedSystem(model=clf, num_classes=dataset.num_classes, tau=0.0,
                           method="selective")
    return _with_val_accuracy(system.with_tau(fit_tau(system, val_dataset)), val_dataset)


def _train_differentiable_triage(dataset, val_dataset, config: TrainConfig) -> TrainedSystem:
    """Two-stage triage: each epoch updates the classifier only on points
    where its current 0-1 loss is no worse than the human's, then fits a
    rejector to predict which of the two errs less per point (ties keep the
    classifier)."""
    y = dataset.labels
    hum01 = (~dataset.human_correct).astype(float)

    def keep(scores, idx):
        # numpy's argmax beats a column loop on these small contiguous batches
        return ((np.argmax(scores, axis=1) != y[idx]) <= hum01[idx]).astype(float)

    model = _train_classifier(dataset, val_dataset, config, keep)
    pred = _class_argmax(model.forward(dataset.features))
    defer_target = hum01 < (pred != y)  # ties mean do not defer
    val_pred = _class_argmax(model.forward(val_dataset.features))
    val_target = (~val_dataset.human_correct).astype(float) < (val_pred != val_dataset.labels)
    rejector = _train_binary_head(dataset, defer_target, val_dataset, val_target, config)
    system = TrainedSystem(model=model, num_classes=dataset.num_classes, tau=0.0,
                           aux_model=rejector, method="triage")
    return _with_val_accuracy(system, val_dataset)


# the alpha grid each alpha-searched method trains unless given one
ALPHA_GRIDS = {"rs": (0.0, 0.25, 0.5, 0.75, 1.0), "ce": (0.0, 0.1, 0.5, 1.0)}


def train_method(method: str, dataset, val_dataset, config: TrainConfig) -> TrainedSystem:
    """Train a method by its id: rs, rs2, ce, ova, moe, confidence,
    selective or triage.

    rs and ce train the sorted ``config.alpha_grid`` (``ALPHA_GRIDS[method]``
    when None) as one stacked pass and keep the best validation system
    accuracy, ties resolving to the smaller alpha; ``min_train_error`` is
    the lowest over the grid. The other methods ignore the grid.
    """
    if method in ALPHA_GRIDS:
        grid = sorted(ALPHA_GRIDS[method] if config.alpha_grid is None else config.alpha_grid)
        systems = _fit_surrogates(dataset, val_dataset, config, method, grid)
        best = max(systems, key=lambda system: system.best_val_accuracy)  # the first of ties
        return replace(best, min_train_error=min(s.min_train_error for s in systems))
    if method in ("rs2", "ova", "moe"):
        return _fit_surrogates(dataset, val_dataset, config, method)[0]
    if method == "confidence":
        return _train_compare_confidence(dataset, val_dataset, config)
    if method == "selective":
        return _train_selective_prediction(dataset, val_dataset, config)
    if method == "triage":
        return _train_differentiable_triage(dataset, val_dataset, config)
    raise ValueError(f"unknown method id {method!r}")
