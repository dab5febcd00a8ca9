"""Data model and exact 0-1 semantics for human-AI deferral systems.

A deferral system pairs a classifier with a rejector. On each input the
rejector decides who produces the final label: the classifier, or the human
whose prediction was recorded alongside the ground truth. The system loss is
the plain 0-1 error of whoever ended up predicting.

Conventions used throughout the package:

* features are augmented with a constant-1 bias coordinate appended LAST,
  so weight vectors have length d+1 and the final entry is the bias;
* a rejector defers exactly when ``R . x_tilde >= 0`` (ties defer);
* a binary classifier predicts 1 exactly when ``M . x_tilde > 0``;
* multiclass argmax ties break toward the lowest class id.

Every deferral system, a ``HalfspacePair`` or a ``train.TrainedSystem``,
decides alike: ``decide(features)`` gives each row's (deferred, classifier
label), and it defers where ``rejection_scores`` reaches ``tau``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "DeferDataset",
    "HalfspacePair",
    "augment",
    "system_loss_01",
    "save_dataset_csv",
    "load_dataset_csv",
]


def _readonly(a):
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DeferDataset:
    """Features, ground-truth labels, and human predictions for one task.

    features : (n, d) float array, caller-scaled
    labels, human_preds : (n,) integer arrays with values in [0, num_classes)
    num_classes : C >= 2
    """

    features: np.ndarray
    labels: np.ndarray
    human_preds: np.ndarray
    num_classes: int

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.features, dtype=float))
        if x.ndim != 2:
            raise ValueError("features must be a 2-D array")
        n, d = x.shape
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 samples and d >= 1 features")
        if not np.all(np.isfinite(x)):
            raise ValueError("features contain NaN or Inf")
        y = np.ascontiguousarray(np.asarray(self.labels, dtype=np.int64))
        h = np.ascontiguousarray(np.asarray(self.human_preds, dtype=np.int64))
        if y.shape != (n,) or h.shape != (n,):
            raise ValueError("labels and human_preds must have shape (n,)")
        c = int(self.num_classes)
        if c < 2:
            raise ValueError("num_classes must be >= 2")
        for name, v in (("labels", y), ("human_preds", h)):
            if v.min() < 0 or v.max() >= c:
                raise ValueError(f"{name} must lie in [0, {c})")
        object.__setattr__(self, "features", _readonly(x))
        object.__setattr__(self, "labels", _readonly(y))
        object.__setattr__(self, "human_preds", _readonly(h))
        object.__setattr__(self, "num_classes", c)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def human_correct(self) -> np.ndarray:
        """Boolean mask of points where the recorded human prediction is right."""
        return self.human_preds == self.labels

    def subset(self, idx) -> "DeferDataset":
        """Row subset with the same number of classes."""
        idx = np.asarray(idx)
        return DeferDataset(
            self.features[idx], self.labels[idx], self.human_preds[idx], self.num_classes
        )


@dataclass(frozen=True)
class HalfspacePair:
    """A classifier/rejector weight pair acting on bias-augmented features.

    For binary tasks ``classifier_weights`` is a single length d+1 vector and
    the label is 1 iff its activation is positive. For multiclass it is a
    (C, d+1) matrix and the label is the argmax row. ``rejector_weights`` is
    always one length d+1 vector; the pair defers iff its activation is >= 0.
    Its methods take (n, d) raw features.
    """

    classifier_weights: np.ndarray
    rejector_weights: np.ndarray
    tau: ClassVar[float] = 0.0

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.classifier_weights, dtype=float))
        r = np.ascontiguousarray(np.asarray(self.rejector_weights, dtype=float))
        if m.ndim not in (1, 2):
            raise ValueError("classifier_weights must be 1-D (binary) or 2-D (multiclass)")
        if m.ndim == 2 and m.shape[0] < 2:
            raise ValueError("multiclass classifier needs at least 2 weight rows")
        if r.ndim != 1:
            raise ValueError("rejector_weights must be 1-D")
        if m.shape[-1] != r.shape[0]:
            raise ValueError("classifier and rejector dimensions differ")
        if m.shape[-1] < 2:
            raise ValueError("weights must include a bias entry (length d+1 >= 2)")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(r))):
            raise ValueError("weights contain NaN or Inf")
        object.__setattr__(self, "classifier_weights", _readonly(m))
        object.__setattr__(self, "rejector_weights", _readonly(r))

    @property
    def dim(self) -> int:
        """Raw feature dimension d (weights have length d+1)."""
        return self.rejector_weights.shape[0] - 1

    @property
    def num_classes(self) -> int:
        m = self.classifier_weights
        return 2 if m.ndim == 1 else m.shape[0]

    def _augmented(self, features) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.ndim != 2 or features.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) features")
        return augment(features)

    def rejection_scores(self, features) -> np.ndarray:
        return self._augmented(features) @ self.rejector_weights

    def classifier_labels(self, features) -> np.ndarray:
        """The sign test for a binary pair, the lowest-index argmax (as
        np.argmax breaks ties) for a multiclass one."""
        activations = self._augmented(features) @ self.classifier_weights.T
        if activations.ndim == 1:
            return (activations > 0.0).astype(np.int64)
        return np.argmax(activations, axis=1).astype(np.int64)

    def decide(self, features):
        """(deferred, classifier_labels) at threshold 0."""
        return self.rejection_scores(features) >= self.tau, self.classifier_labels(features)


def augment(x) -> np.ndarray:
    """Append the constant-1 bias coordinate to a vector or a stack of rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return np.concatenate([x, [1.0]])
    return np.hstack([x, np.ones((x.shape[0], 1))])


def system_correct(dataset: DeferDataset, deferred, classifier_labels) -> np.ndarray:
    """Whether the system is right on each point: the human where deferred,
    else the classifier label. Broadcasts over leading axes of the
    decisions."""
    return np.where(deferred, dataset.human_correct,
                    np.asarray(classifier_labels) == dataset.labels)


def system_loss_01(dataset: DeferDataset, deferred, classifier_labels) -> float:
    """Exact empirical 0-1 loss of the human-AI system.

    Each point contributes 1/n when it is deferred and the human is wrong,
    or kept and the supplied classifier label is wrong.
    """
    deferred = np.asarray(deferred, dtype=bool)
    labels = np.asarray(classifier_labels, dtype=np.int64)
    if deferred.shape != (dataset.n,) or labels.shape != (dataset.n,):
        raise ValueError("decisions must have one entry per dataset point")
    errors = dataset.n - np.count_nonzero(system_correct(dataset, deferred, labels))
    return float(errors) / dataset.n


# ---------------------------------------------------------------------------
# Dataset CSV interchange: header x0,...,x{d-1},y,h, one row per sample.
# ---------------------------------------------------------------------------


def save_dataset_csv(dataset: DeferDataset, path) -> None:
    """Write a dataset as CSV with header ``x0,...,x{d-1},y,h``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j}" for j in range(dataset.d)] + ["y", "h"])
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.features[i]]
            writer.writerow(row + [int(dataset.labels[i]), int(dataset.human_preds[i])])


def load_dataset_csv(path) -> DeferDataset:
    """Load a dataset CSV, rejecting non-finite feature values.

    The class count is one more than the largest label or human prediction
    in the file, and at least 2. Parse failures report the offending line
    number.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: line 1: empty file") from None
        d = len(header) - 2
        expected = [f"x{j}" for j in range(d)] + ["y", "h"]
        if d < 1 or header != expected:
            raise ValueError(f"{path}: line 1: bad header, expected x0,...,x{{d-1}},y,h")
        feats, ys, hs = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise ValueError(f"{path}: line {lineno}: expected {d + 2} fields, got {len(row)}")
            try:
                x = [float(v) for v in row[:d]]
                y = int(row[d])
                h = int(row[d + 1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: unparseable value") from None
            if not all(np.isfinite(x)):
                raise ValueError(f"{path}: line {lineno}: non-finite feature value")
            feats.append(x)
            ys.append(y)
            hs.append(h)
    if not feats:
        raise ValueError(f"{path}: no data rows")
    ys = np.asarray(ys)
    hs = np.asarray(hs)
    num_classes = max(2, int(max(ys.max(), hs.max())) + 1)
    return DeferDataset(np.asarray(feats), ys, hs, num_classes)
