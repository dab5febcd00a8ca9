"""Synthetic deferral instances: planted halfspaces and grouped experts.

Two generators cover the benchmark's needs. ``generate_synthetic`` plants a
random classifier/rejector halfspace pair and draws binary labels and human
predictions around it with configurable noise; with ``p_m = 0`` and
``p_h1 = 0`` the planted pair has exactly zero training loss.
``generate_grouped_expert`` builds a multiclass task from one Gaussian blob
per class with a human who is perfect on the first K classes and guesses
uniformly elsewhere.

Randomness comes from numpy's PCG64 via ``SeedSequence(seed)``. Each
generator spawns named child streams (features, halfspaces, labels, human),
so a change in how one ingredient consumes randomness cannot shift the
others, and dataset seeds never interact with training seeds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from .core import DeferDataset, HalfspacePair, augment

__all__ = [
    "SyntheticConfig",
    "GroupedExpertConfig",
    "PlantedInstance",
    "generate_synthetic",
    "generate_grouped_expert",
    "generate_instance",
    "save_instance_metadata",
]

# planted halfspaces are resampled until each side holds this much of the sample
REGION_MASS_FLOOR = 0.1


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the planted-halfspace binary generator.

    distribution: "uniform" draws X ~ Unif(0, U)^d; "gaussian_mixture" draws
    from K equally weighted Gaussians with means Unif(0, U)^d and
    per-coordinate standard deviations Unif(0, 1) * U * std_scale. Lowering
    std_scale tightens the blobs, which makes planted boundaries cross less
    probability mass.
    margin: when positive, points falling within this fraction of the median
    activation magnitude of either planted boundary are redrawn, so the
    planted pair holds the margin assumption on the sample.
    p_m: label noise where the planted rejector keeps the point.
    p_h0 / p_h1: human error probability on the kept / deferred side.
    """

    d: int
    n: int
    distribution: str = "gaussian_mixture"
    U: float = 10.0
    K: int = 10
    std_scale: float = 1.0
    margin: float = 0.0
    p_m: float = 0.0
    p_h0: float = 0.3
    p_h1: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        if self.distribution not in ("uniform", "gaussian_mixture"):
            raise ValueError("distribution must be 'uniform' or 'gaussian_mixture'")
        # every float test is written so that NaN fails it
        if not 0 < self.U < math.inf:
            raise ValueError("U must be positive and finite")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if not 0 < self.std_scale < math.inf:
            raise ValueError("std_scale must be positive and finite")
        if not 0.0 <= self.margin < 1.0:
            raise ValueError("margin must lie in [0, 1)")
        for name in ("p_m", "p_h0", "p_h1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass(frozen=True)
class GroupedExpertConfig:
    """Multiclass Gaussian-blob task with an expert perfect on y < K."""

    d: int
    n: int
    C: int
    K: int
    U: float = 10.0
    blob_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("need d >= 1 and n >= 1")
        if self.C < 2:
            raise ValueError("C must be >= 2")
        if not 0 <= self.K <= self.C:
            raise ValueError("need 0 <= K <= C")
        for name in ("U", "blob_std"):
            if not -math.inf < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class PlantedInstance:
    """A dataset together with the halfspace pair that generated it."""

    dataset: DeferDataset
    planted_pair: HalfspacePair


def _draw_features(cfg: SyntheticConfig, rng_feat) -> np.ndarray:
    if cfg.distribution == "uniform":
        return rng_feat.uniform(0.0, cfg.U, size=(cfg.n, cfg.d))
    means = rng_feat.uniform(0.0, cfg.U, size=(cfg.K, cfg.d))
    stds = rng_feat.uniform(0.0, 1.0, size=(cfg.K, cfg.d)) * cfg.U * cfg.std_scale
    comp = rng_feat.integers(0, cfg.K, size=cfg.n)
    return means[comp] + rng_feat.standard_normal((cfg.n, cfg.d)) * stds[comp]


def _draw_halfspace(xt: np.ndarray, rng, max_tries: int = 1000) -> np.ndarray:
    """Unit-norm random halfspace whose two sides each hold >= 10% of the sample.

    The mass floor rules out degenerate all-defer or never-defer plants.
    """
    n = xt.shape[0]
    best, best_gap = None, -1.0
    for _ in range(max_tries):
        w = rng.standard_normal(xt.shape[1])
        w /= np.linalg.norm(w)
        frac = float(np.mean(xt @ w >= 0.0))
        gap = min(frac, 1.0 - frac)
        if gap >= REGION_MASS_FLOOR or n < 5:
            return w
        if gap > best_gap:
            best, best_gap = w, gap
    return best  # tiny samples may not admit the floor; keep the best split


def _carve_margin_bands(x, cfg: SyntheticConfig, pair_weights, rng, max_rounds=200):
    """Redraw points lying inside either planted boundary's margin band.

    Implements the margin assumption on the sample: the final features keep
    the configured distribution truncated away from both decision surfaces.
    Band half-widths are ``margin`` times the median activation magnitude.
    """
    xt = augment(x)
    eps = []
    for w in pair_weights:
        mag = np.abs(xt @ w)
        eps.append(cfg.margin * float(np.median(mag)))
    for _ in range(max_rounds):
        xt = augment(x)
        bad = np.zeros(len(x), dtype=bool)
        for w, e in zip(pair_weights, eps):
            bad |= np.abs(xt @ w) < e
        if not bad.any():
            break
        redraw_cfg = replace(cfg, n=int(bad.sum()))
        x[bad] = _draw_features(redraw_cfg, rng)
    return x


def generate_synthetic(config: SyntheticConfig) -> PlantedInstance:
    """Draw a planted binary deferral instance per the synthetic protocol.

    Labels on the kept side agree with the planted classifier with
    probability 1 - p_m and are uniform otherwise; labels on the deferred
    side are uniform. The human errs with probability p_h0 on the kept side
    and p_h1 on the deferred side.
    """
    seq = np.random.SeedSequence(config.seed)
    rng_feat, rng_half, rng_label, rng_human = (
        np.random.default_rng(s) for s in seq.spawn(4)
    )
    x = _draw_features(config, rng_feat)
    xt = augment(x)
    m_star = _draw_halfspace(xt, rng_half)
    r_star = _draw_halfspace(xt, rng_half)
    if config.margin > 0:
        x = _carve_margin_bands(x, config, (m_star, r_star), rng_feat)
        xt = augment(x)
    pair = HalfspacePair(m_star, r_star)

    kept = xt @ r_star < 0.0
    m_labels = (xt @ m_star > 0.0).astype(np.int64)
    labels = np.where(
        kept & (rng_label.random(config.n) >= config.p_m),
        m_labels,
        rng_label.integers(0, 2, size=config.n),
    )
    p_err = np.where(kept, config.p_h0, config.p_h1)
    human_wrong = rng_human.random(config.n) < p_err
    human = np.where(human_wrong, 1 - labels, labels)

    dataset = DeferDataset(x, labels, human, 2)
    return PlantedInstance(dataset=dataset, planted_pair=pair)


def generate_grouped_expert(d: int, n: int, C: int, K: int, seed: int = 0, *,
                            U: float = 10.0, blob_std: float = 1.0) -> DeferDataset:
    """Multiclass blobs with a grouped expert: perfect on y < K, uniform above.

    Classes are balanced up to remainder; each class draws from its own
    isotropic Gaussian blob with mean Unif(0, U)^d.
    """
    cfg = GroupedExpertConfig(d=d, n=n, C=C, K=K, U=U, blob_std=blob_std, seed=seed)
    seq = np.random.SeedSequence(cfg.seed)
    rng_feat, rng_human = (np.random.default_rng(s) for s in seq.spawn(2))

    labels = np.arange(n, dtype=np.int64) % C
    labels = rng_feat.permutation(labels)
    means = rng_feat.uniform(0.0, cfg.U, size=(C, d))
    x = means[labels] + rng_feat.standard_normal((n, d)) * cfg.blob_std

    guesses = rng_human.integers(0, C, size=n)
    human = np.where(labels < K, labels, guesses)
    return DeferDataset(x, labels, human, C)


def generate_instance(config) -> tuple:
    """Generate from a config of either kind: the dataset and the planted
    pair, which is None for grouped data."""
    if isinstance(config, SyntheticConfig):
        instance = generate_synthetic(config)
        return instance.dataset, instance.planted_pair
    if isinstance(config, GroupedExpertConfig):
        return generate_grouped_expert(**asdict(config)), None
    raise ValueError("config must be a SyntheticConfig or GroupedExpertConfig")


def save_instance_metadata(path, config, pair: Optional[HalfspacePair] = None) -> None:
    """Write the plain-text key=value sidecar describing a generated instance
    of either kind: ``kind=grouped`` for grouped data, the seed, the other
    config fields in order (a grouped config's K under its config-file key
    ``expert_k``), then the planted pair when given."""
    grouped = isinstance(config, GroupedExpertConfig)
    lines = ["kind=grouped"] if grouped else []
    for name in ["seed"] + [f.name for f in fields(config) if f.name != "seed"]:
        key = "expert_k" if grouped and name == "K" else name
        lines.append(f"{key}={getattr(config, name)}")
    if pair is not None:
        m = ",".join(repr(float(v)) for v in np.atleast_2d(pair.classifier_weights).ravel())
        r = ",".join(repr(float(v)) for v in pair.rejector_weights)
        lines.append(f"planted_classifier={m}")
        lines.append(f"planted_rejector={r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
