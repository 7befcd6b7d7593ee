"""Training regimes for the fusion net.

Five regimes: dedicated single-feature nets, all-features training,
modality-drop training, and the two multistage strategies (seed-feature
initialization and all-features initialization). Every regime is
deterministic under a fixed seed: identical seeds give bit-identical
models. The per-batch objective is the mean over examples of the
summed-over-attributes BCE.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .evaluate import scores_to_aps
from .model import (HybridNet, Profile, build_net, net_backward, net_forward,
                    set_trainable)
from .nn import make_rng, sgd_step

# rng stream tags
_TAG_SHUFFLE = 20
_TAG_MODDROP = 21


@dataclass
class TrainConfig:
    lr: float = 0.01
    batch_size: int = 64
    epochs: int = 50          # per stage
    seed: int = 0
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.lr < 0 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("lr must be >= 0, batch size and epochs >= 1")
        if self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("momentum and weight decay must be >= 0")


@dataclass
class StageSchedule:
    """One training stage: which groups learn, which mask each batch sees."""

    trainable: list[str]
    mask_policy: str          # "full", "moddrop", or "single:<kind>"
    epochs: int


@dataclass
class TrainResult:
    net: HybridNet
    logs: list[dict] = field(default_factory=list)
    checkpoints: dict[str, HybridNet] = field(default_factory=dict)


def profile_for(dataset: Dataset, base: Profile) -> Profile:
    """Bind the profile's output width to the dataset's attribute count."""
    return dataclasses.replace(base, n_outputs=dataset.table.n_attributes)


def write_logs(rows: list[dict], path):
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["epoch", "stage", "train_loss", "val_map"])
        w.writeheader()
        w.writerows(rows)


def _apply_updates(net: HybridNet, grads, cfg: TrainConfig, velocities):
    """One SGD step, in place, for every trainable group.

    The step owns the buffers in `grads`: each is overwritten with
    lr * step and then subtracted, so the update makes no temporary the
    size of a layer (weight decay makes one, for wd * w). The arithmetic
    is unchanged: step = g + wd * w, v = m * v + step, w -= lr * v.
    """
    if cfg.lr == 0:
        return  # no parameter moves; velocities feed nothing else
    for group, layer_grads in grads.items():
        if not net.trainable.get(group, True):
            continue
        for li, (layer, g) in enumerate(zip(net.group_layers(group), layer_grads)):
            step_w, step_b = g.d_weights, g.d_bias
            if cfg.weight_decay > 0:
                step_w += cfg.weight_decay * layer.weights
                step_b += cfg.weight_decay * layer.bias
            if cfg.momentum > 0:
                if (group, li) not in velocities:
                    velocities[group, li] = (np.zeros(layer.weights.shape),
                                             np.zeros(layer.bias.shape))
                vw, vb = velocities[group, li]
                vw *= cfg.momentum
                vw += step_w
                vb *= cfg.momentum
                vb += step_b
                step_w, step_b = vw, vb
            np.multiply(step_w, cfg.lr, out=g.d_weights)
            np.multiply(step_b, cfg.lr, out=g.d_bias)
            sgd_step(layer, g, 1.0)


def validation_map(net: HybridNet, dataset: Dataset, mask) -> float:
    _, xs, y = dataset.arrays("val", kinds=list(mask))
    _, scores = net_forward(xs, mask, net)
    return scores_to_aps(scores, y)[1]


def run_stage(net: HybridNet, dataset: Dataset, cfg: TrainConfig, *,
              stage: str, mask_policy: str, val_mask, shuffle_key: int,
              epochs: int, logs: list[dict], on_batch=None) -> HybridNet:
    """Train one stage of `net` in place and return it at its best epoch.

    The best epoch has the highest validation mAP; ties keep the earlier
    epoch. Frozen groups are never updated, so a checkpoint holds copies
    of the trainable groups only; they go through `DenseLayer.copy`, whose
    finiteness check stops a diverged net from being kept. An improving
    last epoch is never restored, so it is checked in place, not copied.
    When the best epoch is not the last, its checkpoint is moved back
    into `net`.
    """
    if not any(net.trainable.values()):
        raise ValueError("no trainable group in this stage")
    if mask_policy.startswith("single:"):
        train_kinds = [mask_policy.split(":", 1)[1]]
    else:
        train_kinds = net.kind_names()
    _, xs, y = dataset.arrays("train", kinds=train_kinds)
    n = y.shape[0]
    shuffle_rng = make_rng(cfg.seed, _TAG_SHUFFLE, shuffle_key)
    drop_rng = make_rng(cfg.seed, _TAG_MODDROP, shuffle_key)
    learning = [g for g in net.group_ids() if net.trainable.get(g, True)]
    velocities = {}
    best, best_map, best_epoch = None, -np.inf, -1
    for epoch in range(1, epochs + 1):
        perm = shuffle_rng.permutation(n)
        total_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            if mask_policy == "moddrop":
                mask = [train_kinds[drop_rng.integers(len(train_kinds))]]
            else:
                mask = train_kinds
            batch = {k: xs[k][idx] for k in mask}
            grads, loss = net_backward(batch, mask, net, y[idx])
            _apply_updates(net, grads, cfg, velocities)
            total_loss += loss * len(idx)
            if on_batch is not None:
                on_batch(net, list(mask))
        val_map = validation_map(net, dataset, list(val_mask))
        logs.append({"epoch": epoch, "stage": stage,
                     "train_loss": total_loss / n, "val_map": val_map})
        if val_map > best_map:
            best = None  # free the old checkpoint before copying the new one
            if epoch < epochs:
                best = {g: [layer.copy() for layer in net.group_layers(g)]
                        for g in learning}
            else:
                for g in learning:
                    for layer in net.group_layers(g):
                        layer.check_finite()
            best_map, best_epoch = val_map, epoch
    if best_epoch != epochs:
        for group, saved in best.items():
            for layer, kept in zip(net.group_layers(group), saved):
                layer.weights, layer.bias = kept.weights, kept.bias
    return net


def train_dedicated(kind: str, dataset: Dataset, cfg: TrainConfig,
                    profile: Profile) -> TrainResult:
    """Single-feature net: one branch plus trunk, trained and selected on `kind`."""
    if kind not in dataset.banks:
        raise ValueError(f"dataset has no bank for kind {kind!r}")
    profile = profile_for(dataset, profile)
    net = build_net([(kind, dataset.banks[kind].dim)], profile, cfg.seed)
    logs = []
    net = run_stage(net, dataset, cfg, stage=f"dedicated:{kind}",
                    mask_policy=f"single:{kind}", val_mask=[kind],
                    shuffle_key=0, epochs=cfg.epochs, logs=logs)
    return TrainResult(net, logs)


def train_allfeatnet(dataset: Dataset, cfg: TrainConfig, profile: Profile) -> TrainResult:
    """Every batch carries the full feature mask; all groups learn."""
    profile = profile_for(dataset, profile)
    net = build_net(dataset.kind_dims(), profile, cfg.seed)
    logs = []
    net = run_stage(net, dataset, cfg, stage="allfeat", mask_policy="full",
                    val_mask=net.kind_names(), shuffle_key=0,
                    epochs=cfg.epochs, logs=logs)
    return TrainResult(net, logs)


def train_moddrop(dataset: Dataset, cfg: TrainConfig, profile: Profile,
                  on_batch=None) -> TrainResult:
    """Each batch uses a single kind drawn uniformly from the seeded stream."""
    profile = profile_for(dataset, profile)
    net = build_net(dataset.kind_dims(), profile, cfg.seed)
    logs = []
    net = run_stage(net, dataset, cfg, stage="moddrop", mask_policy="moddrop",
                    val_mask=net.kind_names(), shuffle_key=0,
                    epochs=cfg.epochs, logs=logs, on_batch=on_batch)
    return TrainResult(net, logs)


def train_multistage_seedinit(seed_kind: str, dataset: Dataset, cfg: TrainConfig,
                              profile: Profile, stage_order=None) -> TrainResult:
    """Seed-feature-initialized multistage training.

    Stage 1 trains the seed branch plus the trunk on seed-kind batches.
    Each later stage freezes the trunk and trains one remaining branch
    from its fresh seeded initialization on single-kind batches, so stage
    order cannot influence any branch's final parameters.
    """
    if seed_kind not in dataset.banks:
        raise ValueError(f"dataset has no bank for seed kind {seed_kind!r}")
    profile = profile_for(dataset, profile)
    net = build_net(dataset.kind_dims(), profile, cfg.seed)
    logs = []
    for group in net.group_ids():
        set_trainable(net, group, group in (seed_kind, "trunk"))
    net = run_stage(net, dataset, cfg, stage=f"stage1:{seed_kind}",
                    mask_policy=f"single:{seed_kind}", val_mask=[seed_kind],
                    shuffle_key=net.kind_by_name(seed_kind).id,
                    epochs=cfg.epochs, logs=logs)
    checkpoints = {"stage1": net.copy()}
    set_trainable(net, "trunk", False)
    set_trainable(net, seed_kind, False)
    remaining = [k for k in (stage_order or net.kind_names()) if k != seed_kind]
    if sorted(remaining) != sorted(k for k in net.kind_names() if k != seed_kind):
        raise ValueError("stage_order must cover every non-seed kind exactly once")
    for kind in remaining:
        set_trainable(net, kind, True)
        net = run_stage(net, dataset, cfg, stage=f"stage:{kind}",
                        mask_policy=f"single:{kind}", val_mask=[kind],
                        shuffle_key=net.kind_by_name(kind).id,
                        epochs=cfg.epochs, logs=logs)
        set_trainable(net, kind, False)
    for group in net.group_ids():
        set_trainable(net, group, True)
    return TrainResult(net, logs, checkpoints)


def train_allfeatnetinit(dataset: Dataset, cfg: TrainConfig,
                         profile: Profile) -> TrainResult:
    """All-features-initialized multistage training.

    Phase 1 is plain all-features training. Phase 2 freezes the trunk and
    fine-tunes each branch independently (starting from its phase-1
    values) with single-kind batches.
    """
    result = train_allfeatnet(dataset, cfg, profile)
    net, logs = result.net, result.logs
    checkpoints = {"phase1": net.copy()}
    set_trainable(net, "trunk", False)
    for kind in net.kind_names():
        set_trainable(net, kind, False)
    for kind in net.kind_names():
        set_trainable(net, kind, True)
        net = run_stage(net, dataset, cfg, stage=f"finetune:{kind}",
                        mask_policy=f"single:{kind}", val_mask=[kind],
                        shuffle_key=100 + net.kind_by_name(kind).id,
                        epochs=cfg.epochs, logs=logs)
        set_trainable(net, kind, False)
    for group in net.group_ids():
        set_trainable(net, group, True)
    return TrainResult(net, logs, checkpoints)


REGIMES = ("dedicated", "allfeat", "moddrop", "multistage", "allfeatinit")


def train_regime(regime: str, dataset: Dataset, cfg: TrainConfig,
                 profile: Profile) -> TrainResult:
    """Dispatch on a regime string: `dedicated:<kind>`, `allfeat`, `moddrop`,
    `multistage:<seed-kind>`, or `allfeatinit`."""
    name, _, arg = regime.partition(":")
    if name == "dedicated":
        if not arg:
            raise ValueError("regime 'dedicated' needs a kind, e.g. dedicated:fv")
        return train_dedicated(arg, dataset, cfg, profile)
    if name == "allfeat":
        return train_allfeatnet(dataset, cfg, profile)
    if name == "moddrop":
        return train_moddrop(dataset, cfg, profile)
    if name == "multistage":
        if not arg:
            raise ValueError("regime 'multistage' needs a seed kind, e.g. multistage:fv")
        return train_multistage_seedinit(arg, dataset, cfg, profile)
    if name == "allfeatinit":
        return train_allfeatnetinit(dataset, cfg, profile)
    raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
