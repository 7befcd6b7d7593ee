"""Training regimes for the fusion net.

Five regimes: dedicated single-feature nets, all-features training,
modality-drop training, and the two multistage strategies (seed-feature
initialization and all-features initialization). Each regime is a list
of `StageSchedule`s, and `run_schedule` runs every list. Every regime is
deterministic under a fixed seed: identical seeds give bit-identical
models. The per-batch objective is the mean over examples of the
summed-over-attributes BCE.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import itertools
import sys
from dataclasses import dataclass, field

import numpy as np

from . import blas
from .binfmt import atomic_file
from .data import Dataset
from .evaluate import UndefinedAPError, evaluate_mask
from .model import HybridNet, Profile, build_net, net_backward, set_trainable
from .nn import LayerGrad, make_rng, sgd_update

# rng stream tags
_TAG_SHUFFLE = 20
_TAG_MODDROP = 21


@dataclass
class TrainConfig:
    lr: float = 0.01
    batch_size: int = 64
    epochs: int = 20          # per stage
    seed: int = 0
    momentum: float = 0.0
    weight_decay: float = 0.0

    def __post_init__(self):
        # seed first: of several bad values, the first in this order is reported
        for name, least in (("seed", 0), ("epochs", 1), ("batch_size", 1)):
            value = getattr(self, name)
            # bool is an int subclass: JSON true/false must not pass as 1/0
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"config {name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"config {name} must be >= {least}, got {value}")
        for name in ("lr", "momentum", "weight_decay"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"config {name} must be a number, got {value!r}")
            # NaN fails every comparison, and an int beyond float range the upper one
            if not 0 <= value <= sys.float_info.max:
                raise ValueError(f"config {name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class StageSchedule:
    """One training stage of `cfg.epochs` epochs: which groups learn, which
    mask each batch sees, and the name of the net copy kept after it."""

    stage: str                # log label
    trainable: tuple[str, ...]
    mask_policy: str          # "full", "moddrop", or "single:<kind>"
    shuffle_key: int = 0
    checkpoint: str | None = None


@dataclass
class TrainResult:
    net: HybridNet
    logs: list[dict] = field(default_factory=list)
    checkpoints: dict[str, HybridNet] = field(default_factory=dict)


def profile_for(dataset: Dataset, base: Profile) -> Profile:
    """Bind the profile's output width to the dataset's attribute count."""
    return dataclasses.replace(base, n_outputs=dataset.table.n_attributes)


def write_logs(rows: list[dict], path):
    with atomic_file(path) as raw, io.TextIOWrapper(raw, "utf-8", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["epoch", "stage", "train_loss", "val_map"])
        w.writeheader()
        w.writerows(rows)


def _apply_updates(layers, grads, cfg: TrainConfig, velocities, runs=None):
    """One `sgd_update` per (parameter, gradient) array pair of `runs`,
    which overwrites the gradient. The pairs are each weight and bias
    array of `layers` with its gradient from `grads` (in the same order),
    unless a stage passes the runs `_pack` made alone. `velocities` maps
    a pair's position to its v."""
    if runs is None:
        runs = [pair for layer, g in zip(layers, grads)
                for pair in ((layer.weights, g.d_weights), (layer.bias, g.d_bias))]
    for i, (param, g) in enumerate(runs):
        if cfg.momentum > 0 and i not in velocities:
            velocities[i] = np.zeros(param.shape)
        sgd_update(param, g, cfg.lr, cfg.weight_decay, cfg.momentum, velocities.get(i))


def _pack(layers) -> list[tuple[np.ndarray, np.ndarray]]:
    """Give `layers` (one group's, in order) gradient buffers for a stage
    and return the (parameter, gradient) runs that `_apply_updates` steps
    once each. An array of `blas.MIN_SIZE` elements or more is a run of
    its own and keeps its storage. Each maximal run of smaller arrays
    (weights, bias, next weights, ...) is copied into one buffer, and the
    layers' arrays and gradients become views of it and of its gradient
    buffer, so that a desk-width group is one step, not one per array."""
    for layer in layers:
        layer.grad = LayerGrad.empty_like(layer)
    slots = [(layer, name) for layer in layers for name in ("weights", "bias")]
    runs = []
    for small, run in itertools.groupby(slots, lambda s: getattr(*s).size < blas.MIN_SIZE):
        run = list(run)
        if not small:
            runs += [(getattr(layer, name), getattr(layer.grad, "d_" + name))
                     for layer, name in run]
            continue
        arrays = [getattr(layer, name) for layer, name in run]
        param = np.concatenate([a.ravel() for a in arrays])
        grad = np.empty_like(param)
        cuts = np.cumsum([a.size for a in arrays[:-1]])
        for (layer, name), a, p, g in zip(run, arrays, np.split(param, cuts),
                                          np.split(grad, cuts)):
            setattr(layer, name, p.reshape(a.shape))
            setattr(layer.grad, "d_" + name, g.reshape(a.shape))
        runs.append((param, grad))
    return runs


def _policy_kinds(mask_policy: str, net: HybridNet) -> list[str]:
    """The kinds a stage trains and validates on: the one kind of a
    `single:<kind>` policy, every kind of `net` otherwise."""
    if mask_policy.startswith("single:"):
        return [mask_policy.split(":", 1)[1]]
    return net.kind_names()


def validation_map(net: HybridNet, dataset: Dataset, mask) -> float:
    return evaluate_mask(net, dataset, "val", mask)[1]


def run_stage(net: HybridNet, dataset: Dataset, cfg: TrainConfig, *,
              stage: str, mask_policy: str, val_mask, shuffle_key: int,
              epochs: int, logs: list[dict], on_batch=None) -> HybridNet:
    """Train one stage of `net` in place and return it at its best epoch.

    The best epoch has the highest validation mAP; ties keep the earlier
    epoch. Frozen groups are never updated, so the checkpoint, the check
    and the SGD step walk only the learning groups' layers. A checkpoint
    goes through `DenseLayer.copy`, whose finiteness check stops a
    diverged net from being kept. An improving last epoch is never
    restored, so it is checked in place, not copied. When the best epoch
    is not the last, its checkpoint is moved back into `net`. Each
    learning layer holds one gradient buffer for the stage, and `_pack`
    lays each learning group out in runs that one SGD step each updates.
    A group outside a batch's mask (moddrop) steps from the zeros that
    `net_backward` writes into its buffers.

    The training split is never stacked: each batch takes its float32
    rows from the banks, and `net_backward` lifts them to float64, which
    gives the bytes a float64 stack would.
    """
    if not any(net.trainable.values()):
        raise ValueError("no trainable group in this stage")
    train_kinds = _policy_kinds(mask_policy, net)
    _, _, y = dataset.arrays("train", kinds=())
    rows = {k: dataset.rows("train", k) for k in train_kinds}
    matrices = {k: dataset.banks[k].matrix for k in train_kinds}
    n = y.shape[0]
    shuffle_rng = make_rng(cfg.seed, _TAG_SHUFFLE, shuffle_key)
    drop_rng = make_rng(cfg.seed, _TAG_MODDROP, shuffle_key)
    learning = [g for g in net.group_ids() if net.trainable.get(g, True)]
    layers = [layer for g in learning for layer in net.group_layers(g)]
    velocities = {}
    best, best_map, best_epoch = None, -np.inf, -1
    try:
        runs = [run for g in learning for run in _pack(net.group_layers(g))]
        for epoch in range(1, epochs + 1):
            perm = shuffle_rng.permutation(n)
            order = {k: rows[k][perm] for k in train_kinds}
            total_loss = 0.0
            for start in range(0, n, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                if mask_policy == "moddrop":
                    mask = [train_kinds[drop_rng.integers(len(train_kinds))]]
                else:
                    mask = train_kinds
                batch = {k: matrices[k].take(order[k][start:start + cfg.batch_size], axis=0)
                         for k in mask}
                _, loss = net_backward(batch, mask, net, y[idx])
                _apply_updates((), (), cfg, velocities, runs)
                total_loss += loss * len(idx)
                if on_batch is not None:
                    on_batch(net, list(mask))
            val_map = validation_map(net, dataset, list(val_mask))
            logs.append({"epoch": epoch, "stage": stage,
                         "train_loss": total_loss / n, "val_map": val_map})
            if val_map > best_map:
                best = None  # free the old checkpoint before copying the new one
                if epoch < epochs:
                    best = [layer.copy() for layer in layers]
                else:
                    for layer in layers:
                        layer.check_finite()
                best_map, best_epoch = val_map, epoch
    finally:
        for layer in layers:
            layer.grad = None
    if best_epoch != epochs:
        for layer, kept in zip(layers, best):
            layer.weights, layer.bias = kept.weights, kept.bias
    return net


REGIMES = ("dedicated", "allfeat", "moddrop", "multistage", "allfeatinit")


def regime_schedule(regime: str, kinds: list[str], stage_order=None) -> list[StageSchedule]:
    """The stages of `dedicated:<kind>`, `allfeat`, `moddrop`,
    `multistage:<seed-kind>` or `allfeatinit` over `kinds` (in kind-id
    order); `stage_order` orders multistage's later stages. Every bad
    argument raises here, before anything trains."""
    name, colon, arg = regime.partition(":")
    if name not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if name in ("dedicated", "multistage"):
        what = "seed kind" if name == "multistage" else "kind"
        if not arg:
            raise ValueError(f"regime {name!r} needs a {what}, e.g. {name}:fv")
        if arg not in kinds:
            raise ValueError(f"dataset has no bank for {what} {arg!r}")
    elif colon:
        raise ValueError(f"regime {name!r} takes no kind, got {regime!r}")
    every = (*kinds, "trunk")
    if name == "dedicated":
        return [StageSchedule(f"dedicated:{arg}", (arg, "trunk"), f"single:{arg}")]
    if name == "allfeat":
        return [StageSchedule("allfeat", every, "full")]
    if name == "moddrop":
        return [StageSchedule("moddrop", every, "moddrop")]
    if name == "multistage":
        # the seed branch and the trunk first; then, trunk frozen, each
        # remaining branch from its fresh seeded initialization, so stage
        # order cannot influence any branch's final parameters
        remaining = list(stage_order) if stage_order else [k for k in kinds if k != arg]
        if sorted(remaining) != sorted(k for k in kinds if k != arg):
            raise ValueError("stage_order must list every non-seed kind exactly once, "
                             f"and not the seed kind {arg!r}")
        return [StageSchedule(f"stage1:{arg}", (arg, "trunk"), f"single:{arg}",
                              kinds.index(arg), checkpoint="stage1")] + [
            StageSchedule(f"stage:{k}", (k,), f"single:{k}", kinds.index(k))
            for k in remaining]
    # allfeatinit: all-features training, then, trunk frozen, each branch
    # fine-tuned from its phase-1 values
    return [StageSchedule("allfeat", every, "full", checkpoint="phase1")] + [
        StageSchedule(f"finetune:{k}", (k,), f"single:{k}", 100 + kinds.index(k))
        for k in kinds]


def _learn_only(net: HybridNet, groups):
    for group in net.group_ids():
        set_trainable(net, group, group in groups)


def run_schedule(stages: list[StageSchedule], dataset: Dataset, cfg: TrainConfig,
                 profile: Profile, on_batch=None) -> TrainResult:
    """Train a fresh net, with a branch for every kind some stage trains,
    through `stages`: in each, exactly its groups learn; after the last,
    every group does. A val split with no examples (`DataFormatError`)
    or no positive label (`UndefinedAPError`), and a bank that lacks a
    train or val id (`DataFormatError`), fail before the net is built."""
    _, _, val_labels = dataset.arrays("val", kinds=())
    if not val_labels.any():
        raise UndefinedAPError("split 'val' has no positive label for any attribute; "
                               "validation AP is undefined")
    learned = {g for s in stages for g in s.trainable}
    kind_dims = [kd for kd in dataset.kind_dims() if kd[0] in learned]
    for kind, _ in kind_dims:
        for split in ("train", "val"):
            dataset.rows(split, kind)
    net = build_net(kind_dims, profile_for(dataset, profile), cfg.seed)
    logs, checkpoints = [], {}
    for s in stages:
        _learn_only(net, s.trainable)
        run_stage(net, dataset, cfg, stage=s.stage, mask_policy=s.mask_policy,
                  val_mask=_policy_kinds(s.mask_policy, net), shuffle_key=s.shuffle_key,
                  epochs=cfg.epochs, logs=logs, on_batch=on_batch)
        if s.checkpoint:
            checkpoints[s.checkpoint] = net.copy()
    _learn_only(net, net.group_ids())
    return TrainResult(net, logs, checkpoints)


def train_regime(regime: str, dataset: Dataset, cfg: TrainConfig,
                 profile: Profile) -> TrainResult:
    """Train under a regime string; see `regime_schedule`."""
    return run_schedule(regime_schedule(regime, list(dataset.banks)), dataset, cfg, profile)


def train_dedicated(kind: str, dataset: Dataset, cfg: TrainConfig,
                    profile: Profile) -> TrainResult:
    """Single-feature net: one branch plus trunk, trained and selected on `kind`."""
    return train_regime(f"dedicated:{kind}", dataset, cfg, profile)


def train_allfeatnet(dataset: Dataset, cfg: TrainConfig, profile: Profile) -> TrainResult:
    """Every batch carries the full feature mask; all groups learn."""
    return train_regime("allfeat", dataset, cfg, profile)


def train_moddrop(dataset: Dataset, cfg: TrainConfig, profile: Profile,
                  on_batch=None) -> TrainResult:
    """Each batch uses a single kind drawn uniformly from the seeded stream."""
    return run_schedule(regime_schedule("moddrop", list(dataset.banks)), dataset, cfg,
                        profile, on_batch)


def train_multistage_seedinit(seed_kind: str, dataset: Dataset, cfg: TrainConfig,
                              profile: Profile, stage_order=None) -> TrainResult:
    """Seed-feature-initialized multistage training (checkpoint `stage1`)."""
    return run_schedule(regime_schedule(f"multistage:{seed_kind}", list(dataset.banks),
                                        stage_order), dataset, cfg, profile)


def train_allfeatnetinit(dataset: Dataset, cfg: TrainConfig,
                         profile: Profile) -> TrainResult:
    """All-features-initialized multistage training (checkpoint `phase1`)."""
    return train_regime("allfeatinit", dataset, cfg, profile)
