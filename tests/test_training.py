import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from sigfuse import blas
from sigfuse.data import Dataset, SyntheticSpec, ViewSpec, synth_generate
from sigfuse import training
from sigfuse.model import (PROFILES, add_branch, build_net, group_bytes,
                           model_to_bytes, net_backward, net_forward, set_trainable)
from sigfuse.model import Profile
from sigfuse.nn import DenseLayer, bce_loss, make_rng
from sigfuse.training import (TrainConfig, run_stage, train_allfeatnet,
                              train_allfeatnetinit, train_dedicated,
                              train_moddrop, train_multistage_seedinit,
                              profile_for, train_regime, validation_map, write_logs)

DESK = PROFILES["desk"]


def make_dataset(n_train=400, n_val=120, n_test=120, views=None, seed=7,
                 n_attributes=4, latent_dim=6):
    views = views or (ViewSpec("fv", 10, 0.05), ViewSpec("cnn", 8, 0.15),
                      ViewSpec("lbp", 6, 0.4))
    spec = SyntheticSpec(latent_dim=latent_dim, views=views,
                         n_attributes=n_attributes, n_train=n_train,
                         n_val=n_val, n_test=n_test, seed=seed)
    table, banks = synth_generate(spec)
    return Dataset(table, banks)


def single_kind_dataset(**kw):
    return make_dataset(views=(ViewSpec("fv", 10, 0.05),), **kw)


QUICK = TrainConfig(lr=0.05, batch_size=32, epochs=8, seed=1)


class TestTrainDedicated:
    def test_separable_data_reaches_high_map(self):
        dataset = make_dataset(n_train=600,
                               views=(ViewSpec("fv", 12, 0.0),
                                      ViewSpec("cnn", 8, 0.2),
                                      ViewSpec("lbp", 6, 0.4)),
                               latent_dim=5)
        cfg = TrainConfig(lr=0.1, batch_size=32, epochs=40, seed=0)
        result = train_dedicated("fv", dataset, cfg, DESK)
        assert validation_map(result.net, dataset, ["fv"]) > 0.95

    def test_lr_zero_keeps_initialization(self):
        dataset = make_dataset()
        cfg = dataclasses.replace(QUICK, lr=0.0, epochs=2)
        result = train_dedicated("fv", dataset, cfg, DESK)
        from sigfuse.model import build_net
        from sigfuse.training import profile_for
        init = build_net([("fv", 10)], profile_for(dataset, DESK), cfg.seed)
        assert model_to_bytes(result.net) == model_to_bytes(init)

    def test_same_seed_bit_identical(self):
        dataset = make_dataset()
        a = train_dedicated("cnn", dataset, QUICK, DESK)
        b = train_dedicated("cnn", dataset, QUICK, DESK)
        assert model_to_bytes(a.net) == model_to_bytes(b.net)

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            train_dedicated("sift", make_dataset(), QUICK, DESK)

    def test_returned_model_is_best_epoch(self):
        dataset = make_dataset()
        result = train_dedicated("fv", dataset, QUICK, DESK)
        best_logged = max(row["val_map"] for row in result.logs)
        actual = validation_map(result.net, dataset, ["fv"])
        assert actual == pytest.approx(best_logged, abs=1e-12)

    def test_logs_schema(self, tmp_path):
        dataset = make_dataset()
        result = train_dedicated("fv", dataset, QUICK, DESK)
        assert len(result.logs) == QUICK.epochs
        assert set(result.logs[0]) == {"epoch", "stage", "train_loss", "val_map"}
        path = tmp_path / "log.csv"
        write_logs(result.logs, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,stage,train_loss,val_map"
        assert len(lines) == 1 + QUICK.epochs


class TestTrainAllFeatNet:
    def test_single_kind_degenerates_to_dedicated(self):
        dataset = single_kind_dataset()
        a = train_allfeatnet(dataset, QUICK, DESK)
        b = train_dedicated("fv", dataset, QUICK, DESK)
        assert model_to_bytes(a.net) == model_to_bytes(b.net)

    def test_loss_decreases_early(self):
        dataset = make_dataset()
        cfg = dataclasses.replace(QUICK, epochs=5)
        result = train_allfeatnet(dataset, cfg, DESK)
        losses = [row["train_loss"] for row in result.logs]
        assert losses[-1] < losses[0]

    def test_gradient_reaches_every_branch(self):
        dataset = make_dataset()
        from sigfuse.model import build_net
        from sigfuse.training import profile_for
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), 0)
        _, xs, y = dataset.arrays("train")
        batch = {k: v[:16] for k, v in xs.items()}
        grads, _ = net_backward(batch, net.kind_names(), net, y[:16])
        for kind in net.kind_names():
            assert any(np.abs(g.d_weights).sum() > 0 for g in grads[kind])


class TestTrainModDrop:
    def test_single_kind_matches_dedicated_trajectory(self):
        dataset = single_kind_dataset()
        a = train_moddrop(dataset, QUICK, DESK)
        b = train_dedicated("fv", dataset, QUICK, DESK)
        assert model_to_bytes(a.net) == model_to_bytes(b.net)
        assert [r["train_loss"] for r in a.logs] == [r["train_loss"] for r in b.logs]

    def test_exactly_one_branch_changes_per_batch(self):
        dataset = make_dataset(n_train=64, n_val=32, n_test=32)
        cfg = TrainConfig(lr=0.05, batch_size=32, epochs=2, seed=3)
        snapshots = {}
        events = []

        def on_batch(net, mask):
            changed = [k for k in net.kind_names()
                       if snapshots.get(k) is not None
                       and group_bytes(net, k) != snapshots[k]]
            events.append((tuple(mask), tuple(changed)))
            for k in net.kind_names():
                snapshots[k] = group_bytes(net, k)

        train_moddrop(dataset, cfg, DESK, on_batch=on_batch)
        assert events, "no batches observed"
        for mask, changed in events[1:]:
            assert len(mask) == 1
            assert set(changed) <= set(mask)

    def test_kind_selection_roughly_uniform(self):
        dataset = make_dataset(n_train=160, n_val=32, n_test=32)
        cfg = TrainConfig(lr=0.01, batch_size=16, epochs=30, seed=4)
        counts = {}

        def on_batch(net, mask):
            counts[mask[0]] = counts.get(mask[0], 0) + 1

        train_moddrop(dataset, cfg, DESK, on_batch=on_batch)
        total = sum(counts.values())
        assert total == 300
        for kind in ("fv", "cnn", "lbp"):
            assert abs(counts.get(kind, 0) - total / 3) < 0.15 * total / 3 + 10


class TestMultistageSeedInit:
    def test_freeze_contract(self):
        dataset = make_dataset()
        result = train_multistage_seedinit("fv", dataset, QUICK, DESK)
        stage1 = result.checkpoints["stage1"]
        assert group_bytes(result.net, "trunk") == group_bytes(stage1, "trunk")
        assert group_bytes(result.net, "fv") == group_bytes(stage1, "fv")
        _, xs, y = dataset.arrays("val", kinds=["fv"])
        _, a = net_forward(xs, ["fv"], result.net)
        _, b = net_forward(xs, ["fv"], stage1)
        assert a.tobytes() == b.tobytes()

    def test_stage_order_irrelevant(self):
        dataset = make_dataset()
        cfg = dataclasses.replace(QUICK, epochs=4)
        a = train_multistage_seedinit("fv", dataset, cfg, DESK,
                                      stage_order=["cnn", "lbp"])
        b = train_multistage_seedinit("fv", dataset, cfg, DESK,
                                      stage_order=["lbp", "cnn"])
        assert model_to_bytes(a.net) == model_to_bytes(b.net)

    def test_new_kind_added_without_touching_existing_groups(self):
        dataset = make_dataset()
        cfg = dataclasses.replace(QUICK, epochs=4)
        result = train_multistage_seedinit("fv", dataset, cfg, DESK)
        net = result.net
        before = {g: group_bytes(net, g) for g in net.group_ids()}

        extra = make_dataset(views=(ViewSpec("fv", 10, 0.05),
                                    ViewSpec("cnn", 8, 0.15),
                                    ViewSpec("lbp", 6, 0.4),
                                    ViewSpec("hog", 9, 0.3)))
        from sigfuse.training import profile_for
        profile = profile_for(extra, DESK)
        add_branch(net, "hog", 9, profile, cfg.seed)
        for group in net.group_ids():
            set_trainable(net, group, group == "hog")
        logs = []
        run_stage(net, extra, cfg, stage="stage:hog", mask_policy="single:hog",
                  val_mask=["hog"], shuffle_key=net.kind_by_name("hog").id,
                  epochs=cfg.epochs, logs=logs)
        for group, payload in before.items():
            assert group_bytes(net, group) == payload

    def test_invalid_seed_kind(self):
        with pytest.raises(ValueError):
            train_multistage_seedinit("sift", make_dataset(), QUICK, DESK)

    def test_all_frozen_stage_rejected(self):
        dataset = make_dataset()
        from sigfuse.model import build_net
        from sigfuse.training import profile_for
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), 0)
        for group in net.group_ids():
            set_trainable(net, group, False)
        with pytest.raises(ValueError, match="no trainable group"):
            run_stage(net, dataset, QUICK, stage="s", mask_policy="full",
                      val_mask=net.kind_names(), shuffle_key=0, epochs=1, logs=[])


class TestAllFeatNetInit:
    def test_trunk_frozen_through_phase_two(self):
        dataset = make_dataset()
        cfg = dataclasses.replace(QUICK, epochs=5)
        result = train_allfeatnetinit(dataset, cfg, DESK)
        phase1 = result.checkpoints["phase1"]
        assert group_bytes(result.net, "trunk") == group_bytes(phase1, "trunk")

    def test_finetuning_does_not_hurt_single_kind_map(self):
        dataset = make_dataset(n_train=600)
        cfg = TrainConfig(lr=0.05, batch_size=32, epochs=12, seed=2)
        result = train_allfeatnetinit(dataset, cfg, DESK)
        phase1 = result.checkpoints["phase1"]
        for kind in result.net.kind_names():
            before = validation_map(phase1, dataset, [kind])
            after = validation_map(result.net, dataset, [kind])
            assert after >= before - 0.01, (kind, before, after)

    def test_deterministic(self):
        dataset = make_dataset()
        cfg = dataclasses.replace(QUICK, epochs=3)
        a = train_allfeatnetinit(dataset, cfg, DESK)
        b = train_allfeatnetinit(dataset, cfg, DESK)
        assert model_to_bytes(a.net) == model_to_bytes(b.net)


class TestRegimeDispatch:
    def test_all_regimes_deterministic(self):
        dataset = make_dataset(n_train=200, n_val=60, n_test=60)
        cfg = dataclasses.replace(QUICK, epochs=3)
        for regime in ("dedicated:fv", "allfeat", "moddrop",
                       "multistage:fv", "allfeatinit"):
            a = train_regime(regime, dataset, cfg, DESK)
            b = train_regime(regime, dataset, cfg, DESK)
            assert model_to_bytes(a.net) == model_to_bytes(b.net), regime

    def test_unknown_regime(self):
        with pytest.raises(ValueError, match="unknown regime"):
            train_regime("boost", make_dataset(), QUICK, DESK)

    def test_dedicated_requires_kind(self):
        with pytest.raises(ValueError):
            train_regime("dedicated", make_dataset(), QUICK, DESK)


class TestBatchLoss:
    def test_batch_objective_is_mean_of_summed_bce(self):
        dataset = make_dataset()
        from sigfuse.model import build_net
        from sigfuse.training import profile_for
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), 0)
        _, xs, y = dataset.arrays("train")
        batch = {k: v[:8] for k, v in xs.items()}
        _, loss = net_backward(batch, net.kind_names(), net, y[:8])
        _, scores = net_forward(batch, net.kind_names(), net)
        manual = np.mean([bce_loss(scores[i], y[i]) for i in range(8)])
        assert loss == pytest.approx(manual, rel=1e-12)


def layer_arrays(net):
    return [[layer.weights, layer.bias] for group in net.group_ids()
            for layer in net.group_layers(group)]


class TestUpdateRule:
    """run_stage's SGD steps against the update rule written out here."""

    @pytest.mark.parametrize("momentum,weight_decay", [(0.9, 0.0), (0.0, 0.01), (0.9, 0.01)])
    def test_momentum_and_weight_decay_bit_exact(self, monkeypatch, momentum, weight_decay):
        dataset = make_dataset(n_train=160)
        cfg = TrainConfig(lr=0.05, batch_size=32, epochs=2, seed=3,
                          momentum=momentum, weight_decay=weight_decay)
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), cfg.seed)
        seen = []  # per batch: (parameters before the step, their gradients)
        real_backward = training.net_backward

        def recording_backward(batch, mask, net, labels):
            grads, loss = real_backward(batch, mask, net, labels)
            seen.append(([[a.copy() for a in pair] for pair in layer_arrays(net)],
                         [[g.d_weights.copy(), g.d_bias.copy()]
                          for group in net.group_ids() for g in grads[group]]))
            return grads, loss

        rising = itertools.count()
        monkeypatch.setattr(training, "net_backward", recording_backward)
        monkeypatch.setattr(training, "validation_map", lambda *args: next(rising))
        # moddrop leaves two branches outside each batch's mask: they still
        # learn, from zero gradients plus weight decay and momentum
        result = run_stage(net, dataset, cfg, stage="s", mask_policy="moddrop",
                           val_mask=net.kind_names(), shuffle_key=0,
                           epochs=cfg.epochs, logs=[])
        assert len(seen) == 10
        afters = [params for params, _ in seen[1:]] + [layer_arrays(result)]
        velocity = [[np.zeros_like(a) for a in pair] for pair in seen[0][0]]
        for (params, grads), after in zip(seen, afters):
            for w_pair, g_pair, v_pair, a_pair in zip(params, grads, velocity, after):
                for i, (w, g, a) in enumerate(zip(w_pair, g_pair, a_pair)):
                    v_pair[i] = momentum * v_pair[i] + (g + weight_decay * w)
                    np.testing.assert_array_equal(w - cfg.lr * v_pair[i], a)

    def test_lr_zero_leaves_model_bytes(self):
        dataset = make_dataset(n_train=160)
        cfg = TrainConfig(lr=0.0, batch_size=32, epochs=2, seed=3,
                          momentum=0.9, weight_decay=0.01)
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), cfg.seed)
        before = model_to_bytes(net)
        run_stage(net, dataset, cfg, stage="s", mask_policy="full",
                  val_mask=net.kind_names(), shuffle_key=0, epochs=cfg.epochs, logs=[])
        assert model_to_bytes(net) == before


class TestBestEpochRestore:
    @pytest.mark.parametrize("regime,checkpoint", [("multistage:fv", "stage1"),
                                                   ("allfeatinit", "phase1")])
    def test_best_epoch_before_the_last(self, monkeypatch, regime, checkpoint):
        dataset = make_dataset(n_train=160)
        cfg = dataclasses.replace(QUICK, epochs=3)
        ends = []  # per epoch: (bytes of each group, groups that learn)
        scores = itertools.cycle([0.5, 0.9, 0.7])

        def fake_map(net, dataset, mask):
            ends.append(({g: group_bytes(net, g) for g in net.group_ids()},
                         {g for g, on in net.trainable.items() if on}))
            return next(scores)

        monkeypatch.setattr(training, "validation_map", fake_map)
        result = train_regime(regime, dataset, cfg, DESK)
        stages = [ends[i:i + 3] for i in range(0, len(ends), 3)]
        assert len(stages) == (4 if regime == "allfeatinit" else 3)
        # every stage keeps its second epoch ...
        assert {g: group_bytes(result.net, g) for g in result.net.group_ids()} == stages[-1][1][0]
        assert {g: group_bytes(result.checkpoints[checkpoint], g)
                for g in result.net.group_ids()} == stages[0][1][0]
        # ... and the next stage starts from it, its frozen groups untouched
        for prev, stage in zip(stages, stages[1:]):
            for groups, learning in stage:
                for g in set(groups) - learning:
                    assert groups[g] == prev[1][0][g], g
        returned = [a for pair in layer_arrays(result.net) for a in pair]
        kept = [a for pair in layer_arrays(result.checkpoints[checkpoint]) for a in pair]
        assert not any(np.shares_memory(a, b) for a in returned for b in kept)


class TestLastEpochCheckpoint:
    """An improving last epoch is kept as trained: checked, never copied."""

    def _stage(self, monkeypatch, on_batch=None, frozen=()):
        dataset = make_dataset(n_train=160)
        cfg = dataclasses.replace(QUICK, epochs=3)
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), cfg.seed)
        for group in frozen:
            set_trainable(net, group, False)
        epochs_done = []
        copies = []  # the epoch each checkpoint copy is made in
        real_copy = DenseLayer.copy

        def rising_map(net, dataset, mask):
            epochs_done.append(len(epochs_done) + 1)
            return 0.1 * len(epochs_done)

        def counting_copy(layer):
            copies.append(len(epochs_done))
            return real_copy(layer)

        monkeypatch.setattr(training, "validation_map", rising_map)
        monkeypatch.setattr(DenseLayer, "copy", counting_copy)
        hook = None if on_batch is None else lambda net, mask: on_batch(net, len(epochs_done))
        run_stage(net, dataset, cfg, stage="s", mask_policy="full",
                  val_mask=net.kind_names(), shuffle_key=0, epochs=cfg.epochs,
                  logs=[], on_batch=hook)
        return net, copies

    @pytest.mark.parametrize("frozen", [(), ("trunk", "cnn")])
    def test_copies_only_before_the_last_epoch(self, monkeypatch, frozen):
        net, copies = self._stage(monkeypatch, frozen=frozen)
        n_layers = sum(len(net.group_layers(g)) for g in net.group_ids() if g not in frozen)
        assert copies == [1] * n_layers + [2] * n_layers

    @pytest.mark.parametrize("group", ["trunk", "lbp"])
    def test_non_finite_last_epoch_still_rejected(self, monkeypatch, group):
        def poison(net, epochs_done):
            if epochs_done == 2:  # inside the third and last epoch
                net.group_layers(group)[-1].bias[0] = np.inf

        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="^layer parameters must be finite$"):
            self._stage(monkeypatch, on_batch=poison)


def regime_digest(regime, tmp_path, stage_order=None):
    """sha256 over a trained regime's model bytes, log CSV bytes, every
    checkpoint's model bytes and the trainable flags of all these nets."""
    dataset = make_dataset(n_train=240, n_val=80, n_test=40)
    cfg = TrainConfig(lr=0.05, batch_size=32, epochs=3, seed=6,
                      momentum=0.9, weight_decay=1e-3)
    if stage_order:
        result = train_multistage_seedinit(regime.partition(":")[2], dataset, cfg,
                                           DESK, stage_order=stage_order)
    else:
        result = train_regime(regime, dataset, cfg, DESK)
    h = hashlib.sha256(model_to_bytes(result.net))
    h.update(repr(result.net.trainable).encode())
    write_logs(result.logs, tmp_path / "log.csv")
    h.update((tmp_path / "log.csv").read_bytes())
    for name, net in sorted(result.checkpoints.items()):
        h.update(name.encode())
        h.update(model_to_bytes(net))
        h.update(repr(net.trainable).encode())
    return h.hexdigest()


# sha256 of `regime_digest`, taken from the hand-written regime functions
# that preceded the stage lists; any change to these is a defect
GOLDEN = {
    "dedicated:cnn": "2674a2962a69a12a4d99f994003e79deb325b82fef44116d8f3c297807817a8e",
    "allfeat": "532216bf836bdcbbfb566fa2f8d4a362279bf723878b9ce4c1803b8a4f129afb",
    "moddrop": "c5513f6f6b44b926dbc5e3d2bceb83cbe9ac469ea423874768a4ffaa78e15730",
    "multistage:fv": "ad0b3661235e49149b32abfc24b0b375ad4b05003573d468d552e4daa6ac22bd",
    "allfeatinit": "1b960c5772dbee5495dadf6ad8ada63b1941eab0fbe4bcbe345cf72902803194",
}
GOLDEN_LBP_ORDER = "e3e3523ab9badcf70efd4852b536ebd59ccb8a5a227dc02143dadbf353cfc595"


class TestGoldenRegimes:
    @pytest.mark.parametrize("regime", list(GOLDEN))
    def test_regime_bytes_pinned(self, regime, tmp_path):
        assert regime_digest(regime, tmp_path) == GOLDEN[regime]

    def test_custom_stage_order_bytes_pinned(self, tmp_path):
        digest = regime_digest("multistage:lbp", tmp_path, stage_order=["cnn", "fv"])
        assert digest == GOLDEN_LBP_ORDER


# sha256 over the same bytes as `regime_digest`, trained with momentum and
# weight decay 0: the plain SGD step that the CLI defaults run
GOLDEN_PLAIN_SGD = {
    "dedicated:cnn": "c31d6a0499afab2c354049475d5f8c6e853a5c227b13cfec4ca682af9b6d23b9",
    "allfeat": "9b9e32554fb1639e772d06045ccc0ce656d759d0ac769caa8c30d53ed16fe065",
    "moddrop": "ebb4ab9d4c2f486e8b8fb6daf884feb2061ce6b1f444d3286f115f95cd94ccc1",
    "multistage:fv": "1d76bf897e61920d43dd52156b9b31f823dde96e21156b4d6416f5a14cdd138c",
    "allfeatinit": "626db39e02f4e7a7a61504adcefb729171c5fb4f03c4146a07af4c399b26b419",
}


class TestGoldenPlainSGD:
    @pytest.mark.parametrize("regime", list(GOLDEN_PLAIN_SGD))
    def test_regime_bytes_pinned(self, regime, tmp_path):
        dataset = make_dataset(n_train=240, n_val=80, n_test=40)
        cfg = TrainConfig(lr=0.05, batch_size=32, epochs=3, seed=6)
        result = train_regime(regime, dataset, cfg, DESK)
        h = hashlib.sha256(model_to_bytes(result.net))
        h.update(repr(result.net.trainable).encode())
        write_logs(result.logs, tmp_path / "log.csv")
        h.update((tmp_path / "log.csv").read_bytes())
        for name, net in sorted(result.checkpoints.items()):
            h.update(name.encode())
            h.update(model_to_bytes(net))
            h.update(repr(net.trainable).encode())
        assert h.hexdigest() == GOLDEN_PLAIN_SGD[regime]


# sha256 of each float64 parameter array of the `regime_digest` moddrop
# net. The pins above hash float32 bytes and log lines, which a one-ulp
# change to the float64 update can leave as they were; these cannot.
GOLDEN_MODDROP_FLOAT64 = {
    "fv/1/weights": "2c4ef469ffb0a61657b8e8025aeceffde9f40364fa3fd385c5355796bb7b6213",
    "fv/1/bias": "1b50f6735a4ffc4ff08302baa970959396fda27338b4b251bb288adda0c4816d",
    "fv/2/weights": "483262fef90a609abb7ab86b145550925284eaa6c91d043ff7d81c36099cbaf3",
    "fv/2/bias": "fb143ca959eab4d8882363cd40370e8be2fe2dda1fc4c9229745017af34b2240",
    "cnn/1/weights": "3cebeda0591a965b246a970a31712affe48366c02eade268f236e0218bb2bd0d",
    "cnn/1/bias": "c9ecf765b8c074d9bef31e1b7cb000fac3f0122afa8da9b17064828d14708cca",
    "cnn/2/weights": "b46a0bee0f2671a2eb7348c88045569a211c996da25e180506e00893b2ddb410",
    "cnn/2/bias": "42f214088acc2c66560f818d0f29c31e4acac992aef48a771a47cf24fc97fe5a",
    "lbp/1/weights": "e74587c5a450a62cb1fde7fde8521c91cafcbb84655c65ed325c412c6569efd1",
    "lbp/1/bias": "b48dfad4e83d822bfeab83c2ed6562dfb816b9e76805252128fd7ef266fa160a",
    "lbp/2/weights": "8d5192c8da7cdc6411c84662ded9e2fff6f2eb102974014c6eef2c84416c9efe",
    "lbp/2/bias": "0555e8036a443b6efb607377e583e99b3bd4890cf8e7317822ce3a035f1384a2",
    "trunk/1/weights": "7eee5b2dcc2d807e78fc5a3793caf0752771c9bc1c7a5900164f63b843f764d6",
    "trunk/1/bias": "e5f816a7097950ec02a20490e52672dd255fb779c086f2048ae47d78e03bafe2",
    "trunk/2/weights": "5ee0d0a899de6cc76b4b111b5a4d0bba314f2b9e8417c0c0d69c41f700e60990",
    "trunk/2/bias": "0c676023a40fb9738624b86d6a58b0f05225f0a044f66a88fc37bf89566fcec1",
    "trunk/3/weights": "a42ce95c2a0443eb7eaa9934e4b7cb3415e488b9db16ca4a29161d954befb9cb",
    "trunk/3/bias": "4335fab451e9d13119c1898e2d7df2774c8aae399f2667754f4ed6f74d33ee8f",
}


class TestGoldenFloat64Params:
    def test_moddrop_parameters_pinned(self):
        dataset = make_dataset(n_train=240, n_val=80, n_test=40)
        cfg = TrainConfig(lr=0.05, batch_size=32, epochs=3, seed=6,
                          momentum=0.9, weight_decay=1e-3)
        net = train_regime("moddrop", dataset, cfg, DESK).net
        digests = {f"{group}/{i}/{name}":
                   hashlib.sha256(getattr(layer, name).tobytes()).hexdigest()
                   for group in net.group_ids()
                   for i, layer in enumerate(net.group_layers(group), start=1)
                   for name in ("weights", "bias")}
        assert digests == GOLDEN_MODDROP_FLOAT64


class TestScheduleValidation:
    """Every bad regime argument is rejected before any stage trains."""

    @pytest.mark.parametrize("regime,order", [
        ("multistage:fv", ["cnn"]),                  # misses lbp
        ("multistage:fv", ["cnn", "lbp", "lbp"]),    # lbp twice
        ("multistage:fv", ["cnn", "lbp", "hog"]),    # unknown kind
        ("multistage:sift", None),                   # unknown seed kind
        ("dedicated:sift", None),
        ("dedicated", None),
        ("multistage", None),
        ("boost", None),
    ])
    def test_rejected_before_run_stage(self, monkeypatch, regime, order):
        calls = []
        monkeypatch.setattr(training, "run_stage", lambda *a, **kw: calls.append(a))
        dataset = make_dataset(n_train=64, n_val=32, n_test=32)
        with pytest.raises(ValueError):
            if order is None:
                train_regime(regime, dataset, QUICK, DESK)
            else:
                train_multistage_seedinit(regime.partition(":")[2], dataset, QUICK,
                                          DESK, stage_order=order)
        assert calls == []


class TestRegimeArguments:
    """A regime argument that would be ignored is rejected before training."""

    @pytest.mark.parametrize("regime,order", [
        ("allfeat:fv", None),
        ("moddrop:cnn", None),
        ("allfeatinit:lbp", None),
        ("allfeat:", None),
        ("multistage:fv", ["fv", "cnn", "lbp"]),   # names the seed kind
        ("multistage:cnn", ["lbp", "fv", "cnn"]),
    ])
    def test_rejected_before_run_stage(self, monkeypatch, regime, order):
        TestScheduleValidation().test_rejected_before_run_stage(monkeypatch, regime, order)


class TestConfigValues:
    @pytest.mark.parametrize("field", ["lr", "momentum", "weight_decay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1e-9])
    def test_non_finite_or_negative_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


class TestConfigTypes:
    """`TrainConfig` is the one check of every train setting: seed, epochs
    and batch_size are integers, lr, momentum and weight_decay numbers (a
    bool is neither), and an int beyond float range is not finite."""

    @pytest.mark.parametrize("field, value", [
        ("epochs", True), ("seed", False), ("momentum", True), ("seed", "1"),
        ("batch_size", 2.5), ("epochs", None), ("lr", "0.1"), ("seed", -1),
        ("epochs", 0), pytest.param("lr", 10 ** 400, id="lr-int-beyond-float"),
        pytest.param("weight_decay", -10 ** 400, id="wd-int-below-float")])
    def test_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^config {field} must be "):
            TrainConfig(**{field: value})

    def test_seed_reported_first(self):
        with pytest.raises(ValueError, match="^config seed "):
            TrainConfig(lr=float("nan"), batch_size=0, epochs=True, seed=-1)

    def test_edge_values_accepted(self):
        cfg = TrainConfig(lr=1, batch_size=1, epochs=1, seed=0, momentum=0, weight_decay=0.0)
        assert (cfg.lr, cfg.seed) == (1, 0)


class TestStageGradientBuffers:
    """Within a stage every batch writes its gradients into one buffer per
    learning layer; no layer holds a buffer outside a stage."""

    @staticmethod
    def _all_layers(net):
        return [layer for g in net.group_ids() for layer in net.group_layers(g)]

    @pytest.mark.parametrize("policy, frozen", [("full", ()), ("moddrop", ()),
                                                ("single:fv", ("trunk", "cnn", "lbp"))])
    def test_one_buffer_per_learning_layer(self, policy, frozen):
        dataset = make_dataset(n_train=160)
        cfg = dataclasses.replace(QUICK, epochs=2)
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), cfg.seed)
        for group in frozen:
            set_trainable(net, group, False)
        learning = [layer for g in net.group_ids() if g not in frozen
                    for layer in net.group_layers(g)]
        seen, copies = [], []

        def on_batch(net, mask):
            seen.append([layer.grad for layer in self._all_layers(net)])
            copies.append(net.copy())

        run_stage(net, dataset, cfg, stage="s", mask_policy=policy,
                  val_mask=["fv"], shuffle_key=0, epochs=cfg.epochs, logs=[],
                  on_batch=on_batch)
        assert len(seen) == 10
        first = seen[0]
        for grads in seen:
            assert all(a is b for a, b in zip(grads, first))
        for layer, grad in zip(self._all_layers(net), first):
            if any(layer is l for l in learning):
                assert grad.d_weights.shape == layer.weights.shape
                assert grad.d_bias.shape == layer.bias.shape
            else:
                assert grad is None
        assert all(layer.grad is None for layer in self._all_layers(net))
        assert all(layer.grad is None for c in copies for layer in self._all_layers(c))

    def test_backward_writes_into_the_buffers(self, monkeypatch):
        dataset = make_dataset(n_train=160)
        cfg = dataclasses.replace(QUICK, epochs=2)
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), cfg.seed)
        real_backward = training.net_backward
        batches = []

        def recording_backward(batch, mask, net, labels):
            grads, loss = real_backward(batch, mask, net, labels)
            batches.append(all(lg is layer.grad for g in net.group_ids()
                               for lg, layer in zip(grads[g], net.group_layers(g))))
            return grads, loss

        monkeypatch.setattr(training, "net_backward", recording_backward)
        run_stage(net, dataset, cfg, stage="s", mask_policy="full",
                  val_mask=net.kind_names(), shuffle_key=0, epochs=cfg.epochs, logs=[])
        assert batches == [True] * 10

    def test_cleared_after_a_non_finite_last_epoch(self, monkeypatch):
        dataset = make_dataset(n_train=160)
        cfg = dataclasses.replace(QUICK, epochs=3)
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), cfg.seed)
        epochs_done = []

        def rising_map(net, dataset, mask):
            epochs_done.append(len(epochs_done) + 1)
            return 0.1 * len(epochs_done)

        def poison(net, mask):
            assert all(layer.grad is not None for layer in self._all_layers(net))
            if len(epochs_done) == 2:  # inside the third and last epoch
                net.trunk.out.weights[0, 0] = np.inf

        monkeypatch.setattr(training, "validation_map", rising_map)
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="^layer parameters must be finite$"):
            run_stage(net, dataset, cfg, stage="s", mask_policy="full",
                      val_mask=net.kind_names(), shuffle_key=0, epochs=cfg.epochs,
                      logs=[], on_batch=poison)
        assert all(layer.grad is None for layer in self._all_layers(net))

    def test_net_backward_outside_a_stage_gives_fresh_arrays(self):
        dataset = make_dataset(n_train=160)
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), 0)
        _, xs, y = dataset.arrays("train")
        batch = {k: v[:8] for k, v in xs.items()}
        a, _ = net_backward(batch, net.kind_names(), net, y[:8])
        b, _ = net_backward(batch, net.kind_names(), net, y[:8])
        for g in net.group_ids():
            for ga, gb in zip(a[g], b[g]):
                assert not np.shares_memory(ga.d_weights, gb.d_weights)
                assert ga.d_weights.tobytes() == gb.d_weights.tobytes()


class TestOneSgdRule:
    """`nn.sgd_step` and `run_stage`'s update share `nn.sgd_update`."""

    def test_sgd_step_has_the_bits_of_the_stage_update(self):
        from sigfuse.nn import sgd_step
        rng = make_rng(4, 2)
        layer = DenseLayer(rng.standard_normal((6, 3)), rng.standard_normal(3))
        twin = layer.copy()
        grad = training.LayerGrad(rng.standard_normal((6, 3)), rng.standard_normal(3))
        kept = (grad.d_weights.copy(), grad.d_bias.copy())
        sgd_step(layer, grad, 0.037)
        assert grad.d_weights.tobytes() == kept[0].tobytes()
        assert grad.d_bias.tobytes() == kept[1].tobytes()
        spent = training.LayerGrad(kept[0].copy(), kept[1].copy())
        training._apply_updates([twin], [spent], TrainConfig(lr=0.037), {})
        assert layer.weights.tobytes() == twin.weights.tobytes()
        assert layer.bias.tobytes() == twin.bias.tobytes()

    def test_sgd_step_goes_through_sgd_update(self, monkeypatch):
        import sigfuse.nn as nn
        sgd_step = nn.sgd_step
        calls = []
        real = nn.sgd_update
        monkeypatch.setattr(nn, "sgd_update", lambda *a: calls.append(a) or real(*a))
        layer = DenseLayer(np.ones((2, 2)), np.ones(2))
        sgd_step(layer, training.LayerGrad(np.ones((2, 2)), np.ones(2)), 0.5)
        assert [a[0] is p for a, p in zip(calls, (layer.weights, layer.bias))] == [True, True]


class TestOneSgdRulePasses:
    """`sgd_update` is one body: the passes `blas.ops` hands it run in the
    same order on either side of `blas.MIN_SIZE`."""

    @pytest.mark.parametrize("n", [7, 1 << 18])
    def test_momentum_and_weight_decay_passes(self, monkeypatch, n):
        from sigfuse import blas
        from sigfuse.nn import sgd_update
        assert blas.MIN_SIZE == 1 << 18
        seen, real_ops = [], blas.ops

        def recording_ops(a):
            return [lambda *args, name=name, op=op: seen.append(name) or op(*args)
                    for name, op in zip(("scale", "add", "subtract"), real_ops(a))]

        monkeypatch.setattr(blas, "ops", recording_ops)
        rng = make_rng(9, n)
        param, g, v = (rng.standard_normal(n) for _ in range(3))
        want_v = 0.9 * v + (g + 0.01 * param)
        want = param - 0.05 * want_v
        sgd_update(param, g, 0.05, 0.01, 0.9, v)
        assert seen == ["add", "scale", "add", "subtract"]
        assert param.tobytes() == want.tobytes() and v.tobytes() == want_v.tobytes()


def group_arrays(net, group):
    return [a for layer in net.group_layers(group) for a in (layer.weights, layer.bias)]


class TestPackedRuns:
    """`run_stage` copies each learning group's arrays below
    `blas.MIN_SIZE` into runs of one buffer, steps each run once per
    batch, and leaves larger arrays where they are."""

    def test_desk_group_is_one_buffer_in_group_order(self):
        dataset = make_dataset(n_train=160)
        cfg = dataclasses.replace(QUICK, epochs=1)
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), cfg.seed)
        run_stage(net, dataset, cfg, stage="s", mask_policy="full",
                  val_mask=net.kind_names(), shuffle_key=0, epochs=1, logs=[])
        for group in net.group_ids():
            arrays = group_arrays(net, group)
            buffer = arrays[0].base
            assert buffer is not None and buffer.size == sum(a.size for a in arrays)
            assert all(a.base is buffer for a in arrays)
            start = buffer.__array_interface__["data"][0]
            offsets = [a.__array_interface__["data"][0] - start for a in arrays]
            assert offsets == np.cumsum([0] + [a.nbytes for a in arrays[:-1]]).tolist()

    def test_arrays_at_the_constant_keep_their_storage(self):
        dataset = make_dataset(n_train=160, views=(ViewSpec("fv", 24, 0.05),
                                                   ViewSpec("cnn", 16, 0.2)))
        # branch layer 2 and trunk layer 3 are 512x512, at the constant
        profile = profile_for(dataset, Profile(512, 512, 512, 64, 4))
        net = build_net(dataset.kind_dims(), profile, 1)
        big = [net.branches[0].layer2.weights, net.branches[1].layer2.weights,
               net.trunk.layer3.weights]
        assert {a.size for a in big} == {blas.MIN_SIZE}
        own_grads = []
        cfg = dataclasses.replace(QUICK, epochs=1)
        run_stage(net, dataset, cfg, stage="s", mask_policy="full",
                  val_mask=net.kind_names(), shuffle_key=0, epochs=1, logs=[],
                  on_batch=lambda net, mask: own_grads.append(
                      net.trunk.layer3.grad.d_weights.base is None))
        after = [net.branches[0].layer2.weights, net.branches[1].layer2.weights,
                 net.trunk.layer3.weights]
        assert all(a is b for a, b in zip(after, big))
        assert own_grads == [True] * 5
        # the smaller arrays around them are packed: layer 1 with its bias,
        # and the trunk's last four arrays
        assert net.branches[0].layer1.bias.base is net.branches[0].layer1.weights.base
        assert net.trunk.out.weights.base is net.trunk.layer4.weights.base is not None

    @pytest.mark.parametrize("policy, frozen, per_batch", [
        ("full", (), 4), ("moddrop", (), 4), ("single:fv", ("trunk", "cnn", "lbp"), 1),
        ("single:cnn", ("fv", "lbp"), 2)])
    def test_one_update_per_run_per_batch(self, monkeypatch, policy, frozen, per_batch):
        dataset = make_dataset(n_train=160)
        cfg = dataclasses.replace(QUICK, epochs=2)
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), cfg.seed)
        for group in frozen:
            set_trainable(net, group, False)
        real, steps, masks = training.sgd_update, [], []

        def spy(param, g, *rest):
            steps.append(g.copy())
            return real(param, g, *rest)

        monkeypatch.setattr(training, "sgd_update", spy)
        run_stage(net, dataset, cfg, stage="s", mask_policy=policy, val_mask=["cnn"],
                  shuffle_key=0, epochs=cfg.epochs, logs=[],
                  on_batch=lambda net, mask: masks.append(mask))
        assert len(masks) == 10 and len(steps) == per_batch * 10
        if policy != "moddrop":
            return
        # a branch outside the batch's mask steps from zeros; runs are in
        # group order: fv, cnn, lbp, trunk
        for i, (mask,) in enumerate(masks):
            for kind, g in zip(["fv", "cnn", "lbp"], steps[4 * i:4 * i + 3]):
                if kind == mask:
                    assert g.any()
                else:
                    assert g.tobytes() == np.zeros(g.size).tobytes()


class TestPackedViewBits:
    """A net whose arrays view packed buffers computes the bits of one
    whose layers own their arrays, forward and backward, down to one row,
    also where odd widths leave the views at any 8-byte offset."""

    @pytest.mark.parametrize("widths", [(64, 32, 32, 32), (9, 5, 7, 3)])
    @pytest.mark.parametrize("rows", [1, 7, 32])
    def test_same_bits_as_owned_arrays(self, widths, rows):
        dataset = make_dataset(n_train=160)
        owned = build_net(dataset.kind_dims(),
                          profile_for(dataset, Profile(*widths, 1)), 3)
        packed = owned.copy()
        for group in packed.group_ids():
            training._pack(packed.group_layers(group))
            assert all(a.base is not None for a in group_arrays(packed, group))
        _, xs, y = dataset.arrays("train")
        batch, labels = {k: v[:rows] for k, v in xs.items()}, y[:rows]
        mask = owned.kind_names()
        for a, b in zip(net_forward(batch, mask, owned), net_forward(batch, mask, packed)):
            assert a.tobytes() == b.tobytes()
        want, want_loss = net_backward(batch, mask, owned, labels)
        got, loss = net_backward(batch, mask, packed, labels)
        assert loss == want_loss
        for group in owned.group_ids():
            for g, w, layer in zip(got[group], want[group], packed.group_layers(group)):
                assert g is layer.grad  # written into the packed gradient views
                assert g.d_weights.tobytes() == w.d_weights.tobytes()
                assert g.d_bias.tobytes() == w.d_bias.tobytes()


# sha256 over every layer's float64 weight and bias bytes, in group order,
# of nets trained with momentum and weight decay: an `allfeat` net, whose
# groups all learn every batch, and a `multistage:fv` net, whose later
# stages pack and step one branch with the trunk frozen. The values were
# taken on OpenBLAS's SkylakeX kernel while each array was still stepped
# on its own; other kernels' products give other bits.
GOLDEN_FLOAT64_MOMENTUM_WD = {
    "allfeat": "5d4530b4a32e8aa4b595a374022e14c078572436081d5dfc15e8156b0c063c87",
    "multistage:fv": "098cb1ba1242a71e6df11761e2e5ad440f0828a43ad23d62a361dcf60627cbac",
}


class TestGoldenFloat64Regimes:
    @pytest.mark.parametrize("regime", list(GOLDEN_FLOAT64_MOMENTUM_WD))
    def test_parameters_pinned(self, regime):
        dataset = make_dataset(n_train=240, n_val=80, n_test=40)
        cfg = TrainConfig(lr=0.05, batch_size=32, epochs=3, seed=6,
                          momentum=0.9, weight_decay=1e-3)
        net = train_regime(regime, dataset, cfg, DESK).net
        h = hashlib.sha256()
        for group in net.group_ids():
            for a in group_arrays(net, group):
                h.update(a.tobytes())
        lib = blas.openblas()
        assert h.hexdigest() == GOLDEN_FLOAT64_MOMENTUM_WD[regime], (
            f"pinned on SkylakeX, run on {lib.core_name() if lib else 'no OpenBLAS'}")


def zero_bits(grad) -> bool:
    """Every byte of both arrays of `grad` is that of +0.0."""
    return all(a.tobytes() == bytes(a.nbytes) for a in (grad.d_weights, grad.d_bias))


class TestZeroGradientsInTheirBuffers:
    """`LayerGrad.zeros_like` is where every zero gradient comes from:
    inside a stage, a learning layer's zero is its own buffer, filled with
    +0.0; a frozen layer holds no buffer and gets fresh zeros."""

    def test_moddrop_branches_outside_the_mask_get_their_own_zeroed_buffers(
            self, monkeypatch):
        dataset = make_dataset(n_train=160)
        cfg = dataclasses.replace(QUICK, epochs=2)
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), cfg.seed)
        real, held_values, outside = training.net_backward, [], []

        def recording(batch, mask, net, labels):
            dropped = [k for k in net.kind_names() if k not in mask]
            held_values.extend(not zero_bits(layer.grad) for k in dropped
                               for layer in net.group_layers(k))
            grads, loss = real(batch, mask, net, labels)
            outside.extend(g is layer.grad and zero_bits(g) for k in dropped
                           for g, layer in zip(grads[k], net.group_layers(k)))
            return grads, loss

        monkeypatch.setattr(training, "net_backward", recording)
        run_stage(net, dataset, cfg, stage="s", mask_policy="moddrop",
                  val_mask=net.kind_names(), shuffle_key=0, epochs=cfg.epochs, logs=[])
        # 10 batches, each dropping 2 of 3 branches of 2 layers
        assert outside == [True] * 40
        # the buffers held an earlier batch's real gradients when zeroed
        assert sum(held_values) > 10

    def test_frozen_layers_get_fresh_zeros_and_hold_no_buffer(self, monkeypatch):
        dataset = make_dataset(n_train=160)
        cfg = dataclasses.replace(QUICK, epochs=1)
        real, frozen = training.net_backward, []

        def recording(batch, mask, net, labels):
            grads, loss = real(batch, mask, net, labels)
            frozen.extend(layer.grad is None and g.d_weights.base is None
                          and g.d_bias.base is None and zero_bits(g)
                          for group in net.group_ids() if not net.trainable[group]
                          for g, layer in zip(grads[group], net.group_layers(group)))
            return grads, loss

        monkeypatch.setattr(training, "net_backward", recording)
        stages = training.regime_schedule("multistage:fv", list(dataset.banks))
        training.run_schedule(stages, dataset, cfg, DESK)
        # 5 batches a stage: stage1:fv freezes 2 branches, stage:cnn and
        # stage:lbp freeze 2 branches and the trunk's 3 layers
        assert frozen == [True] * (5 * 4 + 2 * 5 * 7)

    @pytest.mark.parametrize("value", [-0.0, np.nan])
    def test_zeros_like_clears_every_bit_of_the_buffer(self, value):
        layer = DenseLayer(np.ones((3, 2)), np.ones(2))
        layer.grad = training.LayerGrad(np.full((3, 2), value), np.full(2, value))
        arrays = (layer.grad.d_weights, layer.grad.d_bias)
        grad = training.LayerGrad.zeros_like(layer)
        assert grad is layer.grad
        assert grad.d_weights is arrays[0] and grad.d_bias is arrays[1]
        assert zero_bits(grad)


class TestNoFloat64TrainingStack:
    """Training takes each batch's float32 rows from the banks: no regime
    asks `Dataset.arrays` for a training kind, a batch lifted to float64
    holds the bytes the stacked split would give, and a stage over a wide
    bank never holds memory the size of the split's float64 stack."""

    @pytest.mark.parametrize("regime", ["dedicated:fv", "allfeat", "moddrop",
                                        "multistage:fv", "allfeatinit"])
    def test_no_regime_stacks_a_training_kind(self, regime, monkeypatch):
        dataset = make_dataset(n_train=96, n_val=32, n_test=32)
        arrays, requests = Dataset.arrays, []

        def recording(self, split, kinds=None):
            requests.append((split, None if kinds is None else list(kinds)))
            return arrays(self, split, kinds)

        monkeypatch.setattr(Dataset, "arrays", recording)
        train_regime(regime, dataset, dataclasses.replace(QUICK, epochs=2), DESK)
        assert ("train", []) in requests
        assert [r for r in requests if r[0] == "train" and r[1] != []] == []

    def test_batches_hold_the_stacked_bytes(self, monkeypatch):
        dataset = make_dataset(n_train=150)
        _, stacked, _ = Dataset(dataset.table, dataset.banks).arrays("train")
        cfg = dataclasses.replace(QUICK, epochs=2)
        real, batches = training.net_backward, []

        def recording(batch, mask, net, labels):
            batches.append({k: batch[k] for k in mask})
            return real(batch, mask, net, labels)

        monkeypatch.setattr(training, "net_backward", recording)
        net = build_net(dataset.kind_dims(), profile_for(dataset, DESK), cfg.seed)
        run_stage(net, dataset, cfg, stage="s", mask_policy="moddrop",
                  val_mask=net.kind_names(), shuffle_key=3, epochs=cfg.epochs, logs=[])
        shuffle = make_rng(cfg.seed, training._TAG_SHUFFLE, 3)
        perms = [shuffle.permutation(150) for _ in range(cfg.epochs)]
        idxs = [p[s:s + cfg.batch_size] for p in perms for s in range(0, 150, cfg.batch_size)]
        assert len(batches) == len(idxs) == 10
        for batch, idx in zip(batches, idxs):
            for k, x in batch.items():
                assert x.dtype == np.float32 and x.flags.c_contiguous
                wide = np.asarray(x, dtype=np.float64)
                assert wide.tobytes() == stacked[k][idx].tobytes()

    def test_wide_stage_peak_stays_below_the_stack(self):
        import tracemalloc
        n_train, dim = 1900, 2000
        dataset = Dataset(*synth_generate(SyntheticSpec(
            latent_dim=4, views=(ViewSpec("wide", dim, 0.0),), n_attributes=3,
            n_train=n_train, n_val=50, n_test=50, seed=2)))
        profile = Profile(8, 8, 8, 8, 3)
        net = build_net(dataset.kind_dims(), profile, 0)
        stack_bytes = n_train * dim * 8
        tracemalloc.start()
        try:
            run_stage(net, dataset, TrainConfig(lr=0.01, epochs=1, seed=0), stage="s",
                      mask_policy="full", val_mask=["wide"], shuffle_key=0, epochs=1,
                      logs=[])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # numpy reports its buffers to tracemalloc; even a float32 stack
        # of the split (half the float64 one) would break this bound
        assert peak < stack_bytes / 4, (peak, stack_bytes)
