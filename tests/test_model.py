import dataclasses
import itertools

import numpy as np
import pytest

from sigfuse.model import (MAX_KINDS, PROFILES, BranchParams, FeatureKind, HybridNet,
                           ModelFormatError, TrunkParams, add_branch, bits_to_mask,
                           branch_forward, build_net, encode_signature,
                           group_bytes, load_model,
                           mask_to_bits, merge_sum, model_from_bytes,
                           model_to_bytes, net_backward, net_forward,
                           save_model, set_trainable, trunk_forward)
from sigfuse.nn import (DenseLayer, ShapeError, bce_loss, finite_diff_check,
                        make_rng)

DESK = PROFILES["desk"]


def desk_net(seed=0, dims=(6, 5, 4)):
    return build_net([("fv", dims[0]), ("cnn", dims[1]), ("lbp", dims[2])],
                     DESK, seed)


def random_features(net, seed=0, n=None):
    rng = make_rng(seed, 99)
    feats = {}
    for kind in net.kinds:
        shape = (kind.input_dim,) if n is None else (n, kind.input_dim)
        feats[kind.name] = rng.standard_normal(shape)
    return feats


# --- independent straight-line oracles (scalar loops, no shared code paths) ---

def scalar_affine(x, w, b):
    out = []
    for j in range(len(b)):
        s = b[j]
        for i in range(len(x)):
            s += x[i] * w[i][j]
        out.append(s)
    return out


def scalar_relu(v):
    return [max(0.0, x) for x in v]


def scalar_branch(x, branch):
    h1 = scalar_relu(scalar_affine(list(x), branch.layer1.weights.tolist(),
                                   branch.layer1.bias.tolist()))
    return scalar_relu(scalar_affine(h1, branch.layer2.weights.tolist(),
                                     branch.layer2.bias.tolist()))


def scalar_trunk(sig, trunk):
    import math
    h3 = scalar_relu(scalar_affine(list(sig), trunk.layer3.weights.tolist(),
                                   trunk.layer3.bias.tolist()))
    h4 = scalar_relu(scalar_affine(h3, trunk.layer4.weights.tolist(),
                                   trunk.layer4.bias.tolist()))
    logits = scalar_affine(h4, trunk.out.weights.tolist(), trunk.out.bias.tolist())
    return [1.0 / (1.0 + math.exp(-z)) for z in logits]


class TestBranchForward:
    def test_zero_input_zero_bias(self):
        branch = BranchParams(DenseLayer(np.ones((3, 4)), np.zeros(4)),
                              DenseLayer(np.ones((4, 2)), np.zeros(2)))
        np.testing.assert_array_equal(branch_forward(np.zeros(3), branch), np.zeros(2))

    def test_zero_weights_yield_relu_bias(self):
        b2 = np.array([1.5, -2.0, 0.0])
        branch = BranchParams(DenseLayer(np.zeros((3, 4)), np.zeros(4)),
                              DenseLayer(np.zeros((4, 3)), b2))
        np.testing.assert_array_equal(branch_forward(np.ones(3), branch),
                                      [1.5, 0.0, 0.0])

    def test_matches_scalar_oracle(self):
        net = desk_net(seed=0)
        x = make_rng(0, 50).standard_normal(6)
        ours = branch_forward(x, net.branches[0])
        np.testing.assert_allclose(ours, scalar_branch(x, net.branches[0]),
                                   rtol=1e-12, atol=1e-12)

    def test_output_nonnegative(self):
        net = desk_net(seed=3)
        for kind in net.kinds:
            x = make_rng(4, kind.id).standard_normal(kind.input_dim)
            assert np.all(branch_forward(x, net.branches[kind.id]) >= 0)


class TestMergeSum:
    def test_single_vector_identity(self):
        h = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(merge_sum([h]), h)

    def test_opposite_vectors_cancel(self):
        v = np.array([1.0, 2.0])
        np.testing.assert_array_equal(merge_sum([v, -v]), np.zeros(2))

    def test_permutation_bit_identical(self):
        rng = make_rng(5)
        hs = [rng.standard_normal(8) for _ in range(3)]
        a = merge_sum(hs)
        b = merge_sum([hs[2], hs[0], hs[1]])
        assert a.tobytes() == b.tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_sum([])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            merge_sum([np.zeros(3), np.zeros(4)])



class TestMergeSumOrder:
    """One addend is copied; two or more are summed in byte order, which
    is what makes NaN payloads independent of the addends' order."""

    def test_nan_payloads_independent_of_order(self):
        a = np.array([1.0, 2.0]).view(np.uint64)
        a[0] = 0x7FF8000000000001
        b = np.array([3.0, 4.0]).view(np.uint64)
        b[0] = 0x7FF8000000000002
        a, b = a.view(np.float64), b.view(np.float64)
        with np.errstate(invalid="ignore"):
            assert (a + b).tobytes() != (b + a).tobytes()  # why the sort stays
        assert merge_sum([a, b]).tobytes() == merge_sum([b, a]).tobytes()

    def test_one_addend_is_a_float64_copy(self):
        h = np.array([1.5, -0.0, np.nan], dtype=np.float32)
        total = merge_sum([h])
        assert total.dtype == np.float64 and not np.shares_memory(total, h)
        assert total.tobytes() == h.astype(np.float64).tobytes()


class TestTrunkForward:
    def test_zero_trunk_scores_half(self):
        trunk = TrunkParams(DenseLayer(np.zeros((4, 3)), np.zeros(3)),
                            DenseLayer(np.zeros((3, 3)), np.zeros(3)),
                            DenseLayer(np.zeros((3, 5)), np.zeros(5)))
        np.testing.assert_array_equal(trunk_forward(np.ones(4), trunk), np.full(5, 0.5))

    def test_scores_in_open_interval(self):
        net = desk_net(seed=1)
        for i in range(5):
            sig = make_rng(6, i).standard_normal(net.signature_dim) * 10
            scores = trunk_forward(sig, net.trunk)
            assert np.all(scores > 0) and np.all(scores < 1)

    def test_matches_scalar_oracle(self):
        net = desk_net(seed=0)
        sig = make_rng(0, 51).standard_normal(net.signature_dim)
        np.testing.assert_allclose(trunk_forward(sig, net.trunk),
                                   scalar_trunk(sig, net.trunk),
                                   rtol=1e-12, atol=1e-12)


class TestNetForward:
    def test_single_feature_merge_identity(self):
        net = desk_net()
        feats = random_features(net)
        sig, _ = net_forward(feats, ["fv"], net)
        direct = branch_forward(feats["fv"], net.branch_for("fv"))
        assert sig.tobytes() == direct.tobytes()

    def test_mask_iteration_order_irrelevant(self):
        net = desk_net()
        feats = random_features(net)
        _, a = net_forward(feats, ["fv", "lbp", "cnn"], net)
        _, b = net_forward(feats, ("lbp", "cnn", "fv"), net)
        assert a.tobytes() == b.tobytes()

    def test_compositional_oracle(self):
        net = desk_net(seed=0)
        feats = random_features(net, seed=0)
        sig, scores = net_forward(feats, ["fv", "cnn", "lbp"], net)
        manual_sig = merge_sum([branch_forward(feats[k.name], net.branches[k.id])
                                for k in net.kinds])
        np.testing.assert_array_equal(sig, manual_sig)
        np.testing.assert_array_equal(scores, trunk_forward(manual_sig, net.trunk))

    def test_encode_signature_is_the_forward_signature(self):
        net = desk_net(seed=2)
        feats = random_features(net, seed=2)
        sig, _ = net_forward(feats, ("lbp", "fv"), net)
        assert encode_signature(feats, ["fv", "lbp"], net).tobytes() == sig.tobytes()
        # float32 and list inputs are upcast exactly as float64 would be
        f32 = {k: v.astype(np.float32) for k, v in feats.items()}
        as_lists = {k: v.astype(np.float64).tolist() for k, v in f32.items()}
        assert (encode_signature(f32, ["fv", "lbp"], net).tobytes()
                == encode_signature(as_lists, ["fv", "lbp"], net).tobytes())

    def test_unknown_mask_kind(self):
        net = desk_net()
        with pytest.raises(ValueError, match="unknown kinds"):
            net_forward(random_features(net), ["sift"], net)

    def test_missing_feature(self):
        net = desk_net()
        feats = random_features(net)
        del feats["cnn"]
        with pytest.raises(ValueError, match="missing from feature map"):
            net_forward(feats, ["fv", "cnn"], net)

    def test_empty_mask(self):
        net = desk_net()
        with pytest.raises(ValueError, match="nonempty"):
            net_forward(random_features(net), [], net)


class TestNetBackward:
    def test_frozen_branches_get_zero_grads(self):
        net = desk_net()
        for kind in net.kind_names():
            set_trainable(net, kind, False)
        feats = random_features(net, n=4)
        labels = (make_rng(1, 2).random((4, net.n_outputs)) > 0.5).astype(float)
        grads, _ = net_backward(feats, net.kind_names(), net, labels)
        for kind in net.kind_names():
            for g in grads[kind]:
                assert not g.d_weights.any() and not g.d_bias.any()
        assert any(g.d_weights.any() for g in grads["trunk"])

    def test_branch_grads_same_with_trunk_frozen(self):
        net = desk_net()
        feats = random_features(net, n=5)
        labels = (make_rng(1, 3).random((5, net.n_outputs)) > 0.5).astype(float)
        mask = ["fv", "lbp"]
        learning, _ = net_backward(feats, mask, net, labels)
        set_trainable(net, "trunk", False)
        frozen, _ = net_backward(feats, mask, net, labels)
        for kind in mask:
            for a, b in zip(learning[kind], frozen[kind]):
                np.testing.assert_array_equal(a.d_weights, b.d_weights)
                np.testing.assert_array_equal(a.d_bias, b.d_bias)
        for group in ("trunk", "cnn"):
            for g in frozen[group]:
                assert not g.d_weights.any() and not g.d_bias.any()

    def test_full_net_matches_finite_differences(self):
        net = desk_net(seed=2, dims=(5, 4, 3))
        feats = random_features(net, seed=2, n=3)
        labels = (make_rng(2, 3).random((3, net.n_outputs)) > 0.5).astype(float)
        mask = net.kind_names()

        def loss():
            from sigfuse.nn import bce_loss_batch
            _, scores = net_forward(feats, mask, net)
            return bce_loss_batch(scores, labels)

        grads, _ = net_backward(feats, mask, net, labels)
        params, analytic = [], []
        for group in net.group_ids():
            for layer, g in zip(net.group_layers(group), grads[group]):
                params += [layer.weights, layer.bias]
                analytic += [g.d_weights, g.d_bias]
        assert finite_diff_check(loss, params, analytic, epsilon=1e-4) < 1e-3

    def test_merge_distributes_gradient_to_identical_branches(self):
        # two branches with identical params and inputs must get identical grads
        net = build_net([("a", 4), ("b", 4)], DESK, seed=0)
        net.branches[1] = BranchParams(net.branches[0].layer1.copy(),
                                       net.branches[0].layer2.copy())
        x = make_rng(9).standard_normal(4)
        feats = {"a": x, "b": x.copy()}
        labels = np.ones(net.n_outputs)
        grads, _ = net_backward(feats, ["a", "b"], net, labels)
        for ga, gb in zip(grads["a"], grads["b"]):
            np.testing.assert_array_equal(ga.d_weights, gb.d_weights)
            np.testing.assert_array_equal(ga.d_bias, gb.d_bias)


class TestSetTrainable:
    def test_frozen_trunk_survives_sgd(self):
        from sigfuse.nn import sgd_step
        net = desk_net()
        set_trainable(net, "trunk", False)
        before = group_bytes(net, "trunk")
        feats = random_features(net, n=2)
        labels = np.zeros((2, net.n_outputs))
        for _ in range(100):
            grads, _ = net_backward(feats, ["cnn"], net, labels)
            for g, layer in zip(grads["cnn"], net.group_layers("cnn")):
                sgd_step(layer, g, 0.05)
        assert group_bytes(net, "trunk") == before

    def test_unknown_group(self):
        net = desk_net()
        with pytest.raises(KeyError):
            set_trainable(net, "nose", True)

    def test_reenable_restores_updates(self):
        net = desk_net()
        set_trainable(net, "trunk", False)
        set_trainable(net, "trunk", True)
        feats = random_features(net, n=2)
        labels = np.zeros((2, net.n_outputs))
        grads, _ = net_backward(feats, ["fv"], net, labels)
        assert any(g.d_weights.any() for g in grads["trunk"])


class TestMaskBits:
    def test_roundtrip(self):
        net = desk_net()
        bits = mask_to_bits(["fv", "lbp"], net)
        assert bits == 0b101
        assert bits_to_mask(bits, net) == ["fv", "lbp"]


class TestKindLimit:
    """The request mask byte has one bit per kind, so a net holds 8."""

    def test_eight_kinds_fill_the_mask_byte(self):
        net = build_net([(f"k{i}", 2) for i in range(MAX_KINDS)], DESK, seed=0)
        assert MAX_KINDS == 8 and mask_to_bits(net.kind_names(), net) == 0xFF

    def test_build_net_refuses_a_ninth_kind(self):
        with pytest.raises(ValueError, match="at most 8 feature kinds.*got 9"):
            build_net([(f"k{i}", 2) for i in range(9)], DESK, seed=0)

    def test_add_branch_refuses_a_ninth_kind(self):
        net = build_net([(f"k{i}", 2) for i in range(8)], DESK, seed=0)
        with pytest.raises(ValueError, match="at most 8 feature kinds.*got 9"):
            add_branch(net, "k8", 2, DESK, seed=0)
        assert net.kind_names() == [f"k{i}" for i in range(8)]
        add_branch(build_net([("a", 2)], DESK, seed=0), "b", 3, DESK, seed=0)


class TestSerialization:
    def test_roundtrip_byte_exact(self, tmp_path):
        net = desk_net(seed=11)
        path = tmp_path / "m.hnet"
        save_model(net, path)
        loaded = load_model(path)
        assert model_to_bytes(loaded) == path.read_bytes()
        assert loaded.kind_names() == net.kind_names()
        assert [k.input_dim for k in loaded.kinds] == [6, 5, 4]

    def test_forward_matches_after_roundtrip_at_f32(self):
        net = desk_net(seed=12)
        loaded = model_from_bytes(model_to_bytes(net))
        feats = random_features(net, seed=12)
        _, a = net_forward(feats, net.kind_names(), net)
        _, b = net_forward(feats, net.kind_names(), loaded)
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_bad_magic(self):
        data = bytearray(model_to_bytes(desk_net()))
        data[0] ^= 0xFF
        with pytest.raises(ModelFormatError, match="magic"):
            model_from_bytes(bytes(data))

    def test_truncation(self):
        data = model_to_bytes(desk_net())
        with pytest.raises(ModelFormatError, match="truncated"):
            model_from_bytes(data[:-3])

    def test_non_utf8_kind_name(self):
        data = bytearray(model_to_bytes(desk_net()))
        name_at = 4 + 2 + 4 + 2  # magic, version, kind count, name length
        assert data[name_at:name_at + 2] == b"fv"
        data[name_at] = 0xFF
        with pytest.raises(ModelFormatError, match="not UTF-8"):
            model_from_bytes(bytes(data))

    def test_trailing_bytes(self):
        data = model_to_bytes(desk_net())
        with pytest.raises(ModelFormatError, match="trailing"):
            model_from_bytes(data + b"\x00")


class TestProfiles:
    def test_paper_profile_dims(self):
        p = PROFILES["paper"]
        assert (p.branch_hidden, p.signature_dim) == (4096, 1024)
        assert (p.trunk_hidden1, p.trunk_hidden2, p.n_outputs) == (1024, 1024, 40)

    def test_branch_init_independent_of_other_kinds(self):
        a = build_net([("fv", 6), ("cnn", 5)], DESK, seed=0)
        b = build_net([("fv", 6), ("cnn", 5), ("lbp", 4)], DESK, seed=0)
        assert group_bytes(a, "fv") == group_bytes(b, "fv")
        assert group_bytes(a, "cnn") == group_bytes(b, "cnn")


def net_named(names):
    """A net whose kind table is `names`, built with the unchecked
    constructor: every branch shares one branch's layers."""
    base = build_net([("a", 2)], DESK, seed=0)
    kinds = [FeatureKind(i, name, 2) for i, name in enumerate(names)]
    return HybridNet(kinds, [base.branches[0]] * len(kinds), base.trunk)


BAD_TABLES = [
    ([f"k{i}" for i in range(9)], "at most 8 feature kinds.*got 9"),
    (["fv", "cnn", "fv"], "feature kind 'fv' is named twice"),
    ([], "at least one feature kind, got 0"),
    (["fv", ""], "names must be non-empty"),
]


class TestKindTable:
    """One rule for a kind table, from 1 to 8 kinds with non-empty,
    distinct names, held by `build_net`, `add_branch` and both loaders."""

    @pytest.mark.parametrize("names,error", BAD_TABLES)
    def test_build_net_refuses(self, names, error):
        with pytest.raises(ValueError, match=error):
            build_net([(name, 2) for name in names], DESK, seed=0)

    @pytest.mark.parametrize("names,error", BAD_TABLES)
    @pytest.mark.parametrize("keep_branches", [True, False])
    def test_loaders_refuse(self, tmp_path, names, error, keep_branches):
        from sigfuse.model import load_trunk
        path = tmp_path / "m.hnet"
        save_model(net_named(names), path)
        with pytest.raises(ModelFormatError, match=error):
            (load_model if keep_branches else load_trunk)(path)
        with pytest.raises(ModelFormatError, match=error):
            model_from_bytes(path.read_bytes())

    @pytest.mark.parametrize("name,error", [("fv", "'fv' is named twice"),
                                            ("", "non-empty")])
    def test_add_branch_refuses(self, name, error):
        net = build_net([("fv", 2)], DESK, seed=0)
        with pytest.raises(ValueError, match=error):
            add_branch(net, name, 2, DESK, seed=0)
        assert net.kind_names() == ["fv"] and len(net.branches) == 1

    @pytest.mark.parametrize("count", [0, 9, 0xFFFFFFFF])
    def test_count_is_checked_before_any_name(self, count):
        import struct
        data = b"HNET" + struct.pack("<HI", 1, count)  # no kind table follows
        with pytest.raises(ModelFormatError, match=f"feature kinds?.*got {count}"):
            model_from_bytes(data)

    def test_eight_distinct_kinds_load(self, tmp_path):
        names = [f"k{i}" for i in range(MAX_KINDS)]
        path = tmp_path / "m.hnet"
        save_model(net_named(names), path)
        assert load_model(path).kind_names() == names


class TestNetShapeRefusals:
    """A net whose branches do not match its kinds or each other, an
    unknown kind name and a grafted branch of another signature width
    are refused by name."""

    def test_one_branch_per_kind(self):
        net = desk_net()
        with pytest.raises(ShapeError, match=r"^one branch required per feature kind$"):
            HybridNet(net.kinds, net.branches[:2], net.trunk)

    def test_branch_signature_widths_agree(self):
        net = desk_net()
        wide = build_net([("cnn", 5)], dataclasses.replace(DESK, signature_dim=33), 0)
        with pytest.raises(ShapeError, match=r"^branch signature dims differ: \[32, 33\]$"):
            HybridNet(net.kinds[:2], [net.branches[0], wide.branches[0]], net.trunk)

    def test_unknown_kind_name(self):
        with pytest.raises(KeyError, match="unknown feature kind 'hog'"):
            desk_net().kind_by_name("hog")

    def test_add_branch_signature_width(self):
        net = desk_net()
        with pytest.raises(ShapeError, match=r"^profile signature dim 16 does not match "
                                             r"net signature dim 32$"):
            add_branch(net, "hog", 7, dataclasses.replace(DESK, signature_dim=16), 0)
        assert net.kind_names() == ["fv", "cnn", "lbp"]


class TestWriterFloat32Range:
    """The HNET writer refuses a value that float32 cannot hold, naming
    its layer as the reader does, rather than write it as inf; a refused
    `save_model` leaves no file. float32's largest value is still written."""

    @pytest.mark.parametrize("group, index, name", [
        ("fv", 0, "kind 'fv' layer 1"), ("lbp", 1, "kind 'lbp' layer 2"),
        ("trunk", 0, "trunk layer 3"), ("trunk", 2, "trunk out layer")])
    def test_value_beyond_float32_names_its_layer(self, group, index, name):
        net = desk_net()
        net.group_layers(group)[index].weights[0, 0] = -1e39
        with pytest.raises(ValueError, match=rf"^{name} holds a value beyond "
                                             r"float32's range$"):
            model_to_bytes(net)
        with pytest.raises(ValueError, match=name):
            group_bytes(net, group)

    def test_bias_beyond_float32(self):
        net = desk_net()
        net.trunk.layer4.bias[3] = 3.5e38
        with pytest.raises(ValueError, match="^trunk layer 4 holds"):
            model_to_bytes(net)

    def test_refused_save_leaves_no_file(self, tmp_path):
        net = desk_net()
        net.trunk.out.weights[-1, -1] = 1e300
        path = tmp_path / "m.hnet"
        with pytest.raises(ValueError, match="float32"):
            save_model(net, path)
        assert list(tmp_path.iterdir()) == []

    def test_float32_max_is_written(self):
        net = desk_net()
        top = float(np.finfo(np.float32).max)
        net.branches[0].layer1.weights[0, 0] = top
        net.branches[0].layer1.weights[0, 1] = -top
        loaded = model_from_bytes(model_to_bytes(net))
        assert loaded.branches[0].layer1.weights[0, :2].tolist() == [top, -top]


def merge_by_whole_bytes(hs):
    """`merge_sum` as it sorted before prefix keys: by every addend's bytes."""
    ordered = sorted((np.asarray(h, dtype=np.float64) for h in hs), key=lambda h: h.tobytes())
    total = ordered[0].copy()
    for h in ordered[1:]:
        total += h
    return total


def with_nan(values, at: int, payload: int) -> np.ndarray:
    """A float64 copy of `values` holding a quiet NaN of `payload` at flat index `at`."""
    out = np.array(values, dtype=np.float64)
    out.reshape(-1).view(np.uint64)[at] = 0x7FF8000000000000 | payload
    return out


class TestMergeSumPrefixKeys:
    """Sorting by the first 64 values, and by every byte only when two
    of those tie, adds in the order the whole bytes give, bit for bit."""

    def check_every_order(self, hs):
        want = merge_by_whole_bytes(hs).tobytes()
        with np.errstate(invalid="ignore"):
            for order in itertools.permutations(hs):
                assert merge_sum(list(order)).tobytes() == want

    @pytest.mark.parametrize("shape", [(10,), (64,), (100,), (3, 40), (50, 32)])
    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_distinct_prefixes(self, shape, count):
        rng = make_rng(11, count)
        self.check_every_order([rng.standard_normal(shape) for _ in range(count)])

    @pytest.mark.parametrize("shape", [(100,), (3, 40), (2, 64)])
    def test_tied_prefixes_fall_back_to_every_byte(self, shape):
        rng = make_rng(12, 0)
        base = rng.standard_normal(shape)
        # equal in their first 64 values; only NaN payloads after them differ
        a, b = with_nan(base, 70, 1), with_nan(base, 70, 2)
        with np.errstate(invalid="ignore"):
            assert (a + b).tobytes() != (b + a).tobytes()
        self.check_every_order([a, b])
        self.check_every_order([a, b, rng.standard_normal(shape)])
        self.check_every_order([a, b, with_nan(base, 70, 3), base.copy()])

    @pytest.mark.parametrize("at", [0, 63])
    def test_nan_payloads_inside_the_prefix(self, at):
        rng = make_rng(13, at)
        base = rng.standard_normal((4, 32))
        hs = [with_nan(base, at, p) for p in (5, 1, 3)]
        self.check_every_order(hs)
        self.check_every_order([*hs, rng.standard_normal((4, 32))])

    def test_equal_addends(self):
        h = make_rng(14, 0).standard_normal((5, 20))
        self.check_every_order([h, h.copy(), h * 2])
        self.check_every_order([h, h.copy()])
