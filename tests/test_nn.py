import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from sigfuse.nn import (DenseLayer, LayerGrad, ShapeError, bce_loss,
                        bce_loss_batch, dense_backward, dense_forward,
                        finite_diff_check, init_dense, make_rng, relu,
                        sgd_step, sigmoid)

finite_vectors = arrays(np.float64, st.integers(1, 16),
                        elements=st.floats(-50, 50, allow_nan=False))


class TestDenseForward:
    def test_identity_weights(self):
        layer = DenseLayer(np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(dense_forward([1.0, 2.0], layer), [1.0, 2.0])

    def test_zero_weights_return_bias(self):
        layer = DenseLayer(np.zeros((3, 2)), np.array([3.0, -1.0]))
        np.testing.assert_array_equal(dense_forward([7.0, 8.0, 9.0], layer), [3.0, -1.0])

    def test_hand_computed(self):
        layer = DenseLayer(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(dense_forward([1.0, 1.0], layer), [4.5, 6.5])

    def test_dimension_mismatch_names_dims(self):
        layer = DenseLayer(np.eye(3), np.zeros(3))
        with pytest.raises(ShapeError, match="2 features.*expects 3"):
            dense_forward([1.0, 2.0], layer)

    def test_batch_input(self):
        layer = DenseLayer(np.array([[2.0]]), np.array([1.0]))
        np.testing.assert_allclose(dense_forward(np.array([[1.0], [3.0]]), layer),
                                   [[3.0], [7.0]])

    def test_bits_match_matmul_plus_bias(self):
        rng = make_rng(4)
        layer = DenseLayer(rng.normal(size=(24, 64)), rng.normal(size=64))
        for x in (rng.normal(size=(64, 24)), rng.normal(size=24)):
            expected = x @ layer.weights + layer.bias
            assert dense_forward(x, layer).tobytes() == expected.tobytes()
        bias = layer.bias.copy()
        dense_forward(x, layer)
        assert layer.bias.tobytes() == bias.tobytes()


class TestRelu:
    def test_mixed(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_all_negative(self):
        np.testing.assert_array_equal(relu(np.array([-3.0, -0.5])), [0.0, 0.0])

    def test_nonnegative_fixed_point(self):
        np.testing.assert_array_equal(relu(np.array([5.0])), [5.0])

    @given(finite_vectors)
    def test_nonnegative_and_idempotent(self, v):
        out = relu(v)
        assert np.all(out >= 0)
        np.testing.assert_array_equal(relu(out), out)


class TestSigmoid:
    def test_zero(self):
        np.testing.assert_allclose(sigmoid(np.array([0.0])), [0.5])

    def test_saturation_is_finite(self):
        out = sigmoid(np.array([40.0]))
        assert np.isfinite(out[0]) and abs(out[0] - 1.0) < 1e-12
        out = sigmoid(np.array([-800.0]))
        assert np.isfinite(out[0]) and out[0] >= 0

    def test_analytic_inverse(self):
        np.testing.assert_allclose(sigmoid(np.array([-np.log(3.0)])), [0.25])

    @given(finite_vectors)
    def test_open_interval_and_symmetry(self, v):
        out = sigmoid(v)
        assert np.all(out > 0) and np.all(out < 1)
        np.testing.assert_allclose(sigmoid(-v), 1.0 - out, atol=1e-12)

    @staticmethod
    def masked_reference(v):
        """The boolean-mask formula sigmoid replaced; it fixes the bits."""
        v = np.asarray(v, dtype=np.float64)
        out = np.empty_like(v)
        pos = v >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        out[~pos] = ev / (1.0 + ev)
        return np.clip(out, np.finfo(np.float64).tiny, np.nextafter(1.0, 0.0))

    def test_bits_match_masked_reference(self):
        big = np.finfo(np.float64).max
        edges = np.array([0.0, -0.0, 5e-324, -5e-324, 745.2, -745.2, 800.0, -800.0,
                          big, -big, np.nan, -np.nan])
        v = np.concatenate([edges, make_rng(3).normal(size=100_000) * 30])
        for x in (v, v.reshape(-1, 4)):
            out = sigmoid(x)
            assert out.shape == x.shape
            # bytes, so a NaN whose sign bit flips is caught too
            assert out.tobytes() == self.masked_reference(x).tobytes()


class TestSigmoidLayouts:
    """The bytes of the masked formula on C, strided, transposed and
    Fortran-ordered inputs, at the shapes the code runs: a training batch,
    a sweep or validation split, a 40-row split and a one-row query."""

    NANS = np.array([0x7FF8000000000123, 0xFFF8000000000456,   # quiet, both signs
                     0x7FF0000000000001, 0xFFF4000000000002],  # signaling
                    dtype=np.uint64).view(np.float64)
    tiny = np.finfo(np.float64).tiny
    EDGES = np.concatenate([NANS, [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                                   tiny, -tiny, tiny / 3, -tiny / 3, 36.8, -36.8,
                                   709.8, -709.8, 745.2, -745.2]])

    @staticmethod
    def layouts(values, shape):
        """(name, array) pairs of `shape` built from `values`."""
        base = values.reshape(shape)
        wide = np.zeros(shape[:-1] + (2 * shape[-1],))
        wide[..., ::-2] = base
        yield "C", base
        yield "strided", wide[..., ::-2]
        yield "transposed", values.reshape(shape[::-1]).T
        yield "Fortran", np.asfortranarray(base)

    @staticmethod
    def assert_bits(x, layout):
        with np.errstate(invalid="ignore"):  # exp of a signaling NaN may flag it
            out, want = sigmoid(x), TestSigmoid.masked_reference(x)
        assert out.shape == x.shape
        assert out.tobytes() == want.tobytes(), layout

    @pytest.mark.parametrize("shape", [(64, 8), (1000, 8), (40,)])
    def test_bits_match_masked_reference(self, shape):
        size = int(np.prod(shape))
        rng = make_rng(size)
        values = np.resize(self.EDGES, size)
        values[len(self.EDGES):] = rng.normal(size=size - len(self.EDGES)) * 30
        values = rng.permutation(values)
        for layout, x in self.layouts(values, shape):
            self.assert_bits(x, layout)

    def test_one_query_row(self):
        for value in self.EDGES:
            for layout, x in self.layouts(np.array([value]), (1, 1)):
                self.assert_bits(x, layout)

    def test_a_0d_input_gives_a_0d_array(self):
        out = sigmoid(0.0)
        assert isinstance(out, np.ndarray) and out.shape == () and out == 0.5


class TestBceLoss:
    def test_uniform_prediction(self):
        pred = np.full(40, 0.5)
        labels = (np.arange(40) % 2).astype(float)
        np.testing.assert_allclose(bce_loss(pred, labels), 40 * np.log(2.0))

    def test_exact_prediction_is_tiny(self):
        labels = np.array([1.0, 0.0, 1.0])
        assert bce_loss(labels, labels) <= 40 * -np.log(1.0 - 1e-7)

    def test_hand_computed(self):
        loss = bce_loss(np.array([0.9, 0.1]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(loss, 2 * -np.log(0.9))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            bce_loss(np.array([0.5]), np.array([1.0, 0.0]))

    @given(arrays(np.float64, 5, elements=st.floats(0.0, 1.0, allow_nan=False)))
    def test_nonnegative(self, pred):
        labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        assert bce_loss(pred, labels) >= 0

    def test_strictly_decreases_toward_label(self):
        labels = np.array([1.0])
        losses = [bce_loss(np.array([p]), labels) for p in (0.2, 0.5, 0.9, 0.99)]
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_batch_mean(self):
        pred = np.array([[0.9, 0.1], [0.5, 0.5]])
        labels = np.array([[1.0, 0.0], [1.0, 0.0]])
        expected = (bce_loss(pred[0], labels[0]) + bce_loss(pred[1], labels[1])) / 2
        np.testing.assert_allclose(bce_loss_batch(pred, labels), expected)

    @staticmethod
    def wrapper_reference(pred, labels):
        """The np.clip / np.sum / np.mean formula bce_loss_batch replaced;
        it fixes the bytes."""
        p = np.clip(pred, 1e-7, 1.0 - 1e-7)
        terms = labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)
        return float(np.mean(-np.sum(terms, axis=-1)))

    @pytest.mark.parametrize("shape", [(1,), (40,), (1, 1), (64, 8), (3, 40), (1000, 4)])
    def test_batch_bytes_match_wrapper_reference(self, shape):
        rng = make_rng(9)
        edges = np.array([0.0, 1.0, 1e-9, 1.0 - 1e-9, 5e-324, np.nan])
        for trial in range(20):
            pred = rng.random(shape)
            labels = (rng.random(shape) < 0.5).astype(np.float64)
            if trial % 4 == 0:
                flat = pred.reshape(-1)
                flat[:len(edges)] = edges[:flat.size]
            got = bce_loss_batch(pred, labels)
            want = self.wrapper_reference(pred, labels)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


class TestDenseBackward:
    def test_zero_upstream(self):
        layer = DenseLayer(np.ones((2, 3)), np.zeros(3))
        grad, down = dense_backward(np.array([1.0, 2.0]), layer, np.zeros(3))
        assert not grad.d_weights.any() and not grad.d_bias.any() and not down.any()

    def test_scalar_chain_rule(self):
        layer = DenseLayer(np.array([[2.0]]), np.zeros(1))
        grad, down = dense_backward(np.array([1.0]), layer, np.array([3.0]))
        np.testing.assert_array_equal(grad.d_weights, [[3.0]])
        np.testing.assert_array_equal(grad.d_bias, [3.0])
        np.testing.assert_array_equal(down, [6.0])

    def test_skipped_parts_return_none_and_the_rest_is_unchanged(self):
        rng = make_rng(3)
        layer = init_dense(5, 4, rng)
        x, upstream = rng.standard_normal((6, 5)), rng.standard_normal((6, 4))
        full, down = dense_backward(x, layer, upstream)
        grad, no_down = dense_backward(x, layer, upstream, inputs=False)
        no_grad, down_only = dense_backward(x, layer, upstream, params=False)
        assert no_down is None and no_grad is None
        np.testing.assert_array_equal(grad.d_weights, full.d_weights)
        np.testing.assert_array_equal(grad.d_bias, full.d_bias)
        np.testing.assert_array_equal(down_only, down)

    def test_matches_finite_differences(self):
        rng = make_rng(0)
        layer = init_dense(4, 3, rng)
        x = rng.standard_normal(4)
        labels = np.array([1.0, 0.0, 1.0])

        def loss():
            return bce_loss(sigmoid(dense_forward(x, layer)), labels)

        pred = sigmoid(dense_forward(x, layer))
        grad, _ = dense_backward(x, layer, pred - labels)
        err = finite_diff_check(loss, [layer.weights, layer.bias],
                                [grad.d_weights, grad.d_bias], epsilon=1e-4)
        assert err < 1e-4

    def test_three_layer_stack_matches_finite_differences(self):
        rng = make_rng(7)
        layers = [init_dense(5, 4, rng), init_dense(4, 4, rng), init_dense(4, 2, rng)]
        x = rng.standard_normal(5)
        labels = np.array([1.0, 0.0])

        def forward():
            h = x
            acts = [h]
            for layer in layers[:-1]:
                h = relu(dense_forward(h, layer))
                acts.append(h)
            return acts, sigmoid(dense_forward(h, layers[-1]))

        def loss():
            return bce_loss(forward()[1], labels)

        acts, pred = forward()
        upstream = pred - labels
        grads = []
        for layer, act in zip(reversed(layers), reversed(acts)):
            g, upstream = dense_backward(act, layer, upstream)
            grads.append(g)
            upstream = upstream * (act > 0)
        grads = grads[::-1]
        params = [a for l in layers for a in (l.weights, l.bias)]
        analytic = [a for g in grads for a in (g.d_weights, g.d_bias)]
        assert finite_diff_check(loss, params, analytic, epsilon=1e-4) < 1e-4


class TestSgdStep:
    def test_zero_grad_unchanged(self):
        layer = DenseLayer(np.array([[1.0, 2.0]]), np.array([0.5, -0.5]))
        before = (layer.weights.copy(), layer.bias.copy())
        sgd_step(layer, LayerGrad.zeros_like(layer), 0.1)
        np.testing.assert_array_equal(layer.weights, before[0])
        np.testing.assert_array_equal(layer.bias, before[1])

    def test_arithmetic(self):
        layer = DenseLayer(np.array([[1.0]]), np.zeros(1))
        sgd_step(layer, LayerGrad(np.array([[2.0]]), np.zeros(1)), 0.5)
        np.testing.assert_array_equal(layer.weights, [[0.0]])

    def test_two_steps_equal_summed_grads(self):
        g1 = LayerGrad(np.array([[0.3]]), np.array([0.1]))
        g2 = LayerGrad(np.array([[-0.2]]), np.array([0.4]))
        a = DenseLayer(np.array([[1.0]]), np.array([2.0]))
        sgd_step(a, g1, 0.1)
        sgd_step(a, g2, 0.1)
        b = DenseLayer(np.array([[1.0]]), np.array([2.0]))
        sgd_step(b, LayerGrad(g1.d_weights + g2.d_weights, g1.d_bias + g2.d_bias), 0.1)
        np.testing.assert_allclose(a.weights, b.weights)
        np.testing.assert_allclose(a.bias, b.bias)

    def test_lr_zero_is_identity(self):
        layer = DenseLayer(np.array([[1.5]]), np.array([-0.5]))
        sgd_step(layer, LayerGrad(np.array([[9.0]]), np.array([9.0])), 0.0)
        np.testing.assert_array_equal(layer.weights, [[1.5]])

    def test_negative_lr_rejected(self):
        layer = DenseLayer(np.array([[1.0]]), np.zeros(1))
        with pytest.raises(ValueError):
            sgd_step(layer, LayerGrad.zeros_like(layer), -0.1)

    def test_shape_mismatch(self):
        layer = DenseLayer(np.array([[1.0]]), np.zeros(1))
        with pytest.raises(ShapeError):
            sgd_step(layer, LayerGrad(np.zeros((2, 2)), np.zeros(2)), 0.1)


class TestSgdLrZero:
    """lr = 0 leaves a layer bit-identical, whatever its gradient holds."""

    def test_signed_zero_and_infinite_gradient(self):
        layer = DenseLayer(np.array([[-0.0, 1.0]]), np.array([0.0, -0.0]))
        before = layer.weights.tobytes() + layer.bias.tobytes()
        with np.errstate(all="raise"):
            sgd_step(layer, LayerGrad(np.array([[-2.0, np.inf]]), np.array([np.nan, 3.0])), 0.0)
        assert layer.weights.tobytes() + layer.bias.tobytes() == before

    def test_update_leaves_gradient_and_velocity(self):
        from sigfuse.nn import sgd_update
        w, g, v = np.array([-0.0, 1.0]), np.array([-2.0, np.inf]), np.array([np.inf, -0.0])
        kept = [a.tobytes() for a in (w, g, v)]
        sgd_update(w, g, 0.0, weight_decay=0.1, momentum=0.9, velocity=v)
        assert [a.tobytes() for a in (w, g, v)] == kept


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = make_rng(123, 4).standard_normal(10)
        b = make_rng(123, 4).standard_normal(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = make_rng(123, 4).standard_normal(10)
        b = make_rng(123, 5).standard_normal(10)
        assert not np.array_equal(a, b)


def _bits(a):
    return np.asarray(a).tobytes()


class TestGradientBuffer:
    """`dense_backward` writes into `layer.grad` when the layer has one,
    with the bits of fresh arrays and of the plain products."""

    def _case(self, shape_x):
        rng = make_rng(9, 1)
        layer = init_dense(7, 5, rng)
        x = rng.standard_normal(shape_x)
        up = rng.standard_normal((*shape_x[:-1], 5))
        up[..., 0] = -0.0  # a 1-D bias gradient is a copy, which keeps the sign
        return layer, x, up

    @pytest.mark.parametrize("shape_x", [(13, 7), (1, 7), (7,)])
    def test_same_bits_with_and_without_buffer(self, shape_x):
        layer, x, up = self._case(shape_x)
        fresh, down = dense_backward(x, layer, up)
        buf = LayerGrad(np.full((7, 5), np.nan), np.full(5, np.nan))
        layer.grad = buf
        into, down_buf = dense_backward(x, layer, up)
        assert into is buf
        assert _bits(into.d_weights) == _bits(fresh.d_weights)
        assert _bits(into.d_bias) == _bits(fresh.d_bias)
        assert _bits(down_buf) == _bits(down)
        if x.ndim == 1:
            assert _bits(fresh.d_weights) == _bits(np.outer(x, up))
            assert _bits(fresh.d_bias) == _bits(up)
        else:
            assert _bits(fresh.d_weights) == _bits(x.T @ up)
            assert _bits(fresh.d_bias) == _bits(np.add.reduce(up, axis=0))

    def test_buffer_is_reused_across_calls(self):
        layer, x, up = self._case((13, 7))
        layer.grad = LayerGrad.empty_like(layer)
        first = dense_backward(x, layer, up)[0]
        second = dense_backward(x[:4], layer, up[:4])[0]
        assert first is second is layer.grad
        assert _bits(second.d_weights) == _bits(x[:4].T @ up[:4])

    @pytest.mark.parametrize("shape_x", [(13, 7), (7,)])
    def test_params_false_leaves_the_buffer(self, shape_x):
        layer, x, up = self._case(shape_x)
        buf = LayerGrad(np.full((7, 5), 3.0), np.full(5, 4.0))
        layer.grad = buf
        grad, down = dense_backward(x, layer, up, params=False)
        assert grad is None and down is not None
        assert layer.grad is buf
        assert (buf.d_weights == 3.0).all() and (buf.d_bias == 4.0).all()

    def test_no_buffer_gives_fresh_arrays(self):
        layer, x, up = self._case((13, 7))
        a = dense_backward(x, layer, up)[0]
        b = dense_backward(x, layer, up)[0]
        assert not np.shares_memory(a.d_weights, b.d_weights)
        assert not np.shares_memory(a.d_bias, b.d_bias)

    def test_copy_and_construction_carry_no_buffer(self):
        layer, _, _ = self._case((13, 7))
        layer.grad = LayerGrad.empty_like(layer)
        assert layer.copy().grad is None
        assert DenseLayer(layer.weights, layer.bias).grad is None
        assert "grad" not in repr(DenseLayer(np.zeros((1, 1)), np.zeros(1)))


class TestCheckFiniteScreen:
    """The column-sum screen in `check_finite` refuses every non-finite
    value and passes a finite layer whose column sums overflow."""

    @pytest.mark.parametrize("where", ["weights", "bias"])
    @pytest.mark.parametrize("values", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                             ids=["nan", "+inf", "-inf", "+inf-inf"])
    def test_refused(self, where, values):
        weights, bias = np.ones((4, 3)), np.ones(3)
        for row, v in enumerate(values):
            if where == "weights":
                weights[row, 1] = v
            else:
                bias[1 + row] = v
        with pytest.raises(ValueError, match="^layer parameters must be finite$"):
            DenseLayer(weights, bias)
        layer = DenseLayer(np.ones((4, 3)), np.ones(3))
        layer.weights, layer.bias = weights, bias
        with pytest.raises(ValueError, match="^layer parameters must be finite$"):
            layer.check_finite()

    @pytest.mark.parametrize("w, b", [(np.inf, -np.inf), (-np.inf, np.inf), (np.nan, 1.0),
                                      (1.0, np.nan)])
    def test_weight_and_bias_of_one_column(self, w, b):
        weights, bias = np.ones((4, 3)), np.ones(3)
        weights[2, 0], bias[0] = w, b
        with pytest.raises(ValueError, match="^layer parameters must be finite$"):
            DenseLayer(weights, bias)

    @pytest.mark.parametrize("where", ["weights", "bias"])
    def test_overflowing_column_sum_passes_silently(self, where):
        weights, bias = np.ones((4, 3)), np.ones(3)
        if where == "weights":
            weights[1:3, 2] = 1e308
        else:  # the bias adds to its column's weight sum
            weights[1, 2] = bias[2] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            layer = DenseLayer(weights, bias)
            layer.check_finite()
            layer.copy()


class TestShapeRefusals:
    """A layer of the wrong rank or width, and a backward pass whose input
    or upstream width does not fit the layer, are refused by name."""

    def test_weights_not_2d_or_bias_not_1d(self):
        with pytest.raises(ShapeError, match=r"^weights must be 2-D and bias 1-D, "
                                             r"got 1-D and 2-D$"):
            DenseLayer(np.zeros(3), np.zeros((1, 3)))

    def test_bias_length_against_weight_columns(self):
        with pytest.raises(ShapeError, match=r"^bias length 3 does not match "
                                             r"weight columns 2$"):
            DenseLayer(np.zeros((4, 2)), np.zeros(3))

    def test_backward_input_width(self):
        layer = DenseLayer(np.zeros((4, 2)), np.zeros(2))
        with pytest.raises(ShapeError, match=r"^input has 5 features, layer expects 4$"):
            dense_backward(np.zeros((3, 5)), layer, np.zeros((3, 2)))

    def test_backward_upstream_width(self):
        layer = DenseLayer(np.zeros((4, 2)), np.zeros(2))
        with pytest.raises(ShapeError, match=r"^upstream has 3 features, "
                                             r"layer outputs 2$"):
            dense_backward(np.zeros((3, 4)), layer, np.zeros((3, 3)))
