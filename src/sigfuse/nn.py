"""Dense-network building blocks: affine layers, activations, BCE loss,
explicit gradients, SGD updates and a finite-difference gradient checker.

All internal arithmetic is float64; float32 appears only at file/wire
boundaries. Randomness always flows through `make_rng`, a PCG64 generator
keyed by (seed, stream ids), so identical seeds give identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import blas

# Predictions are clamped to [BCE_EPS, 1 - BCE_EPS] inside the loss to
# avoid log(0).
BCE_EPS = 1e-7

# sigmoid outputs are clamped to the open interval (0, 1)
_SIGMOID_LOW = np.finfo(np.float64).tiny
_SIGMOID_HIGH = np.nextafter(1.0, 0.0)


class ShapeError(ValueError):
    """Raised when array dimensions do not match a layer's declaration."""


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """PCG64 generator for (seed, stream). Same arguments, same draws."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=stream)))


@dataclass
class DenseLayer:
    """Affine layer y = x W + b with weights (in_dim, out_dim), bias (out_dim,).
    `grad`, if set, is where the layer's gradient lives, computed by
    `dense_backward` or zero from `LayerGrad.zeros_like`."""

    weights: np.ndarray
    bias: np.ndarray
    grad: LayerGrad | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("weights must be 2-D and bias 1-D, got "
                             f"{self.weights.ndim}-D and {self.bias.ndim}-D")
        if self.weights.shape[1] != self.bias.shape[0]:
            raise ShapeError(f"bias length {self.bias.shape[0]} does not match "
                             f"weight columns {self.weights.shape[1]}")
        self.check_finite()

    def check_finite(self):
        """Raise ValueError unless every weight and bias is finite. A NaN or
        inf makes its column's weight sum plus bias non-finite, so the exact
        elementwise test runs only when one of those is not finite (or
        overflowed), and no bool array the size of the layer is made. A
        layer of `blas.MIN_SIZE` weights or more sums them with a
        matrix-vector product, on BLAS's threads; below that its set-up
        costs more than the one-core sum."""
        w = self.weights
        with np.errstate(over="ignore", invalid="ignore"):
            sums = (np.dot(np.ones(self.in_dim), w) if w.size >= blas.MIN_SIZE
                    else np.add.reduce(w, axis=0)) + self.bias
        if not (np.isfinite(sums).all()
                or np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValueError("layer parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]

    def copy(self) -> "DenseLayer":
        return DenseLayer(self.weights.copy(), self.bias.copy())


@dataclass
class LayerGrad:
    """Gradient of a loss w.r.t. one DenseLayer; shapes mirror the layer."""

    d_weights: np.ndarray
    d_bias: np.ndarray

    @classmethod
    def zeros_like(cls, layer: DenseLayer) -> "LayerGrad":
        """`layer.grad`, filled with +0.0, when a stage has given the layer
        one; else fresh `np.zeros`, which maps zero pages without writing them."""
        if layer.grad is None:
            return cls(np.zeros(layer.weights.shape), np.zeros(layer.bias.shape))
        layer.grad.d_weights.fill(0.0)
        layer.grad.d_bias.fill(0.0)
        return layer.grad

    @classmethod
    def empty_like(cls, layer: DenseLayer) -> "LayerGrad":
        return cls(np.empty(layer.weights.shape), np.empty(layer.bias.shape))


def init_dense(in_dim: int, out_dim: int, rng: np.random.Generator) -> DenseLayer:
    """Glorot-uniform weights in [-a, a], a = sqrt(6/(in+out)); zero bias."""
    a = np.sqrt(6.0 / (in_dim + out_dim))
    return DenseLayer(rng.uniform(-a, a, size=(in_dim, out_dim)), np.zeros(out_dim))


def dense_forward(x: np.ndarray, layer: DenseLayer) -> np.ndarray:
    """x W + b. Accepts a single vector (in_dim,) or a batch (n, in_dim)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != layer.in_dim:
        raise ShapeError(f"input has {x.shape[-1]} features, layer expects {layer.in_dim}")
    out = x @ layer.weights
    out += layer.bias
    return out


def relu(v: np.ndarray) -> np.ndarray:
    return np.maximum(0.0, v)


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Elementwise logistic; the split form avoids overflow for large |v|.

    Saturated values are nudged to the nearest representable number inside
    (0, 1) so outputs are strictly open-interval for every finite input.
    """
    v = np.asarray(v, dtype=np.float64)
    # exp(-|v|) without abs: for a NaN v, minimum returns v itself, where
    # abs then negate would set the NaN's sign bit; numerator and
    # denominator then hold the same NaN, so the divide keeps it whichever
    # NaN operand the CPU passes on
    e = np.exp(np.minimum(v, np.negative(v)))
    # the numerator without a mask: exp(v) for v < 0, exactly 1 for v >= 0
    out = np.minimum(v, 0.0, out=np.empty_like(v))  # an array for 0-d v too
    np.exp(out, out=out)
    e += 1.0
    out /= e
    np.maximum(out, _SIGMOID_LOW, out=out)
    return np.minimum(out, _SIGMOID_HIGH, out=out)


def _bce_terms(pred: np.ndarray, label: np.ndarray) -> np.ndarray:
    """Elementwise log-likelihood, predictions clamped; BCE negates its sum."""
    pred = np.asarray(pred, dtype=np.float64)
    label = np.asarray(label, dtype=np.float64)
    if pred.shape != label.shape:
        raise ShapeError(f"pred shape {pred.shape} != label shape {label.shape}")
    p = np.minimum(np.maximum(pred, BCE_EPS), 1.0 - BCE_EPS)
    return label * np.log(p) + (1.0 - label) * np.log(1.0 - p)


def bce_loss(pred: np.ndarray, label: np.ndarray) -> float:
    """Sum over attributes of binary cross-entropy, predictions clamped."""
    return float(-np.sum(_bce_terms(pred, label)))


def bce_loss_batch(pred: np.ndarray, label: np.ndarray) -> float:
    """Mean over examples of the per-example summed BCE. pred, label: (n, L).

    The ufunc reductions of `np.mean(-np.sum(terms, axis=-1))`, without
    NumPy's wrappers; a 1-D input is one example."""
    per_example = -np.add.reduce(_bce_terms(pred, label), axis=-1)
    return float(np.add.reduce(per_example, axis=None) / per_example.size)


def dense_backward(x: np.ndarray, layer: DenseLayer, upstream: np.ndarray, *,
                   params: bool = True,
                   inputs: bool = True) -> tuple[LayerGrad | None, np.ndarray | None]:
    """Backprop through y = x W + b.

    Returns (grad, downstream) with d_weights = x^T upstream (outer product
    for single vectors), d_bias = upstream summed over the batch, and
    downstream = upstream W^T, the gradient written into `layer.grad` when
    the layer has one. Each part is computed only when asked for:
    `params=False` skips the weight matmul and bias sum of a layer whose
    update would be discarded (a frozen layer) and returns grad None;
    `inputs=False` skips the input gradient of a layer whose input needs
    none (a branch's first layer) and returns downstream None.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if x.shape[-1] != layer.in_dim:
        raise ShapeError(f"input has {x.shape[-1]} features, layer expects {layer.in_dim}")
    if upstream.shape[-1] != layer.out_dim:
        raise ShapeError(f"upstream has {upstream.shape[-1]} features, "
                         f"layer outputs {layer.out_dim}")
    grad = downstream = None
    if params:
        grad = layer.grad if layer.grad is not None else LayerGrad.empty_like(layer)
        if x.ndim == 1:
            np.outer(x, upstream, out=grad.d_weights)
            np.copyto(grad.d_bias, upstream)
        else:
            np.matmul(x.T, upstream, out=grad.d_weights)
            np.add.reduce(upstream, axis=0, out=grad.d_bias)
    if inputs:
        downstream = upstream @ layer.weights.T
    return grad, downstream


def sgd_update(param: np.ndarray, g: np.ndarray, lr: float, weight_decay: float = 0.0,
               momentum: float = 0.0, velocity: np.ndarray | None = None):
    """One SGD step for one array, in place: v = m * v + g + wd * w, then
    w -= lr * v (v is `velocity`, needed when momentum > 0). `g` is
    overwritten with lr * v, so the step makes no array-sized temporary
    (weight decay makes one, for wd * w). lr = 0 changes nothing, not
    even `g` or `v`. `blas.ops` picks the passes for the array's size;
    every choice gives the same bits."""
    if lr == 0:
        return
    scale, add, subtract = blas.ops(param)
    if weight_decay > 0:
        add(g, weight_decay * param)
    if momentum > 0:
        scale(velocity, momentum)
        add(velocity, g)
        np.multiply(velocity, lr, out=g)
    else:
        scale(g, lr)
    subtract(param, g)


def sgd_step(layer: DenseLayer, grad: LayerGrad, lr: float) -> DenseLayer:
    """In-place plain SGD update: params <- params - lr * grad.

    lr = 0 is accepted and leaves the layer bit-identical. `grad` itself
    is never modified: `sgd_update` steps from a copy of it.
    """
    if lr < 0:
        raise ValueError(f"learning rate must be nonnegative, got {lr}")
    if grad.d_weights.shape != layer.weights.shape or grad.d_bias.shape != layer.bias.shape:
        raise ShapeError("gradient shapes do not match layer shapes")
    sgd_update(layer.weights, grad.d_weights.copy(), lr)
    sgd_update(layer.bias, grad.d_bias.copy(), lr)
    return layer


def finite_diff_check(loss_fn, params: list[np.ndarray],
                      analytic: list[np.ndarray], epsilon: float = 1e-4) -> float:
    """Max relative error between analytic gradients and central differences.

    `loss_fn` evaluates the scalar loss from the current contents of
    `params`; each array in `params` is perturbed in place. `analytic`
    holds the matching gradient arrays. Relative error per entry is
    |a - n| / max(|a|, |n|, 1e-8).
    """
    if len(params) != len(analytic):
        raise ShapeError("params and analytic gradient lists differ in length")
    worst = 0.0
    for p, g in zip(params, analytic):
        if p.shape != g.shape:
            raise ShapeError("analytic gradient shape does not match parameter shape")
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + epsilon
            lo_hi = loss_fn()
            flat_p[i] = orig - epsilon
            lo_lo = loss_fn()
            flat_p[i] = orig
            if not (np.isfinite(lo_hi) and np.isfinite(lo_lo)):
                raise ValueError("loss is not finite at the probed point")
            numeric = (lo_hi - lo_lo) / (2.0 * epsilon)
            a = flat_g[i]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
