"""The hybrid fusion network.

One two-layer dense branch per feature kind maps its descriptor into a
shared space; active branch outputs are summed elementwise into the
signature; a shared trunk (two dense+ReLU layers and a sigmoid output)
scores the attributes. Branches and the trunk are separate parameter
groups that can be frozen individually.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field

import numpy as np

from .binfmt import Reader, write_header, write_str
from .nn import (DenseLayer, LayerGrad, ShapeError, bce_loss_batch,
                 dense_backward, dense_forward, init_dense, make_rng, relu,
                 sigmoid)

MODEL_MAGIC = b"HNET"
MODEL_VERSION = 1

# a UFSG request names the active kinds in one mask byte, bit i for kind id i
MAX_KINDS = 8

# rng stream tags for parameter initialization
_TAG_BRANCH = 1
_TAG_TRUNK = 2


@dataclass(frozen=True)
class FeatureKind:
    id: int
    name: str
    input_dim: int


@dataclass
class BranchParams:
    layer1: DenseLayer  # input_dim -> h1
    layer2: DenseLayer  # h1 -> signature dim

    def layers(self) -> list[DenseLayer]:
        return [self.layer1, self.layer2]


@dataclass
class TrunkParams:
    layer3: DenseLayer  # s -> t1
    layer4: DenseLayer  # t1 -> t2
    out: DenseLayer     # t2 -> L

    def layers(self) -> list[DenseLayer]:
        return [self.layer3, self.layer4, self.out]


@dataclass(frozen=True)
class Profile:
    """Layer widths; `paper` matches the published table, `desk` runs in tests."""

    branch_hidden: int
    signature_dim: int
    trunk_hidden1: int
    trunk_hidden2: int
    n_outputs: int


PROFILES = {
    "paper": Profile(4096, 1024, 1024, 1024, 40),
    "desk": Profile(64, 32, 32, 32, 8),
}


@dataclass
class HybridNet:
    kinds: list[FeatureKind]
    branches: list[BranchParams]
    trunk: TrunkParams
    trainable: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.kinds) != len(self.branches):
            raise ShapeError("one branch required per feature kind")
        sdims = {b.layer2.out_dim for b in self.branches}
        if len(sdims) > 1:
            raise ShapeError(f"branch signature dims differ: {sorted(sdims)}")
        if not self.trainable:
            self.trainable = {g: True for g in self.group_ids()}

    @property
    def signature_dim(self) -> int:
        return self.trunk.layer3.in_dim

    @property
    def n_outputs(self) -> int:
        return self.trunk.out.out_dim

    def kind_names(self) -> list[str]:
        return [k.name for k in self.kinds]

    def kind_by_name(self, name: str) -> FeatureKind:
        for k in self.kinds:
            if k.name == name:
                return k
        raise KeyError(f"unknown feature kind {name!r}")

    def branch_for(self, name: str) -> BranchParams:
        return self.branches[self.kind_by_name(name).id]

    def group_ids(self) -> list[str]:
        return self.kind_names() + ["trunk"]

    def group_layers(self, group: str) -> list[DenseLayer]:
        if group == "trunk":
            return self.trunk.layers()
        return self.branch_for(group).layers()

    def copy(self) -> "HybridNet":
        return HybridNet(
            kinds=list(self.kinds),
            branches=[BranchParams(b.layer1.copy(), b.layer2.copy()) for b in self.branches],
            trunk=TrunkParams(*(l.copy() for l in self.trunk.layers())),
            trainable=dict(self.trainable),
        )


def build_net(kinds: list[tuple[str, int]], profile: Profile, seed: int) -> HybridNet:
    """Construct a freshly initialized net.

    Each branch draws from its own rng stream keyed by the kind id, so a
    branch's initialization does not depend on how many other kinds exist
    or in which order they were trained.
    """
    _check_kind_count(len(kinds))
    fkinds = [FeatureKind(i, name, dim) for i, (name, dim) in enumerate(kinds)]
    branches = [init_branch(k, profile, seed) for k in fkinds]
    rng = make_rng(seed, _TAG_TRUNK)
    trunk = TrunkParams(
        init_dense(profile.signature_dim, profile.trunk_hidden1, rng),
        init_dense(profile.trunk_hidden1, profile.trunk_hidden2, rng),
        init_dense(profile.trunk_hidden2, profile.n_outputs, rng),
    )
    return HybridNet(fkinds, branches, trunk)


def _check_kind_count(count: int):
    if count > MAX_KINDS:
        raise ValueError(f"a net holds at most {MAX_KINDS} feature kinds (one bit each in "
                         f"the request mask byte), got {count}")


def init_branch(kind: FeatureKind, profile: Profile, seed: int) -> BranchParams:
    rng = make_rng(seed, _TAG_BRANCH, kind.id)
    return BranchParams(
        init_dense(kind.input_dim, profile.branch_hidden, rng),
        init_dense(profile.branch_hidden, profile.signature_dim, rng),
    )


def add_branch(net: HybridNet, name: str, input_dim: int, profile: Profile,
               seed: int) -> HybridNet:
    """Graft a freshly initialized branch for a new feature kind onto an
    existing net; no other parameter group is touched."""
    if name in net.kind_names():
        raise ValueError(f"kind {name!r} already exists")
    _check_kind_count(len(net.kinds) + 1)
    if profile.signature_dim != net.signature_dim:
        raise ShapeError(f"profile signature dim {profile.signature_dim} does not "
                         f"match net signature dim {net.signature_dim}")
    kind = FeatureKind(len(net.kinds), name, input_dim)
    net.kinds.append(kind)
    net.branches.append(init_branch(kind, profile, seed))
    net.trainable[name] = True
    return net


def normalize_mask(mask, net: HybridNet) -> list[str]:
    """Validate a mask (iterable of kind names) and order it by kind id."""
    names = set(mask)
    if not names:
        raise ValueError("feature mask must be nonempty")
    known = set(net.kind_names())
    unknown = names - known
    if unknown:
        raise ValueError(f"mask references unknown kinds: {sorted(unknown)}")
    return [k.name for k in net.kinds if k.name in names]


def mask_to_bits(mask, net: HybridNet) -> int:
    bits = 0
    for name in normalize_mask(mask, net):
        bits |= 1 << net.kind_by_name(name).id
    return bits


def bits_to_mask(bits: int, net: HybridNet) -> list[str]:
    return [k.name for k in net.kinds if bits & (1 << k.id)]


def _branch_activations(x: np.ndarray, branch: BranchParams) -> tuple[np.ndarray, np.ndarray]:
    h1 = relu(dense_forward(x, branch.layer1))
    return h1, relu(dense_forward(h1, branch.layer2))


def branch_forward(x: np.ndarray, branch: BranchParams) -> np.ndarray:
    """relu(dense2(relu(dense1(x)))); output is elementwise >= 0."""
    return _branch_activations(x, branch)[-1]


def merge_sum(hs: list[np.ndarray]) -> np.ndarray:
    """Elementwise sum of branch outputs; the universal signature.

    Addends are accumulated in a canonical (byte-sorted) order so any
    permutation of the inputs yields a bit-identical result.
    """
    if not hs:
        raise ValueError("cannot merge an empty list of branch outputs")
    hs = [np.asarray(h, dtype=np.float64) for h in hs]
    dims = {h.shape[-1] for h in hs}
    if len(dims) > 1:
        raise ShapeError(f"branch output lengths differ: {sorted(dims)}")
    ordered = sorted(hs, key=lambda h: h.tobytes())
    total = ordered[0].copy()
    for h in ordered[1:]:
        total += h
    return total


def _trunk_activations(sig: np.ndarray, trunk: TrunkParams) -> tuple[np.ndarray, ...]:
    h3 = relu(dense_forward(sig, trunk.layer3))
    h4 = relu(dense_forward(h3, trunk.layer4))
    return h3, h4, sigmoid(dense_forward(h4, trunk.out))


def trunk_forward(sig: np.ndarray, trunk: TrunkParams) -> np.ndarray:
    """Shared layers: two dense+ReLU then the sigmoid output layer."""
    return _trunk_activations(sig, trunk)[-1]


def encode_signature(features: dict, mask, net: HybridNet) -> np.ndarray:
    """The universal signature of the kinds in `mask`: each kind's branch
    output, merged by `merge_sum`. This is what a client sends."""
    active = normalize_mask(mask, net)
    missing = [k for k in active if k not in features]
    if missing:
        raise ValueError(f"mask kinds missing from feature map: {missing}")
    return merge_sum([branch_forward(features[k], net.branch_for(k)) for k in active])


def net_forward(features: dict, mask, net: HybridNet) -> tuple[np.ndarray, np.ndarray]:
    """Full forward pass for the kinds in `mask`; returns (signature, scores)."""
    sig = encode_signature(features, mask, net)
    return sig, trunk_forward(sig, net.trunk)


def net_backward(features: dict, mask, net: HybridNet,
                 labels: np.ndarray) -> tuple[dict[str, list[LayerGrad]], float]:
    """Gradients of the batch loss for every parameter group.

    The batch loss is the mean over examples of the summed-over-attributes
    BCE. Frozen groups and branches outside the mask get exact-zero
    gradients. Returns (grads by group id, loss).

    Only what some gradient consumes is computed: a frozen trunk layer
    skips its weight matmul and bias sum but still passes the gradient
    down, the signature gradient is skipped when no active branch learns,
    and a branch's first layer skips its input gradient. Groups with real
    gradients get no zero-filled arrays; the zero gradients of the other
    groups come from `np.zeros`, whose pages stay unwritten.
    """
    active = normalize_mask(mask, net)
    labels = np.asarray(labels, dtype=np.float64)
    single = labels.ndim == 1
    y = labels[None, :] if single else labels
    n = y.shape[0]

    # forward with cached activations
    branch_acts = {}
    for name in active:
        x = np.asarray(features[name], dtype=np.float64)
        if single and x.ndim == 1:
            x = x[None, :]
        branch_acts[name] = (x, *_branch_activations(x, net.branch_for(name)))
    sig = merge_sum([branch_acts[k][2] for k in active])
    h3, h4, p = _trunk_activations(sig, net.trunk)

    loss = bce_loss_batch(p, y)

    grads = {}
    train_trunk = net.trainable.get("trunk", True)
    learners = [k for k in active if net.trainable.get(k, True)]

    # sigmoid + BCE collapse to (p - y), scaled by the batch mean
    d_logits = (p - y) / n
    g_out, d_h4 = dense_backward(h4, net.trunk.out, d_logits, params=train_trunk)
    d_a4 = d_h4 * (h4 > 0)  # ReLU subgradient at 0 is 0
    g_l4, d_h3 = dense_backward(h3, net.trunk.layer4, d_a4, params=train_trunk)
    d_a3 = d_h3 * (h3 > 0)
    g_l3, d_sig = dense_backward(sig, net.trunk.layer3, d_a3, params=train_trunk,
                                 inputs=bool(learners))
    if train_trunk:
        grads["trunk"] = [g_l3, g_l4, g_out]

    # the merge distributes d_sig unchanged to every active branch
    for name in learners:
        b = net.branch_for(name)
        x, h1, h2 = branch_acts[name]
        d_a2 = d_sig * (h2 > 0)
        g_l2, d_h1 = dense_backward(h1, b.layer2, d_a2)
        d_a1 = d_h1 * (h1 > 0)
        g_l1, _ = dense_backward(x, b.layer1, d_a1, inputs=False)
        grads[name] = [g_l1, g_l2]

    return {g: grads.get(g) or [LayerGrad.zeros_like(l) for l in net.group_layers(g)]
            for g in net.group_ids()}, loss


def set_trainable(net: HybridNet, group: str, flag: bool) -> HybridNet:
    if group not in net.trainable:
        raise KeyError(f"unknown parameter group {group!r}")
    net.trainable[group] = bool(flag)
    return net


# ---------------------------------------------------------------------------
# serialization: magic "HNET", version u16, header (kind names and dims as
# length-prefixed UTF-8 plus u32 widths), then parameter groups in
# declaration order as little-endian float32 row-major matrices, each
# preceded by u32 row/col counts. Biases are written as 1-row matrices.
# ---------------------------------------------------------------------------

class ModelFormatError(ValueError):
    """Raised on malformed model files."""


# f4 <-> f8 conversion goes through one buffer of this many floats per
# model, so no layer-sized temporary is made in either direction
_CHUNK = 1 << 16


def _write_matrix(buf, m: np.ndarray, chunk: np.ndarray):
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    buf.write(struct.pack("<II", m.shape[0], m.shape[1]))
    flat = m.reshape(-1)
    for start in range(0, flat.size, chunk.size):
        part = chunk[:flat.size - start]
        part[...] = flat[start:start + part.size]
        buf.write(part)


def _read_matrix(rd: Reader, chunk: np.ndarray,
                 keep: bool = True) -> tuple[tuple[int, int], np.ndarray | None]:
    """The next matrix's shape and its float64 copy. A matrix not kept is
    still read, chunk by chunk, and checked for non-finite values, but no
    copy is made: its place in the result is None."""
    rows, cols = rd.unpack("<II")
    if rows * cols > 1 << 28:
        raise ModelFormatError(f"matrix {rows}x{cols} exceeds size limit")
    if 4 * rows * cols > rd.remaining():
        raise rd.truncated()
    m = np.empty((rows, cols)) if keep else None
    for start in range(0, rows * cols, chunk.size):
        part = chunk[:rows * cols - start]
        rd.fill(part)
        if keep:
            m.reshape(-1)[start:start + part.size] = part
        elif not np.isfinite(part).all():
            raise ModelFormatError("layer parameters must be finite")
    return (rows, cols), m


def _write_layer(buf, layer: DenseLayer, chunk: np.ndarray):
    _write_matrix(buf, layer.weights, chunk)
    _write_matrix(buf, layer.bias, chunk)


def _read_layer(rd: Reader, chunk: np.ndarray, name: str, in_dim: int | None,
                keep: bool = True) -> tuple[DenseLayer | None, int]:
    """The next layer, None when not kept, and its output width. The layer
    must take `in_dim` inputs (any, if None); `name` names it in errors."""
    (rows, cols), w = _read_matrix(rd, chunk, keep)
    (b_rows, b_cols), b = _read_matrix(rd, chunk, keep)
    if b_rows != 1:
        raise ModelFormatError("bias must be a single row")
    if b_cols != cols:
        raise ModelFormatError(f"bias length {b_cols} does not match weight columns {cols}")
    if in_dim is not None and rows != in_dim:
        raise ModelFormatError(f"{name} takes {rows} inputs, expected {in_dim}")
    if not keep:
        return None, cols
    try:
        return DenseLayer(w, b[0]), cols
    except ValueError as exc:  # a non-finite value
        raise ModelFormatError(str(exc)) from exc


def write_model(buf, net: HybridNet):
    """Write the HNET encoding of `net` to `buf`, anything with `write`."""
    write_header(buf, MODEL_MAGIC, MODEL_VERSION)
    buf.write(struct.pack("<I", len(net.kinds)))
    for k in net.kinds:
        write_str(buf, k.name)
        buf.write(struct.pack("<I", k.input_dim))
    chunk = np.empty(_CHUNK, dtype="<f4")
    for group in net.group_ids():
        for layer in net.group_layers(group):
            _write_layer(buf, layer, chunk)


def _read_model(stream, keep_branches: bool = True) -> HybridNet:
    """Read one HNET model from a seekable binary stream that holds it to
    the end: a `BytesIO` or an open file. Every layer must fit the next:
    kind dim -> layer 1 -> layer 2 -> trunk layer 3 -> layer 4 -> out.
    Without `keep_branches` the branch bytes are read and checked all the
    same, but the net holds only the trunk: no kinds and no branches."""
    rd = Reader(stream, ModelFormatError, "model")
    rd.header(MODEL_MAGIC, MODEL_VERSION)
    (n_kinds,) = rd.unpack("<I")
    kinds = []
    for i in range(n_kinds):
        name = rd.read_str()
        (dim,) = rd.unpack("<I")
        kinds.append(FeatureKind(i, name, dim))
    chunk = np.empty(_CHUNK, dtype="<f4")
    branches, sig_dim = [], None
    for k in kinds:
        l1, width = _read_layer(rd, chunk, f"kind {k.name!r} layer 1", k.input_dim,
                                keep_branches)
        l2, width = _read_layer(rd, chunk, f"kind {k.name!r} layer 2", width, keep_branches)
        if sig_dim is not None and width != sig_dim:
            raise ModelFormatError(f"kind {k.name!r} layer 2 gives {width} outputs, "
                                   f"kind {kinds[0].name!r} gives {sig_dim}")
        sig_dim = width
        branches.append(BranchParams(l1, l2))
    trunk = []
    for name in ("layer 3", "layer 4", "out layer"):
        layer, sig_dim = _read_layer(rd, chunk, f"trunk {name}", sig_dim)
        trunk.append(layer)
    if rd.remaining():
        raise ModelFormatError("trailing bytes after model data")
    if not keep_branches:
        kinds, branches = [], []
    return HybridNet(kinds, branches, TrunkParams(*trunk))


def model_to_bytes(net: HybridNet) -> bytes:
    buf = io.BytesIO()
    write_model(buf, net)
    return buf.getvalue()


def group_bytes(net: HybridNet, group: str) -> bytes:
    """Serialized float32 bytes of one parameter group, for byte comparison."""
    buf = io.BytesIO()
    chunk = np.empty(_CHUNK, dtype="<f4")
    for layer in net.group_layers(group):
        _write_layer(buf, layer, chunk)
    return buf.getvalue()


def model_from_bytes(data: bytes) -> HybridNet:
    return _read_model(io.BytesIO(data))


def save_model(net: HybridNet, path):
    """Write `net` as HNET, streaming each matrix straight into the file."""
    with open(path, "wb") as fh:
        write_model(fh, net)


def _load(path, keep_branches: bool) -> HybridNet:
    # a pipe, which cannot tell its size, is read whole first
    with open(path, "rb") as fh:
        return _read_model(fh if fh.seekable() else io.BytesIO(fh.read()), keep_branches)


def load_model(path) -> HybridNet:
    """Read an HNET file matrix by matrix, never holding the whole file."""
    return _load(path, True)


def load_trunk(path) -> HybridNet:
    """Read an HNET file as `load_model` does, with every check on every
    byte, but keep only the trunk: all a signature server scores with."""
    return _load(path, False)
