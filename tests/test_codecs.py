"""FBNK and HNET codecs against per-record reference codecs, and every
way a cut or inflated file must fail."""

import gc
import os
import struct
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfuse import cli, protocol
from sigfuse.cli import main
from sigfuse.data import (DataFormatError, FeatureBank, bank_from_bytes,
                          bank_to_bytes, load_bank)
from sigfuse.model import (_CHUNK, PROFILES, FeatureKind, ModelFormatError, Profile,
                           build_net, group_bytes, load_model, load_trunk,
                           model_from_bytes, model_to_bytes)
from sigfuse.nn import DenseLayer, make_rng


def ref_bank_to_bytes(bank):
    """FBNK v1, one record at a time: u16 id length, UTF-8 id, dim x f32 LE."""
    name = bank.kind_name.encode("utf-8")
    out = [b"FBNK", struct.pack("<H", 1), struct.pack("<H", len(name)), name,
           struct.pack("<IQ", bank.dim, len(bank.entries))]
    for img_id, vec in bank.entries.items():
        raw = img_id.encode("utf-8")
        out += [struct.pack("<H", len(raw)), raw,
                np.asarray(vec, dtype="<f4").tobytes()]
    return b"".join(out)


def ref_bank_from_bytes(data):
    pos = 0

    def take(n):
        nonlocal pos
        assert pos + n <= len(data)
        pos += n
        return data[pos - n:pos]

    assert take(4) == b"FBNK" and struct.unpack("<H", take(2)) == (1,)
    kind = take(struct.unpack("<H", take(2))[0]).decode("utf-8")
    dim, count = struct.unpack("<IQ", take(12))
    entries = {}
    for _ in range(count):
        img_id = take(struct.unpack("<H", take(2))[0]).decode("utf-8")
        entries[img_id] = np.frombuffer(take(4 * dim), dtype="<f4").copy()
    assert pos == len(data)
    return FeatureBank(kind, dim, entries)


def vectors(dim, n, seed=0):
    return list(make_rng(seed, 5).standard_normal((n, dim)).astype(np.float32))


BANKS = {
    "empty": FeatureBank("fv", 8, {}),
    "mixed-length ids": FeatureBank("cnn", 3, dict(zip(
        ["a", "bb" * 10, "c" * 301, "d_0001"], vectors(3, 4)))),
    "non-ASCII ids": FeatureBank("lbp_é", 2, dict(zip(
        ["visage_é", "顔_001", "\U0001f600", "ß"], vectors(2, 4, seed=1)))),
    "empty id": FeatureBank("fv", 4, dict(zip(["", "x"], vectors(4, 2, seed=2)))),
    "65535-byte id": FeatureBank("fv", 2, dict(zip(
        ["y" * 65535, "z", "é" * 32767 + "w"], vectors(2, 3, seed=3)))),
    "dim 1": FeatureBank("one", 1, dict(zip(
        [f"img_{i}" for i in range(50)], vectors(1, 50, seed=4)))),
}


def assert_same_bank(a, b):
    assert (a.kind_name, a.dim) == (b.kind_name, b.dim)
    assert list(a.entries) == list(b.entries)
    for img_id, vec in a.entries.items():
        other = b.entries[img_id]
        assert other.dtype == vec.dtype and other.shape == vec.shape == (a.dim,)
        assert other.tobytes() == vec.tobytes()


class TestFbnkAgainstReference:
    @pytest.mark.parametrize("case", list(BANKS))
    def test_bytes_and_arrays_match(self, case):
        bank = BANKS[case]
        data = bank_to_bytes(bank)
        assert data == ref_bank_to_bytes(bank)
        assert_same_bank(ref_bank_from_bytes(data), bank_from_bytes(data))

    @given(st.lists(st.text(max_size=12), max_size=20, unique=True), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_random_banks_match(self, ids, dim):
        bank = FeatureBank("k", dim, dict(zip(ids, vectors(dim, len(ids)))))
        data = bank_to_bytes(bank)
        assert data == ref_bank_to_bytes(bank)
        assert_same_bank(ref_bank_from_bytes(data), bank_from_bytes(data))

    def test_id_longer_than_u16_refused(self):
        bank = FeatureBank("fv", 1, {"y" * 65536: np.zeros(1, np.float32)})
        with pytest.raises(ValueError, match="65536"):
            bank_to_bytes(bank)


class TestBankEntriesView:
    """`FeatureBank.entries` over the matrix and id -> row map behaves as
    the dict of vectors it stands for, and encodes as that dict would."""

    OPS = st.lists(st.tuples(st.sampled_from(["set", "add", "del"]),
                             st.sampled_from(["a", "bb", "", "é", "c" * 40]),
                             st.integers(0, 2 ** 16)), max_size=60)

    @given(OPS, st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_entries_follow_a_dict(self, ops, dim):
        bank, model = FeatureBank("k", dim, {}), {}
        for op, img_id, seed in ops:
            vec = make_rng(seed).standard_normal(dim).astype(np.float32)
            if op == "del":
                if img_id in model:
                    del model[img_id], bank.entries[img_id]
                continue
            model[img_id] = vec
            if op == "add":
                bank.add(img_id, vec)
            else:
                bank.entries[img_id] = vec
        assert list(bank.entries) == list(bank.entries.keys()) == list(model)
        assert len(bank.entries) == len(model)
        assert all(img_id in bank.entries for img_id in model) and "zz" not in bank.entries
        for (img_id, vec), (want_id, want) in zip(bank.entries.items(), model.items()):
            assert img_id == want_id and vec.dtype == np.float32
            assert vec.tobytes() == want.tobytes()
        data = bank_to_bytes(bank)
        assert data == ref_bank_to_bytes(FeatureBank("k", dim, model))
        assert_same_bank(bank_from_bytes(data), bank)

    def test_overwrite_keeps_position_and_fetched_vectors(self):
        bank = small_bank()
        before = bank.entries["bb"]
        kept = before.copy()
        bank.entries["bb"] = np.full(3, 7.0)
        assert list(bank.entries) == ["a", "bb", "", "é"]
        assert before.tobytes() == kept.tobytes()
        assert bank.entries["bb"].tobytes() == np.full(3, 7.0, "<f4").tobytes()
        del bank.entries["a"]
        bank.entries["a"] = np.zeros(3)
        assert list(bank.entries) == ["bb", "", "é", "a"]
        with pytest.raises(KeyError):
            bank.entries["zz"]

    def test_wrong_shapes_refused(self):
        with pytest.raises(ValueError, match="bank dim is 3"):
            FeatureBank("fv", 3, {"a": np.zeros(4, np.float32)})
        with pytest.raises(ValueError, match="bank dim is 3"):
            small_bank().entries["x"] = np.zeros(2)

    def test_bank_is_freed_without_the_cyclic_collector(self):
        """A bank in a reference cycle would hold its matrix until a full
        collection; loaded banks are made and dropped on every load."""
        bank = bank_from_bytes(bank_to_bytes(small_bank()))
        bank.entries["new"] = np.ones(3)
        ref = weakref.ref(bank)
        gc.disable()
        try:
            del bank
            assert ref() is None
        finally:
            gc.enable()

    def test_loaded_bank_is_one_matrix(self):
        bank = bank_from_bytes(bank_to_bytes(small_bank()))
        assert bank.matrix.shape == (4, 3) and bank.matrix.dtype == np.dtype("<f4")
        assert bank.rows == {"a": 0, "bb": 1, "": 2, "é": 3}
        assert all(np.shares_memory(vec, bank.matrix) for vec in bank.entries.values())


def small_bank():
    return FeatureBank("fv", 3, dict(zip(["a", "bb", "", "é"], vectors(3, 4))))


def desk_hnet():
    """The smallest desk-profile net, 18 kB: every cut of it is tried."""
    return model_to_bytes(build_net([("fv", 1)], PROFILES["desk"], seed=1))


class TestCutFiles:
    """A file cut at any byte offset is a named format error, never a
    numpy or struct error and never a smaller bank or net."""

    @staticmethod
    def assert_every_cut_fails(data, from_bytes, load, error, path):
        path.write_bytes(data)
        # shrink one file from the end rather than write one per offset
        for cut in reversed(range(len(data))):
            os.truncate(path, cut)
            with pytest.raises(error):
                from_bytes(data[:cut])
            with pytest.raises(error):
                load(path)

    def test_fbnk_cut_everywhere(self, tmp_path):
        self.assert_every_cut_fails(bank_to_bytes(small_bank()), bank_from_bytes, load_bank,
                                    DataFormatError, tmp_path / "cut.fbnk")

    def test_hnet_cut_everywhere(self, tmp_path):
        self.assert_every_cut_fails(desk_hnet(), model_from_bytes, load_model,
                                    ModelFormatError, tmp_path / "cut.hnet")


def first_matrix_at(data):
    """Offset of the first matrix's u32 row count in an HNET file."""
    (n_kinds,) = struct.unpack_from("<I", data, 6)
    pos = 10
    for _ in range(n_kinds):
        (n,) = struct.unpack_from("<H", data, pos)
        pos += 2 + n + 4
    return pos


class TestHnetGuards:
    def test_huge_matrix_header_fails_before_allocating(self, tmp_path):
        data = bytearray(desk_hnet())
        struct.pack_into("<II", data, first_matrix_at(data), 16384, 16384)
        path = tmp_path / "huge.hnet"
        path.write_bytes(data)
        for load in (lambda: model_from_bytes(bytes(data)), lambda: load_model(path)):
            tracemalloc.start()
            try:
                with pytest.raises(ModelFormatError, match="truncated"):
                    load()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 24  # the matrix would be 2 GiB of float64

    def test_non_finite_weight_raises_at_load(self, tmp_path):
        data = bytearray(desk_hnet())
        at = first_matrix_at(data) + 8 + 4 * 5  # the sixth weight of the first layer
        data[at:at + 4] = np.float32(np.nan).tobytes()
        path = tmp_path / "nan.hnet"
        path.write_bytes(data)
        with pytest.raises(ValueError, match="must be finite"):
            model_from_bytes(bytes(data))
        with pytest.raises(ValueError, match="must be finite"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_is_a_data_error(self, tmp_path, capsys, value):
        data = bytearray(desk_hnet())
        at = first_matrix_at(data) + 8 + 4 * 5
        data[at:at + 4] = np.float32(value).tobytes()
        path = tmp_path / "bad.hnet"
        path.write_bytes(data)
        with pytest.raises(ModelFormatError, match="must be finite"):
            model_from_bytes(bytes(data))
        with pytest.raises(ModelFormatError, match="must be finite"):
            load_model(path)
        # `query` loads the model before it reads anything else
        assert main(["query", "--model", str(path), "--endpoint", "127.0.0.1:1",
                     "--mask", "fv", "--bank", f"fv={tmp_path / 'none.fbnk'}",
                     "--id", "a"]) == 3
        assert "data error: layer parameters must be finite" in capsys.readouterr().err

    def test_first_matrix_offset(self):
        data = desk_hnet()
        assert struct.unpack_from("<II", data, first_matrix_at(data)) == (1, 64)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_still_loads(self, tmp_path):
        data = desk_hnet()
        path = tmp_path / "pipe.hnet"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(data,))
        writer.start()
        try:
            assert model_to_bytes(load_model(path)) == data
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()


class TestNonFiniteBank:
    """Every vector in a bank is finite: a file holding a NaN or inf vector
    is a data error naming its id, and `entries[id] = v` refuses one as
    `add` does."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_load_names_the_first_bad_id(self, value):
        bank = small_bank()
        data = bytearray(bank_to_bytes(bank))
        for img_id in ("é", "bb"):
            at = data.index(bank.entries[img_id].tobytes())
            data[at + 4:at + 8] = np.float32(value).tobytes()
        with pytest.raises(DataFormatError, match="entry 'bb' contains non-finite values"):
            bank_from_bytes(bytes(data))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_set_refused_like_add(self, value):
        bank = small_bank()
        kept = bank.entries["bb"].copy()
        vec = np.array([0.0, value, 1.0])
        with pytest.raises(ValueError, match="entry 'bb' contains non-finite values"):
            bank.entries["bb"] = vec
        with pytest.raises(ValueError, match="entry 'x' contains non-finite values"):
            bank.add("x", vec)
        assert bank.entries["bb"].tobytes() == kept.tobytes() and "x" not in bank.entries


class TestNonFiniteBankEntries:
    """The constructor refuses a non-finite vector as `from_matrix` does,
    so no bank that `save_bank` writes is one `load_bank` refuses."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_constructor_names_the_first_bad_id(self, value):
        with pytest.raises(ValueError, match="entry 'b' contains non-finite values"):
            FeatureBank("k", 2, {"a": [0.0, 1.0], "b": [value, 0.0], "c": [value, value]})


WIDE = Profile(512, 128, 64, 64, 8)


@pytest.fixture(scope="module")
def wide_hnet(tmp_path_factory):
    """A net whose fv layer 1 (4096 x 512) spans 32 f4 chunks."""
    path = tmp_path_factory.mktemp("wide") / "wide.hnet"
    path.write_bytes(model_to_bytes(build_net([("fv", 4096), ("cnn", 1024)], WIDE, seed=4)))
    return path


def nan_at(data, index):
    """`data` with the weight at `index` of its first matrix made NaN."""
    data = bytearray(data)
    at = first_matrix_at(data) + 8 + 4 * index
    data[at:at + 4] = np.float32(np.nan).tobytes()
    return bytes(data)


class TestTrunkOnlyLoad:
    """`load_trunk` keeps the trunk of `load_model` bit for bit, holds no
    branch, and refuses every file `load_model` refuses."""

    def test_trunk_bytes_match_the_full_load(self, wide_hnet):
        full, trunk = load_model(wide_hnet), load_trunk(wide_hnet)
        assert 4096 * 512 > _CHUNK
        assert group_bytes(trunk, "trunk") == group_bytes(full, "trunk")
        assert trunk.kinds == [] and trunk.branches == []
        assert trunk.signature_dim == full.signature_dim == 128
        assert trunk.n_outputs == 8

    def test_branches_are_never_held(self, wide_hnet):
        tracemalloc.start()
        try:
            load_trunk(wide_hnet)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the branches are 21 MB of float64

    def test_cut_everywhere(self, tmp_path):
        data = desk_hnet()
        path = tmp_path / "cut.hnet"
        path.write_bytes(data)
        for cut in reversed(range(len(data))):
            os.truncate(path, cut)
            with pytest.raises(ModelFormatError):
                load_trunk(path)

    @pytest.mark.parametrize("index", [5, _CHUNK + 7, 4096 * 512 - 1])
    def test_non_finite_branch_weight(self, wide_hnet, tmp_path, index):
        path = tmp_path / "nan.hnet"
        path.write_bytes(nan_at(wide_hnet.read_bytes(), index))
        for load in (load_model, load_trunk):
            with pytest.raises(ModelFormatError, match="must be finite"):
                load(path)


def _dense(rows, cols):
    return DenseLayer(np.zeros((rows, cols)), np.zeros(cols))


# each link of kind dim -> layer 1 -> layer 2 -> trunk layer 3 -> layer 4
# -> out, broken by layers that are each valid, and the error that names it
UNCHAINED = {
    "kind dim": "kind 'fv' layer 1 takes 5 inputs, expected 6",
    "layer 1": "kind 'fv' layer 2 takes 65 inputs, expected 64",
    "branch widths": "kind 'cnn' layer 2 gives 31 outputs, kind 'fv' gives 32",
    "layer 2": "trunk layer 3 takes 32 inputs, expected 31",
    "layer 3": "trunk layer 4 takes 33 inputs, expected 32",
    "layer 4": "trunk out layer takes 31 inputs, expected 32",
}


def unchained_hnet(link):
    net = build_net([("fv", 5), ("cnn", 3)], PROFILES["desk"], seed=2)
    fv, cnn = net.branches
    if link == "kind dim":
        net.kinds[0] = FeatureKind(0, "fv", 6)
    elif link == "layer 1":
        fv.layer2 = _dense(65, 32)
    elif link == "branch widths":
        cnn.layer2 = _dense(64, 31)
    elif link == "layer 2":
        fv.layer2 = cnn.layer2 = _dense(64, 31)
    elif link == "layer 3":
        net.trunk.layer4 = _dense(33, 32)
    else:
        net.trunk.out = _dense(31, 8)
    return model_to_bytes(net)


class TestUnchainedLayers:
    """Every layer must fit the next; a file whose layers do not is a
    format error naming the kind or layer, whether its branches are kept
    or only checked."""

    @pytest.mark.parametrize("link", sorted(UNCHAINED))
    def test_refused(self, tmp_path, link):
        path = tmp_path / "bad.hnet"
        path.write_bytes(unchained_hnet(link))
        for load in (load_model, load_trunk):
            with pytest.raises(ModelFormatError, match=UNCHAINED[link]):
                load(path)


def two_chunk_hnet():
    """A desk net whose fv layer 1 (1200 x 64) spans two f4 chunks."""
    return model_to_bytes(build_net([("fv", 1200), ("cnn", 3)], PROFILES["desk"], seed=1))


# a corrupt copy of `two_chunk_hnet()`, and what `serve` must say of it
CORRUPT = {
    "nan in the first chunk": (lambda d: nan_at(d, 5), "layer parameters must be finite"),
    "nan past the first chunk": (lambda d: nan_at(d, _CHUNK + 7),
                                 "layer parameters must be finite"),
    "cut inside a branch": (lambda d: d[:first_matrix_at(d) + 8 + 4 * 100],
                            "truncated model file"),
    "trailing bytes": (lambda d: d + b"\0", "trailing bytes after model data"),
    "bad magic": (lambda d: b"HNEX" + d[4:], "bad model magic"),
}


class TestServeRefusesCorruptModels:
    """`sigfuse serve` reads every byte of the model, branches included,
    so a corrupt file is a data error (exit 3) before anything binds."""

    @pytest.fixture(autouse=True)
    def loaded(self, monkeypatch):
        """The nets `serve` loaded: one that loads fails the test with exit
        4 rather than serving forever, and the test process's BLAS threads
        are left alone."""
        nets = []

        def load_then_stop(*args):
            server = protocol.serve(*args)
            server.server_close()
            nets.append(server.net)
            raise RuntimeError("the model loaded")
        monkeypatch.setattr(cli, "serve", load_then_stop)
        monkeypatch.setattr(protocol, "_pin_blas_to_one_thread", lambda: "blas: left alone")
        return nets

    def serve_exit(self, data, tmp_path, capsys):
        path = tmp_path / "bad.hnet"
        path.write_bytes(data)
        code = main(["serve", "--model", str(path), "--port", "0"])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("corruption", list(CORRUPT))
    def test_corrupt_file(self, tmp_path, capsys, corruption):
        corrupt, message = CORRUPT[corruption]
        code, err = self.serve_exit(corrupt(two_chunk_hnet()), tmp_path, capsys)
        assert (code, err) == (3, f"data error: {message}\n")

    @pytest.mark.parametrize("link", sorted(UNCHAINED))
    def test_unchained_layers(self, tmp_path, capsys, link):
        code, err = self.serve_exit(unchained_hnet(link), tmp_path, capsys)
        assert (code, err) == (3, f"data error: {UNCHAINED[link]}\n")

    def test_sound_file_loads_only_the_trunk(self, tmp_path, capsys, loaded):
        data = two_chunk_hnet()
        assert 1200 * 64 > _CHUNK
        code, err = self.serve_exit(data, tmp_path, capsys)
        assert (code, err) == (4, "blas: left alone\nerror: RuntimeError: the model loaded\n")
        [net] = loaded
        assert net.branches == [] and net.signature_dim == 32
        assert group_bytes(net, "trunk") == group_bytes(model_from_bytes(data), "trunk")
