import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfuse.data import (_LBP_TABLE, _NEIGHBORS, LBP_BINS, AttributeTable,
                          DataFormatError, Dataset, FeatureBank, SyntheticSpec,
                          ViewSpec, bank_from_bytes, bank_to_bytes, format_attr_file,
                          format_split_file, lbp_dim, lbp_extract, load_bank,
                          parse_attr_file, parse_split_file, read_pgm,
                          rgb_to_gray, save_bank, split_dataset,
                          synth_generate, write_pgm)
from sigfuse.evaluate import average_precision, combination_sweep
from sigfuse.model import PROFILES
from sigfuse.nn import make_rng
from sigfuse.training import TrainConfig, train_regime

# the 40 attribute names of the public face-attribute list convention
CELEBA_NAMES = (
    "5_o_Clock_Shadow Arched_Eyebrows Attractive Bags_Under_Eyes Bald Bangs "
    "Big_Lips Big_Nose Black_Hair Blond_Hair Blurry Brown_Hair Bushy_Eyebrows "
    "Chubby Double_Chin Eyeglasses Goatee Gray_Hair Heavy_Makeup High_Cheekbones "
    "Male Mouth_Slightly_Open Mustache Narrow_Eyes No_Beard Oval_Face Pale_Skin "
    "Pointy_Nose Receding_Hairline Rosy_Cheeks Sideburns Smiling Straight_Hair "
    "Wavy_Hair Wearing_Earrings Wearing_Hat Wearing_Lipstick Wearing_Necklace "
    "Wearing_Necktie Young"
)


class TestParseAttrFile:
    def test_toy_file(self):
        text = "2\nBald Male Young\nimg1.jpg 1 -1 1\nimg2.jpg -1 -1 -1\n"
        table = parse_attr_file(text)
        assert table.names == ["Bald", "Male", "Young"]
        np.testing.assert_array_equal(table.rows["img1.jpg"], [1, 0, 1])
        np.testing.assert_array_equal(table.rows["img2.jpg"], [0, 0, 0])

    def test_short_row_names_line_number(self):
        text = "1\nA B C\nimg1.jpg 1 -1\n"
        with pytest.raises(DataFormatError, match="line 3"):
            parse_attr_file(text)

    def test_non_pm_one_value(self):
        with pytest.raises(DataFormatError, match="-1 or 1"):
            parse_attr_file("1\nA\nimg1.jpg 2\n")

    def test_count_mismatch(self):
        with pytest.raises(DataFormatError, match="declares 3"):
            parse_attr_file("3\nA\nimg1.jpg 1\n")

    def test_celeba_header_declares_40_names(self):
        text = f"1\n{CELEBA_NAMES}\nimg1.jpg " + " ".join(["1"] * 40) + "\n"
        table = parse_attr_file(text)
        assert table.n_attributes == 40

    def test_format_roundtrip(self):
        text = "2\nA B\nx 1 -1\ny -1 1\n"
        table = parse_attr_file(text)
        assert parse_attr_file(format_attr_file(table)).rows.keys() == table.rows.keys()


class TestSplitFiles:
    def test_parse_and_format(self):
        splits = parse_split_file("a 0\nb 1\nc 2\n")
        assert splits == {"a": "train", "b": "val", "c": "test"}
        assert parse_split_file(format_split_file(splits)) == splits

    def test_bad_line(self):
        with pytest.raises(DataFormatError, match="line 1"):
            parse_split_file("a 3\n")


class TestTextFileLineNumbers:
    """Attribute and partition file errors name the file's own line
    numbers, blank lines counted, and a repeated image id names both of
    its lines."""

    def test_bad_label_after_blank_lines(self):
        with pytest.raises(DataFormatError, match="^line 6: label must be -1 or 1, got '2'$"):
            parse_attr_file("2\nA B\n\nimg1 1 -1\n\nimg2 1 2\n")

    def test_count_line_after_blank_lines(self):
        with pytest.raises(DataFormatError, match="^line 3: expected an image count"):
            parse_attr_file("\n\nmany\nA\nimg1 1\n")

    def test_repeated_attribute_row(self):
        with pytest.raises(DataFormatError, match="^line 5: image id 'img1' repeats line 3$"):
            parse_attr_file("2\nA\nimg1 1\n\nimg1 -1\n")

    def test_repeated_split_line(self):
        with pytest.raises(DataFormatError, match="^line 4: image id 'a' repeats line 1$"):
            parse_split_file("a 0\nb 1\n\na 2\n")

    def test_blank_lines_keep_the_rows(self):
        table = parse_attr_file("\n2\n\nA B\nx 1 -1\n\ny -1 1\n\n")
        assert table.names == ["A", "B"] and list(table.rows) == ["x", "y"]
        assert parse_split_file("\nx 0\n\ny 2\n") == {"x": "train", "y": "test"}


class TestSyntheticViewNames:
    def test_a_view_named_twice_is_refused(self):
        with pytest.raises(ValueError, match="view 'fv' is named twice"):
            SyntheticSpec(4, (ViewSpec("fv", 4, 0.1), ViewSpec("fv", 6, 0.2)), 2, 8, 4, 4)


class TestSplitDataset:
    def _table(self, n=100):
        rows = {f"i{k}": np.array([k % 2], dtype=np.uint8) for k in range(n)}
        return AttributeTable(["A"], rows)

    def test_all_train(self):
        table = split_dataset(self._table(), (1.0, 0.0, 0.0), seed=0)
        assert len(table.ids_for("train")) == 100

    def test_deterministic_and_partitioning(self):
        a = split_dataset(self._table(), (0.6, 0.2, 0.2), seed=5)
        b = split_dataset(self._table(), (0.6, 0.2, 0.2), seed=5)
        assert a.splits == b.splits
        ids = set(a.ids_for("train")) | set(a.ids_for("val")) | set(a.ids_for("test"))
        assert len(ids) == 100
        assert len(a.ids_for("train")) == 60

    def test_explicit_split_honored(self):
        table = self._table(3)
        table.splits = parse_split_file("i0 0\ni1 1\ni2 2\n")
        assert table.ids_for("val") == ["i1"]

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split_dataset(self._table(), (0.5, 0.2, 0.2), seed=0)


class TestFeatureBank:
    def test_empty_roundtrip(self):
        bank = FeatureBank("fv", 8, {})
        again = bank_from_bytes(bank_to_bytes(bank))
        assert again.kind_name == "fv" and again.dim == 8 and not again.entries

    def test_fuzz_roundtrip_bit_exact(self, tmp_path):
        rng = make_rng(77)
        bank = FeatureBank("cnn", 12, {})
        for i in range(1000):
            bank.add(f"img_{i:05d}", rng.standard_normal(12).astype(np.float32))
        path = tmp_path / "b.fbnk"
        save_bank(bank, path)
        again = load_bank(path)
        assert bank_to_bytes(again) == path.read_bytes()
        for img_id, vec in bank.entries.items():
            assert again.entries[img_id].tobytes() == vec.tobytes()

    def test_corrupt_magic_rejected(self):
        data = bytearray(bank_to_bytes(FeatureBank("fv", 2, {"a": np.zeros(2, np.float32)})))
        data[0] ^= 0xFF
        with pytest.raises(DataFormatError, match="magic"):
            bank_from_bytes(bytes(data))

    def test_truncation_rejected(self):
        data = bank_to_bytes(FeatureBank("fv", 2, {"a": np.zeros(2, np.float32)}))
        with pytest.raises(DataFormatError, match="truncated"):
            bank_from_bytes(data[:-1])

    def test_non_utf8_id_rejected(self):
        data = bank_to_bytes(FeatureBank("fv", 2, {"a": np.zeros(2, np.float32)}))
        at = data.index(b"\x01\x00a") + 2
        data = data[:at] + b"\xff" + data[at + 1:]
        with pytest.raises(DataFormatError, match="not UTF-8"):
            bank_from_bytes(data)

    def test_duplicate_id_rejected(self):
        bank = FeatureBank("fv", 2, {"a": np.zeros(2, np.float32),
                                     "b": np.ones(2, np.float32)})
        data = bank_to_bytes(bank)
        record_b = b"\x01\x00b" + np.ones(2, "<f4").tobytes()
        assert data.endswith(record_b)
        data = data[:-len(record_b)] + b"\x01\x00a" + record_b[3:]
        with pytest.raises(DataFormatError, match="duplicate image id 'a'"):
            bank_from_bytes(data)

    @pytest.mark.parametrize("count", [2, 1 << 40, (1 << 64) - 1])
    def test_count_beyond_file_size_rejected(self, count):
        data = bytearray(bank_to_bytes(FeatureBank("fv", 2, {"a": np.zeros(2, np.float32)})))
        count_at = 4 + 2 + 2 + len("fv") + 4  # magic, version, kind name, dim
        assert int.from_bytes(data[count_at:count_at + 8], "little") == 1
        data[count_at:count_at + 8] = count.to_bytes(8, "little")
        with pytest.raises(DataFormatError, match=f"count of {count} records"):
            bank_from_bytes(bytes(data))

    def test_wrong_dim_entry_rejected(self):
        bank = FeatureBank("fv", 4, {})
        with pytest.raises(ValueError):
            bank.add("a", np.zeros(3))



class TestEmptyKindName:
    """No bank may be named '': no `--bank kind=path` flag could name it."""

    def test_constructor_refuses(self):
        with pytest.raises(ValueError, match="^feature kind names must be non-empty$"):
            FeatureBank("", 3)

    def test_from_matrix_refuses(self):
        with pytest.raises(ValueError, match="^feature kind names must be non-empty$"):
            FeatureBank.from_matrix("", np.zeros((1, 3), "<f4"), {"a": 0})

    def test_file_refused(self):
        data = bank_to_bytes(FeatureBank("fv", 2, {"a": np.zeros(2, np.float32)}))
        name_at = 4 + 2  # magic, version
        assert data[name_at:name_at + 4] == b"\x02\x00fv"
        data = data[:name_at] + b"\x00\x00" + data[name_at + 4:]
        with pytest.raises(DataFormatError, match="^feature kind names must be non-empty$"):
            bank_from_bytes(data)


class TestLbpExtract:
    def test_paper_scale_dimension(self):
        img = make_rng(1).integers(0, 256, size=(218, 178)).astype(np.uint8)
        desc = lbp_extract(img, 20)
        assert desc.shape == (4640,)
        assert lbp_dim(218, 178, 20) == 10 * 8 * 58

    def test_constant_image_one_hot_cells(self):
        img = np.full((60, 40), 77, dtype=np.uint8)
        desc = lbp_extract(img, 20).reshape(-1, LBP_BINS)
        for hist in desc:
            assert np.isclose(hist.sum(), 1.0)
            assert np.count_nonzero(hist) == 1

    def test_additive_shift_invariance(self):
        img = make_rng(2).integers(0, 240, size=(50, 50)).astype(np.uint8)
        a = lbp_extract(img, 10)
        b = lbp_extract(img + 10, 10)
        np.testing.assert_array_equal(a, b)

    def test_histograms_sum_to_one(self):
        img = make_rng(3).integers(0, 256, size=(45, 67)).astype(np.uint8)
        desc = lbp_extract(img, 11).reshape(-1, LBP_BINS)
        np.testing.assert_allclose(desc.sum(axis=1), 1.0)

    @given(st.integers(8, 64), st.integers(8, 64), st.integers(3, 20))
    @settings(max_examples=20, deadline=None)
    def test_dimension_formula(self, h, w, c):
        if h < c or w < c:
            return
        img = np.zeros((h, w), dtype=np.uint8)
        assert lbp_extract(img, c).shape == ((h // c) * (w // c) * LBP_BINS,)

    def test_too_small_image(self):
        with pytest.raises(ValueError, match="smaller"):
            lbp_extract(np.zeros((5, 5), dtype=np.uint8), 10)

    def test_rgb_converted_via_luma(self):
        rgb = make_rng(4).integers(0, 256, size=(30, 30, 3)).astype(np.uint8)
        np.testing.assert_array_equal(lbp_extract(rgb, 10),
                                      lbp_extract(rgb_to_gray(rgb), 10))

    @staticmethod
    def add_at_reference(img, cell_size):
        """The int32-code, `np.add.at` extractor lbp_extract replaced; it
        fixes the bytes."""
        img = np.asarray(img)
        if img.ndim == 3:
            img = rgb_to_gray(img)
        h, w = img.shape
        px = img.astype(np.int32)
        center = px[1:-1, 1:-1]
        codes = np.zeros_like(center)
        for bit, (dy, dx) in enumerate(_NEIGHBORS):
            neigh = px[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx]
            codes |= (neigh >= center).astype(np.int32) << bit
        bins = _LBP_TABLE[codes]
        rows, cols = h // cell_size, w // cell_size
        desc = np.zeros((rows, cols, LBP_BINS), dtype=np.float64)
        yy, xx = np.indices(bins.shape)
        cy, cx = (yy + 1) // cell_size, (xx + 1) // cell_size
        valid = (cy < rows) & (cx < cols)
        flat_idx = (cy[valid] * cols + cx[valid]) * LBP_BINS + bins[valid]
        np.add.at(desc.reshape(-1), flat_idx, 1.0)
        sums = desc.sum(axis=2, keepdims=True)
        np.divide(desc, sums, out=desc, where=sums > 0)
        return desc.reshape(-1)

    @staticmethod
    def image(rng, case, h, w):
        if case == "uint8":
            return rng.integers(0, 256, size=(h, w)).astype(np.uint8)
        if case == "ties":  # few levels, so many neighbors equal their center
            return rng.integers(0, 3, size=(h, w)).astype(np.uint8)
        if case == "float":  # int32 truncation changes these comparisons
            return rng.normal(size=(h, w)) * 3
        if case == "int64":
            return rng.integers(-1000, 1000, size=(h, w))
        return rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)

    @pytest.mark.parametrize("case", ["uint8", "ties", "float", "int64", "rgb"])
    def test_bytes_match_add_at_reference(self, case):
        rng = make_rng(6)
        for _ in range(40):
            h, w = (int(v) for v in rng.integers(3, 60, size=2))
            c = int(rng.integers(1, min(h, w) + 1))
            img = self.image(rng, case, h, w)
            assert lbp_extract(img, c).tobytes() == self.add_at_reference(img, c).tobytes()

    def test_tiny_images_match_add_at_reference(self):
        rng = make_rng(7)
        for h in range(1, 8):
            for w in range(1, 8):
                for c in range(1, min(h, w) + 1):
                    for case in ("uint8", "ties", "float"):
                        img = self.image(rng, case, h, w)
                        assert (lbp_extract(img, c).tobytes()
                                == self.add_at_reference(img, c).tobytes())


class TestLbpGolden:
    """lbp_extract's bytes, pinned: seeded 218x178 uint8 images at cell 20
    (the paper-scale shape), a float image whose partial cells are dropped,
    and an RGB image. Taken with numpy 2.4.6 on x86-64 (AVX-512 dispatch);
    the codes are integer compares and the histogram integer counts, so
    neither the BLAS kernel nor numpy's SIMD dispatch level enters these
    bytes (CI also runs this class with AVX-512 dispatch disabled)."""

    DIGEST = "154db044b4972fd583fc55a833d9406a7669427e13aa7803652abed8b6d7a701"

    def test_descriptor_bytes(self):
        rng = make_rng(218, 178)
        digest = hashlib.sha256()
        for _ in range(16):
            img = rng.integers(0, 256, size=(218, 178)).astype(np.uint8)
            digest.update(lbp_extract(img, 20).tobytes())
        digest.update(lbp_extract(rng.normal(size=(45, 67)) * 3, 11).tobytes())
        digest.update(lbp_extract(rng.integers(0, 256, size=(30, 31, 3)).astype(np.uint8), 7).tobytes())
        assert digest.hexdigest() == self.DIGEST

    def test_views_match_their_copies(self):
        """The kernel reads the image as one flat run; a strided, transposed
        or Fortran-ordered view gives the bytes of its C-ordered copy."""
        img = make_rng(5).integers(0, 256, size=(60, 50)).astype(np.uint8)
        for view in (img[::2, ::3], img.T, np.asfortranarray(img), np.asfortranarray(img * 1.5)):
            assert lbp_extract(view, 7).tobytes() == lbp_extract(view.copy(order="C"), 7).tobytes()


class TestLossyPixels:
    """A pixel that uint8 luma or int32 compares cannot hold is refused
    with a DataFormatError (a ValueError), with no numpy warning, instead
    of wrapping into a normal-looking descriptor."""

    @staticmethod
    def refused(img, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=match):
                lbp_extract(img, 5)

    def test_luma_above_255(self):
        img = np.full((10, 10, 3), 300)
        with pytest.raises(DataFormatError, match=r"luma must be in 0\.\.255"):
            rgb_to_gray(img)
        self.refused(img, "luma")

    def test_negative_or_nan_luma(self):
        self.refused(np.full((10, 10, 3), -1.0), "luma")
        img = np.zeros((10, 10, 3))
        img[3, 4, 1] = np.nan
        self.refused(img, "luma")

    @pytest.mark.parametrize("value", [2**32 + 4, 2**31, -2**31 - 1])
    def test_gray_int64_beyond_int32(self, value):
        img = np.zeros((10, 10), dtype=np.int64)
        img[4, 4] = value
        self.refused(img, "fit int32")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2.0**31])
    def test_gray_float_not_finite_or_beyond_int32(self, value):
        img = np.zeros((10, 10))
        img[4, 4] = value
        self.refused(img, "finite and fit int32")

    def test_other_dtypes(self):
        self.refused(np.zeros((10, 10), dtype=np.complex128), "real numbers")

    def test_int32_range_and_truncation_kept(self):
        """The extremes int32 holds, and floats that truncate into it, are
        compared as before: like the same image cast to int32."""
        rng = make_rng(9)
        img = rng.integers(-2**31, 2**31, size=(20, 20))
        img[0, :2] = -2**31, 2**31 - 1
        np.testing.assert_array_equal(lbp_extract(img, 5), lbp_extract(img.astype(np.int32), 5))
        floats = rng.normal(size=(20, 20)) * 3
        floats[0, :2] = -2.0**31 - 0.5, 2.0**31 - 0.5
        np.testing.assert_array_equal(lbp_extract(floats, 5),
                                      lbp_extract(floats.astype(np.int32), 5))

    def test_rgb_at_255_kept(self):
        img = np.full((10, 10, 3), 255, dtype=np.uint8)
        assert rgb_to_gray(img).max() == 255
        assert lbp_extract(img, 5).shape == (4 * LBP_BINS,)


class TestPgm:
    def test_roundtrip(self, tmp_path):
        img = make_rng(5).integers(0, 256, size=(7, 9)).astype(np.uint8)
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        np.testing.assert_array_equal(read_pgm(path), img)

    def test_comment_handling(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x01\x02\x03")
        np.testing.assert_array_equal(read_pgm(path), [[0, 1], [2, 3]])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n....")
        with pytest.raises(DataFormatError):
            read_pgm(path)


def small_spec(**kw):
    base = dict(latent_dim=8,
                views=(ViewSpec("a", 16, 0.0), ViewSpec("b", 12, 0.3)),
                n_attributes=4, n_train=600, n_val=100, n_test=300, seed=3)
    base.update(kw)
    return SyntheticSpec(**base)


class TestSynthGenerate:
    def test_deterministic(self):
        t1, b1 = synth_generate(small_spec())
        t2, b2 = synth_generate(small_spec())
        assert all(np.array_equal(t1.rows[i], t2.rows[i]) for i in t1.rows)
        for name in b1:
            assert bank_to_bytes(b1[name]) == bank_to_bytes(b2[name])

    def test_base_rates_near_half(self):
        spec = small_spec(n_train=10000, n_val=0, n_test=0, n_attributes=6)
        table, _ = synth_generate(spec)
        labels = np.stack(list(table.rows.values()))
        rates = labels.mean(axis=0)
        assert np.all(np.abs(rates - 0.5) < 0.05)

    def test_noiseless_views_linearly_separable(self):
        table, banks = synth_generate(small_spec())
        dataset = Dataset(table, banks)
        ids, xs, y = dataset.arrays("train")
        tids, txs, ty = dataset.arrays("test")
        x = xs["a"]
        xa = np.hstack([x, np.ones((len(x), 1))])
        txa = np.hstack([txs["a"], np.ones((len(txs["a"]), 1))])
        aps = []
        for j in range(y.shape[1]):
            w, *_ = np.linalg.lstsq(xa, 2 * y[:, j] - 1, rcond=None)
            aps.append(average_precision(txa @ w, ty[:, j]))
        assert np.mean(aps) > 0.99

    def test_banks_wrap_one_matrix_per_view(self):
        table, banks = synth_generate(small_spec(n_train=10, n_val=2, n_test=2))
        for view in small_spec().views:
            bank = banks[view.name]
            assert bank.matrix.shape == (14, view.dim) and bank.matrix.dtype == np.float32
            assert bank.rows == {img_id: row for row, img_id in enumerate(table.rows)}

    def test_split_sizes(self):
        table, _ = synth_generate(small_spec())
        assert len(table.ids_for("train")) == 600
        assert len(table.ids_for("val")) == 100
        assert len(table.ids_for("test")) == 300

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            small_spec(views=(ViewSpec("a", 16, -0.1),))


class TestDatasetArrays:
    def test_missing_bank_entry_reported(self):
        table, banks = synth_generate(small_spec(n_train=10, n_val=2, n_test=2))
        some_id = next(iter(banks["a"].entries))
        del banks["a"].entries[some_id]
        with pytest.raises(ValueError, match="missing features"):
            Dataset(table, banks).arrays("train")

    def test_unknown_kind(self):
        table, banks = synth_generate(small_spec(n_train=10, n_val=2, n_test=2))
        with pytest.raises(ValueError, match="no feature bank"):
            Dataset(table, banks).arrays("train", kinds=["zz"])


def stack_reference(dataset, split, kinds):
    """The per-call stacking `arrays` replaced; it fixes the bytes."""
    ids = sorted(i for i in dataset.table.rows if dataset.table.splits.get(i) == split)
    xs = {k: np.concatenate([dataset.banks[k].entries[i] for i in ids],
                            dtype=np.float64).reshape(len(ids), dataset.banks[k].dim)
          for k in kinds}
    y = np.concatenate([dataset.table.rows[i] for i in ids],
                       dtype=np.float64).reshape(len(ids), dataset.table.n_attributes)
    return ids, xs, y


def small_dataset(**kw):
    return Dataset(*synth_generate(small_spec(n_train=40, n_val=12, n_test=16, **kw)))


class TestDatasetSplitCache:
    @pytest.mark.parametrize("split", ["train", "val", "test"])
    @pytest.mark.parametrize("kinds", [None, ["a"], ["b"], ["b", "a"]])
    def test_bytes_match_reference(self, split, kinds):
        dataset = small_dataset()
        want_ids, want_xs, want_y = stack_reference(dataset, split, kinds or ["a", "b"])
        for _ in range(2):  # the stacking call, then a lookup
            ids, xs, y = dataset.arrays(split, kinds=kinds)
            assert ids == want_ids
            assert list(xs) == list(want_xs)
            for k, x in xs.items():
                assert x.dtype == np.float64 and x.tobytes() == want_xs[k].tobytes()
            assert y.dtype == np.float64 and y.tobytes() == want_y.tobytes()

    def test_second_call_shares_read_only_matrices(self):
        dataset = small_dataset()
        ids, xs, y = dataset.arrays("train")
        ids2, xs2, y2 = dataset.arrays("train", kinds=["b"])
        assert xs2["b"] is xs["b"] and y2 is y
        assert ids2 == ids and ids2 is not ids and xs2 is not xs
        ids2.append("extra")
        assert "extra" not in dataset.arrays("train")[0]
        for matrix in (xs["a"], xs["b"], y):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0

    def test_replaced_bank_is_restacked(self):
        dataset = small_dataset()
        _, xs, _ = dataset.arrays("test")
        old = dataset.banks["a"]
        dataset.banks["a"] = FeatureBank("a", old.dim,
                                         {i: v * 2 for i, v in old.entries.items()})
        _, xs2, _ = dataset.arrays("test")
        assert xs2["a"] is not xs["a"]
        assert np.array_equal(xs2["a"], xs["a"] * 2)
        assert xs2["b"] is xs["b"]

    def test_replaced_table_is_restacked(self):
        dataset = small_dataset()
        ids, xs, y = dataset.arrays("val")
        table = dataset.table
        dataset.table = AttributeTable(table.names, {i: 1 - r for i, r in table.rows.items()},
                                       dict(table.splits))
        ids2, xs2, y2 = dataset.arrays("val")
        assert ids2 == ids
        assert np.array_equal(y2, 1 - y)
        assert xs2["a"] is not xs["a"] and np.array_equal(xs2["a"], xs["a"])

    def test_deleted_bank_is_reported(self):
        dataset = small_dataset()
        dataset.arrays("train")
        del dataset.banks["b"]
        with pytest.raises(ValueError, match="no feature bank for kind 'b'"):
            dataset.arrays("train", kinds=["a", "b"])
        assert list(dataset.arrays("train", kinds=["a"])[1]) == ["a"]

    def test_in_place_edit_of_a_stacked_split_is_not_seen(self):
        """The documented rule: only replaced objects are re-stacked."""
        dataset = small_dataset()
        ids, xs, y = dataset.arrays("train")
        first = ids[0]
        dataset.table.rows[first] = 1 - dataset.table.rows[first]
        dataset.banks["a"].entries[first] = dataset.banks["a"].entries[first] + 5
        dataset.table.splits[first] = "test"
        ids2, xs2, y2 = dataset.arrays("train")
        assert ids2 == ids and xs2["a"] is xs["a"] and y2 is y
        # a split not yet stacked is built from the edited dicts
        assert first in dataset.arrays("test")[0]

    def test_training_and_sweep_scan_each_split_once(self, monkeypatch):
        dataset = Dataset(*synth_generate(small_spec(
            views=(ViewSpec("a", 6, 0.1), ViewSpec("b", 5, 0.3)),
            n_train=64, n_val=24, n_test=24)))
        scans = []
        ids_for = AttributeTable.ids_for

        def counting_ids_for(table, split):
            scans.append(split)
            return ids_for(table, split)

        monkeypatch.setattr(AttributeTable, "ids_for", counting_ids_for)
        result = train_regime("allfeatinit", dataset, TrainConfig(epochs=2, seed=1),
                              PROFILES["desk"])
        combination_sweep(result.net, dataset, "test")
        combination_sweep(result.net, dataset, "val")
        assert sorted(scans) == ["test", "train", "val"]


class TestPgmHeaderErrors:
    """Each malformed P5 header or short pixel block is a DataFormatError
    that says what is wrong, never a bare ValueError."""

    @pytest.mark.parametrize("data, named", [
        (b"P5\nabc 10\n255\n" + bytes(30), "PGM header token b'abc' is not a decimal integer"),
        (b"P5\n2 -2\n255\n" + bytes(4), "PGM header token b'-2' is not a decimal integer"),
        (b"P5\n2 2 0x1\n" + bytes(4), "PGM header token b'0x1' is not a decimal integer"),
        (b"P5\n2 2\n", "truncated PGM header"),
        (b"P5 # a comment to the end", "truncated PGM header"),
        (b"P5\n2 2\n0\n" + bytes(4), "unsupported PGM maxval 0"),
        (b"P5\n2 2\n65535\n" + bytes(8), "unsupported PGM maxval 65535"),
        (b"P5\n2 2\n255\n" + bytes(3), "PGM pixel data truncated"),
    ], ids=["word", "negative", "hex", "no-maxval", "comment-to-end", "maxval-0",
            "maxval-65535", "short-pixels"])
    def test_named_data_error(self, tmp_path, data, named):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(DataFormatError) as exc:
            read_pgm(path)
        assert str(exc.value) == named


class TestInputRefusals:
    """Each bad argument to the table, split, LBP and synthetic-data
    helpers is refused with a message that names it."""

    def test_unknown_split_name(self):
        table = AttributeTable(["a"], {"x": np.ones(1, dtype=np.uint8)}, {"x": "train"})
        with pytest.raises(ValueError, match=r"^unknown split 'dev'$"):
            table.ids_for("dev")

    @pytest.mark.parametrize("text", ["", "3\n", "\n\n3\n\n"])
    def test_attribute_file_needs_two_lines(self, text):
        with pytest.raises(DataFormatError, match=r"^attribute file needs a count "
                                                  r"line and a name line$"):
            parse_attr_file(text)

    def test_split_that_comes_out_empty(self):
        table = AttributeTable(["a"], {f"x{i}": np.ones(1, dtype=np.uint8)
                                       for i in range(3)})
        with pytest.raises(ValueError, match=r"^split 'val' came out empty$"):
            split_dataset(table, (0.9, 0.05, 0.05), seed=0)

    @pytest.mark.parametrize("shape", [(12,), (2, 6, 6, 1)])
    def test_lbp_image_not_2d(self, shape):
        with pytest.raises(ValueError, match=r"^expected a 2-D grayscale image, got "
                                             rf"shape \({', '.join(map(str, shape))},?\)$"):
            lbp_extract(np.zeros(shape), 3)

    @pytest.mark.parametrize("cell", [0, -2])
    def test_lbp_cell_size_below_one(self, cell):
        with pytest.raises(ValueError, match=rf"^cell size must be positive, got {cell}$"):
            lbp_extract(np.zeros((6, 6)), cell)

    @pytest.mark.parametrize("field", ["latent_dim", "n_attributes"])
    def test_synthetic_latent_dim_and_attributes_positive(self, field):
        with pytest.raises(ValueError, match=r"^latent dim and attribute count "
                                             r"must be positive$"):
            small_spec(**{field: 0})


class TestDatasetRows:
    """`Dataset.rows` is the one id -> bank row lookup: `arrays` stacks
    through it and training gathers through it, so both see the same rows."""

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_rows_gather_the_stacked_bytes(self, split):
        dataset = small_dataset()
        for kind in ("a", "b"):
            rows = dataset.rows(split, kind)
            assert rows.dtype == np.intp and not rows.flags.writeable
            assert dataset.rows(split, kind) is rows
            wide = dataset.banks[kind].matrix.take(rows, axis=0).astype(np.float64)
            assert wide.tobytes() == dataset.arrays(split, kinds=[kind])[1][kind].tobytes()

    def test_missing_id_is_a_data_error(self):
        dataset = small_dataset()
        dropped = sorted(dataset.table.ids_for("val"))[3]
        del dataset.banks["b"].entries[dropped]
        with pytest.raises(DataFormatError,
                           match=f"bank 'b' missing features for 1 images "
                                 f"\\(first: '{dropped}'\\)"):
            dataset.rows("val", "b")
        assert len(dataset.rows("train", "b")) == 40

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="no feature bank for kind 'zz'"):
            small_dataset().rows("train", "zz")

    def test_a_grown_bank_gets_a_new_row_index(self):
        """A write that grows the bank moves its rows into a new matrix,
        so a row index into the old one would name other vectors."""
        dataset = small_dataset()
        bank = dataset.banks["a"]
        old = dataset.rows("train", "a")
        first = dataset.arrays("train")[0][0]
        bank.entries[first] = bank.entries[first] + 5  # a full matrix grows
        rows = dataset.rows("train", "a")
        assert rows is not old
        want = np.stack([bank.entries[i] for i in dataset.arrays("train")[0]])
        assert bank.matrix.take(rows, axis=0).tobytes() == want.tobytes()

    def test_replaced_bank_gets_a_new_row_index(self):
        dataset = small_dataset()
        old = dataset.rows("test", "a")
        bank = dataset.banks["a"]
        dataset.banks["a"] = FeatureBank("a", bank.dim,
                                         dict(reversed(list(bank.entries.items()))))
        rows = dataset.rows("test", "a")
        assert rows is not old
        assert np.array_equal(dataset.banks["a"].matrix.take(rows, axis=0),
                              bank.matrix.take(old, axis=0))


def _replace_table(dataset):
    table = dataset.table
    dataset.table = AttributeTable(table.names, dict(table.rows), dict(table.splits))


def _replace_bank(dataset):
    bank = dataset.banks["a"]
    dataset.banks["a"] = FeatureBank.from_matrix("a", bank.matrix.copy(), dict(bank.rows))


def _grow_bank(dataset):
    bank = dataset.banks["a"]
    matrix, first = bank.matrix, next(iter(bank.rows))
    bank.entries[first] = bank.entries[first]  # a full matrix grows into a new one
    assert bank.matrix is not matrix


VIEWS = {
    "labels": lambda dataset: dataset.arrays("train", kinds=())[2],
    "row_index": lambda dataset: dataset.rows("train", "a"),
    "float64_stack": lambda dataset: dataset.arrays("train", kinds=["a"])[1]["a"],
}


class TestOneRebuildRule:
    """A view is built again exactly when an object it was built from is
    replaced: labels from the table; a kind's float64 stack from the table
    and its bank; its row index also from the bank's matrix."""

    @pytest.mark.parametrize("replace, view, rebuilt", [
        (_replace_table, "labels", True),
        (_replace_table, "row_index", True),
        (_replace_table, "float64_stack", True),
        (_replace_bank, "labels", False),
        (_replace_bank, "row_index", True),
        (_replace_bank, "float64_stack", True),
        (_grow_bank, "labels", False),
        (_grow_bank, "row_index", True),
        (_grow_bank, "float64_stack", False),
    ], ids=lambda v: getattr(v, "__name__", str(v)).strip("_"))
    def test_kept_or_rebuilt(self, replace, view, rebuilt):
        dataset = small_dataset()
        before = VIEWS[view](dataset)
        replace(dataset)
        after = VIEWS[view](dataset)
        assert (after is not before) == rebuilt
        assert VIEWS[view](dataset) is after and not after.flags.writeable
        fresh = VIEWS[view](Dataset(dataset.table, dataset.banks))
        assert after.dtype == fresh.dtype and after.tobytes() == fresh.tobytes()

    def test_other_kinds_and_splits_are_kept(self):
        dataset = small_dataset()
        views = [dataset.rows("val", "a"), dataset.rows("train", "b"),
                 dataset.arrays("train", kinds=["b"])[1]["b"]]
        _replace_bank(dataset)
        dataset.rows("train", "a")
        dataset.arrays("train", kinds=["a"])
        assert dataset.rows("train", "b") is views[1]
        assert dataset.arrays("train", kinds=["b"])[1]["b"] is views[2]
        assert dataset.rows("val", "a") is not views[0]  # asked for again, so rebuilt


class TestSaveBankRefusal:
    """`save_bank` encodes before it opens the file, so a bank the encoder
    refuses neither empties an old file nor creates a new one."""

    def test_old_file_is_untouched(self, tmp_path):
        path = tmp_path / "k.fbnk"
        save_bank(FeatureBank("fv", 2, {"a": [1.0, 2.0]}), path)
        good = path.read_bytes()
        assert len(good) == 33
        with pytest.raises(ValueError, match="65536 UTF-8 bytes"):
            save_bank(FeatureBank("fv", 2, {"y" * 65536: [1.0, 2.0]}), path)
        assert path.read_bytes() == good

    def test_no_new_file(self, tmp_path):
        with pytest.raises(ValueError, match="65536 UTF-8 bytes"):
            save_bank(FeatureBank("fv", 2, {"y" * 65536: [1.0, 2.0]}), tmp_path / "k.fbnk")
        assert list(tmp_path.iterdir()) == []
