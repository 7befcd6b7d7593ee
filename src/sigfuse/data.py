"""Dataset ingestion and feature extraction.

Covers the CelebA-style attribute list format, the FBNK binary feature
bank container, a uniform-LBP extractor, a P5 PGM reader for fixtures,
and the seeded synthetic multi-view generator used for desk-scale
experiments.
"""

from __future__ import annotations

import io
import struct
from collections.abc import MutableMapping
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .binfmt import Reader, write_header, write_str
from .nn import make_rng

BANK_MAGIC = b"FBNK"
BANK_VERSION = 1

# rng stream tags for synthetic generation
_TAG_LATENT = 10
_TAG_ATTR_PROJ = 11
_TAG_MIXING = 12
_TAG_NOISE = 13
_TAG_SPLIT = 14

SPLIT_NAMES = ("train", "val", "test")


class DataFormatError(ValueError):
    """Raised on malformed attribute, bank or image files, and on a split
    with no examples."""


# ---------------------------------------------------------------------------
# attribute tables
# ---------------------------------------------------------------------------

@dataclass
class AttributeTable:
    names: list[str]
    rows: dict[str, np.ndarray]               # image id -> uint8 labels, length L
    splits: dict[str, str] = field(default_factory=dict)  # image id -> split name

    @property
    def n_attributes(self) -> int:
        return len(self.names)

    def ids_for(self, split: str) -> list[str]:
        if split not in SPLIT_NAMES:
            raise ValueError(f"unknown split {split!r}")
        return [i for i in self.rows if self.splits.get(i) == split]


def parse_attr_file(text: str) -> AttributeTable:
    """Parse the CelebA attribute list convention.

    Line 1: image count; line 2: the L attribute names; then one row per
    image: id followed by L values in {-1, 1}, mapped to {0, 1}.
    """
    lines = [l for l in text.splitlines() if l.strip()]
    if len(lines) < 2:
        raise DataFormatError("attribute file needs a count line and a name line")
    try:
        count = int(lines[0].split()[0])
    except ValueError:
        raise DataFormatError(f"line 1: expected an image count, got {lines[0]!r}")
    names = lines[1].split()
    if not names:
        raise DataFormatError("line 2: no attribute names")
    rows = {}
    for lineno, line in enumerate(lines[2:], start=3):
        tokens = line.split()
        if len(tokens) != len(names) + 1:
            raise DataFormatError(f"line {lineno}: expected id plus {len(names)} values, "
                                  f"got {len(tokens)} tokens")
        img_id = tokens[0]
        vals = np.empty(len(names), dtype=np.uint8)
        for j, tok in enumerate(tokens[1:]):
            if tok == "1":
                vals[j] = 1
            elif tok == "-1":
                vals[j] = 0
            else:
                raise DataFormatError(f"line {lineno}: label must be -1 or 1, got {tok!r}")
        rows[img_id] = vals
    if len(rows) != count:
        raise DataFormatError(f"header declares {count} images but file has {len(rows)} rows")
    return AttributeTable(names, rows)


def format_attr_file(table: AttributeTable) -> str:
    lines = [str(len(table.rows)), " ".join(table.names)]
    for img_id, vals in table.rows.items():
        lines.append(img_id + " " + " ".join("1" if v else "-1" for v in vals))
    return "\n".join(lines) + "\n"


def parse_split_file(text: str) -> dict[str, str]:
    """CelebA partition convention: one `id 0|1|2` pair per line."""
    splits = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 2 or tokens[1] not in ("0", "1", "2"):
            raise DataFormatError(f"line {lineno}: expected 'id 0|1|2', got {line!r}")
        splits[tokens[0]] = SPLIT_NAMES[int(tokens[1])]
    return splits


def format_split_file(splits: dict[str, str]) -> str:
    idx = {name: i for i, name in enumerate(SPLIT_NAMES)}
    return "\n".join(f"{img_id} {idx[s]}" for img_id, s in splits.items()) + "\n"


def split_dataset(table: AttributeTable, ratios: tuple[float, float, float],
                  seed: int) -> AttributeTable:
    """Assign a seed-deterministic disjoint train/val/test partition."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"split ratios must sum to 1, got {ratios}")
    ids = sorted(table.rows)
    perm = make_rng(seed, _TAG_SPLIT).permutation(len(ids))
    n = len(ids)
    n_train = int(round(ratios[0] * n))
    n_val = int(round(ratios[1] * n))
    for pos, idx in enumerate(perm):
        if pos < n_train:
            table.splits[ids[idx]] = "train"
        elif pos < n_train + n_val:
            table.splits[ids[idx]] = "val"
        else:
            table.splits[ids[idx]] = "test"
    for split in SPLIT_NAMES:
        if ratios[SPLIT_NAMES.index(split)] > 0 and not table.ids_for(split):
            raise ValueError(f"split {split!r} came out empty")
    return table


# ---------------------------------------------------------------------------
# feature banks (FBNK binary container)
# ---------------------------------------------------------------------------

class FeatureBank:
    """One feature kind's vectors: a `<f4` matrix and an insertion-ordered
    id -> row map into it.

    `entries` is a live view of the two with the semantics of a dict of
    float32 vectors: insertion order, `in`, `len`, `keys()`, `items()`,
    `del`, and `entries[id] = v`, which keeps an existing id's position and
    writes a fresh row, so a vector fetched before keeps its values. The
    rows of deleted or overwritten ids, and spare rows kept for `add`, are
    in the matrix but in no map entry until the matrix next grows.
    """

    def __init__(self, kind_name: str, dim: int, entries=None):
        values = list(entries.values()) if entries else []
        matrix = np.array(values, dtype="<f4") if values else np.empty((0, dim), "<f4")
        if matrix.shape != (len(values), dim):
            raise ValueError(f"bank entries of shape {matrix.shape[1:]}, bank dim is {dim}")
        self.kind_name, self.dim = kind_name, dim
        self._adopt(matrix, dict(zip(entries or (), range(len(values)))))

    @classmethod
    def from_matrix(cls, kind_name: str, matrix: np.ndarray,
                    rows: dict[str, int]) -> FeatureBank:
        """A bank over a (count, dim) `<f4` matrix as it is, whose row
        `rows[id]` is that id's vector; every value must be finite."""
        bank = cls(kind_name, matrix.shape[1])
        bank._adopt(matrix, rows)
        return bank

    def _adopt(self, matrix: np.ndarray, rows: dict[str, int]):
        finite = np.isfinite(matrix)
        if not finite.all():  # one flat pass; a per-row `all` is ~10x slower on narrow banks
            bad = next(img_id for img_id, row in rows.items() if not finite[row].all())
            raise ValueError(f"entry {bad!r} contains non-finite values")
        self.matrix, self.rows = matrix, rows
        self._free = len(matrix)  # the first row no id has used

    @property
    def entries(self) -> MutableMapping:
        # a fresh view each time: a view kept on the bank would make a
        # reference cycle, and banks would wait for the cyclic collector
        return _Entries(self)

    def add(self, img_id: str, values: np.ndarray):
        values = np.asarray(values, dtype=np.float32)
        if values.shape != (self.dim,):
            raise ValueError(f"entry {img_id!r} has shape {values.shape}, "
                             f"bank dim is {self.dim}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"entry {img_id!r} contains non-finite values")
        if self._free == len(self.matrix):
            self._grow()
        self.matrix[self._free] = values
        self.rows[img_id] = self._free
        self._free += 1

    def _grow(self):
        """Move the mapped rows, in id order, into a new matrix with room
        for as many again, so that n puts copy O(n) rows."""
        live = np.fromiter(self.rows.values(), dtype=np.intp, count=len(self.rows))
        matrix = np.empty((max(2 * len(live), 16), self.dim), dtype="<f4")
        np.take(self.matrix, live, axis=0, out=matrix[:len(live)])
        for row, img_id in enumerate(self.rows):
            self.rows[img_id] = row
        self.matrix, self._free = matrix, len(live)


class _Entries(MutableMapping):
    """`FeatureBank.entries`: image id -> float32 vector of length dim."""

    __slots__ = ("_bank",)

    def __init__(self, bank: FeatureBank):
        self._bank = bank

    def __getitem__(self, img_id: str) -> np.ndarray:
        return self._bank.matrix[self._bank.rows[img_id]]

    def __setitem__(self, img_id: str, values):
        self._bank.add(img_id, values)

    def __delitem__(self, img_id: str):
        del self._bank.rows[img_id]

    def __contains__(self, img_id) -> bool:
        return img_id in self._bank.rows

    def __iter__(self):
        return iter(self._bank.rows)

    def __len__(self) -> int:
        return len(self._bank.rows)

    def keys(self):
        return self._bank.rows.keys()


def bank_to_bytes(bank: FeatureBank) -> bytes:
    """Encode an FBNK v1 file: the header, then for each entry its u16 id
    length, the UTF-8 id and the vector as `dim` little-endian float32s.
    Lengths, ids and vectors are each placed by one array operation."""
    head = io.BytesIO()
    write_header(head, BANK_MAGIC, BANK_VERSION)
    write_str(head, bank.kind_name)
    count, step = len(bank.rows), 4 * bank.dim
    head.write(struct.pack("<IQ", bank.dim, count))
    ids = [img_id.encode("utf-8") for img_id in bank.rows]
    lens = np.fromiter(map(len, ids), dtype=np.int64, count=count)
    if count and lens.max() > 0xFFFF:
        raise ValueError(f"an image id of {lens.max()} UTF-8 bytes exceeds the u16 length")
    header = head.getvalue()
    sizes = 2 + lens + step
    starts = np.cumsum(sizes) - sizes + len(header)
    out = np.empty(len(header) + int(sizes.sum()), dtype=np.uint8)
    out[:len(header)] = np.frombuffer(header, dtype=np.uint8)
    out[starts] = lens & 0xFF
    out[starts + 1] = lens >> 8
    # byte j of the joined ids lands at its record's id start plus j's
    # offset into that record's id
    id_starts = np.cumsum(lens) - lens
    out[np.arange(int(lens.sum())) + np.repeat(starts + 2 - id_starts, lens)] = \
        np.frombuffer(b"".join(ids), dtype=np.uint8)
    if count:
        vectors = bank.matrix[np.fromiter(bank.rows.values(), dtype=np.intp, count=count)]
        sliding_window_view(out, step, writeable=True)[starts + 2 + lens] = \
            vectors.view(np.uint8).reshape(count, step)
    return out.tobytes()


def bank_from_bytes(data: bytes) -> FeatureBank:
    """Parse an FBNK v1 file: one pass over the records reads the id
    lengths and ids, then one gather lifts every vector into the bank's
    (count, dim) float32 matrix, row i for the i-th record."""
    rd = Reader(io.BytesIO(data), DataFormatError, "bank")
    rd.header(BANK_MAGIC, BANK_VERSION)
    kind_name = rd.read_str()
    dim, count = rd.unpack("<IQ")
    if dim > 1 << 24:
        raise DataFormatError(f"bank dim {dim} exceeds size limit")
    # a record is at least a u16 id length and its vector; check before the loop
    least, remaining = count * (2 + 4 * dim), rd.remaining()
    if least > remaining:
        raise DataFormatError(f"truncated bank file: a count of {count} records of "
                              f"dim {dim} needs at least {least} bytes, {remaining} remain")
    pos, size, step = rd.tell(), len(data), 4 * dim
    ids, offsets = [], []
    add_id, add_offset = ids.append, offsets.append
    try:
        for _ in range(count):
            start = pos + 2
            end = start + (data[pos] | data[pos + 1] << 8)
            if end > size:
                raise rd.truncated()
            add_id(data[start:end].decode("utf-8"))
            add_offset(end)
            pos = end + step
    except IndexError:
        raise rd.truncated() from None
    except UnicodeDecodeError as exc:
        raise rd.not_utf8(exc) from None
    if pos > size:
        raise rd.truncated()
    if pos < size:
        raise DataFormatError("trailing bytes after bank data")
    records = np.frombuffer(data, dtype=np.uint8)
    vectors = (sliding_window_view(records, step)[offsets] if count
               else np.empty((0, step), dtype=np.uint8)).view("<f4")
    rows = dict(zip(ids, range(count)))
    if len(rows) != count:
        seen = set()
        for img_id in ids:
            if img_id in seen:
                raise DataFormatError(f"duplicate image id {img_id!r} in bank")
            seen.add(img_id)
    try:
        return FeatureBank.from_matrix(kind_name, vectors, rows)
    except ValueError as exc:  # a non-finite vector
        raise DataFormatError(str(exc)) from None


def save_bank(bank: FeatureBank, path):
    with open(path, "wb") as fh:
        fh.write(bank_to_bytes(bank))


def load_bank(path) -> FeatureBank:
    with open(path, "rb") as fh:
        return bank_from_bytes(fh.read())


# ---------------------------------------------------------------------------
# uniform LBP extraction
# ---------------------------------------------------------------------------

def _uniform_lbp_table() -> np.ndarray:
    """Map each 8-bit code to one of 58 bins.

    Bins 0..55: the 56 uniform non-constant patterns; bin 56: the two
    constant patterns; bin 57: everything non-uniform.
    """
    table = np.full(256, 57, dtype=np.int32)
    nxt = 0
    for code in range(256):
        bits = [(code >> i) & 1 for i in range(8)]
        transitions = sum(bits[i] != bits[(i + 1) % 8] for i in range(8))
        if transitions == 0:
            table[code] = 56
        elif transitions == 2:
            table[code] = nxt
            nxt += 1
    assert nxt == 56
    return table


_LBP_TABLE = _uniform_lbp_table()
LBP_BINS = 58

# 8 neighbors at radius 1, clockwise from the east pixel: (dy, dx)
_NEIGHBORS = [(0, 1), (1, 1), (1, 0), (1, -1), (0, -1), (-1, -1), (-1, 0), (-1, 1)]


def lbp_dim(height: int, width: int, cell_size: int) -> int:
    return (height // cell_size) * (width // cell_size) * LBP_BINS


def lbp_extract(img: np.ndarray, cell_size: int) -> np.ndarray:
    """Uniform LBP descriptor over non-overlapping cells.

    Codes use the pixel-aligned 3x3 neighborhood (neighbor >= center, no
    interpolation); border pixels without a full neighborhood are skipped.
    Cells tile from the top-left, trailing partial cells are dropped, and
    each cell's 58-bin histogram is L1-normalized before concatenation
    (row-major over cells).
    """
    img = np.asarray(img)
    if img.ndim == 3:
        img = rgb_to_gray(img)
    if img.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {img.shape}")
    h, w = img.shape
    if cell_size < 1:
        raise ValueError(f"cell size must be positive, got {cell_size}")
    if h < cell_size or w < cell_size:
        raise ValueError(f"image {h}x{w} smaller than one {cell_size}-pixel cell")

    # uint8 pixels compare as they are; other dtypes go through int32, and
    # additive shifts that avoid clipping cannot change these comparisons
    px = img if img.dtype == np.uint8 else img.astype(np.int32)
    center = px[1:-1, 1:-1]
    codes = np.zeros(center.shape, dtype=np.uint8)
    plane = np.empty_like(codes)
    for bit, (dy, dx) in enumerate(_NEIGHBORS):
        np.greater_equal(px[1 + dy:h - 1 + dy, 1 + dx:w - 1 + dx], center, out=plane)
        plane <<= bit
        codes |= plane
    bins = np.take(_LBP_TABLE, codes)

    # bins[i, j] describes original pixel (i + 1, j + 1); its histogram key
    # is its bin plus its cell's row and column offsets, and a pixel of a
    # dropped partial cell gets an offset that puts its key past the end
    rows, cols = h // cell_size, w // cell_size
    size = rows * cols * LBP_BINS
    cy = np.arange(1, h - 1) // cell_size
    cx = np.arange(1, w - 1) // cell_size
    row_key = np.where(cy < rows, cy * (cols * LBP_BINS), size)
    col_key = np.where(cx < cols, cx * LBP_BINS, size)
    keys = bins + row_key[:, None] + col_key
    desc = np.bincount(keys.reshape(-1), minlength=size)[:size].astype(np.float64)
    desc = desc.reshape(rows * cols, LBP_BINS)
    sums = desc.sum(axis=1, keepdims=True)
    np.divide(desc, sums, out=desc, where=sums > 0)
    return desc.reshape(-1)


def rgb_to_gray(img: np.ndarray) -> np.ndarray:
    """Integer luma: round(0.299 R + 0.587 G + 0.114 B)."""
    img = np.asarray(img, dtype=np.float64)
    gray = 0.299 * img[..., 0] + 0.587 * img[..., 1] + 0.114 * img[..., 2]
    return np.rint(gray).astype(np.uint8)


# ---------------------------------------------------------------------------
# PGM (P5) fixtures
# ---------------------------------------------------------------------------

def read_pgm(path) -> np.ndarray:
    """Minimal binary PGM reader: P5, maxval <= 255, '#' comments allowed."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataFormatError("truncated PGM header")
        tokens.append(data[start:pos])
    if tokens[0] != b"P5":
        raise DataFormatError(f"not a binary PGM file (magic {tokens[0]!r})")
    width, height, maxval = (int(t) for t in tokens[1:])
    if not 0 < maxval <= 255:
        raise DataFormatError(f"unsupported PGM maxval {maxval}")
    pos += 1  # the single whitespace byte after maxval
    pixels = data[pos:pos + width * height]
    if len(pixels) != width * height:
        raise DataFormatError("PGM pixel data truncated")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)


def write_pgm(path, img: np.ndarray):
    img = np.asarray(img, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(img.tobytes())


# ---------------------------------------------------------------------------
# synthetic multi-view generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ViewSpec:
    name: str
    dim: int
    noise: float


@dataclass(frozen=True)
class SyntheticSpec:
    latent_dim: int
    views: tuple[ViewSpec, ...]
    n_attributes: int
    n_train: int
    n_val: int
    n_test: int
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.latent_dim <= 0 or self.n_attributes <= 0:
            raise ValueError("latent dim and attribute count must be positive")
        counts = (self.n_train, self.n_val, self.n_test)
        if min(counts) < 0 or sum(counts) == 0:
            raise ValueError(f"split counts must be >= 0 with a positive total, got {counts}")
        for v in self.views:
            if v.dim <= 0:
                raise ValueError(f"view {v.name!r} dim must be positive")
            if not (np.isfinite(v.noise) and v.noise >= 0):
                raise ValueError(f"view {v.name!r} noise must be finite and >= 0")


def synth_generate(spec: SyntheticSpec) -> tuple[AttributeTable, dict[str, FeatureBank]]:
    """Latent z ~ N(0, I); labels = 1[z . p_a > 0]; view_k = z M_k + sigma_k eps.

    A pure function of the spec: identical specs yield identical tables
    and banks.
    """
    n = spec.n_train + spec.n_val + spec.n_test
    z = make_rng(spec.seed, _TAG_LATENT).standard_normal((n, spec.latent_dim))
    proj = make_rng(spec.seed, _TAG_ATTR_PROJ).standard_normal(
        (spec.latent_dim, spec.n_attributes))
    labels = (z @ proj > 0).astype(np.uint8)

    ids = [f"synth_{i:06d}" for i in range(n)]
    names = [f"attr_{j:02d}" for j in range(spec.n_attributes)]
    table = AttributeTable(names, dict(zip(ids, labels)))
    table.splits.update(zip(ids, ["train"] * spec.n_train + ["val"] * spec.n_val
                            + ["test"] * spec.n_test))

    banks = {}
    for vi, view in enumerate(spec.views):
        mixing = make_rng(spec.seed, _TAG_MIXING, vi).standard_normal(
            (spec.latent_dim, view.dim)) / np.sqrt(spec.latent_dim)
        obs = z @ mixing
        with np.errstate(over="ignore"):  # an overflow is an inf, refused below
            if view.noise > 0:
                obs = obs + view.noise * make_rng(spec.seed, _TAG_NOISE, vi).standard_normal(
                    obs.shape)
            obs = obs.astype(np.float32)
        try:
            banks[view.name] = FeatureBank.from_matrix(view.name, obs, dict(zip(ids, range(n))))
        except ValueError:  # z @ mixing is small: only the noise can overflow
            raise ValueError(f"view {view.name!r} noise {view.noise:g} takes values "
                             f"beyond float32 range") from None
    return table, banks


# ---------------------------------------------------------------------------
# assembled dataset views for training and evaluation
# ---------------------------------------------------------------------------

@dataclass
class _StackedSplit:
    """One split's sorted ids, labels and the feature matrices stacked so
    far, each with the object it was stacked from."""

    table: AttributeTable
    ids: tuple[str, ...]
    y: np.ndarray
    xs: dict[str, tuple[FeatureBank, np.ndarray]] = field(default_factory=dict)


@dataclass
class Dataset:
    """An attribute table and one feature bank per kind.

    `arrays` stacks each split once: the first request for a split builds
    its sorted ids and label matrix, the first request for a kind in it
    builds that kind's feature matrix, and every later call returns those
    same read-only float64 arrays. A split is stacked again when
    `dataset.table` is replaced by another object, and a kind when
    `dataset.banks[kind]` is; in-place edits to the rows, splits or
    entries of an already stacked split are not seen.
    """

    table: AttributeTable
    banks: dict[str, FeatureBank]
    _stacked: dict[str, _StackedSplit] = field(default_factory=dict, init=False,
                                               repr=False, compare=False)

    def kind_dims(self) -> list[tuple[str, int]]:
        return [(name, bank.dim) for name, bank in self.banks.items()]

    def arrays(self, split: str, kinds=None) -> tuple[list[str], dict[str, np.ndarray], np.ndarray]:
        """Dense (ids, {kind: X}, Y) matrices for one split, in sorted id order.

        The matrices are shared and read-only; the dict and id list are
        fresh on every call."""
        kinds = list(kinds) if kinds is not None else list(self.banks)
        stacked = self._stacked.get(split)
        if stacked is None or stacked.table is not self.table:
            ids = sorted(self.table.ids_for(split))
            if not ids:
                raise DataFormatError(f"split {split!r} has no examples")
            y = np.concatenate([self.table.rows[i] for i in ids],
                               dtype=np.float64).reshape(len(ids), self.table.n_attributes)
            y.flags.writeable = False
            stacked = self._stacked[split] = _StackedSplit(self.table, tuple(ids), y)
        xs = {}
        for kind in kinds:
            bank = self.banks.get(kind)
            if bank is None:
                raise ValueError(f"no feature bank for kind {kind!r}")
            source, x = stacked.xs.get(kind, (None, None))
            if source is not bank:
                try:
                    rows = np.fromiter(map(bank.rows.__getitem__, stacked.ids),
                                       dtype=np.intp, count=len(stacked.ids))
                except KeyError:
                    missing = [i for i in stacked.ids if i not in bank.rows]
                    raise ValueError(f"bank {kind!r} missing features for {len(missing)} "
                                     f"images (first: {missing[0]!r})") from None
                x = bank.matrix[rows].astype(np.float64)
                x.flags.writeable = False
                stacked.xs[kind] = (bank, x)
            xs[kind] = x
        return list(stacked.ids), xs, stacked.y
