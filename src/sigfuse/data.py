"""Dataset ingestion and feature extraction.

Covers the CelebA-style attribute list format, the FBNK binary feature
bank container, a uniform-LBP extractor, a P5 PGM reader for fixtures,
and the seeded synthetic multi-view generator used for desk-scale
experiments.
"""

from __future__ import annotations

import functools
import io
import struct
from collections.abc import MutableMapping
from dataclasses import dataclass, field

import numpy as np

from .binfmt import Reader, encode_str, write_header, write_str
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
    """Raised on malformed attribute, bank or image files, on pixels an
    image cannot hold, and on a split with no examples."""


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


def _claim(first_line: dict[str, int], img_id: str, lineno: int):
    """Record that `img_id` is on line `lineno`; a repeated id is refused."""
    if img_id in first_line:
        raise DataFormatError(f"line {lineno}: image id {img_id!r} repeats "
                              f"line {first_line[img_id]}")
    first_line[img_id] = lineno


def parse_attr_file(text: str) -> AttributeTable:
    """Parse the CelebA attribute list convention.

    Line 1: image count; line 2: the L attribute names; then one row per
    image: id followed by L values in {-1, 1}, mapped to {0, 1}. Blank
    lines are skipped; messages give a line's number in the file.
    """
    lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if len(lines) < 2:
        raise DataFormatError("attribute file needs a count line and a name line")
    (count_no, count_line), (names_no, names_line) = lines[:2]
    try:
        count = int(count_line.split()[0])
    except ValueError:
        raise DataFormatError(f"line {count_no}: expected an image count, got {count_line!r}")
    names = names_line.split()
    for j, name in enumerate(names):
        if name in names[:j]:
            raise DataFormatError(f"line {names_no}: attribute {name!r} is named twice")
    rows, first_line = {}, {}
    for lineno, line in lines[2:]:
        tokens = line.split()
        if len(tokens) != len(names) + 1:
            raise DataFormatError(f"line {lineno}: expected id plus {len(names)} values, "
                                  f"got {len(tokens)} tokens")
        img_id = tokens[0]
        _claim(first_line, img_id, lineno)
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
    """CelebA partition convention: one `id 0|1|2` pair per line, each id
    on one line only."""
    splits, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        tokens = line.split()
        if len(tokens) != 2 or tokens[1] not in ("0", "1", "2"):
            raise DataFormatError(f"line {lineno}: expected 'id 0|1|2', got {line!r}")
        _claim(first_line, tokens[0], lineno)
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
        if not kind_name:  # no `--bank kind=path` flag could name the bank
            raise ValueError("feature kind names must be non-empty")
        encode_str(kind_name, "feature kind name")  # the FBNK header holds it
        self.kind_name, self.dim = kind_name, dim
        # `_free` is the first row no id has used
        self.matrix, self.rows, self._free = np.empty((0, dim), "<f4"), {}, 0
        for img_id, values in (entries or {}).items():
            self.add(img_id, values)

    @classmethod
    def from_matrix(cls, kind_name: str, matrix: np.ndarray,
                    rows: dict[str, int]) -> FeatureBank:
        """A bank over a (count, dim) `<f4` matrix as it is, whose row
        `rows[id]` is that id's vector; every value must be finite."""
        finite = np.isfinite(matrix)
        if not finite.all():  # one flat pass; a per-row `all` is ~10x slower on narrow banks
            bad = next(img_id for img_id, row in rows.items() if not finite[row].all())
            _refuse(bad, matrix[rows[bad]])
        bank = cls(kind_name, matrix.shape[1])
        bank.matrix, bank.rows, bank._free = matrix, rows, len(matrix)
        return bank

    @property
    def entries(self) -> MutableMapping:
        # a fresh view each time: a view kept on the bank would make a
        # reference cycle, and banks would wait for the cyclic collector
        return _Entries(self)

    def add(self, img_id: str, values: np.ndarray):
        # an overflow is an inf and a signaling NaN a NaN, both refused below
        with np.errstate(over="ignore", invalid="ignore"):
            cast = np.asarray(values, dtype=np.float32)
        if cast.shape != (self.dim,):
            raise ValueError(f"entry {img_id!r} has shape {cast.shape}, "
                             f"bank dim is {self.dim}")
        if not np.all(np.isfinite(cast)):
            _refuse(img_id, values)
        if self._free == len(self.matrix):
            self._grow()
        self.matrix[self._free] = cast
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


def _refuse(img_id: str, values):
    """Raise the ValueError for an entry whose float32 cast of `values`
    is not finite: either a value is NaN or inf, or it overflowed."""
    with np.errstate(invalid="ignore"):  # a signaling NaN casts to a NaN
        wide = np.asarray(values, dtype=np.float64)
    if np.isfinite(wide).all():
        raise ValueError(f"entry {img_id!r} has values beyond float32 range")
    raise ValueError(f"entry {img_id!r} contains non-finite values")


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


def _windows(flat: np.ndarray, width: int) -> np.ndarray:
    """The `width`-byte windows of a flat uint8 array, row i at byte i."""
    return np.ndarray((flat.size - width + 1, width), np.uint8, flat, 0, (1, 1))


def _bank_records(bank: FeatureBank) -> tuple[bytes, np.ndarray]:
    """The FBNK v1 header of `bank` and its records as one uint8 array: per
    entry a u16 id length, the UTF-8 id and `dim` little-endian float32s.
    Ids of one byte length are written as one 2-D block: when all share
    one, so are the whole records."""
    head = io.BytesIO()
    write_header(head, BANK_MAGIC, BANK_VERSION)
    write_str(head, bank.kind_name)
    count, step = len(bank.rows), 4 * bank.dim
    head.write(struct.pack("<IQ", bank.dim, count))
    text = "".join(bank.rows)
    if text.isascii():  # a character is a byte: encode every id at once
        joined = text.encode("ascii")
        lens = np.fromiter(map(len, bank.rows), dtype=np.int64, count=count)
    else:
        ids = [img_id.encode("utf-8") for img_id in bank.rows]
        joined = b"".join(ids)
        lens = np.fromiter(map(len, ids), dtype=np.int64, count=count)
    if count and lens.max() > 0xFFFF:
        raise ValueError(f"an image id of {lens.max()} UTF-8 bytes exceeds the u16 length")
    joined = np.frombuffer(joined, dtype=np.uint8)
    rows = np.fromiter(bank.rows.values(), dtype=np.intp, count=count)
    vectors = bank.matrix[rows].view(np.uint8).reshape(count, step)
    n = int(lens[0]) if count else 0
    if not (lens != n).any():
        records = np.empty((count, 2 + n + step), dtype=np.uint8)
        records[:, 0], records[:, 1] = n & 0xFF, n >> 8
        records[:, 2:2 + n] = joined.reshape(count, n)
        records[:, 2 + n:] = vectors
        return head.getvalue(), records.reshape(-1)
    sizes = 2 + lens + step
    starts = np.cumsum(sizes) - sizes
    records = np.empty(int(sizes.sum()), dtype=np.uint8)
    records[starts] = lens & 0xFF
    records[starts + 1] = lens >> 8
    _windows(records, step)[starts + 2 + lens] = vectors
    id_starts = np.cumsum(lens) - lens
    # group the records by id length; a stable sort of u16 is a radix sort
    order = np.argsort(lens.astype(np.uint16), kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(lens[order])) + 1):
        n = int(lens[group[0]])
        _windows(records, n)[starts[group] + 2] = _windows(joined, n)[id_starts[group]]
    return head.getvalue(), records


def write_bank(buf, bank: FeatureBank):
    """Write the FBNK v1 encoding of `bank` to `buf`, anything with `write`."""
    header, records = _bank_records(bank)
    buf.write(header)
    buf.write(records)


def bank_to_bytes(bank: FeatureBank) -> bytes:
    buf = io.BytesIO()
    write_bank(buf, bank)
    return buf.getvalue()


# a record that follows this many records whose ids have its byte length
# starts one array read of the rest of their run; an array read costs
# about as much as reading 15-20 records one at a time
_RUN = 16


def _id_run(data: bytes, pos: int, n: int, step: int, most: int) -> tuple[list[str], np.ndarray]:
    """The ids and vector offsets of the records from `pos` on whose ids
    are `n` bytes long, at most `most` of them. The record at `pos` has an
    `n`-byte id and fits in `data`."""
    size = 2 + n + step
    fit = min(most, (len(data) - pos) // size)
    records = np.frombuffer(data, np.uint8, fit * size, pos).reshape(fit, size)
    lengths = records[:, :2].view("<u2")[:, 0]
    # look for the run's end in windows that grow, so a short run costs little
    m, width = 1, 16
    while m < fit:
        stop = min(fit, m + width)
        other = np.flatnonzero(lengths[m:stop] != n)
        if other.size:
            m += int(other[0])
            break
        m, width = stop, 4 * width
    offsets = np.arange(pos + 2 + n, pos + m * size, size)
    raw = records[:m, 2:2 + n]
    # NumPy drops a str's trailing NULs, and ASCII bytes are their code points
    if n and raw.max() < 0x80 and raw[:, -1].all():
        return raw.astype("<u4").view(f"<U{n}")[:, 0].tolist(), offsets
    return [data[s - n:s].decode("utf-8") for s in offsets.tolist()], offsets


def bank_from_bytes(data: bytes) -> FeatureBank:
    """Parse an FBNK v1 file: one walk over the records reads the id
    lengths and ids, then one gather lifts every vector into the bank's
    (count, dim) float32 matrix, row i for the i-th record. The walk steps
    one record at a time until a record follows `_RUN` records whose ids
    have its byte length, then takes the rest of that run as one array."""
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
    # `offsets` holds arrays of vector offsets in record order; `stretch`
    # the offsets of the records taken one at a time since the last run
    ids, offsets, stretch = [], [], []
    add_id, add_offset = ids.append, stretch.append
    done, prev, same = 0, -1, 0
    try:
        while done < count:
            for done in range(done, count):  # one record at a time
                n = data[pos] | data[pos + 1] << 8
                if n != prev:
                    prev, same = n, 0
                else:
                    same += 1
                    if same == _RUN and pos + 2 + n + step <= size:
                        break
                start = pos + 2
                end = start + n
                if end > size:
                    raise rd.truncated()
                add_id(data[start:end].decode("utf-8"))
                add_offset(end)
                pos = end + step
            else:
                break
            run, run_offsets = _id_run(data, pos, n, step, count - done)
            ids += run
            offsets += [np.array(stretch, dtype=np.intp), run_offsets]
            stretch.clear()
            pos = int(run_offsets[-1]) + step
            done += len(run)
    except IndexError:
        raise rd.truncated() from None
    except UnicodeDecodeError as exc:
        raise rd.not_utf8(exc) from None
    if pos > size:
        raise rd.truncated()
    if pos < size:
        raise DataFormatError("trailing bytes after bank data")
    offsets = np.concatenate([*offsets, np.array(stretch, dtype=np.intp)])
    records = np.frombuffer(data, dtype=np.uint8)
    vectors = (_windows(records, step)[offsets] if count
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
    except ValueError as exc:  # a non-finite vector or an empty kind name
        raise DataFormatError(str(exc)) from None


def save_bank(bank: FeatureBank, path):
    """Write `bank` to `path` as FBNK. The bank is encoded before the file
    is opened, so a bank the encoder refuses (an id of more than 65535
    UTF-8 bytes) leaves `path` as it was."""
    header, records = _bank_records(bank)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(records)


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
    table = np.full(256, 57, dtype=np.intp)
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
    (row-major over cells). uint8 pixels compare as they are; others are
    truncated to int32 (a float toward zero), and a pixel int32 cannot
    hold, NaN included, is a DataFormatError raised before any code.
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
    if img.dtype != np.uint8:
        if img.dtype.kind not in "biuf":
            raise DataFormatError(f"pixels must be real numbers, got dtype {img.dtype}")
        lo, hi = img.min().item(), img.max().item()
        if not (lo > -2**31 - 1 and hi < 2**31):  # False for NaN as well
            raise DataFormatError(f"pixels must be finite and fit int32, got values in [{lo}, {hi}]")
        img = img.astype(np.int32)
    flat = img.reshape(-1)

    # one flat run holds centres (1, 1) .. (h-2, w-2), each neighbor at a
    # fixed offset from it, plus the 2 wrap-around positions between rows
    offsets = _lbp_offsets(h, w, cell_size)
    n = offsets.size
    center = flat[w + 1:w + 1 + n]
    codes = np.zeros(n, dtype=np.uint8)
    plane = np.empty_like(codes)
    for bit, (dy, dx) in enumerate(_NEIGHBORS):
        start = w + 1 + dy * w + dx
        np.greater_equal(flat[start:start + n], center, out=plane.view(bool))
        np.multiply(plane, np.uint8(1 << bit), out=plane)
        codes |= plane
    keys = np.take(_LBP_TABLE, codes)
    keys += offsets

    size = lbp_dim(h, w, cell_size)
    desc = np.bincount(keys, minlength=size)[:size].astype(np.float64)
    desc = desc.reshape(-1, LBP_BINS)
    sums = desc.sum(axis=1, keepdims=True)
    np.divide(desc, sums, out=desc, where=sums > 0)
    return desc.reshape(-1)


@functools.lru_cache(maxsize=1)
def _lbp_offsets(h: int, w: int, cell_size: int) -> np.ndarray:
    """Histogram key offset of each position of lbp_extract's flat run: its
    cell's first bin, or the descriptor's size (a key bincount's result
    drops) for a wrap-around position or a pixel of a dropped partial
    cell. Cached for the last shape, since a bank's images share one."""
    rows, cols = h // cell_size, w // cell_size
    size = lbp_dim(h, w, cell_size)
    cy = np.arange(h) // cell_size
    cx = np.arange(w) // cell_size
    row_key = np.where(cy < rows, cy * (cols * LBP_BINS), size)
    col_key = np.where(cx < cols, cx * LBP_BINS, size)
    col_key[[0, -1]] = size
    offsets = np.minimum(row_key[:, None] + col_key, size).reshape(-1)
    offsets = offsets[w + 1:w + 1 + max((h - 2) * w - 2, 0)].astype(np.intp)
    offsets.flags.writeable = False
    return offsets


def rgb_to_gray(img: np.ndarray) -> np.ndarray:
    """Integer luma: round(0.299 R + 0.587 G + 0.114 B). A luma outside
    0..255, or NaN, is a DataFormatError: uint8 would wrap it."""
    img = np.asarray(img, dtype=np.float64)
    gray = np.rint(0.299 * img[..., 0] + 0.587 * img[..., 1] + 0.114 * img[..., 2])
    if gray.size and not (gray.min() >= 0 and gray.max() <= 255):  # False for NaN as well
        raise DataFormatError(f"RGB luma must be in 0..255, got values in [{gray.min()}, {gray.max()}]")
    return gray.astype(np.uint8)


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
    for token in tokens[1:]:
        if not token.isdigit():
            raise DataFormatError(f"PGM header token {token!r} is not a decimal integer")
    width, height, maxval = (int(t) for t in tokens[1:])
    if not width or not height:
        raise DataFormatError(f"PGM image of width {width} and height {height} has no pixels")
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
        names = [v.name for v in self.views]
        for v in self.views:
            if not v.name:
                raise ValueError("view names must be non-empty")
            encode_str(v.name, "view name")  # it names a bank
            if names.count(v.name) > 1:
                raise ValueError(f"view {v.name!r} is named twice")
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

# `Dataset.arrays` lifts a kind's rows to float64 this many floats at a time
_GATHER_FLOATS = 1 << 16


@dataclass
class Dataset:
    """An attribute table and one feature bank per kind.

    `rows` maps a split's sorted ids to row indices into a kind's bank
    matrix, which is how training gathers its float32 batches; `arrays`
    stacks a split whole, as read-only float64 matrices, for validation
    and evaluation. Each view is built on its first request and shared
    by every later one, under one rule: a view is built again when an
    object it was built from has been replaced. A split's ids and labels
    are built from `table`; a kind's float64 stack from `table` and
    `banks[kind]`; its row index from those and the bank's `matrix` (a
    bank grows into a new one). Other in-place edits to the rows, splits
    or entries of a view already built are not seen. A view stays held
    after its sources are replaced, until its key is next asked for.
    """

    table: AttributeTable
    banks: dict[str, FeatureBank]
    # key -> (the objects a view was built from, the view)
    _views: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def kind_dims(self) -> list[tuple[str, int]]:
        return [(name, bank.dim) for name, bank in self.banks.items()]

    def _once(self, key, sources: tuple, build, *args):
        """The view held under `key`, made by `build(*args)` again when
        one of `sources` is not the object it was built from."""
        held = self._views.get(key)
        if held is None or any(old is not new for old, new in zip(held[0], sources)):
            held = self._views[key] = (sources, build(*args))
        return held[1]

    def _split(self, split: str) -> tuple[tuple[str, ...], np.ndarray]:
        """The split's sorted ids and read-only float64 label matrix."""
        def build():
            ids = sorted(self.table.ids_for(split))
            if not ids:
                raise DataFormatError(f"split {split!r} has no examples")
            y = np.concatenate([self.table.rows[i] for i in ids],
                               dtype=np.float64).reshape(len(ids), self.table.n_attributes)
            y.flags.writeable = False
            return tuple(ids), y
        return self._once(split, (self.table,), build)

    def rows(self, split: str, kind: str) -> np.ndarray:
        """The read-only row of `banks[kind].matrix` for each of the
        split's ids, in sorted id order; an id the bank lacks is a
        `DataFormatError`."""
        ids, _ = self._split(split)
        bank = self.banks.get(kind)
        if bank is None:
            raise ValueError(f"no feature bank for kind {kind!r}")

        def build():
            try:
                rows = np.fromiter(map(bank.rows.__getitem__, ids), dtype=np.intp,
                                   count=len(ids))
            except KeyError:
                missing = [i for i in ids if i not in bank.rows]
                raise DataFormatError(f"bank {kind!r} missing features for {len(missing)} "
                                      f"images (first: {missing[0]!r})") from None
            rows.flags.writeable = False
            return rows
        return self._once((split, kind, "rows"), (self.table, bank, bank.matrix), build)

    def _stack(self, split: str, kind: str) -> np.ndarray:
        rows = self.rows(split, kind)  # raises for a missing bank or id
        bank = self.banks[kind]
        x = np.empty((len(rows), bank.dim))
        # gather in bounded chunks, so no `<f4` copy of the split is held
        stride = max(1, _GATHER_FLOATS // max(bank.dim, 1))
        for start in range(0, len(rows), stride):
            x[start:start + stride] = bank.matrix[rows[start:start + stride]]
        x.flags.writeable = False
        return x

    def arrays(self, split: str, kinds=None) -> tuple[list[str], dict[str, np.ndarray], np.ndarray]:
        """Dense (ids, {kind: X}, Y) matrices for one split, in sorted id order.

        The matrices are shared and read-only; the dict and id list are
        fresh on every call."""
        kinds = list(kinds) if kinds is not None else list(self.banks)
        ids, y = self._split(split)
        xs = {kind: self._once((split, kind, "x"), (self.table, self.banks.get(kind)),
                               self._stack, split, kind) for kind in kinds}
        return list(ids), xs, y
