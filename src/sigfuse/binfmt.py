"""Little-endian binary helpers shared by the FBNK and HNET codecs, and
the atomic writer every artifact file goes through.

Strings are u16-length-prefixed UTF-8, and `encode_str` is the rule for
what one may hold. A reader raises the caller's error class, so a bad
bank is a `DataFormatError` and a bad model a `ModelFormatError`, with
the same messages either way.
"""

from __future__ import annotations

import io
import os
import secrets
import struct
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_file(path):
    """A binary file that replaces `path` (making its missing parents) only
    when the block completes. Its mode is 0o666 less the umask, as `open` gives."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(6)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write(path, payload: bytes):
    with atomic_file(path) as fh:
        fh.write(payload)


def write_header(out, magic: bytes, version: int):
    """The magic bytes, then the u16 format version."""
    out.write(magic)
    out.write(struct.pack("<H", version))


def encode_str(s: str, what: str = "a string", error: type[Exception] = ValueError) -> bytes:
    """The UTF-8 bytes of `s` as a u16-length string. A string with no
    UTF-8 form (a lone surrogate, which a non-UTF-8 command-line byte
    decodes to) or of more than 65535 bytes raises `error` naming `what`."""
    try:
        raw = s.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise error(f"{what} is not UTF-8: character {exc.start} "
                    f"is {s[exc.start]!r}") from None
    if len(raw) > 0xFFFF:
        raise error(f"{what} of {len(raw)} UTF-8 bytes exceeds the u16 length")
    return raw


def write_str(out, s: str):
    raw = encode_str(s)
    out.write(struct.pack("<H", len(raw)))
    out.write(raw)


class Reader:
    """Reads a seekable binary stream front to back; `what` names the file
    kind in messages ("truncated bank file")."""

    def __init__(self, stream, error: type[Exception], what: str):
        self.stream, self.error, self.what = stream, error, what
        pos = stream.tell()
        self.size = stream.seek(0, io.SEEK_END)
        stream.seek(pos)

    def truncated(self) -> Exception:
        return self.error(f"truncated {self.what} file")

    def not_utf8(self, exc: UnicodeDecodeError) -> Exception:
        return self.error(f"{self.what} string is not UTF-8: {exc}")

    def tell(self) -> int:
        return self.stream.tell()

    def remaining(self) -> int:
        return self.size - self.stream.tell()

    def take(self, n: int) -> bytes:
        data = self.stream.read(n)
        if len(data) != n:
            raise self.truncated()
        return data

    def fill(self, buf):
        """Fill the writable buffer `buf` (a numpy array, say) completely."""
        if self.stream.readinto(buf) != memoryview(buf).nbytes:
            raise self.truncated()

    def header(self, magic: bytes, version: int):
        """Check the magic and u16 version that `write_header` wrote."""
        if self.take(len(magic)) != magic:
            raise self.error(f"bad {self.what} magic")
        (found,) = self.unpack("<H")
        if found != version:
            raise self.error(f"unsupported {self.what} version {found}")

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def read_str(self) -> str:
        (n,) = self.unpack("<H")
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.not_utf8(exc) from None
